"""Instance file schema and report serialization.

An instance file is a single JSON document:

    {
      "dimension": 2,
      "balls": [{"center": [-1.0, 0.0], "radius": 1.4142135623730951}, ...],
      "target": {"center": [...], "radius": ...}   // optional
    }

Unknown fields are rejected so that typos fail loudly.
"""

import json

import numpy as np

from .errors import DimensionMismatch, ValidationError
from .geometry import Ball, Instance

_TOP_KEYS = {"dimension", "balls", "target"}
_BALL_KEYS = {"center", "radius"}


def _ball_fields(obj, where):
    if not isinstance(obj, dict):
        raise ValidationError(f"{where} must be an object")
    unknown = set(obj) - _BALL_KEYS
    if unknown:
        raise ValidationError(f"{where} has unknown fields {sorted(unknown)}")
    if "center" not in obj or "radius" not in obj:
        raise ValidationError(f"{where} needs 'center' and 'radius'")
    return obj["center"], obj["radius"]


def _parse_ball(obj, where):
    center, radius = _ball_fields(obj, where)
    try:
        return Ball(center=np.asarray(center, dtype=float),
                    radius=float(radius))
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def parse_instance(doc):
    """Validate a parsed JSON document into (Instance, optional target Ball).

    The balls go straight into the instance's arrays; no Ball is built.
    """
    if not isinstance(doc, dict):
        raise ValidationError("instance file must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ValidationError(f"unknown top-level fields {sorted(unknown)}")
    if "dimension" not in doc or "balls" not in doc:
        raise ValidationError("instance file needs 'dimension' and 'balls'")
    dimension = doc["dimension"]
    if (not isinstance(dimension, int) or isinstance(dimension, bool)
            or dimension < 1):
        raise ValidationError("'dimension' must be a positive integer")
    if not isinstance(doc["balls"], list) or not doc["balls"]:
        raise ValidationError("'balls' must be a nonempty array")
    fields = [_ball_fields(b, f"balls[{i}]")
              for i, b in enumerate(doc["balls"])]
    if any(isinstance(c, list) and len(c) != dimension for c, _ in fields):
        raise DimensionMismatch(f"every ball center needs {dimension} entries")
    try:
        instance = Instance.from_data(
            np.array([c for c, _ in fields], dtype=float),
            np.array([r for _, r in fields], dtype=float))
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"'balls': {exc}") from exc
    target = None
    if "target" in doc:
        target = _parse_ball(doc["target"], "target")
        if target.dimension != dimension:
            raise ValidationError("target dimension mismatch")
    return instance, target


def load_instance(path):
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"invalid JSON: {exc}") from exc
    return parse_instance(doc)


def instance_to_doc(instance: Instance, target: Ball = None):
    doc = {
        "dimension": instance.dimension,
        "balls": [
            {"center": center, "radius": radius}
            for center, radius in zip(instance.centers_matrix().tolist(),
                                      instance.radii().tolist())
        ],
    }
    if target is not None:
        doc["target"] = {"center": [float(v) for v in target.center],
                         "radius": target.radius}
    return doc


def dump_instance(instance: Instance, path, target: Ball = None):
    with open(path, "w") as fh:
        json.dump(instance_to_doc(instance, target), fh, indent=2)
        fh.write("\n")


def solution_report(instance, solution, regime, certificate=None,
                    diagnostics=None):
    """JSON-ready report mirroring the Solution/Certificate invariants."""
    report = {
        "center": [float(v) for v in solution.center],
        "radius": float(solution.radius),
        "multipliers": [float(v) for v in solution.multipliers],
        "qp_value": float(solution.qp_value),
        "status": solution.status.value,
        "regime": {
            "rank_centers": regime.rank_centers,
            "rank_shifted": regime.rank_shifted,
            "regime": regime.regime.value,
        },
    }
    if certificate is not None:
        report["certificate"] = {
            "alpha": float(certificate.alpha),
            "offdiag_norm": float(np.linalg.norm(certificate.offdiag)),
            "beta": float(certificate.beta),
            "psd_ok": bool(certificate.psd_ok),
            "residual": float(certificate.residual),
        }
    report["diagnostics"] = {
        "fw_gap": float(solution.fw_gap),
        "iterations": int(solution.fw_iterations),
        "converged": bool(solution.converged),
    }
    if diagnostics:
        report["diagnostics"].update(diagnostics)
    return report


def emit(obj, compact=False):
    if compact:
        return json.dumps(obj, separators=(",", ":"))
    return json.dumps(obj, indent=2)
