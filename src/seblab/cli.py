"""Command-line surface.

Subcommands:
    solve <file>                 solve the instance, print a JSON report
    jnr <file> sample|member|probe   joint-numerical-range lab
    oracle <file>                exact oracles beside the solver: q* by support
                                 enumeration, min max_i g_i on a grid (n <= 3),
                                 the ball of N sampled points (--cloud N)
    rank <file>                  the centers' affine rank and its regime,
                                 the gate `solve` reads before solving

Exit codes: 0 success, 1 bad arguments or input, 2 empty interior,
3 unsupported regime (jnr operations that need the gating condition).
"""

import argparse
import csv
import sys

import numpy as np

from . import io, numrange, sampling
from .errors import (CombinatorialBlowup, SebLabError, UnsupportedRegime,
                     ValidationError)
from .geometry import SolveStatus
from .numrange import QuadraticMap
from .simplex_qp import build_qp, support_oracle
from .solver import build_certificate, classify, regime_report, solve_seb

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_EMPTY = 2
EXIT_UNSUPPORTED = 3


def _fail(msg, out):
    print(io.emit({"error": msg}), file=out)
    return EXIT_ERROR


def _parse_point(text):
    try:
        return np.array([float(v) for v in text.split(",")], dtype=float)
    except ValueError as exc:
        raise ValidationError(f"invalid --point value {text!r}") from exc


def cmd_solve(args, out):
    instance, _target = io.load_instance(args.file)
    solution = solve_seb(instance, max_iter=args.max_iter)
    regime = regime_report(instance, solution)
    certificate = None
    if solution.status in (SolveStatus.CERTIFIED_OPTIMAL,
                           SolveStatus.UPPER_BOUND_ONLY):
        certificate = build_certificate(instance, solution)
    diagnostics = {"seed": args.seed}
    if args.verify and solution.status in (SolveStatus.CERTIFIED_OPTIMAL,
                                           SolveStatus.UPPER_BOUND_ONLY):
        cloud = sampling.sample_intersection(
            instance, args.verify, seed=args.seed, solution=solution)
        worst = sampling.farthest_distance(cloud, solution.center)
        diagnostics["verify_points"] = args.verify
        diagnostics["sample_method"] = cloud.method.value
        diagnostics["max_containment_violation"] = max(
            0.0, worst - solution.radius)
    report = io.solution_report(solution, regime, certificate, diagnostics)
    print(io.emit(report, compact=args.compact), file=out)
    if solution.status is SolveStatus.EMPTY_INTERIOR:
        return EXIT_EMPTY
    return EXIT_OK


def _margin(verdict):
    """The verdict's margin, or None (JSON null) on an empty fibre, whose
    margin is infinite."""
    return float(verdict.margin) if np.isfinite(verdict.margin) else None


def _target_quadratic(instance, target):
    if target is not None:
        return target
    solution = solve_seb(instance)
    if solution.status is SolveStatus.EMPTY_INTERIOR:
        raise ValidationError(
            "no target ball given and the instance has empty interior")
    return solution.target_quadratic()


def cmd_jnr(args, out):
    instance, target = io.load_instance(args.file)
    qmap = QuadraticMap.from_instance(instance,
                                      _target_quadratic(instance, target))
    if args.action == "sample":
        X = numrange.sample_inputs(qmap, args.count,
                                   np.random.default_rng(args.seed))
        G = numrange.eval_map(qmap, X)
        dest = open(args.out, "w", newline="") if args.out else out
        try:
            writer = csv.writer(dest)
            writer.writerow([f"g{i}" for i in range(qmap.m + 1)])
            for row in G:
                writer.writerow([repr(float(v)) for v in row])
        finally:
            if args.out:
                dest.close()
        return EXIT_OK
    if args.action == "member":
        if args.point is None:
            raise ValidationError("member needs --point z0,z1,...")
        z = _parse_point(args.point)
        verdict = numrange.in_range(qmap, z)
        report = {
            "point": [float(v) for v in z],
            "in_range": bool(verdict.member),
            "range_margin": _margin(verdict),
        }
        if verdict.witness is not None:
            report["witness"] = [float(v) for v in verdict.witness]
        try:
            hull = numrange.in_pair_hull(qmap, z)
            report["in_pair_hull"] = bool(hull.member)
            report["hull_margin"] = _margin(hull)
        except UnsupportedRegime:
            report["in_pair_hull"] = None
            report["note"] = "pair-hull membership unsupported in this regime"
        print(io.emit(report, compact=args.compact), file=out)
        return EXIT_OK
    # probe
    conv = numrange.convexity_probe(qmap, args.count, seed=args.seed)
    sep = numrange.separation_probe(qmap, args.count, seed=args.seed)
    report = {
        "seed": args.seed,
        "samples": args.count,
        "regime": qmap.regime().value,
        "convexity": {
            "counterexamples": len(conv.counterexamples),
            "convex_evidence": conv.convex_evidence,
        },
        "separation": {
            "range_hits": len(sep.range_hits),
            "hull_hits": len(sep.hull_hits),
            "implication_holds": sep.implication_holds,
        },
    }
    print(io.emit(report, compact=args.compact), file=out)
    return EXIT_OK


def cmd_oracle(args, out):
    instance, _ = io.load_instance(args.file)
    solution = solve_seb(instance)
    report = {
        "solver": {"qp_value": float(solution.qp_value),
                   "radius": float(solution.radius),
                   "status": solution.status.value},
        "warnings": [],
    }
    try:
        val, mu = support_oracle(build_qp(instance))
        report["support_oracle"] = {"value": float(val),
                                    "minimizer": [float(v) for v in mu]}
    except CombinatorialBlowup as exc:
        report["warnings"].append(f"support_oracle skipped: {exc}")
    if instance.dimension <= 3:
        res = 200 if instance.dimension <= 2 else 60
        val = sampling.grid_min_maxg(instance, res)
        report["grid_min_maxg"] = {
            "resolution": res,
            "value": float(val),
            "minus_qp_value": float(-solution.qp_value),
            "bound": float(sampling.grid_resolution_bound(instance, res)),
        }
    else:
        report["warnings"].append(
            f"grid_min_maxg skipped: dimension {instance.dimension} > 3")
    if args.cloud and solution.status in (SolveStatus.CERTIFIED_OPTIMAL,
                                          SolveStatus.UPPER_BOUND_ONLY):
        cloud = sampling.sample_intersection(instance, args.cloud,
                                             seed=args.seed,
                                             solution=solution)
        center, radius = sampling.cloud_meb(cloud)
        report["cloud_meb"] = {
            "count": args.cloud,
            "sample_method": cloud.method.value,
            "radius": float(radius),
            "center": [float(v) for v in center],
            "farthest_from_solver_center": float(
                sampling.farthest_distance(cloud, solution.center)),
        }
    print(io.emit(report, compact=args.compact), file=out)
    return EXIT_OK


def cmd_rank(args, out):
    instance, _ = io.load_instance(args.file)
    regime = classify(instance)
    report = {
        "dimension": instance.dimension,
        "balls": instance.m,
        "rank_shifted": regime.rank_shifted,
        "regime": regime.regime.value,
    }
    print(io.emit(report, compact=args.compact), file=out)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 with a JSON error, not argparse's 2 (an empty
    interior here); the subcommands' parsers are of this class too."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def _nonnegative(text):
    """A seed or a count, an integer >= 0; argparse names the flag in the
    error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 0, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def build_parser():
    parser = _Parser(
        prog="seblab",
        description="Smallest enclosing ball of ball intersections and the "
                    "joint-numerical-range lab.")
    parser.add_argument("--compact", action="store_true",
                        help="machine-oriented single-line JSON output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance file")
    p.add_argument("file")
    p.add_argument("--max-iter", type=int, default=None)
    p.add_argument("--seed", type=_nonnegative, default=0)
    p.add_argument("--verify", type=_nonnegative, default=0, metavar="N",
                   help="sample N feasible points and report max violation")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("jnr", help="joint-numerical-range lab")
    p.add_argument("file")
    p.add_argument("action", choices=["sample", "member", "probe"])
    p.add_argument("--count", type=_nonnegative, default=1000)
    p.add_argument("--seed", type=_nonnegative, default=0)
    p.add_argument("--point", type=str, default=None,
                   help="comma-separated value vector for 'member'")
    p.add_argument("--out", type=str, default=None, help="CSV output path")
    p.set_defaults(func=cmd_jnr)

    p = sub.add_parser("oracle", help="brute-force cross-checks")
    p.add_argument("file")
    p.add_argument("--cloud", type=_nonnegative, default=0, metavar="N")
    p.add_argument("--seed", type=_nonnegative, default=0)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("rank", help="rank / regime classification")
    p.add_argument("file")
    p.set_defaults(func=cmd_rank)
    return parser


def main(argv=None, out=None):
    out = out if out is not None else sys.stdout
    try:
        args = build_parser().parse_args(argv)
        return args.func(args, out)
    except UnsupportedRegime as exc:
        print(io.emit({"error": str(exc)}), file=out)
        return EXIT_UNSUPPORTED
    except (SebLabError, OSError) as exc:
        return _fail(str(exc), out)


if __name__ == "__main__":
    sys.exit(main())
