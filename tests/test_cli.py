import io as io_module
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import seblab
from seblab import io as seblab_io
from seblab.cli import main
from seblab.errors import ValidationError
from seblab.geometry import Instance, UnitQuadratic


LENS = {"dimension": 2,
        "balls": [{"center": [-1.0, 0.0], "radius": 2.0 ** 0.5},
                  {"center": [1.0, 0.0], "radius": 2.0 ** 0.5}]}
EXAMPLE = {"dimension": 2,
           "balls": [{"center": [0.0, 1.0], "radius": 1.0},
                     {"center": [1.0, 0.0], "radius": 1.0}],
           "target": {"center": [1.0, 1.0], "radius": 2.0 ** 0.5}}
DISJOINT = {"dimension": 2,
            "balls": [{"center": [-5.0, 0.0], "radius": 1.0},
                      {"center": [5.0, 0.0], "radius": 1.0}]}
# the solver's ball keeps about 4 in 10,000 uniform draws: the sampler
# falls back to hit-and-run
HIGH_DIM = {"dimension": 16,
            "balls": [{"center": list(row), "radius": 1.2}
                      for row in np.eye(16)]}
UNSUPPORTED = {"dimension": 2,
               "balls": [{"center": [1.0, 0.0], "radius": 2.0},
                         {"center": [0.0, 1.0], "radius": 2.0},
                         {"center": [1.0, 1.0], "radius": 2.0}]}


def run_cli(args):
    buf = io_module.StringIO()
    code = main(args, out=buf)
    return code, buf.getvalue()


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestSolveCommand:
    def test_lens_report(self, tmp_path):
        path = write_doc(tmp_path, "lens.json", LENS)
        code, text = run_cli(["solve", path, "--verify", "200"])
        assert code == 0
        report = json.loads(text)
        assert report["status"] == "CertifiedOptimal"
        assert report["radius"] == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(report["center"], [0.0, 0.0], atol=1e-10)
        assert np.allclose(report["multipliers"], [0.5, 0.5], atol=1e-10)
        assert report["regime"]["regime"] == "ConvexCase"
        assert report["certificate"]["psd_ok"] is True
        assert report["diagnostics"]["max_containment_violation"] == 0.0
        assert report["diagnostics"]["converged"] is True
        # the duality bracket from the report and the balls: q(mu) =
        # radius^2, q(mu) + max_i g_i(center) is the gap and closes to 1e-9,
        # and a radius shrunk by 1 % falls below -max_i g_i(center)
        q, gap = report["qp_value"], report["diagnostics"]["fw_gap"]
        lb = -max(float(np.sum((np.array(report["center"])
                                - ball["center"]) ** 2)) - ball["radius"] ** 2
                  for ball in LENS["balls"])
        assert report["radius"] ** 2 == pytest.approx(q, rel=1e-12)
        assert q - lb <= 1e-9 * q and gap <= 1e-9 * q
        assert q - lb == pytest.approx(gap, abs=1e-12)
        assert (0.99 * report["radius"]) ** 2 < lb

    def test_verify_reports_sample_method(self, tmp_path):
        for doc, method in ((LENS, "Rejection"), (HIGH_DIM, "HitAndRun")):
            path = write_doc(tmp_path, "inst.json", doc)
            code, text = run_cli(["solve", path, "--verify", "50"])
            assert code == 0
            diagnostics = json.loads(text)["diagnostics"]
            assert diagnostics["sample_method"] == method
            assert diagnostics["max_containment_violation"] == 0.0

    def test_verify_samples_the_reported_solve(self, tmp_path, monkeypatch):
        # the cloud is drawn from the solve being verified, also under
        # --max-iter, and not from a second solve with default settings
        from seblab import solver

        def no_solve(*args, **kwargs):
            raise AssertionError("the sampler solved again")

        monkeypatch.setattr(solver, "solve_seb", no_solve)
        path = write_doc(tmp_path, "lens.json", LENS)
        for extra in ([], ["--max-iter", "3"]):
            code, text = run_cli(["solve", path, "--verify", "50"] + extra)
            assert code == 0
            assert json.loads(text)["diagnostics"]["sample_method"] == (
                "Rejection")
        code, _ = run_cli(["oracle", path, "--cloud", "50"])
        assert code == 0

    def test_disjoint_exit_code(self, tmp_path):
        path = write_doc(tmp_path, "disjoint.json", DISJOINT)
        code, text = run_cli(["solve", path])
        assert code == 2
        report = json.loads(text)
        assert report["status"] == "EmptyInterior"
        assert report["radius"] == 0.0

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, text = run_cli(["solve", str(path)])
        assert code == 1
        assert "error" in json.loads(text)

    def test_unknown_field_rejected(self, tmp_path):
        doc = dict(LENS, solver_hint="fast")
        path = write_doc(tmp_path, "extra.json", doc)
        code, text = run_cli(["solve", path])
        assert code == 1
        assert "solver_hint" in json.loads(text)["error"]

    def test_missing_file(self, tmp_path):
        code, text = run_cli(["solve", str(tmp_path / "nope.json")])
        assert code == 1
        assert "error" in json.loads(text)

    def test_negative_max_iter(self, tmp_path):
        path = write_doc(tmp_path, "lens.json", LENS)
        code, text = run_cli(["solve", path, "--max-iter", "-1"])
        assert code == 1
        assert "max_iter" in json.loads(text)["error"]

    def test_gap_tolerance_flag_refused(self, tmp_path):
        # the solve has one stop, set by the balls; an old script that
        # still passes a gap tolerance fails loudly instead of being ignored
        path = write_doc(tmp_path, "lens.json", LENS)
        code, text = run_cli(["solve", path, "--tol", "1e-9"])
        assert code == 1
        assert json.loads(text) == {
            "error": "seblab: unrecognized arguments: --tol 1e-9"}

    def test_center_of_wrong_length(self, tmp_path):
        # DimensionMismatch is a package error that is not a
        # ValidationError: it exits 1 with its message all the same
        doc = {"dimension": 2, "balls": [{"center": [0, 0, 1], "radius": 1}]}
        path = write_doc(tmp_path, "long.json", doc)
        code, text = run_cli(["solve", path])
        assert code == 1
        assert json.loads(text) == {
            "error": "every ball center needs 2 entries"}

    def test_overflowing_squares_refused(self, tmp_path):
        # the radii are finite, their squares are not: refused at load,
        # not solved to a NaN radius
        huge = {"dimension": 2,
                "balls": [{"center": [1e200, 0.0], "radius": 1.5e200},
                          {"center": [-1e200, 0.0], "radius": 1.5e200}]}
        path = write_doc(tmp_path, "huge.json", huge)
        for args in (["solve", path], ["rank", path]):
            code, text = run_cli(args)
            assert code == 1
            assert "overflow" in json.loads(text)["error"]

    def test_compact_single_line(self, tmp_path):
        path = write_doc(tmp_path, "lens.json", LENS)
        code, text = run_cli(["--compact", "solve", path])
        assert code == 0
        assert text.count("\n") == 1


class TestJnrCommand:
    def test_member_gap_point(self, tmp_path):
        path = write_doc(tmp_path, "example.json", EXAMPLE)
        code, text = run_cli(["jnr", path, "member", "--point", "1,0,0"])
        assert code == 0
        report = json.loads(text)
        assert report["in_range"] is False
        assert report["in_pair_hull"] is True
        assert report["hull_margin"] == pytest.approx(-0.5)

    def test_member_range_point(self, tmp_path):
        path = write_doc(tmp_path, "example.json", EXAMPLE)
        code, text = run_cli(["jnr", path, "member", "--point", "1,1,-1"])
        assert code == 0
        report = json.loads(text)
        assert report["in_range"] is True
        assert np.allclose(report["witness"], [1.0, 0.0], atol=1e-8)

    def test_member_reports_are_strict_json(self, tmp_path):
        # an empty fibre has an infinite margin, written as null: no report
        # may hold NaN or Infinity, which RFC 8259 JSON does not have
        def refuse(name):
            raise ValueError(f"non-standard JSON constant {name}")

        # (document, point, in the range, empty fibre)
        cases = [(LENS, "0,1,5", False, True), (LENS, "0,0,0", True, False),
                 (EXAMPLE, "1,0,0", False, False),
                 (EXAMPLE, "1,1,-1", True, False),
                 (EXAMPLE, "3,5,-7", False, False)]
        for doc, point, member, empty in cases:
            path = write_doc(tmp_path, "doc.json", doc)
            code, text = run_cli(["jnr", path, "member", "--point", point])
            assert code == 0
            report = json.loads(text, parse_constant=refuse)
            assert report["in_range"] is member
            assert (report["range_margin"] is None) is empty
            assert (report["hull_margin"] is None) is empty

    @pytest.mark.parametrize("point", ["inf,-inf,1", "nan,1,1", "1,0,inf"])
    def test_member_non_finite_point(self, tmp_path, point):
        path = write_doc(tmp_path, "lens.json", LENS)
        code, text = run_cli(["jnr", path, "member", "--point", point])
        assert code == 1
        assert "finite" in json.loads(text)["error"]

    def test_member_requires_point(self, tmp_path):
        path = write_doc(tmp_path, "example.json", EXAMPLE)
        code, text = run_cli(["jnr", path, "member"])
        assert code == 1

    def test_member_bad_point(self, tmp_path):
        path = write_doc(tmp_path, "example.json", EXAMPLE)
        code, _ = run_cli(["jnr", path, "member", "--point", "1,zzz"])
        assert code == 1

    def test_sample_csv(self, tmp_path):
        path = write_doc(tmp_path, "lens.json", LENS)
        out_csv = tmp_path / "samples.csv"
        code, _ = run_cli(["jnr", path, "sample", "--count", "50",
                           "--out", str(out_csv)])
        assert code == 0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "g0,g1,g2"
        assert len(lines) == 51
        rows = np.array([[float(v) for v in ln.split(",")]
                         for ln in lines[1:]])
        assert rows.shape == (50, 3)

    def test_probe_lens(self, tmp_path):
        path = write_doc(tmp_path, "lens.json", LENS)
        code, text = run_cli(["jnr", path, "probe", "--count", "500"])
        assert code == 0
        report = json.loads(text)
        assert report["regime"] == "ConvexCase"
        assert report["convexity"]["convex_evidence"] is True
        assert report["separation"]["implication_holds"] is True

    def test_probe_convexity_is_the_rank_theorem(self, tmp_path):
        # the lens map has rank A < n: its convexity block is the theorem's
        # verdict and does not depend on the seed
        path = write_doc(tmp_path, "lens.json", LENS)
        blocks = []
        for seed in ("1", "2"):
            code, text = run_cli(["jnr", path, "probe", "--seed", seed])
            assert code == 0
            blocks.append(json.loads(text)["convexity"])
        assert blocks[0] == blocks[1] == {"counterexamples": 0,
                                          "convex_evidence": True}

    def test_probe_unsupported_regime(self, tmp_path):
        path = write_doc(tmp_path, "unsupported.json", UNSUPPORTED)
        code, text = run_cli(["jnr", path, "probe", "--count", "10"])
        assert code == 3
        assert "error" in json.loads(text)

    def test_member_unsupported_regime(self, tmp_path):
        # range membership holds in every regime; the pair hull is only
        # defined where the paper's theorem applies, so its verdict is null
        path = write_doc(tmp_path, "unsupported.json", UNSUPPORTED)
        code, text = run_cli(["jnr", path, "member", "--point", "0,0,0,0"])
        assert code == 0
        report = json.loads(text)
        assert report["in_range"] is False
        assert report["in_pair_hull"] is None
        assert "hull_margin" not in report
        assert report["note"] == ("pair-hull membership unsupported in this "
                                  "regime")

    def test_negative_count(self, tmp_path):
        path = write_doc(tmp_path, "lens.json", LENS)
        for action in ("sample", "probe"):
            code, text = run_cli(["jnr", path, action, "--count", "-1"])
            assert code == 1
            assert "count" in json.loads(text)["error"]

    def test_target_needed_for_disjoint(self, tmp_path):
        path = write_doc(tmp_path, "disjoint.json", DISJOINT)
        code, _ = run_cli(["jnr", path, "member", "--point", "0,0,0"])
        assert code == 1


class TestOracleCommand:
    def test_lens(self, tmp_path):
        path = write_doc(tmp_path, "lens.json", LENS)
        code, text = run_cli(["oracle", path, "--cloud", "500"])
        assert code == 0
        report = json.loads(text)
        assert report["solver"]["qp_value"] == pytest.approx(1.0, abs=1e-10)
        assert report["warnings"] == []
        assert abs(report["support_oracle"]["value"]
                   - report["solver"]["qp_value"]) <= 1e-12
        assert np.allclose(report["support_oracle"]["minimizer"], [0.5, 0.5],
                           rtol=0, atol=1e-12)
        g = report["grid_min_maxg"]
        assert abs(g["value"] - g["minus_qp_value"]) <= g["bound"]
        assert report["cloud_meb"]["radius"] <= report["solver"]["radius"] * (
            1 + 1e-9)

    def test_cloud_reports_sample_method(self, tmp_path):
        for doc, method in ((LENS, "Rejection"), (HIGH_DIM, "HitAndRun")):
            path = write_doc(tmp_path, "inst.json", doc)
            code, text = run_cli(["oracle", path, "--cloud", "50"])
            assert code == 0
            assert json.loads(text)["cloud_meb"]["sample_method"] == method

    def test_support_oracle_guard_is_a_warning(self, tmp_path):
        # 16 balls in R^16: 2^16 - 1 supports, over the oracle's guard
        path = write_doc(tmp_path, "high.json", HIGH_DIM)
        code, text = run_cli(["oracle", path])
        assert code == 0
        report = json.loads(text)
        assert "support_oracle" not in report
        assert any(w.startswith("support_oracle skipped: 65535 supports")
                   for w in report["warnings"])


class TestRankCommand:
    def test_classifications(self, tmp_path):
        for doc, regime in ((LENS, "ConvexCase"),
                            (UNSUPPORTED, "Unsupported")):
            path = write_doc(tmp_path, "inst.json", doc)
            code, text = run_cli(["rank", path])
            assert code == 0
            assert json.loads(text)["regime"] == regime

    def test_moved_lens_agrees_with_solve(self, tmp_path):
        # off the axis the absolute centers have rank 2 = n = m, but the
        # gate is the centers' affine rank, 1, at any translation
        moved = {"dimension": 2,
                 "balls": [{"center": [-1.0, 5.0], "radius": 2.0 ** 0.5},
                           {"center": [1.0, 5.0], "radius": 2.0 ** 0.5}]}
        path = write_doc(tmp_path, "moved.json", moved)
        code, text = run_cli(["rank", path])
        assert code == 0
        report = json.loads(text)
        assert (report["rank_shifted"], report["regime"]) == (1, "ConvexCase")
        code, text = run_cli(["solve", path])
        assert code == 0
        solved = json.loads(text)
        assert solved["regime"] == {"rank_shifted": 1, "regime": "ConvexCase"}
        assert solved["status"] == "CertifiedOptimal"


class TestArguments:
    @pytest.mark.parametrize("args", [
        ["jnr", "{}", "probe", "--seed", "-1"],
        ["jnr", "{}", "sample", "--seed", "-1"],
        ["solve", "{}", "--verify", "10", "--seed", "-1"],
        ["oracle", "{}", "--cloud", "10", "--seed", "-1"],
    ])
    def test_negative_seed(self, tmp_path, args):
        path = write_doc(tmp_path, "lens.json", LENS)
        code, text = run_cli([a.format(path) for a in args])
        assert code == 1
        assert "argument --seed: must be >= 0" in json.loads(text)["error"]

    @pytest.mark.parametrize("args, flag", [
        (["solve", "{}", "--verify", "-2"], "--verify"),
        (["oracle", "{}", "--cloud", "-3"], "--cloud"),
        (["jnr", "{}", "sample", "--count", "-1"], "--count"),
        (["jnr", "{}", "probe", "--count", "-1"], "--count"),
    ])
    def test_negative_count_names_its_flag(self, tmp_path, args, flag):
        path = write_doc(tmp_path, "lens.json", LENS)
        code, text = run_cli([a.format(path) for a in args])
        assert code == 1
        assert f"argument {flag}: must be >= 0" in json.loads(text)["error"]

    @pytest.mark.parametrize("args, flag, value", [
        (["solve", "{}", "--verify", "x"], "--verify", "x"),
        (["jnr", "{}", "sample", "--count", "1.5"], "--count", "1.5"),
        (["oracle", "{}", "--seed", "abc"], "--seed", "abc"),
    ])
    def test_non_integer_count_names_its_flag(self, tmp_path, args, flag,
                                              value):
        # the error names the flag and what it expects, not the parser's
        # type function
        path = write_doc(tmp_path, "lens.json", LENS)
        code, text = run_cli([a.format(path) for a in args])
        assert code == 1
        error = json.loads(text)["error"]
        assert (f"argument {flag}: expected an integer >= 0, got '{value}'"
                in error)
        assert "_nonnegative" not in error

    @pytest.mark.parametrize("args", [
        ["solve", "{}", "--max-iter", "abc"],
        ["solve", "{}", "--seed", "x"],
        ["solve", "{}", "--no-such-flag"],
        ["shrink", "{}"],
        ["jnr", "{}", "walk"],
        [],
    ])
    def test_usage_errors_exit_1(self, tmp_path, args):
        # argparse's own exit code 2 would read as an empty interior
        path = write_doc(tmp_path, "lens.json", LENS)
        code, text = run_cli([a.format(path) for a in args])
        assert code == 1
        assert json.loads(text)["error"].startswith("seblab")

    @pytest.mark.parametrize("args", [["--help"], ["solve", "--help"]])
    def test_help_exits_0(self, args, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(args)
        assert exc.value.code == 0
        assert "usage: seblab" in capsys.readouterr().out


class TestIoRoundTrip:
    def test_instance_doc_round_trip(self):
        # the target is parsed into its quadratic, and is not written back
        inst, target = seblab_io.parse_instance(EXAMPLE)
        assert isinstance(inst, Instance)
        assert isinstance(target, UnitQuadratic)
        assert np.array_equal(target.a, [1.0, 1.0])
        assert target.rho == (2.0 ** 0.5) ** 2
        doc = seblab_io.instance_to_doc(inst)
        assert "target" not in doc
        inst2, target2 = seblab_io.parse_instance(doc)
        assert target2 is None
        assert np.array_equal(inst2.centers_matrix(), inst.centers_matrix())
        assert np.array_equal(inst2.radii(), inst.radii())
        assert seblab_io.instance_to_doc(inst2) == doc

    @pytest.mark.parametrize("center, radius", [
        ([1.0, 1.0], 0.0),
        ([1.0, 1.0], -1.0),
        ([1.0, 1.0], float("nan")),
        ([1.0, 1.0], float("inf")),
        ([float("nan"), 1.0], 1.0),
        ([[0.0, 0.0]], 1.0),
        ([1.0, 1.0, 1.0], 1.0),
        ([1.0], 1.0),
        ("far", 1.0),
        ([1.0, 1.0], None),
        ([1.0, 1.0], 1e200),
    ])
    def test_bad_target(self, tmp_path, center, radius):
        doc = dict(EXAMPLE, target={"center": center, "radius": radius})
        with pytest.raises(ValidationError):
            seblab_io.parse_instance(doc)
        path = write_doc(tmp_path, "target.json", doc)
        code, text = run_cli(["jnr", path, "member", "--point", "1,0,0"])
        assert code == 1
        assert "target" in json.loads(text)["error"]

    def test_bad_ball_field(self):
        doc = {"dimension": 2,
               "balls": [{"center": [0.0, 0.0], "radius": 1.0, "color": "red"}]}
        with pytest.raises(ValidationError):
            seblab_io.parse_instance(doc)

    def test_dimension_must_be_int(self):
        doc = {"dimension": 2.0, "balls": [{"center": [0.0, 0.0],
                                            "radius": 1.0}]}
        with pytest.raises(ValidationError):
            seblab_io.parse_instance(doc)


def test_cli_imports_only_numpy_beyond_the_stdlib():
    # the CLI's cold start loads the standard library, numpy and seblab
    # only; the modules already loaded by interpreter startup (site hooks
    # of the installation) are not the CLI's
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import seblab.cli\n"
            "print('\\n'.join(sorted(set(sys.modules) - before)))\n")
    src = str(Path(seblab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=60).stdout
    tops = {name.partition(".")[0] for name in out.split()}
    assert "seblab" in tops
    assert tops <= set(sys.stdlib_module_names) | {"numpy", "seblab"}
