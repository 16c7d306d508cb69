import json
import math

import pytest

import hestondist as hd
from hestondist.cli import main

PI = math.pi


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestDistCommands:
    def test_point(self, capsys):
        code, out = run_cli(
            capsys, "dist", "point", "--x0", "0", "--v0", "1", "--x1", "0",
            "--v1", "4",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "point-distance"
        assert doc["outputs"]["value"] == pytest.approx(2.0)

    def test_point_correlated(self, capsys):
        code, out = run_cli(
            capsys, "dist", "point", "--x0", "0", "--v0", "1", "--x1", "0",
            "--v1", "4", "--c", "2", "--rho", "0",
        )
        assert code == 0
        assert json.loads(out)["outputs"]["value"] == pytest.approx(1.0)

    def test_line_tangent(self, capsys):
        code, out = run_cli(
            capsys, "dist", "line", "--beta", "0.7853981633974483",
            "--gamma", "1",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["outputs"]["value"] == pytest.approx(PI / 2, abs=1e-7)
        assert doc["diagnostics"]["branch"] in ("slanted-plus", "slanted-minus")

    def test_line_membership(self, capsys):
        code, out = run_cli(capsys, "dist", "line", "--beta", "1", "--gamma", "-1")
        assert code == 0
        doc = json.loads(out)
        assert doc["outputs"]["value"] == 0.0
        assert doc["diagnostics"]["branch"] == "on-line"

    def test_level_set(self, capsys):
        code, out = run_cli(capsys, "dist", "level-set", "--theta", "1.5707963267948966")
        assert code == 0
        assert json.loads(out)["outputs"]["value"] == pytest.approx(PI / 2)

    def test_horizontal(self, capsys):
        code, out = run_cli(capsys, "dist", "horizontal", "--tau", "4")
        assert code == 0
        assert json.loads(out)["outputs"]["value"] == pytest.approx(2.0)


class TestRefineMethod:
    """The JSON diagnostics name the refine that settled a line's answer."""

    def candidate_lines(self):
        yield 1.0, 0.0
        yield 17.0, -49.0  # best scan node next to the axis node
        # near-diagonal: a minimum at the tangency end, and a cell whose
        # slopes bracket no root, where the best scan node is kept
        yield 0.0036853876681807885, 0.00368539560311934
        yield 0.0052448240800975505, 0.005244829547027076

    def test_each_method_through_the_cli(self, capsys):
        found = {}
        for beta, gamma in self.candidate_lines():
            sol = hd.dist_to_line(beta, gamma)
            found.setdefault(sol.report.method, (beta, gamma, sol))
        assert set(found) == {"derivative-root", "endpoint", "scan-node"}
        for method, (beta, gamma, sol) in found.items():
            code, out = run_cli(capsys, "dist", "line", f"--beta={beta!r}",
                                f"--gamma={gamma!r}")
            assert code == 0
            doc = json.loads(out)
            assert doc["diagnostics"]["method"] == method
            assert doc["diagnostics"]["iterations"] == sol.report.iterations
            assert doc["diagnostics"]["residual"] == sol.report.residual
            assert doc["outputs"]["value"] == sol.value
        assert found["endpoint"][2].report.iterations == 0
        assert found["scan-node"][2].report.iterations == 0


class TestOutputContract:
    def test_deterministic_bytes(self, capsys):
        argv = ("dist", "line", "--beta", "2", "--gamma", "3")
        _, out1 = run_cli(capsys, *argv)
        _, out2 = run_cli(capsys, *argv)
        assert out1 == out2

    def test_quiet_meta_strips_banner(self, capsys):
        _, loud = run_cli(capsys, "dist", "horizontal", "--tau", "4")
        _, quiet = run_cli(capsys, "--quiet-meta", "dist", "horizontal", "--tau", "4")
        assert "meta" in json.loads(loud)
        assert "meta" not in json.loads(quiet)

    def test_json_round_trip(self, capsys):
        _, out = run_cli(capsys, "dist", "line", "--beta", "0.1", "--gamma", "0.7")
        doc = json.loads(out)
        # every float survives a parse/render cycle at 17 significant digits
        value = doc["outputs"]["value"]
        assert float(format(value, ".17g")) == value

    def test_matches_api_exactly(self, capsys):
        import hestondist as hd

        _, out = run_cli(capsys, "--quiet-meta", "dist", "line", "--beta", "2",
                         "--gamma", "3")
        doc = json.loads(out)
        sol = hd.dist_to_line(2.0, 3.0)
        assert doc["outputs"]["value"] == sol.value
        assert doc["outputs"]["half_squared"] == sol.half_squared

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dist", "line", "--beta", "1"])  # missing --gamma
        assert exc.value.code == 2

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1e-9", "x"])
    def test_bad_tolerance_is_usage_error(self, capsys, tol):
        with pytest.raises(SystemExit) as exc:
            main([f"--tol={tol}", "dist", "line", "--beta", "1", "--gamma", "0.5"])
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err

    def test_negative_exponent_value(self, capsys):
        # argparse alone takes "-1e-3" for an option name before Python 3.13
        spaced = run_cli(capsys, "dist", "line", "--beta", "-1e-3", "--gamma", "1")
        joined = run_cli(capsys, "dist", "line", "--beta=-1e-3", "--gamma", "1")
        assert spaced == joined
        assert spaced[0] == 0

    def test_negative_exponent_source_point(self, capsys):
        code, out = run_cli(capsys, "dist", "line", "--beta", "1", "--gamma", "0.5",
                            "--x0", "-2.5e-1")
        assert code == 0
        assert json.loads(out)["inputs"]["x0"] == -0.25

    @pytest.mark.parametrize("tol", [["--tol", "0"], ["--tol=1e-9"]])
    def test_tol_is_not_an_option(self, capsys, tol):
        # the line and smile solvers take no caller tolerance; before the
        # command, "--tol 0" leaves "0" to be read as the command
        line = ["dist", "line", "--beta", "1", "--gamma", "0.5"]
        for argv in ([*tol, *line], [*line, *tol]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            out, err = capsys.readouterr()
            assert out == ""
        assert f"unrecognized arguments: {' '.join(tol)}" in err

    def test_computation_error_record(self, capsys):
        code, out = run_cli(
            capsys, "dist", "point", "--x0", "0", "--v0", "0", "--x1", "1",
            "--v1", "0",
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["error"]["type"] == "BoundaryPairError"


class TestLevelsetEmit:
    def test_csv_columns(self, capsys):
        code, out = run_cli(
            capsys, "--format", "csv", "--quiet-meta", "levelset", "emit",
            "--theta", "1.2", "--x-max", "4", "--samples", "5",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "theta,x,v,slope"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert float(first[0]) == 1.2
        assert float(first[2]) == pytest.approx(0.0, abs=1e-9)

    def test_json_rows(self, capsys):
        code, out = run_cli(
            capsys, "--quiet-meta", "levelset", "emit", "--theta", "1.2",
            "--x-max", "4", "--samples", "5",
        )
        doc = json.loads(out)
        assert len(doc["outputs"]["rows"]) == 5

    def test_tiny_angle(self, capsys):
        # the curve's theta^3-scale terms underflow here unless scaled
        code, out = run_cli(
            capsys, "--quiet-meta", "levelset", "emit", "--theta", "1e-150",
            "--x-max", "1", "--samples", "3",
        )
        assert code == 0
        rows = json.loads(out)["outputs"]["rows"]
        assert len(rows) == 3
        assert all(math.isfinite(r[k]) for r in rows for k in ("x", "v", "slope"))
        assert rows[-1]["x"] == 1.0
        assert rows[-1]["v"] == pytest.approx(hd.curve_v(1e-150, 1.0), rel=1e-12)


class TestSmileCommand:
    def test_csv_schema(self, capsys):
        code, out = run_cli(
            capsys, "--format", "csv", "--quiet-meta", "smile", "--spot", "100",
            "--v0", "0.04", "--c", "1", "--rho", "0",
            "--strikes", "90,110",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "strike,log_moneyness,beta,gamma,distance,iv_limit"
        assert len(lines) == 3

    def test_json_collects_atm_error(self, capsys):
        code, out = run_cli(
            capsys, "--quiet-meta", "smile", "--spot", "100", "--v0", "0.04",
            "--c", "1", "--rho", "0", "--strikes", "90,100,110",
        )
        assert code == 0
        points = json.loads(out)["outputs"]["points"]
        assert len(points) == 3
        assert "error" in points[1]
        assert "iv_limit" in points[0] and "iv_limit" in points[2]

    def test_json_collects_underflowing_moneyness(self, capsys):
        code, out = run_cli(
            capsys, "--quiet-meta", "smile", "--spot", "1e300", "--v0", "0.04",
            "--c", "1", "--rho", "0.3", "--strikes", "1e-300,80",
        )
        assert code == 0
        points = json.loads(out)["outputs"]["points"]
        assert points[0]["error"].startswith("DomainError")
        assert points[1]["strike"] == 80.0 and "iv_limit" in points[1]


class TestOracleCompare:
    def test_single(self, capsys):
        code, out = run_cli(
            capsys, "--quiet-meta", "oracle", "compare", "--beta", "1",
            "--gamma", "0",
        )
        assert code == 0
        doc = json.loads(out)
        row = doc["outputs"]["rows"][0]
        assert row["abs_diff"] <= 1e-6

    def test_needs_parameters(self, capsys):
        code = main(["oracle", "compare"])
        assert code == 2
