import json

import numpy as np
import pytest

from convext import jet
from convext.cli import EXIT_INTERNAL, main
from convext.fixtures import fixture_path, halfsq_jet, two_point_power_jet
from convext.lp import CertificationError


@pytest.fixture
def halfsq_file(tmp_path):
    path = tmp_path / "halfsq.json"
    path.write_text(json.dumps(halfsq_jet().to_json()))
    return str(path)


@pytest.fixture
def cw1_violator_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "dimension": 1,
        "points": [[0.0], [1.0]],
        "values": [0.0, 0.0],
        "gradients": [[0.0], [1.0]],
    }))
    return str(path)


class TestValidate:
    def test_fixture_feasible(self, tmp_path):
        report = tmp_path / "rep.json"
        code = main([
            "validate", fixture_path("two_point_power.json"),
            "--modulus", "holder:0.5", "--report", str(report),
        ])
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["feasible"] is True
        assert payload["A"] == pytest.approx(1.1547005383792515)

    def test_cw1_violator_exits_one(self, cw1_violator_file, capsys):
        code = main(["validate", cw1_violator_file, "--modulus", "linear"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["feasible"] is False
        assert payload["condition_CW1"]["violations"]

    def test_empty_points_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text('{"dimension": 1, "points": [], "values": [], "gradients": []}')
        code = main(["validate", str(path), "--modulus", "linear"])
        assert code == 2
        assert "input error" in capsys.readouterr().err

    def test_malformed_json_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"dimension": 1,')
        code = main(["validate", str(path), "--modulus", "linear"])
        assert code == 2
        err = capsys.readouterr().err
        assert "line" in err


class TestConstants:
    def test_both_routes_reported(self, halfsq_file, capsys):
        code = main(["constants", halfsq_file, "--modulus", "linear"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["A_intrinsic"] == pytest.approx(1.0)
        assert payload["A_extrinsic"] == pytest.approx(1.0, abs=1e-6)
        assert payload["L"] == 1.0
        assert payload["relation"]["general_ok"] is True

    def test_infinite_constant_written_as_string(self, cw1_violator_file, capsys):
        code = main(["constants", cw1_violator_file, "--modulus", "linear"])
        assert code == 1
        text = capsys.readouterr().out
        assert "Infinity" not in text

        def reject(token):
            raise AssertionError(f"non-standard JSON constant {token}")

        payload = json.loads(text, parse_constant=reject)
        assert payload["A_extrinsic"] == "inf"
        assert payload["A_intrinsic"] == "inf"
        assert payload["relation"]["A"] == "inf"


    def test_tol_is_honoured_like_validate(self, tmp_path):
        # a defect of -1e-7 is infeasible at the default tolerance, slack at 1e-6
        path = tmp_path / "dip.json"
        path.write_text(json.dumps({
            "dimension": 1, "points": [[0.0], [1.0]], "values": [0.0, -1e-7],
            "gradients": [[0.0], [0.0]],
        }))
        for cmd in ("validate", "constants"):
            report = tmp_path / f"{cmd}.json"
            argv = [cmd, str(path), "--modulus", "linear", "--report", str(report)]
            assert main(argv) == 1
            assert main(argv + ["--tol", "1e-6"]) == 0
        payload = json.loads(report.read_text())
        assert payload["A_extrinsic"] == payload["A_intrinsic"] == 0.0


class TestExtend:
    def test_csv_and_report(self, halfsq_file, tmp_path, capsys):
        out = tmp_path / "samples.csv"
        report = tmp_path / "rep.json"
        code = main([
            "extend", halfsq_file, "--modulus", "linear", "--lipschitz", "auto",
            "--resolution", "2001", "--domain", "-3", "4",
            "--out", str(out), "--report", str(report), "--gnuplot",
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x1,g,m,F,F_L"
        data = np.loadtxt(lines[1:], delimiter=",")
        # F equals t^2/2 on the sampled grid within the hull tolerance
        assert np.max(np.abs(data[:, 3] - data[:, 0] ** 2 / 2.0)) < 2e-3
        assert (tmp_path / "samples.csv.gp").exists()
        payload = json.loads(report.read_text())
        assert payload["verification"]["ok"] is True

    def test_deterministic_outputs(self, halfsq_file, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.csv"
            rep = tmp_path / f"{tag}.json"
            code = main([
                "extend", halfsq_file, "--modulus", "linear", "--lipschitz", "auto",
                "--resolution", "1001", "--domain", "-3", "4", "--seed", "7",
                "--out", str(out), "--report", str(rep),
            ])
            assert code == 0
            outs.append((out.read_bytes(), rep.read_bytes()))
        assert outs[0] == outs[1]

    def test_M_below_A_exits_one(self, tmp_path, capsys):
        code = main([
            "extend", fixture_path("two_point_power.json"),
            "--modulus", "holder:0.5", "--M", "0.5",
        ])
        assert code == 1
        assert "below the least feasible" in capsys.readouterr().err

    def test_tol_is_honoured_like_validate(self, tmp_path, capsys):
        # the dip of TestConstants: infeasible at the default tolerance, slack at 1e-6
        path = tmp_path / "dip.json"
        path.write_text(json.dumps({
            "dimension": 1, "points": [[0.0], [1.0]], "values": [0.0, -1e-7],
            "gradients": [[0.0], [0.0]],
        }))
        report = tmp_path / "rep.json"
        auto = ["extend", str(path), "--modulus", "linear", "--report", str(report)]
        argv = auto + ["--M", "1"]
        assert main(argv) == 1
        assert "condition_C" in capsys.readouterr().err
        assert not report.exists()
        assert main(argv + ["--tol", "1e-6"]) == 0
        assert json.loads(report.read_text())["model"]["A"] == 0.0
        # with M = A = 0 no convex function can take the dip: the build goes
        # through and the interpolation check reports the 1e-7 miss
        assert main(auto + ["--tol", "1e-6"]) == 1
        checks = json.loads(report.read_text())["verification"]["bound_checks"]
        assert [c["name"] for c in checks if not c["passed"]] == ["interpolation_error"]

    def test_M_tolerance_follows_tol(self, tmp_path, capsys):
        A = 1.1547005383792515  # two_point_power.json under holder:0.5
        argv = ["extend", fixture_path("two_point_power.json"), "--modulus", "holder:0.5",
                "--M", repr(A - 1e-7), "--report", str(tmp_path / "rep.json")]
        assert main(argv) == 1
        assert "below the least feasible" in capsys.readouterr().err
        assert main(argv + ["--tol", "1e-6"]) == 0

    def test_bad_domain_is_input_error(self, halfsq_file):
        code = main([
            "extend", halfsq_file, "--modulus", "linear", "--domain", "-3",
        ])
        assert code == 2


class TestC1Command:
    def test_dense_grid(self, tmp_path, capsys):
        t = np.linspace(0.0, 1.0, 41)
        jet_file = tmp_path / "grid.json"
        jet_file.write_text(json.dumps({
            "dimension": 1,
            "points": [[float(v)] for v in t],
            "values": [float(v) for v in t**2 / 2.0],
            "gradients": [[float(v)] for v in t],
        }))
        report = tmp_path / "c1.json"
        out = tmp_path / "c1.csv"
        code = main([
            "c1", str(jet_file), "--resolution", "2001",
            "--samples", "500", "--report", str(report), "--out", str(out), "--gnuplot",
        ])
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["construction"]["M"] == pytest.approx(2.0)
        assert payload["verification"]["ok"] is True
        assert out.read_text().splitlines()[0] == "x1,g,m,F,F_L"
        script = (tmp_path / "c1.csv.gp").read_text()
        assert f'"{out}" using 1:5 with lines title "F_L"' in script

    def test_infeasible_jet(self, cw1_violator_file, capsys):
        code = main(["c1", cw1_violator_file])
        assert code == 1
        assert "condition_CW1" in capsys.readouterr().err


def _jet_file(tmp_path, name, values, gradients):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"dimension": 1, "points": [[0.0], [1.0]],
                                "values": values, "gradients": gradients}))
    return str(path)


class TestOneVerdict:
    """validate, extend and c1 decide feasibility by the same rule."""

    def _run(self, capsys, argv):
        code = main(argv)
        out, err = capsys.readouterr()
        assert code in (0, 1) and "(-1,-1)" not in err
        return code, out, err

    def _builds(self, path):
        return (["extend", path, "--modulus", "linear", "--samples", "200"],
                ["c1", path, "--samples", "200"])

    def test_tangent_pair_with_a_tiny_gradient_gap(self, tmp_path, capsys):
        path = _jet_file(tmp_path, "gap", [0.0, 0.0], [[0.0], [1e-12]])
        code, out, _ = self._run(capsys, ["validate", path, "--modulus", "linear"])
        payload = json.loads(out)
        assert code == 1 and payload["feasible"] is False and payload["condition_C"]["ok"]
        assert [(v["y"], v["z"]) for v in payload["condition_CW1"]["violations"]] == [(1, 0)]
        for argv in self._builds(path):
            code, _, err = self._run(capsys, argv)
            assert code == 1 and err == "infeasible: jet violates condition_CW1 at pairs (1,0)\n"

    def test_dip_inside_the_relative_slack(self, tmp_path, capsys):
        path = _jet_file(tmp_path, "dip", [1e6, 1e6 - 1e-6], [[0.0], [0.0]])
        code, out, _ = self._run(capsys, ["validate", path, "--modulus", "linear"])
        payload = json.loads(out)
        assert code == 0 and payload["feasible"] is True
        assert payload["condition_C"]["ok"] and payload["condition_CW1"]["ok"]
        for argv in self._builds(path):
            assert "infeasible" not in self._run(capsys, argv)[2]


@pytest.mark.parametrize("command, passes", [("validate", 1), ("constants", 1), ("extend", 1), ("c1", 3)])
def test_pair_defects_passes_per_command(halfsq_file, monkeypatch, capsys, command, passes):
    calls = []
    original = jet.pair_defects
    monkeypatch.setattr(jet, "pair_defects", lambda j: calls.append(1) or original(j))
    argv = [command, halfsq_file] + (["--modulus", "linear"] if command != "c1" else [])
    main(argv + (["--samples", "100"] if command in ("extend", "c1") else []))
    assert len(calls) == passes


class TestInternalErrors:
    def test_solver_error_exits_three(self, halfsq_file, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise CertificationError("1 of 4 queries uncertified")

        monkeypatch.setattr("convext.cli.build_extension", fail)
        code = main(["extend", halfsq_file, "--modulus", "linear"])
        assert code == EXIT_INTERNAL == 3
        err = capsys.readouterr().err
        assert err == "internal error: CertificationError: 1 of 4 queries uncertified\n"

    def test_uncertified_query_exits_three(self, tmp_path, monkeypatch, capsys):
        jet_file = tmp_path / "plane.json"
        jet_file.write_text(json.dumps({
            "dimension": 2, "points": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
            "values": [0.0, 0.5, 0.5], "gradients": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
        }))
        monkeypatch.setattr("convext.lp.TOL", -1.0)     # no bracket is that narrow
        code = main(["extend", str(jet_file), "--modulus", "linear", "--resolution", "33"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("internal error: CertificationError: ") and err.count("\n") == 1

    def test_memory_error_exits_three(self, halfsq_file, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr("convext.cli.c1_extend", fail)
        code = main(["c1", halfsq_file])
        assert code == 3
        err = capsys.readouterr().err
        assert err == "internal error: MemoryError\n"


class TestReproduce:
    @pytest.mark.parametrize("name", ["example-3.3", "huber"])
    def test_cases_pass(self, name, capsys):
        assert main(["reproduce", name]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_grid_case_passes(self, capsys):
        assert main(["reproduce", "section-3-holder-gap"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out


class TestReport:
    def test_round_trip(self, halfsq_file, tmp_path, capsys):
        rep = tmp_path / "rep.json"
        main([
            "extend", halfsq_file, "--modulus", "linear", "--lipschitz", "auto",
            "--resolution", "1001", "--domain", "-3", "4", "--report", str(rep),
        ])
        capsys.readouterr()
        code = main(["report", str(rep)])
        assert code == 0
        out = capsys.readouterr().out
        assert "lipschitz_cap_attained" in out
        assert "result: PASS" in out
