import argparse
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import convext
from convext import c1, cli, jet
from convext.cli import EXIT_INTERNAL, main
from convext.envelope import Generator
from convext.extension import ExtensionConfig, build_extension
from convext.fixtures import fixture_path, halfsq_jet, two_point_power_jet
from convext.jet import Jet, feasibility_report
from convext.lp import TOL, CertificationError
from convext.modulus import HolderModulus

from conftest import random_convex_function


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

    def test_affine_jet_far_from_the_origin(self, tmp_path, capsys):
        # f(x) = 1e4 (x - 1e5) + 0.25: every pair defect is 0 up to rounding of
        # f, while <y, G> is 1e9
        x = 1e5 + np.array([0.0, 1e-4, 3e-4])
        path = tmp_path / "affine.json"
        path.write_text(json.dumps(Jet(x, 1e4 * (x - 1e5) + 0.25, np.full(3, 1e4)).to_json()))
        code = main(["validate", str(path), "--modulus", "linear"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0 and payload["A"] == 0.0

    def test_empty_points_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text('{"dimension": 1, "points": [], "values": [], "gradients": []}')
        code = main(["validate", str(path), "--modulus", "linear"])
        assert code == 2
        assert "input error" in capsys.readouterr().err

    def test_nan_value_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text('{"dimension": 1, "points": [[0.0], [1.0]], "values": [0.0, NaN], '
                        '"gradients": [[0.0], [1.0]]}')
        code = main(["validate", str(path), "--modulus", "linear"])
        assert code == 2
        assert capsys.readouterr().err == "input error: jet data must be finite\n"

    @pytest.mark.parametrize("command", ["validate", "extend"])
    def test_non_finite_table_knot_is_input_error(self, tmp_path, capsys, command):
        table = tmp_path / "table.json"
        table.write_text(json.dumps({"type": "table", "knots": [[0.0, 0.0], [1.0, float("nan")], [2.0, 3.0]]}))
        argv = [command, fixture_path("halfsq.json"), "--modulus", f"table:{table}"]
        code = main(argv + (["--lipschitz", "auto"] if command == "extend" else []))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("input error: knots must be finite, got [[0.0, 0.0], [1.0, nan]")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("field, value", [
        ("dimension", '"x"'), ("points", '[["a"]]'), ("values", '["a"]'), ("gradients", '[["a"]]'),
    ])
    def test_non_numeric_field_is_input_error(self, tmp_path, capsys, field, value):
        fields = {"dimension": "1", "points": "[[0.0]]", "values": "[0.0]", "gradients": "[[0.0]]"}
        fields[field] = value
        path = tmp_path / "text.json"
        path.write_text("{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}")
        code = main(["validate", str(path), "--modulus", "linear"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"input error: jet JSON field '{field}' is not numeric: ")
        assert err.count("\n") == 1

    def test_malformed_json_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"dimension": 1,')
        code = main(["validate", str(path), "--modulus", "linear"])
        assert code == 2
        err = capsys.readouterr().err
        assert "line" in err

    def test_report_names_the_maximizing_pairs(self, tmp_path):
        # the two ordered pairs tie exactly in A and in lip_omega_G; the first is named
        report, flat = tmp_path / "rep.json", tmp_path / "flat.json"
        flat.write_text(json.dumps({"type": "table", "knots": [[0, 0], [1, 1], [3, 1]]}))
        for modulus, route in (("holder:0.5", "intrinsic"), (f"table:{flat}", "extrinsic")):
            argv = ["validate", fixture_path("two_point_power.json"), "--modulus", modulus, "--report", str(report)]
            assert main(argv) == 0
            payload = json.loads(report.read_text())
            assert payload["A_route"] == route
            assert payload["A_pair"] == payload["lip_omega_G_pair"] == {"y": 0, "z": 1}
            assert payload["condition_C"]["count"] == payload["condition_CW1"]["count"] == 0
            assert payload["per_pair_M_count"] == (2 if route == "intrinsic" else 0)

    def test_infeasible_report_is_bounded(self, tmp_path, capsys):
        t = np.linspace(-1.0, 1.0, 40)
        path = tmp_path / "concave.json"
        path.write_text(json.dumps(Jet(t, -t ** 2 / 2.0, -t).to_json()))
        assert main(["validate", str(path), "--modulus", "linear"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["condition_C"]["count"] == 40 * 39      # every ordered pair
        assert len(payload["condition_C"]["violations"]) == jet._KEEP
        assert len(payload["per_pair_M"]) == jet._KEEP
        assert payload["per_pair_M_count"] == payload["condition_C"]["count"]


def test_parser_is_built_once_per_process(halfsq_file, monkeypatch, capsys):
    built = []
    original = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **k: built.append(k.get("prog")) or original(self, *a, **k))
    cli.make_parser.cache_clear()
    with pytest.raises(SystemExit) as exc:
        main(["validate", halfsq_file])         # no --modulus: a usage error
    assert exc.value.code == 2
    assert main(["validate", halfsq_file, "--modulus", "linear"]) == 0
    assert main(["constants", halfsq_file, "--modulus", "linear"]) == 0
    assert built.count("convext") == 1
    cli.make_parser.cache_clear()           # later tests build an unpatched parser


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

    def test_zero_samples_still_measure_the_cap(self, halfsq_file, capsys):
        # the sample set never has fewer than 40 points, so the cap is measured
        code = main(["extend", halfsq_file, "--modulus", "linear", "--lipschitz", "auto", "--samples", "0"])
        assert code == 0
        verification = json.loads(capsys.readouterr().out)["verification"]
        assert abs(verification["empirical_lip_F"] - 1.0) <= 5e-3

    def test_flat_domain_still_measures_the_seminorms(self, tmp_path, capsys):
        # 1.5 fd_step exceeds the half-width of the z side, yet the seminorm
        # checks still get points, and the report stays strict JSON
        P = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.5]])
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(Jet(P, np.sum(P * P, axis=1) / 2.0, P).to_json()))
        code = main(["extend", str(path), "--modulus", "linear", "--lipschitz", "auto",
                     "--domain", "-3", "3", "-3", "3", "-1", "1", "--resolution", "33"])
        assert code == 0
        out = capsys.readouterr().out
        report = json.loads(out, parse_constant=lambda c: pytest.fail(f"non-finite {c} in the report"))
        verification = report["verification"]
        assert verification["context"]["fd_step"] * 1.5 > 1.0
        measured = {c["name"]: c["measured"] for c in verification["bound_checks"]}
        for name in ("empirical_A_vs_bound", "empirical_lip_grad_vs_bound", "necessity_A_le_lip_grad"):
            assert np.isfinite(measured[name]) and measured[name] > 0.0

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
        # through, and the interpolation check measures the 1e-7 miss against
        # the slack tol (1 + |f(y)| + |f(z)|) the verdict accepted it with
        assert main(auto + ["--tol", "1e-6"]) == 0
        checks = json.loads(report.read_text())["verification"]["bound_checks"]
        interp = next(c for c in checks if c["name"] == "interpolation_error")
        assert interp["passed"] and abs(interp["measured"] - 1e-7) <= 1e-15 and 1e-6 <= interp["bound"] < 1.1e-6

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

    @pytest.mark.parametrize("command", ["extend", "c1"])
    @pytest.mark.parametrize("domain", [["nan", "2"], ["-2", "inf"]])
    def test_non_finite_domain_is_one_input_error_line(self, halfsq_file, capsys, command, domain):
        argv = [command, halfsq_file, "--domain", *domain] + (["--modulus", "linear"] if command == "extend" else [])
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # no RuntimeWarning on the way
            code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("input error: domain box must be finite, got lo [") and err.count("\n") == 1

    def test_low_cap_warns_once_per_run(self, tmp_path):
        # the corners of a square under |x|^2 / 2: sup|G| = sqrt(2)
        pts = [[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]
        path = tmp_path / "square.json"
        path.write_text(json.dumps(Jet(pts, [1.0] * 4, pts).to_json()))
        argv = ["extend", str(path), "--modulus", "linear", "--lipschitz", "0.5", "--resolution", "33",
                "--samples", "200", "--out", str(tmp_path / "samples.csv"),
                "--report", str(tmp_path / "report.json")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            main(argv)
        assert [str(w.message) for w in caught] == [
            f"Lipschitz cap 0.5 is below sup|G| = {np.sqrt(2.0)}; the capped envelope will not "
            "interpolate the jet"
        ]

    @pytest.mark.parametrize("flag, value", [
        ("--M", "nan"), ("--M", "inf"), ("--lipschitz", "nan"), ("--lipschitz", "inf"),
        ("--lipschitz", "-1"), ("--tol", "nan"), ("--tol", "-1"), ("--K", "nan"), ("--K", "0"),
        ("--samples", "-1"), ("--seed", "-1"), ("--resolution", "5"),
        ("--alpha", "0"), ("--alpha", "2"), ("--alpha", "nan"),
    ])
    def test_bad_numeric_flag_exits_two_at_parse_time(self, halfsq_file, capsys, flag, value):
        command = ["c1"] if flag == "--alpha" else ["extend", "--modulus", "linear"]
        with pytest.raises(SystemExit) as exit_:
            main([*command, halfsq_file, flag, value])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be" in err and "Traceback" not in err


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
        for argv in self._builds(path):     # M = A = 0, so F misses f_0 by the accepted dip
            assert self._run(capsys, argv)[0] == 0

    def test_points_far_below_1e_12_apart_are_a_pair(self, tmp_path, capsys):
        path = tmp_path / "close.json"
        path.write_text(json.dumps({"dimension": 1, "points": [[0.0], [1e-300]],
                                    "values": [0.0, 0.0], "gradients": [[0.0], [1e10]]}))
        for command in ("validate", "constants"):
            code, out, _ = self._run(capsys, [command, str(path), "--modulus", "linear"])
            # |G(y) - G(z)| / omega(1e-300) overflows, and no report says Infinity
            assert code == 1 and "Infinity" not in out and json.loads(out)["lip_omega_G"] == "inf"


@pytest.mark.parametrize("command, passes", [("validate", 1), ("constants", 1), ("extend", 1), ("c1", 1)])
def test_pair_defects_passes_per_command(halfsq_file, monkeypatch, capsys, command, passes):
    calls = []
    original = jet._verdict_rows
    monkeypatch.setattr(jet, "_verdict_rows", lambda *a: calls.append(1) or original(*a))
    argv = [command, halfsq_file] + (["--modulus", "linear"] if command != "c1" else [])
    main(argv + (["--samples", "100"] if command in ("extend", "c1") else []))
    assert len(calls) == passes



@pytest.mark.parametrize("command, fronts", [("validate", 1), ("constants", 1), ("extend", 1), ("c1", 1)])
def test_pareto_fronts_per_command(halfsq_file, monkeypatch, capsys, command, fronts):
    calls = []
    original = jet._pareto_pairs
    monkeypatch.setattr(jet, "_pareto_pairs", lambda C, S: calls.append(1) or original(C, S))
    argv = [command, halfsq_file] + (["--modulus", "linear"] if command != "c1" else [])
    main(argv + (["--samples", "100"] if command in ("extend", "c1") else []))
    assert len(calls) == fronts


def test_no_fronts_where_condition_C_fails(tmp_path, monkeypatch, capsys):
    # a concave jet fails (C) in every row block, and nothing reads a front then
    monkeypatch.setattr(jet, "_BUDGET", 24)     # blocks of two rows
    t = np.linspace(-1.0, 1.0, 12)
    path = tmp_path / "concave.json"
    path.write_text(json.dumps(Jet(t, -t ** 2 / 2.0, -t).to_json()))
    calls = []
    original = jet._pareto_pairs
    monkeypatch.setattr(jet, "_pareto_pairs", lambda C, S: calls.append(1) or original(C, S))
    assert main(["validate", str(path), "--modulus", "linear"]) == 1
    assert calls == []


@pytest.mark.parametrize("d", [1, 2, 3])
def test_translated_jet_gives_the_same_results(tmp_path, capsys, d):
    # shifting dyadic points by 2^14 or 2^20 keeps every difference exact,
    # so no result may depend on the shift
    rng = np.random.default_rng(d)
    value, grad = random_convex_function(rng, d)
    cells = rng.choice(33 ** d, size=5, replace=False)
    pts = np.column_stack(np.unravel_index(cells, (33,) * d)) / 16.0 - 1.0
    base = Jet(pts, value(pts), grad(pts))
    m = HolderModulus(0.5)
    report = json.dumps(feasibility_report(base, m).to_json())
    model = build_extension(base, ExtensionConfig(modulus=m))
    F0, S0 = model.envelope.value_many(pts), model.gradient_many(pts)
    for shift in (2.0 ** 14, 2.0 ** 20):
        jet = Jet(pts + shift, base.values, base.gradients)
        assert json.dumps(feasibility_report(jet, m).to_json()) == report
        path = tmp_path / "shifted.json"
        path.write_text(json.dumps(jet.to_json()))
        assert main(["extend", str(path), "--modulus", "holder:0.5", "--samples", "200"]) == 0
        if d == 1:
            assert json.loads(capsys.readouterr().out)["verification"]["interpolation_max_error"] == 0.0
        model = build_extension(jet, ExtensionConfig(modulus=m))
        F, S = model.envelope.value_many(jet.points), model.gradient_many(jet.points)
        assert np.all(np.abs(F - F0) <= 2.0 * TOL * (1.0 + np.abs(base.values)))
        assert np.max(np.abs(S - S0)) <= 1e-9


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

    def test_failed_construction_exits_three(self, halfsq_file, monkeypatch, capsys):
        construct = c1._construct

        def shrunk(*args, **kwargs):
            # here A = M / 4, so halving M would still pass
            cm, verdict = construct(*args, **kwargs)
            cm.M *= 0.1
            return cm, verdict

        monkeypatch.setattr(c1, "_construct", shrunk)
        code = main(["c1", halfsq_file, "--samples", "100"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("internal error: RuntimeError: construction failed: ")
        assert err.count("\n") == 1

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

    @pytest.mark.parametrize("text, message", [
        ("[1, 2]", "report must be a JSON object, got list"),
        ('"str"', "report must be a JSON object, got str"),
        ('{"verification": [1]}', "report field 'verification' must be an object, got list"),
        ('{"bound_checks": 3}', "report field 'bound_checks' must be a list, got int"),
        ('{"bound_checks": [1]}', "each bound check needs a name, a numeric bound and measured, and passed; got 1"),
        ('{"bound_checks": [{"name": "c", "bound": "x", "measured": 1.0, "passed": true}]}',
         "each bound check needs a name, a numeric bound and measured, and passed; got {"),
        ('{"bound_checks": [{"name": "c", "bound": 1.0, "measured": null, "passed": true}]}',
         "each bound check needs a name"),
        ('{"ok": "false", "bound_checks": [{"name": "a", "bound": 1.0, "measured": 2.0, "passed": "no"}]}',
         "each bound check needs a name, a numeric bound and measured, and passed; got {"),
        ('{"ok": "false", "bound_checks": [{"name": "a", "bound": 1.0, "measured": 2.0, "passed": false}]}',
         "report field 'ok' must be a boolean, got str"),
    ], ids=["list", "string", "verification-list", "checks-int", "check-int", "bound-text", "measured-null",
            "passed-text", "ok-text"])
    def test_malformed_report_is_input_error(self, tmp_path, capsys, text, message):
        path = tmp_path / "rep.json"
        path.write_text(text)
        code = main(["report", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"input error: {message}")
        assert err.count("\n") == 1


class TestExtendMemory:
    """extend without --out samples no grid, and its (rows, pieces) kernels, the pair pass
    of every command among them, run in blocks."""

    def _jet_file(self, tmp_path, n, d, seed, sign=1.0):
        """A convex jet at n random points, or with sign = -1 the concave one."""
        rng = np.random.default_rng(seed)
        value, grad = random_convex_function(rng, d)
        pts = rng.uniform(-1.0, 1.0, size=(n, d))
        path = tmp_path / f"jet{d}.json"
        path.write_text(json.dumps(Jet(pts, sign * value(pts), sign * grad(pts)).to_json()))
        return str(path)

    # The child reports its own peak, VmHWM: ru_maxrss from os.wait4 would also
    # count the resident set that the forked child had before exec, the pytest
    # process's.
    CHILD = """
import sys
from convext.cli import main
code = main(sys.argv[2:])
with open("/proc/self/status") as fh:
    hwm = next(line for line in fh if line.startswith("VmHWM:"))
with open(sys.argv[1], "w") as fh:
    fh.write(hwm.split()[1])
sys.exit(code)
"""

    def _peak_rss_mb(self, tmp_path, argv, code=0):
        """Peak RSS of ``convext <argv>`` run in a child process, which must exit with code."""
        src = str(Path(convext.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        peak = tmp_path / "peak_kib.txt"
        argv = [sys.executable, "-c", self.CHILD, str(peak), *argv, "--report", str(tmp_path / "report.json")]
        child = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        assert child.returncode == code, child.stderr.decode()
        return int(peak.read_text()) / 1024       # KiB to MiB

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="/proc/self/status is Linux only")
    def test_peak_rss_of_a_large_3d_extend(self, tmp_path):
        # at n = 2000 the dense 33^3 x n generator samples alone took 2.4 GB
        path = self._jet_file(tmp_path, 2000, 3, 1)
        assert self._peak_rss_mb(tmp_path, ["extend", path, "--modulus", "holder:0.5"]) < 600

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="/proc/self/status is Linux only")
    def test_peak_rss_of_a_large_2d_validate(self, tmp_path):
        # the verdict's dense n x n pair matrices alone took 280 MB
        path = self._jet_file(tmp_path, 2000, 2, 1)
        assert self._peak_rss_mb(tmp_path, ["validate", path, "--modulus", "holder:0.5"]) < 150

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="/proc/self/status is Linux only")
    def test_peak_rss_of_a_large_infeasible_validate(self, tmp_path):
        # every ordered pair fails (C): listing them all took 2.96 GB and a 212 MB report
        path = self._jet_file(tmp_path, 2000, 2, 1, sign=-1.0)
        assert self._peak_rss_mb(tmp_path, ["validate", path, "--modulus", "holder:0.5"], code=1) < 200
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["condition_C"]["count"] == 2000 * 1999
        assert (tmp_path / "report.json").stat().st_size < 2 ** 20

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="/proc/self/status is Linux only")
    def test_peak_rss_of_a_large_c1(self, tmp_path):
        # delta1's (hull slopes x front) table alone took 347 MB
        value, grad = random_convex_function(np.random.default_rng(1), 1)
        pts = np.linspace(-1.0, 1.0, 2000)[:, None]
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(Jet(pts, value(pts), grad(pts)).to_json()))
        assert self._peak_rss_mb(tmp_path, ["c1", str(path)]) < 150

    def test_2d_extend_samples_the_grid_only_for_the_csv(self, tmp_path, monkeypatch):
        path = self._jet_file(tmp_path, 6, 2, 5)
        rows = []
        original = Generator.value_many
        monkeypatch.setattr(Generator, "value_many", lambda self, X: rows.append(len(X)) or original(self, X))
        argv = ["extend", path, "--modulus", "holder:0.5", "--resolution", "33", "--samples", "100",
                "--report", str(tmp_path / "report.json")]
        assert main(argv) == 0
        assert 33 ** 2 not in rows
        assert main(argv + ["--out", str(tmp_path / "samples.csv")]) == 0
        assert 33 ** 2 in rows
