"""Checks on the files and text each benchmark job produced.

Each check returns an ``Outcome``.  ``error`` is set when the job failed
(it raised, exited 2, exited 1 for any reason other than a failed bound
check, or produced output the benchmark finds wrong); a failed bound check
that the program itself reports is counted in ``checks_failed`` instead.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

# criterion 3 of the acceptance suite: the two routes to A agree to 1e-5
ROUTE_RTOL = 1e-5


@dataclass
class Outcome:
    error: Optional[str] = None
    checks: int = 0
    checks_failed: int = 0
    interp_use: float = 0.0
    route_gap: float = 0.0
    A: Optional[float] = None


def _load(path: Path):
    with open(path) as fh:
        return json.load(fh)


def _close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def _sup_norm(jet_obj):
    G = np.asarray(jet_obj["gradients"], dtype=float).reshape(len(jet_obj["points"]), -1)
    return float(np.max(np.sqrt(np.sum(G * G, axis=1))))


def check_csv(program, csv_path: Path, jet_obj, modulus, M: float, capped: bool) -> Optional[str]:
    """``minorant <= F <= g`` and ``F_L <= F`` on every CSV row.

    The g and m columns are re-evaluated through the public ``Generator``
    and ``minorant``, so a CSV that drifts from the model is caught too.
    """
    jet = program.jet.Jet.from_json(jet_obj)
    d = jet.dimension
    with open(csv_path) as fh:
        header = fh.readline().strip().split(",")
    expected = [f"x{k + 1}" for k in range(d)] + ["g", "m", "F"] + (["F_L"] if capped else [])
    if header != expected:
        return f"CSV header {header} != {expected}"
    rows = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    X = rows[:, :d]
    g, m, F = rows[:, d], rows[:, d + 1], rows[:, d + 2]
    scale = 1.0 + np.abs(g)
    g_re = program.envelope.Generator(jet, modulus, M).value_many(X)
    m_re = program.envelope.minorant(jet, X)
    if np.any(np.abs(g_re - g) > 1e-9 * scale):
        return "CSV g column differs from Generator"
    if np.any(np.abs(m_re - m) > 1e-9 * scale):
        return "CSV m column differs from minorant"
    tol = 1e-7 * scale
    if np.any(m > F + tol):
        return f"minorant above F by {float(np.max(m - F)):.3g}"
    if np.any(F > g + tol):
        return f"F above g by {float(np.max(F - g)):.3g}"
    if capped and np.any(rows[:, d + 3] > F + tol):
        return f"F_L above F by {float(np.max(rows[:, d + 3] - F)):.3g}"
    return None


def _verification(out: Outcome, rc, verification) -> Optional[str]:
    checks = verification["bound_checks"]
    failed = [c["name"] for c in checks if not c["passed"]]
    if bool(verification["ok"]) != (not failed):
        return "report 'ok' disagrees with its bound checks"
    if rc != (1 if failed else 0):
        return f"exit {rc} with {len(failed)} failed bound checks"
    out.checks += len(checks)
    out.checks_failed += len(failed)
    allowance = next(c["bound"] for c in checks if c["name"] == "interpolation_error")
    out.interp_use = verification["interpolation_max_error"] / allowance
    return None


def check_extend(program, job, work: Path, rc) -> Outcome:
    out = Outcome()
    report = _load(work / job.files["report"])
    out.error = _verification(out, rc, report["verification"])
    if out.error is None and "csv" in job.files:
        modulus = program.modulus.parse_modulus_spec(job.modulus)
        out.error = check_csv(program, work / job.files["csv"], _load(work / job.files["jet"]),
                              modulus, report["model"]["M"], report["model"]["L"] is not None)
    return out


def check_c1(program, job, work: Path, rc) -> Outcome:
    out = Outcome()
    report = _load(work / job.files["report"])
    jet_obj = _load(work / job.files["jet"])
    cm = report["construction"]
    L = _sup_norm(jet_obj)
    if not _close(cm["L"], L, 1e-12):
        out.error = f"construction L = {cm['L']} but sup|G| = {L}"
        return out
    if not _close(cm["M"], 2.0 * (2.0 * L) ** (1.0 - cm["alpha"]), 1e-12):
        out.error = f"construction M = {cm['M']} is not 2 (2L)^(1-alpha)"
        return out
    out.error = _verification(out, rc, report["verification"])
    if out.error is None:
        omega = program.modulus.TableModulus(cm["omega_knots"])
        out.error = check_csv(program, work / job.files["csv"], jet_obj, omega,
                              report["model"]["M"], True)
    return out


def _relation_checks(out: Outcome, relation):
    flags = [relation[k] for k in ("general_ok", "holder_ok") if k in relation]
    out.checks += len(flags)
    out.checks_failed += sum(not f for f in flags)


def check_constants(program, job, work: Path, rc) -> Outcome:
    out = Outcome()
    rep = _load(work / job.files["report"])
    if rc != 0:
        out.error = f"constants exited {rc} on a feasible jet"
        return out
    A_ext, A_int = rep["A_extrinsic"], rep["A_intrinsic"]
    if not isinstance(A_ext, float):
        out.error = f"A_extrinsic = {A_ext!r} on a feasible jet"
        return out
    if not _close(rep["L"], _sup_norm(_load(work / job.files["jet"])), 1e-12):
        out.error = "L differs from sup|G|"
        return out
    out.A = A_ext
    if A_int is not None:
        out.route_gap = abs(A_int - A_ext) / (1.0 + A_int)
        if not _close(A_int, A_ext, ROUTE_RTOL):
            out.error = f"routes disagree: A_intrinsic {A_int} vs A_extrinsic {A_ext}"
            return out
        out.A = A_int
    _relation_checks(out, rep["relation"])
    return out


def check_validate(program, job, work: Path, rc, constants_A) -> Outcome:
    out = Outcome()
    rep = _load(work / job.files["report"])
    if rc != 0 or not rep["feasible"]:
        out.error = f"validate exited {rc} on a feasible jet"
        return out
    A = rep["A"]
    if constants_A is None or not _close(A, constants_A, 1e-12):
        out.error = f"validate A = {A} but constants A = {constants_A}"
        return out
    if rep["A_route"] == "intrinsic":
        top = max(p["M"] for p in rep["per_pair_M"])
        if not _close(top, A, 1e-12):
            out.error = f"largest per-pair constant {top} != A {A}"
            return out
    out.A = A
    _relation_checks(out, rep["relation"])
    return out


def check_reproduce(stdout: str, rc) -> Outcome:
    lines = stdout.strip().splitlines()
    if rc != 0 or not lines or lines[-1] != "result: PASS":
        return Outcome(error=f"reproduce anchor failed (exit {rc})")
    return Outcome()
