"""Seeded jets and moduli for the benchmark workloads.

Everything here uses numpy and the standard library only: the inputs must
not change when the program under test changes, so nothing is imported
from ``convext``.  The generators follow the test-suite's recipe (random
smooth convex functions restricted to random or grid points) but are kept
separate from it.

Each workload has a fixed schedule of job shapes (dimension, point count,
modulus kind); the seed decides only the random functions, points and
table knots.  Pass-to-pass and seed-to-seed cost therefore stays close,
while every output depends on the seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


def concave_table_knots(rng, knots=5, coercive=True):
    """Knots of a concave non-decreasing table through (0, 0).

    With ``coercive=False`` the last slope is 0, so the modulus is bounded
    and only the extrinsic route applies.
    """
    dt = rng.uniform(0.2, 1.5, size=knots)
    t = np.concatenate([[0.0], np.cumsum(dt)])
    slopes = np.sort(rng.uniform(0.05 if coercive else 0.0, 2.0, size=knots))[::-1]
    if not coercive:
        slopes[-1] = 0.0
    w = np.concatenate([[0.0], np.cumsum(slopes * dt)])
    return np.column_stack([t, w])


def convex_function(rng, d):
    """A smooth strictly convex function and its gradient, vectorized over rows.

    Quadratic bowl plus one to three C^1 power ridges
    w |<a, x> - b|^(1+p) / (1+p) with p in (1.1, 1.9).
    """
    q = rng.uniform(0.3, 1.5)
    center = rng.uniform(-0.5, 0.5, size=d)
    atoms = []
    for _ in range(int(rng.integers(1, 4))):
        a = rng.normal(size=d)
        a /= max(np.linalg.norm(a), 1e-9)
        atoms.append((a, rng.uniform(-0.5, 0.5), rng.uniform(0.2, 1.0), rng.uniform(1.1, 1.9)))

    def value(X):
        out = 0.5 * q * np.sum((X - center) ** 2, axis=1)
        for a, b, w, p in atoms:
            out += w * np.abs(X @ a - b) ** (1.0 + p) / (1.0 + p)
        return out

    def grad(X):
        out = q * (X - center)
        for a, b, w, p in atoms:
            u = X @ a - b
            out += (w * np.sign(u) * np.abs(u) ** p)[:, None] * a[None, :]
        return out

    return value, grad


def _min_separation(pts):
    best = np.inf
    for i in range(len(pts) - 1):
        gap = np.sqrt(np.min(np.sum((pts[i + 1:] - pts[i]) ** 2, axis=1)))
        best = min(best, gap)
    return best


def random_restriction(rng, d, n):
    """(points, values, gradients) of a convex function at n random points in [-1, 1]^d."""
    value, grad = convex_function(rng, d)
    for _ in range(100):
        pts = rng.uniform(-1.0, 1.0, size=(n, d))
        if n == 1 or _min_separation(pts) > 1e-3:
            break
    return pts, value(pts), grad(pts)


def grid_restriction(rng, n, radius=1.0):
    """(points, values, gradients) of a 1-D convex function on a uniform n-grid."""
    value, grad = convex_function(rng, 1)
    pts = np.linspace(-radius, radius, n)[:, None]
    return pts, value(pts), grad(pts)


def jet_json(pts, vals, grads):
    return {
        "dimension": int(pts.shape[1]),
        "points": pts.tolist(),
        "values": vals.tolist(),
        "gradients": grads.tolist(),
    }


@dataclass
class Job:
    """One CLI invocation; ``{work}`` in argv is replaced by the work directory."""

    name: str
    argv: list
    kind: str                       # extend | c1 | constants | validate | reproduce
    files: dict = field(default_factory=dict)   # role -> path relative to the work dir
    modulus: str = ""               # CLI modulus spec, for re-evaluating outputs
    group: str = ""                 # jobs sharing one jet (constants + validate)


def _modulus_spec(rng, kind, tag, files):
    """Return a CLI modulus spec; table moduli are written to a JSON file."""
    if kind == "holder":
        return f"holder:{round(float(rng.uniform(0.3, 1.0)), 3)}"
    if kind.startswith("holder:"):     # a fixed exponent
        return kind
    if kind == "linear":
        return "linear"
    coercive = kind == "table"
    knots = concave_table_knots(rng, coercive=coercive)
    rel = f"{tag}.modulus.json"
    files[rel] = {"type": "table", "knots": knots.tolist()}
    return "table:{work}/" + rel


def extend_1d_jobs(rng, files):
    """Capped 1-D extensions on 2..8 points, Hoelder / linear / concave-table moduli,
    and one `c1` on a 60-point grid restriction.

    The `c1` job is the one that enters ``convext.c1``.  It is a single small
    job because ``delta1_value`` streams (pairs x 200) arrays through memory,
    and on a shared machine a workload of such jobs spread too widely from run
    to run (bench/NOTES.md).
    """
    jobs = []
    shapes = ((2, "holder:0.5"), (5, "linear"), (8, "table"),
              (3, "holder:0.8"), (6, "linear"), (4, "table"))
    for k, (n, kind) in enumerate(shapes):
        tag = f"e1d-{k:02d}"
        files[f"{tag}.jet.json"] = jet_json(*random_restriction(rng, 1, n))
        spec = _modulus_spec(rng, kind, tag, files)
        jobs.append(Job(tag, [
            "extend", "{work}/" + f"{tag}.jet.json", "--modulus", spec,
            "--lipschitz", "auto", "--samples", "10000",
            "--out", "{work}/" + f"{tag}.csv", "--report", "{work}/" + f"{tag}.report.json",
        ], "extend", {"jet": f"{tag}.jet.json", "csv": f"{tag}.csv", "report": f"{tag}.report.json"},
            modulus=spec))
    files["c1.jet.json"] = jet_json(*grid_restriction(rng, 60))
    jobs.append(Job("c1", [
        "c1", "{work}/c1.jet.json", "--alpha", "1.0",
        "--out", "{work}/c1.csv", "--report", "{work}/c1.report.json",
    ], "c1", {"jet": "c1.jet.json", "csv": "c1.csv", "report": "c1.report.json"}))
    jobs.append(Job("huber", ["reproduce", "huber"], "reproduce"))
    return jobs


def constants_jobs(rng, files):
    """`constants` and `validate` on n = 125..150 jets in d = 1, 2, 3."""
    jobs = []
    shapes = (
        (1, 150, "holder"),
        (2, 125, "table"),
        (3, 125, "bounded"),
        (2, 125, "linear"),
    )
    for k, (d, n, kind) in enumerate(shapes):
        tag = f"const-{k:02d}"
        files[f"{tag}.jet.json"] = jet_json(*random_restriction(rng, d, n))
        spec = _modulus_spec(rng, kind, tag, files)
        for cmd in ("constants", "validate"):
            jobs.append(Job(f"{tag}-{cmd}", [
                cmd, "{work}/" + f"{tag}.jet.json", "--modulus", spec,
                "--report", "{work}/" + f"{tag}.{cmd}.json",
            ], cmd, {"jet": f"{tag}.jet.json", "report": f"{tag}.{cmd}.json"},
                modulus=spec, group=tag))
    jobs.append(Job("holder-gap", ["reproduce", "section-3-holder-gap"], "reproduce"))
    return jobs


def extend_grid_jobs(rng, files):
    """2-D capped extensions with CSV at 65^2, 3-D uncapped at 33^3."""
    jobs = []
    shapes = ((2, 4, "holder:0.75"), (3, 4, "linear"))
    for k, (d, n, kind) in enumerate(shapes):
        tag = f"egrid-{k:02d}"
        files[f"{tag}.jet.json"] = jet_json(*random_restriction(rng, d, n))
        spec = _modulus_spec(rng, kind, tag, files)
        argv = ["extend", "{work}/" + f"{tag}.jet.json", "--modulus", spec,
                "--report", "{work}/" + f"{tag}.report.json"]
        roles = {"jet": f"{tag}.jet.json", "report": f"{tag}.report.json"}
        if d == 2:
            argv += ["--lipschitz", "auto", "--out", "{work}/" + f"{tag}.csv"]
            roles["csv"] = f"{tag}.csv"
        jobs.append(Job(tag, argv, "extend", roles, modulus=spec))
    return jobs


WORKLOADS = {
    "extend-1d": extend_1d_jobs,
    "constants": constants_jobs,
    "extend-grid": extend_grid_jobs,
}


def make_inputs(workload: str, seed: int, work: Path):
    """Write the workload's jet and modulus files under ``work``; return its jobs."""
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    files = {}
    jobs = WORKLOADS[workload](rng, files)
    work.mkdir(parents=True, exist_ok=True)
    for rel, obj in files.items():
        (work / rel).write_text(json.dumps(obj) + "\n")
    for job in jobs:
        job.argv = [a.replace("{work}", str(work)) for a in job.argv]
        job.modulus = job.modulus.replace("{work}", str(work))
    return jobs, sorted(files)
