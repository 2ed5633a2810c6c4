"""convext benchmark: closed-loop CLI workloads with output checks.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one client, one job at a time: the benchmark calls
``convext.cli.main(argv)`` in-process on jet and modulus files it generates
from the seed under ``.bench_work/``, and checks every output.  It runs the
workload's job list ("a pass") once, then again while another pass is
expected to end within ``--seconds``.

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
runs untraced passes for the first half of the time and traced passes for
the rest, and reports the per-layer metrics (per traced pass) plus
``trace_overhead``.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See bench/NOTES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

# One BLAS thread: with two threads, a job's time also depends on whether the
# shared host gives the second vCPU at that moment.  Set before numpy loads;
# the set-up children inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import inputs  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUP_REPEATS = 5      # set-ups before the passes, and again after them

# Run in a fresh interpreter: import convext (numpy with it) and load the files.
SETUP_CODE = """\
import json, sys, time
sys.path.insert(0, sys.argv[1])
args = json.loads(sys.argv[2])
start = time.perf_counter()
from convext import cli, jet, modulus
for path in args["jets"]:
    with open(path) as fh:
        jet.Jet.from_json(json.load(fh))
for spec in args["moduli"]:
    modulus.parse_modulus_spec(spec)
elapsed = time.perf_counter() - start
print(json.dumps({"seconds": elapsed, "origin": cli.__file__}))
"""


def _check_origin(path):
    origin = Path(path).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"convext was imported from {origin}, not from {SRC}")


def setup_seconds(jet_paths, modulus_specs):
    """Seconds a fresh interpreter takes to import convext and load the workload's files."""
    args = json.dumps({"jets": [str(p) for p in jet_paths], "moduli": list(modulus_specs)})
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), args],
                          cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    out = json.loads(proc.stdout.splitlines()[-1])
    _check_origin(out["origin"])
    return out["seconds"]


def load_program():
    """The convext modules the benchmark drives, imported into this process."""
    program = SimpleNamespace(**{
        name: importlib.import_module(f"convext.{name}")
        for name in ("cli", "jet", "modulus", "envelope")
    })
    _check_origin(program.cli.__file__)
    return program


def run_job(program, job, work: Path, tracer: Tracer, constants_A: dict):
    """Run one CLI job; return (seconds, outcome, digest, report bytes, csv bytes)."""
    for role in ("report", "csv"):
        if role in job.files:
            (work / job.files[role]).unlink(missing_ok=True)
    buf = io.StringIO()
    tracer.active = tracer.enabled
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            rc = program.cli.main(job.argv)
    except SystemExit as exc:      # argparse rejected the arguments
        rc = exc.code
    except Exception:               # any crash is a job error, and the loop goes on
        rc = "raised"
        buf.write(traceback.format_exc())
    elapsed = time.perf_counter() - start
    tracer.active = False

    if rc not in (0, 1):
        outcome = checks.Outcome(error=f"exit {rc}: {buf.getvalue().strip()[-300:]}")
    else:
        try:
            outcome = _check(program, job, work, rc, buf.getvalue(), constants_A)
        except Exception as exc:    # unreadable or malformed output
            outcome = checks.Outcome(error=f"check raised {exc!r}")
    digest = hashlib.sha256()
    if job.kind == "reproduce":
        digest.update(buf.getvalue().encode())
    sizes = {}
    for role in ("report", "csv"):
        path = work / job.files[role] if role in job.files else None
        data = path.read_bytes() if path is not None and path.is_file() else b""
        digest.update(data)
        sizes[role] = len(data)
    return elapsed, outcome, digest.hexdigest(), sizes["report"], sizes["csv"]


def _check(program, job, work, rc, stdout, constants_A):
    if job.kind == "reproduce":
        return checks.check_reproduce(stdout, rc)
    if job.kind == "extend":
        return checks.check_extend(program, job, work, rc)
    if job.kind == "c1":
        return checks.check_c1(program, job, work, rc)
    if job.kind == "constants":
        out = checks.check_constants(program, job, work, rc)
        constants_A[job.group] = out.A
        return out
    return checks.check_validate(program, job, work, rc, constants_A.get(job.group))


class Totals:
    """Everything the passes measured, across passes."""

    def __init__(self):
        self.passes = []        # per pass, the seconds of each job in list order
        self.first_pass_rss_mb = None
        self.attempted = 0
        self.failed = 0
        self.checks = 0
        self.checks_failed = 0
        self.interp_use_max = 0.0
        self.route_gap_max = 0.0
        self.report_bytes = 0
        self.csv_bytes = 0
        self.digests = {}
        self.errors = []

    def add(self, job, elapsed, outcome, digest, report_bytes, csv_bytes):
        self.passes[-1].append(elapsed)
        self.attempted += 1
        self.report_bytes += report_bytes
        self.csv_bytes += csv_bytes
        first = self.digests.setdefault(job.name, digest)
        if outcome.error is None and first != digest:
            outcome.error = "output differs from the first pass with the same inputs"
        if outcome.error is not None:
            self.failed += 1
            self.errors.append(f"{job.name}: {outcome.error}")
            return
        self.checks += outcome.checks
        self.checks_failed += outcome.checks_failed
        self.interp_use_max = max(self.interp_use_max, outcome.interp_use)
        self.route_gap_max = max(self.route_gap_max, outcome.route_gap)


def job_seconds(times):
    """One job's time over a run's passes: the lower quartile of its times.

    The measuring machine switches between a fast and a slow state every few
    seconds and drifts by 20 % and more over minutes.  The fast passes are the
    ones that drift moves least; the lower quartile keeps to them without
    resting on the single luckiest pass, as the fastest pass would.
    """
    if len(times) == 1:
        return times[0]
    return statistics.quantiles(times, n=4, method="inclusive")[0]


def job_list_seconds(passes):
    """Time to run the job list once: the sum over jobs of ``job_seconds``."""
    return sum(job_seconds(times) for times in zip(*passes))


def job_median_seconds(passes):
    """Median over the job list of ``job_seconds``."""
    return statistics.median(job_seconds(times) for times in zip(*passes))


def run_passes(program, jobs, work, tracer, totals, until):
    """Run whole passes of the job list: one, then more while each fits before ``until``."""
    passes = 0
    last = 0.0
    while passes == 0 or time.perf_counter() + last <= until:
        began = time.perf_counter()
        totals.passes.append([])
        constants_A = {}
        for job in jobs:
            result = run_job(program, job, work, tracer, constants_A)
            totals.add(job, *result)
        last = time.perf_counter() - began
        if len(totals.passes) == 1:
            totals.first_pass_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        passes += 1
    return passes


def blas_threads():
    """OpenBLAS thread count as reported by the library numpy loaded, or None."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        with contextlib.suppress(OSError):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = (
                (index / "size").read_text().strip())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "convext" / "__init__.py").is_file():
        print(f"error: no convext sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    jobs, files = inputs.make_inputs(args.workload, args.seed, work)
    jet_paths = [work / f for f in files if f.endswith(".jet.json")]
    specs = sorted({j.modulus for j in jobs if j.modulus})
    setup_times = [setup_seconds(jet_paths, specs) for _ in range(SETUP_REPEATS)]
    program = load_program()

    tracer = Tracer()
    totals = Totals()
    start = time.perf_counter()
    if not args.trace:
        run_passes(program, jobs, work, tracer, totals, start + args.seconds)
        untraced = list(totals.passes)
    else:
        run_passes(program, jobs, work, tracer, totals, start + args.seconds / 2)
        untraced = list(totals.passes)
        tracer.enabled = True
        tracer.install()
        try:
            passes = run_passes(program, jobs, work, tracer, totals, start + args.seconds)
        finally:
            tracer.uninstall()
    setup_times += [setup_seconds(jet_paths, specs) for _ in range(SETUP_REPEATS)]

    quality = {
        "error_frac": (totals.failed / totals.attempted, "1"),
        "checks_failed_frac": (totals.checks_failed / totals.checks if totals.checks else 0.0, "1"),
        "interp_use_max": (totals.interp_use_max, "1"),
        "route_gap_max": (totals.route_gap_max, "1"),
    }
    end_to_end = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (job_list_seconds(untraced), "s"),
        "job_p50_s": (job_median_seconds(untraced), "s"),
        # after the first pass: later passes can raise the peak through heap fragmentation
        "peak_rss_mb": (totals.first_pass_rss_mb, "MB"),
    }
    if args.trace:
        metrics = tracer.layer_metrics(passes)
        metrics["cli.report_bytes"] = (totals.report_bytes / len(totals.passes), "bytes")
        metrics["cli.csv_bytes"] = (totals.csv_bytes / len(totals.passes), "bytes")
        metrics["trace_overhead"] = (
            job_list_seconds(totals.passes[len(untraced):]) - job_list_seconds(untraced), "s")
        metrics.update(quality)
        shown = {**end_to_end, **metrics}
    else:
        metrics = end_to_end
        shown = {**end_to_end, **quality}

    combined = hashlib.sha256("".join(
        f"{name} {digest}\n" for name, digest in sorted(totals.digests.items())).encode())
    env = environment()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(totals.passes), "jobs_per_pass": len(jobs),
        "environment": env, "digests": totals.digests, "outputs_sha256": combined.hexdigest(),
        "errors": totals.errors, "metrics": {k: v[0] for k, v in shown.items()},
        "pass_seconds": [sum(times) for times in totals.passes],
        "job_times": totals.passes,
        "setup_times": setup_times,
        "job_seconds": {job.name: job_seconds(times)
                        for job, times in zip(jobs, zip(*untraced))},
    }
    (work / "result.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(totals.passes)} x {len(jobs)} jobs  closed loop, 1 client")
    for name, (value, unit) in shown.items():
        print(f"  {name:<46} {value:>16.6g} {unit}")
    if args.trace:
        layers = sorted(tracer.layer_seconds().items(), key=lambda kv: -kv[1])
        total = sum(seconds for _, seconds in layers)
        print("  self time by layer, per traced pass: " + ", ".join(
            f"{layer} {seconds / passes:.3g} s ({100 * seconds / total:.0f} %)"
            for layer, seconds in layers))
    for err in totals.errors[:10]:
        print(f"  error: {err}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"outputs_sha256 {combined.hexdigest()}")
    print(json.dumps({
        "correct": totals.failed == 0,
        "attempted": totals.attempted,
        "failed": totals.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
