"""Command-line front end.

Subcommands
-----------
validate    feasibility conditions and constants for a jet + modulus
constants   the least feasible constant by both routes, seminorms, bounds
extend      build the convex extension, write CSV samples + JSON report
c1          qualitative pipeline: construct a modulus, then extend
reproduce   run a named built-in example and compare to expected values
report      pretty-print a previously written verification report

Exit status: 0 all checks passed; 1 mathematical infeasibility or a failed
bound check; 2 malformed input; 3 internal failure (a solver error, a
constructed modulus that fails its own certification, or running out of
memory), reported as one ``internal error:`` line on stderr.  With a fixed
seed, outputs are byte-identical across runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import fixtures
from .c1 import c1_extend
from .envelope import write_samples_csv
from .extension import (
    ConstantTooSmallError,
    ExtensionConfig,
    build_extension,
    verify_extension,
)
from .jet import (
    InfeasibleJetError,
    Jet,
    _A_extrinsic,
    _A_intrinsic,
    _json_float,
    _relation,
    _verdict,
    feasibility_report,
    lip_omega_gradients,
    seminorm_A_intrinsic,
    sup_norm_gradients,
)
from .modulus import HolderModulus, parse_modulus_spec

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _load_jet(path: str) -> Jet:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    return Jet.from_json(obj)


def _emit_json(obj, path):
    text = json.dumps(obj, sort_keys=True, indent=2)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _parse_domain(values, d):
    if values is None:
        return None
    if len(values) != 2 * d:
        raise ValueError(f"--domain needs {2 * d} numbers (lo hi per axis), got {len(values)}")
    arr = np.asarray(values, dtype=float).reshape(d, 2)
    return arr[:, 0], arr[:, 1]


def _number(cast, ok, what, auto=False):
    """An argparse type: ``cast(text)`` where ``ok`` holds for it, and 'auto'
    where allowed; anything else is a usage error (exit 2)."""
    def parse(text):
        if auto and text == "auto":
            return text
        value = cast(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value
    return parse


def _gnuplot_script(csv_path, d, capped):
    cols = "1:%d" % (d + 3)
    lines = [
        f'set datafile separator ","',
        f'plot "{csv_path}" using 1:{d + 1} with lines title "g", \\',
        f'     "{csv_path}" using 1:{d + 2} with lines title "m", \\',
        f'     "{csv_path}" using {cols} with lines title "F"' + (", \\" if capped else ""),
    ]
    if capped:
        lines.append(f'     "{csv_path}" using 1:{d + 4} with lines title "F_L"')
    lines.append("pause -1")
    return "\n".join(lines) + "\n"


def cmd_validate(args) -> int:
    jet = _load_jet(args.jet)
    modulus = parse_modulus_spec(args.modulus)
    rep = feasibility_report(jet, modulus, tol=args.tol)
    _emit_json(rep.to_json(), args.report)
    return EXIT_OK if rep.feasible else EXIT_FAILED


def cmd_constants(args) -> int:
    jet = _load_jet(args.jet)
    modulus = parse_modulus_spec(args.modulus)
    verdict = _verdict(jet, args.tol)
    A_extrinsic = _A_extrinsic(verdict, modulus)[0]
    A = _A_intrinsic(verdict, modulus)[0] if modulus.coercive else A_extrinsic
    rel = _relation(modulus, A, lip_omega_gradients(jet, modulus))
    _emit_json({
        "L": sup_norm_gradients(jet),
        "A_intrinsic": _json_float(A) if modulus.coercive else None,
        "A_extrinsic": _json_float(A_extrinsic),
        "lip_omega_G": _json_float(rel["lip_omega_G"]),
        "relation": {k: _json_float(v) for k, v in rel.items()},
    }, args.report)
    return EXIT_OK if np.isfinite(A) else EXIT_FAILED


def _write_outputs(args, payload, model, report) -> int:
    """Write the report, then the samples CSV and gnuplot script if asked."""
    _emit_json(payload, args.report)
    if args.out:
        write_samples_csv(model.envelope, args.out)
        if args.gnuplot:
            script = _gnuplot_script(args.out, model.dimension, model.L is not None)
            with open(args.out + ".gp", "w") as fh:
                fh.write(script)
    return EXIT_OK if report.ok else EXIT_FAILED


def cmd_extend(args) -> int:
    jet = _load_jet(args.jet)
    modulus = parse_modulus_spec(args.modulus)
    cfg = ExtensionConfig(
        modulus=modulus,
        M=args.M,
        lipschitz=args.lipschitz,
        smoothness_K=args.K,
        domain=_parse_domain(args.domain, jet.dimension),
        resolution=args.resolution,
        tol=args.tol,
    )
    model = build_extension(jet, cfg)
    report = verify_extension(model, samples=args.samples, seed=args.seed)
    return _write_outputs(args, {"model": model.manifest(), "verification": report.to_json()}, model, report)


def cmd_c1(args) -> int:
    jet = _load_jet(args.jet)
    model, report, cm = c1_extend(
        jet,
        alpha=args.alpha,
        domain=_parse_domain(args.domain, jet.dimension),
        resolution=args.resolution,
        smoothness_K=args.K,
        samples=args.samples,
        seed=args.seed,
        tol=args.tol,
    )
    payload = {
        "model": model.manifest(),
        "construction": cm.to_json(),
        "verification": report.to_json(),
    }
    return _write_outputs(args, payload, model, report)


def _print_table(rows):
    widths = [max(len(str(r[k])) for r in rows) for k in range(len(rows[0]))]
    for r in rows:
        print("  ".join(str(v).ljust(w) for v, w in zip(r, widths)))


def cmd_reproduce(args) -> int:
    name = args.name
    ok = True
    rows = [("quantity", "computed", "expected", "pass")]

    def record(label, computed, expected, tol):
        nonlocal ok
        good = abs(computed - expected) <= tol
        ok = ok and good
        rows.append((label, f"{computed:.12g}", f"{expected:.12g}", "yes" if good else "NO"))

    if name == "example-3.3":
        for alpha in (0.25, 0.5, 0.75, 1.0):
            jet = fixtures.two_point_power_jet(alpha)
            m = HolderModulus(alpha)
            A, _ = seminorm_A_intrinsic(jet, m)
            lip = lip_omega_gradients(jet, m)
            record(f"A(alpha={alpha})", A, 2.0 / (1.0 + 1.0 / alpha) ** alpha, 1e-9)
            record(f"lip(alpha={alpha})", lip, 2.0 ** (1.0 - alpha), 1e-9)
            record(
                f"lip/A(alpha={alpha})",
                lip / A,
                ((1.0 + alpha) / (2.0 * alpha)) ** alpha,
                1e-9,
            )
    elif name == "section-3-holder-gap":
        jet = fixtures.power_three_halves_grid_jet(n=401, radius=2.0)
        m = HolderModulus(0.5)
        lip = lip_omega_gradients(jet, m)
        A, _ = seminorm_A_intrinsic(jet, m)
        record("lip_{1/2}(G)", lip, np.sqrt(2.0), 1e-9)
        lo, hi = np.sqrt(4.0 / 3.0) - 1e-3, 1.3076
        good = lo <= A <= hi
        ok = ok and good
        rows.append(("A in [1.1537, 1.3076]", f"{A:.12g}", f"[{lo:.6g}, {hi:.6g}]", "yes" if good else "NO"))
    elif name == "huber":
        jet = fixtures.single_parabola_jet()
        cfg = ExtensionConfig(
            modulus=parse_modulus_spec("linear"), M=1.0, lipschitz=1.0,
            domain=(np.array([-3.0]), np.array([3.0])), resolution=4001,
        )
        model = build_extension(jet, cfg)
        record("F_L(2)", model.envelope.lipschitz_value([2.0]), 1.5, 5e-3)
    else:
        raise ValueError(f"unknown reproduction case {name!r}")

    _print_table(rows)
    print("result:", "PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_FAILED


def cmd_report(args) -> int:
    with open(args.file) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"report must be a JSON object, got {type(payload).__name__}")
    verification = payload.get("verification", payload)
    if not isinstance(verification, dict):
        raise ValueError(f"report field 'verification' must be an object, got {type(verification).__name__}")
    checks = verification.get("bound_checks", [])
    if not isinstance(checks, list):
        raise ValueError(f"report field 'bound_checks' must be a list, got {type(checks).__name__}")
    for c in checks:
        if not (isinstance(c, dict) and {"name", "passed"} <= c.keys()
                and all(type(c.get(k)) in (int, float) for k in ("bound", "measured"))):
            raise ValueError(f"each bound check needs a name, a numeric bound and measured, and passed; got {c!r}")
    rows = [("check", "bound", "measured", "pass")]
    for c in checks:
        rows.append(
            (c["name"], f"{c['bound']:.6g}", f"{c['measured']:.6g}", "yes" if c["passed"] else "NO")
        )
    _print_table(rows)
    ok = bool(verification.get("ok", all(c["passed"] for c in checks)))
    print("result:", "PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_FAILED


def _add_common(p, with_modulus=True):
    p.add_argument("jet", help="path to a jet JSON file")
    if with_modulus:
        p.add_argument("--modulus", required=True, help="holder:ALPHA | linear | table:FILE")
    p.add_argument("--report", default=None, help="write the JSON report here instead of stdout")
    p.add_argument("--tol", type=_number(float, lambda v: v >= 0, ">= 0"), default=1e-9,
                   help="feasibility tolerance")


def _add_build(p):
    p.add_argument("--domain", type=float, nargs="+", default=None,
                   help="box as lo1 hi1 [lo2 hi2 ...]; default: jet box +/- max(1, 2 diam)")
    p.add_argument("--resolution", type=_number(int, lambda v: v >= 33, ">= 33"), help="grid points per axis")
    p.add_argument("--samples", type=_number(int, lambda v: v >= 0, ">= 0"), default=2000,
                   help="least number of verification sample pairs (at least 40 points are drawn)")
    p.add_argument("--seed", type=_number(int, lambda v: v >= 0, ">= 0"), default=0, help="verification RNG seed")
    p.add_argument("--K", type=_number(float, lambda v: v > 0, "> 0"), default=None,
                   help="override the midpoint-smoothness constant")
    p.add_argument("--out", default=None, help="write grid samples CSV here")
    p.add_argument("--gnuplot", action="store_true", help="also write a gnuplot script next to the CSV")


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by later ones."""
    parser = argparse.ArgumentParser(
        prog="convext",
        description="Convex differentiable extension of 1-jets with sharp Lipschitz constants",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check feasibility conditions and constants")
    _add_common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("constants", help="least feasible constant (both routes) and seminorms")
    _add_common(p)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("extend", help="build and verify the convex extension")
    _add_common(p)
    p.add_argument("--M", type=_number(float, math.isfinite, "finite or 'auto'", auto=True), default="auto",
                   help="lifting constant, or 'auto' for the least feasible")
    p.add_argument("--lipschitz", type=_number(float, lambda v: math.isfinite(v) and v >= 0,
                                               "finite and >= 0, or 'auto'", auto=True),
                   default=None, help="Lipschitz cap, or 'auto' for sup|G|")
    _add_build(p)
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("c1", help="construct a modulus from a qualitative jet and extend")
    _add_common(p, with_modulus=False)
    p.add_argument("--alpha", type=_number(float, lambda v: 0 < v <= 1, "in (0, 1]"), default=1.0,
                   help="norm smoothness exponent, default 1")
    _add_build(p)
    p.set_defaults(func=cmd_c1)

    p = sub.add_parser("reproduce", help="run a named built-in example")
    p.add_argument("name", choices=["example-3.3", "section-3-holder-gap", "huber"])
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("report", help="pretty-print a verification report JSON")
    p.add_argument("file")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleJetError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_FAILED
    except ConstantTooSmallError as exc:
        print(f"infeasible constant: {exc}", file=sys.stderr)
        return EXIT_FAILED
    except (OSError, ValueError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (RuntimeError, MemoryError) as exc:
        detail = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}" + (f": {detail}" if detail else ""),
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
