"""Moduli of continuity and their convex-analysis companions.

A modulus of continuity is a concave, non-decreasing function
omega : [0, inf) -> [0, inf) with omega(0) = 0.  Besides omega itself, the
code below evaluates

* ``phi(t)   = integral_0^t omega(s) ds``   (convex, the "parabola profile"),
* ``omega_inv(s)``                          (inverse, coercive moduli only),
* ``phi_star(s) = integral_0^s omega_inv`` (Fenchel conjugate of phi,
  coercive moduli only),

and audits the standard inequality suite tying the four functions together
(``validate_modulus``).  A modulus is *coercive* when it is increasing and
unbounded; only then are omega_inv and phi_star defined.

Supported kinds: power moduli t^alpha with alpha in (0, 1], the identity
modulus t, piecewise-linear concave tables, and positive scalings of any of
these.  All evaluations accept scalars or numpy arrays and are exact
(closed forms, or exact piecewise integration for tables).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from numbers import Real
from typing import Optional

import numpy as np

__all__ = [
    "Modulus",
    "HolderModulus",
    "LinearModulus",
    "TableModulus",
    "ScaledModulus",
    "NonCoerciveModulusError",
    "ValidationIssue",
    "ValidationReport",
    "validate_modulus",
    "modulus_from_json",
    "modulus_to_json",
    "parse_modulus_spec",
]


class NonCoerciveModulusError(Exception):
    """Raised when omega_inv / phi_star is requested for a bounded modulus."""


def _check_nonneg(x, name):
    arr = np.asarray(x, dtype=float)
    if arr.size and (np.any(np.isnan(arr)) or np.any(arr < 0)):
        raise ValueError(f"{name} must be >= 0, got {x!r}")
    return arr


class Modulus:
    """Base class; subclasses implement the four evaluations on arrays."""

    coercive: bool = False

    #: omega's exponent when omega(t) = scale * t^alpha, else None.
    holder_exponent: Optional[float] = None
    #: multiplicative scale in front of the base shape (1.0 unless scaled).
    holder_scale: float = 1.0

    @property
    def omega_sup(self) -> float:
        """sup_t omega(t); +inf for coercive moduli."""
        return np.inf

    # -- public evaluations (scalar in -> float out, array in -> array out)

    def omega(self, t):
        arr = _check_nonneg(t, "t")
        out = self._omega(arr)
        return float(out) if np.ndim(t) == 0 else out

    def phi(self, t):
        arr = _check_nonneg(t, "t")
        out = self._phi(arr)
        return float(out) if np.ndim(t) == 0 else out

    def omega_inv(self, s):
        if not self.coercive:
            raise NonCoerciveModulusError(
                "omega_inv is only defined for increasing unbounded moduli"
            )
        arr = _check_nonneg(s, "s")
        out = self._conjugate(arr)[1]
        return float(out) if np.ndim(s) == 0 else out

    def phi_star(self, s):
        if not self.coercive:
            raise NonCoerciveModulusError(
                "phi_star is only defined for increasing unbounded moduli"
            )
        arr = _check_nonneg(s, "s")
        out = self._conjugate(arr)[0]
        return float(out) if np.ndim(s) == 0 else out

    # -- hooks

    def _omega(self, t):
        raise NotImplementedError

    def _phi(self, t):
        raise NotImplementedError

    def _conjugate(self, s):
        """(phi_star(s), omega_inv(s), omega_inv'(s)) on arrays s >= 0.

        Defined for coercive moduli, and for bounded tables on [0, omega_sup],
        past which they continue their last rising segment.
        """
        raise NotImplementedError

    # -- exact per-pair solutions behind the least constant A, for rho = c / s > 0:
    # the power family here, overridden by tables and scalings; no other kind.

    def _conjugate_root(self, rho):
        """sigma > 0 with phi_star(sigma) = rho * sigma (coercive moduli only).

        For omega = scale * t^alpha: sigma = scale * ((1 + 1/alpha) rho)^alpha.
        """
        alpha = self.holder_exponent
        return self.holder_scale * np.power((1.0 + 1.0 / alpha) * rho, alpha)

    def _ratio_argmax(self, rho):
        """r > 0 maximizing (r - rho) / phi(r): (1 + alpha) rho / alpha for powers.

        A bounded modulus whose ratio still increases as r -> inf returns a
        finite r; callers add the limit 1 / omega_sup themselves.
        """
        alpha = self.holder_exponent
        return (1.0 + alpha) / alpha * rho


def _positive_root(b, e):
    """The root v >= 0 of v^2 + 2 b v = e (e >= 0), free of cancellation."""
    with np.errstate(divide="ignore", invalid="ignore"):
        sq = np.sqrt(b * b + e)
        return np.where(b < 0.0, sq - b, e / (b + sq))


class HolderModulus(Modulus):
    """omega(t) = t^alpha for alpha in (0, 1]."""

    coercive = True

    def __init__(self, alpha: float):
        alpha = float(alpha)
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
        self.alpha = alpha
        self.holder_exponent = alpha

    def _omega(self, t):
        return np.power(t, self.alpha)

    def _phi(self, t):
        return np.power(t, 1.0 + self.alpha) / (1.0 + self.alpha)

    def _conjugate(self, s):
        p = 1.0 / self.alpha
        q = 1.0 + p
        return np.power(s, q) / q, np.power(s, p), p * np.power(s, p - 1.0)

    def __repr__(self):
        return f"HolderModulus(alpha={self.alpha})"


class LinearModulus(HolderModulus):
    """The identity modulus omega(t) = t (Lipschitz gradients): t^alpha with alpha = 1."""

    def __init__(self):
        super().__init__(1.0)

    def __repr__(self):
        return "LinearModulus()"


class TableModulus(Modulus):
    """Piecewise-linear concave modulus given by knots (t_i, w_i).

    The first knot must be (0, 0); beyond the last knot the table is
    extrapolated affinely with the final chord slope (this preserves
    concavity and monotonicity).  phi / phi_star / omega_inv are computed
    by exact piecewise integration and inversion of the linear segments.

    Pass ``validate=False`` to skip the shape checks at construction; this
    exists so that deliberately corrupted tables can be fed to
    ``validate_modulus`` in audits.
    """

    def __init__(self, knots, validate: bool = True):
        knots = np.asarray(knots, dtype=float)
        if knots.ndim != 2 or knots.shape[1] != 2 or knots.shape[0] < 2:
            raise ValueError("knots must be an (k >= 2, 2) array of (t, omega(t)) pairs")
        t, w = knots[:, 0].copy(), knots[:, 1].copy()
        if validate:
            if not np.all(np.isfinite(knots)):
                raise ValueError(f"knots must be finite, got {knots.tolist()}")
            if t[0] != 0.0 or w[0] != 0.0:
                raise ValueError("the first knot must be (0, 0)")
            if np.any(np.diff(t) <= 0):
                raise ValueError("knot abscissae must be strictly increasing")
            if np.any(w < 0) or np.any(np.diff(w) < 0):
                raise ValueError("knot values must be nonnegative and non-decreasing")
            slopes = np.diff(w) / np.diff(t)
            tol = 1e-12 * (1.0 + np.max(np.abs(w)))
            if np.any(np.diff(slopes) > tol):
                raise ValueError("knots are not concave (chord slopes increase)")
        self._t = t
        self._w = w
        self._slopes = np.diff(w) / np.diff(t)
        self._slope_end = float(self._slopes[-1])
        # slope of the segment starting at each knot; the last one is open
        self._seg_slopes = np.append(self._slopes, self._slope_end)
        # cumulative integral of omega at the knots (trapezoids are exact)
        self._Phi = np.concatenate(
            [[0.0], np.cumsum(np.diff(t) * (w[:-1] + w[1:]) / 2.0)]
        )
        self.coercive = self._slope_end > 0.0
        # cumulative integral of omega_inv at the knot values
        self._Psi = np.concatenate([[0.0], np.cumsum(np.diff(w) * (t[:-1] + t[1:]) / 2.0)])
        # omega_inv lives on the rising segments; the last one ends at omega_sup
        rising = np.flatnonzero(self._seg_slopes > 0.0)
        self._top = int(rising[-1]) if rising.size else 0

    @property
    def knots(self):
        return np.column_stack([self._t, self._w])

    @property
    def omega_sup(self):
        return np.inf if self.coercive else float(self._w[-1])

    def _omega(self, t):
        t = np.asarray(t, dtype=float)
        out = np.interp(t, self._t, self._w)
        over = t > self._t[-1]
        if np.any(over):
            out = np.where(over, self._w[-1] + self._slope_end * (t - self._t[-1]), out)
        return out

    def _phi(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.clip(np.searchsorted(self._t, t, side="right") - 1, 0, len(self._t) - 1)
        # omega is affine on [t_idx, t], the last segment open, so one trapezoid
        # finishes the integral; omega(t) is read on the segment found
        step = t - self._t[idx]
        w = self._w[idx]
        return self._Phi[idx] + step * (w + (w + self._seg_slopes[idx] * step)) / 2.0

    def _conjugate(self, s):
        s = np.asarray(s, dtype=float)
        idx = np.clip(np.searchsorted(self._w, s, side="right") - 1, 0, self._top)
        a = self._seg_slopes[idx]
        inv = self._t[idx] + (s - self._w[idx]) / a
        return self._Psi[idx] + (s - self._w[idx]) * (self._t[idx] + inv) / 2.0, inv, 1.0 / a

    def _conjugate_root(self, rho):
        # phi_star(sigma) / sigma rises through Psi_k / w_k at the knots; on the
        # segment found, phi_star(w_k + v) = Psi_k + t_k v + v^2 / (2 a_k)
        with np.errstate(divide="ignore", invalid="ignore"):
            q = np.where(self._w > 0.0, self._Psi / self._w, 0.0)
        k = np.searchsorted(q, rho, side="right") - 1
        a = self._seg_slopes[k]
        return self._w[k] + _positive_root(a * (self._t[k] - rho), 2.0 * a * (rho * self._w[k] - self._Psi[k]))

    def _ratio_argmax(self, rho):
        # the ratio's slope has the sign of F(r) = phi(r) - (r - rho) omega(r),
        # which falls through zero once, in the segment before the first knot
        # with t_k - Phi_k / w_k >= rho; there a u^2/2 + (t_k - rho) a u = F(t_k)
        with np.errstate(divide="ignore", invalid="ignore"):
            tau = np.where(self._w > 0.0, self._t - self._Phi / self._w, 0.0)
            k = np.searchsorted(tau, rho) - 1
            b = self._t[k] - rho
            u = _positive_root(b, 2.0 * (self._Phi[k] - b * self._w[k]) / self._seg_slopes[k])
        # a flat tail has no interior maximum: stop at its first knot
        length = np.append(np.diff(self._t), np.inf if self.coercive else 0.0)[k]
        return self._t[k] + np.fmax(np.fmin(u, length), 0.0)

    def __repr__(self):
        return f"TableModulus({self.knots.tolist()!r})"


class ScaledModulus(Modulus):
    """omega(t) = factor * base(t) for factor > 0.

    phi scales by the factor; the conjugate obeys
    (factor * phi)^*(s) = factor * phi^*(s / factor).
    """

    def __init__(self, base: Modulus, factor: float):
        factor = float(factor)
        if not (np.isfinite(factor) and factor > 0):
            raise ValueError(f"scale factor must be finite and positive, got {factor}")
        self.base = base
        self.factor = factor
        self.coercive = base.coercive
        self.holder_exponent = base.holder_exponent
        self.holder_scale = factor * base.holder_scale

    @property
    def omega_sup(self):
        return self.factor * self.base.omega_sup

    def _omega(self, t):
        return self.factor * self.base._omega(t)

    def _phi(self, t):
        return self.factor * self.base._phi(t)

    def _conjugate(self, s):
        phi_star, inv, slope = self.base._conjugate(np.asarray(s, dtype=float) / self.factor)
        return self.factor * phi_star, inv, slope / self.factor

    def _conjugate_root(self, rho):
        return self.factor * self.base._conjugate_root(rho)

    def _ratio_argmax(self, rho):
        return self.base._ratio_argmax(rho)

    def __repr__(self):
        return f"ScaledModulus({self.base!r}, factor={self.factor})"


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class ValidationIssue:
    check: str
    where: tuple
    residual: float

    def __str__(self):
        return f"{self.check} at {self.where}: residual {self.residual:.3e}"


@dataclass
class ValidationReport:
    issues: list

    @property
    def ok(self) -> bool:
        return not self.issues

    def to_json(self):
        return {
            "ok": self.ok,
            "issues": [
                {"check": i.check, "where": list(i.where), "residual": i.residual}
                for i in self.issues
            ],
        }


def validate_modulus(m: Modulus, grid, rel_tol: float = 1e-9) -> ValidationReport:
    """Audit a modulus on a grid of nonnegative evaluation points.

    Checks, for every grid point t (and every ordered grid pair):

    * omega(0) = 0, omega non-decreasing, chord slopes non-increasing;
    * omega(lambda t) <= lambda omega(t) for lambda >= 1  (equivalently
      t / omega(t) non-decreasing);
    * (t/2) omega(t) <= phi(t) <= t omega(t/2);
    * for coercive m:  t omega_inv(t/2) <= phi_star(t) <= (t/2) omega_inv(t),
      and the conjugacy identity phi(t) + phi_star(omega(t)) = t omega(t).

    Returns a report whose ``issues`` list is empty iff every check passed
    within ``rel_tol`` relative slack.
    """
    grid = np.unique(_check_nonneg(grid, "grid"))
    if grid.size == 0:
        raise ValueError("grid must be non-empty")
    issues = []

    def flag(where, *checks):
        """Record each failed (name, mask, residual) check, row of where by row."""
        bad = np.column_stack([mask for _, mask, _ in checks])
        for i, k in zip(*np.nonzero(bad)):
            name, _, residual = checks[k]
            issues.append(ValidationIssue(name, tuple(where[i].tolist()), float(residual[i])))

    w0 = m.omega(0.0)
    if abs(w0) > rel_tol:
        issues.append(ValidationIssue("omega(0)=0", (0.0,), float(w0)))

    w = m.omega(grid)
    tol = rel_tol * (1.0 + float(np.max(w)))
    flag(np.column_stack([grid[:-1], grid[1:]]), ("monotone", w[1:] < w[:-1] - tol, w[:-1] - w[1:]))

    pos = grid > 0
    gp, wp = grid[pos], w[pos]
    # each interior point must sit on or above the chord of its neighbours
    t, v = np.concatenate([[0.0], gp]), np.concatenate([[0.0], wp])
    chord = v[:-2] + (v[2:] - v[:-2]) * (t[1:-1] - t[:-2]) / (t[2:] - t[:-2])
    flag(np.column_stack([t[:-2], t[1:-1], t[2:]]), ("concave", v[1:-1] < chord - tol, chord - v[1:-1]))

    # omega(lambda t) <= lambda omega(t): all ordered pairs t_i <= t_j
    i, j = np.triu_indices(len(gp), k=1)
    lhs, rhs = wp[j] * gp[i], gp[j] * wp[i]
    flag(np.column_stack([gp[i], gp[j]]),
         ("subhomogeneous", lhs > rhs + tol * gp[j], (lhs - rhs) / gp[j]))

    at = grid[:, None]
    phi = m.phi(grid)
    lo, hi = 0.5 * grid * w, grid * m.omega(grid / 2.0)
    slack = tol * (1 + grid)
    flag(at, ("phi_lower", phi < lo - slack, lo - phi), ("phi_upper", phi > hi + slack, phi - hi))

    if m.coercive:
        star = m.phi_star(grid)
        lo, hi = grid * m.omega_inv(grid / 2.0), 0.5 * grid * m.omega_inv(grid)
        slack = rel_tol * (1.0 + float(np.max(np.abs(star))))
        flag(at, ("phi_star_lower", star < lo - slack, lo - star),
             ("phi_star_upper", star > hi + slack, star - hi))
        eq = phi + m.phi_star(w) - grid * w
        flag(at, ("conjugacy_equality", np.abs(eq) > 1e-8 * (1.0 + np.abs(grid * w)), eq))

    return ValidationReport(issues)


# ---------------------------------------------------------------------------
# (de)serialization


def modulus_from_json(obj) -> Modulus:
    """Build a modulus from its JSON form.

    Accepted shapes: {"type": "holder", "alpha": a}, {"type": "linear"},
    {"type": "table", "knots": [[t, w], ...]}; an optional "scale" key wraps
    the result in a positive scaling.
    """
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValueError("modulus JSON must be an object with a 'type' key")
    kind = obj["type"]
    need = {"holder": "alpha", "table": "knots"}.get(kind)
    if need is not None and need not in obj:
        raise ValueError(f"modulus JSON of type {kind!r} is missing {need!r}")
    for key in ("alpha", "scale"):      # JSON numbers only: no null, bool, string or list
        if key in obj and (isinstance(obj[key], bool) or not isinstance(obj[key], Real)):
            raise ValueError(f"modulus JSON field {key!r} must be a number, got {obj[key]!r}")
    if kind == "holder":
        m = HolderModulus(obj["alpha"])
    elif kind == "linear":
        m = LinearModulus()
    elif kind == "table":
        m = TableModulus(obj["knots"])
    else:
        raise ValueError(f"unknown modulus type {kind!r}")
    if "scale" in obj:
        m = ScaledModulus(m, obj["scale"])
    return m


def modulus_to_json(m: Modulus):
    if isinstance(m, ScaledModulus):
        inner = modulus_to_json(m.base)
        inner["scale"] = m.factor * inner.get("scale", 1.0)
        return inner
    if isinstance(m, LinearModulus):       # before HolderModulus, its base
        return {"type": "linear"}
    if isinstance(m, HolderModulus):
        return {"type": "holder", "alpha": m.alpha}
    if isinstance(m, TableModulus):
        return {"type": "table", "knots": m.knots.tolist()}
    raise TypeError(f"cannot serialize modulus {m!r}")


def parse_modulus_spec(spec: str) -> Modulus:
    """Parse a CLI-style modulus spec: 'holder:0.5', 'linear' or 'table:FILE'."""
    if spec == "linear":
        return LinearModulus()
    if spec.startswith("holder:"):
        return HolderModulus(float(spec.split(":", 1)[1]))
    if spec.startswith("table:"):
        path = spec.split(":", 1)[1]
        with open(path) as fh:
            return modulus_from_json(json.load(fh))
    raise ValueError(f"unrecognized modulus spec {spec!r}")
