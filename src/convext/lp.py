"""Dense two-phase simplex for tiny equality-constrained LPs.

The only shape needed here is the convex-combination program

    min  sum_j lambda_j v_j
    s.t. sum_j lambda_j p_j = x,   sum_j lambda_j = 1,   lambda >= 0,

i.e. d + 1 equality rows over N grid columns.  Instances are small in the
row dimension, so a plain dense tableau with Dantzig pricing is fast; a
switch to Bland's rule after a stall guarantees termination on the (very
degenerate) regular grids this is used on.

Above 600 columns, ``convex_combination_min`` runs delayed column generation
from a seed set of the k grid nodes nearest x, ties broken by index as in a
stable sort.  The seed set is found by partial selection (``np.partition``),
not by sorting every node.
"""

from __future__ import annotations

import numpy as np

__all__ = ["simplex_min", "convex_combination_min"]


class SimplexError(RuntimeError):
    pass


def _pivot(T, basis, row, col):
    T[row] /= T[row, col]
    colvals = T[:, col].copy()
    colvals[row] = 0.0
    T -= colvals[:, None] * T[row]
    basis[row] = col


def _solve_phase(T, basis, cost, tol, max_iter):
    """Minimize cost over the canonical tableau T = [A | b]; in place."""
    m, ncols = T.shape
    n = ncols - 1
    stall = 0
    best_obj = np.inf
    bland = False
    # one errstate per phase, not per pivot: on tableaux this small it
    # costs about as much as the pivot itself
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(max_iter):
            y = cost[basis]
            reduced = cost[:n] - y @ T[:, :n]
            if bland:
                negs = np.flatnonzero(reduced < -tol)
                if negs.size == 0:
                    return
                col = int(negs[0])
            else:
                col = int(reduced.argmin())
                if reduced[col] >= -tol:
                    return
            colvec = T[:, col]
            ratios = np.where(colvec > tol, T[:, n] / colvec, np.inf)
            rmin = ratios.min()
            if rmin == np.inf:      # no NaN here: the tableau stays finite
                raise SimplexError("unbounded subproblem")
            # tie-break on the smallest basis index (Bland-compatible)
            cand = np.flatnonzero(ratios <= rmin + tol * (1.0 + abs(rmin)))
            row = int(cand[basis[cand].argmin()])
            _pivot(T, basis, row, col)
            obj = float(cost[basis] @ T[:, n])
            if obj < best_obj - tol:
                best_obj = obj
                stall = 0
            else:
                stall += 1
                if stall > 50:
                    bland = True
    raise SimplexError("simplex did not converge")


def _solve_standard(A, b, c, tol=1e-9, max_iter=20000):
    """Two-phase simplex on min c.x, A x = b, x >= 0.

    Returns (x, objective, basis, n_dropped_rows).
    """
    m, n = A.shape
    sign = np.where(b < 0, -1.0, 1.0)
    T = np.empty((m, n + m + 1))
    T[:, :n] = A * sign[:, None]
    T[:, n:n + m] = np.eye(m)
    T[:, -1] = b * sign

    basis = np.arange(n, n + m)
    phase1_cost = np.concatenate([np.zeros(n), np.ones(m)])
    _solve_phase(T, basis, phase1_cost, tol, max_iter)
    if float(phase1_cost[basis] @ T[:, -1]) > 1e-7:
        raise SimplexError("infeasible constraints")

    # drive surviving artificial variables out of the basis; rows that
    # cannot be pivoted are redundant and get dropped with their artificials
    redundant = []
    for row in range(m):
        if basis[row] >= n:
            pivots = np.flatnonzero(np.abs(T[row, :n]) > tol)
            if pivots.size:
                _pivot(T, basis, row, int(pivots[0]))
            else:
                redundant.append(row)
    if redundant:
        T = np.delete(T, redundant, axis=0)
        basis = np.delete(basis, redundant)

    T = np.hstack([T[:, :n], T[:, -1:]])
    _solve_phase(T, basis, c, tol, max_iter)

    x = np.zeros(n)
    x[basis] = T[:, -1]
    return x, float(c @ x), basis, len(redundant)


def simplex_min(A, b, c, tol=1e-9, max_iter=20000):
    """Solve min c.x s.t. A x = b, x >= 0 for dense A (m rows, n cols).

    Returns (x, objective).  Raises SimplexError when infeasible.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).copy()
    c = np.asarray(c, dtype=float)
    x, obj, _, _ = _solve_standard(A, b, c, tol=tol, max_iter=max_iter)
    return x, obj


def _nearest(d2, k):
    """Sorted indices of the k smallest entries of d2, ties broken by index.

    The same set as ``np.unique(np.argsort(d2, kind="stable")[:k])``, found
    by partial selection: everything below the k-th smallest value, plus the
    lowest-indexed entries equal to it.
    """
    if k >= d2.size:
        return np.arange(d2.size)
    kth = np.partition(d2, k - 1)[k - 1]
    less = np.flatnonzero(d2 < kth)
    ties = np.flatnonzero(d2 == kth)[:k - less.size]
    return np.union1d(less, ties)


def _grid_constants(points, values, tol=1e-9):
    """What every query on one grid shares: the constraint matrix
    [points.T; 1] and the pricing threshold tol (1 + max|values|)."""
    A = np.vstack([points.T, np.ones(len(points))])
    return A, tol * (1.0 + float(np.max(np.abs(values))))


def convex_combination_min(points, values, x, tol=1e-9, *, constants=None):
    """min sum lambda_j values_j over convex combinations of points hitting x.

    ``points`` is (N, d), ``x`` is (d,).  Returns (lambda, objective); the
    optimum uses at most d + 1 points with positive weight.  Callers that
    query one grid many times pass ``constants=_grid_constants(points,
    values, tol)``, built once, instead of having it rebuilt per query.

    Large column counts are handled by delayed column generation: solve on a
    working set seeded with the k nodes nearest x (ties broken by index,
    found by partial selection; k doubles until x lies in their hull), price
    every column against the restricted duals (one mat-vec), pull in the
    most violated columns, and repeat until no column prices out.  This is
    exact on termination.
    """
    points = np.asarray(points, dtype=float)
    values = np.asarray(values, dtype=float)
    x = np.asarray(x, dtype=float).reshape(-1)
    N, d = points.shape
    A, scale = _grid_constants(points, values, tol) if constants is None else constants
    b = np.concatenate([x, [1.0]])

    if N <= 600:
        lam, obj = simplex_min(A, b, values, tol=tol)
        return lam, obj

    d2 = np.sum((points - x) ** 2, axis=1)
    k = max(32, 3 ** d)
    while True:
        working = _nearest(d2, k)
        try:
            sol, obj, basis, dropped = _solve_standard(A[:, working], b, values[working], tol=tol)
            if dropped == 0:
                break
        except SimplexError:
            pass
        if k >= N:              # the full column set failed too
            raise SimplexError("could not seed a feasible working set")
        k = min(N, 2 * k)       # x not yet inside the working set's hull

    for _ in range(500):
        y = np.linalg.solve(A[:, working[basis]].T, values[working[basis]])
        reduced = values - A.T @ y
        candidates = np.argpartition(reduced, 5)[:5]
        candidates = candidates[reduced[candidates] < -scale]
        if candidates.size == 0:
            lam = np.zeros(N)
            lam[working] = sol
            return lam, obj
        working = np.unique(np.concatenate([working, candidates]))
        sol, obj, basis, dropped = _solve_standard(A[:, working], b, values[working], tol=tol)
        if dropped:
            raise SimplexError("working set lost rank during column generation")
    raise SimplexError("column generation did not converge")
