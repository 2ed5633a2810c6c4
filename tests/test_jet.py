import numpy as np
import pytest

from convext import jet as jet_module
from convext.jet import (
    InfeasibleJetError,
    Jet,
    _KEEP,
    _buckets,
    _verdict,
    _pair_constants,
    _pair_ratios,
    _pareto_pairs,
    check_condition_C,
    check_condition_CW1,
    compute_A,
    feasibility_report,
    lip_omega_gradients,
    pair_defects,
    seminorm_A_extrinsic,
    seminorm_A_intrinsic,
    sup_norm_gradients,
)
from convext.fixtures import power_three_halves_grid_jet, two_point_power_jet
from convext.modulus import (
    HolderModulus,
    LinearModulus,
    NonCoerciveModulusError,
    ScaledModulus,
    TableModulus,
)

from conftest import random_concave_table, random_feasible_jet, random_modulus

HALFSQ = Jet([[0.0], [1.0]], [0.0, 0.5], [[0.0], [1.0]])


class TestJetType:
    def test_shapes_and_immutability(self):
        jet = HALFSQ
        assert jet.dimension == 1 and jet.size == 2
        with pytest.raises(ValueError):
            jet.points[0, 0] = 3.0

    def test_coincident_points_rejected(self):
        with pytest.raises(ValueError, match="points 0 and 2 coincide"):
            Jet([[0.0, 1.0], [1e-13, 1.0], [0.0, 1.0]], [0.0, 0.0, 0.0], [[0.0, 0.0]] * 3)

    @pytest.mark.parametrize("scale", [1e-12, 1e-13])
    def test_close_points_load_and_keep_their_constant(self, scale):
        # x^2 / 2 has A = 1 for the linear modulus at every scale
        x = np.array([0.0, 1.0, 3.0]) * scale
        jet = Jet(x[:, None], x ** 2 / 2.0, x[:, None])
        assert compute_A(jet, LinearModulus()) == pytest.approx(1.0, rel=1e-12)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            Jet([[0.0], [1.0]], [0.0], [[0.0], [1.0]])

    def test_json_round_trip(self):
        jet = two_point_power_jet(0.5)
        again = Jet.from_json(jet.to_json())
        assert np.array_equal(jet.points, again.points)
        assert np.array_equal(jet.values, again.values)
        assert np.array_equal(jet.gradients, again.gradients)

    def test_empty_jet_rejected(self):
        with pytest.raises(ValueError):
            Jet.from_json({"dimension": 1, "points": [], "values": [], "gradients": []})


class TestConditions:
    def test_condition_C_convex_restriction(self):
        assert check_condition_C(HALFSQ).ok

    def test_condition_C_violated(self):
        jet = Jet([[0.0], [1.0]], [0.0, -1.0], [[0.0], [0.0]])
        rep = check_condition_C(jet)
        assert not rep.ok
        assert (1, 0) in [(i, j) for i, j, _ in rep.violations]

    def test_condition_C_two_point_power(self):
        assert check_condition_C(two_point_power_jet(0.5)).ok

    def test_condition_CW1_clean(self):
        assert check_condition_CW1(HALFSQ).ok

    def test_condition_CW1_flat_values_unequal_slopes(self):
        jet = Jet([[0.0], [1.0]], [0.0, 0.0], [[0.0], [1.0]])
        rep = check_condition_CW1(jet, tol=1e-9)
        assert not rep.ok

    def test_condition_CW1_constant_jet(self):
        jet = Jet([[0.0], [1.0]], [0.0, 0.0], [[0.0], [0.0]])
        assert check_condition_CW1(jet).ok

    def test_A_is_finite_exactly_when_both_conditions_hold(self):
        """Planted pairs at C in {0, +-slack/2, +-2 slack} and S in {0, 1e-12, 1}."""
        rng = np.random.default_rng(88)
        tol = 1e-9
        for trial in range(60):
            d = 1 + trial % 3
            base = random_feasible_jet(rng, d, int(rng.integers(2, 6)))
            y, f_y, G_y = base.points[0], base.values[0], base.gradients[0]
            u = rng.normal(size=d)
            u /= np.linalg.norm(u)
            p = y + 0.5 * u
            f_p = f_y + G_y @ (p - y)
            slack = tol * (1.0 + abs(f_y) + abs(f_p))
            c = slack * rng.choice([0.0, 0.5, -0.5, 2.0, -2.0])
            gap = rng.choice([0.0, 1e-12, 1.0])
            jet = Jet(np.vstack([base.points, p]), np.append(base.values, f_p + c),
                      np.vstack([base.gradients, G_y + gap * u]))
            cond_c, cond_cw1 = check_condition_C(jet, tol), check_condition_CW1(jet, tol)
            planted = (jet.size - 1, 0)
            in_c = planted in [(i, j) for i, j, _ in cond_c.violations]
            in_cw1 = planted in [(i, j) for i, j, _ in cond_cw1.violations]
            if c != 0.0:
                assert in_c == (c < -slack)
                assert in_cw1 == (-slack < c < 0.0 and gap > 0.0)
            feasible = cond_c.ok and cond_cw1.ok
            m = HolderModulus(float(rng.uniform(0.3, 1.0))) if trial % 2 else LinearModulus()
            A_int, per_pair = seminorm_A_intrinsic(jet, m, tol)
            assert np.isfinite(A_int) == feasible
            assert np.isfinite(seminorm_A_extrinsic(jet, m, tol)) == feasible
            assert np.isfinite(compute_A(jet, m, tol)) == feasible
            assert feasibility_report(jet, m, tol).feasible == feasible
            if not feasible:
                failed = cond_c if not cond_c.ok else cond_cw1
                assert [pair for pair, _ in per_pair] == [(i, j) for i, j, _ in failed.violations]


class TestSeminormA:
    def test_two_point_power_closed_form(self):
        for alpha in (0.25, 0.5, 0.75, 1.0):
            jet = two_point_power_jet(alpha)
            A, per_pair = seminorm_A_intrinsic(jet, HolderModulus(alpha))
            assert A == pytest.approx(2.0 / (1.0 + 1.0 / alpha) ** alpha, abs=1e-12)
            assert len(per_pair) == 2
            # the two symmetric pairs tie exactly in (c, s): both stay on the front
            i, j, c, s = _pareto_pairs(*pair_defects(jet)[:2], _buckets(jet))
            assert sorted(zip(i.tolist(), j.tolist())) == [(0, 1), (1, 0)]
            assert c[0] == c[1] and s[0] == s[1]

    def test_halfsq_linear(self):
        A, _ = seminorm_A_intrinsic(HALFSQ, LinearModulus())
        assert A == pytest.approx(1.0, abs=1e-12)
        assert seminorm_A_extrinsic(HALFSQ, LinearModulus()) == pytest.approx(1.0, abs=1e-8)

    def test_extrinsic_single_point_is_zero(self):
        jet = Jet([[0.0]], [0.0], [[0.0]])
        assert seminorm_A_extrinsic(jet, LinearModulus()) == 0.0

    def test_extrinsic_matches_intrinsic_on_example(self):
        jet = two_point_power_jet(0.5)
        a_int, _ = seminorm_A_intrinsic(jet, HolderModulus(0.5))
        a_ext = seminorm_A_extrinsic(jet, HolderModulus(0.5))
        assert a_ext == pytest.approx(a_int, abs=1e-6)

    def test_intrinsic_requires_coercive(self):
        flat = TableModulus([[0, 0], [1, 1], [2, 1]])
        with pytest.raises(NonCoerciveModulusError):
            seminorm_A_intrinsic(HALFSQ, flat)
        # the extrinsic route still works, using the bounded tail candidate
        assert np.isfinite(seminorm_A_extrinsic(HALFSQ, flat))

    def test_infeasible_returns_inf(self):
        jet = Jet([[0.0], [1.0]], [0.0, -1.0], [[0.0], [0.0]])
        A, per_pair = seminorm_A_intrinsic(jet, LinearModulus())
        assert A == np.inf
        assert seminorm_A_extrinsic(jet, LinearModulus()) == np.inf

    def test_tangent_pair_with_gradient_gap_is_inf(self):
        jet = Jet([[0.0], [1.0]], [0.0, 0.0], [[0.0], [1.0]])
        A, _ = seminorm_A_intrinsic(jet, LinearModulus())
        assert A == np.inf

    def test_equivalence_random_jets(self):
        """Intrinsic and extrinsic routes agree for increasing unbounded moduli."""
        rng = np.random.default_rng(42)
        for _ in range(40):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(2, 9))
            jet = random_feasible_jet(rng, d, n)
            m = random_modulus(rng)
            a_int, _ = seminorm_A_intrinsic(jet, m)
            a_ext = seminorm_A_extrinsic(jet, m)
            assert abs(a_int - a_ext) <= 1e-5 * (1.0 + a_int)

    def test_restriction_monotonicity(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            jet = random_feasible_jet(rng, 2, 6)
            m = random_modulus(rng)
            sub = jet.subset([0, 2, 4])
            A_full = compute_A(jet, m)
            A_sub = compute_A(sub, m)
            assert A_sub <= A_full + 1e-9
            assert lip_omega_gradients(sub, m) <= lip_omega_gradients(jet, m) + 1e-9

    def test_scaling_covariance(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            jet = random_feasible_jet(rng, 1, 5)
            m = HolderModulus(rng.uniform(0.3, 1.0))
            lam = rng.uniform(0.1, 10.0)
            A1, _ = seminorm_A_intrinsic(jet, m)
            A2, _ = seminorm_A_intrinsic(jet.scaled(lam), m)
            assert A2 == pytest.approx(lam * A1, rel=1e-12)
            assert lip_omega_gradients(jet.scaled(lam), m) == pytest.approx(
                lam * lip_omega_gradients(jet, m), rel=1e-12
            )

    def test_exact_at_every_scale(self):
        """t^2/2 on {0, eps}: both routes exact far from unit scale, where a
        bracketed search for the pair constant would leave its bracket."""
        bounded = TableModulus([[0, 0], [1, 1], [2, 1]])
        for eps in (1e-10, 1e-9, 1.0, 1e9, 1e10):
            jet = Jet([[0.0], [eps]], [0.0, eps * eps / 2.0], [[0.0], [eps]])
            cases = [(LinearModulus(), 1.0)] + [
                (HolderModulus(a), (2.0 * a / (1.0 + a)) ** a * eps ** (1.0 - a))
                for a in (0.3, 0.5, 0.75)
            ]
            for m, expected in cases:
                assert seminorm_A_intrinsic(jet, m)[0] == pytest.approx(expected, rel=1e-12, abs=0.0)
                assert seminorm_A_extrinsic(jet, m) == pytest.approx(expected, rel=1e-12, abs=0.0)
            if eps <= 1.0 or eps >= 1e9:
                expected = 1.0 if eps <= 1.0 else eps
                assert seminorm_A_extrinsic(jet, bounded) == pytest.approx(expected, rel=1e-12, abs=0.0)
            for m in (TableModulus([[0, 0], [1, 1], [3, 2]]),
                      ScaledModulus(TableModulus([[0, 0], [0.5, 1], [2, 1.5]]), 3.0)):
                a_int, _ = seminorm_A_intrinsic(jet, m)
                assert seminorm_A_extrinsic(jet, m) == pytest.approx(a_int, rel=1e-12, abs=0.0)

    def test_alignment_reduction_vs_witness_sampling(self):
        """The 1-D reduction dominates and matches brute-force witness grids."""
        rng = np.random.default_rng(15)
        m = LinearModulus()
        for _ in range(5):
            jet = random_feasible_jet(rng, 2, 4)
            A_ext = seminorm_A_extrinsic(jet, m)
            C, S, _ = pair_defects(jet)
            best = 0.0
            lim = 4.0
            grid = np.linspace(-lim, lim, 41)
            X = np.column_stack([g.ravel() for g in np.meshgrid(grid, grid)])
            P, f, G = jet.points, jet.values, jet.gradients
            for i in range(jet.size):
                for j in range(jet.size):
                    planes_z = f[j] + (X - P[j]) @ G[j]
                    planes_y = f[i] + (X - P[i]) @ G[i]
                    dist = np.sqrt(np.sum((X - P[i]) ** 2, axis=1))
                    ok = dist > 1e-9
                    ratio = (planes_z[ok] - planes_y[ok]) / m.phi(dist[ok])
                    best = max(best, float(np.max(ratio)))
            assert best <= A_ext + 1e-9
            assert best >= 0.5 * A_ext  # the coarse grid gets within a factor


def _all_pairs(jet):
    """(c, s) of every ordered pair with s > 0, c = max(C, 0)."""
    C, S, _ = pair_defects(jet)
    i, j = np.nonzero(S > 0.0)
    return i, j, np.maximum(C[i, j], 0.0), S[i, j]



def _reference_front(C, S):
    """``_pareto_pairs`` by one lexsort of every pair with s > 0 (no prefilter)."""
    i, j = np.nonzero(S > 0.0)
    c, s = np.maximum(C[i, j], 0.0), S[i, j]
    order = np.lexsort((c, -s))
    cs, ss = c[order], s[order]
    n = len(order)
    head = np.ones(n, dtype=bool)
    head[1:] = (cs[1:] != cs[:-1]) | (ss[1:] != ss[:-1])
    lower = np.ones(n, dtype=bool)
    lower[1:] = cs[1:] < np.minimum.accumulate(cs)[:-1]
    start = np.maximum.accumulate(np.where(head, np.arange(n), 0))
    keep = np.sort(order[lower[start]])
    return i[keep], j[keep], c[keep], s[keep]


def _parity_jets():
    """Random, tie-heavy, skewed, equal-gap, constant-gradient and one-point jets."""
    rng = np.random.default_rng(24)
    for n in (2, 3, 7, 40, 150, 400):
        for d in (1, 2, 3):
            yield random_feasible_jet(rng, d, n)
    grid = np.stack(np.meshgrid(np.arange(-6, 7), np.arange(-6, 7)), axis=-1).reshape(-1, 2) / 4.0
    yield Jet(grid, 0.5 * np.sum(grid * grid, axis=1), grid)          # quadratic: exact ties
    x = np.append(rng.uniform(-1.0, 1.0, 200), 1000.0)
    yield Jet(x, 0.5 * x * x, x)          # the outlier's gap puts every other pair in bucket 0
    x = np.concatenate([-rng.uniform(0.1, 1.0, 30), rng.uniform(0.1, 1.0, 30)])
    yield Jet(x, np.abs(x), np.sign(x))   # every positive gap equals 2
    yield Jet([[0.0], [1.0], [2.0]], [0.0, 3.0, 6.0], [[3.0], [3.0], [3.0]])
    yield Jet([[0.5, -0.5]], [1.0], [[2.0, 0.0]])

def _kernel_moduli(rng):
    """Hoelder, linear, coercive-table, bounded-table and scaled moduli."""
    return [
        HolderModulus(float(rng.uniform(0.3, 1.0))),
        LinearModulus(),
        random_concave_table(rng),
        random_concave_table(rng, coercive=False),
        ScaledModulus(HolderModulus(float(rng.uniform(0.3, 1.0))), float(rng.uniform(0.25, 4.0))),
        ScaledModulus(random_concave_table(rng), float(rng.uniform(0.25, 4.0))),
    ]


class TestPairKernel:
    def test_front_is_the_non_dominated_set(self):
        """Brute-force domination check over all pairs of pairs."""
        rng = np.random.default_rng(21)
        for _ in range(30):
            jet = random_feasible_jet(rng, int(rng.integers(1, 4)), int(rng.integers(2, 12)))
            i, j, c, s = _all_pairs(jet)
            dominated = np.array([
                np.any((s >= sk) & (c <= ck) & ((s > sk) | (c < ck))) for ck, sk in zip(c, s)
            ], dtype=bool)
            fi, fj, fc, fs = _pareto_pairs(*pair_defects(jet)[:2], _buckets(jet))
            assert list(zip(fi.tolist(), fj.tolist())) == list(
                zip(i[~dominated].tolist(), j[~dominated].tolist())
            )
            assert np.array_equal(fc, c[~dominated]) and np.array_equal(fs, s[~dominated])

    def test_prefilter_keeps_the_reference_front(self, monkeypatch):
        """Same pairs, values and order as one lexsort over every pair, in
        one call and in the verdict's row blocks of 64 // n rows (one row
        where n > 32), which share their bucket minima."""
        monkeypatch.setattr(jet_module, "_BUDGET", 64)
        for jet in _parity_jets():
            C, S, _ = pair_defects(jet)
            reference = _reference_front(C, S)
            verdict = _verdict(jet, 1e-9)
            assert verdict.condition_C.ok
            for front in (_pareto_pairs(C, S, _buckets(jet)), verdict.front):
                for got, want in zip(front, reference):
                    assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_constant_gradients_give_an_empty_front(self):
        jet = Jet([[0.0], [1.0], [2.0]], [0.0, 3.0, 6.0], [[3.0], [3.0], [3.0]])
        i, j, c, s = _pareto_pairs(*pair_defects(jet)[:2], _buckets(jet))
        assert len(i) == len(j) == len(c) == len(s) == 0
        assert seminorm_A_intrinsic(jet, LinearModulus()) == (0.0, [])
        assert seminorm_A_extrinsic(jet, LinearModulus()) == 0.0

    def test_front_A_matches_full_pair_reference(self):
        """The front-based A equals the maximum over every ordered pair:
        exactly on the intrinsic route, to 1e-12 relative on the extrinsic one."""
        rng = np.random.default_rng(22)
        for _ in range(12):
            jet = random_feasible_jet(rng, int(rng.integers(1, 4)), int(rng.integers(2, 25)))
            _, _, c, s = _all_pairs(jet)
            for m in _kernel_moduli(rng):
                ext_ref = float(np.max(_pair_ratios(c, s, m)))
                assert seminorm_A_extrinsic(jet, m) == pytest.approx(ext_ref, rel=1e-12, abs=0.0)
                if m.coercive:
                    A, _ = seminorm_A_intrinsic(jet, m)
                    assert A == float(np.max(_pair_constants(c, s, m)))

    def test_per_pair_maximum_is_A_on_the_front(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            jet = random_feasible_jet(rng, int(rng.integers(1, 4)), int(rng.integers(2, 25)))
            m = random_modulus(rng, kinds=("holder", "linear", "table", "scaled"))
            A, per_pair = seminorm_A_intrinsic(jet, m)
            (y, z), top = max(per_pair, key=lambda p: p[1])
            assert top == A
            fi, fj, _, _ = _pareto_pairs(*pair_defects(jet)[:2], _buckets(jet))
            front = list(zip(fi.tolist(), fj.tolist()))
            assert (y, z) in front
            assert [p for p, _ in per_pair] == sorted(p for p, _ in per_pair)
            assert set(p for p, _ in per_pair) <= set(front)


class TestOtherSeminorms:
    def test_lip_two_point_power(self):
        for alpha in (0.25, 0.5, 1.0):
            jet = two_point_power_jet(alpha)
            assert lip_omega_gradients(jet, HolderModulus(alpha)) == pytest.approx(
                2.0 ** (1.0 - alpha), abs=1e-12
            )

    def test_lip_constant_gradient(self):
        jet = Jet([[0.0], [1.0]], [0.0, 3.0], [[3.0], [3.0]])
        assert lip_omega_gradients(jet, LinearModulus()) == 0.0

    def test_lip_halfsq(self):
        assert lip_omega_gradients(HALFSQ, LinearModulus()) == pytest.approx(1.0)

    def test_sup_norm(self):
        assert sup_norm_gradients(two_point_power_jet(0.5)) == 1.0
        assert sup_norm_gradients(Jet([[0.0]], [0.0], [[0.0]])) == 0.0
        assert sup_norm_gradients(Jet([[0.0, 0.0]], [0.0], [[3.0, 4.0]])) == pytest.approx(5.0)


class TestSeminormRelation:
    def test_sharp_ratio_two_point_power(self):
        for alpha in (0.5, 1.0):
            jet = two_point_power_jet(alpha)
            rep = feasibility_report(jet, HolderModulus(alpha)).relation
            expected = ((1.0 + alpha) / (2.0 * alpha)) ** alpha
            assert rep["ratio"] == pytest.approx(expected, abs=1e-12)
            assert rep["general_ok"] and rep["holder_ok"]

    def test_halfsq(self):
        rep = feasibility_report(HALFSQ, LinearModulus()).relation
        assert rep["lip_omega_G"] == pytest.approx(1.0)
        assert rep["general_bound"] == pytest.approx(4.0 / 3.0)
        assert rep["general_ok"]

    def test_not_applicable_when_infeasible(self):
        jet = Jet([[0.0], [1.0]], [0.0, 0.0], [[0.0], [1.0]])
        rep = feasibility_report(jet, LinearModulus()).relation
        assert not rep["applicable"]

    def test_bound_holds_over_random_suite(self):
        """The 4/3 bound (and the power-modulus sharpening) never fails."""
        rng = np.random.default_rng(77)
        for _ in range(1000):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(2, 7))
            jet = random_feasible_jet(rng, d, n)
            m = random_modulus(rng, kinds=("holder", "linear"))
            rep = feasibility_report(jet, m).relation
            assert rep["applicable"]
            assert rep["general_ok"], rep
            assert rep["holder_ok"], rep


class TestDenseGridGap:
    def test_power_three_halves_seminorms(self):
        jet = power_three_halves_grid_jet(n=401, radius=2.0)
        m = HolderModulus(0.5)
        lip = lip_omega_gradients(jet, m)
        assert lip == pytest.approx(np.sqrt(2.0), abs=1e-12)
        A, _ = seminorm_A_intrinsic(jet, m)
        assert np.sqrt(4.0 / 3.0) - 1e-3 <= A <= 1.3066 + 1e-3


class TestFeasibilityReport:
    def test_bundle_consistency(self):
        jet = two_point_power_jet(0.5)
        rep = feasibility_report(jet, HolderModulus(0.5))
        assert rep.feasible
        assert rep.A == pytest.approx(max(M for _, M in rep.per_pair_M))
        assert rep.lip_omega_G <= (4.0 / 3.0) * rep.A + 1e-12
        payload = rep.to_json()
        assert payload["feasible"] is True
        assert payload["A_route"] == "intrinsic"

    def test_bounded_modulus_goes_extrinsic(self):
        flat = TableModulus([[0, 0], [1, 1], [2, 1]])
        rep = feasibility_report(HALFSQ, flat)
        assert rep.A_route == "extrinsic"
        assert np.isfinite(rep.A)


def _concave_jet(n=12):
    t = np.linspace(-1.0, 1.0, n)
    return Jet(t, -t ** 2 / 2.0, -t)


def _cw1_jet():
    """f = 0: each pair (y, z) with G(z) = 0 != G(y) is tangent with a gradient
    gap (36 (CW1) violations, tied in pairs), and 15 pairs fail (C)."""
    g = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0])
    return Jet(np.linspace(0.0, 1.0, 12), np.zeros(12), g)


def _full_violations(jet, tol=1e-9):
    """Every (C) and (CW1) violation (i, j, residual), in row-major order, from ``pair_defects``."""
    C, S, _ = pair_defects(jet)
    f = jet.values
    below = C < -tol * (1.0 + np.abs(f[:, None]) + np.abs(f[None, :]))
    np.fill_diagonal(below, False)
    tangent = (C <= 0.0) & (S > 0.0) & ~below
    return ([(i, j, C[i, j]) for i, j in zip(*np.nonzero(below))],
            [(i, j, S[i, j]) for i, j in zip(*np.nonzero(tangent))])


class TestBoundedReports:
    """Reports keep the _KEEP worst violations and largest pair constants, and count all."""

    def test_conditions_keep_the_worst_and_count_all(self):
        worst_C = lambda v: (v[2], v[0], v[1])          # most negative C, then row-major
        worst_CW1 = lambda v: (-v[2], v[0], v[1])       # largest S, then row-major
        for jet, check, which, worst in ((_concave_jet(), check_condition_C, 0, worst_C),
                                         (_cw1_jet(), check_condition_C, 0, worst_C),
                                         (_cw1_jet(), check_condition_CW1, 1, worst_CW1)):
            full = _full_violations(jet)[which]
            report = check(jet)
            assert len(full) > _KEEP
            assert report.count == len(full) and not report.ok
            assert report.violations == sorted(sorted(full, key=worst)[:_KEEP])

    def test_per_pair_M_is_the_largest_of_the_full_list(self):
        t = np.linspace(-1.0, 1.0, 15)
        jet = Jet(t, t ** 2 / 2.0, t)       # quadratic: every pair with s > 0 is on the front
        for m in (LinearModulus(), HolderModulus(0.5)):
            A, full = seminorm_A_intrinsic(jet, m)
            rep = feasibility_report(jet, m)
            assert len(full) > _KEEP
            assert rep.per_pair_M == sorted(full, key=lambda p: (-p[1], p[0]))[:_KEEP]
            assert rep.per_pair_M_count == len(full)
            assert rep.per_pair_M[0][1] == A and rep.A_pair == rep.per_pair_M[0][0]
            assert rep.condition_C.count == rep.condition_CW1.count == 0

    def test_infeasible_per_pair_M_lists_the_failing_condition(self):
        jet = _concave_jet()
        rep = feasibility_report(jet, LinearModulus())
        assert rep.per_pair_M == [((i, j), np.inf) for i, j, _ in rep.condition_C.violations]
        assert rep.per_pair_M_count == rep.condition_C.count
        assert rep.A_pair is None
        payload = rep.to_json()
        assert payload["condition_C"]["count"] == rep.condition_C.count
        assert len(payload["condition_C"]["violations"]) == _KEEP

    def test_blocked_selection_matches_one_block(self, monkeypatch):
        for jet in (_concave_jet(), _cw1_jet()):
            whole = _verdict(jet, 1e-9)
            monkeypatch.setattr(jet_module, "_BUDGET", 24)    # blocks of two rows
            blocked = _verdict(jet, 1e-9)
            monkeypatch.undo()
            for a, b in ((whole.condition_C, blocked.condition_C),
                         (whole.condition_CW1, blocked.condition_CW1)):
                assert a.count == b.count
                assert np.array_equal(np.array(a.violations), np.array(b.violations))
            assert str(whole.error) == str(blocked.error)

    def test_error_text_names_the_first_pairs_and_counts_the_rest(self):
        # the text of a report that listed every violating pair, in row-major order
        for jet, text in (
            (_concave_jet(), "jet violates condition_C at pairs (0,1), (0,2), (0,3), (0,4), (0,5) and 127 more"),
            (_cw1_jet(), "jet violates condition_C at pairs (7,6), (8,6), (8,7), (9,6), (9,7) and 10 more"),
        ):
            assert str(_verdict(jet, 1e-9).error) == text
            assert str(InfeasibleJetError("condition_C", _full_violations(jet)[0])) == text

    def test_intrinsic_seminorm_keeps_every_violating_pair(self):
        jet = _concave_jet()
        A, per_pair = seminorm_A_intrinsic(jet, LinearModulus())
        assert A == np.inf
        assert per_pair == [((i, j), np.inf) for i, j, _ in _full_violations(jet)[0]]


class TestMaximizingPairs:
    def test_two_point_power_jet(self):
        # the two ordered pairs tie exactly; the first in (y, z) order is named
        for alpha in (0.5, 1.0):
            jet = two_point_power_jet(alpha)
            for m in (HolderModulus(alpha), TableModulus([[0, 0], [1, 1], [3, 1]])):
                rep = feasibility_report(jet, m)
                assert rep.A_route == ("intrinsic" if m.coercive else "extrinsic")
                assert rep.A_pair == (0, 1) and rep.lip_omega_G_pair == (0, 1)
                payload = rep.to_json()
                assert payload["A_pair"] == payload["lip_omega_G_pair"] == {"y": 0, "z": 1}

    def test_the_named_pairs_attain_the_maxima(self):
        t = np.array([0.0, 1.0, 3.0])
        jet = Jet(t, t ** 4 / 12.0, t ** 3 / 3.0)
        C, S, D = pair_defects(jet)
        for m in (LinearModulus(), HolderModulus(0.5), TableModulus([[0, 0], [1, 1], [3, 1]])):
            rep = feasibility_report(jet, m)
            i, j = np.nonzero(S > 0.0)
            c, s = np.maximum(C[i, j], 0.0), S[i, j]
            value = _pair_constants(c, s, m) if m.coercive else _pair_ratios(c, s, m)
            at = dict(zip(zip(i.tolist(), j.tolist()), value))
            assert rep.A == pytest.approx(value.max(), rel=1e-12)
            assert at[rep.A_pair] == pytest.approx(rep.A, rel=1e-12)
            if m.coercive:      # one ordered pair attains A (the bounded table ties (0, 2) and (2, 0))
                assert np.sum(value == value.max()) == 1
            lip = np.where(S > 0.0, S / np.where(D > 0.0, m.omega(D), 1.0), 0.0)
            y, z = np.unravel_index(np.argmax(lip), lip.shape)     # first in (y, z) order
            assert rep.lip_omega_G_pair == (y, z) and rep.lip_omega_G == lip.max()
            assert np.sum(lip == lip.max()) == 2        # the pair and its mirror

    def test_no_pair_where_the_constants_are_zero(self):
        jet = Jet([[0.0], [1.0]], [0.0, 3.0], [[3.0], [3.0]])
        rep = feasibility_report(jet, LinearModulus())
        assert rep.A == 0.0 and rep.A_pair is None and rep.lip_omega_G_pair is None
        assert rep.per_pair_M == [] and rep.per_pair_M_count == 0
