import math
import warnings

import numpy as np
import pytest

from convext import lp
from convext.envelope import (
    Generator,
    brute_force_envelope,
    build_envelope,
    minorant,
    write_samples_csv,
)
from convext.fixtures import single_parabola_jet, two_point_power_jet
from convext.jet import Jet, seminorm_A_intrinsic, sup_norm_gradients
from convext.lp import SimplexError, convex_combination_min, simplex_min
from convext.modulus import HolderModulus, LinearModulus, ScaledModulus

from conftest import normalized_jet, random_concave_table, random_convex_function, random_modulus

AFFINE_JET = Jet([[-1.0], [1.0]], [-2.0, 4.0], [[3.0], [3.0]])  # f(t) = 3t + 1


def _grid(m, d):
    """The m^d nodes of the regular grid on [-1, 1]^d, as an (m^d, d) array."""
    axis = np.linspace(-1.0, 1.0, m)
    return np.stack(np.meshgrid(*([axis] * d), indexing="ij"), axis=-1).reshape(-1, d)


def example_generator():
    alpha = 0.5
    jet = two_point_power_jet(alpha)
    A, _ = seminorm_A_intrinsic(jet, HolderModulus(alpha))
    return Generator(jet, HolderModulus(alpha), A)


class TestGeneratorAndMinorant:
    def test_single_parabola(self):
        gen = Generator(single_parabola_jet(), LinearModulus(), 1.0)
        assert gen.value([2.0]) == pytest.approx(2.0)

    def test_interpolation_at_jet_points(self):
        gen = example_generator()
        assert gen.value([-1.0]) == pytest.approx(2.0 / 3.0)

    def test_affine_jet_midpoint(self):
        for M in (0.5, 1.0, 2.0):
            gen = Generator(AFFINE_JET, HolderModulus(0.5), M)
            assert gen.value([0.0]) == pytest.approx(1.0 + M * HolderModulus(0.5).phi(1.0))

    def test_minorant_values(self):
        assert minorant(AFFINE_JET, [0.0]) == pytest.approx(1.0)
        halfsq = Jet([[0.0], [1.0]], [0.0, 0.5], [[0.0], [1.0]])
        assert minorant(halfsq, [2.0]) == pytest.approx(1.5)
        assert minorant(two_point_power_jet(0.5), [0.0]) == pytest.approx(-1.0 / 3.0)

    def test_negative_M_rejected(self):
        with pytest.raises(ValueError):
            Generator(AFFINE_JET, LinearModulus(), -1.0)


class TestBuildEnvelope1D:
    def test_convex_generator_is_its_own_envelope(self):
        gen = Generator(single_parabola_jet(), LinearModulus(), 1.0)
        model = build_envelope(gen, [-3.0], [3.0], 4001)
        assert model.value([1.0]) == pytest.approx(0.5, abs=2e-3)

    def test_affine_envelope(self):
        gen = Generator(AFFINE_JET, HolderModulus(0.5), 1.0)
        model = build_envelope(gen, [-4.0], [4.0], 4001)
        for t in (-1.0, -0.3, 0.0, 0.7, 1.0):
            assert model.value([t]) == pytest.approx(3.0 * t + 1.0, abs=1e-6)

    def test_sandwich_and_interpolation(self):
        gen = example_generator()
        model = build_envelope(gen, [-5.0], [5.0], 4001)
        # exact at the model's own samples; up to the discretization slack
        # between samples (the hull chord can sit above a dip of g there)
        xs_nodes = model.sample_x[:, None]
        F = model.value_many(xs_nodes)
        assert np.all(minorant(gen.jet, xs_nodes) <= F + 1e-12)
        assert np.all(F <= gen.value_many(xs_nodes) + 1e-12)
        xs = np.linspace(-5, 5, 113)[:, None]
        sp = model.grid_spacing()
        slack = 10.0 * gen.M * gen.modulus.omega(sp) * sp
        F = model.value_many(xs)
        assert np.all(minorant(gen.jet, xs) <= F + 1e-12)
        assert np.all(F <= gen.value_many(xs) + slack)
        for k, y in enumerate(gen.jet.points):
            assert model.value(y) == pytest.approx(gen.jet.values[k], abs=1e-12)

    def test_midpoint_convexity_exact(self, rng):
        gen = example_generator()
        model = build_envelope(gen, [-5.0], [5.0], 2001)
        x = rng.uniform(-5, 5, size=(1000, 1))
        y = rng.uniform(-5, 5, size=(1000, 1))
        mid = model.value_many((x + y) / 2.0)
        assert np.all(mid <= (model.value_many(x) + model.value_many(y)) / 2.0 + 1e-9)

    def test_oracle_agreement(self, rng):
        gen = example_generator()
        model = build_envelope(gen, [-5.0], [5.0], 4001)
        for t in (-2.0, 0.0, 0.4, 1.3):
            o = brute_force_envelope(gen, [t], 100_000, rng, model.lo, model.hi)
            assert model.value([t]) == pytest.approx(o, abs=5e-3)

    def test_domain_errors(self):
        gen = example_generator()
        model = build_envelope(gen, [-5.0], [5.0], 201)
        with pytest.raises(ValueError):
            model.value([6.0])
        with pytest.raises(ValueError):
            build_envelope(gen, [-5.0], [5.0], 20)
        with pytest.raises(ValueError):
            build_envelope(gen, [0.5], [5.0], 201)   # jet point outside

    def test_margin_warning(self):
        gen = example_generator()
        with pytest.warns(UserWarning, match="margin"):
            build_envelope(gen, [-1.5], [1.5], 201)


class TestLipschitzEnvelope1D:
    def test_huber_values(self):
        gen = Generator(single_parabola_jet(), LinearModulus(), 1.0)
        model = build_envelope(gen, [-3.0], [3.0], 4001)
        assert model.lipschitz_value([2.0], 1.0) == pytest.approx(1.5, abs=5e-3)
        assert model.lipschitz_value([0.5], 1.0) == pytest.approx(0.125, abs=5e-3)

    def test_equals_envelope_where_slopes_small(self):
        gen = Generator(single_parabola_jet(), LinearModulus(), 1.0)
        model = build_envelope(gen, [-3.0], [3.0], 4001)
        xs = np.linspace(-0.9, 0.9, 40)[:, None]
        assert np.allclose(model.lipschitz_value_many(xs, 1.0), model.value_many(xs), atol=1e-12)

    def test_lipschitz_property(self, rng):
        gen = example_generator()
        model = build_envelope(gen, [-5.0], [5.0], 2001)
        L = 1.0
        x = rng.uniform(-5, 5, size=(1000, 1))
        y = rng.uniform(-5, 5, size=(1000, 1))
        fx = model.lipschitz_value_many(x, L)
        fy = model.lipschitz_value_many(y, L)
        gap = np.abs(fx - fy) - L * np.abs(x - y)[:, 0]
        assert np.max(gap) <= 1e-9

    def test_below_envelope(self, rng):
        gen = example_generator()
        model = build_envelope(gen, [-5.0], [5.0], 2001)
        x = rng.uniform(-5, 5, size=(500, 1))
        assert np.all(model.lipschitz_value_many(x, 1.0) <= model.value_many(x) + 1e-12)

    def test_midpoint_convexity(self, rng):
        gen = example_generator()
        model = build_envelope(gen, [-5.0], [5.0], 2001)
        x = rng.uniform(-5, 5, size=(1000, 1))
        y = rng.uniform(-5, 5, size=(1000, 1))
        mid = model.lipschitz_value_many((x + y) / 2.0, 1.0)
        ends = (model.lipschitz_value_many(x, 1.0) + model.lipschitz_value_many(y, 1.0)) / 2.0
        assert np.all(mid <= ends + 1e-9)

    def test_low_cap_warns(self):
        gen = example_generator()
        model = build_envelope(gen, [-5.0], [5.0], 201)
        with pytest.warns(UserWarning, match="below sup"):
            model.lipschitz_value([0.0], 0.5)

    def test_slope_clipping_matches_vertex_minimum(self, rng):
        """The exact cap equals min(min_k y_k + L|x - x_k|, F(x)) bit for bit."""
        for n in (2, 3, 5, 8):
            jet = normalized_jet(rng, 1, n, HolderModulus(0.5))
            model = build_envelope(Generator(jet, HolderModulus(0.5), 1.0), *_box(jet), 1001)
            hx, hy = model.hull_x, model.hull_y
            slopes = np.diff(hy) / np.diff(hx)
            sup_g = sup_norm_gradients(jet)
            caps = (0.0, 0.5 * sup_g, sup_g, 2.0 * sup_g, 2.0 * np.max(np.abs(slopes)))
            for L in caps:
                a = np.searchsorted(slopes, -L)
                b = np.searchsorted(slopes, L, side="right")
                near = hx[[a, b]][:, None] + np.array([-1e-3, -1e-12, 0.0, 1e-12, 1e-3])
                x = np.clip(np.concatenate([
                    hx, model.lo, model.hi, near.ravel(), rng.uniform(model.lo[0], model.hi[0], 500),
                ]), model.lo[0], model.hi[0])
                trav = hy[None, :] + L * np.abs(x[:, None] - hx[None, :])
                expected = np.minimum(np.min(trav, axis=1), np.interp(x, hx, hy))
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    got = model.lipschitz_value_many(x[:, None], L)
                    grid = model.lipschitz_values_grid(x[:, None], L)
                assert np.array_equal(got, expected)
                assert np.array_equal(grid, expected)

    def test_capped_bulk_warns_once_per_call(self):
        model = build_envelope(example_generator(), [-5.0], [5.0], 201)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            model.lipschitz_values_grid(np.zeros((3, 1)), 0.5)
        assert len(caught) == 1


class TestSmoothnessTransfer:
    """Midpoint smoothness of g survives in both envelope variants."""

    @pytest.mark.parametrize("capped", [False, True])
    def test_midpoint_inequality(self, rng, capped):
        jet = normalized_jet(rng, 1, 5, HolderModulus(0.5))
        gen = Generator(jet, HolderModulus(0.5), 1.0)
        model = build_envelope(gen, *_box(jet), 4001)
        cap = sup_norm_gradients(jet)
        K, M = 2.0 ** 0.5, 1.0
        m = HolderModulus(0.5)
        sp = model.grid_spacing()
        slack = 10.0 * M * m.omega(sp) * sp + 1e-12
        lo, hi = model.lo[0], model.hi[0]
        z = rng.uniform(lo, hi, size=2000)
        h = rng.uniform(-1.0, 1.0, size=2000)
        lam = rng.uniform(0.0, 1.0, size=2000)
        a = z + (1 - lam) * h
        b = z - lam * h
        keep = (a >= lo) & (a <= hi) & (b >= lo) & (b <= hi)
        z, h, lam, a, b = z[keep], h[keep], lam[keep], a[keep], b[keep]
        if capped:
            ev = lambda t: model.lipschitz_value_many(t[:, None], cap)
        else:
            ev = lambda t: model.value_many(t[:, None])
        lhs = lam * ev(a) + (1 - lam) * ev(b) - ev(z)
        rhs = K * M * lam * (1 - lam) * m.phi(np.abs(h)) + slack
        assert np.all(lhs <= rhs)


def _box(jet, margin=None):
    if margin is None:
        margin = max(1.0, 2.0 * jet.diameter())
    return jet.points.min(axis=0) - margin, jet.points.max(axis=0) + margin


class TestEnvelope2D:
    def test_paraboloid(self):
        jet = Jet([[0.0, 0.0]], [0.0], [[0.0, 0.0]])
        gen = Generator(jet, LinearModulus(), 1.0)
        model = build_envelope(gen, [-2.0, -2.0], [2.0, 2.0], 41)
        assert model.value([1.0, 0.5]) == pytest.approx(0.625, abs=1e-6)
        assert model.lipschitz_value([1.5, 0.0], 1.0) == pytest.approx(1.0, abs=1e-3)

    def test_interpolation_and_sandwich(self, rng):
        jet = normalized_jet(rng, 2, 4, LinearModulus(), spread=0.8)
        gen = Generator(jet, LinearModulus(), 1.0)
        lo, hi = _box(jet)
        model = build_envelope(gen, lo, hi, 33)
        sp = model.grid_spacing()
        tol = 10.0 * 1.0 * LinearModulus().omega(sp) * sp
        for k, y in enumerate(jet.points):
            v = model.value(y)
            assert jet.values[k] - 1e-9 <= v <= jet.values[k] + tol
        X = rng.uniform(lo, hi, size=(50, 2))
        F = model.value_many(X)
        assert np.all(minorant(jet, X) <= F + 1e-7)
        assert np.all(F <= gen.value_many(X) + tol)
        # at grid nodes the combination lambda = e_j makes F <= g exact
        nodes = model.grid_points[:: 37]
        assert np.all(model.value_many(nodes) <= gen.value_many(nodes) + 1e-7)

    def test_midpoint_convexity_lp(self, rng):
        jet = normalized_jet(rng, 2, 3, LinearModulus(), spread=0.8)
        gen = Generator(jet, LinearModulus(), 1.0)
        lo, hi = _box(jet)
        model = build_envelope(gen, lo, hi, 33)
        x = rng.uniform(lo, hi, size=(60, 2))
        y = rng.uniform(lo, hi, size=(60, 2))
        mid = model.value_many((x + y) / 2.0)
        ends = (model.value_many(x) + model.value_many(y)) / 2.0
        assert np.all(mid <= ends + 1e-6)

    def test_oracle_agreement_2d(self, rng):
        jet = normalized_jet(rng, 2, 3, LinearModulus(), spread=0.8)
        gen = Generator(jet, LinearModulus(), 1.0)
        lo, hi = _box(jet)
        model = build_envelope(gen, lo, hi, 65)
        for _ in range(4):
            x = rng.uniform(lo + 0.5, hi - 0.5)
            val = model.value(x)
            oracle = brute_force_envelope(gen, x, 100_000, rng, lo, hi)
            assert abs(val - oracle) <= 5e-3 * (1.0 + abs(gen.value(x)))

    def test_3d_paraboloid(self):
        jet = Jet([[0.0, 0.0, 0.0]], [0.0], [[0.0, 0.0, 0.0]])
        gen = Generator(jet, LinearModulus(), 1.0)
        model = build_envelope(gen, [-2.0] * 3, [2.0] * 3, 33)
        x = np.array([1.0, 0.5, -0.25])
        assert model.value(x) == pytest.approx(float(np.sum(x**2)) / 2.0, abs=5e-3)
        assert model.lipschitz_value([1.5, 0.0, 0.0], 1.0) == pytest.approx(1.0, abs=5e-3)

    def test_dimension_cap(self):
        jet = Jet(np.zeros((1, 4)), [0.0], np.zeros((1, 4)))
        gen = Generator(jet, LinearModulus(), 1.0)
        with pytest.raises(ValueError):
            build_envelope(gen, [-1.0] * 4, [1.0] * 4, 33)
        with pytest.raises(ValueError):
            brute_force_envelope(Generator(Jet(np.zeros((1, 3)), [0.0], np.zeros((1, 3))), LinearModulus(), 1.0),
                                 np.zeros(3), 10, np.random.default_rng(0))


class TestExposedNodes:
    """Grid nodes cleared by the conjugate certificate skip the LP."""

    @staticmethod
    def _lp_at(model, idx):
        """One-shot LP value at each grid node idx, as before the certificate."""
        return np.array([convex_combination_min(model._grid_scaled, model.grid_g, x)[1]
                         for x in model._grid_scaled[idx]])

    def test_cleared_nodes_take_the_lp_value(self, rng):
        table = random_concave_table(rng)
        moduli = [HolderModulus(0.6), LinearModulus(), table, ScaledModulus(HolderModulus(0.8), 2.5)]
        cleared = 0
        for d in (2, 3):
            for m in moduli:
                jet = normalized_jet(rng, d, 4, m, spread=0.8)
                for M in (1.0, 1.5):        # A = 1 after normalization
                    model = build_envelope(Generator(jet, m, M), *_box(jet), 33)
                    idx = np.flatnonzero(model._exposed)
                    cleared += idx.size
                    idx = rng.choice(idx, size=min(120, idx.size), replace=False)
                    assert np.array_equal(self._lp_at(model, idx), model.grid_g[idx])
        assert cleared > 0

    def test_grid_values_match_the_lp_at_every_node(self, rng):
        jet = normalized_jet(rng, 2, 5, HolderModulus(0.75), spread=0.8)
        model = build_envelope(Generator(jet, HolderModulus(0.75), 1.2), *_box(jet), 33)
        assert 0 < np.count_nonzero(model._exposed) < len(model.grid_points)
        every = np.arange(len(model.grid_points))
        assert np.array_equal(model.grid_envelope_values(), self._lp_at(model, every))
        # the pattern search scans the strided subgrid and takes the same values
        nodes, F_nodes, stride = model._scan_nodes()
        sub = np.meshgrid(*[ax[::stride] for ax in model.axes], indexing="ij")
        assert np.array_equal(nodes, np.column_stack([m.ravel() for m in sub]))
        assert np.array_equal(F_nodes, model.value_many(nodes))

    def test_jet_points_on_nodes_are_cleared_above_A(self, rng):
        # at y_i the slope is G_i and the test is the pair condition with phi*,
        # which holds strictly once M > A
        value, grad = random_convex_function(rng, 2)
        axis = np.linspace(-4.0, 4.0, 33)
        pts = np.column_stack([axis[[14, 16, 18, 15]], axis[[15, 18, 16, 13]]])
        jet = Jet(pts, value(pts), grad(pts))
        m = LinearModulus()
        A, _ = seminorm_A_intrinsic(jet, m)
        model = build_envelope(Generator(jet, m, 1.5 * A), [-4.0, -4.0], [4.0, 4.0], 33)
        at = [np.flatnonzero(np.all(model.grid_points == y, axis=1))[0] for y in pts]
        assert np.all(model._exposed[at])

    def test_margin_is_subtracted(self):
        # two pieces on one plane, the second lifted by eps: at y_0 the other
        # piece's conjugate sits exactly eps below the plane's bound
        eps = 1e-6
        jet = Jet([[0.0, 0.0], [1.0, 0.0]], [0.0, 1.0 + eps], [[1.0, 0.0], [1.0, 0.0]])
        gen = Generator(jet, LinearModulus(), 1.0)
        assert gen._exposed([[0.0, 0.0]], 0.5 * eps)[0]
        assert not gen._exposed([[0.0, 0.0]], 2.0 * eps)[0]

    def test_one_piece_clears_every_node(self):
        for d in (2, 3):
            jet = Jet([[0.25] * d], [0.5], [[1.0] * d])
            model = build_envelope(Generator(jet, LinearModulus(), 1.0), [-2.0] * d, [2.0] * d, 33)
            assert np.all(model._exposed)
            idx = np.arange(0, len(model.grid_points), 97)
            assert np.array_equal(self._lp_at(model, idx), model.grid_g[idx])

    def test_zero_M_and_bounded_table_clear_nothing(self, rng):
        jet = normalized_jet(rng, 2, 4, LinearModulus(), spread=0.8)
        bounded = random_concave_table(rng, coercive=False)
        for m, M in ((LinearModulus(), 0.0), (bounded, 2.0)):
            model = build_envelope(Generator(jet, m, M), *_box(jet), 33)
            assert not np.any(model._exposed)
            idx = np.arange(0, len(model.grid_points), 11)
            assert np.array_equal(model._node_values(idx), self._lp_at(model, idx))


class TestSimplex:
    def test_matches_known_solutions(self, rng):
        for _ in range(20):
            pts = rng.uniform(-1, 1, size=(30, 2))
            vals = rng.uniform(0, 1, size=30)
            x = pts.mean(axis=0)
            lam, obj = convex_combination_min(pts, vals, x)
            assert lam.min() >= -1e-9
            assert np.allclose(pts.T @ lam, x, atol=1e-8)
            assert np.isclose(lam.sum(), 1.0, atol=1e-9)
            # support has at most d + 1 = 3 meaningful weights
            assert np.sum(lam > 1e-7) <= 3 + 2
            # no convex combination sampled at random does better
            w = rng.dirichlet(np.ones(3), size=200)
            idx = rng.integers(0, 30, size=(200, 3))
            match = np.abs(np.einsum("kj,kjd->kd", w, pts[idx]) - x).max(axis=1) < 1e-3
            if np.any(match):
                assert obj <= np.min(np.einsum("kj,kj->k", w, vals[idx])[match]) + 1e-2

    def test_infeasible_detected(self):
        pts = np.array([[0.0], [1.0]])
        with pytest.raises(Exception):
            convex_combination_min(pts, [0.0, 0.0], np.array([2.0]))

    def test_simplex_min_basic(self):
        # min x1 + 2 x2 s.t. x1 + x2 = 1 -> x = (1, 0)
        x, obj = simplex_min(np.array([[1.0, 1.0]]), np.array([1.0]), np.array([1.0, 2.0]))
        assert obj == pytest.approx(1.0)
        assert x[0] == pytest.approx(1.0)

    def test_nearest_matches_stable_sort(self, rng):
        # regular grids tie distances everywhere, most of all off the nodes
        for m, d in [(65, 2), (33, 3), (9, 2)]:
            pts = _grid(m, d)
            N, h = len(pts), 2.0 / (m - 1)
            for offset in (0.0, 0.5, 0.25):
                for node in rng.integers(0, N, size=4):
                    d2 = np.sum((pts - (pts[node] + offset * h)) ** 2, axis=1)
                    for k in (1, 27, 32, N - 1, N, 2 * N):
                        expected = np.unique(np.argsort(d2, kind="stable")[:k])
                        assert np.array_equal(lp._nearest(d2, k), expected)

    def test_column_generation_matches_dense(self, rng):
        pts = _grid(33, 2)  # 1089 columns: above the dense branch's 600
        vals = rng.uniform(0, 1, size=len(pts)) + np.sum(pts ** 2, axis=1)
        h = 2.0 / 32
        queries = np.vstack([
            pts[rng.integers(0, len(pts), size=5)],
            rng.integers(0, 32, size=(5, 2)) * h - 1.0 + h / 2,
            rng.uniform(-1, 1, size=(5, 2)),
        ])
        A = np.vstack([pts.T, np.ones(len(pts))])
        for x in queries:
            lam, obj = convex_combination_min(pts, vals, x)
            _, dense = simplex_min(A, np.append(x, 1.0), vals)
            assert abs(obj - dense) <= 1e-10 * (1.0 + abs(obj))
            assert lam.min() >= -1e-9
            assert np.allclose(pts.T @ lam, x, atol=1e-8)
            assert np.isclose(lam.sum(), 1.0, atol=1e-9)
            assert obj == pytest.approx(vals @ lam, abs=1e-10)

    def test_infeasible_seed_stops_at_full_set(self, monkeypatch):
        pts = _grid(33, 2)
        calls = []
        solve = lp._solve_standard

        def counted(*args, **kwargs):
            calls.append(args[0].shape[1])
            return solve(*args, **kwargs)

        monkeypatch.setattr(lp, "_solve_standard", counted)
        with pytest.raises(SimplexError, match="could not seed"):
            convex_combination_min(pts, np.zeros(len(pts)), np.array([2.0, 2.0]))
        assert len(calls) <= math.ceil(math.log2(len(pts) / 32)) + 1
        assert calls[-1] == len(pts)


class TestCsvExport:
    def test_columns_and_determinism(self, tmp_path):
        gen = Generator(single_parabola_jet(), LinearModulus(), 1.0)
        model = build_envelope(gen, [-3.0], [3.0], 201)
        model.lipschitz_cap = 1.0
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_samples_csv(model, p1)
        write_samples_csv(model, p2)
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0]
        assert header == "x1,g,m,F,F_L"
        row = p1.read_text().splitlines()[1].split(",")
        assert len(row) == 5

    def test_no_cap_column_without_cap(self, tmp_path):
        gen = Generator(single_parabola_jet(), LinearModulus(), 1.0)
        model = build_envelope(gen, [-3.0], [3.0], 201)
        path = tmp_path / "c.csv"
        write_samples_csv(model, path)
        assert path.read_text().splitlines()[0] == "x1,g,m,F"

    def test_2d_export(self, tmp_path):
        jet = Jet([[0.0, 0.0]], [0.0], [[0.0, 0.0]])
        gen = Generator(jet, LinearModulus(), 1.0)
        model = build_envelope(gen, [-1.5, -1.5], [1.5, 1.5], 33)
        path = tmp_path / "d2.csv"
        write_samples_csv(model, path, lipschitz=1.0)
        lines = path.read_text().splitlines()
        assert lines[0] == "x1,x2,g,m,F,F_L"
        assert len(lines) == 1 + 33 * 33
        data = np.loadtxt(lines[1:], delimiter=",")
        # row-major order: the second coordinate varies fastest
        assert data[0, 0] == data[1, 0] and data[0, 1] != data[1, 1]
        assert np.all(data[:, 5] <= data[:, 4] + 1e-9)   # F_L <= F
        assert np.all(data[:, 3] <= data[:, 4] + 1e-7)   # m <= F


class TestDegenerateModuli:
    def test_flat_zero_table_extrinsic(self):
        """omega identically zero: only single-plane jets are feasible."""
        from convext.jet import seminorm_A_extrinsic
        from convext.modulus import TableModulus
        flat = TableModulus([[0.0, 0.0], [1.0, 0.0]])
        affine = Jet([[-1.0], [1.0]], [-2.0, 4.0], [[3.0], [3.0]])
        assert seminorm_A_extrinsic(affine, flat) == 0.0
        halfsq = Jet([[0.0], [1.0]], [0.0, 0.5], [[0.0], [1.0]])
        assert seminorm_A_extrinsic(halfsq, flat) == np.inf
