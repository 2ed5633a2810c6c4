import tracemalloc
import warnings

import numpy as np
import pytest

from convext.c1 import (
    _hull,
    build_construction,
    c1_extend,
    delta1_value,
    delta_many,
)
from convext.envelope import Generator
from convext.fixtures import two_point_power_jet
from convext.jet import (
    InfeasibleJetError,
    Jet,
    _verdict,
    pair_defects,
    seminorm_A_extrinsic,
    sup_norm_gradients,
)
from convext.modulus import validate_modulus

from conftest import dense_restriction_jet, random_feasible_jet
from oracles import front_delta, front_delta1

HALFSQ = Jet([[0.0], [1.0]], [0.0, 0.5], [[0.0], [1.0]])


def halfsq_grid_jet(n=101):
    t = np.linspace(0.0, 1.0, n)
    return Jet(t[:, None], t**2 / 2.0, t[:, None])


class TestDelta:
    def test_halfsq_values(self):
        assert delta_many(HALFSQ, [1.0])[0] == pytest.approx(0.5)
        assert delta_many(HALFSQ, [0.25])[0] == pytest.approx(0.0)

    def test_constant_gradient_zero(self):
        jet = Jet([[0.0], [1.0]], [0.0, 3.0], [[3.0], [3.0]])
        for t in (0.1, 1.0, 10.0):
            assert delta_many(jet, [t])[0] == 0.0

    def test_monotone_and_bounded(self, rng):
        jet = dense_restriction_jet(rng, n=60)
        L = float(np.max(np.abs(jet.gradients)))
        ts = np.geomspace(1e-4, 20.0, 200)
        d = delta_many(jet, ts)
        assert np.all(np.diff(d) >= -1e-12)
        assert np.all(d >= 0.0)
        assert np.all(d <= 2.0 * L + 1e-12)

    def test_domain_and_feasibility_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # no RuntimeWarning on the way
            for ts in ([0.0], [1.0, 0.0], [np.nan], [1.0, np.inf]):
                with pytest.raises(ValueError, match="ts must be finite and > 0"):
                    delta_many(HALFSQ, ts)
            for t in (-1.0, np.nan, np.inf, [0.5, -1.0]):
                with pytest.raises(ValueError, match="t must be finite and >= 0"):
                    delta1_value(HALFSQ, 1.0, t)
        bad = Jet([[0.0], [1.0]], [0.0, -1.0], [[0.0], [0.0]])
        for evaluate in (lambda j: delta_many(j, [1.0]), lambda j: delta1_value(j, 1.0, 0.5)):
            with pytest.raises(InfeasibleJetError, match="condition_C"):
                evaluate(bad)
        # both need (C) only: a (CW1) failure still has a delta
        cw1 = Jet([[0.0], [1.0]], [0.0, 0.0], [[0.0], [1.0]])
        assert delta_many(cw1, [1.0])[0] == 1.0
        assert np.isfinite(delta1_value(cw1, 1.0, 0.5))

    def test_matches_witness_grid(self, rng):
        """The pairwise reduction dominates a brute-force witness sweep."""
        jet = dense_restriction_jet(rng, n=9)
        P, f, G = jet.points, jet.values, jet.gradients
        for t in (0.3, 1.0):
            target = delta_many(jet, [t])[0]
            best = 0.0
            for i in range(jet.size):          # y index
                for j in range(jet.size):      # z index
                    r = np.linspace(1e-4, t, 300)
                    for sgn in (-1.0, 1.0):
                        x = P[i, 0] + sgn * r
                        num = (f[j] + G[j, 0] * (x - P[j, 0])) - (f[i] + G[i, 0] * (x - P[i, 0]))
                        best = max(best, float(np.max(num / r)))
            best = max(best, 0.0)
            assert best <= target + 1e-9
            assert best >= target - 1e-6   # 1-D witnesses realize the sup


def delta1_reference(jet, L, t):
    """Brute-force delta1 over every ordered pair; for jets of a few points.

    The infimand max(0, max_k s_k - c_k u) + 2 L t u is convex and piecewise
    linear in u = 1/s, so its infimum over u >= 1 is attained at u = 1, at a
    zero crossing s_k / c_k or at an intersection of two pair lines.  That
    is (pairs^2 x pairs) work and memory.
    """
    C, S, _ = pair_defects(jet)
    off = ~np.eye(jet.size, dtype=bool)
    c, s = np.maximum(C[off], 0.0), S[off]
    with np.errstate(divide="ignore", invalid="ignore"):
        cuts = np.concatenate([
            s / c, ((s[:, None] - s[None, :]) / (c[:, None] - c[None, :])).ravel(),
        ])
    u = np.unique(np.concatenate([[1.0], cuts[np.isfinite(cuts) & (cuts > 1.0)]]))
    h = np.maximum(0.0, np.max(s[None, :] - c[None, :] * u[:, None], axis=1))
    return float(np.min(h + 2.0 * L * t * u))


class TestDelta1:
    def test_zero_limit_for_feasible(self, rng):
        jet = dense_restriction_jet(rng, n=80)
        L = float(np.max(np.abs(jet.gradients)))
        assert delta1_value(jet, L, 0.0) <= delta_many(jet, [1e-6])[0] + 1e-9
        # t = 0: the infimum is h at its last breakpoint, where h reaches 0
        assert delta1_value(jet, L, 0.0) == pytest.approx(0.0, abs=1e-12 * L)

    def test_zero_delta_gives_linear(self):
        # constant gradients: no pair has s > 0, so the front is empty
        jet = Jet([[0.0], [1.0]], [0.0, 3.0], [[3.0], [3.0]])
        L = 3.0
        ts = np.array([0.0, 0.2, 1.0, 4.0])
        for t in ts:
            # inf over s of 2 L t / s is reached at the s -> 1 end
            assert delta1_value(jet, L, t) == 2.0 * L * t
        assert np.array_equal(delta1_value(jet, L, ts), 2.0 * L * ts)

    def test_exact_matches_brute_force(self):
        """Exact delta1 equals the all-pairs vertex enumeration to 1e-12."""
        rng = np.random.default_rng(31)
        jets = [two_point_power_jet(0.5)]          # two pairs tied in (c, s)
        jets += [random_feasible_jet(rng, int(rng.integers(1, 4)), int(rng.integers(3, 9)))
                 for _ in range(15)]
        jets += [dense_restriction_jet(rng, n=int(rng.integers(6, 11))) for _ in range(5)]
        for jet in jets:
            L = sup_norm_gradients(jet)
            ts = np.concatenate([[0.0], np.geomspace(1e-4, 10.0, 23)])
            got = delta1_value(jet, L, ts)
            assert got.shape == ts.shape
            for t, value in zip(ts, got):
                ref = delta1_reference(jet, L, t)
                assert value == pytest.approx(ref, rel=1e-12, abs=1e-15 * L)
                assert delta1_value(jet, L, float(t)) == value

    def test_matches_dense_scan(self):
        jet = HALFSQ
        L = 1.0
        c, s = 0.5, 1.0
        for t in (0.1, 1.0, 3.0):
            val = delta1_value(jet, L, t)
            # the infimum over the open interval u > 1 is the value at u = 1
            u = np.concatenate([[1.0], np.geomspace(1.0 + 1e-6, 1e6, 2_000_000)])
            scan = float(np.min(np.maximum(0.0, s - c * u) + 2.0 * L * t * u))
            assert val == pytest.approx(scan, abs=1e-6)

    def test_dominates_delta(self, rng):
        jet = dense_restriction_jet(rng, n=70)
        L = float(np.max(np.abs(jet.gradients)))
        for t in np.geomspace(1e-3, 5.0, 25):
            assert delta1_value(jet, L, t) >= delta_many(jet, [t])[0] - 1e-9


class TestConstruction:
    def test_halfsq_grid(self):
        jet = halfsq_grid_jet()
        cm = build_construction(jet, alpha=1.0)
        assert cm.L == pytest.approx(1.0)
        assert cm.M == pytest.approx(2.0)
        assert np.all(cm.Delta <= 2.0 * cm.L + 1e-12)
        # alpha = 1: omega is Delta itself up to the concave-hull repair
        assert np.allclose(cm.omega.omega(cm.t_grid), cm.Delta, rtol=1e-6, atol=1e-9)

    def test_invariants_random_restrictions(self, rng):
        for _ in range(10):
            jet = dense_restriction_jet(rng)
            alpha = float(rng.choice([1.0, 0.75, 0.5]))
            cm = build_construction(jet, alpha=alpha)
            assert np.all(cm.delta <= cm.Delta + 1e-9)
            assert np.all(cm.Delta <= 2.0 * cm.L + 1e-9)
            w = cm.omega.omega(cm.t_grid)
            assert np.all(cm.Delta <= (2.0 * cm.L) ** (1.0 - alpha) * w + 1e-9)
            assert validate_modulus(cm.omega, cm.t_grid[::7]).ok
            ratio = cm.t_grid**alpha / w
            assert np.all(np.diff(ratio) >= -1e-10 * (1.0 + ratio[:-1]))

    def test_delta_smallness_on_fine_grids(self, rng):
        """delta at the smallest tabulated scale is tiny once the sample
        spacing drops below it."""
        for _ in range(5):
            jet = dense_restriction_jet(rng, n=201, radius=1.0)  # spacing 0.01
            t_grid = np.geomspace(0.02, 20.0, 160)
            cm = build_construction(jet, alpha=1.0, t_grid=t_grid)
            assert cm.delta[0] <= 0.05 * 2.0 * cm.L

    def test_degenerate_constant_jet(self):
        jet = Jet([[0.0], [1.0]], [2.0, 2.0], [[0.0], [0.0]])
        cm = build_construction(jet)
        assert cm.degenerate and cm.L == 0.0

    def test_feasibility_under_constructed_modulus(self, rng):
        for _ in range(5):
            jet = dense_restriction_jet(rng, n=60)
            cm = build_construction(jet, alpha=1.0)
            A = seminorm_A_extrinsic(jet, cm.omega)
            assert A <= cm.M + 1e-6

    def test_generator_samples_in_cache_sized_blocks(self):
        # the benchmark's c1 job: the generator of its construction over 4060 hull
        # samples held 13 MB of temporaries in blocks of 2^18 elements
        jet = dense_restriction_jet(np.random.default_rng(0), n=60)
        cm = build_construction(jet)
        gen = Generator(jet, cm.omega, cm.M)
        X = np.linspace(-3.0, 3.0, 4060)[:, None]
        tracemalloc.start()
        try:
            gen.value_many(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            build_construction(HALFSQ, alpha=1.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t_grid in ([1.0, 2.0, np.inf], [1.0, np.nan, 2.0], [-1.0, 2.0], [2.0, 1.0]):
                with pytest.raises(ValueError, match="t_grid must be positive and strictly increasing, and finite"):
                    build_construction(HALFSQ, t_grid=t_grid)


class TestC1Extend:
    def test_halfsq_dense_grid(self):
        jet = halfsq_grid_jet()
        model, report, cm = c1_extend(
            jet, alpha=1.0, resolution=64001, samples=3000, seed=5,
            domain=(np.array([-1.0]), np.array([2.0])),
        )
        assert report.interpolation_max_error <= 1e-9
        assert report.gradient_max_error < 2e-2
        assert abs(report.empirical_lip_F - 1.0) <= 5e-3
        assert report.ok, report.dumps()

    def test_condition_violation_reported(self):
        bad = Jet([[0.0], [1.0]], [0.0, 0.0], [[0.0], [1.0]])
        with pytest.raises(InfeasibleJetError) as err:
            c1_extend(bad)
        assert err.value.condition == "condition_CW1"

    def test_constant_jet_constant_extension(self):
        jet = Jet([[0.0], [1.0]], [2.0, 2.0], [[0.0], [0.0]])
        model, report, cm = c1_extend(jet, resolution=201, samples=300, seed=1)
        assert cm.degenerate
        xs = np.linspace(*model.domain, 40).reshape(-1, 1)
        assert np.allclose(model.envelope.lipschitz_value_many(xs), 2.0, atol=1e-12)
        assert report.empirical_lip_F == pytest.approx(0.0, abs=1e-12)

    def test_pareto_reduction_consistency(self, rng):
        """delta, delta1 and the construction's tables, read off the upper
        hull of the front, equal bit for bit the oracle's maxima over every
        pair: on dense jets, on the tie-heavy grid of x^2 / 2, and on a jet
        that fails (CW1) only, whose hull has a vertical first edge."""
        cw1 = Jet([[0.0], [1.0]], [0.0, 0.0], [[0.0], [1.0]])
        hc = _hull(_verdict(cw1, 1e-9))[0]
        assert hc[0] == hc[1]
        jets = [dense_restriction_jet(rng) for _ in range(20)] + [halfsq_grid_jet(), cw1]
        for jet in jets:
            C, S, _ = pair_defects(jet)
            off = ~np.eye(jet.size, dtype=bool)
            c, s = np.maximum(C[off], 0.0), S[off]
            slopes = _hull(_verdict(jet, 1e-9))[2]
            L = sup_norm_gradients(jet)
            ts = np.geomspace(1e-4, 20.0, 200)
            t0 = np.concatenate([[0.0], ts])
            assert delta_many(jet, ts).tobytes() == front_delta(c, s, ts).tobytes()
            assert delta1_value(jet, L, t0).tobytes() == front_delta1(c, s, slopes, L, t0).tobytes()
            if jet is cw1:
                continue
            cm = build_construction(jet)
            assert cm.delta.tobytes() == front_delta(c, s, cm.t_grid).tobytes()
            assert cm.delta1.tobytes() == front_delta1(c, s, slopes, L, cm.t_grid).tobytes()
