import dataclasses

import numpy as np
import pytest

from convext import extension
from convext.envelope import Generator, build_envelope
from convext.extension import (
    ConstantTooSmallError,
    ExtensionConfig,
    build_extension,
    default_domain,
    verify_extension,
)
from convext.fixtures import single_parabola_jet, two_point_power_jet
from convext.jet import (
    InfeasibleJetError,
    Jet,
    compute_A,
    seminorm_A_intrinsic,
)
from convext.lp import convex_combination_min
from convext.modulus import HolderModulus, LinearModulus, ScaledModulus

import oracles
from conftest import normalized_jet, random_concave_table
from oracles import check_necessity

HALFSQ = Jet([[0.0], [1.0]], [0.0, 0.5], [[0.0], [1.0]])


def parabola_model(lipschitz=None, resolution=4001):
    cfg = ExtensionConfig(
        modulus=LinearModulus(), M=1.0, lipschitz=lipschitz,
        domain=(np.array([-3.0]), np.array([3.0])), resolution=resolution,
    )
    return build_extension(single_parabola_jet(), cfg)


def example_model(lipschitz=None):
    jet = two_point_power_jet(0.5)
    cfg = ExtensionConfig(modulus=HolderModulus(0.5), M="auto", lipschitz=lipschitz)
    return build_extension(jet, cfg)


class TestBuild:
    def test_single_point_parabola(self):
        model = parabola_model()
        xs = np.linspace(-2.5, 2.5, 41)[:, None]
        assert np.allclose(model.envelope.value_many(xs), xs[:, 0] ** 2 / 2.0, atol=2e-3)

    def test_auto_constant_and_interpolation(self):
        jet = two_point_power_jet(0.5)
        cfg = ExtensionConfig(
            modulus=HolderModulus(0.5), M="auto",
            domain=(np.array([-5.0]), np.array([5.0])), resolution=32001,
        )
        model = build_extension(jet, cfg)
        assert model.M == pytest.approx(2.0 / 3.0 ** 0.5, abs=1e-12)
        for t, v, g in [(-1.0, 2.0 / 3.0, -1.0), (1.0, 2.0 / 3.0, 1.0)]:
            assert model.envelope.value([t]) == pytest.approx(v, abs=1e-9)
            assert model.gradient_many([t])[0, 0] == pytest.approx(g, abs=2e-2)

    def test_capped_variant_matches_huber(self):
        cfg = ExtensionConfig(
            modulus=LinearModulus(), M=1.0, lipschitz="auto",
            domain=(np.array([-3.0]), np.array([4.0])), resolution=4001,
        )
        model = build_extension(HALFSQ, cfg)
        assert model.L == 1.0

        def huber(t):
            # slope saturates at -1 / +1 where |t| reaches 1
            if t < -1.0:
                return -t - 0.5
            if t > 1.0:
                return t - 0.5
            return t * t / 2.0

        xs = np.linspace(-3.0, 4.0, 141)
        vals = model.envelope.lipschitz_value_many(xs[:, None])
        assert np.allclose(vals, [huber(t) for t in xs], atol=5e-3)

    def test_infeasible_jet_raises(self):
        bad = Jet([[0.0], [1.0]], [0.0, 0.0], [[0.0], [1.0]])
        with pytest.raises(InfeasibleJetError):
            build_extension(bad, ExtensionConfig(modulus=LinearModulus()))

    def test_M_below_A_raises(self):
        jet = two_point_power_jet(0.5)
        cfg = ExtensionConfig(modulus=HolderModulus(0.5), M=0.5)
        with pytest.raises(ConstantTooSmallError, match="below the least feasible"):
            build_extension(jet, cfg)

    def test_default_domain_margin(self):
        lo, hi = default_domain(HALFSQ)
        assert lo[0] == pytest.approx(-2.0)
        assert hi[0] == pytest.approx(3.0)


class TestGradient:
    def test_parabola_gradient(self):
        model = parabola_model()
        assert model.gradient_many([1.0])[0, 0] == pytest.approx(1.0, abs=1e-3)

    def test_affine_gradient(self):
        jet = Jet([[-1.0], [1.0]], [-2.0, 4.0], [[3.0], [3.0]])
        model = build_extension(jet, ExtensionConfig(modulus=HolderModulus(0.5), M=1.0))
        for t in (-0.8, 0.0, 0.9):
            assert model.gradient_many([t])[0, 0] == pytest.approx(3.0, abs=1e-6)

    def test_query_outside_the_box_raises(self):
        model = parabola_model()
        model.gradient_many([2.999])
        with pytest.raises(ValueError, match="outside the envelope domain"):
            model.gradient_many([3.5])

    MODULI = {
        "power": HolderModulus(0.4),
        "linear": LinearModulus(),
        "table": random_concave_table(np.random.default_rng(2)),
        "bounded-table": random_concave_table(np.random.default_rng(3), coercive=False),
        "scaled": ScaledModulus(HolderModulus(0.7), 2.5),
    }

    @pytest.mark.parametrize("factor", [1.0, 1.5])
    @pytest.mark.parametrize("kind", sorted(MODULI))
    def test_1d_jet_points_give_the_jet_gradient(self, rng, kind, factor):
        m = self.MODULI[kind]
        for _ in range(3):
            jet = normalized_jet(rng, 1, 5, m)
            model = build_extension(jet, ExtensionConfig(modulus=m, M=factor * compute_A(jet, m)))
            assert np.max(np.abs(model.gradient_many(jet.points) - jet.gradients)) <= 1e-8

    @pytest.mark.parametrize("kind", sorted(MODULI))
    def test_1d_gradient_matches_the_conjugate_maximizer(self, rng, kind):
        # inside the jet's span the hull slopes agree with s* up to the sampling
        m = self.MODULI[kind]
        jet = normalized_jet(rng, 1, 5, m)
        model = build_extension(jet, ExtensionConfig(modulus=m, M=1.5 * compute_A(jet, m)))
        X = np.linspace(np.min(jet.points), np.max(jet.points), 300)[:, None]
        s_star = convex_combination_min(model.envelope.generator, X)[1]
        assert np.max(np.abs(model.gradient_many(X) - s_star)) <= 1e-2 * (1.0 + model.M)


class TestVerify:
    def test_parabola_report(self):
        model = parabola_model(lipschitz=1.0)
        rep = verify_extension(model, samples=4000, seed=3)
        assert rep.ok, rep.dumps()
        assert rep.empirical_A == pytest.approx(1.0, abs=2e-2)
        assert rep.empirical_lip_F == pytest.approx(1.0, abs=5e-3)
        names = [c.name for c in rep.bound_checks]
        assert "empirical_A_vs_bound" in names
        assert "lipschitz_cap_attained" in names

    def test_example_bounds(self):
        model = example_model(lipschitz="auto")
        rep = verify_extension(model, samples=4000, seed=5)
        assert rep.ok, rep.dumps()
        alpha, M = 0.5, model.M
        bound_lip = 2.0 ** 0.5 * (1.5 / 1.0) ** 0.5 * M
        check = {c.name: c for c in rep.bound_checks}["empirical_lip_grad_vs_bound"]
        assert check.bound == pytest.approx(bound_lip, rel=1e-12)
        assert rep.empirical_lip_omega_gradF <= bound_lip * 1.05

    def test_uncapped_slope_exceeds_L_far_out(self):
        # |grad F| keeps growing away from the jet, while F_L stays at L
        model = parabola_model(lipschitz=1.0)
        g_far = abs(model.gradient_many([2.5])[0, 0])
        assert g_far > 1.5
        rep = verify_extension(model, samples=3000, seed=7)
        assert rep.empirical_lip_F <= 1.0 * (1.0 + 5e-3)

    @pytest.mark.parametrize("d", [1, 2])
    def test_raised_cap_fails_the_upper_check(self, d):
        # an F_L built at 1.1 L under a model that promises L
        m = HolderModulus(0.75)
        jet = normalized_jet(np.random.default_rng(40 + d), d, 4, m, spread=0.6)
        model = build_extension(jet, ExtensionConfig(modulus=m, lipschitz="auto"))
        env = model.envelope
        model.envelope = build_envelope(env.generator, env.lo, env.hi, env.resolution, 1.1 * model.L)
        rep = verify_extension(model, samples=2000, seed=1)
        check = {c.name: c for c in rep.bound_checks}["lipschitz_cap_upper"]
        assert not check.passed and not rep.ok
        assert check.measured >= 1.05 * model.L

    def test_holder_alpha_one_factors_are_one(self):
        jet = two_point_power_jet(1.0)
        model = build_extension(jet, ExtensionConfig(modulus=HolderModulus(1.0), M="auto"))
        rep = verify_extension(model, samples=2000, seed=11)
        checks = {c.name: c for c in rep.bound_checks}
        assert checks["empirical_A_vs_bound"].bound == pytest.approx(model.M)
        assert checks["empirical_lip_grad_vs_bound"].bound == pytest.approx(model.M)
        assert rep.ok, rep.dumps()

    def test_report_json_round_trip(self):
        model = parabola_model(lipschitz=1.0)
        rep = verify_extension(model, samples=500, seed=1)
        payload = rep.to_json()
        assert payload["ok"] == rep.ok
        assert len(payload["bound_checks"]) == len(rep.bound_checks)
        assert payload["context"]["seed"] == 1


class TestNecessity:
    @pytest.mark.parametrize("maker", [parabola_model, example_model])
    def test_zero_violations(self, maker):
        model = maker()
        rep = check_necessity(model, samples=400, seed=2)
        assert rep["ok"], rep["violations"][:3]

    def test_affine_model(self):
        jet = Jet([[-1.0], [1.0]], [-2.0, 4.0], [[3.0], [3.0]])
        model = build_extension(jet, ExtensionConfig(modulus=LinearModulus(), M="auto"))
        assert model.A == pytest.approx(0.0, abs=1e-12)
        rep = check_necessity(model, samples=300, seed=4)
        assert rep["ok"]

    def test_matches_a_loop_over_x(self, monkeypatch):
        # with M_hat = 0 most points x violate, so every field is compared
        real = oracles.verify_extension
        monkeypatch.setattr(oracles, "verify_extension", lambda *a, **kw: dataclasses.replace(
            real(*a, **kw), empirical_lip_omega_gradF=0.0))
        model, m = parabola_model(), LinearModulus()
        rep = check_necessity(model, samples=300, seed=4)
        rng, k, sp = np.random.default_rng(4), 10, model.grid_spacing()
        xs = extension._sample_interior(model, rng, k, pad=0.0)
        yz = extension._sample_interior(model, rng, k, pad=1.5 * model.default_step())
        F, G = model.envelope.value_many(yz), model.gradient_many(yz)
        expected, worst = [], []
        for x in xs:
            planes = F + np.einsum("jd,jd->j", G, x - yz)
            defect = np.max(planes) - planes - 10.0 * model.M * m.omega(sp) * sp - 1e-9
            worst.append(np.max(defect))
            if worst[-1] > 0:
                expected.append((x.tolist(), yz[np.argmax(defect)].tolist(), yz[np.argmax(planes)].tolist()))
        assert len(expected) > k // 2
        assert [(v["x"], v["y"], v["z"]) for v in rep["violations"]] == expected
        assert rep["max_defect"] == pytest.approx(max(worst), rel=1e-12)


class TestRoundTrip:
    def test_restriction_reproduces_jet(self, rng):
        m = HolderModulus(0.6)
        jet = normalized_jet(rng, 1, 5, m)
        model = build_extension(jet, ExtensionConfig(modulus=m, M="auto"))
        restricted = model.restriction()
        assert np.allclose(restricted.values, jet.values, atol=1e-9)
        assert np.allclose(restricted.gradients, jet.gradients, atol=5e-2 * (1 + model.M))
        # the restricted jet never needs a larger constant than the M used
        A_back = compute_A(restricted, m)
        assert A_back <= model.M * 1.05 + 1e-6

    def test_monotone_in_M(self, rng):
        m = LinearModulus()
        jet = normalized_jet(rng, 1, 4, m)
        lo, hi = default_domain(jet)
        g1 = Generator(jet, m, 1.0)
        g2 = Generator(jet, m, 2.0)
        xs = rng.uniform(lo[0], hi[0], size=(200, 1))
        assert np.all(g1.value_many(xs) <= g2.value_many(xs) + 1e-12)
        e1 = build_envelope(g1, lo, hi, 2001)
        e2 = build_envelope(g2, lo, hi, 2001)
        assert np.all(e1.value_many(xs) <= e2.value_many(xs) + 1e-9)


class TestTwoDimensional:
    def test_end_to_end_with_cap(self, rng):
        m = LinearModulus()
        jet = normalized_jet(rng, 2, 3, m, spread=0.6)
        cfg = ExtensionConfig(modulus=m, M="auto", lipschitz="auto", resolution=33)
        model = build_extension(jet, cfg)
        rep = verify_extension(model, samples=400, seed=9)
        assert rep.interpolation_max_error <= 10 * model.M * m.omega(model.grid_spacing()) * model.grid_spacing()
        checks = {c.name: c for c in rep.bound_checks}
        assert checks["empirical_A_vs_bound"].passed
        assert checks["lipschitz_cap_upper"].passed

    def test_3d_default_resolution_measures_the_seminorms(self, rng):
        # the pair-separation floor keeps sample pairs in a 33^3 box
        m = LinearModulus()
        jet = normalized_jet(rng, 3, 4, m, spread=0.6)
        model = build_extension(jet, ExtensionConfig(modulus=m))
        rep = verify_extension(model, samples=200, seed=3)
        assert np.isfinite(rep.empirical_A) and np.isfinite(rep.empirical_lip_omega_gradF)
        assert rep.empirical_A > 0.0 and rep.ok

    def test_finite_A_error_names_tangent_pairs(self):
        bad = Jet([[0.0], [1.0]], [0.0, 0.0], [[0.0], [1.0]])
        with pytest.raises(InfeasibleJetError) as err:
            build_extension(bad, ExtensionConfig(modulus=LinearModulus()))
        assert err.value.condition == "condition_CW1"
        assert (0, 1) in [(i, j) for i, j, _ in err.value.pairs] or \
               (1, 0) in [(i, j) for i, j, _ in err.value.pairs]


class TestConfigResolution:
    def test_auto_lipschitz_uses_sup_norm(self):
        cfg = ExtensionConfig(modulus=LinearModulus(), M="auto", lipschitz="auto")
        model = build_extension(HALFSQ, cfg)
        assert model.L == 1.0

    def test_low_explicit_cap_warns(self):
        cfg = ExtensionConfig(modulus=LinearModulus(), M="auto", lipschitz=0.25)
        with pytest.warns(UserWarning, match="below sup"):
            build_extension(HALFSQ, cfg)

    @pytest.mark.parametrize("field, value", [
        ("lipschitz", -1.0), ("lipschitz", np.nan), ("lipschitz", np.inf),
        ("smoothness_K", np.nan), ("smoothness_K", -2.0), ("smoothness_K", 0.0), ("smoothness_K", np.inf),
        ("tol", np.nan), ("tol", -1.0),
    ])
    def test_bad_numeric_field_is_rejected_by_name(self, field, value):
        cfg = ExtensionConfig(modulus=LinearModulus(), **{field: value})
        with pytest.raises(ValueError, match=f"^{field} must be .*, got {value!r}$"):
            build_extension(HALFSQ, cfg)

    def test_smoothness_default_by_kind(self):
        m05 = build_extension(HALFSQ, ExtensionConfig(modulus=HolderModulus(0.5)))
        assert m05.K == pytest.approx(2.0 ** 0.5)
        mlin = build_extension(HALFSQ, ExtensionConfig(modulus=LinearModulus()))
        assert mlin.K == pytest.approx(1.0)

    def test_explicit_K_override(self):
        model = build_extension(HALFSQ, ExtensionConfig(modulus=LinearModulus(), smoothness_K=3.0))
        assert model.K == 3.0
