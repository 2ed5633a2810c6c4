"""Acceptance suite: one test per contract criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines and timings.  Every tolerance is fixed here; nothing is
calibrated at run time.
"""

import time

import numpy as np
import pytest

from convext.c1 import build_construction
from convext.envelope import Generator, build_envelope
from convext.extension import ExtensionConfig, build_extension, verify_extension
from convext.fixtures import (
    power_three_halves_grid_jet,
    single_parabola_jet,
    two_point_power_jet,
)
from convext.jet import (
    compute_A,
    lip_omega_gradients,
    seminorm_A_extrinsic,
    seminorm_A_intrinsic,
)
from convext.modulus import (
    HolderModulus,
    LinearModulus,
    ScaledModulus,
    validate_modulus,
)

from conftest import (
    dense_restriction_jet,
    random_concave_table,
    random_feasible_jet,
)
from oracles import brute_force_envelope


def _report(name, elapsed, detail=""):
    print(f"\n[acceptance] {name}: PASS ({elapsed:.2f} s){'  ' + detail if detail else ''}")


# ---------------------------------------------------------------------------
# shared suite for criteria 4-6 and 8: 100 random feasible 1-D jets,
# normalized to least constant 1, extended at resolution 4001 with the
# Lipschitz cap at sup |G|, and verified with 10^4 sample pairs.

SUITE_SIZE = 100


@pytest.fixture(scope="module")
def extension_suite():
    t0 = time.time()
    rng = np.random.default_rng(20240817)
    suite = []
    for k in range(SUITE_SIZE):
        kind = k % 3
        if kind == 0:
            m = HolderModulus(float(rng.uniform(0.5, 1.0)))
        elif kind == 1:
            m = LinearModulus()
        else:
            m = random_concave_table(rng)
        jet = random_feasible_jet(rng, 1, int(rng.integers(2, 8)))
        jet = jet.scaled(1.0 / compute_A(jet, m))
        cfg = ExtensionConfig(modulus=m, M="auto", lipschitz="auto", resolution=4001)
        model = build_extension(jet, cfg)
        report = verify_extension(model, samples=10_000, seed=int(rng.integers(1 << 30)))
        suite.append((model, report))
    return suite, time.time() - t0


def test_criterion_1_two_point_sharpness():
    """Two-point power jets: closed-form seminorms and the sharp ratio."""
    t0 = time.time()
    for alpha in (0.25, 0.5, 0.75, 1.0):
        jet = two_point_power_jet(alpha)
        m = HolderModulus(alpha)
        A, _ = seminorm_A_intrinsic(jet, m)
        lip = lip_omega_gradients(jet, m)
        assert abs(A - 2.0 / (1.0 + 1.0 / alpha) ** alpha) <= 1e-9
        assert abs(lip - 2.0 ** (1.0 - alpha)) <= 1e-9
        assert abs(lip / A - ((1.0 + alpha) / (2.0 * alpha)) ** alpha) <= 1e-9
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report("criterion 1 (two-point sharpness)", elapsed)


def test_criterion_2_dense_grid_gap():
    """(2/3)|t|^{3/2} on a 401-point grid: lip = sqrt(2), A stays below it."""
    t0 = time.time()
    jet = power_three_halves_grid_jet(n=401, radius=2.0)
    m = HolderModulus(0.5)
    lip = lip_omega_gradients(jet, m)
    A, _ = seminorm_A_intrinsic(jet, m)
    assert abs(lip - np.sqrt(2.0)) <= 1e-9
    assert np.sqrt(4.0 / 3.0) - 1e-3 <= A <= 1.3076
    elapsed = time.time() - t0
    assert elapsed < 5.0
    _report("criterion 2 (dense-grid seminorm gap)", elapsed, f"A={A:.6f}")


def test_criterion_3_route_equivalence():
    """Pairwise-conjugate and witness-ratio routes agree on 500 random jets."""
    t0 = time.time()
    rng = np.random.default_rng(33)
    worst = 0.0
    for _ in range(500):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(2, 9))
        jet = random_feasible_jet(rng, d, n)
        m = LinearModulus() if rng.random() < 0.3 else HolderModulus(float(rng.uniform(0.3, 1.0)))
        A_i, _ = seminorm_A_intrinsic(jet, m)
        A_e = seminorm_A_extrinsic(jet, m)
        gap = abs(A_i - A_e) / (1.0 + A_i)
        worst = max(worst, gap)
        assert gap <= 1e-5
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report("criterion 3 (route equivalence, 500 jets)", elapsed, f"worst gap {worst:.2e}")


def test_criterion_4_interpolation(extension_suite):
    """Values interpolate within the hull tolerance, gradients within
    5e-2 (1 + M), across the whole random suite.  The suite build-and-verify
    time is charged to this criterion."""
    suite, build_time = extension_suite
    t0 = time.time()
    for model, report in suite:
        sp = model.grid_spacing()
        bound = 10.0 * model.M * model.modulus.omega(sp) * sp
        assert report.interpolation_max_error <= bound + 1e-12
        assert report.gradient_max_error <= 5e-2 * (1.0 + model.M)
    elapsed = build_time + time.time() - t0
    assert elapsed < 120.0
    _report(f"criterion 4 (interpolation, {SUITE_SIZE} jets)", elapsed)


def test_criterion_5_growth_bounds(extension_suite):
    """Measured seminorms of (F, grad F) stay below the asserted bounds with
    5 % slack; the power-modulus factors collapse to 1 at exponent 1."""
    suite, _ = extension_suite
    t0 = time.time()
    for model, report in suite:
        m, M = model.modulus, model.M
        alpha = m.holder_exponent
        sp = model.grid_spacing()
        slack = 10.0 * M * m.omega(sp) * sp + 1e-12
        if alpha is not None:
            bound_A = 2.0 ** (1.0 - alpha) * M
            bound_lip = 2.0 ** (1.0 - alpha) * ((1.0 + alpha) / (2.0 * alpha)) ** alpha * M
        else:
            bound_A = 2.0 * M
            bound_lip = (8.0 / 3.0) * M
        assert report.empirical_A <= bound_A * 1.05 + slack
        assert report.empirical_lip_omega_gradF <= bound_lip * 1.05 + slack
        if alpha == 1.0:
            assert bound_A == pytest.approx(M) and bound_lip == pytest.approx(M)
    elapsed = time.time() - t0
    assert elapsed < 20.0
    _report(f"criterion 5 (growth bounds, {SUITE_SIZE} jets)", elapsed)


def test_criterion_6_sharp_lipschitz(extension_suite):
    """The capped envelope is L-Lipschitz, saturates at L, and reproduces
    the closed-form capped parabola."""
    suite, _ = extension_suite
    t0 = time.time()
    for model, report in suite:
        L = model.L
        assert report.empirical_lip_F <= L * (1.0 + 5e-3)
        assert abs(report.empirical_lip_F - L) <= 5e-3 * (1.0 + L)

    cfg = ExtensionConfig(
        modulus=LinearModulus(), M=1.0, lipschitz=1.0,
        domain=(np.array([-3.0]), np.array([3.0])), resolution=4001,
    )
    huber = build_extension(single_parabola_jet(), cfg)
    assert abs(huber.envelope.lipschitz_value([2.0]) - 1.5) <= 5e-3
    elapsed = time.time() - t0
    assert elapsed < 20.0
    _report(f"criterion 6 (sharp Lipschitz constant, {SUITE_SIZE} jets)", elapsed)


def test_criterion_7_envelope_oracle():
    """Hull/LP envelopes agree with the randomized combination oracle."""
    t0 = time.time()
    rng = np.random.default_rng(777)
    worst = 0.0
    for k in range(20):
        d = 1 if k < 10 else 2
        n = int(rng.integers(2, 6))
        m = LinearModulus() if rng.random() < 0.5 else HolderModulus(float(rng.uniform(0.5, 1.0)))
        jet = random_feasible_jet(rng, d, n, spread=0.8)
        jet = jet.scaled(1.0 / compute_A(jet, m))
        gen = Generator(jet, m, 1.0)
        margin = max(1.0, 2.0 * jet.diameter())
        lo = jet.points.min(axis=0) - margin
        hi = jet.points.max(axis=0) + margin
        model = build_envelope(gen, lo, hi, 4001 if d == 1 else 97)
        for _ in range(25):
            x = rng.uniform(lo, hi)
            val = model.value(x)
            oracle = brute_force_envelope(gen, x, 100_000, rng, lo, hi)
            gap = abs(val - oracle) / (1.0 + abs(gen.value(x)))
            worst = max(worst, gap)
            assert gap <= 5e-3
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _report("criterion 7 (oracle equivalence, 20 generators)", elapsed, f"worst gap {worst:.2e}")


def test_criterion_8_uniform_smoothness(extension_suite):
    """Midpoint smoothness: exactly for phi(|.|) in d <= 3, and with
    discretization slack for both envelope variants."""
    t0 = time.time()
    rng = np.random.default_rng(88)

    moduli = [
        HolderModulus(0.25), HolderModulus(0.5), HolderModulus(0.75),
        HolderModulus(1.0), LinearModulus(),
        random_concave_table(rng), ScaledModulus(HolderModulus(0.6), 2.0),
    ]
    for m in moduli:
        alpha = m.holder_exponent
        K = 2.0 if alpha is None else 2.0 ** (1.0 - alpha)
        for d in (1, 2, 3):
            z = rng.normal(scale=2.0, size=(10_000, d))
            hvec = rng.normal(scale=1.5, size=(10_000, d))
            lam = rng.uniform(0.0, 1.0, size=10_000)

            def psi(X):
                return m.phi(np.sqrt(np.sum(X * X, axis=1)))

            lhs = lam * psi(z + (1 - lam)[:, None] * hvec) \
                + (1 - lam) * psi(z - lam[:, None] * hvec) - psi(z)
            rhs = K * lam * (1 - lam) * m.phi(np.sqrt(np.sum(hvec * hvec, axis=1)))
            assert np.all(lhs <= rhs * (1.0 + 1e-10) + 1e-10)

    for model, _ in extension_suite[0][::10]:
        m, M, K = model.modulus, model.M, model.K
        sp = model.grid_spacing()
        slack = 10.0 * M * m.omega(sp) * sp + 1e-12
        lo, hi = model.domain
        z = rng.uniform(lo[0], hi[0], size=10_000)
        hvec = rng.uniform(-1.0, 1.0, size=10_000)
        lam = rng.uniform(0.0, 1.0, size=10_000)
        a, b = z + (1 - lam) * hvec, z - lam * hvec
        keep = (a >= lo[0]) & (a <= hi[0]) & (b >= lo[0]) & (b <= hi[0])
        z, hvec, lam, a, b = z[keep], hvec[keep], lam[keep], a[keep], b[keep]
        rhs = K * M * lam * (1 - lam) * m.phi(np.abs(hvec)) + slack
        for ev in (model.envelope.value_many, model.envelope.lipschitz_value_many):
            lhs = lam * ev(a[:, None]) + (1 - lam) * ev(b[:, None]) - ev(z[:, None])
            assert np.all(lhs <= rhs)
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report("criterion 8 (uniform smoothness)", elapsed)


def test_criterion_9_modulus_construction():
    """The constructed modulus is certified on 50 dense restrictions and the
    jet is feasible for it with constant 2 (2L)^(1-alpha)."""
    t0 = time.time()
    rng = np.random.default_rng(99)
    worst_ratio = 0.0
    for k in range(50):
        jet = dense_restriction_jet(rng)
        alpha = (1.0, 0.75, 0.5)[k % 3]
        cm = build_construction(jet, alpha=alpha)
        assert np.all(cm.delta <= cm.Delta + 1e-9)
        assert np.all(cm.Delta <= 2.0 * cm.L + 1e-9)
        w = cm.omega.omega(cm.t_grid)
        assert np.all(cm.Delta <= (2.0 * cm.L) ** (1.0 - alpha) * w + 1e-9)
        assert validate_modulus(cm.omega, cm.t_grid[::11]).ok
        ratio = cm.t_grid ** alpha / w
        assert np.all(np.diff(ratio) >= -1e-10 * (1.0 + ratio[:-1]))
        A = seminorm_A_extrinsic(jet, cm.omega)
        assert A <= cm.M + 1e-6
        worst_ratio = max(worst_ratio, A / cm.M)
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report("criterion 9 (modulus construction, 50 jets)", elapsed, f"max A/M {worst_ratio:.3f}")
