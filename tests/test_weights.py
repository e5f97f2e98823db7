import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bardina_strip.diagnostics import DiagnosticsCollector
from bardina_strip.operators import OperatorSet
from bardina_strip.strip_grid import Field, StripDomain, l2_norm, make_grid
from bardina_strip.weights import (WeightSpec, certify_lemma_wfuncs,
                                   certify_phi_control, g_profile,
                                   lemma_beta_set, make_weight_field,
                                   phi_limit, varphi)

GAMMA = 2.0 / 3.0


def _record(f, spec):
    """One collector record of ``f``; its weighted columns are the weighted norms.

    With ``nu = alpha = 1``: ``E_w = |psi grad f|^2 + |psi d1 grad f|^2``,
    ``D_w = |psi lap f|^2 + |psi d1 lap f|^2`` and ``norm_h2h_gamma^2 =
    |psi f|^2 + E_w``.
    """
    grid = f.grid
    collector = DiagnosticsCollector(ops=OperatorSet(grid), nu=1.0,
                                     alpha=1.0, weight=make_weight_field(grid, spec),
                                     g=lambda t: np.zeros(grid.shape))
    return collector.record(0.0, f, cfl=0.0)


class TestSpecValidation:

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ValueError):
            WeightSpec(epsilon=0.0)

    def test_rejects_small_rho(self):
        with pytest.raises(ValueError):
            WeightSpec(epsilon=0.1, rho=0.5)


class TestProfile:

    def test_origin_value(self):
        assert g_profile(0.0, 5.0) == 0.25

    def test_branches_meet_at_half(self):
        assert g_profile(0.5, 3.0) == pytest.approx(0.5, abs=1e-15)
        assert g_profile(0.5 + 1e-12, 3.0) == pytest.approx(0.5, abs=1e-11)

    def test_plateau(self):
        rho = 4.0
        assert g_profile(rho + 1.0, rho) == pytest.approx(rho + 0.5, abs=1e-14)
        assert g_profile(rho + 7.0, rho) == pytest.approx(rho + 0.5, abs=1e-14)

    @pytest.mark.parametrize("junction", [0.5, 3.0, 4.0])
    def test_continuously_differentiable(self, junction):
        rho = 3.0
        h = 1e-6
        left = (g_profile(junction, rho) - g_profile(junction - h, rho)) / h
        right = (g_profile(junction + h, rho) - g_profile(junction, rho)) / h
        assert left == pytest.approx(right, abs=5e-6)

    def test_rejects_negative_tau(self):
        with pytest.raises(ValueError, match="tau"):
            g_profile(-0.1, 2.0)

    def test_rejects_bad_rho(self):
        with pytest.raises(ValueError, match="rho"):
            g_profile(1.0, 0.3)

    @settings(deadline=None, max_examples=50)
    @given(tau=st.floats(0, 50), rho1=st.floats(1, 20), rho2=st.floats(1, 20))
    def test_monotone_in_rho(self, tau, rho1, rho2):
        lo, hi = sorted([rho1, rho2])
        assert g_profile(tau, hi) >= g_profile(tau, lo) - 1e-12


class TestWeightValues:

    def test_limit_weight_at_origin(self):
        spec = WeightSpec(epsilon=0.3, gamma=GAMMA)
        assert phi_limit(0.0, 0.0, spec) == 1.0

    def test_limit_weight_sample(self):
        spec = WeightSpec(epsilon=1.0, gamma=1.0)
        assert phi_limit(1.0, 1.0, spec) == pytest.approx(3.0, rel=1e-15)

    def test_cutoff_at_origin(self):
        spec = WeightSpec(epsilon=0.2, rho=2.0, gamma=GAMMA)
        assert varphi(0.0, 0.0, spec) == 1.0

    def test_far_field_plateau(self):
        spec = WeightSpec(epsilon=1.0, rho=2.0, gamma=GAMMA)
        expected = (2.5) ** (2 * GAMMA)
        assert varphi(50.0, 0.0, spec) == pytest.approx(expected, rel=1e-14)
        assert varphi(500.0, 0.3, spec) == pytest.approx(expected, rel=1e-14)

    def test_matches_limit_inside_cutoff_exactly(self):
        spec = WeightSpec(epsilon=0.5, rho=7.0, gamma=GAMMA)
        limit = WeightSpec(epsilon=0.5, gamma=GAMMA)
        x1 = np.linspace(-5, 5, 41)
        x2 = np.linspace(-1, 1, 11)
        r = np.sqrt(1 + np.abs(0.5 * x1[:, None]) ** 3 + (0.5 * x2[None, :]) ** 2)
        inside = r <= 7.0
        a = varphi(x1[:, None], x2[None, :], spec)
        b = phi_limit(x1[:, None], x2[None, :], limit)
        assert np.all(a[inside] == b[inside])

    @settings(deadline=None, max_examples=50)
    @given(x1=st.floats(-100, 100), x2=st.floats(-1, 1),
           rho1=st.floats(1, 30), rho2=st.floats(1, 30))
    def test_monotone_in_rho(self, x1, x2, rho1, rho2):
        lo, hi = sorted([rho1, rho2])
        s_lo = WeightSpec(epsilon=0.3, rho=lo, gamma=GAMMA)
        s_hi = WeightSpec(epsilon=0.3, rho=hi, gamma=GAMMA)
        assert varphi(x1, x2, s_hi) >= varphi(x1, x2, s_lo) - 1e-12

    def test_weight_field_invariants(self, medium_grid):
        phi = make_weight_field(medium_grid, WeightSpec(epsilon=0.4, rho=3.0,
                                                        gamma=GAMMA))
        assert isinstance(phi, np.ndarray)
        assert phi.dtype == np.float64 and phi.shape == medium_grid.shape
        assert np.all(phi >= 1.0)

    @pytest.mark.parametrize("rho", [1.0, 10.0, math.inf])
    def test_weight_field_is_the_two_branch_formula_bit_for_bit(self, rho):
        # on the 32 pi box at epsilon 0.5 the radical reaches about 354, so
        # the identity, the blend and the plateau of the profile all hold nodes
        grid = make_grid(StripDomain(lx=32 * np.pi, m=1.0), 512, 33)
        x1, x2 = grid.mesh()
        s = 1.0 + np.abs(0.5 * x1) ** 3 + (0.5 * x2) ** 2
        expected = s ** GAMMA
        if rho < math.inf:
            r = np.sqrt(s)
            assert (r <= rho).any() and ((r > rho) & (r < rho + 1)).any()
            assert (r > rho + 1).any()
            expected = np.where(r <= rho, expected, g_profile(r, rho) ** (2 * GAMMA))
        phi = make_weight_field(grid, WeightSpec(epsilon=0.5, rho=rho, gamma=GAMMA))
        assert np.array_equal(phi, expected)

    @pytest.mark.parametrize("rho", [10.0, math.inf])
    def test_weight_field_peak_memory(self, rho):
        # the design holds one float field, raised to gamma in place, and at
        # most two boolean masks of an eighth of a field each beside it
        grid = make_grid(StripDomain(lx=2 * np.pi, m=1.0), 512, 513)
        tracemalloc.start()
        try:
            phi = make_weight_field(grid, WeightSpec(epsilon=0.1, rho=rho))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - phi.nbytes <= 0.5 * phi.nbytes

    def test_weight_field_overflow_names_gamma(self, medium_grid):
        # the limit weight reaches about 207^gamma on the 2 pi box at epsilon 1
        with pytest.raises(ValueError, match="epsilon = 1, gamma = 200"):
            make_weight_field(medium_grid, WeightSpec(epsilon=1.0, gamma=200.0))


class TestWeightedNorms:

    def test_zero_field(self, medium_grid):
        z = Field(medium_grid, np.zeros(medium_grid.shape))
        rec = _record(z, WeightSpec(epsilon=0.1, rho=5.0, gamma=GAMMA))
        weighted = (rec.energy_w, rec.dissipation_w, rec.norm_h2h_gamma,
                    rec.norm_h3h_gamma)
        assert all(v == 0.0 for v in weighted)

    def test_degenerate_gamma_matches_unweighted(self, medium_grid, rng):
        f = Field(medium_grid, rng.standard_normal(medium_grid.shape))
        rec = _record(f, WeightSpec(epsilon=0.1, rho=5.0, gamma=0.0))
        ops = OperatorSet(medium_grid)
        ladder = ops.ladder(f.values)
        lap, d1_lap = Field(medium_grid, ladder[5]), Field(medium_grid, ladder[6])
        assert rec.energy_w == pytest.approx(rec.energy, rel=1e-13)
        assert rec.dissipation_w == pytest.approx(rec.dissipation, rel=1e-13)
        assert rec.norm_h2h_gamma ** 2 == pytest.approx(
            l2_norm(f) ** 2 + rec.energy, rel=1e-13)
        assert rec.dissipation_w == pytest.approx(
            l2_norm(lap) ** 2 + l2_norm(d1_lap) ** 2, rel=1e-13)

    def test_against_fine_grid_quadrature(self):
        spec = WeightSpec(epsilon=1.0, gamma=GAMMA)  # limit weight, strong variation

        def compute(ny):
            grid = make_grid(StripDomain(2.0 * np.pi, 1.0), 16, ny)
            x1, x2 = grid.mesh()
            f = Field(grid, np.sin(x1) * (1 - x2 ** 2) ** 2, clamped=True)
            rec = _record(f, spec)
            return rec.norm_h2h_gamma ** 2 - rec.energy_w  # |psi f|^2

        coarse, fine, finest = compute(17), compute(33), compute(257)
        assert abs(coarse - finest) > abs(fine - finest)
        assert abs(fine - finest) <= 4e-4 * finest


class TestCertification:

    def test_rejects_zero_beta(self):
        spec = WeightSpec(epsilon=0.1, rho=2.0, gamma=GAMMA)
        with pytest.raises(ValueError, match=r"\(0, 0\)"):
            certify_lemma_wfuncs(spec, betas=[(0, 0)])

    def test_rejects_third_vertical_derivative(self):
        spec = WeightSpec(epsilon=0.1, rho=2.0, gamma=GAMMA)
        with pytest.raises(ValueError, match="beta2"):
            certify_lemma_wfuncs(spec, betas=[(0, 3)])

    def test_rejects_limit_weight(self):
        with pytest.raises(ValueError, match="finite rho"):
            certify_lemma_wfuncs(WeightSpec(epsilon=0.1, gamma=GAMMA))

    def test_fd_oracle_matches_analytic_constants(self):
        # at the origin the pure-x2 second derivative of psi^2 equals
        # 2 gamma eps^2 psi exactly, so C_emp((0,2)) = 2 gamma
        spec = WeightSpec(epsilon=0.1, rho=10.0, gamma=GAMMA)
        rep = certify_lemma_wfuncs(spec, betas=[(0, 2)])
        assert rep.c_strong[(0, 2)] == pytest.approx(2 * GAMMA, abs=0.01)

    def test_constants_are_pinned_bit_for_bit(self):
        # a change to the difference stencils or their order of summation
        # moves these bits; (1, 2) differences along both axes
        spec = WeightSpec(epsilon=0.1, rho=10.0, gamma=GAMMA)
        rep = certify_lemma_wfuncs(spec, betas=[(2, 0), (1, 2)])
        assert rep.c_strong[(2, 0)].hex() == "0x1.aaed74b659672p+2"
        assert rep.c_weak[(1, 2)].hex() == "0x1.7e44e714055f3p-2"

    def test_first_derivative_constant_saturates(self):
        spec = WeightSpec(epsilon=0.1, rho=100.0, gamma=GAMMA)
        rep = certify_lemma_wfuncs(spec, betas=[(1, 0)])
        assert rep.c_strong[(1, 0)] == pytest.approx(3 * GAMMA, abs=0.05)

    def test_strong_form_stability_profile_across_rho(self):
        # All admissible indices stabilize between rho = 10 and rho = 100
        # except the pure-x1 second derivative, whose constant grows like
        # rho^(1/3): the blend region contributes
        # 2 gamma g^(2 gamma - 1) |g''| (d1 r)^2 with (d1 r)^2 ~ eps^2 rho^(2/3).
        reports = {rho: certify_lemma_wfuncs(WeightSpec(epsilon=0.1, rho=rho,
                                                        gamma=GAMMA))
                   for rho in (10.0, 100.0)}
        for beta in lemma_beta_set():
            ratio = reports[100.0].c_strong[beta] / reports[10.0].c_strong[beta]
            if beta == (2, 0):
                assert 1.8 <= ratio <= 2.5  # ~ (100/10)^(1/3)
            else:
                assert ratio <= 1.3

    def test_weak_form_never_grows_with_rho(self):
        # normalized against psi^2 every index is uniformly controlled: the
        # constant may shrink as the blend region moves out but never grows
        reports = {rho: certify_lemma_wfuncs(WeightSpec(epsilon=0.1, rho=rho,
                                                        gamma=GAMMA))
                   for rho in (1.0, 10.0, 100.0)}
        for beta in lemma_beta_set():
            c1, c10, c100 = (reports[r].c_weak[beta] for r in (1.0, 10.0, 100.0))
            assert c100 <= 2.0 * c1
            assert c100 <= 1.1 * c10  # stabilized well before the largest radius

    def test_aggregate_grows_above_threshold(self):
        reports = {}
        for rho in (1.0, 100.0):
            spec = WeightSpec(epsilon=0.1, rho=rho, gamma=1.0)
            reports[rho] = certify_lemma_wfuncs(spec)
        ratio = reports[100.0].aggregate_strong / reports[1.0].aggregate_strong
        assert ratio >= 3.0


class TestLimitWeightControl:

    def test_explicit_first_derivative_constant(self):
        spec = WeightSpec(epsilon=0.1, gamma=GAMMA)
        rep = certify_phi_control(spec, betas=[(1, 0)], x1_extent=400.0)
        assert rep.c_strong[(1, 0)] <= 3.0

    def test_second_order_bounded_below_four_thirds(self):
        spec = WeightSpec(epsilon=0.1, gamma=1.2)
        betas = [(2, 0), (1, 1), (0, 2)]
        small = certify_phi_control(spec, betas=betas, x1_extent=200.0)
        large = certify_phi_control(spec, betas=betas, x1_extent=400.0, n1=8193)
        for beta in betas:
            assert large.c_strong[beta] <= 1.2 * small.c_strong[beta]

    def test_first_derivative_grows_above_threshold(self):
        # the sharp exponent threshold lives at first order: beyond it the
        # constant grows like extent^(3 gamma / 2 - 1)
        spec = WeightSpec(epsilon=0.1, gamma=1.2)
        small = certify_phi_control(spec, betas=[(1, 0)], x1_extent=100.0)
        large = certify_phi_control(spec, betas=[(1, 0)], x1_extent=400.0, n1=8193)
        assert large.c_strong[(1, 0)] >= 1.5 * small.c_strong[(1, 0)]

    def test_third_derivative_constant_decays_above_threshold(self):
        # pure third-derivative constants fall off like |x1|^(3(gamma-2)/2),
        # so no growth is seen there even above the first-order threshold
        spec = WeightSpec(epsilon=0.1, gamma=1.2)
        small = certify_phi_control(spec, betas=[(3, 0)], x1_extent=100.0)
        large = certify_phi_control(spec, betas=[(3, 0)], x1_extent=400.0, n1=8193)
        assert large.c_strong[(3, 0)] <= 1.1 * small.c_strong[(3, 0)]
