import numpy as np
import pytest

from bardina_strip.runio import parse_config_text
from bardina_strip.solver import ImexStepper
from bardina_strip.verification import (CheckResult, SuiteReport, compare_nse,
                                        continuous_dependence_study, fit_order,
                                        run_suite, weight_rho_stability)
from bardina_strip.weights import lemma_beta_set


class TestCheckPlumbing:

    def test_upper_bound_comparison(self):
        assert CheckResult("x", 1.0, 2.0).passed
        assert not CheckResult("x", 3.0, 2.0).passed

    def test_lower_bound_comparison(self):
        assert CheckResult("x", 3.0, 2.0, comparison=">=").passed
        assert not CheckResult("x", 1.0, 2.0, comparison=">=").passed

    def test_report_formatting(self):
        rep = SuiteReport("demo")
        rep.add("first", 1.0, 2.0)
        rep.add("second", 5.0, 2.0, note="expected to fail")
        text = rep.format()
        assert "[PASS] first" in text
        assert "[FAIL] second" in text
        assert "FAILURES PRESENT" in text
        assert not rep.passed

    def test_fit_order_recovers_slope(self):
        h = np.array([0.1, 0.05, 0.025])
        err = 3.0 * h ** 2
        assert fit_order(h, err) == pytest.approx(2.0, abs=1e-12)

    def test_unknown_suite(self):
        settings = parse_config_text("nx = 16\n")
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("nonsense", settings)


class TestSuites:

    def test_operators_suite_passes_at_small_resolution(self):
        settings = parse_config_text("nx = 32\nny = 33\n")
        report = run_suite("operators", settings)
        assert report.passed, report.format()

    def test_poincare_suite_passes(self):
        settings = parse_config_text("nx = 32\nny = 33\nepsilon = 0.05\n")
        report = run_suite("poincare", settings)
        assert report.passed, report.format()

    def test_budget_suite_passes_on_unforced_decay(self):
        settings = parse_config_text(
            "nx = 32\nny = 33\ndt = 1e-3\nt_end = 0.2\nnu = 0.01\n"
            "alpha = 0.5\nic.kind = trig_clamped\nic.amplitude = 1.0\n"
            "ic.k1 = 1\n")
        report = run_suite("budget", settings)
        assert report.passed, report.format()

    def test_compactness_suite_passes(self):
        settings = parse_config_text(
            "nx = 32\nny = 33\ndt = 1e-3\nt_end = 0.3\nnu = 0.01\n"
            "alpha = 0.5\nic.kind = trig_clamped\nic.amplitude = 1.0\n"
            "ic.k1 = 1\n")
        report = run_suite("compactness", settings)
        assert report.passed, report.format()

    def test_compactness_suite_keeps_its_cadence_at_an_odd_step_count(self):
        # the 129th state is one step after the 128th: a lag of two steps
        # would count it twice as far, so the modulus must leave it out
        slopes = []
        for t_end in ("0.128", "0.129"):
            settings = parse_config_text(
                f"nx = 32\nny = 33\ndt = 1e-3\nt_end = {t_end}\nnu = 0.01\n"
                "alpha = 0.5\nic.kind = trig_clamped\nic.amplitude = 1.0\n")
            slopes.append(run_suite("compactness", settings).results[0].measured)
        assert slopes[1] == slopes[0]

    def test_weights_suite_growth_branch(self):
        settings = parse_config_text("gamma = 1.0\n", allow_gamma_override=True)
        report = run_suite("weights", settings)
        assert report.passed, report.format()
        assert report.results[0].note.endswith(
            "; max C_s rho 1: 12.0994, rho 10: 25.3572, rho 100: 97.3909")

    def test_weights_suite_notes_the_constants_at_each_radius(self):
        report = run_suite("weights", parse_config_text(""))
        ratios = [r for r in report.results if "rho ratio" in r.name]
        assert len(ratios) == 16
        for res in ratios:
            name, table = res.note.split(" ", 1)
            assert name == ("C_s" if res.name.startswith("strong") else "C_w")
            rhos, consts = zip(*(part.split(": ") for part in table.split(", ")))
            assert rhos == ("rho 1", "rho 10", "rho 100")
            # the notes print four decimals; every constant here is above 0.04
            assert float(consts[2]) / float(consts[0]) == pytest.approx(res.measured,
                                                                        rel=5e-3)

    def test_weight_constants_on_a_wide_box_are_measured(self):
        # at epsilon = 10 the strip |x2| <= 1 is |y2| <= 10, across the blend
        # of rho = 1 and rho = 10: a lattice too coarse there reads 0 for the
        # (0, 1), (1, 1) and (2, 1) constants at rho = 1
        reports = weight_rho_stability(epsilon=10.0, m=1.0)
        for beta in lemma_beta_set():
            for form in ("c_strong", "c_weak"):
                c1, c10, c100 = (getattr(reports[rho], form)[beta] for rho in (1.0, 10.0, 100.0))
                assert min(c1, c10, c100) > 0 and c100 / c1 <= 1e3, (beta, form)

    def test_alpha_sweep_suite_passes(self):
        settings = parse_config_text("nx = 32\nny = 33\n")
        report = run_suite("alpha_sweep", settings)
        assert report.passed, report.format()
        # the monotonicity line notes the distance at each alpha
        note = report.results[0].note
        assert [part.split(":")[0] for part in note.split(", ")] == [
            "alpha 0.4", "alpha 0.2", "alpha 0.1", "alpha 0.05"]

    def test_mms_suite_passes(self):
        settings = parse_config_text("nx = 16\nny = 33\nscheme = imex_cnab2\n")
        report = run_suite("mms", settings)
        assert report.passed, report.format()

    def test_compare_nse_zero_alpha_difference_vanishes(self):
        settings = parse_config_text(
            "nx = 32\nny = 33\ndt = 2e-3\nt_end = 0.1\nnu = 0.02\n"
            "ic.kind = trig_clamped\nic.amplitude = 1.0\nic.k1 = 1\n")
        diffs, _slope = compare_nse(settings.solver, [0.0])
        assert diffs[0] == 0.0


class TestStudies:

    def test_continuous_dependence_shares_one_stepper(self, monkeypatch):
        built = []
        init = ImexStepper.__init__

        def counting_init(self, config):
            built.append(config)
            init(self, config)

        monkeypatch.setattr(ImexStepper, "__init__", counting_init)
        deltas, ratios = continuous_dependence_study()
        assert len(built) == 1
        assert deltas == [1e-3, 1e-4]
        assert all(r > 0 for r in ratios)
