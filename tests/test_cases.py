"""Pinned regression cases for the divergence-ordering constructions."""

import math

import pytest

from jsda import CaseReport, counterexample1, counterexample2, interleaved_uniforms
from jsda.pmf import DistributionError


class TestDisjointInterleaving:
    def test_default_xi_passes(self):
        rep = counterexample1(1.0 / 12.0)
        assert rep.verdict
        assert rep.computed["js_base2"] == 1.0
        assert rep.computed["threshold_divergence"] < 1.0

    def test_construction_counts(self):
        t, s = interleaved_uniforms(1.0 / 12.0)
        assert len(t) == 7 and len(s) == 6
        assert set(t.coords).isdisjoint(s.coords)
        assert max(t.coords) <= 1.0 and max(s.coords) <= 1.0

    @pytest.mark.parametrize("xi", [0.3, 0.05, 0.009])
    def test_js_saturates_for_any_xi(self, xi):
        rep = counterexample1(xi)
        assert rep.computed["js_base2"] == 1.0
        assert rep.verdict

    def test_threshold_value_is_order_xi_not_xi(self):
        # the exact sweep over the finite supports gives 1/7 at xi = 1/12
        rep = counterexample1(1.0 / 12.0)
        assert rep.computed["threshold_divergence"] == pytest.approx(1.0 / 7.0,
                                                                     abs=1e-12)

    def test_xi_out_of_range(self):
        with pytest.raises(DistributionError):
            counterexample1(0.0)
        with pytest.raises(DistributionError):
            counterexample1(1.0)


class TestSameSupportReweighting:
    def test_pinned_numbers(self):
        rep = counterexample2()
        assert rep.verdict
        assert rep.computed["threshold_divergence"] == pytest.approx(1 / 12, abs=1e-12)
        assert rep.computed["js_base2"] == pytest.approx(0.0207, abs=5e-4)
        assert rep.computed["kl_source_vs_mixture_base2"] == pytest.approx(0.02110,
                                                                           abs=5e-5)
        assert rep.computed["kl_target_vs_mixture_base2"] == pytest.approx(0.02032,
                                                                           abs=5e-5)

    def test_js_below_threshold_divergence(self):
        rep = counterexample2()
        assert rep.checks["js_below_threshold_divergence"]

    def test_report_rows_shape(self):
        rows = counterexample2().rows()
        assert all({"case", "quantity", "computed", "ok"} <= set(r) for r in rows)
        assert all(r["ok"] for r in rows)

    def test_missed_expectation_fails_the_case(self):
        rep = CaseReport("missed", computed={"q": 0.5}, expected={"q": (0.4, 0.05)},
                         checks={"holds": True})
        assert not rep.verdict
        assert [r["ok"] for r in rep.rows()] == [False, True]


def test_case_divergence_values_bases():
    from jsda.cases import case_divergence_values

    vals_e = dict(case_divergence_values("e"))
    vals_2 = dict(case_divergence_values("2"))
    assert vals_2["JS"] == pytest.approx(vals_e["JS"] / math.log(2), abs=1e-12)
