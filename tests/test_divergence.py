"""Divergence tests: pinned values, sweep oracle, metric/inequality properties."""

import math
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jsda import (
    DistributionError,
    JointPmf,
    Pmf,
    conditionals,
    divergence,
    entropy,
    h_divergence_1d,
    half_total_variation,
    js_distance,
    js_divergence,
    kl_divergence,
    mixture,
    pushforward,
    total_variation,
)
from jsda.bounds import BoundInputError, _conditional_terms
from jsda.cases import counterexample1, interleaved_uniforms
from jsda.divergence import _exact_prefix_sums, _js


def random_pmf(rng, n=None):
    n = n or int(rng.integers(2, 9))
    probs = rng.uniform(1e-6, 1.0, n)
    return Pmf(tuple(range(n)), probs / math.fsum(probs.tolist()))


def as_points(d):
    """Coordinate -> merged mass, tied coordinates summed in first-seen order."""
    pts = {}
    for c, m in zip(d.coords, d.probs.tolist()):
        pts[c] = pts.get(c, 0.0) + m
    return pts


def h_divergence_rescan(p, q):
    """Reference: fsum every atom below every threshold, each coordinate and +inf (O(n^2))."""
    pp, qq = as_points(p), as_points(q)
    best = 0.5
    for t in [*sorted(set(pp) | set(qq)), math.inf]:
        p_below = math.fsum(m for c, m in pp.items() if c < t)
        q_below = math.fsum(m for c, m in qq.items() if c < t)
        err_a = 0.5 * (1.0 - p_below) + 0.5 * q_below
        best = min(best, err_a, 1.0 - err_a)
    return 1.0 - 2.0 * best


def fraction_prefix_sums(masses):
    """Reference: float() of each exact Fraction prefix sum."""
    return [0.0, *map(float, accumulate(Fraction(m) for m in masses))]


def h_divergence_fraction_sweep(p, q):
    """Reference: every split of the sorted coordinates, with Fraction prefix sums."""
    pp, qq = as_points(p), as_points(q)
    coords = sorted(set(pp) | set(qq))
    p_cum = fraction_prefix_sums([pp.get(c, 0.0) for c in coords])
    q_cum = fraction_prefix_sums([qq.get(c, 0.0) for c in coords])
    best = 0.5
    for p_below, q_below in zip(p_cum, q_cum):
        err_a = 0.5 * (1.0 - p_below) + 0.5 * q_below
        best = min(best, err_a, 1.0 - err_a)
    return 1.0 - 2.0 * best


def random_points(rng, pool):
    """A Pmf on points drawn from pool (ties likely, merged into one atom), some masses zero."""
    n = int(rng.integers(1, 25))
    probs = rng.random(n) * (rng.random(n) < 0.7)
    probs[int(rng.integers(n))] += 0.1
    pts = {}
    for c, m in zip(rng.choice(pool, n).tolist(), (probs / math.fsum(probs.tolist())).tolist()):
        pts[c] = pts.get(c, 0.0) + m
    return Pmf(tuple(pts), np.array(list(pts.values())))


def float_step(x, k):
    """x moved k floats up (k > 0) or down (k < 0)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


EDGE_FLOATS = [0.0, 5e-324, -5e-324, 2.0**-1022, 1.0, -1.0, 0.1, 2.0**53, 1e308, -1e308]
base_floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(-1e308, 1e308))


@st.composite
def point_pairs(draw):
    """Two Pmfs on float atoms near up to three shared bases: float neighbours are
    likely, as are subnormals, zeros, +-1e308 and zero-mass atoms."""
    bases = draw(st.lists(base_floats, min_size=1, max_size=3))
    picks = st.tuples(st.integers(0, len(bases) - 1), st.integers(-2, 2),
                      st.one_of(st.just(0.0), st.floats(0.0, 1.0)))

    def pmf():
        pts = {}
        for i, k, m in draw(st.lists(picks, min_size=1, max_size=8)):
            pts.setdefault(float_step(bases[i], k), m)
        m = list(pts.values())
        if math.fsum(m) == 0.0:
            m[0] = 1.0
        return Pmf(tuple(pts), np.array(m) / math.fsum(m))

    return pmf(), pmf()


def random_sparse_joint(rng, nx, ny):
    """A joint whose grid often has zero cells, an all-zero row and column."""
    mass = rng.random((nx, ny)) * (rng.random((nx, ny)) < 0.8)
    if rng.random() < 0.5:
        mass[int(rng.integers(nx)), :] = 0.0
    if rng.random() < 0.5:
        mass[:, int(rng.integers(ny))] = 0.0
    mass[int(rng.integers(nx)), int(rng.integers(ny))] += 0.1
    return JointPmf(tuple(range(nx)), tuple(range(ny)),
                    mass / math.fsum(mass.ravel().tolist()))


def js_two_pass(p, q, log):
    """Reference: 1/2[KL(p||m) + KL(q||m)] with the mixture m = (p + q)/2 built first."""
    def kl(a, m):
        terms = []
        for ai, mi in zip(a.tolist(), m.tolist()):
            if ai > 0.0:
                if mi <= 0.0:
                    return math.inf
                terms.append(ai * log(ai / mi))
        return math.fsum(terms)

    m = 0.5 * (p + q)
    return 0.5 * (kl(p, m) + kl(q, m))


def sparse_probs(rng, n):
    probs = rng.random(n) * (rng.random(n) < 0.75)
    probs[int(rng.integers(n))] += 0.1
    return probs / math.fsum(probs.tolist())


class TestDivergenceValues:
    def test_js_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = random_pmf(rng)
            assert js_divergence(p, p, "2") == 0.0

    def test_disjoint_supports_saturate_base2(self):
        p = Pmf(tuple(range(0, 14, 2)), np.full(7, 1.0 / 7.0))
        q = Pmf(tuple(range(1, 13, 2)), np.full(6, 1.0 / 6.0))
        assert js_divergence(p, q, "2") == 1.0
        assert js_divergence(p, q, "e") == pytest.approx(math.log(2), abs=1e-15)

    def test_reweighting_case_components(self):
        s = Pmf((1, 2, 3), np.full(3, 1.0 / 3.0))
        t = Pmf((1, 2, 3), np.array([0.25, 0.5, 0.25]))
        m = mixture(t, s)
        assert divergence("KL", s, m, "2").value == pytest.approx(0.02110, abs=5e-5)
        assert divergence("KL", t, m, "2").value == pytest.approx(0.02032, abs=5e-5)
        assert js_divergence(t, s, "2") == pytest.approx(0.0207, abs=5e-4)

    def test_unsupported_base_is_an_error(self):
        p = Pmf((0, 1), np.array([0.25, 0.75]))
        for base in ("10", 2, math.e):
            with pytest.raises(DistributionError, match="unsupported log base"):
                divergence("JS", p, p, base)
            with pytest.raises(DistributionError, match="unsupported log base"):
                entropy(p, base)

    def test_one_pass_js_equals_two_pass_reference(self):
        rng = np.random.default_rng(41)
        for trial in range(420):
            n = int(rng.integers(2, 11)) if trial % 7 else int(rng.integers(11, 1601))
            n = 1600 if trial == 0 else n
            p = sparse_probs(rng, n)
            if trial % 3 == 0:
                q = sparse_probs(rng, n)
            else:  # near-equal: the same zeros, masses a relative 1e-9 or 1e-15 apart
                q = p * (1.0 + 10.0 ** -(9 + 6 * (trial % 3 - 1)) * rng.standard_normal(n))
                q /= math.fsum(q.tolist())
            for log in (math.log, math.log2):
                assert _js(p.tolist(), q.tolist(), log) == js_two_pass(p, q, log)
                assert _js(q.tolist(), p.tolist(), log) == js_two_pass(q, p, log)

    def test_subnormal_atom_keeps_js_finite(self):
        p = Pmf((0, 1), np.array([5e-324, 1.0]))
        q = Pmf((0, 1), np.array([0.0, 1.0]))
        for base, cap in (("e", math.log(2.0)), ("2", 1.0)):
            for a, b in ((p, q), (q, p)):
                value = js_divergence(a, b, base)
                assert math.isfinite(value) and 0.0 <= value <= cap

    def test_kl_non_domination_is_infinite_not_an_error(self):
        p = Pmf((0, 1), np.array([0.5, 0.5]))
        q = Pmf((0, 1), np.array([1.0, 0.0]))
        assert divergence("KL", p, q).value == math.inf
        assert divergence("Renyi2", p, q).value == math.inf

    def test_renyi2_matches_direct_sum(self):
        rng = np.random.default_rng(1)
        p = random_pmf(rng, 5)
        q = random_pmf(rng, 5)
        oracle = math.log(sum(pi * pi / qi for pi, qi in zip(p.probs, q.probs)))
        assert divergence("Renyi2", p, q).value == pytest.approx(oracle, abs=1e-12)

    def test_tv_is_base_free_sum_of_abs(self):
        p = Pmf((0, 1), np.array([0.9, 0.1]))
        q = Pmf((0, 1), np.array([0.1, 0.9]))
        assert total_variation(p, q) == pytest.approx(1.6, abs=1e-15)
        assert half_total_variation(p, q) == pytest.approx(0.8, abs=1e-15)

    def test_kl_is_asymmetric_js_symmetric(self):
        p = Pmf((0, 1), np.array([0.8, 0.2]))
        q = Pmf((0, 1), np.array([0.4, 0.6]))
        assert kl_divergence(p, q) != kl_divergence(q, p)
        assert js_divergence(p, q) == pytest.approx(js_divergence(q, p), abs=1e-15)

    def test_shape_mismatch(self):
        p = Pmf((0, 1), np.array([0.5, 0.5]))
        with pytest.raises(DistributionError):
            divergence("JS", p, "not a pmf")  # type: ignore[arg-type]


class TestThresholdDivergence:
    def test_identical_distributions(self):
        p = Pmf((0.0, 1.0, 2.0), np.array([0.2, 0.3, 0.5]))
        assert h_divergence_1d(p, p) == pytest.approx(0.0, abs=1e-15)

    def test_reweighting_case_value(self):
        s = Pmf((1.0, 2.0, 3.0), np.full(3, 1.0 / 3.0))
        t = Pmf((1.0, 2.0, 3.0), np.array([0.25, 0.5, 0.25]))
        assert h_divergence_1d(t, s) == pytest.approx(1.0 / 12.0, abs=1e-12)

    def test_missing_coordinates(self):
        # grid atoms are points of the plane, not of the line
        p = Pmf(((0.0, 0.0), (1.0, 0.0)), np.array([0.5, 0.5]))
        with pytest.raises(DistributionError, match="coordinates"):
            h_divergence_1d(p, p)

    def test_matches_cdf_gap_oracle(self):
        # sup_t |P(x<t) - Q(x<t)| is the same quantity, computed independently
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            coords = tuple(np.sort(rng.uniform(-3, 3, n)).tolist())
            p = random_pmf(rng, n)
            q = random_pmf(rng, n)
            p = Pmf(coords, p.probs)
            q = Pmf(coords, q.probs)
            cdf_gap = float(np.max(np.abs(np.cumsum(p.probs) - np.cumsum(q.probs))))
            assert h_divergence_1d(p, q) == pytest.approx(cdf_gap, abs=1e-12)

    def test_tied_coordinates_merge(self):
        # distinct atoms 2**53 and 2**53 + 1 are the same float, so no threshold splits them
        p = Pmf((2**53 + 1, 0, 2**53), np.array([0.2, 0.5, 0.3]))
        q = Pmf((0.0, 2.0**53), np.array([0.5, 0.5]))
        assert h_divergence_1d(p, q) == 0.0
        assert h_divergence_1d(q, p) == 0.0

    def test_adjacent_floats_are_separated(self):
        # the threshold t = nextafter(1.0, 2) puts 1.0 below it and itself above
        p = Pmf((1.0,), np.array([1.0]))
        q = Pmf((math.nextafter(1.0, 2.0),), np.array([1.0]))
        assert h_divergence_1d(p, q) == 1.0
        assert h_divergence_1d(q, p) == 1.0

    def test_sorted_sweep_equals_rescan(self):
        s = Pmf((1.0, 2.0, 3.0), np.full(3, 1.0 / 3.0))
        t = Pmf((1.0, 2.0, 3.0), np.array([0.25, 0.5, 0.25]))
        assert h_divergence_1d(t, s) == h_divergence_rescan(t, s)
        assert h_divergence_1d(t, s) == pytest.approx(1.0 / 12.0, abs=1e-12)
        rng = np.random.default_rng(21)
        for _ in range(400):
            base = float(rng.choice([0.0, 1.0, 0.1, 1e16]))
            # integer offsets tie at 1e16; adjacent floats need the threshold on an atom
            up = np.nextafter(base, np.inf)
            pool = np.concatenate([base + rng.integers(-4, 5, 8), [up, np.nextafter(up, np.inf)],
                                   rng.normal(base, 1.0, 6)])
            p, q = random_points(rng, pool), random_points(rng, pool)
            assert h_divergence_1d(p, q) == h_divergence_rescan(p, q)
            assert h_divergence_1d(q, p) == h_divergence_rescan(q, p)

    def test_exact_prefix_sums_equal_fraction_oracle(self):
        rng = np.random.default_rng(23)
        kinds = [
            lambda n: np.zeros(n),
            lambda n: rng.integers(0, 9, n) * 5e-324,  # subnormal multiples
            lambda n: rng.random(n) * 2.0 ** -1000,
            lambda n: rng.random(n) / n,
        ]
        for _ in range(200):
            n = int(rng.integers(1, 300))
            picks = rng.integers(len(kinds), size=n)
            masses = np.choose(picks, [kind(n) for kind in kinds]).tolist()
            assert _exact_prefix_sums(masses).tolist() == fraction_prefix_sums(masses)
        masses = (rng.random(4000) / 2000).tolist()
        assert _exact_prefix_sums(masses).tolist() == fraction_prefix_sums(masses)

    def test_interleaving_at_scale_equals_fraction_sweep(self):
        # about 2,000 atoms per side; the rescan oracle is too slow at this size
        for n in range(3990, 4011):
            t, s = interleaved_uniforms(1.0 / n)
            expected = {"js_base2": 1.0, "threshold_divergence": h_divergence_fraction_sweep(t, s)}
            assert counterexample1(1.0 / n).computed == expected

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_separating_threshold_where_midpoint_sum_overflows(self, sign):
        # 1e308 + 1.5e308 overflows, yet the float threshold 1.25e308 separates
        p = Pmf((sign * 1e308,), np.array([1.0]))
        q = Pmf((sign * 1.5e308, sign * 1.7e308), np.array([0.5, 0.5]))
        assert h_divergence_1d(p, q) == 1.0
        assert h_divergence_1d(q, p) == 1.0


PROPERTY_SETTINGS = settings(derandomize=True, database=None, max_examples=100, deadline=None)


class TestThresholdProperties:
    """Property layer for the threshold kernel on adversarial float atoms."""

    @PROPERTY_SETTINGS
    @given(point_pairs())
    def test_equals_every_split_oracle(self, pair):
        p, q = pair
        assert h_divergence_1d(p, q) == h_divergence_rescan(p, q)
        assert h_divergence_1d(q, p) == h_divergence_rescan(q, p)

    @PROPERTY_SETTINGS
    @given(point_pairs())
    def test_lies_in_unit_interval(self, pair):
        assert 0.0 <= h_divergence_1d(*pair) <= 1.0

    @PROPERTY_SETTINGS
    @given(point_pairs())
    def test_doubling_the_line_changes_no_bit(self, pair):
        p, q = pair
        assume(all(abs(a) <= 1e307 for a in p.atoms + q.atoms))
        p2, q2 = (Pmf(tuple(2.0 * a for a in d.atoms), d.probs) for d in pair)
        assert h_divergence_1d(p2, q2) == h_divergence_1d(p, q)


class TestConditionalFamily:
    def test_equals_per_atom_js(self):
        rng = np.random.default_rng(22)
        for _ in range(300):
            nx, ny = int(rng.integers(2, 7)), int(rng.integers(2, 5))
            s, t = random_sparse_joint(rng, nx, ny), random_sparse_joint(rng, nx, ny)
            for axis in ("y|x", "x|y"):
                dim = 1 if axis == "y|x" else 0
                s_live, t_live = s.mass.sum(axis=dim) > 0, t.mass.sum(axis=dim) > 0
                if (s_live != t_live).any():
                    with pytest.raises(BoundInputError, match="missing conditional"):
                        _conditional_terms(s, t, axis)
                    continue
                (s_w, _), (t_w, _), js = _conditional_terms(s, t, axis)
                assert np.array_equal(s_w, s.mass.sum(axis=dim))
                assert np.array_equal(t_w, t.mass.sum(axis=dim))
                s_cond, t_cond = conditionals(s, axis), conditionals(t, axis)
                atoms = s.x_atoms if dim else s.y_atoms
                for a, live, value in zip(atoms, s_live, js.tolist()):
                    if live:
                        assert value == js_divergence(s_cond[a], t_cond[a])
                    else:
                        assert a not in s_cond and a not in t_cond and value == 0.0

    def test_same_support_fast_path_equals_aligned_path(self):
        p = Pmf((0, 1), np.array([0.5, 0.5]))
        q = Pmf((0, 1), np.array([0.25, 0.75]))
        assert js_divergence(p, q) == js_divergence(p, Pmf((1, 0), q.probs[::-1]))


class TestPushforward:
    def test_identity_map(self):
        rng = np.random.default_rng(6)
        p = random_pmf(rng)
        out = pushforward(p, lambda a: a)
        assert out.atoms == p.atoms
        assert np.allclose(out.probs, p.probs, atol=1e-15)

    def test_constant_map(self):
        rng = np.random.default_rng(7)
        p = random_pmf(rng)
        out = pushforward(p, lambda a: "z")
        assert out.atoms == ("z",)
        assert out.probs[0] == pytest.approx(1.0, abs=1e-15)


class TestInequalities:
    """Hand-rolled randomized property suites with fixed seeds."""

    N = 1000

    def test_pinsker(self):
        rng = np.random.default_rng(100)
        for _ in range(self.N):
            p = random_pmf(rng)
            q = random_pmf(rng, len(p))
            assert total_variation(p, q) <= math.sqrt(2 * kl_divergence(p, q)) + 1e-9

    def test_sandwich_in_nats_with_half_tv(self):
        rng = np.random.default_rng(101)
        for _ in range(self.N):
            p = random_pmf(rng)
            q = random_pmf(rng, len(p))
            tv = half_total_variation(p, q)
            js = js_divergence(p, q, "e")
            assert 0.5 * tv * tv <= js + 1e-9
            assert js <= tv + 1e-9

    def test_js_distance_triangle(self):
        rng = np.random.default_rng(102)
        for _ in range(self.N):
            n = int(rng.integers(2, 9))
            p, q, r = (random_pmf(rng, n) for _ in range(3))
            assert js_distance(p, r) <= js_distance(p, q) + js_distance(q, r) + 1e-9

    def test_data_processing(self):
        rng = np.random.default_rng(103)
        for _ in range(self.N):
            n = int(rng.integers(3, 9))
            k = int(rng.integers(2, n + 1))
            p = random_pmf(rng, n)
            q = random_pmf(rng, n)
            table = dict(zip(p.atoms, rng.integers(0, k, n).tolist()))
            pp, qq = pushforward(p, table.__getitem__), pushforward(q, table.__getitem__)
            assert js_divergence(pp, qq) <= js_divergence(p, q) + 1e-9
            assert kl_divergence(pp, qq) <= kl_divergence(p, q) + 1e-9

    def test_js_bounded_by_log2(self):
        rng = np.random.default_rng(104)
        for _ in range(200):
            p = random_pmf(rng)
            q = random_pmf(rng, len(p))
            assert js_divergence(p, q, "2") <= 1.0 + 1e-12
            assert js_divergence(p, q, "e") <= math.log(2) + 1e-12


def test_counterexample_ordering_verdicts():
    """The two pinned cases order the divergences in opposite directions."""
    from jsda import counterexample1, counterexample2

    c1 = counterexample1(1.0 / 12.0)
    assert c1.computed["threshold_divergence"] < c1.computed["js_base2"]
    c2 = counterexample2()
    assert c2.computed["js_base2"] < c2.computed["threshold_divergence"]
