"""Divergence tests: pinned values, sweep oracle, metric/inequality properties."""

import importlib
import math
from fractions import Fraction
from itertools import accumulate
from unittest.mock import patch

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
from jsda.divergence import _js, _js_rows, _nonnegative
from jsda.pmf import ARRAY_MIN_CELLS

PMF_MODULE = importlib.import_module("jsda.pmf")


def random_pmf(rng, n=None):
    n = n or int(rng.integers(2, 9))
    probs = rng.uniform(1e-6, 1.0, n)
    return Pmf(tuple(range(n)), probs / math.fsum(probs.tolist()))


def as_points(d):
    """Coordinate -> exact merged mass (a Fraction); tied coordinates are summed."""
    pts = {}
    for c, m in zip(d.coords, d.probs.tolist()):
        pts[c] = pts.get(c, 0) + Fraction(m)
    return pts


def h_divergence_rescan(p, q):
    """Reference: each side's exact mass below every threshold, each coordinate and +inf, and
    the largest gap rounded once (O(n^2))."""
    pp, qq = as_points(p), as_points(q)
    return float(max(
        abs(sum(m for c, m in pp.items() if c < t) - sum(m for c, m in qq.items() if c < t))
        for t in [*sorted(set(pp) | set(qq)), math.inf]))


def h_divergence_fraction_sweep(p, q):
    """Reference: every split of the sorted coordinates, with Fraction prefix sums of the
    gaps, and the largest gap rounded once."""
    pp, qq = as_points(p), as_points(q)
    gaps = accumulate(pp.get(c, 0) - qq.get(c, 0) for c in sorted(set(pp) | set(qq)))
    return float(max(map(abs, gaps)))


def random_points(rng, pool, subnormal=False):
    """A Pmf on points drawn from pool (ties likely, merged into one atom), some masses zero
    and, with ``subnormal``, some of the zero masses made subnormal."""
    n = int(rng.integers(1, 25))
    probs = rng.random(n) * (rng.random(n) < 0.7)
    probs[int(rng.integers(n))] += 0.1
    probs /= math.fsum(probs.tolist())
    if subnormal:
        probs[(probs == 0.0) & (rng.random(n) < 0.5)] = 5e-324 * float(rng.integers(1, 9))
    pts = {}
    for c, m in zip(rng.choice(pool, n).tolist(), probs.tolist()):
        pts[c] = pts.get(c, 0.0) + m
    return Pmf(tuple(pts), np.array(list(pts.values())))


def float_step(x, k):
    """x moved k floats up (k > 0) or down (k < 0)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


EDGE_FLOATS = [0.0, 5e-324, -5e-324, 2.0**-1022, 1.0, -1.0, 0.1, 2.0**53, 1e308, -1e308]
base_floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(-1e308, 1e308))
# 0.0 and the smallest subnormal and normal masses: half of 5e-324 rounds to zero
masses = st.one_of(st.sampled_from([0.0, 5e-324, 2.0**-1022]), st.floats(0.0, 1.0))


@st.composite
def point_pairs(draw):
    """Two Pmfs on float atoms near up to three shared bases: float neighbours are
    likely, as are subnormals, zeros, +-1e308 and zero-mass and subnormal-mass atoms."""
    bases = draw(st.lists(base_floats, min_size=1, max_size=3))
    picks = st.tuples(st.integers(0, len(bases) - 1), st.integers(-2, 2),
                      masses)

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
        assert divergence("KL", s, m, "2") == pytest.approx(0.02110, abs=5e-5)
        assert divergence("KL", t, m, "2") == pytest.approx(0.02032, abs=5e-5)
        assert js_divergence(t, s, "2") == pytest.approx(0.0207, abs=5e-4)

    def test_unsupported_base_is_an_error(self):
        p = Pmf((0, 1), np.array([0.25, 0.75]))
        for base in ("10", 2, math.e):
            with pytest.raises(DistributionError, match="unsupported log base"):
                divergence("JS", p, p, base)

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
        assert divergence("KL", p, q) == math.inf
        assert divergence("Renyi2", p, q) == math.inf

    def test_renyi2_matches_direct_sum(self):
        rng = np.random.default_rng(1)
        p = random_pmf(rng, 5)
        q = random_pmf(rng, 5)
        oracle = math.log(sum(pi * pi / qi for pi, qi in zip(p.probs, q.probs)))
        assert divergence("Renyi2", p, q) == pytest.approx(oracle, abs=1e-12)

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
        big = math.nextafter(1e308, 0.0)
        pools = [  # (first side's pool, second side's pool)
            ([2**53, 2**53 + 1],) * 2,  # distinct int atoms, all on one float
            ([2**53 + k for k in range(-2, 6)],) * 2,  # ints sharing floats, and their neighbours
            ([0.0, 5e-324, -5e-324, 1.0], [-0.0, 5e-324, -5e-324, 1.0]),  # 0.0 here, -0.0 there
            ([1e308, -1e308, big, -big, 1.7e308, 0.0],) * 2,
        ]
        for trial in range(400):
            p_pool, q_pool = pools[trial % len(pools)]
            p, q = random_points(rng, p_pool, True), random_points(rng, q_pool, True)
            assert h_divergence_1d(p, q) == h_divergence_rescan(p, q)
            assert h_divergence_1d(q, p) == h_divergence_rescan(q, p)

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
    def test_doubling_the_line_changes_no_bit(self, pair):
        p, q = pair
        assume(all(abs(a) <= 1e307 for a in p.atoms + q.atoms))
        p2, q2 = (Pmf(tuple(2.0 * a for a in d.atoms), d.probs) for d in pair)
        assert h_divergence_1d(p2, q2) == h_divergence_1d(p, q)


# In u = 2**-53 (half an ulp of 1.0), h_divergence_1d is G = max_k |P_k - Q_k| over the exact
# prefix masses, rounded once, and in exact arithmetic G <= TV/2 + |T_p - T_q|/2 for the sum
# TV of |p - q| and the side totals T. The roundings between h and half_total_variation add up
# to less than 6u:
# - the one rounding of G (at most 1 + 2u): u;
# - point_pairs divides by a rounded fsum, so each total is within 2u of 1: 2u;
# - half_total_variation rounds each |p - q| and their fsum, relative u each: 2u + O(u**2).
TV_SLACK = Fraction(6, 2**53)
# The cap on JS, derived in the jsda.divergence docstring for totals within 2u of 1.
JS_CAPS = {"e": math.log(2) + 4 * 2.0**-53, "2": 1.0 + 2.0**-52}


class TestPairProperties:
    """The range, TV bound and bit symmetry of the threshold kernel and the JS kernel's
    exact contracts. One test checks them all, as drawing a pair costs most of a property's
    time."""

    @PROPERTY_SETTINGS
    @given(point_pairs())
    def test_h_below_half_tv_js_symmetric_and_one_on_disjoint_supports(self, pair):
        p, q = pair
        h = h_divergence_1d(p, q)
        assert 0.0 <= h <= 1.0
        assert h.hex() == h_divergence_1d(q, p).hex()
        assert Fraction(h) <= Fraction(half_total_variation(p, q)) + TV_SLACK
        for base, cap in JS_CAPS.items():
            js = js_divergence(p, q, base)
            assert js.hex() == js_divergence(q, p, base).hex()
            assert js <= cap
        # on disjoint supports each mass's term is m * log2(2 m / m) = m exactly, so the
        # base-2 JS is the mean of the two fsums: exactly 1.0 where both are
        p, q = (Pmf(tuple((side, a) for a in d.atoms), d.probs) for side, d in enumerate(pair))
        for base, cap in JS_CAPS.items():
            assert js_divergence(p, q, base) <= cap
        if math.fsum(p.probs.tolist()) == math.fsum(q.probs.tolist()) == 1.0:
            assert js_divergence(p, q, "2") == 1.0


# Row cells: zero, the smallest subnormal and normal masses, a point mass, or (codes 4-7) a
# uniform draw from the example's generator, which costs far less than a drawn float.
ROW_CELLS = (0.0, 5e-324, 2.0**-1022, 1.0)
# Row counts that put arrays of 1-3 columns on both sides of ARRAY_MIN_CELLS = 384.
ROW_COUNTS = (1, 2, 5, 129, 385)
# Half the examples keep the three row-kernel properties inside the property layer's
# share of Tier-1 (about 3 s).
ROW_SETTINGS = settings(PROPERTY_SETTINGS, max_examples=50)


def _normalised(r):
    total = math.fsum(r)
    return [v / total for v in r] if total > 0.0 else list(r)


@st.composite
def row_pairs(draw, row_counts=ROW_COUNTS):
    """Two same-shape arrays of 1-3-atom rows, normalised by their fsum or all zero. They
    mix up to six drawn row pairs with fresh uniform pairs; the drawn pairs make zero,
    subnormal, one-sided, identical, deterministic and nearly identical rows likely (the
    last have JS a few ulps either side of 0)."""
    width = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def row():
        code = draw(st.integers(0, 8**width - 1))  # one base-8 digit per cell
        cells = [code // 8**k % 8 for k in range(width)]
        return _normalised([ROW_CELLS[c] if c < 4 else float(rng.random()) for c in cells])

    pairs = []
    for _ in range(draw(st.integers(1, 6))):
        p = row()
        partner = draw(st.sampled_from(["row", "same", "near", "point", "zero"]))
        q = {"row": row, "same": lambda: p,
             "near": lambda: _normalised([v * (1.0 + int(rng.integers(-3, 4)) * 2.0**-52)
                                          for v in p]),
             "point": lambda: [1.0] + [0.0] * (width - 1),
             "zero": lambda: [0.0] * width}[partner]()
        pairs.append((p, q))
    def fresh():
        return _normalised(rng.random(width).tolist()), _normalised(rng.random(width).tolist())

    rows = [pairs[i] if i < len(pairs) else fresh()
            for i in rng.integers(len(pairs) + 1, size=draw(st.sampled_from(row_counts)))]
    return np.array([p for p, _ in rows]), np.array([q for _, q in rows])


def js_rows_loops(P, Q, log):
    """Reference: the scalar kernel on each row pair, clamped as ``divergence`` clamps."""
    return [_nonnegative(_js(p, q, log)) for p, q in zip(P.tolist(), Q.tolist())]


class TestJsRows:
    """The whole-array JS kernel equals the scalar loop on every row, bit for bit, on both
    sides of its size selection; ``repr`` tells -0.0 from 0.0."""

    @ROW_SETTINGS
    @given(row_pairs())
    def test_equals_scalar_kernel_per_row(self, pair):
        P, Q = pair
        for log in (math.log, math.log2):
            want = list(map(repr, js_rows_loops(P, Q, log)))
            assert list(map(repr, _js_rows(P, Q, log))) == want
            with patch.object(PMF_MODULE, "ARRAY_MIN_CELLS", 0):  # the array form
                assert list(map(repr, _js_rows(P, Q, log))) == want

    @pytest.mark.parametrize("base", ["e", "2"])
    def test_divergence_on_both_sides_of_the_crossover(self, base):
        rng = np.random.default_rng(23)
        log = math.log2 if base == "2" else math.log
        for n in (ARRAY_MIN_CELLS - 1, ARRAY_MIN_CELLS, 4 * ARRAY_MIN_CELLS):
            p, q = sparse_probs(rng, n), sparse_probs(rng, n)
            got = js_divergence(Pmf(tuple(range(n)), p), Pmf(tuple(range(n)), q), base)
            assert repr(got) == repr(_nonnegative(_js(p.tolist(), q.tolist(), log)))

    @staticmethod
    def _pairs_where_log_differs(rng, np_log, log, n):
        """``n`` cell pairs of uniform masses, first those whose ratio 2p/(p + q) takes a
        different log from ``np_log`` than from ``log`` (numpy's SIMD logs can miss by an
        ulp), then others."""
        p, q = rng.random(400_000), rng.random(400_000)
        ratio = 2.0 * p / (p + q)
        differs = np_log(ratio) != np.array(list(map(log, ratio.tolist())))
        first = np.argsort(~differs, kind="stable")[:n]
        return p[first], q[first]

    def test_array_form_takes_math_log_where_np_log_differs(self):
        """A row total rarely shows a one-ulp log; one-cell and two-cell rows do."""
        p, q = self._pairs_where_log_differs(np.random.default_rng(66), np.log, math.log, 128)
        for P, Q in ((p[:, None], q[:, None]), (p.reshape(-1, 2), q.reshape(-1, 2))):
            with patch.object(PMF_MODULE, "ARRAY_MIN_CELLS", 0):  # the array form
                got = list(map(repr, _js_rows(P, Q, math.log)))
            assert got == list(map(repr, js_rows_loops(P, Q, math.log)))

    def test_bits_keep_math_log2_per_element(self):
        p, q = self._pairs_where_log_differs(np.random.default_rng(67), np.log2, math.log2, 512)
        P, Q = p[:, None], q[:, None]
        assert P.size >= ARRAY_MIN_CELLS  # the array form, as selected
        assert list(map(repr, _js_rows(P, Q, math.log2))) == \
            list(map(repr, js_rows_loops(P, Q, math.log2)))

    @pytest.mark.parametrize("crossover", [ARRAY_MIN_CELLS, 0])
    def test_negative_rows_clamp_or_raise_as_the_loops(self, crossover):
        """Rows of large, nearly equal masses give JS a little below 0 (set to 0.0) or at or
        below -1e-15 (an error naming the first such row's value); a NaN row passes."""
        rng = np.random.default_rng(68)
        P = rng.random((400, 2)) * 10.0 ** rng.integers(0, 17, (400, 1))
        Q = P * (1.0 + rng.integers(-4, 5, P.shape) * 2.0**-52)
        P[7, 0] = Q[7, 0] = np.inf  # 2p/(p + q) = inf/inf: a NaN row
        js = np.array([_js(p, q, math.log) for p, q in zip(P.tolist(), Q.tolist())])
        noise, bad = (js < 0.0) & (js > -1e-15), js <= -1e-15
        assert noise.sum() > 5 and bad.sum() > 5
        with np.errstate(invalid="ignore"), \
             patch.object(PMF_MODULE, "ARRAY_MIN_CELLS", crossover):
            kept = ~bad
            assert list(map(repr, _js_rows(P[kept], Q[kept], math.log))) == \
                list(map(repr, js_rows_loops(P[kept], Q[kept], math.log)))
            with pytest.raises(DistributionError) as want:
                js_rows_loops(P, Q, math.log)
            with pytest.raises(DistributionError) as got:
                _js_rows(P, Q, math.log)
        assert str(got.value) == str(want.value)


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
