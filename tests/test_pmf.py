"""Distribution-core tests: validity, marginals/conditionals, risk, conditional entropy."""

import importlib
import itertools
import math
import re
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jsda import (
    DistributionError,
    JointPmf,
    LossTable,
    Pmf,
    align_supports,
    conditionals,
    expected_risk,
    h_divergence_1d,
    marginals,
    mixture,
)
from jsda.pmf import _conditional_entropy, _fsum, _xlogy, conditional_rows
from jsda.scenarios import discretize, make_scenario
from test_divergence import ROW_SETTINGS, row_pairs

PMF_MODULE = importlib.import_module("jsda.pmf")


def random_joint(rng, nx=None, ny=None):
    nx = nx or int(rng.integers(2, 7))
    ny = ny or int(rng.integers(2, 5))
    mass = rng.uniform(1e-6, 1.0, (nx, ny))
    return JointPmf(tuple(range(nx)), tuple(range(ny)),
                    mass / math.fsum(mass.ravel().tolist()))


class TestValidation:
    def test_probs_must_sum_to_one(self):
        with pytest.raises(DistributionError, match="sum"):
            Pmf((0, 1), np.array([0.6, 0.6]))

    def test_negative_mass_rejected(self):
        with pytest.raises(DistributionError, match="negative"):
            Pmf((0, 1), np.array([1.2, -0.2]))

    def test_duplicate_atoms_rejected(self):
        with pytest.raises(DistributionError, match="unique"):
            Pmf((0, 0), np.array([0.5, 0.5]))

    def test_nan_mass_rejected(self):
        with pytest.raises(DistributionError, match="sum"):
            Pmf((0, 1), np.array([math.nan, 1.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                     pytest.param(10**400, id="int-1e400"), "a"])
    def test_non_finite_coords_rejected(self, bad):
        p = Pmf((0.0, bad), np.array([0.5, 0.5]))
        with pytest.raises(DistributionError, match="finite real-number atoms"):
            p.coords
        with pytest.raises(DistributionError, match="finite real-number atoms"):
            h_divergence_1d(p, Pmf((0.0,), np.array([1.0])))

    def test_nan_joint_cell_rejected(self):
        with pytest.raises(DistributionError, match="sum"):
            JointPmf((0, 1), (0, 1), np.array([[math.nan, 0.5], [0.25, 0.25]]))

    def test_derived_pmfs_are_locked_and_pass_validation(self):
        rng = np.random.default_rng(12)
        j = random_joint(rng)
        px, py = marginals(j)
        other = Pmf((len(px) + 1, 0), np.array([0.5, 0.5]))
        derived = [px, py, *conditionals(j, "y|x").values(), *conditionals(j, "x|y").values(),
                   *align_supports(px, other)]
        for d in derived:
            assert not d.probs.flags.writeable
            checked = Pmf(d.atoms, d.probs)
            assert isinstance(d.atoms, tuple) and checked.atoms == d.atoms
            assert np.array_equal(checked.probs, d.probs)

    def test_joint_needs_two_labels(self):
        with pytest.raises(DistributionError, match="two labels"):
            JointPmf((0, 1), (0,), np.array([[0.5], [0.5]]))

    def test_zero_mass_atoms_are_kept(self):
        p = Pmf((0, 1, 2), np.array([0.5, 0.0, 0.5]))
        assert p.probs[1] == 0.0
        assert len(p) == 3

    def test_arrays_are_locked(self):
        p = Pmf((0, 1), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            p.probs[0] = 0.9

    def test_types_compare_and_hash_by_identity(self):
        probs = np.array([0.5, 0.5])
        for make in (lambda: Pmf((0, 1), probs), lambda: LossTable(probs[None]),
                     lambda: JointPmf((0,), (0, 1), probs[None])):
            a, b = make(), make()
            assert a == a and a != b and hash(a) == hash(a) and hash(a) != hash(b)
            assert len({a, b, a}) == 2

    def test_loss_range_is_exact(self):
        l = LossTable(np.array([[0.25, 1.5], [-0.5, 0.75]]))
        assert l.range_g == 2.0
        assert not l.is_zero_one
        assert LossTable(np.array([[0.0, 1.0], [1.0, 0.0]])).is_zero_one

    @pytest.mark.parametrize("n", [3, PMF_MODULE.ARRAY_MIN_CELLS], ids=["3-cells", "crossover-cells"])
    def test_flat_loss_range_is_positive_zero(self, n):
        for cells in (np.full(n, -0.0), np.resize([0.0, -0.0], n), np.resize([-0.0, 0.0], n),
                      np.full(n, 2.5)):
            assert repr(LossTable(cells.reshape(-1, 3)).range_g) == "0.0"

    @pytest.mark.parametrize("shape", [(0, 2), (2, 0), (0, 0)], ids=["0x2", "2x0", "0x0"])
    def test_empty_loss_grid_rejected(self, shape):
        with pytest.raises(DistributionError) as exc:
            LossTable(np.zeros(shape))
        assert type(exc.value) is DistributionError
        assert str(exc.value) == f"loss grid {shape} is empty"

    @pytest.mark.parametrize("n", [2, PMF_MODULE.ARRAY_MIN_CELLS // 2], ids=["4-cells", "crossover-cells"])
    def test_overflowing_loss_range_rejected(self, n):
        values = np.full((n, 2), 1.7e308)
        values[1, 1] = -1.7e308
        with pytest.raises(DistributionError) as exc:
            LossTable(values)
        assert type(exc.value) is DistributionError
        assert str(exc.value) == "loss range 1.7e+308 - -1.7e+308 overflows"

    def test_empty_masses_fail_the_total(self):
        with pytest.raises(DistributionError, match="^probabilities sum to 0.0, not 1$"):
            Pmf((), np.zeros(0))
        with pytest.raises(DistributionError, match="^joint mass sums to 0.0, not 1$"):
            JointPmf((), (0, 1), np.zeros((0, 2)))


# Each case sets (index, value) pairs in the cells [0.5, 0.5, 0, ...] and gives the full
# message of Pmf, JointPmf and LossTable over them, or None where they are accepted. The
# (n/3, 3) grids of JointPmf and LossTable keep the cells in this order.
ERROR_CONTRACT = {
    "negative": (((2, -0.25),), "negative probability mass", "negative joint mass", None),
    "nan": (((2, math.nan),), "probabilities sum to nan, not 1", "joint mass sums to nan, not 1",
            "loss values must be finite"),
    "nan-before-negative": (((0, math.nan), (2, -0.25)), "negative probability mass",
                            "negative joint mass", "loss values must be finite"),
    "negative-zeros": (((slice(2, None), -0.0),), None, None, None),
    "inf": (((2, math.inf),), "probabilities sum to inf, not 1", "joint mass sums to inf, not 1",
            "loss values must be finite"),
    "minus-inf": (((2, -math.inf),), "negative probability mass", "negative joint mass",
                  "loss values must be finite"),
    "total-2e-12-off": (((0, 0.5 + 2e-12),), "probabilities sum to 1.000000000002, not 1",
                        "joint mass sums to 1.000000000002, not 1", None),
    "overflowing-total": (((0, 1e308), (1, 1e308)), "probabilities sum to inf, not 1",
                          "joint mass sums to inf, not 1", None),
}


@pytest.mark.parametrize("n", [3, PMF_MODULE.ARRAY_MIN_CELLS], ids=["3-cells", "crossover-cells"])
@pytest.mark.parametrize("case", ERROR_CONTRACT)
def test_error_contract(n, case):
    edit, *messages = ERROR_CONTRACT[case]
    cells = np.zeros(n)
    cells[:2] = 0.5
    for at, value in edit:
        cells[at] = value
    grid = cells.reshape(-1, 3)
    makes = (lambda: Pmf(tuple(range(n)), cells),
             lambda: JointPmf(tuple(range(len(grid))), (0, 1, 2), grid),
             lambda: LossTable(grid))
    for make, message in zip(makes, messages):
        if message is None:
            made = make()
            if isinstance(made, LossTable):  # the list's range has the array's bits
                assert repr(made.range_g) == repr(float(grid.max() - grid.min()))
            continue
        with pytest.raises(DistributionError) as exc:
            make()
        assert type(exc.value) is DistributionError
        assert str(exc.value) == message


class TestMarginals:
    def test_uniform_2x2(self):
        j = JointPmf((0, 1), (0, 1), np.full((2, 2), 0.25))
        px, py = marginals(j)
        assert np.allclose(px.probs, [0.5, 0.5])
        assert np.allclose(py.probs, [0.5, 0.5])

    def test_row_column_sums(self):
        j = JointPmf((0, 1), (0, 1), np.array([[0.4, 0.1], [0.2, 0.3]]))
        px, py = marginals(j)
        assert np.allclose(px.probs, [0.5, 0.5])
        assert np.allclose(py.probs, [0.6, 0.4])

    def test_point_mass(self):
        j = JointPmf((0, 1), (0, 1), np.array([[1.0, 0.0], [0.0, 0.0]]))
        px, py = marginals(j)
        assert px.probs[0] == 1.0 and py.probs[0] == 1.0


class TestConditionals:
    def test_independent_product_recovers_marginal(self):
        px = np.array([0.3, 0.7])
        py = np.array([0.2, 0.5, 0.3])
        j = JointPmf((0, 1), (0, 1, 2), np.outer(px, py))
        for cond in conditionals(j, "y|x").values():
            assert np.allclose(cond.probs, py, atol=1e-12)

    def test_worked_row(self):
        j = JointPmf((0, 1), (0, 1), np.array([[0.4, 0.1], [0.2, 0.3]]))
        fam = conditionals(j, "y|x")
        assert np.allclose(fam[0].probs, [0.8, 0.2])

    def test_zero_row_excluded_and_reconstruction_exact(self):
        j = JointPmf((0, 1, 2), (0, 1),
                     np.array([[0.4, 0.1], [0.0, 0.0], [0.2, 0.3]]))
        fam = conditionals(j, "y|x")
        assert set(fam) == {0, 2}
        px, _ = marginals(j)
        rebuilt = np.zeros_like(np.asarray(j.mass))
        for i, x in enumerate(j.x_atoms):
            if x in fam:
                rebuilt[i] = px.probs[i] * fam[x].probs
        assert np.max(np.abs(rebuilt - j.mass)) < 1e-12

    def test_reconstruction_both_axes_random(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            j = random_joint(rng)
            px, py = marginals(j)
            fam_yx = conditionals(j, "y|x")
            fam_xy = conditionals(j, "x|y")
            for i, x in enumerate(j.x_atoms):
                assert np.allclose(px.probs[i] * fam_yx[x].probs, j.mass[i],
                                   atol=1e-12)
            for k, y in enumerate(j.y_atoms):
                assert np.allclose(py.probs[k] * fam_xy[y].probs, j.mass[:, k],
                                   atol=1e-12)

    def test_all_zero_grid_rejected_at_construction(self):
        # an all-zero conditioning marginal cannot arise from a valid joint;
        # the degenerate grid is refused before conditionals() could see it
        with pytest.raises(DistributionError):
            JointPmf((0, 1), (0, 1), np.zeros((2, 2)))

    def test_unknown_axis(self):
        j = JointPmf((0, 1), (0, 1), np.full((2, 2), 0.25))
        with pytest.raises(DistributionError, match="axis"):
            conditionals(j, "z|x")


class TestExpectedRisk:
    def test_zero_loss(self):
        j = JointPmf((0, 1), (0, 1), np.full((2, 2), 0.25))
        assert expected_risk(j, LossTable(np.zeros((2, 2)))) == 0.0

    def test_mismatch_indicator_on_uniform(self):
        j = JointPmf((0, 1), (0, 1), np.full((2, 2), 0.25))
        l = LossTable(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert expected_risk(j, l) == pytest.approx(0.5, abs=1e-15)

    def test_matches_double_sum_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            j = random_joint(rng)
            l = LossTable(rng.random(j.shape))
            oracle = sum(j.mass[i, k] * l.values[i, k]
                         for i in range(j.shape[0]) for k in range(j.shape[1]))
            assert expected_risk(j, l) == pytest.approx(oracle, abs=1e-14)

    def test_dimension_mismatch(self):
        j = JointPmf((0, 1), (0, 1), np.full((2, 2), 0.25))
        with pytest.raises(DistributionError, match="does not match"):
            expected_risk(j, LossTable(np.zeros((3, 2))))

    def test_linear_in_loss_and_bounded(self):
        rng = np.random.default_rng(12)
        j = random_joint(rng)
        l1 = rng.random(j.shape)
        l2 = rng.random(j.shape)
        a, b = 0.7, 1.3
        combined = expected_risk(j, LossTable(a * l1 + b * l2))
        parts = a * expected_risk(j, LossTable(l1)) + b * expected_risk(j, LossTable(l2))
        assert combined == pytest.approx(parts, abs=1e-12)
        r = expected_risk(j, LossTable(l1))
        assert l1.min() - 1e-12 <= r <= l1.max() + 1e-12


def conditional_entropy(j):
    """H(Y|X) in nats, as the intrinsic-error bound computes it."""
    return _conditional_entropy(*conditional_rows(j, "y|x")[1:])


class TestEntropy:
    def test_independent_uniform_binary(self):
        j = JointPmf((0, 1), (0, 1), np.full((2, 2), 0.25))
        assert conditional_entropy(j) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_deterministic_labeling_has_zero_conditional_entropy(self):
        j = JointPmf((0, 1, 2), (0, 1),
                     np.array([[0.3, 0.0], [0.0, 0.5], [0.2, 0.0]]))
        assert conditional_entropy(j) == 0.0

    def test_matches_weighted_sum_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            j = random_joint(rng)
            px, _ = marginals(j)
            fam = conditionals(j, "y|x")
            oracle = sum(px.probs[i]
                         * -sum(v * math.log(v) for v in fam[x].probs if v > 0)
                         for i, x in enumerate(j.x_atoms))
            assert conditional_entropy(j) == pytest.approx(oracle, abs=1e-12)

    def test_entropy_range(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            j = random_joint(rng)
            assert 0.0 <= conditional_entropy(j) <= math.log(len(j.y_atoms)) + 1e-12


def _per_row_conditional_rows(j, axis):
    """The per-row loop the one-pass ``conditional_rows`` replaced, kept as its oracle."""
    weights, rows = (j.mass.sum(axis=1), j.mass) if axis == "y|x" else (j.mass.sum(axis=0), j.mass.T)
    live = weights > 0
    normed = rows / np.where(live, weights, 1.0)[:, None]
    for row in normed[live]:
        total = math.fsum(row.ravel().tolist())
        if not abs(total - 1.0) <= 1e-12:
            raise DistributionError(f"probabilities sum to {total!r}, not 1")
    return weights, normed


def _per_row_entropy(row):
    """The entropy of one row, as ``_conditional_entropy`` once took it per row."""
    return math.fsum(-v * math.log(v) for v in np.asarray(row, dtype=float).tolist() if v > 0.0)


def _unvalidated_joint(mass):
    """A JointPmf built around its checks, to reach the row-sum check with bad rows."""
    j = object.__new__(JointPmf)
    j.__dict__.update(x_atoms=tuple(range(mass.shape[0])), y_atoms=tuple(range(mass.shape[1])),
                      mass=mass)
    return j


class TestRowKernels:
    """The one-pass row kernels are bit-identical to the per-row loops they replaced."""

    @staticmethod
    def _joints(rng, n=300):
        for _ in range(n):
            nx, ny = int(rng.integers(1, 30)), int(rng.integers(2, 13))
            mass = rng.random((nx, ny)) * (rng.random((nx, ny)) < 0.6)
            mass[rng.random(nx) < 0.3] = 0.0  # zero rows
            mass[int(rng.integers(nx)), int(rng.integers(ny))] += 0.1
            yield JointPmf(tuple(range(nx)), tuple(range(ny)),
                           mass / math.fsum(mass.ravel().tolist()))

    def test_conditional_entropy_equals_per_row_entropy(self):
        for j in self._joints(np.random.default_rng(61)):
            _, weights, rows = conditional_rows(j, "y|x")
            oracle = math.fsum(w * _per_row_entropy(row) for w, row in zip(weights, rows) if w > 0)
            assert _conditional_entropy(weights, rows) == oracle

    def test_row_sum_check_equals_per_row_check(self):
        for j in self._joints(np.random.default_rng(62)):
            for axis in ("y|x", "x|y"):
                _, weights, rows = conditional_rows(j, axis)
                want_w, want_rows = _per_row_conditional_rows(j, axis)
                assert np.array_equal(weights, want_w) and np.array_equal(rows, want_rows)

    def test_array_entropy_takes_math_log_where_np_log_differs(self):
        """np.log misses math.log by an ulp on some inputs, which a total rarely shows;
        on one-cell rows at such inputs the array path must still give the loop's bits."""
        v = np.random.default_rng(63).random(200_000)
        v = v[-v * np.log(v) != -v * np.array(list(map(math.log, v.tolist())))][:20]
        with patch.object(PMF_MODULE, "ARRAY_MIN_CELLS", 0):
            for x in v.tolist():
                assert repr(_conditional_entropy(np.ones(1), np.array([[x]]))) == repr(-x * math.log(x))

    def test_xlogy_equals_products_with_math_log(self):
        """``_xlogy(a, r)`` has the bits (so the ``repr``) of ``a * math.log(r)`` on 1,020,005
        seeded pairs and on the ratios where np.log misses math.log."""
        rng = np.random.default_rng(64)
        n = 170_000
        uniform = rng.random(n) * 2.0  # the JS ratios lie in (0, 2]
        differs = uniform[np.log(uniform) != np.array(list(map(math.log, uniform.tolist())))]
        r = np.concatenate([
            uniform, np.tile(differs, 20),
            rng.random(n) * 2.0**-1022,  # subnormals
            1.0 + rng.uniform(-1e-12, 1e-12, n),
            np.ldexp(1.0, rng.integers(-1074, 1024, n)),  # exact powers of two from 5e-324
            2.0 - rng.integers(1, 2**20, n) * 2.0**-52,  # just below 2
            np.exp(rng.uniform(-700.0, 700.0, n)),
            [5e-324, 2.0**-1022, np.nextafter(2.0, 0.0), 1.0, 2.0]])
        a = rng.random(r.size)
        a[::3] = r[::3]  # the entropy's v * log(v)
        a[1::7] *= 2.0**-1030  # subnormal factors
        a[2::11] = 5e-324
        a[a == 0.0] = 5e-324  # factors are nonzero, as in the kernels; xlogy(0, r) is 0
        want = np.array([x * math.log(y) for x, y in zip(a.tolist(), r.tolist())])
        got = _xlogy(a, r)
        bad = got.view(np.int64) != want.view(np.int64)
        assert list(zip(a[bad].tolist(), r[bad].tolist(), map(repr, got[bad].tolist()))) == []

    def test_bad_row_sum_raises_the_same_message(self):
        # y|x row 1 sums to nan, row 0 to 0.0, row 2 to nan; then a 2nd row failing after a
        # 1st; then rows of three cells, tall (lists per row) and wide (bins, which fall back)
        for mass, crossover in itertools.product(
                (np.array([[0.5, 0.5], [np.inf, 1.0]]),
                 np.array([[1e308, 1e308], [0.2, 0.3]]),
                 np.array([[0.0, 0.0], [0.2, 0.3], [np.inf, 0.0]]),
                 np.array([[0.2, 0.3], [0.0, 0.0], [1e308, 1e308], [np.inf, 1.0]]),
                 np.array([[0.2, 0.3, 0.5], [np.inf, 1.0, 0.0], [0.1, 0.1, 0.1]]),
                 np.array([[0.2, 0.3, 0.5], [0.0, 0.0, 0.0], [1e308, 1e308, 1e308],
                           [np.inf, 1.0, 2.0]]),
                 np.array([[1e308, 1e308, 0.0], [np.inf, 0.0, 1.0]])),
                (PMF_MODULE.ARRAY_MIN_CELLS, 0)):  # as selected, and the array form
            j = _unvalidated_joint(mass)
            with np.errstate(over="ignore", invalid="ignore"), \
                 patch.object(PMF_MODULE, "ARRAY_MIN_CELLS", crossover):
                with pytest.raises(DistributionError) as want:
                    _per_row_conditional_rows(j, "y|x")
                with pytest.raises(DistributionError) as got:
                    conditional_rows(j, "y|x")
            assert str(got.value) == str(want.value)


    @ROW_SETTINGS
    @given(row_pairs(), st.sampled_from([1.0, 1e308, math.inf, math.nan]))
    def test_both_paths_equal_the_per_row_loops(self, pair, spike):
        """Both sides of the size selection give the loops' entropy bits (``repr`` tells
        -0.0 from 0.0) and the loops' row-sum message, on drawn rows and weights."""
        rows, other = pair
        weights = other[:, 0]  # zero, subnormal and point weights
        want = repr(math.fsum(w * _per_row_entropy(row)
                              for w, row in zip(weights.tolist(), rows) if w > 0))
        assert repr(_conditional_entropy(weights, rows)) == want
        with patch.object(PMF_MODULE, "ARRAY_MIN_CELLS", 0):  # the array form
            assert repr(_conditional_entropy(weights, rows)) == want
            for row in rows[:64]:  # row by row, as a total can round a one-ulp term away
                want = repr(math.fsum([_per_row_entropy(row)]))
                assert repr(_conditional_entropy(np.ones(1), row[None])) == want
        mass = rows * weights[:, None]
        mass.flat[mass.size // 2] = mass.flat[mass.size // 2].item() * spike
        j = _unvalidated_joint(mass)  # a non-finite cell fails the row-sum check
        for axis in ("y|x", "x|y"):
            outcomes = []
            for rows_of in (conditional_rows, _per_row_conditional_rows):
                with np.errstate(over="ignore", invalid="ignore"):
                    try:
                        outcomes.append(repr([a.tolist() for a in rows_of(j, axis)[-2:]]))
                    except DistributionError as e:
                        outcomes.append(str(e))
            assert outcomes[0] == outcomes[1]


# Row terms: signed zeros and subnormals, the smallest normal, and 1.0 beside -2**-53 and
# 1 + 2**-52, whose sums with it round. Drawn floats stay within ±2**1022, so no sum of two
# overflows (overflow has its own test).
TERMS = (0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, 1.0, -(2.0**-53), 1.0 + 2.0**-52)
BAD_ROWS = ([math.nan, 1.0], [math.inf, 1.0], [1.0, -math.inf], [math.inf, -math.inf],
            [1e308, 1e308], [-1e308, -1e308], [1.7976931348623157e308, 1e292])


class TestNarrowRows:
    """``_fsum`` sums rows of at most two cells as whole arrays, with ``math.fsum``'s bits;
    callers zero the cells that do not count."""

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(st.integers(0, 2), st.data())
    def test_narrow_rows_equal_per_row_fsum(self, width, data):
        cells = st.one_of(st.sampled_from(TERMS), st.floats(-(2.0**1022), 2.0**1022))
        rows = data.draw(st.lists(st.lists(st.tuples(cells, st.booleans()),
                                           min_size=width, max_size=width), max_size=8))
        terms = np.array([[v for v, _ in row] for row in rows]).reshape(len(rows), width)
        live = np.array([[k for _, k in row] for row in rows], bool).reshape(terms.shape)
        want = [repr(math.fsum([v for v, k in row if k])) for row in rows]
        for crossover in (PMF_MODULE.ARRAY_MIN_CELLS, 0):  # zeros for dead cells: lists, arrays
            with patch.object(PMF_MODULE, "ARRAY_MIN_CELLS", crossover):
                assert list(map(repr, _fsum(np.where(live, terms, 0.0)).tolist())) == want
                assert list(map(repr, _fsum(terms).tolist())) == [
                    repr(math.fsum(row)) for row in terms.tolist()]

    @pytest.mark.parametrize("row", BAD_ROWS)
    def test_non_finite_or_overflowing_rows_act_as_fsum(self, row):
        terms = np.array([[0.25, 0.5], row, [0.125, 0.0]])
        with patch.object(PMF_MODULE, "ARRAY_MIN_CELLS", 0):  # the array form
            try:
                want = repr(math.fsum(row))
            except (ValueError, OverflowError) as e:
                with pytest.raises(type(e), match=re.escape(str(e))):
                    _fsum(terms)
            else:
                assert [repr(v) for v in _fsum(terms).tolist()] == ["0.75", want, "0.125"]
            dead = np.array([[True, True], [False, False], [True, False]])
            assert _fsum(np.where(dead, terms, 0.0)).tolist() == [0.75, 0.0, 0.125]


@st.composite
def fsum_arrays(draw):
    """ARRAY_MIN_CELLS to 4,096 floats of mixed signs and exponents within a drawn span
    of +-1000, with drawn signed zeros, subnormals, exact cancellations (x, -x) and, in
    some arrays, the half-way tie 1 + 2**-53 with a few tiny terms of either sign."""
    n = draw(st.integers(PMF_MODULE.ARRAY_MIN_CELLS, 4096))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo = draw(st.integers(-1000, 1000))
    hi = draw(st.integers(lo, min(lo + 200, 1000)))
    a = rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 1.0, n) * np.exp2(rng.integers(lo, hi + 1, n))
    if draw(st.booleans()):  # a tie broken, or not, only by the tiny terms
        a[:] = 0.0
        a[:2] = 1.0, 2.0**-53
        k = draw(st.integers(0, 4))
        a[2:2 + k] = rng.choice([-1.0, 1.0], k) * np.exp2(-rng.integers(54, 1000, k))
    cancel = draw(st.integers(0, n // 2))
    a[n - cancel:] = -a[:cancel]
    for value in draw(st.lists(st.sampled_from(TERMS), max_size=8)):
        a[int(rng.integers(n))] = value
    rng.shuffle(a)
    return a


def _scenario_grids(grid):
    """The mass grids ``discretize`` gives at ``grid``², source and target, of one binary
    scenario of each kind."""
    for kind, params in (
            ("label-shift", dict(source_label_marginal=(0.5, 0.5), target_label_marginal=(0.8, 0.2))),
            ("conditional-shift", dict(source_label_marginal=(0.5, 0.5),
                                       target_label_marginal=(0.8, 0.2), rotation_deg=35.0)),
            ("cofeature", dict(source_label_marginal=(0.6, 0.4), feature_shift=(0.8, -0.3))),
            ("open-set", dict(n=1, alpha=0.5))):
        sc = make_scenario(kind, **params)
        for domain in ("source", "target"):
            yield discretize(sc, domain, grid).mass


class TestFsum:
    """``_fsum`` sums by exponent bins with ``math.fsum``'s bits. The 2**26-term guard is
    not run: it would need a 512 MiB array."""

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(fsum_arrays())
    def test_equals_fsum(self, a):
        assert repr(_fsum(a)) == repr(math.fsum(a.tolist()))
        rows = a[: a.size // 3 * 3].reshape(3, -1)
        assert [repr(v) for v in _fsum(rows).tolist()] == [
            repr(math.fsum(row)) for row in rows.tolist()]

    def test_seeded_sweep_and_scenario_grids_equal_fsum(self):
        rng = np.random.default_rng(29)
        arrays = []
        for grid in range(24, 49):
            for mass in _scenario_grids(grid):
                arrays += [mass.ravel(), mass.sum(axis=1), mass.T, (mass * mass).ravel()]
        for _ in range(300):
            n = int(rng.integers(PMF_MODULE.ARRAY_MIN_CELLS, 4097))
            a = rng.standard_normal(n) * np.exp2(rng.integers(-1000, 998, n))
            a[rng.random(n) < 0.1] = 0.0
            arrays += [a, np.exp2(rng.integers(-80, 0, n)) * rng.random(n), a[: n // 2 * 2].reshape(2, -1)]
        assert sum(a.size for a in arrays) >= 1_000_000
        for a in arrays:
            want = [math.fsum(row) for row in np.atleast_2d(a).tolist()]
            got = np.atleast_2d(_fsum(a)).ravel().tolist()
            assert list(map(repr, got)) == list(map(repr, want))

    @pytest.mark.parametrize("row", BAD_ROWS)
    def test_non_finite_or_overflowing_terms_act_as_fsum(self, row):
        a = np.full(512, 2.0**-9)
        a[[17, 400]] = row
        try:
            want = repr(math.fsum(a.tolist()))
        except (ValueError, OverflowError) as e:
            with pytest.raises(type(e), match=f"^{re.escape(str(e))}$"):
                _fsum(a)
        else:
            assert repr(_fsum(a)) == want

    def test_empty_and_small_arrays_act_as_fsum(self):
        for crossover in (PMF_MODULE.ARRAY_MIN_CELLS, 0):  # as selected, and the kernel's guard
            with patch.object(PMF_MODULE, "ARRAY_MIN_CELLS", crossover):
                assert repr(_fsum(np.zeros(0))) == "0.0"
                assert _fsum(np.zeros((0, 3))).tolist() == []
                for a in ([-0.0, -0.0], [0.1, 0.2, 0.3], [1.0, 2.0**-53, 2.0**-60]):
                    assert repr(_fsum(np.array(a))) == repr(math.fsum(a))

    @pytest.mark.parametrize("shape", [(128, 3), (200, 3), (40, 40)])
    def test_tall_rows_equal_per_row_fsum(self, shape):
        """Arrays at least as tall as their rows of 3+ cells are wide, at the crossover and
        above it, with zeros (signed), subnormals and exponents that round."""
        rng = np.random.default_rng(shape[0] * shape[1])
        a = rng.choice([-1.0, 1.0], shape) * rng.random(shape)
        a *= np.exp2(rng.integers(-1074, 1000, shape))
        a[rng.random(shape) < 0.2] = 0.0
        a.flat[rng.integers(a.size, size=16)] = rng.choice(TERMS, 16)
        a[-1] = [1.0, 2.0**-53] + [0.0] * (shape[1] - 2)  # a tie, kept at 1.0
        assert a.size >= PMF_MODULE.ARRAY_MIN_CELLS
        assert [repr(v) for v in _fsum(a).tolist()] == [repr(math.fsum(row)) for row in a.tolist()]


class TestMixture:
    def test_idempotent(self):
        p = Pmf((0, 1), np.array([0.3, 0.7]))
        m = mixture(p, p)
        assert np.allclose(m.probs, p.probs, atol=1e-15)

    def test_disjoint_point_masses(self):
        p = Pmf((0,), np.array([1.0]))
        q = Pmf((1,), np.array([1.0]))
        m = mixture(p, q)
        assert m.atoms == (0, 1)
        assert np.allclose(m.probs, [0.5, 0.5])

    def test_reweighting_case_mixture(self):
        s = Pmf((1, 2, 3), np.full(3, 1.0 / 3.0))
        t = Pmf((1, 2, 3), np.array([0.25, 0.5, 0.25]))
        m = mixture(t, s)
        assert np.allclose(m.probs, [7 / 24, 5 / 12, 7 / 24], atol=1e-15)


def test_align_supports_zero_fills():
    p = Pmf((0, 1), np.array([0.4, 0.6]))
    q = Pmf((1, 2), np.array([0.1, 0.9]))
    pa, qa = align_supports(p, q)
    assert pa.atoms == (0, 1, 2)
    assert np.allclose(pa.probs, [0.4, 0.6, 0.0])
    assert np.allclose(qa.probs, [0.0, 0.1, 0.9])


def _align_by_union_index(p, q):
    """The union alignment as a set of p's atoms and an index over the union."""
    p_set = set(p.atoms)
    atoms = p.atoms + tuple(a for a in q.atoms if a not in p_set)
    index = {a: i for i, a in enumerate(atoms)}
    pp, qq = np.zeros(len(atoms)), np.zeros(len(atoms))
    pp[: len(p.atoms)] = p.probs
    qq[[index[a] for a in q.atoms]] = q.probs
    return atoms, pp, qq


@pytest.mark.parametrize("p_atoms, q_atoms", [
    ((0, 1, 2), (1, 2, 3, 4)),  # overlapping
    ((0, 1), (2, 3, 4)),  # disjoint
    ((0, 1, 2, 3), (3, 1, 0, 2)),  # permuted
    ((0, 1, 2), (0, 1, 2)),  # identical
    ((0.0, 1, "a"), (-0.0, 1.0, "b")),  # equal atoms of other types keep p's
    ((True, 2.5), (1, -0.0, 3.0)),
    ((-0.0, 1.0), (0, True, (1, 2))),
    (tuple(range(0, 4000, 2)), tuple(range(1, 4001, 2)) + (0, 2)),
])
def test_align_supports_equals_the_union_index(p_atoms, q_atoms):
    rng = np.random.default_rng(len(p_atoms) + len(q_atoms))
    p, q = (Pmf(atoms, w / math.fsum(w.tolist()))
            for atoms, w in ((p_atoms, rng.random(len(p_atoms))),
                             (q_atoms, rng.random(len(q_atoms)))))
    atoms, pp, qq = _align_by_union_index(p, q)
    pa, qa = align_supports(p, q)
    assert pa.atoms == qa.atoms == atoms and repr(pa.atoms) == repr(atoms)
    assert repr(pa.probs.tolist()) == repr(pp.tolist())
    assert repr(qa.probs.tolist()) == repr(qq.tolist())


def test_joint_json_round_trip():
    rng = np.random.default_rng(5)
    j = random_joint(rng)
    back = JointPmf.from_json(j.to_json())
    assert back.x_atoms == j.x_atoms
    assert back.y_atoms == j.y_atoms
    assert np.array_equal(back.mass, j.mass)


@st.composite
def grids_with_non_finite_cells(draw):
    """A valid joint mass grid, and a copy with NaN or ±inf in one or more drawn cells."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(2, 4))
    mass = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(1e-3, 1.0, (rows, cols))
    mass /= math.fsum(mass.ravel().tolist())
    bad = mass.copy()
    for i in draw(st.sets(st.integers(0, bad.size - 1), min_size=1)):
        bad.flat[i] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return mass, bad


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=6,
                unique=True),
       st.sampled_from([math.nan, math.inf, -math.inf, 10**400, "a"]), st.data())
def test_non_finite_atom_has_no_coordinates_in_any_position(finite, bad, data):
    atoms = list(finite)
    atoms.insert(data.draw(st.integers(0, len(atoms))), bad)
    p = Pmf(tuple(atoms), np.full(len(atoms), 1.0 / len(atoms)))
    q = Pmf(tuple(finite), np.full(len(finite), 1.0 / len(finite)))
    for call in (lambda: p.coords, lambda: h_divergence_1d(p, q), lambda: h_divergence_1d(q, p)):
        with pytest.raises(DistributionError, match="finite real-number atoms"):
            call()


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(grids_with_non_finite_cells())
def test_non_finite_entries_rejected_in_any_position(grids):
    mass, bad = grids
    x_atoms, y_atoms = tuple(range(mass.shape[0])), tuple(range(mass.shape[1]))
    atoms = tuple(range(mass.size))
    Pmf(atoms, mass.ravel()), JointPmf(x_atoms, y_atoms, mass), LossTable(mass)  # all valid
    with pytest.raises(DistributionError):
        Pmf(atoms, bad.ravel())
    with pytest.raises(DistributionError):
        JointPmf(x_atoms, y_atoms, bad)
    with pytest.raises(DistributionError):
        LossTable(bad)
