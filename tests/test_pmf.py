"""Distribution-core tests: validity, marginals/conditionals, risk, entropy."""

import math

import numpy as np
import pytest

from jsda import (
    DistributionError,
    JointPmf,
    LossTable,
    Pmf,
    align_supports,
    conditionals,
    entropy_stats,
    expected_risk,
    h_divergence_1d,
    marginals,
    mixture,
)
from jsda.pmf import _conditional_entropy, conditional_rows


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
        assert p.prob(1) == 0.0
        assert len(p) == 3

    def test_arrays_are_locked(self):
        p = Pmf((0, 1), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            p.probs[0] = 0.9

    def test_loss_range_is_exact(self):
        l = LossTable(np.array([[0.25, 1.5], [-0.5, 0.75]]))
        assert l.range_g == 2.0
        assert not l.is_zero_one
        assert LossTable(np.array([[0.0, 1.0], [1.0, 0.0]])).is_zero_one


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


class TestEntropy:
    def test_independent_uniform_binary(self):
        j = JointPmf((0, 1), (0, 1), np.full((2, 2), 0.25))
        h_y, h_y_given_x = entropy_stats(j, "2")
        assert h_y == pytest.approx(1.0, abs=1e-12)
        assert h_y_given_x == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_labeling_has_zero_conditional_entropy(self):
        j = JointPmf((0, 1, 2), (0, 1),
                     np.array([[0.3, 0.0], [0.0, 0.5], [0.2, 0.0]]))
        _, h_y_given_x = entropy_stats(j)
        assert h_y_given_x == 0.0

    def test_matches_weighted_sum_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            j = random_joint(rng)
            px, _ = marginals(j)
            fam = conditionals(j, "y|x")
            oracle = sum(px.probs[i]
                         * -sum(v * math.log(v) for v in fam[x].probs if v > 0)
                         for i, x in enumerate(j.x_atoms))
            _, h = entropy_stats(j)
            assert h == pytest.approx(oracle, abs=1e-12)

    def test_entropy_chain(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            j = random_joint(rng)
            h_y, h_y_given_x = entropy_stats(j)
            assert h_y_given_x <= h_y + 1e-12
            assert h_y <= math.log(len(j.y_atoms)) + 1e-12


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
    """``entropy(row)`` as it was when ``_conditional_entropy`` called it once per row."""
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

    def test_bad_row_sum_raises_the_same_message(self):
        # y|x row 1 sums to nan, row 0 to 0.0, row 2 to nan
        for mass in (np.array([[0.5, 0.5], [np.inf, 1.0]]),
                     np.array([[1e308, 1e308], [0.2, 0.3]]),
                     np.array([[0.0, 0.0], [0.2, 0.3], [np.inf, 0.0]])):
            j = _unvalidated_joint(mass)
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(DistributionError) as want:
                    _per_row_conditional_rows(j, "y|x")
                with pytest.raises(DistributionError) as got:
                    conditional_rows(j, "y|x")
            assert str(got.value) == str(want.value)


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


def test_joint_json_round_trip():
    rng = np.random.default_rng(5)
    j = random_joint(rng)
    back = JointPmf.from_json(j.to_json())
    assert back.x_atoms == j.x_atoms
    assert back.y_atoms == j.y_atoms
    assert np.array_equal(back.mass, j.mass)
