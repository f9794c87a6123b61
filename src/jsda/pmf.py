"""Exact finite-support probability objects, the expected risk and the
conditional entropy H(Y|X) of a joint.

Everything here is double precision and deliberately boring: probability
vectors that must sum to one within 1e-12, joint grids over X x Y, and loss
tables with a recorded range. All types are frozen dataclasses whose arrays
are locked read-only, so instances can be shared freely across threads; every
operation here is a pure function. Every type compares and hashes by identity.

Conventions used throughout the package:

- zero-mass atoms are legal and kept in supports (union-support divergence
  computation needs them), but they never produce a conditional distribution;
- 0 * log 0 = 0 everywhere;
- every sum is ``math.fsum``'s correctly rounded value, so pinned analytic values
  (e.g. exact disjoint-support divergences) come out bit-clean and no term order
  changes a bit. ``_fsum`` takes each row of an array (a 1-D array is one row) in
  one of three forms: below ARRAY_MIN_CELLS cells, and on rows of 3+ cells in an
  array at least as tall as they are wide, a list's ``math.fsum`` per row; on rows
  of at most two cells, one whole-array add from +0.0 (the correctly rounded sum
  of two floats is their IEEE sum); on wider rows, exponent bins (Demmel & Hida,
  SIAM J. Sci. Comput. 25(4), 2003): ``frexp`` cuts each term exactly into halves
  of 26 and 27 bits, ``bincount`` adds the halves of one exponent as integers
  below 2**53, and ``ldexp`` scales each bin back exactly, subnormals included,
  so ``math.fsum`` of the bins rounds the exact sum. A non-finite sum or term, a
  term of 2**997 or more and 2**26 cells or more fall back to the lists and their
  errors. From ARRAY_MIN_CELLS cells on, the row kernels take their terms as whole
  arrays by the loops' IEEE operations, with zeros in the cells that do not count;
- each natural log of a whole array is the C library's ``log``, as in
  ``math.log``: one call of scipy's ``xlogy`` per array, imported on first use.
  numpy 2.4.6's AVX-512 ``np.log`` missed ``math.log`` by an ulp on 28,060 of
  8,000,000 uniform inputs in (0, 2), and ``np.log2`` missed ``math.log2`` on
  5,039 of 2,000,000, so base-2 logs stay ``math.log2`` on each Python float;
- ``Pmf(...)`` validates and is the only public constructor. ``Pmf`` and ``JointPmf``
  check their masses by one helper, ``_check_mass``, and ``LossTable`` its values in the
  same two forms: below ARRAY_MIN_CELLS cells one list feeds every test (numpy's fixed cost
  per call is most of the time there), from it on whole arrays. The unchecked
  ``Pmf._unchecked`` is used only on arrays derived from objects that were
  already validated (marginals, aligned supports, sum-checked conditional
  rows), where the checks could not fail.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from itertools import compress
from typing import Literal, Sequence

import numpy as np

VALIDITY_TOL = 1e-12
# From this many cells on, exact sums take whole arrays. Measured at 384 cells on
# rows 1-384 cells wide (medians of 21 alternations): the JS kernel's array form took
# 0.10-0.56x the loops' time in nats and 0.21-1.01x in bits (whose logs stay per element),
# the entropy's 0.12-0.56x. At 256 cells the bits form took up to 1.14x on rows of 8 or
# more cells, and at 64 cells the entropy's up to 1.56x. ``_fsum``'s bins cost about 20 us
# a call: on discretized masses, 1.53x a list's ``math.fsum`` at 392 cells, 1.00x at 648,
# 0.60x at 1,152 and 0.25x at 3,200.
ARRAY_MIN_CELLS = 384

Axis = Literal["y|x", "x|y"]
MarginalAxis = Literal["x", "y"]


class DistributionError(ValueError):
    """A probability object violates its contract."""


def _check_total(total: float, what: str = "probabilities sum") -> None:
    if not abs(total - 1.0) <= VALIDITY_TOL:  # NaN fails too
        raise DistributionError(f"{what} to {total!r}, not 1")


def _check_mass(a: np.ndarray, noun: str, what: str) -> None:
    """``negative {noun}`` if an entry of ``a`` is below zero (NaN and -0.0 are not), then
    ``_check_total`` of its exact sum, which is inf where the sum overflows. Below
    ARRAY_MIN_CELLS one list feeds both tests, as numpy's fixed cost per call dominates."""
    small = a.size < ARRAY_MIN_CELLS
    values = a.ravel().tolist() if small else a.ravel()
    # ``min`` is NaN only where the first value is, else the least non-NaN value, so its
    # test is exact and skips the slower scan of each cell when nothing is negative
    if ((not min(values, default=0.0) >= 0.0 and any(map((0.0).__gt__, values))) if small
            else (values < 0).any()):
        raise DistributionError(f"negative {noun}")
    try:
        total = math.fsum(values) if small else _fsum(values)
    except OverflowError:  # of nonnegative terms, so the sum is beyond the float range
        total = math.inf
    _check_total(total, what)


def _fsum(a: np.ndarray):
    """``math.fsum(a.tolist())`` of a 1-D float array, or a float array of the ``math.fsum``
    of each row of a 2-D one, bit for bit, in the form that the array's shape picks (see
    the module docstring); a 1-D array is one row."""
    if ARRAY_MIN_CELLS <= a.size < 2**26 and a.size:
        rows = a if a.ndim == 2 else a[None]
        if rows.shape[1] <= 2:  # the correctly rounded sum of two floats is their IEEE sum
            with np.errstate(over="ignore", invalid="ignore"):  # fsum's errors come below
                # from +0.0, which turns a -0.0 sum into 0.0 as fsum does
                sums = sum(rows.T, np.zeros(len(rows)))
            if np.isfinite(sums).all():
                return sums if a.ndim == 2 else sums.item()
        elif len(rows) < rows.shape[1]:  # wide rows: one bincount over (row, exponent)
            mant, exp = np.frexp(rows)
            lo, hi = int(exp.min()), int(exp.max())
            if hi <= 997 and np.isfinite(mant).all():  # so no bin, and no sum, overflows
                scaled = mant * 2.0**26  # a term is scaled * 2**(exp - 26)
                high = np.trunc(scaled)  # an integer below 2**26
                width, index = hi - lo + 1, exp - lo  # one bin per (row, exponent)
                if len(rows) > 1:
                    index = index + np.arange(0, len(rows) * width, width)[:, None]
                bins = [np.ldexp(np.bincount(index.ravel(), half.ravel(), len(rows) * width)
                                 .reshape(len(rows), width), np.arange(lo - 26, hi - 25)).tolist()
                        for half in (high, scaled - high)]  # the low half: 27 bits below the point
                sums = [math.fsum(h + l) for h, l in zip(*bins)]
                return np.array(sums) if a.ndim == 2 else sums[0]
    # lists, also for tall arrays of 3+-cell rows: the bins' work grows as rows x exponents
    if a.ndim == 1:
        return math.fsum(a.tolist())
    return np.fromiter(map(math.fsum, a.tolist()), float, len(a))


def _xlogy(a: np.ndarray, r: np.ndarray, log=math.log) -> np.ndarray:
    """``a * log(r)`` element-wise with the bits of ``a * log(r)`` on Python floats, for
    ``log`` ``math.log`` or ``math.log2`` and nonzero ``a``. The natural log is one call
    of scipy's ``xlogy``, which takes the C library's ``log`` as ``math.log`` does;
    ``math.log2`` stays a Python call per element."""
    if log is math.log:
        from scipy.special import xlogy  # here, as it doubles the time of ``import jsda``
        return xlogy(a, r)
    return a * np.fromiter(map(log, r.tolist()), float, r.size)


def _freeze(a, dtype=float) -> np.ndarray:
    """A read-only ``dtype`` copy of ``a`` in its memory order, which no caller can write."""
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Pmf:
    """Probability mass function over an ordered finite support.

    ``atoms`` are unique hashable identifiers. Where they are finite real
    numbers they are also the points of the real line (``coords``) that the
    1-D threshold-classifier divergence sweeps.
    """

    atoms: tuple
    probs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "atoms", tuple(self.atoms))
        object.__setattr__(self, "probs", _freeze(self.probs))
        if self.probs.ndim != 1 or len(self.atoms) != self.probs.shape[0]:
            raise DistributionError("atoms and probs must be 1-D and aligned")
        if len(set(self.atoms)) != len(self.atoms):
            raise DistributionError("support atoms must be unique")
        _check_mass(self.probs, "probability mass", "probabilities sum")

    @classmethod
    def _unchecked(cls, atoms: tuple, probs: np.ndarray) -> "Pmf":
        """No checks; ``probs`` must be a fresh float array, which gets frozen."""
        probs.setflags(write=False)
        pmf = object.__new__(cls)
        pmf.__dict__.update(atoms=atoms, probs=probs)
        return pmf

    @property
    def coords(self) -> tuple[float, ...]:
        """The atoms as floats; an error unless every atom is a finite real number."""
        real = all(issubclass(t, numbers.Real) for t in set(map(type, self.atoms)))
        try:
            coords = tuple(map(float, self.atoms)) if real else (math.nan,)
        except OverflowError:  # an int beyond the float range
            coords = (math.inf,)
        if not all(map(math.isfinite, coords)):
            raise DistributionError("coordinates need finite real-number atoms")
        return coords

    def __len__(self) -> int:
        return len(self.atoms)

    @staticmethod
    def uniform(atoms: Sequence) -> "Pmf":
        n = len(atoms)
        if n == 0:
            raise DistributionError("empty support")
        return Pmf(tuple(atoms), np.full(n, 1.0 / n))


@dataclass(frozen=True, eq=False)
class JointPmf:
    """Joint distribution over X x Y stored as a |X| x |Y| mass grid."""

    x_atoms: tuple
    y_atoms: tuple
    mass: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "x_atoms", tuple(self.x_atoms))
        object.__setattr__(self, "y_atoms", tuple(self.y_atoms))
        object.__setattr__(self, "mass", _freeze(self.mass))
        nx, ny = len(self.x_atoms), len(self.y_atoms)
        if ny < 2:
            raise DistributionError("a joint needs at least two labels")
        if self.mass.shape != (nx, ny):
            raise DistributionError(
                f"mass grid {self.mass.shape} does not match supports ({nx},{ny})")
        if len(set(self.x_atoms)) != nx or len(set(self.y_atoms)) != ny:
            raise DistributionError("support atoms must be unique")
        _check_mass(self.mass, "joint mass", "joint mass sums")

    @property
    def shape(self) -> tuple[int, int]:
        return self.mass.shape

    def to_json(self) -> str:
        return json.dumps({
            "x_support": [list(a) if isinstance(a, tuple) else a for a in self.x_atoms],
            "y_support": [list(a) if isinstance(a, tuple) else a for a in self.y_atoms],
            "mass": self.mass.tolist(),
        })

    @staticmethod
    def from_json(s: str) -> "JointPmf":
        d = json.loads(s)
        xs = tuple(tuple(a) if isinstance(a, list) else a for a in d["x_support"])
        ys = tuple(tuple(a) if isinstance(a, list) else a for a in d["y_support"])
        return JointPmf(xs, ys, np.asarray(d["mass"], dtype=float))


@dataclass(frozen=True, eq=False)
class LossTable:
    """Per-(x, y) loss values with their recorded range.

    ``range_g`` is always max(values) - min(values), and a range that overflows
    is an error; zero-one tables are detected exactly (every entry in {0, 1}).
    """

    values: np.ndarray
    range_g: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _freeze(self.values))
        if self.values.ndim != 2:
            raise DistributionError("loss values must form an |X| x |Y| grid")
        if not self.values.size:
            raise DistributionError(f"loss grid {self.values.shape} is empty")
        small = self.values.size < ARRAY_MIN_CELLS  # one list feeds both, as in _check_mass
        values = self.values.ravel().tolist() if small else self.values
        if not (all(map(math.isfinite, values)) if small else np.isfinite(values).all()):
            raise DistributionError("loss values must be finite")
        # Python floats on both paths: the subtraction has numpy's bits and no overflow warning
        hi, lo = (max(values), min(values)) if small else (float(values.max()), float(values.min()))
        if hi - lo == math.inf:
            raise DistributionError(f"loss range {hi!r} - {lo!r} overflows")
        object.__setattr__(self, "range_g", hi - lo)

    @property
    def is_zero_one(self) -> bool:
        return bool(np.all((self.values == 0.0) | (self.values == 1.0)))


def _marginal_probs(j: JointPmf, axis: MarginalAxis) -> np.ndarray:
    """The grid's row ("x") or column ("y") sums over their fsum, which absorbs drift."""
    sums = j.mass.sum(axis=1 if axis == "x" else 0)
    return sums / _fsum(sums)


def marginals(j: JointPmf) -> tuple[Pmf, Pmf]:
    """Row/column sums of the joint grid as (Pmf over X, Pmf over Y)."""
    return (Pmf._unchecked(j.x_atoms, _marginal_probs(j, "x")),
            Pmf._unchecked(j.y_atoms, _marginal_probs(j, "y")))


def conditional_rows(j: JointPmf, axis: Axis) -> tuple[tuple, np.ndarray, np.ndarray]:
    """(conditioning atoms, their marginal weights, weight-normalised rows).

    Row k is the probs of ``conditionals(j, axis)[atoms[k]]`` and gets the
    same validity check; zero-weight rows stay zero and yield no conditional.
    """
    if axis == "y|x":
        weights, rows, atoms = j.mass.sum(axis=1), j.mass, j.x_atoms
    elif axis == "x|y":
        weights, rows, atoms = j.mass.sum(axis=0), j.mass.T, j.y_atoms
    else:
        raise DistributionError(f"unknown conditioning axis {axis!r}")
    live = weights > 0
    normed = rows / np.where(live, weights, 1.0)[:, None]
    # the loop, as the whole-array check cost 7.6 % of instances/s on the suites' joints
    if normed.size < ARRAY_MIN_CELLS:
        totals = map(math.fsum, compress(normed.tolist(), live.tolist()))
    else:  # only the first failing row's total, to raise the loop's message
        sums = _fsum(normed)  # a zero-weight row is all zeros, and sums to 0.0
        totals = sums[live & ~(abs(sums - 1.0) <= VALIDITY_TOL)][:1].tolist()
    for total in totals:
        _check_total(total)
    return atoms, weights, normed


def conditionals(j: JointPmf, axis: Axis) -> dict:
    """Family of conditional Pmfs indexed by the conditioning atom.

    ``axis="y|x"`` conditions on X (one Pmf over Y per x atom with positive
    marginal mass); ``axis="x|y"`` conditions on Y. Zero-mass conditioning
    atoms yield no conditional. The reconstruction identity
    joint = conditional x marginal holds within 1e-12 by construction.
    """
    atoms, weights, rows = conditional_rows(j, axis)
    support = j.y_atoms if axis == "y|x" else j.x_atoms
    family = {a: Pmf._unchecked(support, row)
              for a, w, row in zip(atoms, weights, rows) if w > 0}
    if not family:
        raise DistributionError("empty conditional family")
    return family


def expected_risk(j: JointPmf, l: LossTable) -> float:
    """Expected loss sum(mass(x, y) * values(x, y)) over the grid."""
    if l.values.shape != j.shape:
        raise DistributionError(
            f"loss grid {l.values.shape} does not match joint {j.shape}")
    return _fsum((j.mass * l.values).ravel())


def _conditional_entropy(weights: np.ndarray, rows: np.ndarray) -> float:
    """H(Y|X) in nats from the weights and rows of ``conditional_rows(j, "y|x")``:
    the weighted sum of the row entropies, with 0 * log 0 = 0."""
    if rows.size < ARRAY_MIN_CELLS:
        return math.fsum([w * math.fsum([-v * math.log(v) for v in row if v > 0.0])
                          for w, row in zip(weights.tolist(), rows.tolist()) if w > 0])
    mass = rows > 0.0
    terms = np.zeros(rows.shape)
    v = rows[mass]
    terms[mass] = -_xlogy(v, v)  # negation is exact: the bits of -v * log(v)
    return _fsum(weights * _fsum(terms))  # a zero-weight row is all zeros


def mixture(p: Pmf, q: Pmf) -> Pmf:
    """The even mixture (p + q)/2 of two Pmfs on their unioned support.

    Supports are unioned with zero fill (atoms keep p's order, then q's new
    atoms).
    """
    pa, qa = align_supports(p, q)
    return Pmf(pa.atoms, 0.5 * pa.probs + 0.5 * qa.probs)


def align_supports(p: Pmf, q: Pmf) -> tuple[Pmf, Pmf]:
    """Re-express two Pmfs on their unioned support (zero-filled).

    Atom order is p's support followed by q's atoms not in p.
    """
    index = dict(zip(p.atoms, range(len(p))))
    at = [index.setdefault(a, len(index)) for a in q.atoms]  # q's new atoms go last
    atoms = tuple(index)
    pp = np.zeros(len(atoms))
    qq = np.zeros(len(atoms))
    pp[: len(p)] = p.probs
    qq[at] = q.probs
    return Pmf._unchecked(atoms, pp), Pmf._unchecked(atoms, qq)
