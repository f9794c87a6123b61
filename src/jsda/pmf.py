"""Exact finite-support probability objects and the risk/entropy functionals.

Everything here is double precision and deliberately boring: probability
vectors that must sum to one within 1e-12, joint grids over X x Y, and loss
tables with a recorded range. All types are frozen dataclasses whose arrays
are locked read-only, so instances can be shared freely across threads; every
operation here is a pure function. A ``JointPmf`` compares and hashes by
identity.

Conventions used throughout the package:

- zero-mass atoms are legal and kept in supports (union-support divergence
  computation needs them), but they never produce a conditional distribution;
- 0 * log 0 = 0 everywhere;
- accumulation uses ``math.fsum`` so that pinned analytic values (e.g. exact
  disjoint-support divergences) come out bit-clean;
- ``Pmf(...)`` validates and is the only public constructor. The unchecked
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

Axis = Literal["y|x", "x|y"]
LogBase = Literal["e", "2"]


class DistributionError(ValueError):
    """A probability object violates its contract."""


def _log_with_base(base: LogBase) -> float:
    """Return the divisor converting natural logs to the requested base."""
    if base == "e":
        return 1.0
    if base == "2":
        return math.log(2.0)
    raise DistributionError(f"unsupported log base {base!r}; use 'e' or '2'")


def _check_total(values: list[float], what: str = "probabilities sum") -> None:
    total = math.fsum(values)
    if not abs(total - 1.0) <= VALIDITY_TOL:  # NaN fails too
        raise DistributionError(f"{what} to {total!r}, not 1")


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
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
        if (self.probs < 0).any():
            raise DistributionError("negative probability mass")
        _check_total(self.probs.tolist())

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

    def prob(self, atom) -> float:
        """Mass of one atom (0.0 for atoms outside the support)."""
        try:
            return float(self.probs[self.atoms.index(atom)])
        except ValueError:
            return 0.0

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
        if (self.mass < 0).any():
            raise DistributionError("negative joint mass")
        _check_total(self.mass.ravel().tolist(), "joint mass sums")

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


@dataclass(frozen=True)
class LossTable:
    """Per-(x, y) loss values with their recorded range.

    ``range_g`` is always max(values) - min(values); zero-one tables are
    detected exactly (every entry in {0, 1}).
    """

    values: np.ndarray
    range_g: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _freeze(self.values))
        if self.values.ndim != 2:
            raise DistributionError("loss values must form an |X| x |Y| grid")
        if not np.all(np.isfinite(self.values)):
            raise DistributionError("loss values must be finite")
        g = float(self.values.max() - self.values.min())
        object.__setattr__(self, "range_g", g)

    @property
    def is_zero_one(self) -> bool:
        return bool(np.all((self.values == 0.0) | (self.values == 1.0)))


def marginals(j: JointPmf) -> tuple[Pmf, Pmf]:
    """Row/column sums of the joint grid as (Pmf over X, Pmf over Y)."""
    px, py = j.mass.sum(axis=1), j.mass.sum(axis=0)
    # Tiny accumulation drift is absorbed so downstream validity holds.
    return (Pmf._unchecked(j.x_atoms, px / math.fsum(px.tolist())),
            Pmf._unchecked(j.y_atoms, py / math.fsum(py.tolist())))


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
    for row in compress(normed.tolist(), live.tolist()):
        _check_total(row)
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
    return math.fsum((j.mass * l.values).ravel().tolist())


def entropy(p: Pmf | np.ndarray, base: LogBase = "e") -> float:
    """Shannon entropy with the 0*log0 = 0 convention."""
    probs = p.probs if isinstance(p, Pmf) else np.asarray(p, dtype=float)
    return _entropy_nats(probs.tolist()) / _log_with_base(base)


def _entropy_nats(probs: list[float]) -> float:
    return math.fsum([-v * math.log(v) for v in probs if v > 0.0])


def entropy_stats(j: JointPmf, base: LogBase = "e") -> tuple[float, float]:
    """(H(Y), H(Y|X)) of the joint, in the requested base.

    H(Y|X) is the marginal-weighted average of the per-x conditional
    entropies; the chain H(Y|X) <= H(Y) <= log|Y| always holds.
    """
    _, py = marginals(j)
    _, weights, rows = conditional_rows(j, "y|x")
    return entropy(py, base), _conditional_entropy(weights, rows) / _log_with_base(base)


def _conditional_entropy(weights: np.ndarray, rows: np.ndarray) -> float:
    """H(Y|X) in nats from the weights and rows of ``conditional_rows(j, "y|x")``."""
    return math.fsum([w * _entropy_nats(row)
                      for w, row in zip(weights.tolist(), rows.tolist()) if w > 0])


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
    p_set = set(p.atoms)
    atoms = p.atoms + tuple(a for a in q.atoms if a not in p_set)
    index = {a: i for i, a in enumerate(atoms)}
    pp = np.zeros(len(atoms))
    qq = np.zeros(len(atoms))
    pp[: len(p.atoms)] = p.probs
    qq[[index[a] for a in q.atoms]] = q.probs
    return Pmf._unchecked(atoms, pp), Pmf._unchecked(atoms, qq)
