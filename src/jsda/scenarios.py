"""Parametric synthetic source/target scenarios.

A scenario is a pair of labeled 2-D Gaussian mixtures: per-class means and
covariances for each domain plus the two label marginals. The same object
serves two consumers: the trainer draws continuous samples from it, and the
bound verifiers receive grid-discretized exact joints from it.

Scenario kinds and the hypotheses they realize exactly on the grid:

- ``label-shift``      identical class conditionals, different label marginals;
- ``conditional-shift`` rotated/shifted target class means;
- ``cofeature``        identical label-given-feature conditionals, realized on
  the discretized grid by constructing T(x, y) = T(x) * S(y|x) directly (a
  rigid transform of Gaussian conditionals would not keep S(y|x) fixed);
- ``open-set``         uniform label marginals over two class sets sharing
  floor(alpha * N) classes.

Sampling takes explicit purpose-keyed generator streams so ablation runs can
share random numbers; a (scenario, seed, domain, n) tuple always reproduces
the same batch.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import MISSING, dataclass, fields
from typing import Literal, Sequence

import numpy as np

from .pmf import JointPmf, _freeze

Domain = Literal["source", "target"]

_DOMAIN_CODE = {"source": 0, "target": 1}
_STREAM_LABELS = 1
_STREAM_FEATURES = 2
BOX_SIGMAS = 4.0  # the discretization box reaches mean +- BOX_SIGMAS sd per axis
KINDS = ("label-shift", "conditional-shift", "cofeature", "open-set")


class ScenarioError(ValueError):
    pass


def _check_integer(value, name: str, minimum: int,
                   error: type[Exception] = ScenarioError) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, not {value!r}")
    if value < minimum:
        raise error(f"{name} must be >= {minimum}, not {value!r}")


def _check_real(value, name: str, error: type[Exception] = ScenarioError) -> None:
    if isinstance(value, bool) or not (isinstance(value, numbers.Real) and math.isfinite(value)):
        raise error(f"{name} must be a finite real number, not {value!r}")


def _check_fraction(value, name: str, error: type[Exception] = ScenarioError) -> None:
    _check_real(value, name, error)
    if not 0.0 < value <= 1.0:
        raise error(f"{name} must lie in (0, 1], not {value!r}")


def _json_object(raw, known, what: str, required=()) -> dict:
    """``raw`` if it is a JSON object whose keys lie in ``known`` and cover ``required``."""
    if not isinstance(raw, dict):
        raise ScenarioError(f"{what} must hold a JSON object")
    unknown = set(raw) - set(known)
    if unknown:
        raise ScenarioError(f"unknown {what} keys {sorted(unknown)}")
    missing = [name for name in required if name not in raw]
    if missing:
        raise ScenarioError(f"missing {what} keys {missing}")
    return raw


@dataclass(frozen=True)
class ShiftScenario:
    kind: str
    n_classes: int
    source_means: np.ndarray
    source_covs: np.ndarray
    target_means: np.ndarray
    target_covs: np.ndarray
    source_label_marginal: np.ndarray
    target_label_marginal: np.ndarray
    overlap_alpha: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ScenarioError(f"unknown scenario kind {self.kind!r}")
        for name in ("source_means", "source_covs", "target_means", "target_covs",
                     "source_label_marginal", "target_label_marginal"):
            arr = _freeze(getattr(self, name))
            if not np.isfinite(arr).all():
                raise ScenarioError(f"{name} must be finite")
            object.__setattr__(self, name, arr)
        _check_integer(self.n_classes, "n_classes", 2)
        _check_integer(self.seed, "seed", 0)  # numpy's generators take no negative seed
        k = self.n_classes
        if self.source_means.shape != (k, 2) or self.target_means.shape != (k, 2):
            raise ScenarioError("class means must be (n_classes, 2)")
        if self.source_covs.shape != (k, 2, 2) or self.target_covs.shape != (k, 2, 2):
            raise ScenarioError("class covariances must be (n_classes, 2, 2)")
        covs = np.concatenate([self.source_covs, self.target_covs])
        if not (np.array_equal(covs, covs.swapaxes(1, 2)) and np.linalg.eigvalsh(covs).min() > 0):
            raise ScenarioError("class covariances must be symmetric positive definite")
        for marg in (self.source_label_marginal, self.target_label_marginal):
            if marg.shape != (k,) or np.any(marg < 0) or not abs(marg.sum() - 1.0) <= 1e-9:
                raise ScenarioError("label marginals must be valid distributions")
        if self.overlap_alpha is not None:
            _check_fraction(self.overlap_alpha, "overlap_alpha")
            n = int(np.count_nonzero(self.source_label_marginal))
            shared = np.count_nonzero(
                (self.source_label_marginal > 0) & (self.target_label_marginal > 0))
            if shared != int(math.floor(self.overlap_alpha * n)):
                raise ScenarioError(
                    f"open-set scenario must share floor(alpha*N)={int(math.floor(self.overlap_alpha * n))} "
                    f"classes, found {shared}")

    def domain_params(self, domain: Domain):
        if domain == "source":
            return self.source_means, self.source_covs, self.source_label_marginal
        if domain == "target":
            return self.target_means, self.target_covs, self.target_label_marginal
        raise ScenarioError(f"unknown domain {domain!r}")

    def to_json_dict(self) -> dict:
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in values.items()}

    @staticmethod
    def from_json_dict(d: dict) -> "ShiftScenario":
        known = fields(ShiftScenario)
        required = [f.name for f in known if f.default is MISSING]
        return ShiftScenario(**_json_object(d, [f.name for f in known], "scenario", required))

    def save(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_json_dict(), f, indent=2)

    @staticmethod
    def load(path) -> "ShiftScenario":
        with open(path) as f:
            return ShiftScenario.from_json_dict(json.load(f))


@dataclass(frozen=True)
class SampleBatch:
    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self) -> None:
        xs, ys = _freeze(self.xs), _freeze(self.ys, int)
        if xs.ndim != 2 or xs.shape[1] != 2 or ys.shape != (xs.shape[0],):
            raise ScenarioError("batch arrays misaligned")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    def __len__(self) -> int:
        return self.xs.shape[0]


def _ring_means(k: int, radius: float) -> np.ndarray:
    angles = 2.0 * math.pi * np.arange(k) / k
    return radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)


def _rotation(deg: float) -> np.ndarray:
    r = math.radians(deg)
    return np.array([[math.cos(r), -math.sin(r)], [math.sin(r), math.cos(r)]])


# The parameters each kind does not read; make_scenario rejects them when passed.
_UNREAD = {
    "label-shift": ("rotation_deg", "feature_shift", "n", "alpha"),
    "conditional-shift": ("feature_shift", "n", "alpha"),
    "cofeature": ("target_label_marginal", "rotation_deg", "n", "alpha"),
    "open-set": ("n_classes", "source_label_marginal", "target_label_marginal",
                 "rotation_deg", "feature_shift"),
}


def make_scenario(kind: str, *, n_classes: int | None = None,
                  source_label_marginal: Sequence[float] | None = None,
                  target_label_marginal: Sequence[float] | None = None,
                  cov_scale: float = 0.5,
                  rotation_deg: float | None = None,
                  feature_shift: Sequence[float] | None = None,
                  n: int | None = None,
                  alpha: float | None = None,
                  seed: int = 0) -> ShiftScenario:
    """Build a scenario of the requested kind (see module docstring). A parameter
    left at None takes its default; passing one the kind does not read is an error."""
    given = locals()
    unread = [name for name in _UNREAD.get(kind, ()) if given[name] is not None]
    if unread:
        raise ScenarioError(f"{kind} scenarios do not use {', '.join(unread)}")
    n_classes = 2 if n_classes is None else n_classes
    rotation_deg = 30.0 if rotation_deg is None else rotation_deg
    feature_shift = (1.0, 0.5) if feature_shift is None else feature_shift
    _check_integer(n_classes, "n_classes", 2)
    if n is not None:
        _check_integer(n, "n", 1)
    _check_real(cov_scale, "cov_scale")
    _check_real(rotation_deg, "rotation_deg")
    if not isinstance(feature_shift, (Sequence, np.ndarray)) or len(feature_shift) != 2:
        raise ScenarioError(f"feature_shift must hold 2 numbers, not {feature_shift!r}")
    for value in feature_shift:
        _check_real(value, "each feature_shift entry")
    if kind == "open-set":
        if n is None or alpha is None:
            raise ScenarioError("open-set needs n (classes per domain) and alpha")
        _check_fraction(alpha, "alpha")
        shared = int(math.floor(alpha * n))
        total = 2 * n - shared
        mu = _ring_means(total, radius=3.0)
        covs = np.repeat(np.eye(2)[None] * cov_scale, total, axis=0)
        s_marg = np.zeros(total)
        t_marg = np.zeros(total)
        s_marg[:n] = 1.0 / n
        t_marg[n - shared:] = 1.0 / n
        return ShiftScenario(kind, total, mu, covs, mu.copy(), covs.copy(),
                             s_marg, t_marg, overlap_alpha=alpha, seed=seed)

    mu = (_ring_means(n_classes, radius=2.0) if n_classes > 2
          else np.array([[-2.0, 0.0], [2.0, 0.0]]))
    covs = np.repeat(np.eye(2)[None] * cov_scale, n_classes, axis=0)
    s_marg = (np.full(n_classes, 1.0 / n_classes)
              if source_label_marginal is None
              else np.asarray(source_label_marginal, dtype=float))
    t_marg = s_marg.copy() if target_label_marginal is None else np.asarray(
        target_label_marginal, dtype=float)

    if kind == "conditional-shift":
        t_mu = mu @ _rotation(rotation_deg).T
    elif kind == "cofeature":
        # The target Gaussian parameters only define the chosen T(x); the
        # discretizer pairs it with the source's S(y|x).
        t_mu = mu + np.asarray(feature_shift, dtype=float)
        t_marg = s_marg.copy()
    else:  # label-shift; ShiftScenario rejects an unknown kind
        t_mu = mu.copy()
    return ShiftScenario(kind, n_classes, mu, covs, t_mu, covs.copy(),
                         s_marg, t_marg, seed=seed)


def sample(sc: ShiftScenario, domain: Domain, n: int,
           stream: Sequence[int] = ()) -> SampleBatch:
    """Draw n labeled points: y from the label marginal, x from its Gaussian.

    Deterministic in (scenario seed, domain, n, stream); labels and features
    use separate substreams.
    """
    _check_integer(n, "n", 1)
    means, covs, marg = sc.domain_params(domain)
    base = [sc.seed, _DOMAIN_CODE[domain], n, *map(int, stream)]
    rng_labels = np.random.default_rng(base + [_STREAM_LABELS])
    rng_feats = np.random.default_rng(base + [_STREAM_FEATURES])
    ys = rng_labels.choice(sc.n_classes, size=n, p=marg)
    noise = rng_feats.standard_normal((n, 2))
    xs = np.empty((n, 2))
    for y in range(sc.n_classes):
        mask = ys == y
        if not np.any(mask):
            continue
        chol = np.linalg.cholesky(covs[y])
        xs[mask] = means[y] + noise[mask] @ chol.T
    return SampleBatch(xs, ys)


def bounding_box(sc: ShiftScenario) -> tuple[np.ndarray, np.ndarray]:
    """Union over both domains and all classes of mean +- BOX_SIGMAS sd per axis."""
    los, his = [], []
    for means, covs, _ in (sc.domain_params("source"), sc.domain_params("target")):
        sd = np.sqrt(np.stack([np.diag(c) for c in covs]))
        los.append((means - BOX_SIGMAS * sd).min(axis=0))
        his.append((means + BOX_SIGMAS * sd).max(axis=0))
    lo = np.minimum(*los)
    hi = np.maximum(*his)
    if np.any(hi - lo <= 0):
        raise ScenarioError("degenerate bounding box")
    return lo, hi


def _grid_centers(sc: ShiftScenario, grid: int) -> np.ndarray:
    lo, hi = bounding_box(sc)
    step = (hi - lo) / grid
    cx = lo[0] + step[0] * (np.arange(grid) + 0.5)
    cy = lo[1] + step[1] * (np.arange(grid) + 0.5)
    return np.stack(np.meshgrid(cx, cy, indexing="ij"), axis=-1).reshape(-1, 2)


def _mixture_cell_mass(sc: ShiftScenario, domain: Domain,
                       centers: np.ndarray) -> np.ndarray:
    """Per-cell, per-class midpoint-rule mass (unnormalized)."""
    means, covs, marg = sc.domain_params(domain)
    cols = []
    for y in range(sc.n_classes):
        # the Gaussian pdf by scipy.stats.multivariate_normal's own steps
        s, u = np.linalg.eigh(covs[y], UPLO="L")  # s > 0: ShiftScenario checks it
        maha = np.sum(np.square((centers - means[y]) @ (u * np.sqrt(1.0 / s))), axis=-1)
        pdf = np.exp(-0.5 * (2 * np.log(2 * np.pi) + np.sum(np.log(s)) + maha))
        cols.append(marg[y] * pdf)
    return np.stack(cols, axis=1)


def discretize(sc: ShiftScenario, domain: Domain, grid: int = 32) -> JointPmf:
    """Exact finite joint over grid-cell centers x labels.

    Cell mass is the class-mixture density at the cell center times the cell
    area (midpoint rule), renormalized to total one. Both domains share the
    same grid, so the returned joints are directly comparable. For cofeature
    scenarios the target joint is assembled as T(x) * S(y|x), which keeps the
    label-given-feature conditionals exactly equal across domains.
    """
    _check_integer(grid, "grid", 2)
    centers = _grid_centers(sc, grid)
    x_atoms = tuple(map(tuple, centers.tolist()))
    y_atoms = tuple(range(sc.n_classes))
    if sc.kind == "cofeature" and domain == "target":
        source_mass = _mixture_cell_mass(sc, "source", centers)
        target_feature = _mixture_cell_mass(sc, "target", centers).sum(axis=1)
        s_x = source_mass.sum(axis=1)
        if np.any(s_x <= 0.0):
            raise ScenarioError(
                "source density underflows on the shared grid; reduce the "
                "feature shift or the grid extent")
        cond = source_mass / s_x[:, None]
        mass = target_feature[:, None] * cond
    else:
        mass = _mixture_cell_mass(sc, domain, centers)
    total = math.fsum(mass.ravel().tolist())
    return JointPmf(x_atoms, y_atoms, mass / total)


def midpoint_classifier(sc: ShiftScenario) -> tuple[np.ndarray, float]:
    """Perpendicular-bisector linear rule between the two source class means."""
    if sc.n_classes != 2:
        raise ScenarioError("midpoint classifier needs exactly two classes")
    mu0, mu1 = sc.source_means
    w = mu1 - mu0
    b = -float(w @ (mu0 + mu1) / 2.0)
    return w, b


def linear_zero_one_risk(sc: ShiftScenario, domain: Domain,
                         w: np.ndarray, b: float) -> float:
    """Exact zero-one risk of the rule predict 1 iff w.x + b > 0."""
    if sc.n_classes != 2:
        raise ScenarioError("closed-form risk needs exactly two classes")
    from scipy.special import ndtr  # the normal cdf; scipy.stats is slow to import

    means, covs, marg = sc.domain_params(domain)
    risk = 0.0
    for y in range(2):
        mean = float(w @ means[y] + b)
        sd = math.sqrt(float(w @ covs[y] @ w))
        p_positive = 1.0 - ndtr(-mean / sd)
        risk += marg[y] * (1.0 - p_positive if y == 1 else p_positive)
    return float(risk)
