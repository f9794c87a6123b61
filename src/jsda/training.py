"""Three-principle adaptation trainer with hand-written backpropagation.

The model is deliberately small and fully transparent: a one-hidden-layer
tanh feature extractor g: R^2 -> R^F, a linear-softmax classifier h on the
features, and a linear-logistic domain discriminator d. The composite
objective combines

  I   a label-reweighted source cross-entropy,
  II  per-class squared distances between moving-average feature centroids,
      weighted by the source label frequency plus the pseudo-label frequency,
  III the binary adversarial estimate of the feature-marginal divergence,
      which the discriminator ascends while the feature extractor descends
      (gradient reversal realized as an explicit sign choice at update time).

One forward and one backward pass per step give the gradient of the weighted
objective; the gradient audit perturbs a flat copy of the parameters and
checks each term alone by zeroing the other terms' weights (term I's weights
are the class weights). Each epoch is staged once: its rows are gathered
batch by batch, and all that depends on labels alone (range check, term-I
picks, term-II bincount index, masks and gradient steps) is computed for
every batch at once. A step sums each class's features with one weighted
bincount and scatters the term-II gradient back with one row gather; the
parameters are views of one flat vector, which each step updates in place.
A run's step leaves out the terms of the principles it drops: such a term is
not computed, so it reports 0.0 and cannot raise.

Training alternates epochs of gradient steps with a pseudo-label refresh
that re-estimates target labels, their distribution, and the black-box shift
weights from a held-out source confusion matrix. The adversarial weight
follows the warm-up schedule lam0 = 2/(1+exp(k*m)) - 1 over the training
progress m, with the conditional term at a fixed multiple of the same
schedule. Every random choice flows through purpose-keyed streams so runs
with common seeds share data, init, and batch order across principle
subsets. Fixed settings are module constants: WARMUP_K (k = -10, DANN's
gamma = 10; Ganin & Lempitsky, arXiv 1409.7495), CENTROID_MOMENTUM,
HOLDOUT_FRACTION, KAPPA (the constraint level of the trace's kappa_ok) and
GRAD_CHECK_STEP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

from .bounds import label_conditional_floor
from .divergence import js_divergence
from .labelshift import WeightVector, bbsl_weights, confusion_matrix
from .pmf import Pmf
from .scenarios import SampleBatch, ShiftScenario, _check_integer, _check_real, sample

LOG4 = 2.0 * math.log(2.0)

_STREAM_HOLDOUT = 11
_STREAM_INIT = 12
_STREAM_SHUFFLE = 13

WARMUP_K = -10.0
CENTROID_MOMENTUM = 0.5
HOLDOUT_FRACTION = 0.2
KAPPA = 0.05
GRAD_CHECK_STEP = 1e-5

PRINCIPLES = ("I", "II", "III")


class TrainingError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters and principle gating.

    cond_multiplier is the (>1) factor giving the conditional term a higher
    weight than the adversarial one. n_source counts training samples; a
    further HOLDOUT_FRACTION of that size is drawn and reserved for the
    shift-weight confusion matrix. Feature-shift tracking (the over-matching
    diagnostic) needs 2-D features.
    The warm-up constant (WARMUP_K, DANN's gamma = 10), the centroid momentum
    (CENTROID_MOMENTUM) and the constraint level (KAPPA) are module constants.
    """

    epochs: int = 40
    batch_size: int = 128
    learning_rate: float = 0.05
    cond_multiplier: float = 2.0
    seed: int = 0
    principles: frozenset = frozenset(PRINCIPLES)
    hidden_width: int = 16
    feature_width: int = 16
    n_source: int = 2000
    n_target: int = 2000
    track_feature_shift: bool = False
    feature_bins: int = 24

    def __post_init__(self) -> None:
        for f in fields(self):  # each setting by its declared type
            value = getattr(self, f.name)
            if f.type == "int":
                _check_integer(value, f.name, 0 if f.name == "seed" else 1, TrainingError)
            elif f.type == "float":
                _check_real(value, f.name, TrainingError)
                if not value > 0:
                    raise TrainingError(f"{f.name} must be positive, not {value!r}")
            elif f.type == "bool" and not isinstance(value, bool):
                raise TrainingError(f"{f.name} must be true or false, not {value!r}")
        try:
            names = None if isinstance(self.principles, str) else frozenset(self.principles)
        except TypeError:  # not iterable, or holding unhashable items
            names = None
        if names is None:
            raise TrainingError("principles must be a collection of principle names")
        object.__setattr__(self, "principles", names)
        if not self.principles or not self.principles <= set(PRINCIPLES):
            raise TrainingError("principles must be a nonempty subset of {I, II, III}")
        if not self.cond_multiplier > 1.0:
            raise TrainingError("the conditional-loss multiplier must exceed 1")
        if self.track_feature_shift and self.feature_width != 2:
            raise TrainingError("feature-shift tracking needs feature_width == 2")

    def principles_label(self) -> str:
        return "+".join(p for p in PRINCIPLES if p in self.principles)


@dataclass
class ModelParams:
    """Feature extractor (w1,b1,w2,b2), classifier (wh,bh), discriminator (wd,bd)."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    wh: np.ndarray
    bh: np.ndarray
    wd: np.ndarray
    bd: np.ndarray

    def param_items(self) -> list[tuple[str, np.ndarray]]:
        return [("w1", self.w1), ("b1", self.b1), ("w2", self.w2), ("b2", self.b2),
                ("wh", self.wh), ("bh", self.bh), ("wd", self.wd), ("bd", self.bd)]

    @property
    def hidden_width(self) -> int:
        return self.w1.shape[0]

    @property
    def feature_width(self) -> int:
        return self.w2.shape[0]

    @property
    def n_classes(self) -> int:
        return self.wh.shape[0]


def init_models(cfg: TrainConfig, n_classes: int = 2) -> ModelParams:
    """Random 1/sqrt(fan_in) init, deterministic under cfg.seed."""
    rng = np.random.default_rng([cfg.seed, _STREAM_INIT])
    h, f = cfg.hidden_width, cfg.feature_width

    def layer(rows: int, fan_in: int) -> np.ndarray:
        return 1.0 / math.sqrt(fan_in) * rng.standard_normal((rows, fan_in))

    return ModelParams(
        w1=layer(h, 2), b1=np.zeros(h),
        w2=layer(f, h), b2=np.zeros(f),
        wh=layer(n_classes, f), bh=np.zeros(n_classes),
        wd=layer(1, f)[0], bd=np.zeros(1))


@dataclass
class CentroidState:
    """Per-class moving-average feature centroids of both domains, stacked.

    Row ``y`` of ``mu`` (2C x F) and of ``counts`` (2C) is source class ``y``
    and row ``C + y`` is target class ``y``; count 0 = uninitialized.
    """

    mu: np.ndarray
    counts: np.ndarray

    @staticmethod
    def empty(n_classes: int, feature_width: int) -> "CentroidState":
        return CentroidState(np.zeros((2 * n_classes, feature_width)),
                             np.zeros(2 * n_classes, dtype=int))


def features(m: ModelParams, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(features z, hidden activation a) of the extractor."""
    a = xs @ m.w1.T
    np.tanh(np.add(a, m.b1, out=a), out=a)
    z = a @ m.w2.T
    z += m.b2
    return z, a


def class_logits(m: ModelParams, z: np.ndarray) -> np.ndarray:
    return z @ m.wh.T + m.bh


def _sigmoid(u: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(u))  # never overflows
    return np.where(u >= 0, 1.0, e) / (1.0 + e)


def _softplus(u: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, u)


_TERMS = ("weighted_source", "conditional", "adversarial", "js_estimate", "total")


def _flat(m: ModelParams, flat: np.ndarray | None = None) -> tuple[np.ndarray, ModelParams]:
    """A flat vector in m's field order (m's values unless given) and its field views."""
    items = m.param_items()
    flat = np.concatenate([arr.ravel() for _, arr in items]) if flat is None else flat
    parts = np.split(flat, np.cumsum([arr.size for _, arr in items])[:-1])
    return flat, ModelParams(**{n: p.reshape(arr.shape) for (n, arr), p in zip(items, parts)})


def _stage(xs: np.ndarray, lab: np.ndarray, sizes: np.ndarray, n_classes: int,
           width: int, alpha: np.ndarray, counts: np.ndarray, lam1: float,
           class_weights: np.ndarray) -> tuple[list[tuple], np.ndarray]:
    """Each batch pair's step inputs that depend only on labels, and the final counts.

    ``xs`` and ``lab`` hold batch b's ``sizes[b, 0]`` source rows, then its
    ``sizes[b, 1]`` target rows, batch by batch; ``counts`` are the centroid counts
    before the first batch."""
    if lab.size and (np.minimum.reduce(lab) < 0 or np.maximum.reduce(lab) >= n_classes):
        raise TrainingError(f"labels must lie in [0, {n_classes})")
    k, ns, nt, per_part = 2 * n_classes, sizes[:, 0], sizes[:, 1], sizes.ravel()
    part = np.repeat(np.arange(per_part.size), per_part)  # 2b: batch b's source rows
    lab = lab + n_classes * (part & 1)  # row y: source class y; row C + y: target class y
    n_batch = np.bincount(part // 2 * k + lab, minlength=len(sizes) * k).reshape(-1, k, 1)
    present = n_batch > 0
    seen = counts[:, None] + np.cumsum(present, axis=0) - present > 0  # stored before batch b
    gain = np.where(present, np.where(seen, 1.0 - CENTROID_MOMENTUM, 1.0), 0.0)  # d mu / d mean
    known = (present | seen)[..., 0]
    active = known[:, :n_classes] & known[:, n_classes:]
    scale = 2.0 * lam1 * np.where(active, class_weights, 0.0)
    n_rows = np.maximum(n_batch, 1)
    step = np.concatenate((scale, -scale), axis=1)[..., None] * gain / n_rows
    ys = lab[part & 1 == 0]
    first = np.cumsum(ns) - ns  # each batch's first source row
    pick = (np.arange(ys.size) - np.repeat(first, ns)) * n_classes + ys  # [row, y] of the logits
    alpha = alpha[ys]
    coef = (alpha / np.repeat(ns, ns))[:, None]
    scatter = np.take(np.arange(k * width).reshape(k, width), lab, axis=0).ravel()
    rows, src = np.cumsum(np.append(0, ns + nt)).tolist(), [*first.tolist(), ys.size]
    by_row = [[arr[a * n:b * n] for a, b in zip(rows, rows[1:])]
              for arr, n in ((xs, 1), (lab, 1), (scatter, width))]
    by_source = [[arr[a:b] for a, b in zip(src, src[1:])] for arr in (pick, alpha, coef)]
    actives = [[(y, class_weights[y]) for y, on in enumerate(row) if on]
               for row in active.tolist()]
    return (list(zip(*by_row, *by_source, ns.tolist(), nt.tolist(), present, seen, n_rows,
                     step, actives)), counts + np.add.reduce(present[..., 0], axis=0))


def _step(m: ModelParams, g: ModelParams, batch: tuple, mu: np.ndarray,
          lam0: float, lam1: float, cond: bool = True, adv: bool = True,
          ) -> tuple[tuple, np.ndarray]:
    """One staged batch pair's loss breakdown, in ``_TERMS`` order, and its
    committed centroids; the gradient goes into the arrays of ``g``. Terms II
    and III are computed only if ``cond`` and ``adv``; one left out reports 0.0."""
    xs, lab, scatter, pick, alpha, coef_s, ns, nt, present, seen, n_rows, step, active = batch
    z, a = features(m, xs)
    z_s = z[:ns]
    dz = np.zeros(z.shape)

    # term I: reweighted cross-entropy on the source rows
    logits = class_logits(m, z_s)
    shifted = logits - reduce(np.maximum, logits.T)[:, None]  # the row max
    e = np.exp(shifted)
    total = np.add.reduce(e, axis=1, keepdims=True)
    t1 = float(-(np.add.reduce(alpha * (shifted.ravel()[pick] - np.log(total).ravel())) / ns))
    dlogits = e / total  # the softmax
    dlogits.ravel()[pick] -= 1.0
    dlogits *= coef_s
    dz[:ns] += dlogits @ m.wh

    t2 = radv = 0.0
    if cond:  # term II: weighted squared centroid distances; bincount adds each
        # class's rows in order, so its sums equal the per-class z[idx].sum(axis=0)
        sums = np.bincount(scatter, weights=z.ravel(), minlength=mu.size)
        mean = sums.reshape(mu.shape) / n_rows
        rho = CENTROID_MOMENTUM
        mu = np.where(present, np.where(seen, rho * mu + (1.0 - rho) * mean, mean), mu)
        diff = mu[:len(mu) // 2] - mu[len(mu) // 2:]
        for y, weight in active:
            t2 += weight * float(diff[y] @ diff[y])
        dz += np.take(step * np.concatenate((diff, diff)), lab, axis=0)

    if adv:  # term III: adversarial estimate of the feature-marginal divergence
        u = z @ m.wd + m.bd[0]
        radv = float(-(np.add.reduce(_softplus(-u[:ns])) / ns)
                     - np.add.reduce(_softplus(u[ns:])) / nt)
        sig = _sigmoid(u)
        coef = lam0 * np.concatenate(((1.0 - sig[:ns]) / ns, -sig[ns:] / nt))
        dz += coef[:, None] * m.wd
        np.matmul(coef, z, out=g.wd)
        np.add.reduce(coef, axis=0, keepdims=True, out=g.bd)
    else:
        g.wd[:] = g.bd[:] = 0.0

    da = (dz @ m.w2) * (1.0 - a * a)
    for grad_w, grad_b, d, inputs in ((g.w1, g.b1, da, xs), (g.w2, g.b2, dz, a),
                                      (g.wh, g.bh, dlogits, z_s)):
        np.matmul(d.T, inputs, out=grad_w)
        np.add.reduce(d, axis=0, out=grad_b)
    js = (radv + LOG4) / 2.0 if adv else 0.0
    return (t1, t2, radv, js, t1 + lam1 * t2 + lam0 * radv), mu


def _descend(theta: np.ndarray, g: np.ndarray, grads: ModelParams, lr: float,
             parts: Iterable[float]) -> None:
    """Check a step's loss terms and gradient, then move theta in place by -lr * g
    on the extractor and classifier and by +lr * g on the discriminator."""
    for term, value in zip(_TERMS, parts):
        if not math.isfinite(value):
            raise TrainingError(f"non-finite loss in term {term!r}")
    if not np.isfinite(g).all():
        name = next(n for n, arr in grads.param_items() if not np.isfinite(arr).all())
        raise TrainingError(f"non-finite gradient in {name}")
    d = g.size - grads.wd.size - 1  # the discriminator's wd and bd come last
    g[:d] *= -lr
    g[d:] *= lr
    theta += g


def loss_and_gradients(
    m: ModelParams, src: SampleBatch, tgt: SampleBatch, st: CentroidState,
    w: WeightVector, lam0: float, lam1: float,
    class_weights: np.ndarray | None = None,
) -> tuple[dict[str, float], ModelParams, CentroidState]:
    """Loss breakdown, gradient of I + lam1*II + lam0*III, centroids.

    The breakdown holds each unweighted term and their weighted ``total``; the
    gradient is a ``ModelParams`` over one flat vector, like the trainer's
    parameters. ``class_weights`` None: each domain's label frequencies in the pair.
    Each term adds its weighted feature gradient into one array, which one
    backward pass carries to every parameter; backprop is linear in it, so
    zero weights on the other terms give the gradient of one term alone.
    Term I is linear in the class weights ``w.alpha``, so zero class weights
    switch it off.

    Term II is evaluated at the would-be-updated centroids (momentum blend of
    the stored value and the batch mean), so its gradient flows through the
    current batch; a class missing from one domain's batch falls back to that
    domain's stored centroid, and a class with neither is skipped. All classes
    of both domains go at once, in the row layout of :class:`CentroidState`.
    """
    if class_weights is None:  # a label out of range counts nowhere; _stage rejects it
        class_weights = sum(np.count_nonzero(b.ys[:, None] == np.arange(m.n_classes), axis=0)
                            / len(b) for b in (src, tgt))
    xs, lab = np.concatenate((src.xs, tgt.xs)), np.concatenate((src.ys, tgt.ys))
    (batch,), counts = _stage(xs, lab, np.array([[len(src), len(tgt)]]), m.n_classes,
                              m.feature_width, w.alpha, st.counts, lam1, class_weights)
    g, grads = _flat(m, np.empty(sum(arr.size for _, arr in m.param_items())))
    parts, mu = _step(m, grads, batch, st.mu, lam0, lam1)
    return dict(zip(_TERMS, parts)), grads, CentroidState(mu, counts)


def train_step(m: ModelParams, src: SampleBatch, tgt: SampleBatch,
               st: CentroidState, w: WeightVector, lam0: float, lam1: float,
               lr: float, class_weights: np.ndarray | None = None,
               ) -> tuple[ModelParams, CentroidState, dict[str, float]]:
    """One saddle step: descent on (h, g), ascent on d, centroid commit.

    The discriminator moves along +grad of the objective, which only term
    III reaches, while the extractor and classifier move along -grad of the
    same objective (the reversal). ``m`` is left as it was.
    """
    breakdown, grads, new_st = loss_and_gradients(m, src, tgt, st, w, lam0, lam1, class_weights)
    (theta, out), (g, _) = _flat(m), _flat(grads)
    _descend(theta, g, grads, lr, breakdown.values())
    return out, new_st, breakdown


def pseudo_label_step(m: ModelParams, tgt_xs: np.ndarray,
                      holdout: tuple[np.ndarray, np.ndarray], n_classes: int,
                      ) -> tuple[np.ndarray, np.ndarray, WeightVector]:
    """Refresh pseudo-labels, their distribution, and the shift weights.

    Pseudo-labels are the classifier argmax on the target set; the weights
    solve the held-out source confusion matrix against the pseudo-label
    distribution (classes never predicted simply get zero mass there; the
    solver's least-squares/clipping policy absorbs them).
    """
    hold_xs, hold_ys = holdout
    z, _ = features(m, np.concatenate((tgt_xs, hold_xs)))  # one pass over both sets
    logits, labels = class_logits(m, z), np.zeros(len(z), dtype=np.intp)
    top = logits[:, 0]
    for c, column in enumerate(logits.T[1:], 1):  # a strict > keeps the first of tied maxima
        labels[column > top] = c
        top = np.maximum(top, column)
    labels, held = labels[:len(tgt_xs)], labels[len(tgt_xs):]
    t_p = np.bincount(labels, minlength=n_classes) / labels.size
    cm = confusion_matrix(held, hold_ys, n_classes=n_classes)
    alpha = bbsl_weights(cm, t_p)
    return labels, t_p / t_p.sum(), alpha


def lambda_schedule(progress: float) -> float:
    """Warm-up weight 2/(1+exp(k*progress)) - 1 over progress in [0, 1], k = WARMUP_K."""
    return 2.0 / (1.0 + math.exp(WARMUP_K * progress)) - 1.0


@dataclass
class TrainTrace:
    """One row per epoch of the quantities the guideline controls."""

    weighted_source_loss: list[float] = field(default_factory=list)
    conditional_loss: list[float] = field(default_factory=list)
    adversarial_js: list[float] = field(default_factory=list)
    target_accuracy: list[float] = field(default_factory=list)
    alpha_hat: list[np.ndarray] = field(default_factory=list)
    alpha_used: list[np.ndarray] = field(default_factory=list)
    t_p_hat: list[np.ndarray] = field(default_factory=list)
    lam0: list[float] = field(default_factory=list)
    lam1: list[float] = field(default_factory=list)
    kappa_ok: list[bool] = field(default_factory=list)
    feature_js: list[float] = field(default_factory=list)
    conditional_floor: list[float] = field(default_factory=list)
    model: ModelParams | None = None

    def n_epochs(self) -> int:
        return len(self.target_accuracy)

    def rows(self) -> list[dict]:
        out = []
        for e in range(self.n_epochs()):
            row: dict = {
                "epoch": e,
                "weighted_source_loss": self.weighted_source_loss[e],
                "conditional_loss": self.conditional_loss[e],
                "adversarial_js": self.adversarial_js[e],
                "target_accuracy": self.target_accuracy[e],
                "lam0": self.lam0[e],
                "lam1": self.lam1[e],
                "kappa_ok": self.kappa_ok[e],
            }
            for i, v in enumerate(self.alpha_hat[e]):
                row[f"alpha_hat_{i}"] = float(v)
            for i, v in enumerate(self.t_p_hat[e]):
                row[f"t_p_hat_{i}"] = float(v)
            if self.feature_js:
                row["feature_js"] = self.feature_js[e]
                row["conditional_floor"] = self.conditional_floor[e]
            out.append(row)
        return out


def feature_shift_statistics(z_s: np.ndarray, z_t: np.ndarray,
                             ys_s: np.ndarray, ys_t: np.ndarray,
                             n_classes: int, bins: int) -> dict[str, float]:
    """Histogram-discretized divergences of the current feature space.

    Bins both feature clouds on a shared grid, then reports the feature
    marginal JS, the (true-)label marginal JS, and the induced floor on the
    label-conditional shift, the over-matching diagnostic.
    """
    lo = np.minimum(z_s.min(axis=0), z_t.min(axis=0)) - 1e-9
    hi = np.maximum(z_s.max(axis=0), z_t.max(axis=0)) + 1e-9
    edges = [np.linspace(lo[d], hi[d], bins + 1) for d in range(z_s.shape[1])]
    h_s, _ = np.histogramdd(z_s, bins=edges)
    h_t, _ = np.histogramdd(z_t, bins=edges)
    atoms = tuple(range(h_s.size))
    p_s = Pmf(atoms, h_s.ravel() / h_s.sum())
    p_t = Pmf(atoms, h_t.ravel() / h_t.sum())
    js_feature = js_divergence(p_s, p_t, "e")
    lab = tuple(range(n_classes))
    js_label = js_divergence(
        Pmf(lab, np.bincount(ys_s, minlength=n_classes) / ys_s.size),
        Pmf(lab, np.bincount(ys_t, minlength=n_classes) / ys_t.size), "e")
    return {"feature_js": js_feature, "label_js": js_label,
            "conditional_floor": label_conditional_floor(js_label, js_feature)}


def run_training(sc: ShiftScenario, cfg: TrainConfig) -> TrainTrace:
    """The alternating two-step loop over a synthetic scenario.

    Each epoch runs gradient steps over shuffled batch pairs, then refreshes
    pseudo-labels, their distribution, and the shift weights. Principle
    gating: without I the weights stay at one; without II or III that term's
    weight is zero, and the term is not computed, so it reports 0.0 and
    cannot raise (the shared warm-up schedule itself is not gated, so II
    keeps its weight in III-less ablations).
    """
    n_hold = max(2, int(HOLDOUT_FRACTION * cfg.n_source))
    src_all = sample(sc, "source", cfg.n_source + n_hold, stream=(cfg.seed,))
    tgt_all = sample(sc, "target", cfg.n_target, stream=(cfg.seed,))
    perm = np.random.default_rng([cfg.seed, _STREAM_HOLDOUT]).permutation(len(src_all))
    hold_idx, train_idx = perm[:n_hold], perm[n_hold:]
    holdout = (src_all.xs[hold_idx], src_all.ys[hold_idx])
    src_xs, src_ys = src_all.xs[train_idx], src_all.ys[train_idx]

    theta, m = _flat(init_models(cfg, n_classes=sc.n_classes))
    g, grads = _flat(m, np.empty_like(theta))
    st = CentroidState.empty(sc.n_classes, cfg.feature_width)
    trace = TrainTrace()
    unit = WeightVector(np.ones(sc.n_classes))
    s_hat = np.bincount(src_ys, minlength=sc.n_classes) / src_ys.size
    all_xs = np.concatenate((src_xs, tgt_all.xs))

    pseudo, t_p, alpha_hat = pseudo_label_step(m, tgt_all.xs, holdout, sc.n_classes)
    n_src, n_tgt, size = src_ys.size, len(tgt_all), cfg.batch_size
    cond, adv = "II" in cfg.principles, "III" in cfg.principles
    for epoch in range(cfg.epochs):
        lam_sched = lambda_schedule(epoch / max(1, cfg.epochs - 1))
        lam0 = lam_sched if adv else 0.0
        lam1 = cfg.cond_multiplier * lam_sched if cond else 0.0
        w = alpha_hat if "I" in cfg.principles else unit

        rng = np.random.default_rng([cfg.seed, _STREAM_SHUFFLE, epoch])
        order_s = rng.permutation(n_src)
        # the target order wraps around so that every source row has a partner
        order_t = n_src + np.take(rng.permutation(n_tgt), np.arange(n_src), mode="wrap")
        starts = np.arange(0, n_src, size)  # batch b pairs these source and target rows
        rows = np.concatenate([o[lo:lo + size] for lo in starts for o in (order_s, order_t)])
        batches, st.counts = _stage(
            np.take(all_xs, rows, axis=0), np.concatenate((src_ys, pseudo))[rows],
            np.minimum(size, n_src - starts).repeat(2).reshape(-1, 2), sc.n_classes,
            cfg.feature_width, w.alpha, st.counts, lam1, s_hat + t_p)
        breakdowns = []
        for batch in batches:
            parts, st.mu = _step(m, grads, batch, st.mu, lam0, lam1, cond, adv)
            _descend(theta, g, grads, cfg.learning_rate, parts)
            breakdowns.append(parts)
        mean = dict(zip(_TERMS, (float(np.mean(v)) for v in zip(*breakdowns))))

        pseudo, t_p, alpha_hat = pseudo_label_step(m, tgt_all.xs, holdout, sc.n_classes)
        # disabled principles' terms are not computed and report an exact zero
        trace.weighted_source_loss.append(mean["weighted_source"])
        trace.conditional_loss.append(mean["conditional"])
        trace.adversarial_js.append(mean["js_estimate"])
        trace.target_accuracy.append(float(np.mean(pseudo == tgt_all.ys)))
        trace.alpha_hat.append(alpha_hat.alpha)
        trace.alpha_used.append(w.alpha)
        trace.t_p_hat.append(t_p)
        trace.lam0.append(lam0)
        trace.lam1.append(lam1)
        trace.kappa_ok.append(mean["js_estimate"] <= KAPPA)
        if cfg.track_feature_shift:
            z_s, _ = features(m, src_xs)
            z_t, _ = features(m, tgt_all.xs)
            stats = feature_shift_statistics(z_s, z_t, src_ys, tgt_all.ys,
                                             sc.n_classes, cfg.feature_bins)
            trace.feature_js.append(stats["feature_js"])
            trace.conditional_floor.append(stats["conditional_floor"])

    trace.model = ModelParams(**{name: arr.copy() for name, arr in m.param_items()})
    return trace


def grad_check(m: ModelParams, src: SampleBatch, tgt: SampleBatch,
               st: CentroidState, w: WeightVector, lam0: float = 0.7,
               lam1: float = 0.9, class_weights: np.ndarray | None = None,
               ) -> dict[str, float]:
    """Central-difference audit of every analytic gradient.

    Each term's analytic gradient is ``loss_and_gradients`` with the other
    terms' weights set to zero: lam0 and lam1 for terms III and II, the class
    weights (a zero ``WeightVector``) for term I. The composite's has every
    weight on; one central-difference sweep over a flat copy of the
    parameters records the three term values and their weighted total, so
    ``m`` is only read, whatever its arrays' memory order. Returns the max
    relative error per loss term and for the composite, over every parameter.
    """
    off = WeightVector(np.zeros_like(w.alpha))
    # breakdown key -> (lam0, lam1, class weights) of its analytic gradient
    weights = {"weighted_source": (0.0, 0.0, w), "conditional": (0.0, 1.0, off),
               "adversarial": (1.0, 0.0, off), "total": (lam0, lam1, w)}
    theta, mv = _flat(m)
    numeric = np.zeros((len(weights), theta.size))
    step = GRAD_CHECK_STEP
    for i in range(theta.size):
        orig = theta[i]
        theta[i] = orig + step
        hi, _, _ = loss_and_gradients(mv, src, tgt, st, w, lam0, lam1, class_weights)
        theta[i] = orig - step
        lo, _, _ = loss_and_gradients(mv, src, tgt, st, w, lam0, lam1, class_weights)
        theta[i] = orig
        numeric[:, i] = [(hi[key] - lo[key]) / (2.0 * step) for key in weights]

    result = {}
    for (key, (l0, l1, wk)), b in zip(weights.items(), numeric):
        a, _ = _flat(loss_and_gradients(mv, src, tgt, st, wk, l0, l1, class_weights)[1])
        denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
        result["composite" if key == "total" else key] = float(np.max(np.abs(a - b) / denom))
    return result


def ablate(sc: ShiftScenario, cfg: TrainConfig,
           subsets: Sequence[Iterable[str]] | None = None,
           seeds: Sequence[int] = (0, 1, 2, 3, 4)) -> list[dict]:
    """Final target accuracy per principle subset, over common seeds.

    Rows come back in the canonical table order (marginal-only baseline
    first, then the two-principle subsets, then all three).
    """
    if not seeds:
        raise TrainingError("ablate needs at least one seed")
    if subsets is None:
        subsets = [("III",), ("I", "III"), ("I", "II"), ("II", "III"),
                   ("I", "II", "III")]
    rows = []
    for subset in subsets:
        cfg_subset = replace(cfg, principles=subset)  # TrainConfig rejects a str
        runs = (replace(cfg_subset, seed=int(seed)) for seed in seeds)
        arr = np.array([run_training(sc, c).target_accuracy[-1] for c in runs])
        rows.append({"principles": cfg_subset.principles_label(),
                     "mean_accuracy": float(arr.mean()),
                     "std_accuracy": float(arr.std()),
                     "n_seeds": len(seeds)})
    return rows
