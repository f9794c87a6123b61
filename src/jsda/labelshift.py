"""Black-box label-shift weight estimation and the reweighted risk.

The estimator inverts a source prediction confusion matrix against the
target prediction marginal. Real confusion matrices are noisy and sometimes
ill-conditioned, so the solve policy is explicit: direct solve when the
condition number allows, least squares when it does not, and a flagged
all-ones fallback when the system is singular and inconsistent: training
loops must never die on a degenerate batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .pmf import _freeze
from .scenarios import midpoint_classifier, sample

CONDITION_LIMIT = 1e8
RESIDUAL_TOL = 1e-6

SolveMethod = Literal["solve", "lstsq", "fallback"]


class LabelShiftError(ValueError):
    pass


@dataclass(frozen=True)
class ConfusionMatrix:
    """Empirical joint P(prediction = i, truth = j), normalized to sum 1."""

    c: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "c", _freeze(self.c))
        if self.c.ndim != 2 or self.c.shape[0] != self.c.shape[1]:
            raise LabelShiftError("confusion matrix must be square")
        if np.any(self.c < 0):
            raise LabelShiftError("confusion matrix entries must be >= 0")
        if abs(float(self.c.sum()) - 1.0) > 1e-9:
            raise LabelShiftError("confusion matrix must sum to 1")

    @property
    def source_label_marginal(self) -> np.ndarray:
        """Column sums: the empirical source label distribution."""
        return self.c.sum(axis=0)


@dataclass(frozen=True)
class WeightVector:
    """Per-class importance weights alpha(y) = T(y)/S(y), clipped at zero."""

    alpha: np.ndarray
    method: SolveMethod = "solve"
    clipped: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", _freeze(self.alpha))
        a = self.alpha
        if a.ndim != 1 or np.any(a < 0) or not np.all(np.isfinite(a)):
            raise LabelShiftError("weights must be finite, nonnegative, 1-D")


def confusion_matrix(preds: Sequence[int], labels: Sequence[int],
                     n_classes: int) -> ConfusionMatrix:
    """Normalized n_classes x n_classes pair counts of (prediction, truth)."""
    p = np.asarray(preds, dtype=int)
    l = np.asarray(labels, dtype=int)
    if p.size == 0 or p.shape != l.shape:
        raise LabelShiftError("predictions and labels must be equal-length and nonempty")
    k = int(n_classes)
    if p.min() < 0 or l.min() < 0 or p.max() >= k or l.max() >= k:
        raise LabelShiftError(f"class indices must lie in [0, {k})")
    return ConfusionMatrix(np.bincount(p * k + l, minlength=k * k).reshape(k, k) / p.size)


def bbsl_weights(c: ConfusionMatrix, t_pred: np.ndarray) -> WeightVector:
    """Solve C alpha = target-prediction-marginal for the label weights.

    Negative components are clipped to zero and the result is renormalized
    so that sum_y alpha[y] * S(y) = 1 with S(y) the confusion column sums.
    Condition numbers above 1e8 switch to least squares; a singular system
    with an inconsistent right-hand side falls back to alpha = 1.
    """
    t = np.asarray(t_pred, dtype=float)
    mat = c.c
    if t.shape != (mat.shape[0],):
        raise LabelShiftError("target prediction marginal has the wrong length")
    s_y = c.source_label_marginal

    cond = np.linalg.cond(mat)
    method: SolveMethod
    if math.isfinite(cond) and cond <= CONDITION_LIMIT:
        alpha = np.linalg.solve(mat, t)
        method = "solve"
    else:
        alpha, *_ = np.linalg.lstsq(mat, t, rcond=None)
        residual = float(np.linalg.norm(mat @ alpha - t))
        method = "fallback" if residual > RESIDUAL_TOL else "lstsq"

    if method != "fallback":
        clipped = bool(np.any(alpha < 0))
        alpha = np.clip(alpha, 0.0, None)
        denom = float(alpha @ s_y)
        if denom > 0.0 and math.isfinite(denom):
            return WeightVector(alpha / denom, method=method, clipped=clipped)
    return WeightVector(np.ones(mat.shape[0]), method="fallback")


def reweighted_risk(labels: Sequence[int], losses: Sequence[float],
                    w: WeightVector) -> float:
    """Mean of alpha(y_i) * loss_i over the sample."""
    l = np.asarray(labels, dtype=int)
    v = np.asarray(losses, dtype=float)
    if l.shape != v.shape:
        raise LabelShiftError("labels and losses must align")
    if l.size == 0:
        return 0.0
    if l.min() < 0 or l.max() >= w.alpha.shape[0]:
        raise LabelShiftError("label outside the weight vector's range")
    return float(np.mean(w.alpha[l] * v))


def _true_label_ratio(scenario) -> np.ndarray:
    """The scenario's exact alpha(y) = T(y)/S(y), 0 where S(y) = 0."""
    s_y = scenario.source_label_marginal
    t_y = scenario.target_label_marginal
    return np.where(s_y > 0, t_y / np.where(s_y > 0, s_y, 1.0), 0.0)


def estimate_scenario_weights(scenario, n: int, seed: int = 0) -> dict:
    """End-to-end weight recovery on a synthetic scenario.

    Draws n source and n target samples, classifies both with the scenario's
    midpoint classifier, builds the source confusion matrix and the target
    prediction marginal, and solves for the weights. Returns the true ratio,
    the estimate, the sup-norm error, and the classifier's source accuracy.
    """
    w_vec, b = midpoint_classifier(scenario)
    src = sample(scenario, "source", n, stream=(seed, 0))
    tgt = sample(scenario, "target", n, stream=(seed, 1))
    src_preds = (src.xs @ w_vec + b > 0).astype(int)
    tgt_preds = (tgt.xs @ w_vec + b > 0).astype(int)
    cm = confusion_matrix(src_preds, src.ys, n_classes=scenario.n_classes)
    t_pred = np.bincount(tgt_preds, minlength=scenario.n_classes) / n
    est = bbsl_weights(cm, t_pred)
    truth = _true_label_ratio(scenario)
    return {
        "true_alpha": truth,
        "estimated_alpha": est.alpha,
        "sup_error": float(np.max(np.abs(est.alpha - truth))),
        "source_accuracy": float(np.mean(src_preds == src.ys)),
        "method": est.method,
    }
