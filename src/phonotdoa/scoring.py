"""Similarity between a measured delay dynamic and a template sequence,
and the live/replay decision.

The probability method uses the bounded kernel exp(-(d - m)^2 / (2 s^2))
rather than the raw Gaussian density: the density is unbounded as the
std shrinks and its values are not comparable across phonemes, while
the kernel is a per-phoneme monotone transform of it that stays in
(0, 1]. Template stds are floored at 0.5 samples before use.

Weighted correlation uses weights inside the covariance and variance
sums once each, with plain sequence means, so uniform weights cancel
exactly and the score stays in [-1, 1].
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSequenceError, SequenceMismatchError
from .profiles import STD_FLOOR_SAMPLES
from .tdoa import TdoaDynamic

MIN_SEQUENCE_LENGTH = 3

# weighting for the stability-aware correlation: stable phonemes count
# more, w = 1/(sigma + eps)
WEIGHT_EPSILON = 0.1  # samples

_VARIANCE_EPS = 1e-24


class ScoringMethod(enum.Enum):
    CORRELATION = "correlation"
    PROBABILITY = "probability"
    COMBINED = "combined"
    WEIGHTED = "weighted"


class Verdict(enum.Enum):
    LIVE = "live"
    REPLAY = "replay"


@dataclass(frozen=True)
class SimilarityScore:
    correlation: float  # 0.0 when the measured sequence is degenerate
    probability: float
    combined: float
    method_used: ScoringMethod

    def selected(self) -> float:
        if self.method_used == ScoringMethod.PROBABILITY:
            return self.probability
        if self.method_used == ScoringMethod.COMBINED:
            return self.combined
        return self.correlation


@dataclass(frozen=True)
class Decision:
    verdict: Verdict
    score: SimilarityScore
    threshold: float

    def to_json_dict(self) -> dict:
        return {
            "version": 1,
            "verdict": self.verdict.value,
            "threshold": self.threshold,
            "method": self.score.method_used.value,
            "scores": {
                "correlation": self.score.correlation,
                "probability": self.score.probability,
                "combined": self.score.combined,
            },
        }


def _paired(dynamic: TdoaDynamic, templates) -> tuple:
    templates = list(templates)
    if len(dynamic) != len(templates):
        raise SequenceMismatchError(
            f"dynamic has {len(dynamic)} phonemes, templates {len(templates)}"
        )
    if len(templates) < MIN_SEQUENCE_LENGTH:
        raise SequenceMismatchError(
            f"need at least {MIN_SEQUENCE_LENGTH} phonemes, got {len(templates)}"
        )
    for m, t in zip(dynamic.measurements, templates):
        if m.label != t.label:
            raise SequenceMismatchError(
                f"label mismatch: measured {m.label!r} vs template {t.label!r}"
            )
    x = dynamic.delays
    means = np.array([t.mean_delay for t in templates])
    stds = np.maximum(
        np.array([t.std_delay for t in templates]), STD_FLOOR_SAMPLES
    )
    return x, means, stds


def _pearson(x: np.ndarray, y: np.ndarray, w: np.ndarray = None) -> float:
    xc = x - x.mean()
    yc = y - y.mean()
    if w is None:
        w = np.ones_like(x)
    cov = float(np.sum(w * xc * yc))
    vx = float(np.sum(w * xc * xc))
    vy = float(np.sum(w * yc * yc))
    if vx < _VARIANCE_EPS or vy < _VARIANCE_EPS:
        raise DegenerateSequenceError("constant sequence has no correlation")
    return cov / math.sqrt(vx * vy)


def correlation_score(dynamic: TdoaDynamic, templates) -> float:
    """Pearson correlation between measured delays and template means."""
    x, means, _ = _paired(dynamic, templates)
    return _pearson(x, means)


def probability_score(dynamic: TdoaDynamic, templates) -> float:
    """Mean Gaussian-kernel agreement, one term per phoneme, in (0, 1]."""
    x, means, stds = _paired(dynamic, templates)
    scores = np.exp(-((x - means) ** 2) / (2.0 * stds**2))
    return float(np.mean(scores))


def weighted_correlation_score(
    dynamic: TdoaDynamic,
    templates,
    inventory_stats,
) -> float:
    """Stability-weighted correlation: per-phoneme group stds from
    inventory_stats set the weights, so stable phonemes dominate and a
    wild phoneme cannot drag the whole score down."""
    templates = list(templates)
    x, means, _ = _paired(dynamic, templates)
    sigmas = np.array([float(inventory_stats[t.label]) for t in templates])
    w = 1.0 / (sigmas + WEIGHT_EPSILON)
    return _pearson(x, means, w)


def combined_score(
    dynamic: TdoaDynamic,
    templates,
    inventory_stats=None,
) -> float:
    """Mean of the rescaled correlation ((rho+1)/2) and the probability
    score. A degenerate (constant) measured sequence contributes the
    neutral 0.5 instead of erroring; uses the weighted correlation when
    inventory stats are supplied (text-independent mode)."""
    templates = list(templates)
    prob = probability_score(dynamic, templates)
    try:
        if inventory_stats is not None:
            rho = weighted_correlation_score(dynamic, templates, inventory_stats)
        else:
            rho = correlation_score(dynamic, templates)
        corr_part = (rho + 1.0) / 2.0
    except DegenerateSequenceError:
        corr_part = 0.5
    return (corr_part + prob) / 2.0


def score_dynamic(
    dynamic: TdoaDynamic,
    templates,
    method: ScoringMethod = ScoringMethod.COMBINED,
    inventory_stats=None,
) -> SimilarityScore:
    """All three scores for one comparison; degenerate correlation maps
    to 0.0 at this level (a flat replay dynamic earns no similarity)."""
    templates = list(templates)
    try:
        if method == ScoringMethod.WEIGHTED and inventory_stats is not None:
            corr = weighted_correlation_score(dynamic, templates, inventory_stats)
        else:
            corr = correlation_score(dynamic, templates)
    except DegenerateSequenceError:
        corr = 0.0
    prob = probability_score(dynamic, templates)
    comb = combined_score(dynamic, templates, inventory_stats)
    return SimilarityScore(
        correlation=corr, probability=prob, combined=comb, method_used=method
    )


def decide(score: SimilarityScore, threshold: float) -> Decision:
    """Fail-closed thresholding: LIVE only if the selected score is
    strictly above the threshold; a tie rejects (ambiguous evidence in
    a security gate)."""
    value = score.selected()
    verdict = Verdict.LIVE if value > threshold else Verdict.REPLAY
    return Decision(verdict=verdict, score=score, threshold=threshold)
