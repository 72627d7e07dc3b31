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

from .errors import ConfigError, DegenerateSequenceError, SchemaError
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
    weighted: float = None  # None without inventory stats

    def selected(self, method: ScoringMethod = None) -> float:
        """The score of method (default: the method used); each method's
        value names its field."""
        method = method or self.method_used
        if method == ScoringMethod.WEIGHTED and self.weighted is None:
            raise ConfigError(
                "weighted method needs a text-independent profile's inventory stats"
            )
        return getattr(self, method.value)


@dataclass(frozen=True)
class Decision:
    verdict: Verdict
    score: SimilarityScore
    threshold: float

    def to_json_dict(self) -> dict:
        # the weighted method reports its value as the correlation
        corr = (
            self.score.weighted
            if self.score.method_used == ScoringMethod.WEIGHTED
            else self.score.correlation
        )
        return {
            "version": 1,
            "verdict": self.verdict.value,
            "threshold": self.threshold,
            "method": self.score.method_used.value,
            "scores": {
                "correlation": corr,
                "probability": self.score.probability,
                "combined": self.score.combined,
            },
        }


def _paired(dynamic: TdoaDynamic, templates) -> tuple:
    if len(dynamic) != len(templates):
        raise SchemaError(
            f"dynamic has {len(dynamic)} phonemes, templates {len(templates)}"
        )
    if len(templates) < MIN_SEQUENCE_LENGTH:
        raise SchemaError(
            f"need at least {MIN_SEQUENCE_LENGTH} phonemes, got {len(templates)}"
        )
    for m, t in zip(dynamic.measurements, templates):
        if m.label != t.label:
            raise SchemaError(
                f"label mismatch: measured {m.label!r} vs template {t.label!r}"
            )
    x = dynamic.delays
    means = np.array([t.mean_delay for t in templates])
    stds = np.maximum(
        np.array([t.std_delay for t in templates]), STD_FLOOR_SAMPLES
    )
    return x, means, stds


def _weights(templates, inventory_stats) -> np.ndarray:
    sigmas = np.array([float(inventory_stats[t.label]) for t in templates])
    return 1.0 / (sigmas + WEIGHT_EPSILON)


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


def _pearson_or_none(x, y, w=None):
    try:
        return _pearson(x, y, w)
    except DegenerateSequenceError:
        return None


def _kernel_mean(x, means, stds) -> float:
    return float(np.mean(np.exp(-((x - means) ** 2) / (2.0 * stds**2))))


def correlation_score(dynamic: TdoaDynamic, templates) -> float:
    """Pearson correlation between measured delays and template means."""
    x, means, _ = _paired(dynamic, list(templates))
    return _pearson(x, means)


def probability_score(dynamic: TdoaDynamic, templates) -> float:
    """Mean Gaussian-kernel agreement, one term per phoneme, in (0, 1]."""
    return _kernel_mean(*_paired(dynamic, list(templates)))


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
    return _pearson(x, means, _weights(templates, inventory_stats))


def combined_score(
    dynamic: TdoaDynamic,
    templates,
    inventory_stats=None,
) -> float:
    """Mean of the rescaled correlation ((rho+1)/2) and the probability
    score. A degenerate (constant) measured sequence contributes the
    neutral 0.5 instead of erroring; uses the weighted correlation when
    inventory stats are supplied (text-independent mode)."""
    return score_dynamic(dynamic, templates, inventory_stats=inventory_stats).combined


def score_dynamic(
    dynamic: TdoaDynamic,
    templates,
    method: ScoringMethod = ScoringMethod.COMBINED,
    inventory_stats=None,
) -> SimilarityScore:
    """Every score for one comparison, from one pairing; the method only
    selects among them. A degenerate correlation maps to 0.0 at this
    level (a flat replay dynamic earns no similarity)."""
    templates = list(templates)
    x, means, stds = _paired(dynamic, templates)
    prob = _kernel_mean(x, means, stds)
    rho = _pearson_or_none(x, means)
    # the combined score uses the weighted correlation when stats exist
    weighted, combined_rho = None, rho
    if inventory_stats is not None:
        combined_rho = _pearson_or_none(x, means, _weights(templates, inventory_stats))
        weighted = 0.0 if combined_rho is None else combined_rho
    corr_part = 0.5 if combined_rho is None else (combined_rho + 1.0) / 2.0
    return SimilarityScore(
        correlation=0.0 if rho is None else rho,
        probability=prob,
        combined=(corr_part + prob) / 2.0,
        method_used=method,
        weighted=weighted,
    )


def decide(score: SimilarityScore, threshold: float) -> Decision:
    """Fail-closed thresholding: LIVE only if the selected score is
    strictly above the threshold; a tie rejects (ambiguous evidence in
    a security gate)."""
    value = score.selected()
    verdict = Verdict.LIVE if value > threshold else Verdict.REPLAY
    return Decision(verdict=verdict, score=score, threshold=threshold)
