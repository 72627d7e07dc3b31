"""Similarity between a measured delay dynamic and a template sequence,
and the live/replay decision.

The probability method uses the bounded kernel exp(-(d - m)^2 / (2 s^2))
rather than the raw Gaussian density: the density is unbounded as the
std shrinks and its values are not comparable across phonemes, while
the kernel is a per-phoneme monotone transform of it that stays in
(0, 1]. Template stds are floored at 0.5 samples before use.

Weighted correlation (text-independent profiles) weights each phoneme
by 1/(template std + 0.1): stable phonemes count more. The weights enter
the covariance and variance sums once each, with plain sequence means,
so uniform weights cancel exactly and the score stays in [-1, 1].

A constant sequence has no correlation; it scores 0.0 as a correlation
and the neutral 0.5 as the correlation half of the combined score.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SchemaError
from .tdoa import TdoaDynamic

MIN_SEQUENCE_LENGTH = 3

# Templates enrolled from identical trials would have zero std and an
# infinite score density; scoring floors the std at this value.
STD_FLOOR_SAMPLES = 0.5

# weighting for the stability-aware correlation: w = 1/(std + eps)
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
    weighted: float = None  # weights 1/(template std + 0.1); text-independent only

    def selected(self, method: ScoringMethod) -> float:
        """The score of method; each method's value names its field."""
        if method == ScoringMethod.WEIGHTED and self.weighted is None:
            raise ConfigError(
                "weighted method needs a text-independent profile"
            )
        return getattr(self, method.value)


@dataclass(frozen=True)
class Decision:
    verdict: Verdict
    score: SimilarityScore
    threshold: float
    method: ScoringMethod

    def to_json_dict(self) -> dict:
        # the weighted method reports its value as the correlation
        corr = (
            self.score.weighted
            if self.method == ScoringMethod.WEIGHTED
            else self.score.correlation
        )
        return {
            "version": 1,
            "verdict": self.verdict.value,
            "threshold": self.threshold,
            "method": self.method.value,
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


def _weights(templates) -> np.ndarray:
    return 1.0 / (np.array([t.std_delay for t in templates]) + WEIGHT_EPSILON)


def _pearson(x: np.ndarray, y: np.ndarray, w: np.ndarray = None):
    """Weighted Pearson correlation, or None for a constant sequence."""
    xc = x - x.mean()
    yc = y - y.mean()
    if w is None:
        w = np.ones_like(x)
    cov = float(np.sum(w * xc * yc))
    vx = float(np.sum(w * xc * xc))
    vy = float(np.sum(w * yc * yc))
    if vx < _VARIANCE_EPS or vy < _VARIANCE_EPS:
        return None
    return cov / math.sqrt(vx * vy)


def _kernel_mean(x, means, stds) -> float:
    return float(np.mean(np.exp(-((x - means) ** 2) / (2.0 * stds**2))))


def score_dynamic(
    dynamic: TdoaDynamic,
    templates,
    weighted: bool = False,
) -> SimilarityScore:
    """Every score for one comparison, from one pairing; decide picks
    one of them. correlation is the Pearson correlation with the
    template means, probability the mean per-phoneme kernel value in
    (0, 1], combined the mean of (rho + 1)/2 and probability. With
    weighted, rho in the combined score is the stability-weighted
    correlation, also reported as weighted."""
    templates = list(templates)
    x, means, stds = _paired(dynamic, templates)
    prob = _kernel_mean(x, means, stds)
    rho = _pearson(x, means)
    weighted_rho, combined_rho = None, rho
    if weighted:
        combined_rho = _pearson(x, means, _weights(templates))
        weighted_rho = 0.0 if combined_rho is None else combined_rho
    corr_part = 0.5 if combined_rho is None else (combined_rho + 1.0) / 2.0
    return SimilarityScore(
        correlation=0.0 if rho is None else rho,
        probability=prob,
        combined=(corr_part + prob) / 2.0,
        weighted=weighted_rho,
    )


def decide(score: SimilarityScore, threshold: float, method: ScoringMethod) -> Decision:
    """Fail-closed thresholding: LIVE only if the score of method is
    strictly above the threshold; a tie rejects (ambiguous evidence in
    a security gate)."""
    verdict = Verdict.LIVE if score.selected(method) > threshold else Verdict.REPLAY
    return Decision(verdict, score, threshold, method)
