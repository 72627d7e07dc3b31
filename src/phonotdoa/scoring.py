"""Similarity between a measured delay dynamic and a template sequence,
and the live/replay decision.

The probability method uses the bounded kernel exp(-(d - m)^2 / (2 s^2))
rather than the raw Gaussian density: the density is unbounded as the
std shrinks and its values are not comparable across phonemes, while
the kernel is a per-phoneme monotone transform of it that stays in
(0, 1]. Template stds are floored at 0.5 samples before use.

A constant sequence has no correlation; it scores 0.0 as a correlation
and the neutral 0.5 as the correlation half of the combined score.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import SchemaError
from .tdoa import TdoaDynamic

MIN_SEQUENCE_LENGTH = 3

# Templates enrolled from identical trials would have zero std and an
# infinite score density; scoring floors the std at this value.
STD_FLOOR_SAMPLES = 0.5

_VARIANCE_EPS = 1e-24


class ScoringMethod(enum.Enum):
    CORRELATION = "correlation"
    PROBABILITY = "probability"
    COMBINED = "combined"


class Verdict(enum.Enum):
    LIVE = "live"
    REPLAY = "replay"


@dataclass(frozen=True)
class SimilarityScore:
    correlation: float  # 0.0 when the measured sequence is degenerate
    probability: float
    combined: float

    def selected(self, method: ScoringMethod) -> float:
        """The score of method; each method's value names its field."""
        return getattr(self, method.value)


@dataclass(frozen=True)
class Decision:
    verdict: Verdict
    score: SimilarityScore
    threshold: float
    method: ScoringMethod

    def to_json_dict(self) -> dict:
        return {
            "version": 1,
            "verdict": self.verdict.value,
            "threshold": self.threshold,
            "method": self.method.value,
            "scores": {
                "correlation": self.score.correlation,
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


def _pearson(x: np.ndarray, y: np.ndarray):
    """Pearson correlation, or None for a constant sequence."""
    xc = x - x.mean()
    yc = y - y.mean()
    cov = float(np.sum(xc * yc))
    vx = float(np.sum(xc * xc))
    vy = float(np.sum(yc * yc))
    if vx < _VARIANCE_EPS or vy < _VARIANCE_EPS:
        return None
    return cov / math.sqrt(vx * vy)


def _kernel_mean(x, means, stds) -> float:
    return float(np.mean(np.exp(-((x - means) ** 2) / (2.0 * stds**2))))


def score_dynamic(dynamic: TdoaDynamic, templates) -> SimilarityScore:
    """Every score for one comparison, from one pairing; decide picks
    one of them. correlation is the Pearson correlation rho with the
    template means, probability the mean per-phoneme kernel value in
    (0, 1], combined the mean of (rho + 1)/2 and probability."""
    x, means, stds = _paired(dynamic, list(templates))
    prob = _kernel_mean(x, means, stds)
    rho = _pearson(x, means)
    corr_part = 0.5 if rho is None else (rho + 1.0) / 2.0
    return SimilarityScore(
        correlation=0.0 if rho is None else rho,
        probability=prob,
        combined=(corr_part + prob) / 2.0,
    )


def decide(score: SimilarityScore, threshold: float, method: ScoringMethod) -> Decision:
    """Fail-closed thresholding: LIVE only if the score of method is
    strictly above the threshold; a tie rejects (ambiguous evidence in
    a security gate)."""
    verdict = Verdict.LIVE if score.selected(method) > threshold else Verdict.REPLAY
    return Decision(verdict, score, threshold, method)
