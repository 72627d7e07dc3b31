"""Scoring settings for `verify`: built-in defaults, with the --method
and --threshold flags laid over them. No file is read. The effective
values are echoed to the log at the start of every run."""

from __future__ import annotations

import math

from .errors import ConfigError
from .scoring import ScoringMethod

DEFAULT_THRESHOLD = 0.60


def load_config(method=None, threshold=None) -> tuple:
    """(ScoringMethod, threshold): the defaults, with each flag value
    that was given laid over them."""
    try:
        method = ScoringMethod("combined" if method is None else method)
    except ValueError as exc:
        raise ConfigError(f"scoring.method: {exc}") from None
    if threshold is None:
        threshold = DEFAULT_THRESHOLD
    if isinstance(threshold, bool) or not isinstance(threshold, (int, float)):
        raise ConfigError(f"scoring.threshold must be a number, got {threshold!r}")
    if not -math.inf < threshold < math.inf:  # exact for ints too large for a float
        raise ConfigError(f"scoring.threshold must be finite, got {threshold!r}")
    return method, threshold
