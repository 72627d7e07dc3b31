"""Scoring settings for `verify`: built-in defaults, with the --method
and --threshold flags laid over them. No file is read. The effective
values are echoed to the log at the start of every run."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError
from .scoring import ScoringMethod

DEFAULT_THRESHOLD = 0.60


@dataclass
class CliConfig:
    method: str = "combined"
    threshold: float = DEFAULT_THRESHOLD

    def validate(self):
        try:
            ScoringMethod(self.method)
        except ValueError:
            raise ConfigError(
                f"scoring.method must be one of "
                f"{', '.join(m.value for m in ScoringMethod)}, got {self.method!r}"
            ) from None
        value = self.threshold
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"scoring.threshold must be a number, got {value!r}")
        if not -math.inf < value < math.inf:  # exact for ints too large for a float
            raise ConfigError(f"scoring.threshold must be finite, got {value!r}")
        return self

    def as_dict(self) -> dict:
        return {"scoring": {"method": self.method, "threshold": self.threshold}}


def load_config(method=None, threshold=None) -> CliConfig:
    """The defaults, with each flag value that was given laid over them."""
    config = CliConfig()
    if method is not None:
        config.method = method
    if threshold is not None:
        config.threshold = threshold
    return config.validate()
