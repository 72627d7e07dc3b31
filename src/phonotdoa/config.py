"""Layered scoring configuration for `verify`: built-in defaults, then
a JSON config file, then command-line flags. The effective values are
echoed to the log at the start of every run. The speed of sound is not
configurable: every command uses geometry.SPEED_OF_SOUND, the value the
simulator renders with."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .audio_io import read_json
from .errors import ConfigError
from .scoring import ScoringMethod

DEFAULT_THRESHOLD = 0.60

# config-file section -> keys it may hold
_KEYS = {"scoring": ("method", "threshold")}


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
        if not math.isfinite(value):
            raise ConfigError(f"scoring.threshold must be finite, got {value!r}")
        return self

    def as_dict(self) -> dict:
        return {"scoring": {"method": self.method, "threshold": self.threshold}}


def load_config(path=None, overrides=None) -> CliConfig:
    """Defaults <- config file <- explicit flag overrides."""
    config = CliConfig()
    if path is not None:
        for name, section in read_json(path, ConfigError).items():
            if name not in _KEYS:
                raise ConfigError(f"{path}: unknown config section {name!r}")
            if not isinstance(section, dict):
                raise ConfigError(f"{path}: {name} must be a JSON object")
            for key, value in section.items():
                if key not in _KEYS[name]:
                    raise ConfigError(f"{path}: unknown config key {name}.{key}")
                setattr(config, key, value)
    for key, value in (overrides or {}).items():
        if value is not None:
            setattr(config, key, value)
    return config.validate()
