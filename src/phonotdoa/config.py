"""Layered run configuration: built-in defaults, then a JSON config
file, then command-line flags. The effective values are echoed to the
log at the start of every run."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .audio_io import read_json
from .errors import ConfigError
from .geometry import SPEED_OF_SOUND
from .scoring import ScoringMethod

DEFAULT_THRESHOLD = 0.60

# config-file section -> keys it may hold
_KEYS = {"geometry": ("c",), "scoring": ("method", "threshold")}


@dataclass
class CliConfig:
    c: float = SPEED_OF_SOUND
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
        for name, value in (("geometry.c", self.c), ("scoring.threshold", self.threshold)):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"{name} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        if not self.c > 0:
            raise ConfigError("geometry.c must be positive")
        return self

    def as_dict(self) -> dict:
        return {
            "geometry": {"c": self.c},
            "scoring": {"method": self.method, "threshold": self.threshold},
        }


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
