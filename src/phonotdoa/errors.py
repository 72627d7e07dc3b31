"""Exception types raised across the toolkit.

One class per kind of failure that a caller or the CLI tells apart; the
message names the check that failed. The CLI reports any of them as
{"error": <class name>, "message": ...} on stderr with exit code 2.
"""


class PhonotdoaError(Exception):
    """Base class for all toolkit errors."""


class FormatError(PhonotdoaError):
    """WAV file or recording unusable: unsupported encoding, not two
    channels, truncated or corrupt, or samples or rate out of range."""


class SchemaError(PhonotdoaError):
    """Alignment, profile or enrollment input malformed or inconsistent:
    wrong version or fields, unknown phoneme, bad or overlapping segment,
    mismatched sample rates, labels or sequences, too few trials."""


class ConfigError(PhonotdoaError):
    """Experiment, CLI, scene or source-model configuration invalid."""


class DegenerateSignalError(PhonotdoaError):
    """No usable delay in the signal: zero-variance window, segment too
    short, or no echo peaks."""


class NoSolutionError(PhonotdoaError):
    """No unique source distance fits the given path difference."""


class InvalidPoseError(PhonotdoaError):
    """Pose or device fields violate their constraints."""


class DegenerateSequenceError(PhonotdoaError):
    """Constant sequence; correlation coefficient undefined."""
