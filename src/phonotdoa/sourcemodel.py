"""Per-phoneme acoustic source positions for the simulator.

Each phoneme is modeled as a point source near the mouth. Oral phonemes
sit on the horizontal mouth axis (dz = 0) at a backness-dependent depth:
forward articulations (bilabials, front vowels) closest to the handset,
velar/glottal ones deepest. Nasals sit high in the head so their
top-mic path is the shorter one, which makes their delays strongly
negative at the reference pose. All offsets stay inside a 0.10 m radius
around the mouth reference point.

The model holds only what nothing else knows: each phoneme's offset
(dy, dz) and jitter std. Articulation class and voicing come from
phonemes.INVENTORY, and the reference pose and speed of sound from
geometry.REFERENCE_POSE and SPEED_OF_SOUND. The shipped coordinates in
data/vocal_source_model.json were solved once from per-phoneme target
delays (the closed-form geometry.solve_on_line at the reference pose)
and then frozen. The target table and the solver that regenerates the
file from it live in tests/source_targets.py, where a unit test pins
the file to its regeneration.

Trial-to-trial articulation variability is modeled as position jitter:
a seeded Gaussian draw in delay units at the reference pose is
converted back to a position along the phoneme's horizontal line. A
far-away handset therefore sees the jitter shrink with the geometry,
the same way the mean delays do.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import math

from .audio_io import FIELD_ERRORS
from .errors import ConfigError, NoSolutionError, SchemaError
from .geometry import REFERENCE_POSE, SPEED_OF_SOUND, pose_to_tdoa, solve_on_line

MODEL_SCHEMA_VERSION = 2
MAX_SOURCE_RADIUS = 0.10  # m
MODEL_SAMPLE_RATE = 192000  # jitter stds are expressed at this rate

_SOLVE_RADIUS = 0.0995
# perturbed sources stay strictly inside the solve radius so their
# horizontal jitter line keeps usable width
_USER_RADIUS = 0.097
_FORWARD_DY_CAP = 0.02  # keep sources clear of the handset plane
_WINDOW_MARGIN = 0.5  # samples kept clear of the window edges

# per-user variation bounds for perturbed()
USER_SCALE_SPAN = 0.10
USER_SHIFT_SPAN = 0.005  # m


@dataclass(frozen=True)
class PhonemeSource:
    label: str
    dy: float
    dz: float
    jitter_std: float


def _delay_at(dy: float, dz: float) -> float:
    return pose_to_tdoa(REFERENCE_POSE, (dy, dz), MODEL_SAMPLE_RATE)


def _dy_bracket(dz: float) -> tuple:
    reach = math.sqrt(max(_SOLVE_RADIUS**2 - dz * dz, 0.0))
    return -reach, min(_FORWARD_DY_CAP, reach)


def _on_line(target: float, **line) -> float:
    """solve_on_line at the vertical reference pose for a delay in samples
    at the model rate, or NaN where the delay is unreachable."""
    pose = REFERENCE_POSE
    try:
        return solve_on_line(
            target * SPEED_OF_SOUND / MODEL_SAMPLE_RATE, pose.l1, pose.l1 - pose.l, **line
        )
    except NoSolutionError:
        return math.nan


def _solve_dy(target: float, dz: float) -> float:
    """Point on the horizontal line z = dz with the requested delay."""
    lo, hi = _dy_bracket(dz)
    dy = REFERENCE_POSE.x - _on_line(target, z=dz)
    if not lo <= dy <= hi:
        raise ConfigError(f"delay {target:.2f} not reachable on the z = {dz:.3f} m line")
    return dy


class VocalSourceModel:
    """Phoneme label -> point source offset and jitter std."""

    def __init__(self, sources: dict):
        for src in sources.values():
            radius = math.hypot(src.dy, src.dz)
            if radius > MAX_SOURCE_RADIUS + 1e-12:
                raise ConfigError(
                    f"{src.label}: source offset {radius:.3f} m outside the "
                    f"{MAX_SOURCE_RADIUS} m mouth/nasal region"
                )
            if src.jitter_std <= 0:
                raise ConfigError(f"{src.label}: jitter std must be positive")
        self.sources = dict(sources)

    @property
    def labels(self) -> tuple:
        return tuple(self.sources)

    def __contains__(self, label: str) -> bool:
        return label in self.sources

    def source(self, label: str) -> PhonemeSource:
        try:
            return self.sources[label]
        except KeyError:
            raise SchemaError(f"no source model for {label!r}") from None

    def reference_delay(self, label: str) -> float:
        src = self.source(label)
        return _delay_at(src.dy, src.dz)

    def effective_source(self, label: str, jitter_samples: float = 0.0) -> tuple:
        """Source position whose reference-pose delay is shifted by the
        jitter draw, found on the phoneme's own horizontal line."""
        src = self.source(label)
        if jitter_samples == 0.0:
            return (src.dy, src.dz)
        lo, hi = sorted(_delay_at(y, src.dz) for y in _dy_bracket(src.dz))
        margin = min(_WINDOW_MARGIN, 0.25 * (hi - lo))
        if hi - lo <= 1e-9:
            return (src.dy, src.dz)  # degenerate line, jitter unrepresentable
        target = self.reference_delay(label) + jitter_samples
        target = min(max(target, lo + margin), hi - margin)
        return (_solve_dy(target, src.dz), src.dz)

    def perturbed(self, rng) -> "VocalSourceModel":
        """Seeded per-user variant: axis scaling within +/-10 percent and
        translation within +/-5 mm, clipped back into the source region."""
        sx = 1.0 + rng.uniform(-USER_SCALE_SPAN, USER_SCALE_SPAN)
        sz = 1.0 + rng.uniform(-USER_SCALE_SPAN, USER_SCALE_SPAN)
        tx = rng.uniform(-USER_SHIFT_SPAN, USER_SHIFT_SPAN)
        tz = rng.uniform(-USER_SHIFT_SPAN, USER_SHIFT_SPAN)
        jit = 1.0 + rng.uniform(-USER_SCALE_SPAN, USER_SCALE_SPAN)
        out = {}
        for label, src in self.sources.items():
            dy = src.dy * sx + tx
            dz = src.dz * sz + tz
            radius = math.hypot(dy, dz)
            if radius > _USER_RADIUS:
                shrink = _USER_RADIUS / radius
                dy *= shrink
                dz *= shrink
            out[label] = PhonemeSource(label, dy, dz, src.jitter_std * jit)
        return VocalSourceModel(out)


def load_source_model() -> VocalSourceModel:
    """Load the frozen coordinate table packaged as data/vocal_source_model.json."""
    ref = resources.files("phonotdoa").joinpath("data/vocal_source_model.json")
    doc = json.loads(ref.read_text())
    if doc.get("version") != MODEL_SCHEMA_VERSION:
        raise ConfigError(f"source model version {doc.get('version')!r} unsupported")
    try:
        sources = {
            label: PhonemeSource(
                label, float(entry["dy"]), float(entry["dz"]), float(entry["jitter_std"])
            )
            for label, entry in doc["phonemes"].items()
        }
    except FIELD_ERRORS as exc:
        raise ConfigError(f"malformed source model: {exc!r}") from exc
    return VocalSourceModel(sources)
