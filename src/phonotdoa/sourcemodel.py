"""Per-phoneme acoustic source positions for the simulator.

Each phoneme is modeled as a point source near the mouth. Oral phonemes
sit on the horizontal mouth axis (dz = 0) at a backness-dependent depth:
forward articulations (bilabials, front vowels) closest to the handset,
velar/glottal ones deepest. Nasals sit high in the head so their
top-mic path is the shorter one, which makes their delays strongly
negative at the reference pose. All offsets stay inside a 0.10 m radius
around the mouth reference point.

The shipped coordinates in data/vocal_source_model.json were solved
once from the per-phoneme target delays below (the closed-form
geometry.solve_on_line at the reference pose, which must be vertical)
and then frozen.

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

from .audio_io import FIELD_ERRORS, read_json
from .errors import ConfigError, NoSolutionError, SchemaError
from .geometry import REFERENCE_POSE, DevicePose, pose_to_tdoa, solve_on_line
from .phonemes import INVENTORY, NASAL

MODEL_SCHEMA_VERSION = 1
MAX_SOURCE_RADIUS = 0.10  # m
MODEL_SAMPLE_RATE = 192000  # jitter stds are expressed at this rate

_SOLVE_RADIUS = 0.0995
# perturbed sources stay strictly inside the solve radius so their
# horizontal jitter line keeps usable width
_USER_RADIUS = 0.097
_FORWARD_DY_CAP = 0.02  # keep sources clear of the handset plane
_WINDOW_MARGIN = 0.5  # samples kept clear of the window edges

# target delay (samples at 192 kHz, reference pose) and jitter std per
# phoneme. Vowels descend front-to-back across [52, 60]; non-nasal
# consonants span [44, 62] by place of articulation; nasals anchor near
# -30. Voiceless stops get the widest jitter, voiced stops the least.
PHONEME_TARGETS = {
    # vowels (front -> back)
    "IY": (60.0, 1.30), "IH": (59.6, 1.16), "IX": (59.1, 1.45),
    "EY": (58.7, 1.22), "EH": (58.2, 1.55), "AE": (57.8, 1.28),
    "AX": (57.3, 1.60), "ER": (56.9, 1.35), "AXR": (56.4, 1.50),
    "AH": (56.0, 1.20), "AY": (55.6, 1.42), "AW": (55.1, 1.58),
    "UX": (54.7, 1.25), "UH": (54.2, 1.48), "UW": (53.8, 1.33),
    "OY": (53.3, 1.52), "OW": (52.9, 1.18), "AO": (52.4, 1.40),
    "AA": (52.0, 1.26),
    # bilabial / labiodental
    "P": (62.0, 5.0), "B": (61.4, 0.70),
    "F": (60.5, 2.6), "V": (60.0, 0.90),
    # dental / alveolar
    "TH": (59.0, 2.2), "DH": (58.5, 1.00),
    "T": (56.0, 6.0), "D": (55.5, 0.80),
    "S": (54.5, 2.4), "Z": (54.0, 1.10),
    "L": (53.0, 1.00), "R": (51.5, 1.10),
    # palatal
    "SH": (50.5, 2.8), "ZH": (50.0, 1.20),
    "CH": (49.5, 5.5), "JH": (49.0, 1.15),
    "Y": (48.5, 0.90),
    # velar / glottal
    "K": (47.5, 10.0), "G": (45.5, 0.90),
    "W": (47.0, 1.00), "WH": (46.5, 2.2),
    "HH": (44.0, 2.0),
    # nasals: sources high in the head, top mic closer
    "M": (-29.0, 1.9), "N": (-30.0, 2.1), "NG": (-31.0, 2.3),
}

# per-user variation bounds for perturbed()
USER_SCALE_SPAN = 0.10
USER_SHIFT_SPAN = 0.005  # m


@dataclass(frozen=True)
class PhonemeSource:
    label: str
    dy: float
    dz: float
    jitter_std: float
    articulation: str
    voiced: bool
    target_delay: float


def _delay_at(dy: float, dz: float, pose: DevicePose, c: float) -> float:
    return pose_to_tdoa(pose, (dy, dz), MODEL_SAMPLE_RATE, c)


def _dy_bracket(dz: float) -> tuple:
    reach = math.sqrt(max(_SOLVE_RADIUS**2 - dz * dz, 0.0))
    return -reach, min(_FORWARD_DY_CAP, reach)


def _on_line(target: float, pose: DevicePose, c: float, **line) -> float:
    """solve_on_line for a delay in samples at the model rate, or NaN
    where the delay is unreachable."""
    try:
        return solve_on_line(
            target * c / MODEL_SAMPLE_RATE, pose.l1, pose.l1 - pose.l, **line
        )
    except NoSolutionError:
        return math.nan


def _solve_dy(target: float, dz: float, pose: DevicePose, c: float) -> float:
    """Point on the horizontal line z = dz with the requested delay."""
    lo, hi = _dy_bracket(dz)
    dy = pose.x - _on_line(target, pose, c, z=dz)
    if not lo <= dy <= hi:
        raise ConfigError(f"delay {target:.2f} not reachable on the z = {dz:.3f} m line")
    return dy


def _solve_dz(target: float, dy: float, pose: DevicePose, c: float) -> float:
    """Point on the vertical line y = dy (used to place the nasal sources)."""
    dz = _on_line(target, pose, c, h=pose.x - dy)
    if not 0.05 <= dz <= math.sqrt(max(_SOLVE_RADIUS**2 - dy * dy, 0.0)):
        raise ConfigError(f"delay {target:.2f} not reachable on the y = {dy:.3f} m line")
    return dz


class VocalSourceModel:
    """Phoneme label -> point source offset, jitter std, and class."""

    def __init__(
        self,
        sources: dict,
        reference_pose: DevicePose = REFERENCE_POSE,
        c: float = 340.0,
    ):
        if reference_pose.alpha != 0.0:
            raise ConfigError(
                f"reference pose must be vertical (alpha = 0), got "
                f"alpha = {reference_pose.alpha}"
            )
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
        self.reference_pose = reference_pose
        self.c = c

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
        return _delay_at(src.dy, src.dz, self.reference_pose, self.c)

    def effective_source(self, label: str, jitter_samples: float = 0.0) -> tuple:
        """Source position whose reference-pose delay is shifted by the
        jitter draw, found on the phoneme's own horizontal line."""
        src = self.source(label)
        if jitter_samples == 0.0:
            return (src.dy, src.dz)
        pose, c = self.reference_pose, self.c
        lo, hi = sorted(_delay_at(y, src.dz, pose, c) for y in _dy_bracket(src.dz))
        margin = min(_WINDOW_MARGIN, 0.25 * (hi - lo))
        if hi - lo <= 1e-9:
            return (src.dy, src.dz)  # degenerate line, jitter unrepresentable
        target = self.reference_delay(label) + jitter_samples
        target = min(max(target, lo + margin), hi - margin)
        return (_solve_dy(target, src.dz, pose, c), src.dz)

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
            out[label] = PhonemeSource(
                label=label,
                dy=dy,
                dz=dz,
                jitter_std=src.jitter_std * jit,
                articulation=src.articulation,
                voiced=src.voiced,
                target_delay=src.target_delay,
            )
        return VocalSourceModel(out, self.reference_pose, self.c)

    def to_dict(self) -> dict:
        pose = self.reference_pose
        return {
            "version": MODEL_SCHEMA_VERSION,
            "sample_rate": MODEL_SAMPLE_RATE,
            "speed_of_sound": self.c,
            "reference_pose": {
                "x": pose.x, "l1": pose.l1, "l2": pose.l2,
                "l": pose.l, "alpha": pose.alpha,
            },
            "phonemes": {
                label: {
                    "dy": src.dy,
                    "dz": src.dz,
                    "jitter_std": src.jitter_std,
                    "class": src.articulation,
                    "voiced": src.voiced,
                    "target_delay": src.target_delay,
                }
                for label, src in sorted(self.sources.items())
            },
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "VocalSourceModel":
        if doc.get("version") != MODEL_SCHEMA_VERSION:
            raise ConfigError(
                f"source model version {doc.get('version')!r} unsupported"
            )
        try:
            pose = DevicePose(**doc["reference_pose"])
            sources = {
                label: PhonemeSource(
                    label=label,
                    dy=float(entry["dy"]),
                    dz=float(entry["dz"]),
                    jitter_std=float(entry["jitter_std"]),
                    articulation=str(entry["class"]),
                    voiced=bool(entry["voiced"]),
                    target_delay=float(entry["target_delay"]),
                )
                for label, entry in doc["phonemes"].items()
            }
            c = float(doc.get("speed_of_sound", 340.0))
        except FIELD_ERRORS as exc:
            raise ConfigError(f"malformed source model: {exc!r}") from exc
        return cls(sources, pose, c)


def build_default_source_model(c: float = 340.0) -> VocalSourceModel:
    """Solve the shipped coordinates from the target-delay table."""
    pose = REFERENCE_POSE
    sources = {}
    for label, (target, jitter) in PHONEME_TARGETS.items():
        cls = INVENTORY.articulation_class(label)
        if cls == NASAL:
            dz = _solve_dz(target, 0.0, pose, c)
            dy = 0.0
        else:
            dz = 0.0
            dy = _solve_dy(target, 0.0, pose, c)
        sources[label] = PhonemeSource(
            label=label,
            dy=dy,
            dz=dz,
            jitter_std=jitter,
            articulation=cls,
            voiced=INVENTORY.is_voiced(label),
            target_delay=target,
        )
    return VocalSourceModel(sources, pose, c)


def load_source_model(path=None) -> VocalSourceModel:
    """Load the frozen coordinate table (the packaged default file)."""
    if path is None:
        ref = resources.files("phonotdoa").joinpath("data/vocal_source_model.json")
        doc = json.loads(ref.read_text())
    else:
        doc = read_json(path, ConfigError)
    return VocalSourceModel.from_dict(doc)

