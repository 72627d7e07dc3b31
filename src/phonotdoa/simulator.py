"""Geometric acoustic simulator: ground-truthed stereo renders of live
speech, playback/replace attacks, and beep-echo ranging scenes.

Every rendered phoneme is a point source placed by the vocal source
model; each microphone channel receives the excitation through an exact
spectral fractional delay of its own travel time, so the ground-truth
delay of a phoneme equals pose_to_tdoa of its effective source position
by construction. Excitations are deliberately simple (harmonic stacks
for voiced sounds, band-limited noise for voiceless ones, as
phonemes.INVENTORY voices and classes each label): the delay dynamic
depends on geometry and bandwidth, not on phonetic realism.

All randomness flows from the integer seed through numpy's PCG64
generator (the default_rng algorithm), so identical parameters give
bit-identical recordings across runs and platforms.

Scene files, the input of `phonotdoa simulate`, are parsed here, by
load_scene.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .audio_io import (
    FIELD_ERRORS, StereoRecording, check_sample_rate, json_int, json_list, json_pair, json_real,
    json_str, read_json,
)
from .errors import ConfigError, SchemaError
from .geometry import (
    REFERENCE_POSE,
    SPEED_OF_SOUND,
    DevicePose,
    make_beep,
    mic_positions,
)
from .phonemes import AFFRICATE, FRICATIVE, GLIDE, INVENTORY, STOP
from .segmentation import PhonemeSegment
from .sourcemodel import VocalSourceModel

DEFAULT_SNR_DB = 30.0
# noise_snr_db bounds (dB): past them the noise scale 10^(-snr/20) heads
# for overflow (near -6,000 dB) or sinks below float64 resolution
SNR_RANGE_DB = (-100.0, 300.0)
LEAD_SILENCE_S = 0.05
PHONEME_GAP_S = 0.03
DURATION_RANGE_S = (0.10, 0.16)
VOICED_F0_RANGE = (105.0, 225.0)
VOICED_MAX_HARMONIC_HZ = 8000.0

# voiceless excitation bands by articulation class
_NOISE_BANDS = {
    FRICATIVE: (1500.0, 9000.0),
    STOP: (500.0, 6500.0),
    AFFRICATE: (1000.0, 8500.0),
    GLIDE: (500.0, 5000.0),
}

MIN_REPLACE_DISTANCE_M = 0.25
# longest source-to-microphone path a render takes: each metre adds
# fs / SPEED_OF_SOUND samples to every phoneme's FFT pad
MAX_PATH_M = 10.0
TRAJECTORY_POINTS = 64  # mobile-playback waypoints per circle_trajectory

# beep scene: echo amplitudes against the bottom channel's 1.0 emission,
# and the white-noise std per channel
BEEP_FACE_AMP = 0.3
BEEP_CLUTTER_AMP = 0.12
BEEP_NOISE_STD = 0.003


class AttackKind(enum.Enum):
    STATIC_PLAYBACK = "static_playback"
    MOBILE_PLAYBACK = "mobile_playback"
    REPLACE = "replace"


@dataclass(frozen=True)
class AttackScenario:
    kind: AttackKind
    source_offset: tuple = (0.0, 0.0)  # loudspeaker position (static)
    trajectory: tuple = ()  # waypoints (mobile)
    recorder_distance_m: float = 0.0  # replace

    def __post_init__(self):
        dy, dz = self.source_offset
        object.__setattr__(self, "source_offset", (float(dy), float(dz)))
        if self.kind == AttackKind.MOBILE_PLAYBACK:
            if len(self.trajectory) < 2:
                raise ConfigError("mobile playback needs >= 2 waypoints")
            object.__setattr__(
                self, "trajectory", tuple((float(y), float(z)) for y, z in self.trajectory)
            )
        if self.kind == AttackKind.REPLACE:
            if self.recorder_distance_m < MIN_REPLACE_DISTANCE_M:
                raise ConfigError(
                    f"replace recorder distance {self.recorder_distance_m} m "
                    f"below {MIN_REPLACE_DISTANCE_M} m"
                )


@dataclass(frozen=True)
class GroundTruthPhoneme:
    label: str
    delay_samples: float
    source_dy: float
    source_dz: float
    start: int
    end: int


@dataclass(frozen=True)
class SimulatedUtterance:
    recording: StereoRecording
    segments: tuple
    ground_truth: tuple

    @property
    def labels(self) -> tuple:
        return tuple(s.label for s in self.segments)

    @property
    def true_delays(self) -> np.ndarray:
        return np.array([g.delay_samples for g in self.ground_truth])


def circle_trajectory(radius: float = 0.05, turns: float = 1.5, phase: float = 0.0) -> tuple:
    """TRAJECTORY_POINTS loudspeaker waypoints circling the mouth."""
    n = TRAJECTORY_POINTS
    angles = phase + 2.0 * math.pi * turns * np.arange(n) / (n - 1)
    return tuple((radius * math.cos(a), radius * math.sin(a)) for a in angles)


def _harmonic_excitation(rng, n: int, sample_rate: int, f0: float) -> np.ndarray:
    """Voiced source: harmonic stack with seeded phases, built in the
    frequency domain (one inverse transform)."""
    spectrum = np.zeros(n // 2 + 1, dtype=complex)
    fmax = min(VOICED_MAX_HARMONIC_HZ, 0.45 * sample_rate)
    h = np.arange(1, max(1, int(fmax / f0)) + 1)
    k = np.rint(h * f0 * n / sample_rate).astype(int)
    kept = (k >= 1) & (k < len(spectrum) - 1)
    # one draw per kept harmonic, in harmonic order
    phases = rng.uniform(0.0, 2.0 * math.pi, int(kept.sum()))
    np.add.at(spectrum, k[kept], (1.0 / h[kept]) * np.exp(1j * phases))
    return np.fft.irfft(spectrum, n)


def _noise_excitation(rng, n: int, sample_rate: int, band: tuple) -> np.ndarray:
    """Voiceless source: white noise restricted to the class band."""
    white = rng.standard_normal(n)
    spectrum = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(n, 1.0 / sample_rate)
    lo, hi = band[0], min(band[1], 0.45 * sample_rate)
    spectrum[(freqs < lo) | (freqs > hi)] = 0.0
    return np.fft.irfft(spectrum, n)


def _tukey(n: int, alpha: float = 0.15) -> np.ndarray:
    if n < 3:
        return np.ones(n)
    edge = max(1, int(alpha * n / 2))
    win = np.ones(n)
    ramp = 0.5 * (1.0 - np.cos(np.pi * np.arange(edge) / edge))
    win[:edge] = ramp
    win[-edge:] = ramp[::-1]
    return win


def _excitation(rng, label: str, n: int, sample_rate: int, f0: float) -> np.ndarray:
    if INVENTORY.is_voiced(label):
        sig = _harmonic_excitation(rng, n, sample_rate, f0)
    else:
        band = _NOISE_BANDS[INVENTORY.articulation_class(label)]
        sig = _noise_excitation(rng, n, sample_rate, band)
    sig = sig * _tukey(n)
    rms = math.sqrt(float(np.mean(sig * sig)))
    if rms > 0:
        sig = sig * (0.2 / rms)
    return sig


_RAMP_FINE = 128


def _next_fast_len(n: int) -> int:
    """Smallest 5-smooth length 2^a * 3^b * 5^c >= n (n >= 1): the FFT
    pad scipy.fft.next_fast_len(n, real=True) picks, without importing
    scipy.fft."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # p35 times the least power of two that reaches n
            cand = p35 << ((n - 1) // p35).bit_length()
            if cand < best:
                best = cand
            p35 *= 3
        p5 *= 5
    return best


def _shifted(spectrum: np.ndarray, taus, pad: int) -> np.ndarray:
    """One row per tau: the length-pad signal with rfft `spectrum`,
    delayed by tau (fractional) samples as an exact spectral phase shift.

    The ramp exp(-2*pi*i*k*tau/pad) is the outer product of a coarse
    ramp (k = j * 128) and a fine one (k < 128): two short exps per tau
    instead of one per bin, within a few ulp of the direct form.
    """
    n_bins = len(spectrum)
    w = (-2.0 * np.pi / pad) * np.asarray(taus, dtype=float)[:, None]
    fine = np.exp(1j * w * np.arange(_RAMP_FINE))
    coarse = np.exp(1j * w * (_RAMP_FINE * np.arange(-(-n_bins // _RAMP_FINE))))
    ramps = (coarse[:, :, None] * fine[:, None, :]).reshape(len(w), -1)[:, :n_bins]
    np.multiply(spectrum, ramps, out=ramps)
    return np.fft.irfft(ramps, pad, axis=-1)


def _delayed_pair(exc: np.ndarray, tau_top: float, tau_bottom: float) -> np.ndarray:
    """Apply the two per-mic travel times as exact spectral phase shifts.

    Returns the (2, length) array of the top and bottom rows, long
    enough to hold the shifted excitation entirely (no circular
    wraparound). The FFT length is the next 5-smooth length past the
    output, as for every FFT pad in this module.
    """
    out_len = len(exc) + int(math.ceil(max(tau_top, tau_bottom))) + 64
    pad = _next_fast_len(out_len + 16)
    return _shifted(np.fft.rfft(exc, pad), (tau_top, tau_bottom), pad)[:, :out_len]


def _render(
    labels,
    positions,
    pose: DevicePose,
    sample_rate: int,
    rng,
    noise_snr_db: float,
    echo,
    duration_range,
) -> SimulatedUtterance:
    """Shared renderer: one effective source position per phoneme."""
    lo, hi = SNR_RANGE_DB
    if not lo <= noise_snr_db <= hi:
        raise ConfigError(f"noise_snr_db {noise_snr_db} dB outside [{lo}, {hi}]")
    check_sample_rate(sample_rate)
    fs = sample_rate
    gap = int(round(PHONEME_GAP_S * fs))
    lead = int(round(LEAD_SILENCE_S * fs))
    f0 = rng.uniform(*VOICED_F0_RANGE)
    (ty, tz), (by, bz) = mic_positions(pose)

    pieces = []
    segments = []
    truths = []
    cursor = lead
    for label, (dy, dz) in zip(labels, positions):
        # multiple-of-256 lengths keep the excitation FFTs fast
        n = max(256, 256 * int(round(rng.uniform(*duration_range) * fs / 256)))
        exc = _excitation(rng, label, n, fs, f0)
        d1 = math.hypot(ty - dy, tz - dz)
        d2 = math.hypot(by - dy, bz - dz)
        if not (d1 <= MAX_PATH_M and d2 <= MAX_PATH_M):  # NaN fails too
            raise ConfigError(f"{label} source over {MAX_PATH_M} m from a mic: {d1:.3g}, {d2:.3g}")
        pair = _delayed_pair(exc, d1 / SPEED_OF_SOUND * fs, d2 / SPEED_OF_SOUND * fs)
        pair *= ((1.0 / max(d1, 0.01),), (1.0 / max(d2, 0.01),))
        pieces.append((cursor, pair))
        segments.append(PhonemeSegment(start=cursor, end=cursor + n, label=label))
        truths.append(
            GroundTruthPhoneme(
                label=label,
                delay_samples=(d1 - d2) / SPEED_OF_SOUND * fs,
                source_dy=dy,
                source_dz=dz,
                start=cursor,
                end=cursor + n,
            )
        )
        cursor += n + gap

    total = max([cursor + gap + 256] + [start + pair.shape[1] for start, pair in pieces])
    out = np.zeros((2, total))
    for start, pair in pieces:
        out[:, start : start + pair.shape[1]] += pair
    del pieces

    if echo is not None:
        lag, amp = int(echo[0]), float(echo[1])
        out[:, lag:] += amp * out[:, :-lag]

    # einsum, not np.dot: BLAS threads its dot above ~10^4 samples and
    # doubles the CPU time of a render for no wall-time gain
    n_active = sum(seg.end - seg.start for seg in segments)
    noise = np.empty(total)
    for ch in out:
        energy = sum(
            float(np.einsum("i,i->", ch[s.start : s.end], ch[s.start : s.end]))
            for s in segments
        )
        rms = math.sqrt(energy / n_active) if n_active else 0.0
        sigma = rms * 10.0 ** (-noise_snr_db / 20.0)
        if sigma > 0:
            rng.standard_normal(out=noise)
            noise *= sigma
            ch += noise

    out *= 0.9 / max(float(out.max()), -float(out.min()), 1e-12)
    return SimulatedUtterance(
        recording=StereoRecording(sample_rate=fs, top=out[0], bottom=out[1]),
        segments=tuple(segments),
        ground_truth=tuple(truths),
    )


def synthesize_live(
    labels,
    model: VocalSourceModel,
    pose: DevicePose,
    sample_rate: int = 192000,
    seed: int = 0,
    noise_snr_db: float = DEFAULT_SNR_DB,
    echo=None,
    jitter_scale: float = 1.0,
    duration_range=DURATION_RANGE_S,
) -> SimulatedUtterance:
    """Render live speech: per-phoneme sources from the vocal model with
    seeded articulation jitter, picked up by both mics at the pose.

    echo=(lag, amplitude) adds the whole render again lag >= 1 samples
    later, scaled by |amplitude| <= 1; jitter_scale >= 0 scales every
    phoneme's jitter std, and 0 draws no jitter. Any other lag,
    amplitude or jitter_scale raises ConfigError."""
    if echo is not None and not echo[0] >= 1:
        raise ConfigError(f"echo lag must be >= 1 sample, got {echo[0]}")
    if echo is not None and not abs(echo[1]) <= 1:
        raise ConfigError(f"echo amplitude must be in [-1, 1], got {echo[1]}")
    if not jitter_scale >= 0:
        raise ConfigError(f"jitter_scale must be >= 0, got {jitter_scale}")
    labels = list(labels)
    rng = np.random.default_rng(seed)
    positions = []
    for label in labels:
        src = model.source(label)
        jitter = rng.normal(0.0, src.jitter_std * jitter_scale) if jitter_scale > 0 else 0.0
        positions.append(model.effective_source(label, jitter))
    return _render(labels, positions, pose, sample_rate, rng, noise_snr_db, echo, duration_range)


def _trajectory_point(trajectory, u: float) -> tuple:
    """Piecewise-linear interpolation along the waypoint list, u in [0, 1]."""
    m = len(trajectory) - 1
    t = u * m
    i = min(int(t), m - 1)
    frac = t - i
    y0, z0 = trajectory[i]
    y1, z1 = trajectory[i + 1]
    return (y0 + frac * (y1 - y0), z0 + frac * (z1 - z0))


def synthesize_attack(
    labels,
    model: VocalSourceModel,
    pose: DevicePose,
    scenario: AttackScenario,
    sample_rate: int = 192000,
    seed: int = 0,
    noise_snr_db: float = DEFAULT_SNR_DB,
    duration_range=DURATION_RANGE_S,
) -> SimulatedUtterance:
    """Render a replay attack.

    STATIC_PLAYBACK: every phoneme radiates from one fixed loudspeaker
    point, so the delay is near-constant across the utterance.
    MOBILE_PLAYBACK: the loudspeaker follows the waypoint trajectory,
    one position per phoneme.
    REPLACE: the live vocal model rendered with the handset moved back
    to the recorder distance; the delay range collapses with distance.
    """
    labels = list(labels)
    for label in labels:
        if label not in model:
            raise SchemaError(f"no source model for {label!r}")
    if scenario.kind == AttackKind.REPLACE:
        far_pose = pose.with_(x=scenario.recorder_distance_m)
        return synthesize_live(
            labels, model, far_pose, sample_rate, seed, noise_snr_db,
            duration_range=duration_range,
        )
    rng = np.random.default_rng(seed)
    if scenario.kind == AttackKind.STATIC_PLAYBACK:
        positions = [scenario.source_offset] * len(labels)
    elif scenario.kind == AttackKind.MOBILE_PLAYBACK:
        denom = max(len(labels) - 1, 1)
        positions = [
            _trajectory_point(scenario.trajectory, i / denom)
            for i in range(len(labels))
        ]
    else:
        raise ConfigError(f"unknown attack kind {scenario.kind!r}")
    return _render(labels, positions, pose, sample_rate, rng, noise_snr_db, None, duration_range)


def synthesize_beep_scene(
    face_distance_m: float,
    sample_rate: int = 192000,
    seed: int = 0,
) -> StereoRecording:
    """Ranging scene: chirp emission with a strong body-conduction copy
    at time zero, the face echo at 2 * distance / SPEED_OF_SOUND, and
    one weaker clutter echo beyond the face."""
    if not 0.03 <= face_distance_m <= 1.0:
        raise ConfigError(
            f"face distance {face_distance_m} m outside [0.03, 1.0]"
        )
    check_sample_rate(sample_rate)
    fs = sample_rate
    rng = np.random.default_rng(seed)
    beep = make_beep(fs)
    lead = int(round(0.02 * fs))
    tau_face = 2.0 * face_distance_m / SPEED_OF_SOUND * fs
    tau_clutter = 2.0 * (face_distance_m + 0.30) / SPEED_OF_SOUND * fs
    total = lead + len(beep) + int(math.ceil(tau_clutter)) + int(round(0.03 * fs))

    pad = _next_fast_len(len(beep) + int(math.ceil(tau_clutter)) + 64)
    end = min(total, lead + pad)
    direct, face, clutter = _shifted(
        np.fft.rfft(beep, pad), (0.0, tau_face, tau_clutter), pad
    )[:, : end - lead]
    bottom = np.zeros(total)
    top = np.zeros(total)
    for channel, path, amp in (
        (bottom, direct, 1.0), (bottom, face, BEEP_FACE_AMP),
        (bottom, clutter, BEEP_CLUTTER_AMP),
        (top, direct, 0.7), (top, face, 0.7 * BEEP_FACE_AMP),
    ):
        channel[lead:end] += amp * path
    bottom += rng.normal(0.0, BEEP_NOISE_STD, total)
    top += rng.normal(0.0, BEEP_NOISE_STD, total)
    peak = max(float(np.max(np.abs(bottom))), float(np.max(np.abs(top))), 1e-12)
    scale = 0.9 / peak
    return StereoRecording(sample_rate=fs, top=top * scale, bottom=bottom * scale)


# --- scene files ---


@dataclass(frozen=True)
class Scene:
    """A checked scene file: what `phonotdoa simulate` renders. kind is
    "beep", "live" or an AttackKind value. A beep scene uses only
    face_distance_m, live speech echo and jitter_scale, an attack its
    scenario."""

    kind: str
    sample_rate: int
    seed: int
    face_distance_m: float = 0.0
    labels: tuple = ()
    pose: DevicePose = REFERENCE_POSE
    noise_snr_db: float = DEFAULT_SNR_DB
    echo: tuple = None
    jitter_scale: float = 1.0
    scenario: AttackScenario = None


_COMMON_KEYS = {"kind", "sample_rate", "seed"}
_SPEECH_KEYS = _COMMON_KEYS | {"labels", "pose", "noise_snr_db"}
# the fields each kind of scene reads
SCENE_KEYS = {
    "beep": _COMMON_KEYS | {"face_distance_m"},
    "live": _SPEECH_KEYS | {"echo", "jitter_scale"},
    "static_playback": _SPEECH_KEYS | {"source_offset"},
    "mobile_playback": _SPEECH_KEYS | {"trajectory"},
    "replace": _SPEECH_KEYS | {"recorder_distance_m"},
}


def load_scene(path, default_seed: int = 0) -> Scene:
    """Read a scene file, whose own "seed" wins over default_seed. A
    field of the wrong JSON type or shape, a field its kind does not
    read, an unknown kind, no labels or a negative seed raises
    ConfigError; the renderers check the ranges."""
    doc = read_json(path, ConfigError)
    try:
        kind = json_str(doc["kind"])
        if kind not in SCENE_KEYS:
            raise ConfigError(f"{path}: unknown scene kind {kind!r}")
        stray = sorted(set(doc) - SCENE_KEYS[kind])
        if stray:
            raise ConfigError(f"{path}: a {kind} scene has no field {stray[0]!r}")
        fs = json_int(doc.get("sample_rate", 192000))
        seed = json_int(doc.get("seed", default_seed))
        if seed < 0:
            raise ConfigError(f"seed must be >= 0, got {seed}")
        if kind == "beep":
            return Scene(kind, fs, seed, face_distance_m=json_real(doc["face_distance_m"]))
        labels = json_list(doc.get("labels"), json_str)
        if not labels:
            raise ConfigError(f"{path}: scene 'labels' must not be empty")
        pose = doc.get("pose")
        speech = Scene(
            kind, fs, seed, labels=labels,
            pose=REFERENCE_POSE if pose is None
            else DevicePose(**{k: json_real(v) for k, v in pose.items()}),
            noise_snr_db=json_real(doc.get("noise_snr_db", DEFAULT_SNR_DB)),
        )
        if kind == "live":
            echo = doc.get("echo")
            if echo is not None:
                lag, amp = echo
                echo = (json_int(lag), json_real(amp))
            return replace(speech, echo=echo, jitter_scale=json_real(doc.get("jitter_scale", 1.0)))
        return replace(speech, scenario=AttackScenario(
            kind=AttackKind(kind),
            source_offset=json_pair(doc.get("source_offset", (0.0, 0.0)), json_real),
            trajectory=json_list(doc.get("trajectory", ()), lambda p: json_pair(p, json_real)),
            recorder_distance_m=json_real(doc.get("recorder_distance_m", 0.0)),
        ))
    except FIELD_ERRORS as exc:
        raise ConfigError(f"{path}: malformed scene: {exc!r}") from exc
