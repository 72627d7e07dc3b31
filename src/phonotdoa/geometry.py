"""Source-to-device geometry: forward delay model, pose transforms, and
ultrasonic face ranging.

Coordinates: origin at the mouth reference point, y pointing
horizontally toward the handset, z pointing up. At tilt angle 0 the
handset is vertical with the top mic at (x, l1) and the bottom mic at
(x, l1 - l); for the canonical pose l = l1 + l2 so the bottom mic sits
at (x, -l2). Tilting by alpha rotates the handset about its top mic, so
the bottom mic moves to (x + l*sin(alpha), l1 - l*cos(alpha)).

A positive delay means the top-mic path is longer (bottom leads), the
same convention the delay estimator uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.signal import chirp, fftconvolve, find_peaks, hilbert
from scipy.signal.windows import tukey

from .audio_io import StereoRecording
from .errors import DegenerateSignalError, InvalidPoseError, NoSolutionError

SPEED_OF_SOUND = 340.0  # m/s

BEEP_F0 = 18000.0
BEEP_F1 = 23000.0
BEEP_DURATION = 0.050  # 9600 samples at 192 kHz

# echo peak acceptance: height over the correlation noise floor and
# minimum separation between peaks
ECHO_FLOOR_FACTOR = 3.0
ECHO_MIN_SEPARATION_S = 1e-4


@dataclass(frozen=True)
class DevicePose:
    """Mouth-to-handset geometry.

    x: horizontal mouth-to-handset distance (m)
    l1: vertical distance, mouth to top mic (m)
    l2: vertical distance, mouth to bottom mic (m)
    l: handset length, top mic to bottom mic (m)
    alpha: tilt angle in radians, 0 = vertical
    """

    x: float
    l1: float
    l2: float
    l: float
    alpha: float = 0.0

    def __post_init__(self):
        # written so that NaN and infinity fail every check
        if not 0 < self.x < math.inf:
            raise InvalidPoseError(f"x must be positive and finite, got {self.x}")
        if not 0 < self.l < math.inf:
            raise InvalidPoseError(f"l must be positive and finite, got {self.l}")
        if not (0 <= self.l1 < math.inf and 0 <= self.l2 < math.inf):
            raise InvalidPoseError("l1 and l2 must be non-negative and finite")
        if not abs(self.alpha) < math.pi / 2:
            raise InvalidPoseError("|alpha| must be below pi/2")

    def with_(self, **kwargs) -> "DevicePose":
        return replace(self, **kwargs)


# pose the simulator's source table is calibrated at: handset held
# vertically 3 cm in front of the mouth, bottom mic 1 cm below it
REFERENCE_POSE = DevicePose(x=0.03, l1=0.14, l2=0.01, l=0.15, alpha=0.0)


def mic_positions(pose: DevicePose) -> tuple:
    """(top, bottom) microphone coordinates in the mouth frame."""
    top = (pose.x, pose.l1)
    bottom = (
        pose.x + pose.l * math.sin(pose.alpha),
        pose.l1 - pose.l * math.cos(pose.alpha),
    )
    return top, bottom


def path_difference(pose: DevicePose, source_offset=(0.0, 0.0)) -> float:
    """d1 - d2 in meters for a source at (dy, dz) off the mouth."""
    dy, dz = source_offset
    (ty, tz), (by, bz) = mic_positions(pose)
    d1 = math.hypot(ty - dy, tz - dz)
    d2 = math.hypot(by - dy, bz - dz)
    return d1 - d2


def pose_to_tdoa(
    pose: DevicePose,
    source_offset=(0.0, 0.0),
    sample_rate: int = 192000,
    c: float = SPEED_OF_SOUND,
) -> float:
    """Forward model: delay in samples for a source near the mouth.

    This is the single forward model shared by the simulator and the
    inverse solvers; positive means the top-mic path is longer.
    """
    return path_difference(pose, source_offset) / c * sample_rate


def solve_on_line(delta_d: float, top_z: float, bottom_z: float, *, z=None, h=None) -> float:
    """Closed-form point P on |P - top mic| - |P - bottom mic| = delta_d
    for a vertical handset with its mics at heights top_z > bottom_z
    (Chan & Ho 1994 solve the general hyperbolic case). Pass one line.

    z: the horizontal line at that height. With a, b the mic heights
    above it, the top-mic distance is p = ((a^2 - b^2) / delta_d + delta_d) / 2,
    and the result is the distance u = sqrt(p^2 - a^2) >= 0 from the handset.
    h: the vertical line at that distance from the handset. With f half
    the mic spacing, the result is the height
    (top_z + bottom_z) / 2 - (delta_d / 2) sqrt(1 + h^2 / (f^2 - delta_d^2 / 4)).
    Raises NoSolutionError when delta_d is not reachable on the line.
    """
    if z is not None:
        a, b = abs(top_z - z), abs(bottom_z - z)
        # delta_d runs monotonically from a - b at u = 0 to 0 as u grows
        if not (0 < delta_d <= a - b or a - b <= delta_d < 0):
            raise NoSolutionError(
                f"path difference {delta_d:.5f} m not reachable on the z = {z:.4f} m line"
            )
        p = 0.5 * ((a * a - b * b) / delta_d + delta_d)
        return math.sqrt(max((p - a) * (p + a), 0.0))
    half = 0.5 * (top_z - bottom_z)
    if not abs(delta_d) < 2.0 * half:
        raise NoSolutionError(
            f"|path difference| {abs(delta_d):.5f} m not below the mic spacing {2 * half:.5f} m"
        )
    return 0.5 * (top_z + bottom_z) - 0.5 * delta_d * math.sqrt(
        1.0 + h * h / (half * half - 0.25 * delta_d * delta_d)
    )


def solve_source_distance(
    tdoa_samples: float,
    l1: float,
    l2: float,
    sample_rate: int,
    c: float = SPEED_OF_SOUND,
) -> float:
    """Invert sqrt(l1^2 + x^2) - sqrt(l2^2 + x^2) = delta_d for x.

    delta_d comes from the delay via delta_d = tdoa * c / sample_rate;
    x is the closed-form solve_on_line distance on the mouth axis.
    """
    delta_d = tdoa_samples * c / sample_rate
    if l1 == l2:
        if delta_d == 0.0:
            raise NoSolutionError(
                "l1 == l2 with zero delay: every source distance fits"
            )
        raise NoSolutionError(
            "symmetric mics (l1 == l2) admit no nonzero path difference"
        )
    if delta_d == 0.0:
        raise NoSolutionError("zero path difference implies x -> infinity")
    if abs(delta_d) >= abs(l1 - l2):
        raise NoSolutionError(
            f"|delta_d| = {abs(delta_d):.4f} m not below |l1 - l2| = "
            f"{abs(l1 - l2):.4f} m"
        )
    if math.copysign(1.0, delta_d) != math.copysign(1.0, l1 - l2):
        raise NoSolutionError(
            "path-difference sign inconsistent with mic geometry "
            "(source off the solvable axis)"
        )
    return solve_on_line(delta_d, l1, -l2, z=0.0)


def transform_tdoa(
    tdoa_samples: float,
    pose: DevicePose,
    alpha: float = 0.0,
    delta_x: float = 0.0,
    sample_rate: int = 192000,
    c: float = SPEED_OF_SOUND,
) -> float:
    """Predict the delay after moving the handset back by delta_x and
    tilting it by alpha about its top mic, keeping the source fixed.

    Solves the enrolled delay for the source distance x, then evaluates
    the forward model at the moved pose, so the transform and the
    simulator share one geometry. The moved pose is validated by
    DevicePose (x + delta_x > 0, |alpha| < pi/2, all finite).
    """
    x = solve_source_distance(tdoa_samples, pose.l1, pose.l2, sample_rate, c=c)
    if alpha == 0.0 and delta_x == 0.0:
        return tdoa_samples  # no pose change (solve above validated the input)
    moved = pose.with_(x=x + delta_x, alpha=alpha)
    return pose_to_tdoa(moved, sample_rate=sample_rate, c=c)


def make_beep(
    sample_rate: int,
    f0: float = BEEP_F0,
    f1: float = BEEP_F1,
    duration: float = BEEP_DURATION,
) -> np.ndarray:
    """Inaudible linear ranging chirp (18-23 kHz, 50 ms by default)."""
    if sample_rate < 2 * f1:
        raise InvalidPoseError(
            f"sample rate {sample_rate} cannot represent a {f1:.0f} Hz chirp"
        )
    n = int(round(duration * sample_rate))
    t = np.arange(n) / sample_rate
    sweep = chirp(t, f0=f0, f1=f1, t1=duration, method="linear")
    return sweep * tukey(n, 0.1)


def estimate_face_distance(
    echo_recording: StereoRecording,
    beep: np.ndarray,
    c: float = SPEED_OF_SOUND,
) -> float:
    """Round-trip range to the face from a beep-echo recording.

    Matched-filters the bottom channel against the beep; the first
    correlation peak is the body-conduction copy of the emission (time
    zero), the second is the face reflection. Peaks must exceed three
    times the correlation noise floor and be separated by at least
    0.1 ms. Distance is (t2 - t1) * c / 2.

    The chirp bandwidth bounds the resolution: reflectors closer than
    roughly c / (2 * bandwidth) (~7 cm for the default 5 kHz sweep with
    the tapered filter) merge into the emission peak, and the next
    reflector in the scene gets ranged instead.
    """
    fs = echo_recording.sample_rate
    x = echo_recording.bottom
    if len(x) <= len(beep):
        raise DegenerateSignalError("recording shorter than the beep template")
    # Hann-weighted template: a plain chirp matched filter has -13 dB
    # range sidelobes that masquerade as echoes; the taper buys clean
    # peaks at the cost of a slightly wider main lobe.
    template = np.asarray(beep, dtype=np.float64) * np.hanning(len(beep))
    corr = fftconvolve(x, template[::-1], mode="valid")
    # analytic envelope: |corr| ripples at the chirp center frequency,
    # and every ripple inside an arrival's main lobe would count as a
    # separate peak otherwise
    env = np.abs(hilbert(corr))
    # noise floor = 95th percentile of the envelope: echo peaks occupy
    # far less than 5 percent of the trace, so this tracks the noise
    # level while staying above nearly all of its excursions
    floor = float(np.percentile(env, 95))
    min_sep = max(1, int(round(ECHO_MIN_SEPARATION_S * fs)))
    peaks, _ = find_peaks(
        env,
        height=ECHO_FLOOR_FACTOR * floor,
        distance=min_sep,
        prominence=0.05 * float(env.max()),
    )
    if len(peaks) < 2:
        raise DegenerateSignalError(
            f"found {len(peaks)} qualifying correlation peaks, need 2"
        )
    t1, t2 = peaks[0], peaks[1]
    return (t2 - t1) / fs * c / 2.0
