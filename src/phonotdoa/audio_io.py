"""Two-channel PCM WAV and JSON file reading and writing.

Channel convention is fixed across the whole toolkit: channel 0 is the
top microphone, channel 1 is the bottom microphone. Nothing downstream
ever swaps them implicitly; delay signs depend on it.
"""

from __future__ import annotations

import json
import math
import wave
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import FormatError

# Rates with a documented per-sample ranging resolution (7.08 / 3.54 /
# 1.77 mm at 340 m/s). Other rates >= 44.1 kHz work but warn.
PREFERRED_RATES = (48000, 96000, 192000)
MIN_SAMPLE_RATE = 44100

_SUPPORTED_WIDTHS = {2: 16, 3: 24, 4: 32}


@dataclass(frozen=True, eq=False)
class StereoRecording:
    """Synchronized top/bottom microphone sample streams.

    Samples are finite float64 in [-1, 1]; both channels have equal
    length. load_wav hands out the two C-contiguous rows of one
    (2, frames) array.
    """

    sample_rate: int
    top: np.ndarray
    bottom: np.ndarray

    def __post_init__(self):
        top = np.asarray(self.top, dtype=np.float64)
        bottom = np.asarray(self.bottom, dtype=np.float64)
        object.__setattr__(self, "top", top)
        object.__setattr__(self, "bottom", bottom)
        if top.ndim != 1 or bottom.ndim != 1:
            raise FormatError("channels must be 1-D sample arrays")
        if len(top) != len(bottom):
            raise FormatError(
                f"channel lengths differ: top={len(top)} bottom={len(bottom)}"
            )
        if self.sample_rate < MIN_SAMPLE_RATE:
            raise FormatError(
                f"sample rate {self.sample_rate} below {MIN_SAMPLE_RATE} Hz minimum"
            )
        # NaN fails both comparisons, so it is refused like an out-of-range sample
        if len(top) and not all(
            x.min() >= -1.0 - 1e-9 and x.max() <= 1.0 + 1e-9 for x in (top, bottom)
        ):
            raise FormatError("samples exceed [-1, 1] or are NaN")
        if self.sample_rate not in PREFERRED_RATES:
            warnings.warn(
                f"sample rate {self.sample_rate} Hz is accepted but ranging "
                f"resolution is only specified for {PREFERRED_RATES}",
                stacklevel=3,
            )

    @property
    def n_samples(self) -> int:
        return len(self.top)

    @property
    def duration(self) -> float:
        return self.n_samples / self.sample_rate


def _decode_pcm(raw: bytes, sampwidth: int) -> np.ndarray:
    if sampwidth == 3:
        # little-endian triplets: read each one as the top three bytes of
        # an int32 (its low byte is the previous triplet's last byte, or
        # the leading pad), then shift right to sign-extend
        padded = b"\0" + raw
        words = np.ndarray((len(raw) // 3,), dtype="<i4", buffer=padded, strides=(3,))
        return words >> 8
    return np.frombuffer(raw, dtype="<i2" if sampwidth == 2 else "<i4")


def _encode_pcm(q: np.ndarray, sampwidth: int) -> bytes:
    if sampwidth == 2:
        return q.astype("<i2").tobytes()
    if sampwidth == 4:
        return q.astype("<i4").tobytes()
    u = np.where(q < 0, q + 0x1000000, q).astype(np.int64)
    out = np.empty((len(u), 3), dtype=np.uint8)
    out[:, 0] = u & 0xFF
    out[:, 1] = (u >> 8) & 0xFF
    out[:, 2] = (u >> 16) & 0xFF
    return out.tobytes()


def load_wav(path) -> StereoRecording:
    """Load a 2-channel 16/24/32-bit PCM WAV file.

    Channel 0 maps to the top mic, channel 1 to the bottom mic; samples
    are normalized by 2^(bits-1), so int16 32767 becomes 32767/32768.
    """
    try:
        with wave.open(str(path), "rb") as w:
            n_channels = w.getnchannels()
            sampwidth = w.getsampwidth()
            rate = w.getframerate()
            n_frames = w.getnframes()
            raw = w.readframes(n_frames)
    except (wave.Error, EOFError, RuntimeError) as exc:
        raise FormatError(f"{path}: not a readable WAV file: {exc!r}") from exc

    if n_channels != 2:
        raise FormatError(
            f"{path}: expected 2 channels, found {n_channels}"
        )
    if sampwidth not in _SUPPORTED_WIDTHS:
        raise FormatError(
            f"{path}: unsupported sample width {8 * sampwidth} bits"
        )
    if len(raw) < n_frames * n_channels * sampwidth:
        raise FormatError(
            f"{path}: data chunk shorter than header declares"
        )

    # deinterleave and scale in one pass; a power-of-two scale is exact
    samples = _decode_pcm(raw, sampwidth).reshape(-1, 2).T
    channels = np.empty(samples.shape)
    np.multiply(samples, 2.0 ** (1 - _SUPPORTED_WIDTHS[sampwidth]), out=channels)
    return StereoRecording(sample_rate=rate, top=channels[0], bottom=channels[1])


def write_wav(recording: StereoRecording, path, bit_depth: int = 16) -> None:
    """Write a StereoRecording as interleaved PCM WAV.

    Round trip through load_wav reproduces every sample within one
    quantization step (2^(1-bit_depth)).
    """
    if bit_depth not in (16, 24, 32):
        raise FormatError(f"unsupported bit depth {bit_depth}")
    scale = 2 ** (bit_depth - 1)
    lo, hi = -scale, scale - 1
    interleaved = np.empty(recording.n_samples * 2, dtype=np.float64)
    interleaved[0::2] = recording.top
    interleaved[1::2] = recording.bottom
    q = np.clip(np.round(interleaved * scale), lo, hi).astype(np.int64)
    with wave.open(str(path), "wb") as w:
        w.setnchannels(2)
        w.setsampwidth(bit_depth // 8)
        w.setframerate(recording.sample_rate)
        w.writeframes(_encode_pcm(q, bit_depth // 8))


# What a loader's field parsing raises on JSON of the wrong shape: a
# missing key or index, a wrong type, or a value that does not convert.
FIELD_ERRORS = (AttributeError, LookupError, OverflowError, TypeError, ValueError)


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def read_json(path, error) -> dict:
    """Read a file holding one JSON object.

    Bytes that are not UTF-8 JSON, NaN or infinite numbers, a directory
    and any top level other than an object raise `error`; a missing
    file raises FileNotFoundError.
    """
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f, parse_float=_finite, parse_constant=_finite)
    except (ValueError, IsADirectoryError) as exc:
        raise error(f"{path}: unreadable JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc


def write_json(path, doc) -> None:
    """Write doc as sorted, 2-space-indented JSON and a final newline,
    the one format byte-identical outputs depend on."""
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
