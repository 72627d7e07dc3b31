"""Two-channel PCM WAV and JSON file reading and writing.

Channel convention is fixed across the whole toolkit: channel 0 is the
top microphone, channel 1 is the bottom microphone. Nothing downstream
ever swaps them implicitly; delay signs depend on it.

WAV files are read through one decoder, WavReader: it checks the header
and the payload's presence when it opens a file, then decodes any frame
span on demand. The measuring commands keep a reader open and decode
one segment at a time; load_wav decodes the whole file into a
StereoRecording for library use. Both a recording and a reader answer
window(start, end) with the (top, bottom) samples of those frames.
"""

from __future__ import annotations

import contextlib
import json
import math
import wave
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FormatError

# Rates with a documented per-sample ranging resolution (7.08 / 3.54 /
# 1.77 mm at 340 m/s). Other rates >= 44.1 kHz work but warn.
PREFERRED_RATES = (48000, 96000, 192000)
MIN_SAMPLE_RATE = 44100
MAX_SAMPLE_RATE = 384_000

_SUPPORTED_WIDTHS = {2: 16, 3: 24, 4: 32}

# frames that WavReader and write_wav convert at a time: small enough that
# a block's buffers stay in cache and reuse freed heap, not fresh pages
_BLOCK_FRAMES = 1 << 15


def check_sample_rate(rate) -> None:
    """Refuse a scene, config or command-line rate outside the supported
    range, before any work is done at it."""
    if not MIN_SAMPLE_RATE <= rate <= MAX_SAMPLE_RATE:
        raise ConfigError(
            f"sample_rate must be in [{MIN_SAMPLE_RATE}, {MAX_SAMPLE_RATE}] Hz, got {rate}"
        )


def _warn_unusual_rate(rate: int, stacklevel: int) -> None:
    """Warn about a supported rate outside PREFERRED_RATES; stacklevel
    counts from the caller, as warnings.warn does."""
    if rate not in PREFERRED_RATES:
        warnings.warn(
            f"sample rate {rate} Hz is accepted but ranging "
            f"resolution is only specified for {PREFERRED_RATES}",
            stacklevel=stacklevel + 1,
        )


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
        # stacklevel 3 passes __post_init__ and __init__: it names the line
        # that built the recording
        _warn_unusual_rate(self.sample_rate, stacklevel=3)

    @classmethod
    def _from_pcm(cls, sample_rate: int, channels: np.ndarray) -> "StereoRecording":
        """The recording of a (2, frames) array that WavReader decoded.
        The reader has checked the rate and warned about it, and PCM words
        scaled by 2^(1-bits) lie in [-1, 1), so no check runs again."""
        recording = object.__new__(cls)
        object.__setattr__(recording, "sample_rate", sample_rate)
        object.__setattr__(recording, "top", channels[0])
        object.__setattr__(recording, "bottom", channels[1])
        return recording

    @property
    def n_samples(self) -> int:
        return len(self.top)

    def window(self, start: int, end: int) -> tuple:
        """The (top, bottom) samples of frames [start, end), as views."""
        return self.top[start:end], self.bottom[start:end]


def _decode_pcm(raw, sampwidth: int) -> np.ndarray:
    if sampwidth == 3:
        # little-endian triplets: read each one as the top three bytes of
        # an int32 (its low byte is the previous triplet's last byte, or
        # the leading pad), then shift right to sign-extend
        padded = np.zeros(len(raw) + 1, dtype=np.uint8)
        padded[1:] = np.frombuffer(raw, dtype=np.uint8)
        words = np.ndarray((len(raw) // 3,), dtype="<i4", buffer=padded, strides=(3,))
        return words >> 8
    return np.frombuffer(raw, dtype="<i2" if sampwidth == 2 else "<i4")


def _encode_pcm(words: np.ndarray, sampwidth: int) -> np.ndarray:
    """Little-endian PCM of a (frames, 2) int32 block, as an array whose
    bytes are the WAV payload."""
    if sampwidth == 2:
        return words.astype("<i2")
    if sampwidth == 4:
        return words
    # three byte planes: a cast to uint8 keeps the low byte and >> is
    # arithmetic, so negatives come out in two's complement
    out = np.empty(words.shape + (3,), dtype=np.uint8)
    out[..., 0] = words
    out[..., 1] = words >> 8
    out[..., 2] = words >> 16
    return out


class WavReader:
    """An open 2-channel 16/24/32-bit PCM WAV file, decoded on demand.

    Opening checks the header (2 channels, a supported width, a rate of
    at least MIN_SAMPLE_RATE) and that the payload the header declares
    is present, reading only its last frame, so a truncated file or a
    header that declares more frames than the file holds raises
    FormatError before any buffer is sized from the header. A rate
    outside PREFERRED_RATES warns once, here; the warning names the line
    that opens the reader, or with stacklevel=2 the line that called it.

    window(start, end) decodes frames [start, end) in blocks of
    _BLOCK_FRAMES frames. Samples are normalized by 2^(bits-1), so int16
    32767 becomes 32767/32768. Use the reader as a context manager, or
    call close().
    """

    def __init__(self, path, stacklevel: int = 1):
        self._path = path
        # the reader owns the file: wave leaves a file object it did not
        # open to its owner, so a reader never closed warns when collected
        self._file = open(path, "rb")
        try:
            try:
                self._wave = w = wave.open(self._file)
                n_channels = w.getnchannels()
                self._sampwidth = w.getsampwidth()
                self.sample_rate = w.getframerate()
                self.n_samples = w.getnframes()
            except (wave.Error, EOFError, RuntimeError) as exc:
                raise FormatError(f"{path}: not a readable WAV file: {exc!r}") from exc
            if n_channels != 2:
                raise FormatError(f"{path}: expected 2 channels, found {n_channels}")
            if self._sampwidth not in _SUPPORTED_WIDTHS:
                raise FormatError(
                    f"{path}: unsupported sample width {8 * self._sampwidth} bits"
                )
            if self.sample_rate < MIN_SAMPLE_RATE:
                raise FormatError(
                    f"{path}: sample rate {self.sample_rate} below "
                    f"{MIN_SAMPLE_RATE} Hz minimum"
                )
            self._frame_bytes = 2 * self._sampwidth
            if self.n_samples:
                # the declared payload is present when its last frame is
                w.setpos(self.n_samples - 1)
                try:
                    last = w.readframes(1)
                except RuntimeError:  # a seek past the RIFF chunk's declared end
                    last = b""
                if len(last) < self._frame_bytes:
                    raise FormatError(f"{path}: data chunk shorter than header declares")
        except BaseException:
            self._file.close()
            raise
        _warn_unusual_rate(self.sample_rate, stacklevel + 1)

    def window(self, start: int, end: int) -> np.ndarray:
        """Frames [start, end) as a (2, end - start) float64 array whose
        rows are the top and bottom channels."""
        if not 0 <= start <= end <= self.n_samples:
            raise ValueError(f"frames [{start}, {end}) outside [0, {self.n_samples})")
        # a power-of-two scale is exact, so every block matches a whole-file decode
        scale = 2.0 ** (1 - _SUPPORTED_WIDTHS[self._sampwidth])
        channels = np.empty((2, end - start))
        self._wave.setpos(start)
        for lo in range(0, end - start, _BLOCK_FRAMES):
            hi = min(lo + _BLOCK_FRAMES, end - start)
            raw = self._wave.readframes(hi - lo)
            if len(raw) < (hi - lo) * self._frame_bytes:
                raise FormatError(f"{self._path}: data chunk shorter than header declares")
            np.multiply(
                _decode_pcm(raw, self._sampwidth).reshape(-1, 2).T, scale,
                out=channels[:, lo:hi],
            )
        return channels

    def close(self) -> None:
        self._wave.close()
        self._file.close()

    def __enter__(self) -> "WavReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def load_wav(path) -> StereoRecording:
    """Load a whole 2-channel 16/24/32-bit PCM WAV file.

    Channel 0 maps to the top mic, channel 1 to the bottom mic. The file
    is read through WavReader, so it is checked and decoded as there;
    the (2, frames) float64 output is the only whole-file buffer.
    """
    with WavReader(path, stacklevel=2) as reader:
        return StereoRecording._from_pcm(
            reader.sample_rate, reader.window(0, reader.n_samples)
        )


def write_wav(recording: StereoRecording, path, bit_depth: int = 16) -> None:
    """Write a StereoRecording as interleaved PCM WAV.

    Round trip through load_wav reproduces every sample within one
    quantization step (2^(1-bit_depth)).

    The mirror of load_wav: no buffer grows with the file. Blocks of
    _BLOCK_FRAMES frames are scaled into the two columns of one reused
    float64 buffer, rounded and clipped in place, cast into one reused
    int32 buffer, encoded and appended to the data chunk.
    """
    if bit_depth not in (16, 24, 32):
        raise FormatError(f"unsupported bit depth {bit_depth}")
    sampwidth = bit_depth // 8
    scale = 2.0 ** (bit_depth - 1)
    n = recording.n_samples
    scaled = np.empty((min(n, _BLOCK_FRAMES), 2))
    words = np.empty(scaled.shape, dtype="<i4")
    with wave.open(str(path), "wb") as w:
        w.setnchannels(2)
        w.setsampwidth(sampwidth)
        w.setframerate(recording.sample_rate)
        # the header states the final length up front, so it is never patched
        w.setnframes(n)
        for lo in range(0, n, _BLOCK_FRAMES):
            hi = min(lo + _BLOCK_FRAMES, n)
            s, q = scaled[: hi - lo], words[: hi - lo]
            np.multiply(recording.top[lo:hi], scale, out=s[:, 0])
            np.multiply(recording.bottom[lo:hi], scale, out=s[:, 1])
            np.rint(s, out=s)
            np.clip(s, -scale, scale - 1, out=s)
            # every clipped value is an integer that fits in int32: an exact cast
            q[...] = s
            w.writeframesraw(_encode_pcm(q, sampwidth))


# What a loader's field parsing raises on JSON of the wrong shape: a
# missing key or index, a wrong type, or a value that does not convert.
FIELD_ERRORS = (AttributeError, LookupError, OverflowError, TypeError, ValueError)


def json_int(value) -> int:
    """A field that must be a JSON integer. Python reads true as 1 and
    int() truncates 10.9 or parses "10", so a bool, float or string
    raises TypeError (one of FIELD_ERRORS) instead."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def json_real(value) -> float:
    """A field that must be a JSON number, as a float. float() parses
    "0.1" and reads true as 1.0, so a bool or string raises TypeError
    (one of FIELD_ERRORS) instead; read_json has refused NaN and
    infinity already."""
    if type(value) not in (int, float):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def json_str(value) -> str:
    """A field that must be a JSON string; str() would read null as "None"."""
    if type(value) is not str:
        raise TypeError(f"expected a string, got {value!r}")
    return value


def json_list(value, read) -> tuple:
    """A field that must be a JSON array, read item by item with `read`.
    tuple() would split a string or take an object's keys, so anything
    but a list (or a tuple from a library caller) raises TypeError."""
    if type(value) not in (list, tuple):
        raise TypeError(f"expected a list, got {value!r}")
    return tuple(read(v) for v in value)


def json_pair(value, read) -> tuple:
    """A field that must be a JSON array of two `read` values."""
    a, b = json_list(value, read)
    return a, b


def check_version(path, doc: dict, kind: str, expected: int, error) -> None:
    """Refuse a file whose "version" is not the JSON integer `expected`:
    `!=` alone would pass true as 1 and 2.0 as 2."""
    with contextlib.suppress(TypeError):
        if json_int(doc.get("version")) == expected:
            return
    raise error(f"{path}: expected {kind} schema version {expected}, got {doc.get('version')!r}")


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
