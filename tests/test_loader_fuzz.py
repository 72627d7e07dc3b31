"""Property tests: every file loader fails closed.

Whatever bytes a WAV, alignment, profile or config file holds, loading
it either succeeds or raises a PhonotdoaError; a missing file raises
FileNotFoundError. No other exception may escape, because the CLI maps
exactly those to exit code 2.
"""

import io
import json
import math
import wave

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from phonotdoa.audio_io import StereoRecording, load_wav, read_json
from phonotdoa.config import load_config
from phonotdoa.errors import ConfigError, FormatError, PhonotdoaError, SchemaError
from phonotdoa.geometry import REFERENCE_POSE
from phonotdoa.phonemes import INVENTORY
from phonotdoa.profiles import (
    PhonemeTemplate,
    ProfileMode,
    UserProfile,
    load_profile,
    save_profile,
)
from phonotdoa.segmentation import load_alignment
from phonotdoa.tdoa import DeviceSpec

FUZZ = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

N_SAMPLES = 4800
RECORDING = StereoRecording(192000, np.zeros(N_SAMPLES), np.zeros(N_SAMPLES))


def _json_values(non_finite: bool):
    scalars = (
        st.none()
        | st.booleans()
        | st.integers()
        | st.floats(allow_nan=non_finite, allow_infinity=non_finite)
        | st.text(max_size=6)
    )
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=6), inner, max_size=4),
        max_leaves=12,
    )


JSON_VALUES = _json_values(non_finite=True)
NON_OBJECTS = _json_values(non_finite=False).filter(lambda v: not isinstance(v, dict))
WRONG_VERSIONS = _json_values(non_finite=False).filter(lambda v: v != 1)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def _write(path, content):
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(json.dumps(content))
    return path


def _loads_or_typed_error(load, path):
    """Call load(path); a PhonotdoaError is a pass, anything else raises."""
    try:
        return load(path)
    except PhonotdoaError:
        return None


# --- WAV ---


def _wav_bytes(n_frames=64, sampwidth=2, rate=48000):
    buf = io.BytesIO()
    with wave.open(buf, "wb") as w:
        w.setnchannels(2)
        w.setsampwidth(sampwidth)
        w.setframerate(rate)
        w.writeframes(bytes(n_frames * 2 * sampwidth))
    return buf.getvalue()


VALID_WAV = _wav_bytes()


@FUZZ
@given(cut=st.integers(min_value=0, max_value=len(VALID_WAV) - 1))
def test_load_wav_truncated_raises_format_error(tmp_path, cut):
    path = _write(tmp_path / "t.wav", VALID_WAV[:cut])
    with pytest.raises(FormatError):
        load_wav(path)


@FUZZ
@given(data=st.binary(max_size=120))
def test_load_wav_random_bytes_raise_format_error(tmp_path, data):
    assume(not data.startswith(b"RIFF"))
    path = _write(tmp_path / "r.wav", data)
    with pytest.raises(FormatError):
        load_wav(path)


@FUZZ
@given(
    pos=st.integers(min_value=0, max_value=43),
    value=st.integers(min_value=0, max_value=255),
    sampwidth=st.sampled_from([2, 3, 4]),
)
@pytest.mark.filterwarnings("ignore:sample rate")
def test_load_wav_corrupt_header_fails_closed(tmp_path, pos, value, sampwidth):
    data = bytearray(_wav_bytes(sampwidth=sampwidth))
    data[pos] = value
    path = _write(tmp_path / "h.wav", bytes(data))
    rec = _loads_or_typed_error(load_wav, path)
    if rec is not None:
        assert rec.top.shape == rec.bottom.shape


def test_load_wav_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_wav(tmp_path / "absent.wav")


# --- shared JSON reader ---


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e999", "-1e999"])
def test_read_json_rejects_non_finite_numbers(tmp_path, text):
    path = _write(tmp_path / "n.json", ('{"a": [%s]}' % text).encode())
    with pytest.raises(SchemaError, match="non-finite number"):
        read_json(path, SchemaError)


def test_read_json_directory_is_typed_error(tmp_path):
    with pytest.raises(ConfigError, match="unreadable JSON"):
        read_json(tmp_path, ConfigError)


# --- alignment ---


def _alignment(segments, sample_rate=192000, version=1):
    return {"version": version, "sample_rate": sample_rate, "segments": segments}


SEGMENTS = st.lists(
    st.fixed_dictionaries(
        {
            "phoneme": st.sampled_from(sorted(INVENTORY.symbols)),
            "start": st.integers(min_value=-10, max_value=N_SAMPLES + 10),
            "end": st.integers(min_value=-10, max_value=N_SAMPLES + 10),
        }
    ),
    max_size=6,
)


@FUZZ
@given(segments=SEGMENTS)
def test_load_alignment_bounds_and_overlap(tmp_path, segments):
    path = _write(tmp_path / "a.json", _alignment(segments))
    loaded = _loads_or_typed_error(lambda p: load_alignment(p, RECORDING), path)
    if loaded is None:
        spans = sorted((s["start"], s["end"]) for s in segments)
        in_range = all(0 <= a < b <= N_SAMPLES for a, b in spans)
        disjoint = all(b0 <= a1 for (_, b0), (a1, _) in zip(spans, spans[1:]))
        assert not (in_range and disjoint)
    else:
        assert len(loaded) == len(segments)
        for prev, seg in zip(loaded, loaded[1:]):
            assert prev.end <= seg.start
        assert all(0 <= s.start < s.end <= N_SAMPLES for s in loaded)


@FUZZ
@given(segments=JSON_VALUES, sample_rate=JSON_VALUES)
def test_load_alignment_arbitrary_fields_fail_closed(tmp_path, segments, sample_rate):
    path = _write(tmp_path / "a.json", _alignment(segments, sample_rate))
    _loads_or_typed_error(lambda p: load_alignment(p, RECORDING), path)


@FUZZ
@given(entry=st.lists(JSON_VALUES, max_size=3))
def test_load_alignment_nested_non_objects_rejected(tmp_path, entry):
    assume(any(not isinstance(e, dict) for e in entry))
    path = _write(tmp_path / "a.json", _alignment(entry))
    with pytest.raises(SchemaError):
        load_alignment(path, RECORDING)


@FUZZ
@given(field=st.sampled_from(["start", "end", "sample_rate"]), value=NON_FINITE)
def test_load_alignment_non_finite_rejected(tmp_path, field, value):
    seg = {"phoneme": "AA", "start": 0, "end": 100}
    doc = _alignment([seg])
    if field == "sample_rate":
        doc["sample_rate"] = value
    else:
        seg[field] = value
    path = _write(tmp_path / "a.json", doc)
    with pytest.raises(SchemaError, match="non-finite number"):
        load_alignment(path, RECORDING)


@FUZZ
@given(doc=NON_OBJECTS)
def test_load_alignment_non_object_rejected(tmp_path, doc):
    path = _write(tmp_path / "a.json", doc)
    with pytest.raises(SchemaError, match="expected a JSON object"):
        load_alignment(path, RECORDING)


@FUZZ
@given(version=WRONG_VERSIONS)
def test_load_alignment_wrong_version_rejected(tmp_path, version):
    path = _write(tmp_path / "a.json", _alignment([], version=version))
    with pytest.raises(SchemaError):
        load_alignment(path, RECORDING)


# --- profile ---


def _profile_doc(tmp_path):
    templates = [
        PhonemeTemplate(label, 50.0 + i, 1.0, 3, (49.0 + i, 50.0 + i, 51.0 + i))
        for i, label in enumerate(["AA", "S", "K"])
    ]
    profile = UserProfile(
        user_id="u",
        mode=ProfileMode.TEXT_DEPENDENT,
        device=DeviceSpec(0.15, "reference"),
        enrollment_pose=REFERENCE_POSE,
        sample_rate=192000,
        passphrase_templates={"pp0": templates},
    )
    path = tmp_path / "valid.profile.json"
    save_profile(profile, path)
    return json.loads(path.read_text())


PROFILE_FIELDS = st.sampled_from(
    ["user_id", "mode", "sample_rate", "device", "pose", "passphrases", "phonemes"]
)


@FUZZ
@given(field=PROFILE_FIELDS, value=JSON_VALUES)
def test_load_profile_arbitrary_field_fails_closed(tmp_path, field, value):
    doc = _profile_doc(tmp_path)
    doc[field] = value
    path = _write(tmp_path / "p.json", doc)
    _loads_or_typed_error(load_profile, path)


@FUZZ
@given(
    key=st.sampled_from(["label", "mean_delay", "std_delay", "trial_count", "delays"]),
    value=JSON_VALUES,
)
def test_load_profile_arbitrary_template_field_fails_closed(tmp_path, key, value):
    doc = _profile_doc(tmp_path)
    doc["passphrases"]["pp0"][1][key] = value
    path = _write(tmp_path / "p.json", doc)
    _loads_or_typed_error(load_profile, path)


@FUZZ
@given(
    where=st.sampled_from(["mean_delay", "std_delay", "sample_rate", "pose.x", "device.mic_spacing_m"]),
    value=NON_FINITE,
)
def test_load_profile_non_finite_rejected(tmp_path, where, value):
    doc = _profile_doc(tmp_path)
    if where in ("mean_delay", "std_delay"):
        doc["passphrases"]["pp0"][0][where] = value
    elif "." in where:
        section, key = where.split(".")
        doc[section][key] = value
    else:
        doc[where] = value
    path = _write(tmp_path / "p.json", doc)
    with pytest.raises(SchemaError, match="non-finite number"):
        load_profile(path)


@FUZZ
@given(doc=NON_OBJECTS)
def test_load_profile_non_object_rejected(tmp_path, doc):
    path = _write(tmp_path / "p.json", doc)
    with pytest.raises(SchemaError, match="expected a JSON object"):
        load_profile(path)


@FUZZ
@given(version=WRONG_VERSIONS)
def test_load_profile_wrong_version_rejected(tmp_path, version):
    doc = _profile_doc(tmp_path)
    doc["version"] = version
    path = _write(tmp_path / "p.json", doc)
    with pytest.raises(SchemaError, match="schema version"):
        load_profile(path)


@pytest.mark.parametrize("rate", [0, -192000])
def test_load_profile_non_positive_rate_rejected(tmp_path, rate):
    doc = _profile_doc(tmp_path)
    doc["sample_rate"] = rate
    path = _write(tmp_path / "p.json", doc)
    with pytest.raises(SchemaError, match="not positive"):
        load_profile(path)


def test_load_profile_round_trips_the_fuzz_base(tmp_path):
    # the mutations above start from a profile that loads
    path = _write(tmp_path / "p.json", _profile_doc(tmp_path))
    assert load_profile(path).templates_for("pp0")[2].label == "K"


# --- CLI config ---


@FUZZ
@given(doc=JSON_VALUES)
def test_load_config_arbitrary_json_fails_closed(tmp_path, doc):
    path = _write(tmp_path / "c.json", doc)
    config = _loads_or_typed_error(load_config, path)
    if config is not None:
        assert math.isfinite(config.c) and config.c > 0
        assert math.isfinite(config.threshold)


@FUZZ
@given(
    section=st.sampled_from(["geometry", "scoring"]),
    value=JSON_VALUES,
)
def test_load_config_arbitrary_section_fails_closed(tmp_path, section, value):
    key = "c" if section == "geometry" else "threshold"
    path = _write(tmp_path / "c.json", {section: {key: value}})
    _loads_or_typed_error(load_config, path)


@FUZZ
@given(data=st.binary(max_size=60))
def test_load_config_random_bytes_fail_closed(tmp_path, data):
    path = _write(tmp_path / "c.json", data)
    _loads_or_typed_error(load_config, path)
