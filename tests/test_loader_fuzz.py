"""Property tests: every file loader fails closed.

Whatever bytes a WAV, alignment, profile, scene or experiment file holds,
loading it either succeeds or raises a PhonotdoaError; a missing file
raises FileNotFoundError. No other exception may escape, because the
CLI maps exactly those to exit code 2. The scoring threshold, which
comes from a flag, is finite or refused with ConfigError.
"""

import io
import json
import math
import wave

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from phonotdoa.audio_io import StereoRecording, load_wav, read_json
from phonotdoa.cli import main
from phonotdoa.config import load_config
from phonotdoa.errors import (
    ConfigError, FormatError, InvalidPoseError, PhonotdoaError, SchemaError,
)
from phonotdoa import evaluation
from phonotdoa.evaluation import ExperimentConfig
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
from phonotdoa.simulator import load_scene
from phonotdoa.sourcemodel import load_source_model
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
# a version is a JSON integer: true and 1.0 compare equal to 1 but are wrong
WRONG_VERSIONS = _json_values(non_finite=False).filter(lambda v: type(v) is not int or v != 1)
WRONG_PROFILE_VERSIONS = _json_values(non_finite=False).filter(
    lambda v: type(v) is not int or v != 2
)
NON_STRINGS = _json_values(non_finite=False).filter(lambda v: not isinstance(v, str))
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
@example(version=True)  # `!=` once passed these as version 1
@example(version=1.0)
@example(version=2.0)
def test_load_alignment_wrong_version_rejected(tmp_path, version):
    path = _write(tmp_path / "a.json", _alignment([], version=version))
    with pytest.raises(SchemaError):
        load_alignment(path, RECORDING)


@FUZZ
@given(value=NON_STRINGS)
@example(value=None)  # str() once read these as the unknown labels 'None' and '5'
@example(value=5)
def test_load_alignment_non_string_phoneme_rejected(tmp_path, value):
    path = _write(tmp_path / "a.json", _alignment([{"phoneme": value, "start": 0, "end": 100}]))
    with pytest.raises(SchemaError, match="malformed alignment.*expected a string"):
        load_alignment(path, RECORDING)


# --- profile ---


def _profile_doc(tmp_path):
    templates = [
        PhonemeTemplate(label, 50.0 + i, 1.0, (49.0 + i, 50.0 + i, 51.0 + i))
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
    # a version-2 template holds label and delays; the rest are stray keys
    key=st.sampled_from(["label", "delays", "mean_delay", "trial_count"]),
    value=JSON_VALUES,
)
def test_load_profile_arbitrary_template_field_fails_closed(tmp_path, key, value):
    doc = _profile_doc(tmp_path)
    doc["passphrases"]["pp0"][1][key] = value
    path = _write(tmp_path / "p.json", doc)
    _loads_or_typed_error(load_profile, path)


@FUZZ
@given(
    where=st.sampled_from(["delays", "sample_rate", "pose.x", "device.mic_spacing_m"]),
    value=NON_FINITE,
)
def test_load_profile_non_finite_rejected(tmp_path, where, value):
    doc = _profile_doc(tmp_path)
    if where == "delays":
        doc["passphrases"]["pp0"][0]["delays"][1] = value
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
@given(where=st.sampled_from(["user_id", "device.name", "label"]), value=NON_STRINGS)
@example(where="user_id", value=None)  # str() once read these as "None"
@example(where="label", value=None)
def test_load_profile_non_string_rejected(tmp_path, where, value):
    doc = _profile_doc(tmp_path)
    if where == "label":
        doc["passphrases"]["pp0"][0]["label"] = value
    elif where == "device.name":
        doc["device"]["name"] = value
    else:
        doc[where] = value
    path = _write(tmp_path / "p.json", doc)
    with pytest.raises(SchemaError, match="expected a string"):
        load_profile(path)


@FUZZ
@given(version=WRONG_PROFILE_VERSIONS)
@example(version=1)  # a version-1 file also stores mean, std and trial count
@example(version=2.0)  # `!=` once passed this as version 2
@example(version=True)
@example(version=1.0)
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


@pytest.mark.parametrize("rate, match", [
    (1000, "outside"), (384001, "outside"),
    (192000.5, "expected an integer"), (True, "expected an integer"),
])
def test_load_profile_rate_out_of_range_rejected(tmp_path, rate, match):
    # each of these once loaded, and verify printed a verdict at that rate
    doc = _profile_doc(tmp_path)
    doc["sample_rate"] = rate
    path = _write(tmp_path / "p.json", doc)
    with pytest.raises(SchemaError, match=match):
        load_profile(path)


@pytest.mark.parametrize("field, value", [
    # templates enrolled at 30 degrees would move exactly as vertical ones
    ("alpha", math.radians(30)),
    # the transform puts the bottom mic at -l2: with l2 = 0.02 a 40-sample
    # template moved back 5 cm lands 0.55 samples from the consistent pose's
    ("l2", 0.02),
], ids=["alpha_30deg", "l2_off"])
def test_load_profile_inconsistent_enrollment_pose_rejected(tmp_path, field, value):
    doc = _profile_doc(tmp_path)
    doc["pose"][field] = value
    path = _write(tmp_path / "p.json", doc)
    with pytest.raises(SchemaError, match=r"not vertical with l = l1 \+ l2"):
        load_profile(path)


def test_load_profile_round_trips_the_fuzz_base(tmp_path):
    # the mutations above start from a profile that loads
    path = _write(tmp_path / "p.json", _profile_doc(tmp_path))
    assert load_profile(path).passphrase_templates["pp0"][2].label == "K"


# --- CLI scoring settings ---


@FUZZ
@given(threshold=JSON_VALUES)
@example(threshold=2**1100)  # too large for a float, yet finite
def test_load_config_arbitrary_threshold_is_finite_or_config_error(threshold):
    try:
        config = load_config(threshold=threshold)
    except ConfigError:
        return
    assert -math.inf < config.threshold < math.inf


# --- scene ---

SCENE_BASES = [
    {"kind": "live", "labels": ["AA", "S", "K"], "sample_rate": 48000, "echo": [9, 0.3]},
    {"kind": "static_playback", "labels": ["AA", "S", "K"], "sample_rate": 48000},
    {"kind": "mobile_playback", "labels": ["AA", "S", "K"], "sample_rate": 48000,
     "trajectory": [[0.05, 0.0], [0.0, 0.05]]},
    {"kind": "replace", "labels": ["AA", "S", "K"], "sample_rate": 48000,
     "recorder_distance_m": 0.3},
    {"kind": "beep", "face_distance_m": 0.1, "sample_rate": 48000},
]
SCENE_FIELDS = st.sampled_from([
    "kind", "labels", "sample_rate", "seed", "pose", "noise_snr_db", "echo", "jitter_scale",
    "face_distance_m", "source_offset", "trajectory", "recorder_distance_m",
])
# values that load more often than arbitrary JSON does, and still probe
# every range the renderers check
SMALL_SCENE_VALUES = (
    st.floats(min_value=-400.0, max_value=400.0)
    | st.integers(min_value=-3, max_value=400_000)
    | st.sampled_from(["live", "beep", "replace", "AA", "M"])
    | st.lists(st.floats(min_value=-12.0, max_value=12.0) | st.integers(-2, 20), max_size=3)
    | st.lists(st.lists(st.floats(min_value=-12.0, max_value=12.0), max_size=3), max_size=3)
    | st.fixed_dictionaries({k: st.floats(-0.5, 12.0) for k in ("x", "l1", "l2", "l")})
)


def _scene_or_refused(path):
    """load_scene(path), or None when it raises ConfigError, or the
    InvalidPoseError that DevicePose raises for a pose out of range."""
    try:
        return load_scene(path)
    except (ConfigError, InvalidPoseError):
        return None


@FUZZ
@given(doc=st.dictionaries(SCENE_FIELDS | st.text(max_size=6), JSON_VALUES, max_size=5))
def test_load_scene_arbitrary_object_fails_closed(tmp_path, doc):
    _scene_or_refused(_write(tmp_path / "s.json", doc))


@FUZZ
@given(
    base=st.sampled_from(SCENE_BASES),
    field=SCENE_FIELDS,
    value=JSON_VALUES | SMALL_SCENE_VALUES,
)
@pytest.mark.filterwarnings("ignore:sample rate")
def test_load_scene_arbitrary_field_fails_closed_and_renders(tmp_path, base, field, value):
    # a scene that loads renders, or the renderer refuses it with a typed
    # error: main() lets any other exception through
    path = _write(tmp_path / "s.json", {**base, field: value})
    if _scene_or_refused(path) is not None:
        assert main(["simulate", str(path), str(tmp_path / "out")]) in (0, 2)


@pytest.mark.parametrize("base", SCENE_BASES, ids=lambda b: b["kind"])
def test_scene_fuzz_bases_render(tmp_path, base):
    path = _write(tmp_path / "s.json", base)
    assert load_scene(path).kind == base["kind"]
    assert main(["simulate", str(path), str(tmp_path / "out")]) == 0


# --- experiment config ---

EXPERIMENT_BASE = {
    "seed": 1,
    "users": 1,
    "passphrases_per_user": 1,
    "live_trials": 2,
    "static_attacks": 1,
    "mobile_attacks": 1,
    "length_bands": [[2, 3]],
    "band_weights": [1.0],
    "pose_changes": [[30, 0.0]],
    "replace_distances": [0.3],
    "replace_attacks": 1,
}
SOURCE_MODEL = load_source_model()
EXPERIMENT_FIELDS = st.sampled_from(
    sorted(ExperimentConfig.__dataclass_fields__) + ["bogus"]
)


@FUZZ
@given(doc=st.dictionaries(EXPERIMENT_FIELDS | st.text(max_size=6), JSON_VALUES, max_size=5))
def test_experiment_config_arbitrary_object_fails_closed(doc):
    _loads_or_typed_error(ExperimentConfig.from_dict, doc)


@FUZZ
@given(field=EXPERIMENT_FIELDS, value=JSON_VALUES)
def test_experiment_config_arbitrary_field_fails_closed(field, value):
    _loads_or_typed_error(ExperimentConfig.from_dict, {**EXPERIMENT_BASE, field: value})


# small enough that a loaded config plans quickly and renders in a blink
SMALL_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-2, max_value=12)
    | st.floats(min_value=-1.0, max_value=60.0)
    | st.sampled_from(["abc", "correlation", "weighted", "text_independent"]),
    lambda inner: st.lists(inner, max_size=3),
    max_leaves=8,
)


@FUZZ
@given(field=EXPERIMENT_FIELDS, value=SMALL_JSON_VALUES)
def test_experiment_config_loaded_means_runnable(field, value):
    # a config that loads must also plan its draws and render its first
    # utterance without an untyped error, so no worker meets a bad field
    config = _loads_or_typed_error(ExperimentConfig.from_dict, {**EXPERIMENT_BASE, field: value})
    if config is None:
        return
    try:
        poses = [(0.0, 0.0)] + [tuple(p) for p in config.pose_changes]
        jobs, _ = evaluation._plan(config, SOURCE_MODEL, poses)
        evaluation._measure(config, jobs[0])
    except PhonotdoaError:
        pass


def test_experiment_fuzz_base_loads():
    config = ExperimentConfig.from_dict(EXPERIMENT_BASE)
    assert config.replace_distances == (0.3,)
