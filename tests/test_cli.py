import io
import json
import contextlib
import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import phonotdoa
from phonotdoa.audio_io import load_wav
from phonotdoa.cli import build_parser, main
from phonotdoa.config import DEFAULT_THRESHOLD
from phonotdoa.errors import NoSolutionError
from phonotdoa.geometry import transform_tdoa
from phonotdoa.profiles import load_profile
from phonotdoa.scoring import ScoringMethod, decide, score_dynamic
from phonotdoa.segmentation import load_alignment
from phonotdoa.tdoa import measure_dynamic

LABELS = ["IY", "S", "K", "AA", "T", "OW", "N", "EH"]


def run_cli(*args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(a) for a in args])
    return code, out.getvalue()


def _scene(tmp_path, name="scene.json", **kwargs):
    doc = {"kind": "live", "labels": LABELS, "seed": 1}
    doc.update(kwargs)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """simulate 3 enrollment trials + 1 live + 1 attack, enroll a profile."""
    tmp = tmp_path_factory.mktemp("cli")
    trials = []
    for seed in (1, 2, 3):
        scene = _scene(tmp, f"s{seed}.json", seed=seed)
        out = tmp / f"t{seed}"
        code, _ = run_cli("simulate", scene, out)
        assert code == 0
        trials.append(f"{out}/recording.wav:{out}/alignment.json")

    live_dir = tmp / "live"
    code, _ = run_cli("simulate", _scene(tmp, "live.json", seed=77), live_dir)
    assert code == 0

    attack_dir = tmp / "attack"
    scene = _scene(
        tmp, "attack.json", kind="static_playback", seed=78, source_offset=[0.0, -0.02]
    )
    code, _ = run_cli("simulate", scene, attack_dir)
    assert code == 0

    profile = tmp / "profile.json"
    args = ["enroll", "--out", profile, "--user", "u1"]
    for t in trials:
        args += ["--trial", t]
    code, _ = run_cli(*args)
    assert code == 0
    return tmp, profile, live_dir, attack_dir


def test_simulate_outputs(pipeline):
    tmp, _, live_dir, _ = pipeline
    assert (live_dir / "recording.wav").exists()
    assert (live_dir / "alignment.json").exists()
    truth = json.loads((live_dir / "ground_truth.json").read_text())
    assert len(truth["phonemes"]) == len(LABELS)


def test_verify_live_accepts(pipeline):
    _, profile, live_dir, _ = pipeline
    code, out = run_cli(
        "verify", live_dir / "recording.wav", live_dir / "alignment.json",
        "--profile", profile,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "live"
    assert doc["scores"]["combined"] > 0.6


def test_verify_attack_rejects(pipeline):
    _, profile, _, attack_dir = pipeline
    code, out = run_cli(
        "verify", attack_dir / "recording.wav", attack_dir / "alignment.json",
        "--profile", profile,
    )
    assert code == 1
    assert json.loads(out)["verdict"] == "replay"


def test_verify_missing_alignment_exits_2(pipeline, capsys):
    tmp, profile, live_dir, _ = pipeline
    code, _ = run_cli(
        "verify", live_dir / "recording.wav", tmp / "nope.json",
        "--profile", profile,
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "FileNotFoundError" in err


def test_verify_threshold_flag_overrides(pipeline):
    _, profile, live_dir, _ = pipeline
    code, _ = run_cli(
        "verify", live_dir / "recording.wav", live_dir / "alignment.json",
        "--profile", profile, "--threshold", "0.999",
    )
    assert code == 1  # nothing beats an impossible threshold


def test_cli_determinism_verify(pipeline):
    _, profile, live_dir, _ = pipeline
    args = (
        "verify", live_dir / "recording.wav", live_dir / "alignment.json",
        "--profile", profile,
    )
    _, out1 = run_cli(*args)
    _, out2 = run_cli(*args)
    assert out1 == out2


def test_cli_determinism_simulate(pipeline, tmp_path):
    tmp, _, _, _ = pipeline
    scene = _scene(tmp_path, "det.json", seed=5)
    _, out1 = run_cli("simulate", scene, tmp_path / "d1")
    _, out2 = run_cli("simulate", scene, tmp_path / "d2")
    b1 = (tmp_path / "d1" / "recording.wav").read_bytes()
    b2 = (tmp_path / "d2" / "recording.wav").read_bytes()
    assert b1 == b2
    a1 = (tmp_path / "d1" / "alignment.json").read_text()
    a2 = (tmp_path / "d2" / "alignment.json").read_text()
    assert a1 == a2


def test_tdoa_csv(pipeline):
    _, _, live_dir, _ = pipeline
    code, out = run_cli(
        "tdoa", live_dir / "recording.wav", live_dir / "alignment.json"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("label,start,end,delay_samples")
    assert len(lines) == 1 + len(LABELS)
    _, out2 = run_cli("tdoa", live_dir / "recording.wav", live_dir / "alignment.json")
    assert out == out2


def test_pose_subcommand_solves_and_transforms():
    code, out = run_cli(
        "pose", "--tdoa", "62.996", "--sample-rate", "192000", "--delta-x-m", "0.27",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["x_solved"] == pytest.approx(0.03, abs=1e-4)
    assert doc["tdoa2"] == pytest.approx(17.44, abs=0.05)


def test_pose_angle_zero_returns_input():
    code, out = run_cli("pose", "--tdoa", "62.996", "--angle-deg", "0")
    assert code == 0
    assert json.loads(out)["tdoa2"] == 62.996


@pytest.mark.parametrize("flag", ["--angle-deg", "--delta-x-m"])
@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_pose_non_finite_is_typed_error(flag, value, capsys):
    code, _ = run_cli("pose", "--tdoa", "63", f"{flag}={value}")
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "InvalidPoseError"


def test_pose_nan_angle_exits_2_under_optimize():
    # the pose check is a raise, not an assert, so python -O keeps it
    src = str(Path(phonotdoa.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "phonotdoa", "pose", "--tdoa", "63",
         "--angle-deg", "nan"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert "InvalidPoseError" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("flag", [
    "--angle-deg=inf", "--angle-deg=-inf", "--angle-deg=nan", "--distance-m=nan",
])
def test_verify_non_finite_pose_is_typed_error(pipeline, flag, capsys):
    _, profile, live_dir, _ = pipeline
    code, _ = run_cli(
        "verify", live_dir / "recording.wav", live_dir / "alignment.json",
        "--profile", profile, flag,
    )
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "InvalidPoseError"


@pytest.mark.parametrize("doc", [
    {"scoring": {"method": "foo"}},
    {"scoring": {"threshold": "abc"}},
    {"scoring": {"threshold": math.nan}},
    {"scoring": {"threshold": True}},
    {"scoring": []},
    {"geometry": "x"},
    {"geometry": {"c": "nan"}},
    {"geometry": {"c": math.inf}},
    {"geometry": {"c": 0.0}},
    {"geometry": {"pivot": "top"}},
    {"weights": {}},
    [1],
], ids=repr)
def test_bad_config_file_is_typed_error(pipeline, tmp_path, doc, capsys):
    _, profile, live_dir, _ = pipeline
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    code, _ = run_cli(
        "verify", live_dir / "recording.wav", live_dir / "alignment.json",
        "--profile", profile, "--config", config,
    )
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


def _with(doc, **fields):
    return json.dumps({**doc, **fields}).encode()


def _segments(*entries):
    return lambda profile, alignment: _with(alignment, segments=list(entries))


# file kind -> bytes built from the valid profile and alignment docs
MALFORMED_INPUTS = {
    "config_not_utf8": ("config", lambda p, a: b'{"scoring": {}}\xff', "ConfigError"),
    "profile_not_utf8": ("profile", lambda p, a: b"\xff" + _with(p), "SchemaError"),
    "profile_top_level_list": ("profile", lambda p, a: b"[1, 2]", "SchemaError"),
    "profile_pose_list": ("profile", lambda p, a: _with(p, pose=[1]), "SchemaError"),
    "segment_list": ("alignment", _segments([1]), "SchemaError"),
    "segment_string": ("alignment", _segments("abc"), "SchemaError"),
    "segment_null": ("alignment", _segments(None), "SchemaError"),
    "segment_no_phoneme": ("alignment", _segments({"start": 0, "end": 100}), "SchemaError"),
    "segment_start_text": (
        "alignment", _segments({"phoneme": "AA", "start": "x", "end": 100}), "SchemaError",
    ),
    "sample_rate_text": ("alignment", lambda p, a: _with(a, sample_rate="fast"), "SchemaError"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_verify_malformed_input_file_is_typed_error(pipeline, tmp_path, case, capsys):
    _, profile, live_dir, _ = pipeline
    files = {"profile": profile, "alignment": live_dir / "alignment.json"}
    kind, make, error = MALFORMED_INPUTS[case]
    bad = tmp_path / f"bad_{kind}.json"
    bad.write_bytes(
        make(json.loads(profile.read_text()), json.loads(files["alignment"].read_text()))
    )
    files[kind] = bad
    args = ["verify", live_dir / "recording.wav", files["alignment"], "--profile", files["profile"]]
    if kind == "config":
        args += ["--config", bad]
    code, out = run_cli(*args)
    assert (code, out) == (2, "")
    assert json.loads(capsys.readouterr().err)["error"] == error


@pytest.mark.parametrize("scene", [
    {"kind": "live", "labels": ["AA", "S", "K"], "pose": {"x": 0.03}},
    {"kind": "beep"},
    {"kind": "static_playback", "labels": ["AA", "S", "K"], "source_offset": [1]},
    {"kind": "live", "labels": ["AA", "S", "K"], "sample_rate": "abc"},
    {"kind": "live", "labels": ["AA", "S", "K"], "seed": -1},
    {"kind": "live", "labels": ["AA", "S", "K"], "noise_snr_db": -10000},
], ids=[
    "pose_missing_fields", "beep_no_distance", "offset_one_value", "rate_text",
    "seed_negative", "snr_very_negative",
])
def test_simulate_malformed_scene_is_typed_error(tmp_path, scene, capsys):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    code, out = run_cli("simulate", path, tmp_path / "out")
    assert (code, out) == (2, "")
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


def test_simulate_negative_seed_flag_is_typed_error(tmp_path, capsys):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({"kind": "live", "labels": ["AA", "S", "K"]}))
    code, out = run_cli("simulate", path, tmp_path / "out", "--seed", "-1")
    assert (code, out) == (2, "")
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
    assert not (tmp_path / "out").exists()


def test_reused_parser_matches_fresh_parser(pipeline, tmp_path):
    # main() parses with one parser per process; a fresh parser per call
    # must give the same outputs, so no flag or --trial list carries over
    tmp, profile, live_dir, _ = pipeline
    live = [live_dir / "recording.wav", live_dir / "alignment.json"]
    trials = [f"{tmp}/t{s}/recording.wav:{tmp}/t{s}/alignment.json" for s in (1, 2, 3)]
    trials.append(f"{live[0]}:{live[1]}")
    calls = [
        ["enroll", "--out", tmp_path / "a.json", "--user", "a",
         "--trial", trials[0], "--trial", trials[1], "--trial", trials[2]],
        ["enroll", "--out", tmp_path / "b.json", "--user", "b",
         "--trial", trials[1], "--trial", trials[2], "--trial", trials[3]],
        ["verify", *live, "--profile", profile, "--angle-deg", "20"],
        ["verify", *live, "--profile", profile],
    ]

    def run_all(fresh):
        outputs = []
        for argv in calls:
            if fresh:
                build_parser.cache_clear()
            outputs.append(run_cli(*argv))
        profiles = [(tmp_path / name).read_bytes() for name in ("a.json", "b.json")]
        return outputs, profiles

    reused = run_all(fresh=False)
    assert reused == run_all(fresh=True)
    (_, tilted), (_, level) = reused[0][2:]
    assert tilted != level
    assert reused[1][0] != reused[1][1]


def test_verify_weighted_needs_text_independent_profile(pipeline, capsys):
    # same refusal as `evaluate` with the weighted method in text-dependent mode
    _, profile, live_dir, _ = pipeline
    code, out = run_cli(
        "verify", live_dir / "recording.wav", live_dir / "alignment.json",
        "--profile", profile, "--method", "weighted",
    )
    assert (code, out) == (2, "")
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "weighted method needs" in err["message"]


def test_verify_tilted_live_accepts(pipeline, tmp_path):
    # live speech with the handset tilted 30 degrees about its top mic:
    # the transformed templates follow the simulator's geometry
    _, profile, _, _ = pipeline
    pose = {"x": 0.03, "l1": 0.14, "l2": 0.01, "l": 0.15, "alpha": math.radians(30)}
    out = tmp_path / "tilted"
    code, _ = run_cli("simulate", _scene(tmp_path, "tilted.json", seed=77, pose=pose), out)
    assert code == 0
    code, doc = run_cli(
        "verify", out / "recording.wav", out / "alignment.json",
        "--profile", profile, "--angle-deg", "30",
    )
    assert code == 0
    assert json.loads(doc)["verdict"] == "live"


def test_verify_pose_release_uses_configured_speed_of_sound(pipeline, tmp_path):
    # the tilted templates must be solved at the config's c, as the
    # measurement and the `pose` subcommand are
    _, profile_path, live_dir, _ = pipeline
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"geometry": {"c": 300.0}}))
    wav, alignment = live_dir / "recording.wav", live_dir / "alignment.json"
    code, out = run_cli(
        "verify", wav, alignment, "--profile", profile_path,
        "--config", config, "--angle-deg", "30",
    )
    recording = load_wav(wav)
    profile = load_profile(profile_path)
    dynamic = measure_dynamic(
        recording, load_alignment(alignment, recording), device=profile.device, c=300.0
    )
    (pid,) = profile.passphrase_templates

    def decision(c):
        templates = []
        for t in profile.templates_for(pid):
            try:
                mean = transform_tdoa(
                    t.mean_delay, profile.enrollment_pose, alpha=math.radians(30),
                    sample_rate=profile.sample_rate, c=c,
                )
            except NoSolutionError:
                mean = t.mean_delay
            templates.append(dataclasses.replace(t, mean_delay=mean))
        score = score_dynamic(dynamic, templates, method=ScoringMethod.COMBINED)
        return decide(score, DEFAULT_THRESHOLD).to_json_dict()

    assert decision(300.0) != decision(340.0)
    assert code in (0, 1)
    assert json.loads(out) == decision(300.0)


def test_simulate_beep_scene(tmp_path):
    scene = tmp_path / "beep.json"
    scene.write_text(json.dumps({"kind": "beep", "face_distance_m": 0.10, "seed": 4}))
    code, out = run_cli("simulate", scene, tmp_path / "beep_out")
    assert code == 0
    truth = json.loads((tmp_path / "beep_out" / "ground_truth.json").read_text())
    assert truth["echo_delay_samples"] == pytest.approx(112.94, abs=0.01)


def test_verify_with_beep_distance(pipeline, tmp_path):
    # estimated handset distance equal to the enrollment pose keeps the
    # templates unchanged, so a live utterance still verifies
    _, profile, live_dir, _ = pipeline
    scene = tmp_path / "beep.json"
    scene.write_text(json.dumps({"kind": "beep", "face_distance_m": 0.10, "seed": 4}))
    run_cli("simulate", scene, tmp_path / "beep_out")
    code, out = run_cli(
        "verify", live_dir / "recording.wav", live_dir / "alignment.json",
        "--profile", profile,
        "--beep-echo", tmp_path / "beep_out" / "recording.wav",
    )
    assert code in (0, 1)
    doc = json.loads(out)
    assert "verdict" in doc


def test_evaluate_command(tmp_path):
    exp = tmp_path / "exp.json"
    exp.write_text(
        json.dumps(
            {
                "seed": 2,
                "users": 1,
                "passphrases_per_user": 1,
                "live_trials": 3,
                "static_attacks": 2,
                "mobile_attacks": 1,
                "length_bands": [[2, 2]],
                "band_weights": [1.0],
                "duration_range": [0.06, 0.08],
            }
        )
    )
    code, out = run_cli("evaluate", exp, tmp_path / "rep")
    assert code == 0
    assert (tmp_path / "rep" / "report.json").exists()
    doc = json.loads(out)
    assert "combined" in doc["methods"]
    # determinism of the whole experiment pipeline: identical invocation
    # twice gives byte-identical stdout and report
    r1 = (tmp_path / "rep" / "report.json").read_bytes()
    code, out2 = run_cli("evaluate", exp, tmp_path / "rep")
    assert out == out2
    r2 = (tmp_path / "rep" / "report.json").read_bytes()
    assert r1 == r2


@pytest.mark.parametrize("fields, flags", [
    ({"sample_rate": "abc"}, []),
    ({"length_bands": [[2]]}, []),
    ({"users": 1.5}, []),
    ({"seed": -1}, []),
    ({}, ["--seed", "-3"]),
    ({"noise_snr_db": -10000}, []),
], ids=[
    "rate_text", "band_one_value", "users_fraction", "seed_negative",
    "seed_flag_negative", "snr_very_negative",
])
def test_evaluate_malformed_experiment_is_typed_error(tmp_path, fields, flags, capsys):
    exp = tmp_path / "exp.json"
    exp.write_text(json.dumps({
        "users": 1, "passphrases_per_user": 1, "live_trials": 1,
        "static_attacks": 1, "mobile_attacks": 0, "length_bands": [[2, 2]],
        "band_weights": [1.0], **fields,
    }))
    code, out = run_cli("evaluate", exp, tmp_path / "rep", *flags)
    assert (code, out) == (2, "")
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
    assert not (tmp_path / "rep").exists()


def test_enroll_text_independent_via_cli(tmp_path, source_model):
    # three long utterances covering the inventory
    labels = sorted(source_model.labels)
    trials = []
    for seed in (11, 12, 13):
        scene = tmp_path / f"ti{seed}.json"
        scene.write_text(
            json.dumps({"kind": "live", "labels": labels, "seed": seed})
        )
        out = tmp_path / f"ti{seed}"
        code, _ = run_cli("simulate", scene, out)
        assert code == 0
        trials.append(f"{out}/recording.wav:{out}/alignment.json")
    profile = tmp_path / "ti.json"
    args = ["enroll", "--out", profile, "--user", "u2", "--mode", "text_independent"]
    for t in trials:
        args += ["--trial", t]
    code, out = run_cli(*args)
    assert code == 0
    assert json.loads(out)["n_phoneme_templates"] == 44
