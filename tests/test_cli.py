import argparse
import gc
import io
import json
import contextlib
import logging
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
import wave
from pathlib import Path

import numpy as np
import pytest

import phonotdoa
from phonotdoa import cli, geometry, profiles, tdoa
from phonotdoa.audio_io import StereoRecording, WavReader, load_wav, write_wav
from phonotdoa.cli import build_parser, main
from phonotdoa.config import DEFAULT_THRESHOLD
from phonotdoa.geometry import REFERENCE_POSE
from phonotdoa.phonemes import INVENTORY
from phonotdoa.profiles import load_profile, normalize_dynamic
from phonotdoa.scoring import ScoringMethod, Verdict, decide, score_dynamic
from phonotdoa.segmentation import PhonemeSegment, load_alignment, save_alignment
from phonotdoa.simulator import synthesize_live
from phonotdoa.tdoa import DeviceSpec, measure_dynamic

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


def test_verify_logs_and_reports_the_method_it_decides_on(pipeline, caplog):
    _, profile, live_dir, _ = pipeline
    with caplog.at_level(logging.INFO, logger="phonotdoa"):
        code, out = run_cli(
            "verify", live_dir / "recording.wav", live_dir / "alignment.json",
            "--profile", profile, "--method", "probability",
        )
    doc = json.loads(out)
    assert doc["method"] == "probability"
    assert code == (0 if doc["scores"]["probability"] > DEFAULT_THRESHOLD else 1)
    line = 'effective config: {"scoring": {"method": "probability", "threshold": 0.6}}'
    assert line in caplog.text


def test_cli_determinism_verify(pipeline):
    _, profile, live_dir, _ = pipeline
    args = (
        "verify", live_dir / "recording.wav", live_dir / "alignment.json",
        "--profile", profile,
    )
    _, out1 = run_cli(*args)
    _, out2 = run_cli(*args)
    assert out1 == out2


def test_verify_rescales_other_rate_and_moves_to_other_spacing_as_composed_by_hand(
    pipeline, tmp_path
):
    # a 96 kHz recording measured on an S5-spaced handset against the
    # 192 kHz reference-handset profile: the rate rescale, the template
    # move to the tilted S5 handset and the score must match the library
    # steps run one by one
    _, profile_path, _, _ = pipeline
    out = tmp_path / "live96"
    assert run_cli("simulate", _scene(tmp_path, seed=77, sample_rate=96000), out)[0] == 0
    code, stdout = run_cli(
        "verify", out / "recording.wav", out / "alignment.json", "--profile", profile_path,
        "--device-spacing-m", "0.141", "--angle-deg", "10",
    )
    profile = load_profile(profile_path)
    s5 = DeviceSpec(mic_spacing_m=0.141)
    with WavReader(out / "recording.wav") as recording:
        assert (recording.sample_rate, profile.sample_rate) == (96000, 192000)
        dynamic = measure_dynamic(
            recording, load_alignment(out / "alignment.json", recording), device=s5
        )
    dynamic = normalize_dynamic(dynamic, profile.sample_rate)
    templates = profile.templates_at(dynamic.labels, alpha=math.radians(10), spacing=0.141)
    sim = score_dynamic(dynamic, templates)
    decision = decide(sim, DEFAULT_THRESHOLD, ScoringMethod.COMBINED)
    assert stdout == json.dumps(decision.to_json_dict(), indent=2, sort_keys=True) + "\n"
    assert code == (0 if decision.verdict == Verdict.LIVE else 1)


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


def test_pose_transforms_a_delay_only_the_vertical_line_fits(capsys):
    # no mouth-axis distance fits -30 samples, yet the transform moves it
    code, out = run_cli("pose", "--tdoa", "-30", "--angle-deg", "30")
    assert code == 0
    doc = json.loads(out)
    assert doc["x_solved"] is None
    assert doc["tdoa2"] == pytest.approx(
        geometry.transform_tdoa(-30.0, REFERENCE_POSE, alpha=math.radians(30))
    )
    assert doc["tdoa2"] == pytest.approx(-44.80, abs=0.01)
    # with nothing to transform, the solve is the answer, and it has none
    assert run_cli("pose", "--tdoa", "-30") == (2, "")
    assert json.loads(capsys.readouterr().err)["error"] == "NoSolutionError"


@pytest.mark.parametrize("flag", ["--angle-deg", "--delta-x-m"])
@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_pose_non_finite_is_typed_error(flag, value, capsys):
    code, _ = run_cli("pose", "--tdoa", "63", f"{flag}={value}")
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "InvalidPoseError"


@pytest.mark.parametrize("rate", ["0", "-192000", "384001"])
def test_pose_rate_out_of_range_is_typed_error(rate, capsys):
    code, out = run_cli("pose", "--tdoa", "40", "--sample-rate", rate)
    assert (code, out) == (2, "")
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


def _run_python(*args):
    """A fresh interpreter that imports this checkout's phonotdoa."""
    src = str(Path(phonotdoa.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60,
    )


def test_pose_nan_angle_exits_2_under_optimize():
    # the pose check is a raise, not an assert, so python -O keeps it
    proc = _run_python("-O", "-m", "phonotdoa", "pose", "--tdoa", "63", "--angle-deg", "nan")
    assert proc.returncode == 2
    assert "InvalidPoseError" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_import_loads_no_scipy():
    # every CLI call is a fresh process: the package itself loads none of
    # its modules and no numpy; scipy.signal, needed only for beep-echo
    # ranging, must not load with the CLI, and multiprocessing and
    # concurrent.futures, which it never uses, at all
    proc = _run_python("-c", (
        "import sys; import phonotdoa; "
        "print(sorted(m for m in sys.modules if m.startswith('phonotdoa.') or "
        "m.split('.')[0] == 'numpy')); "
        "import phonotdoa.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in "
        "('scipy', 'multiprocessing', 'concurrent')))"
    ))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "[]"]


@pytest.mark.parametrize("command", ["verify", "pose", "tdoa"])
def test_command_loads_no_simulator_or_evaluation(pipeline, command):
    # simulate and evaluate import the renderer and the experiment runner
    # when they run; the commands that measure and score never load them
    _, profile, live_dir, _ = pipeline
    recording, alignment = str(live_dir / "recording.wav"), str(live_dir / "alignment.json")
    argv = {
        "verify": ["verify", recording, alignment, "--profile", str(profile)],
        "pose": ["pose", "--tdoa", "63", "--angle-deg", "30"],
        "tdoa": ["tdoa", recording, alignment],
    }[command]
    proc = _run_python("-c", (
        "import sys; import phonotdoa.cli as cli; "
        f"assert cli.main({argv!r}) == 0; "
        "print(sorted(m for m in sys.modules if m in "
        "('phonotdoa.simulator', 'phonotdoa.evaluation', 'phonotdoa.sourcemodel')))"
    ))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"


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


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_verify_non_finite_threshold_is_config_error(pipeline, value, capsys):
    _, profile, live_dir, _ = pipeline
    code, out = run_cli(
        "verify", live_dir / "recording.wav", live_dir / "alignment.json",
        "--profile", profile, f"--threshold={value}",
    )
    assert (code, out) == (2, "")
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


@pytest.mark.parametrize("labels", [LABELS, ["AA", "S", "K"]], ids=["nasals", "no_nasals"])
def test_verify_refuses_a_distance_at_or_behind_the_mouth(labels, tmp_path, capsys):
    # DevicePose checks the verification pose before anything is measured;
    # the exit code once followed the templates: 2 where one moved to or
    # behind the mouth, as every nasal does, and 1, REPLAY, where none did
    trials = []
    for seed in (1, 2, 3):
        out = tmp_path / f"t{seed}"
        scene = _scene(tmp_path, f"s{seed}.json", labels=labels, seed=seed)
        assert run_cli("simulate", scene, out)[0] == 0
        trials.append(f"{out}/recording.wav:{out}/alignment.json")
    profile = tmp_path / "p.json"
    assert run_cli("enroll", "--out", profile, "--user", "u", *_trial_flags(*trials))[0] == 0
    capsys.readouterr()
    for distance in ("0", "-0.01"):
        code, out = run_cli(
            "verify", tmp_path / "t1" / "recording.wav", tmp_path / "t1" / "alignment.json",
            "--profile", profile, "--distance-m", distance,
        )
        assert (code, out) == (2, "")
        assert json.loads(capsys.readouterr().err) == {
            "error": "InvalidPoseError",
            "message": f"x must be positive and finite, got {float(distance)}",
        }


def test_verify_names_the_template_a_small_distance_puts_behind_the_handset(
    pipeline, tmp_path, capsys
):
    # 0.1 mm passes DevicePose, but S's enrolled 65-sample delay solves
    # to a source nearer than the enrolled 3 cm, so the move puts it
    # behind the handset: the error names S and the distance it admits,
    # enrolled x minus solved x, not the moved x the user never typed
    _, td_profile, live_dir, _ = pipeline
    doc = _text_independent(json.loads(td_profile.read_text()))
    doc["phonemes"]["S"]["delays"] = [64.0, 65.0, 66.0]
    ti_profile = tmp_path / "ti.json"
    ti_profile.write_text(json.dumps(doc))
    profile = load_profile(ti_profile)
    pose = profile.enrollment_pose
    solved = geometry.solve_source_distance(65.0, pose.l1, pose.l2, profile.sample_rate)
    verify = ["verify", live_dir / "recording.wav", live_dir / "alignment.json"]
    code, out = run_cli(*verify, "--profile", ti_profile, "--distance-m", "0.0001")
    assert (code, out) == (2, "")
    assert json.loads(capsys.readouterr().err) == {
        "error": "InvalidPoseError",
        "message": f"template 'S': the handset distance must be more than "
        f"{pose.x - solved:.4g} m, got 0.0001",
    }
    assert 0.0001 < pose.x - solved < pose.x
    # a text-dependent profile whose templates all move still scores
    code, out = run_cli(*verify, "--profile", td_profile, "--distance-m", "0.0001")
    assert code == 1 and json.loads(out)["verdict"] == "replay"


def test_verify_distance_and_beep_echo_are_exclusive(pipeline, tmp_path, capsys):
    # one source for the verification distance: argparse refuses the pair
    # before any file is opened, so a missing echo file is never read
    _, profile, live_dir, _ = pipeline
    with pytest.raises(SystemExit) as exc:
        main([
            "verify", str(live_dir / "recording.wav"), str(live_dir / "alignment.json"),
            "--profile", str(profile), "--distance-m", "0.03",
            "--beep-echo", str(tmp_path / "missing.wav"),
        ])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not allowed with argument" in captured.err


@pytest.mark.parametrize("argv", [
    ["enroll", "--out", "p.json", "--user", "u", "--trial", "r.wav:a.json", "--method", "cc"],
    ["pose", "--tdoa", "63", "--config", "config.json"],
    ["verify", "r.wav", "a.json", "--profile", "p.json", "--config", "config.json"],
    ["enroll", "--out", "p.json", "--user", "u", "--trial", "r.wav:a.json", "--pose-x", "0.05"],
    ["pose", "--tdoa", "63", "--pose-l", "0.12"],
    ["enroll", "--out", "p.json", "--user", "u", "--trial", "r.wav:a.json",
     "--device-name", "phone"],
], ids=["enroll_method", "pose_config", "verify_config", "enroll_pose_x", "pose_pose_l",
        "enroll_device_name"])
def test_removed_flags_are_unrecognized(argv, capsys):
    # enrollment always measures with GCC-PHAT and records REFERENCE_POSE
    # on the handset of --device-spacing-m; no command reads a config file
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


def test_enroll_records_the_device_spacing_as_the_pose_l(pipeline, tmp_path):
    # enroll builds its device as verify and tdoa do, and records the
    # spacing only as the pose's l: REFERENCE_POSE on that handset, its
    # bottom mic in place
    tmp = pipeline[0]
    args = ["enroll", "--out", tmp_path / "p.json", "--user", "u", "--device-spacing-m", "0.15"]
    for s in (1, 2, 3):
        args += ["--trial", f"{tmp}/t{s}/recording.wav:{tmp}/t{s}/alignment.json"]
    assert run_cli(*args)[0] == 0
    assert "device" not in json.loads((tmp_path / "p.json").read_text())
    assert load_profile(tmp_path / "p.json").enrollment_pose == REFERENCE_POSE
    args[args.index("0.15")] = "0.141"
    assert run_cli(*args)[0] == 0
    pose = load_profile(tmp_path / "p.json").enrollment_pose
    assert pose == REFERENCE_POSE.with_spacing(0.141)
    assert (pose.l, pose.l2) == (0.141, REFERENCE_POSE.l2)
    # verify measures on the profile's spacing unless the flag names one
    live = pipeline[2]
    verify = ["verify", live / "recording.wav", live / "alignment.json",
              "--profile", tmp_path / "p.json"]
    assert run_cli(*verify) == run_cli(*verify, "--device-spacing-m", "0.141")
    assert run_cli(*verify) != run_cli(*verify, "--device-spacing-m", "0.15")


def test_every_cli_option_is_in_readme():
    # each settable value is documented, so an added flag shows up here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    parser = build_parser()
    parsers = [parser]
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            parsers += action.choices.values()
    options = {opt for p in parsers for a in p._actions for opt in a.option_strings}
    missing = sorted(
        opt for opt in options - {"-h", "--help"}
        if not re.search(re.escape(opt) + r"(?![\w-])", readme)
    )
    assert missing == []


def _with(doc, **fields):
    return json.dumps({**doc, **fields}).encode()


def _segments(*entries):
    return lambda profile, alignment: _with(alignment, segments=list(entries))


def _template_field(**fields):
    """The profile with fields replaced in its first passphrase template."""
    def make(profile, alignment):
        first, *rest = profile["passphrases"]["passphrase0"]
        return _with(profile, passphrases={"passphrase0": [{**first, **fields}, *rest]})
    return make


def _delay_counts(*counts):
    """The profile with the first positions of its passphrase holding
    counts delays, cut from or repeating the enrolled three."""
    def make(profile):
        positions = profile["passphrases"]["passphrase0"]
        edited = [{**t, "delays": (t["delays"] * 2)[:n]} for t, n in zip(positions, counts)]
        return {**profile, "passphrases": {"passphrase0": edited + positions[len(counts):]}}
    return make


def _text_independent(profile, drop=()):
    """A hand-written text-independent profile: three delays per
    inventory phoneme except those in drop."""
    phonemes = {
        label: {"label": label, "delays": [40.0, 41.0, 42.5]}
        for label in sorted(INVENTORY.symbols) if label not in drop
    }
    return {**profile, "mode": "text_independent", "passphrases": {}, "phonemes": phonemes}


def _version_1(profile):
    # the version-1 layout: statistics stored beside the delays
    positions = [
        {**t, "mean_delay": float(np.mean(t["delays"])),
         "std_delay": float(np.std(t["delays"], ddof=1)), "trial_count": len(t["delays"])}
        for t in profile["passphrases"]["passphrase0"]
    ]
    return {**profile, "version": 1, "passphrases": {"passphrase0": positions}}


# file kind -> bytes built from the valid profile and alignment docs
MALFORMED_INPUTS = {
    "profile_not_utf8": ("profile", lambda p, a: b"\xff" + _with(p), "SchemaError"),
    "profile_top_level_list": ("profile", lambda p, a: b"[1, 2]", "SchemaError"),
    "profile_pose_list": ("profile", lambda p, a: _with(p, pose=[1]), "SchemaError"),
    "segment_list": ("alignment", _segments([1]), "SchemaError"),
    "segment_string": ("alignment", _segments("abc"), "SchemaError"),
    "segment_null": ("alignment", _segments(None), "SchemaError"),
    "segment_no_phoneme": ("alignment", _segments({"start": 0, "end": 100}), "SchemaError"),
    "segment_phoneme_null": (
        "alignment", _segments({"phoneme": None, "start": 0, "end": 100}), "SchemaError",
    ),
    "segment_start_text": (
        "alignment", _segments({"phoneme": "AA", "start": "x", "end": 100}), "SchemaError",
    ),
    "sample_rate_text": ("alignment", lambda p, a: _with(a, sample_rate="fast"), "SchemaError"),
    "sample_rate_fraction": (
        "alignment", lambda p, a: _with(a, sample_rate=a["sample_rate"] + 0.7), "SchemaError",
    ),
    "profile_rate_low": ("profile", lambda p, a: _with(p, sample_rate=1000), "SchemaError"),
    "profile_rate_fraction": (
        "profile", lambda p, a: _with(p, sample_rate=p["sample_rate"] + 0.7), "SchemaError",
    ),
    "profile_rate_bool": ("profile", lambda p, a: _with(p, sample_rate=True), "SchemaError"),
    # a text-dependent profile needs --passphrase-id unless it holds one passphrase
    "profile_two_passphrases": (
        "profile",
        lambda p, a: _with(p, passphrases={"passphrase0": p["passphrases"]["passphrase0"],
                                           "second": p["passphrases"]["passphrase0"]}),
        "SchemaError",
    ),
    "profile_no_passphrases": ("profile", lambda p, a: _with(p, passphrases={}), "SchemaError"),
    # a version-2 template holds its delays and no statistic, however typed
    "template_mean_text": ("profile", _template_field(mean_delay="3.0"), "SchemaError"),
    "template_std_bool": ("profile", _template_field(std_delay=True), "SchemaError"),
    # real-valued fields must be JSON numbers, not parsed strings or booleans
    # the mic spacing, stored as the pose's l
    "device_spacing_text": (
        "profile", lambda p, a: _with(p, pose={**p["pose"], "l": "0.15"}), "SchemaError",
    ),
    "pose_field_text": (
        "profile", lambda p, a: _with(p, pose={**p["pose"], "x": "0.03"}), "SchemaError",
    ),
    "pose_field_bool": (
        "profile", lambda p, a: _with(p, pose={**p["pose"], "alpha": False}), "SchemaError",
    ),
    "template_delays_text_bool": (
        "profile", _template_field(delays=["1.5", True, 2]), "SchemaError",
    ),
    # stored delays that enroll would not have written
    "profile_version_1": ("profile", lambda p, a: _with(_version_1(p)), "SchemaError"),
    "profile_two_delays": (
        "profile", lambda p, a: _with(_delay_counts(*[2] * len(LABELS))(p)), "SchemaError",
    ),
    "profile_unequal_delay_counts": (
        "profile", lambda p, a: _with(_delay_counts(4)(p)), "SchemaError",
    ),
    "profile_text_independent_missing_phoneme": (
        "profile", lambda p, a: _with(_text_independent(p, drop=("M",))), "SchemaError",
    ),
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
    code, out = run_cli(
        "verify", live_dir / "recording.wav", files["alignment"], "--profile", files["profile"],
    )
    assert (code, out) == (2, "")
    assert json.loads(capsys.readouterr().err)["error"] == error


def test_verify_scores_against_a_hand_written_text_independent_profile(pipeline, tmp_path):
    # the control of the missing-phoneme input above: the whole inventory loads
    _, profile, live_dir, _ = pipeline
    ti = tmp_path / "ti.json"
    ti.write_text(json.dumps(_text_independent(json.loads(profile.read_text()))))
    code, out = run_cli(
        "verify", live_dir / "recording.wav", live_dir / "alignment.json", "--profile", ti,
    )
    assert code in (0, 1)
    assert json.loads(out)["verdict"] in ("live", "replay")


def _truncate_after_last_segment(wav, alignment, out):
    """Copy wav to out without the frames after the alignment's last
    segment, so every segment's frames stay readable."""
    raw = wav.read_bytes()
    with wave.open(str(wav)) as w:
        n, frame_bytes = w.getnframes(), w.getnchannels() * w.getsampwidth()
    last_end = max(seg["end"] for seg in json.loads(alignment.read_text())["segments"])
    assert last_end < n and len(raw) == 44 + n * frame_bytes
    out.write_bytes(raw[: len(raw) - (n - last_end) * frame_bytes])
    return out


@pytest.mark.parametrize("command", ["verify", "enroll", "tdoa"])
def test_wav_truncated_after_last_segment_is_format_error(pipeline, tmp_path, command, capsys):
    # measuring reads only the segments' frames, yet a file shorter than
    # its header declares is still refused when it is opened
    tmp, profile, live_dir, _ = pipeline
    alignment = live_dir / "alignment.json"
    wav = _truncate_after_last_segment(live_dir / "recording.wav", alignment, tmp_path / "t.wav")
    argv = {
        "verify": ["verify", wav, alignment, "--profile", profile],
        "tdoa": ["tdoa", wav, alignment],
        "enroll": ["enroll", "--out", tmp_path / "p.json", "--user", "u",
                   "--trial", f"{tmp}/t1/recording.wav:{tmp}/t1/alignment.json",
                   "--trial", f"{tmp}/t2/recording.wav:{tmp}/t2/alignment.json",
                   "--trial", f"{wav}:{alignment}"],
    }[command]
    code, out = run_cli(*argv)
    assert (code, out) == (2, "")
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FormatError"
    assert "data chunk shorter than header declares" in err["message"]
    assert not (tmp_path / "p.json").exists()


def test_failed_verify_closes_its_recording(pipeline, tmp_path, capsys):
    # the alignment is refused while the WAV file is open
    _, profile, live_dir, _ = pipeline
    alignment = json.loads((live_dir / "alignment.json").read_text())
    bad = tmp_path / "a96k.json"
    bad.write_text(json.dumps({**alignment, "sample_rate": 96000}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _ = run_cli("verify", live_dir / "recording.wav", bad, "--profile", profile)
        gc.collect()
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "SchemaError"
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_unusual_rate_warns_once_per_recording(tmp_path):
    rng = np.random.default_rng(5)
    with pytest.warns(UserWarning, match="sample rate 44100 Hz"):
        rec = StereoRecording(44100, rng.uniform(-0.5, 0.5, 20000), rng.uniform(-0.5, 0.5, 20000))
    write_wav(rec, tmp_path / "r.wav")
    segments = [PhonemeSegment(lo, lo + 4000, "AA") for lo in (1000, 6000, 11000, 16000)]
    save_alignment(segments, 44100, tmp_path / "a.json")
    with pytest.warns(UserWarning) as record:
        code, out = run_cli("tdoa", tmp_path / "r.wav", tmp_path / "a.json")
    assert code == 0
    assert len(out.splitlines()) == 1 + len(segments)
    assert [str(w.message)[:26] for w in record] == ["sample rate 44100 Hz is ac"]
    assert record[0].filename == cli.__file__


def test_measure_trial_holds_one_segment_at_a_time(tmp_path, source_model, monkeypatch):
    # a 44-phoneme, 192 kHz, 24-bit trial is about 8 MB of PCM and 22 MB
    # decoded; enrolling from it in one process holds one segment's samples
    utt = synthesize_live(sorted(source_model.labels), source_model, REFERENCE_POSE, 192000, 9)
    write_wav(utt.recording, tmp_path / "r.wav", bit_depth=24)
    save_alignment(utt.segments, 192000, tmp_path / "a.json")
    spec = f"{tmp_path}/r.wav:{tmp_path}/a.json"
    del utt
    forks = _count_forks(monkeypatch, cpus=1)
    tracemalloc.start()
    try:
        code, out = run_cli(
            "enroll", "--out", tmp_path / "p.json", "--user", "u",
            "--mode", "text_independent", *["--trial", spec] * 3,
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, forks) == (0, [])
    assert json.loads(out)["n_phoneme_templates"] == 44
    assert peak <= 4 << 20


def _count_forks(monkeypatch, cpus, segments_per_worker=1):
    """Let this process see `cpus` CPUs and let enroll fork a worker for
    every `segments_per_worker` segments; return a list that gains one
    entry per fork."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(profiles, "SEGMENTS_PER_WORKER", segments_per_worker)
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def _count_shares(monkeypatch):
    """Return a list that gains, per fork_map call of enroll, its
    `workers` and `here` arguments."""
    shares = []
    real_fork_map = profiles.fork_map

    def fork_map(fn, jobs, workers=None, here=False):
        shares.append((workers, here))
        return real_fork_map(fn, jobs, workers, here)

    monkeypatch.setattr(profiles, "fork_map", fork_map)
    return shares


def _assert_no_worker_left():
    # waitpid raises once this process has no child, running or exited
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)

def _trial_flags(*specs):
    return [arg for spec in specs for arg in ("--trial", spec)]


def _td_trials(pipeline):
    tmp = pipeline[0]
    return [f"{tmp}/t{s}/recording.wav:{tmp}/t{s}/alignment.json" for s in (1, 2, 3)]


@pytest.fixture(scope="module")
def ti_trials(tmp_path_factory, source_model):
    """Three simulated trials, each speaking the whole inventory."""
    tmp = tmp_path_factory.mktemp("ti")
    trials = []
    for seed in (11, 12, 13):
        scene = _scene(tmp, f"ti{seed}.json", labels=sorted(source_model.labels), seed=seed)
        out = tmp / f"ti{seed}"
        assert run_cli("simulate", scene, out)[0] == 0
        trials.append(f"{out}/recording.wav:{out}/alignment.json")
    return trials


@pytest.mark.parametrize("mode", ["text_dependent", "text_independent"])
def test_enroll_independent_of_worker_count(pipeline, ti_trials, tmp_path, mode, monkeypatch):
    # enroll measures in one process per CPU here: this one and forked
    # workers, each drawing segments from one ticket pipe
    trials = _td_trials(pipeline) if mode == "text_dependent" else ti_trials
    profile = tmp_path / "p.json"
    outputs = []
    # at 5 processes the tickets are contended: a ticket lost or drawn
    # twice changes the profile
    for cpus in (1, 2, 5):
        forks = _count_forks(monkeypatch, cpus)
        shares = _count_shares(monkeypatch)
        code, out = run_cli(
            "enroll", "--out", profile, "--user", "u", "--mode", mode, *_trial_flags(*trials),
        )
        _assert_no_worker_left()
        assert (shares, len(forks)) == ([(cpus, True)], cpus - 1)
        outputs.append((code, out, profile.read_bytes()))
    assert outputs[0][0] == 0
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize(
    "mode, cpus, processes",
    [("text_dependent", 2, 2), ("text_independent", 2, 2), ("text_independent", 64, 13)],
)
def test_enroll_worker_count_follows_segment_count(pipeline, ti_trials, tmp_path, mode, cpus,
                                                   processes, monkeypatch):
    # 3 trials of 8 segments (24) and of 44 (132) are measured in
    # min(CPUs, segments // 10) processes, all but this one forked
    trials = _td_trials(pipeline) if mode == "text_dependent" else ti_trials
    forks = _count_forks(monkeypatch, cpus, segments_per_worker=profiles.SEGMENTS_PER_WORKER)
    counted = _count_shares(monkeypatch)
    code, _ = run_cli(
        "enroll", "--out", tmp_path / "p.json", "--user", "u", "--mode", mode,
        *_trial_flags(*trials),
    )
    assert (code, counted, len(forks)) == (0, [(processes, True)], processes - 1)
    _assert_no_worker_left()


def test_cli_parses_no_file_format():
    # every input file is parsed in its own module (scenes in simulator,
    # experiment configs in evaluation, profiles, alignments): the CLI
    # binds none of the JSON field readers
    readers = {"json_int", "json_real", "json_str", "json_list", "json_pair", "FIELD_ERRORS"}
    assert readers & set(vars(cli)) == set()


def _at_rate(spec, rate, out):
    """A copy of trial `spec` whose WAV header and alignment declare `rate`."""
    wav_path, align_path = spec.rsplit(":", 1)
    out.mkdir()
    with wave.open(wav_path) as src, wave.open(str(out / "recording.wav"), "wb") as dst:
        dst.setparams(src.getparams()._replace(framerate=rate))
        dst.writeframes(src.readframes(src.getnframes()))
    doc = json.loads(Path(align_path).read_text())
    (out / "alignment.json").write_text(json.dumps({**doc, "sample_rate": rate}))
    return f"{out}/recording.wav:{out}/alignment.json"


def test_enroll_refuses_a_rate_above_the_maximum(pipeline, tmp_path, capsys):
    # verify refuses a profile enrolled above MAX_SAMPLE_RATE, so enroll
    # refuses the trials' headers and writes no profile
    trials = [_at_rate(spec, 400_000, tmp_path / f"t{i}")
              for i, spec in enumerate(_td_trials(pipeline))]
    profile = tmp_path / "p.json"
    code, out = run_cli("enroll", "--out", profile, "--user", "u", *_trial_flags(*trials))
    assert (code, out) == (2, "")
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"] == "FormatError"
    assert "sample rate 400000 above 384000 Hz maximum" in error["message"]
    assert not profile.exists()


def test_enroll_loads_no_pool_modules(ti_trials, tmp_path):
    # the workers are bare forks: enroll imports neither multiprocessing
    # nor concurrent.futures, even when it forks (2 processes, 1 fork here)
    argv = ["enroll", "--out", str(tmp_path / "p.json"), "--user", "u",
            "--mode", "text_independent", *_trial_flags(*ti_trials)]
    proc = _run_python("-c", (
        "import os, sys; os.sched_getaffinity = lambda pid: {0, 1}; "
        "import phonotdoa.cli as cli; "
        "forks = []; fork = os.fork; os.fork = lambda: forks.append(1) or fork(); "
        f"assert cli.main({argv!r}) == 0 and len(forks) == 1; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in "
        "('multiprocessing', 'concurrent')))"
    ))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"


@pytest.mark.parametrize("case", ["wav_header", "alignment_version"])
def test_enroll_malformed_trial_fails_before_any_fork(pipeline, tmp_path, case, monkeypatch, capsys):
    # every trial is opened and its alignment loaded, in trial order,
    # before any worker starts
    t1, t2, t3 = _td_trials(pipeline)
    wav, alignment = t2.rsplit(":", 1)
    if case == "wav_header":
        wav = tmp_path / "bad.wav"
        wav.write_bytes(b"not a wav file at all")
        expected = {
            "error": "FormatError",
            "message": f"{wav}: not a readable WAV file: Error('file does not start with RIFF id')",
        }
    else:
        doc = json.loads(Path(alignment).read_text())
        alignment = tmp_path / "bad.json"
        alignment.write_text(json.dumps({**doc, "version": 2}))
        expected = {
            "error": "SchemaError",
            "message": f"{alignment}: expected alignment schema version 1, got 2",
        }
    forks = _count_forks(monkeypatch, cpus=2)
    code, out = run_cli(
        "enroll", "--out", tmp_path / "p.json", "--user", "u",
        *_trial_flags(t1, f"{wav}:{alignment}", t3),
    )
    assert (code, out) == (2, "")
    assert json.loads(capsys.readouterr().err) == expected
    assert forks == []
    _assert_no_worker_left()
    assert not (tmp_path / "p.json").exists()


def _cut_trials(pipeline, tmp_path, n):
    """The three text-dependent trials, each aligned to its first n
    segments only."""
    trials = []
    for k, trial in enumerate(_td_trials(pipeline)):
        wav, alignment = trial.rsplit(":", 1)
        doc = json.loads(Path(alignment).read_text())
        doc["segments"] = sorted(doc["segments"], key=lambda s: s["start"])[:n]
        (tmp_path / f"cut{k}.json").write_text(json.dumps(doc))
        trials.append(f"{wav}:{tmp_path / f'cut{k}.json'}")
    return trials


@pytest.mark.parametrize(
    "case",
    ["two_trials", "labels_differ", "rates_differ", "ti_two_trials", "two_phonemes", "no_phonemes"],
)
def test_enroll_refuses_a_bad_trial_set_before_measuring(pipeline, ti_trials, tmp_path, case,
                                                         monkeypatch, capsys):
    t1, t2, _ = _td_trials(pipeline)
    mode, trials = "text_dependent", [t1, t2]
    if case == "two_trials":
        expected = "need at least 3 trials, got 2"
    elif case in ("two_phonemes", "no_phonemes"):
        # verify refuses a passphrase this short, so enroll writes none
        n = 2 if case == "two_phonemes" else 0
        trials = _cut_trials(pipeline, tmp_path, n)
        expected = f"need at least 3 phonemes, got {n}"
    elif case == "ti_two_trials":
        mode, trials = "text_independent", ti_trials[:2]
        short = ", ".join(sorted(INVENTORY.symbols))
        expected = f"phonemes with fewer than 3 samples: {short}"
    else:
        other = {"labels_differ": {"labels": LABELS[::-1]}, "rates_differ": {"sample_rate": 96000}}
        out = tmp_path / "t3"
        assert run_cli("simulate", _scene(tmp_path, seed=3, **other[case]), out)[0] == 0
        trials.append(f"{out}/recording.wav:{out}/alignment.json")
        expected = {
            "labels_differ": f"trial labels {tuple(LABELS[::-1])} != {tuple(LABELS)}",
            "rates_differ": "trials differ in sample rate",
        }[case]
    forks = _count_forks(monkeypatch, cpus=2)
    estimates = []
    monkeypatch.setattr(profiles, "estimate_tdoa", lambda *a, **k: estimates.append(1))
    code, out = run_cli(
        "enroll", "--out", tmp_path / "p.json", "--user", "u", "--mode", mode,
        *_trial_flags(*trials),
    )
    assert (code, out) == (2, "")
    assert json.loads(capsys.readouterr().err) == {"error": "SchemaError", "message": expected}
    assert (forks, estimates) == ([], [])
    _assert_no_worker_left()
    assert not (tmp_path / "p.json").exists()


@pytest.mark.parametrize("mode", ["text_dependent", "text_independent"])
def test_enroll_wrappers_save_the_cli_profile(pipeline, ti_trials, tmp_path, mode):
    # the library adapters and the CLI enroll through profiles.enroll
    specs = _td_trials(pipeline) if mode == "text_dependent" else ti_trials
    trials = []
    for spec in specs:
        wav, alignment = spec.rsplit(":", 1)
        recording = load_wav(wav)
        trials.append((recording, load_alignment(alignment, recording)))
    if mode == "text_dependent":
        profile = profiles.enroll_text_dependent(
            "u", "passphrase0", trials, REFERENCE_POSE, DeviceSpec(REFERENCE_POSE.l),
        )
    else:
        samples = {}
        for recording, segments in trials:
            for segment in segments:
                samples.setdefault(segment.label, []).append((recording, segment))
        profile = profiles.enroll_text_independent(
            "u", samples, REFERENCE_POSE, DeviceSpec(REFERENCE_POSE.l),
        )
    profiles.save_profile(profile, tmp_path / "library.json")
    code, _ = run_cli(
        "enroll", "--out", tmp_path / "cli.json", "--user", "u", "--mode", mode,
        *_trial_flags(*specs),
    )
    assert code == 0
    assert (tmp_path / "library.json").read_bytes() == (tmp_path / "cli.json").read_bytes()


def test_enroll_worker_error_surfaces_with_its_class(pipeline, tmp_path, monkeypatch, capsys):
    # the last segment of the last trial is silent: whichever process
    # draws it, its error reaches stderr as the serial one would
    t1, t2, t3 = _td_trials(pipeline)
    wav, alignment = t3.rsplit(":", 1)
    rec = load_wav(wav)
    last = max(json.loads(Path(alignment).read_text())["segments"], key=lambda s: s["start"])
    top, bottom = rec.top.copy(), rec.bottom.copy()
    top[last["start"]:last["end"]] = bottom[last["start"]:last["end"]] = 0.0
    write_wav(StereoRecording(rec.sample_rate, top, bottom), tmp_path / "s.wav", bit_depth=24)
    forks = _count_forks(monkeypatch, cpus=2)
    shares = _count_shares(monkeypatch)
    code, out = run_cli(
        "enroll", "--out", tmp_path / "p.json", "--user", "u",
        *_trial_flags(t1, t2, f"{tmp_path / 's.wav'}:{alignment}"),
    )
    assert (code, out) == (2, "")
    assert json.loads(capsys.readouterr().err) == {
        "error": "DegenerateSignalError", "message": "zero-variance correlation window",
    }
    assert (shares, len(forks)) == ([(2, True)], 1)
    _assert_no_worker_left()
    assert not (tmp_path / "p.json").exists()


def _failing_trials(pipeline, tmp_path):
    """The three text-dependent trials with two segments that fail in
    different ways: trial 1's sixth segment cut to 100 samples, and
    trial 3's second segment silent."""
    t1, t2, t3 = _td_trials(pipeline)
    wav1, alignment1 = t1.rsplit(":", 1)
    doc = json.loads(Path(alignment1).read_text())
    short = sorted(doc["segments"], key=lambda s: s["start"])[5]
    short["end"] = short["start"] + 100
    (tmp_path / "short.json").write_text(json.dumps(doc))
    wav3, alignment3 = t3.rsplit(":", 1)
    rec = load_wav(wav3)
    silent = sorted(json.loads(Path(alignment3).read_text())["segments"], key=lambda s: s["start"])[1]
    top, bottom = rec.top.copy(), rec.bottom.copy()
    top[silent["start"]:silent["end"]] = bottom[silent["start"]:silent["end"]] = 0.0
    write_wav(StereoRecording(rec.sample_rate, top, bottom), tmp_path / "s.wav", bit_depth=24)
    return [f"{wav1}:{tmp_path / 'short.json'}", t2, f"{tmp_path / 's.wav'}:{alignment3}"]


def test_enroll_reports_the_same_error_at_any_worker_count(pipeline, tmp_path, monkeypatch,
                                                           capsys):
    # the lowest-indexed failing segment is the one a single process
    # stops at, whichever process drew the other one
    trials = _failing_trials(pipeline, tmp_path)
    estimates = []
    estimate = profiles.estimate_tdoa

    def counted(*args, **kwargs):
        estimates.append(1)
        return estimate(*args, **kwargs)

    monkeypatch.setattr(profiles, "estimate_tdoa", counted)
    for cpus in (1, 2):
        forks = _count_forks(monkeypatch, cpus)
        code, out = run_cli(
            "enroll", "--out", tmp_path / "p.json", "--user", "u", *_trial_flags(*trials),
        )
        assert (code, out, len(forks)) == (2, "", cpus - 1)
        if cpus == 1:
            # one process measures no segment after the sixth fails
            assert len(estimates) == 6
        assert json.loads(capsys.readouterr().err) == {
            "error": "DegenerateSignalError",
            "message": "segment length 100 < 186 samples needed for max_lag 93",
        }
        _assert_no_worker_left()
        assert not (tmp_path / "p.json").exists()


@pytest.mark.parametrize("max_tickets, run", [(1, 24), (5, 5), (23, 2)])
def test_enroll_ticket_runs_keep_the_profile(pipeline, tmp_path, max_tickets, run, monkeypatch):
    # above tdoa.MAX_TICKETS jobs a ticket names a run of consecutive
    # segments; the profile is the one a single process enrolls
    trials = _td_trials(pipeline)
    runs = []
    draw = tdoa._draw

    def counted(fn, jobs, tickets, run):
        runs.append(run)
        return draw(fn, jobs, tickets, run)

    monkeypatch.setattr(tdoa, "_draw", counted)
    profiles = []
    for cpus, cap in ((1, tdoa.MAX_TICKETS), (2, max_tickets)):
        forks = _count_forks(monkeypatch, cpus)
        monkeypatch.setattr(tdoa, "MAX_TICKETS", cap)
        profile = tmp_path / f"p{cpus}.json"
        code, _ = run_cli("enroll", "--out", profile, "--user", "u", *_trial_flags(*trials))
        assert (code, len(forks)) == (0, cpus - 1)
        _assert_no_worker_left()
        profiles.append(profile.read_bytes())
    # one process measures without tickets; of the two, this one records
    # its run here and the forked worker in its own copy of the list
    assert runs == [run]
    assert profiles[0] == profiles[1]


@pytest.mark.parametrize("fails", [False, True])
def test_enroll_leaves_no_descriptor_or_worker(pipeline, tmp_path, fails, monkeypatch):
    trials = _failing_trials(pipeline, tmp_path) if fails else _td_trials(pipeline)
    forks = _count_forks(monkeypatch, cpus=2)
    before = sorted(os.listdir("/proc/self/fd"))
    code, _ = run_cli("enroll", "--out", tmp_path / "p.json", "--user", "u", *_trial_flags(*trials))
    assert (code, len(forks)) == (2 if fails else 0, 1)
    assert sorted(os.listdir("/proc/self/fd")) == before
    _assert_no_worker_left()


def test_enroll_warns_about_an_unusual_rate_once_per_trial(tmp_path, monkeypatch):
    # _open_trial warns as it opens each file; every process measures
    # through those readers without reopening a file
    trials = []
    for seed in (1, 2, 3):
        out = tmp_path / f"t{seed}"
        with pytest.warns(UserWarning, match="sample rate 44100 Hz"):
            scene = _scene(tmp_path, f"s{seed}.json", seed=seed, sample_rate=44100)
            assert run_cli("simulate", scene, out)[0] == 0
        trials.append(f"{out}/recording.wav:{out}/alignment.json")
    shown = tmp_path / "warnings.txt"

    def show(message, category, filename, lineno, file=None, line=None):
        # forked workers inherit this hook, so their warnings land here too
        with open(shown, "a") as f:
            f.write(f"{os.getpid()} {filename} {str(message)[:26]}\n")

    forks = _count_forks(monkeypatch, cpus=2)
    shares = _count_shares(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = show
        code, _ = run_cli("enroll", "--out", tmp_path / "p.json", "--user", "u", *_trial_flags(*trials))
    assert (code, shares, len(forks)) == (0, [(2, True)], 1)
    _assert_no_worker_left()
    line = f"{os.getpid()} {cli.__file__} sample rate 44100 Hz is ac"
    assert shown.read_text().splitlines() == [line] * 3


def test_verify_unknown_passphrase_id_is_typed_error(pipeline, capsys):
    _, profile, live_dir, _ = pipeline
    code, out = run_cli(
        "verify", live_dir / "recording.wav", live_dir / "alignment.json",
        "--profile", profile, "--passphrase-id", "absent",
    )
    assert (code, out) == (2, "")
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "SchemaError", "message": "profile has no passphrase 'absent'"}


@pytest.mark.parametrize("scene", [
    {"kind": "live", "labels": ["AA", "S", "K"], "pose": {"x": 0.03}},
    {"kind": "beep"},
    {"kind": "static_playback", "labels": ["AA", "S", "K"], "source_offset": [1]},
    {"kind": "live", "labels": ["AA", "S", "K"], "sample_rate": "abc"},
    {"kind": "live", "labels": ["AA", "S", "K"], "seed": -1},
    {"kind": "live", "labels": ["AA", "S", "K"], "noise_snr_db": -10000},
    {"kind": "static_playback", "labels": ["AA", "S", "K"], "noise_snr_db": -10000},
    {"kind": "live", "labels": ["AA", "S", "K"], "sample_rate": 0},
    {"kind": "live", "labels": ["AA", "S", "K"], "sample_rate": -192000},
    {"kind": "live", "labels": ["AA", "S", "K"], "sample_rate": 1000},
    {"kind": "live", "labels": ["AA", "S", "K"], "sample_rate": 384001},
    {"kind": "beep", "face_distance_m": 0.1, "sample_rate": 0},
    {"kind": "beep", "face_distance_m": 0.1, "sample_rate": 384001},
    # integer fields must be JSON integers, not parsed or truncated
    {"kind": "live", "labels": ["AA", "S", "K"], "sample_rate": "192000"},
    {"kind": "live", "labels": ["AA", "S", "K"], "sample_rate": 192000.9},
    {"kind": "live", "labels": ["AA", "S", "K"], "seed": True},
    {"kind": "live", "labels": ["AA", "S", "K"], "seed": "5"},
    {"kind": "live", "labels": ["AA", "S", "K"], "echo": [96.9, 0.3]},
    # real-valued fields must be JSON numbers, not parsed strings or booleans
    {"kind": "live", "labels": ["AA", "S", "K"], "noise_snr_db": "30", "jitter_scale": True},
    {"kind": "live", "labels": ["AA", "S", "K"], "noise_snr_db": "30"},
    {"kind": "live", "labels": ["AA", "S", "K"], "jitter_scale": True},
    {"kind": "live", "labels": ["AA", "S", "K"], "echo": [96, "0.3"]},
    {"kind": "beep", "face_distance_m": "0.1"},
    {"kind": "static_playback", "labels": ["AA", "S", "K"], "noise_snr_db": False},
    {"kind": "replace", "labels": ["AA", "S", "K"], "recorder_distance_m": "0.3"},
    {"kind": "static_playback", "labels": ["AA", "S", "K"], "source_offset": ["0.01", True],
     "sample_rate": 48000},
    {"kind": "mobile_playback", "labels": ["AA", "S", "K"],
     "trajectory": [["0.01", "0.0"], [0.02, False]]},
    {"kind": "live", "labels": ["AA", "S", "K"],
     "pose": {"x": True, "l1": 0.14, "l2": 0.01, "l": 0.15}},
    # labels must be a non-empty list of strings
    {"kind": "live", "labels": 5},
    {"kind": "live", "labels": [["AA"]]},
    {"kind": "static_playback", "labels": "AA"},
    # echo is exactly [lag >= 1, amplitude]; jitter_scale is >= 0
    {"kind": "live", "labels": ["AA", "S", "K"], "echo": [-5, 0.3]},
    {"kind": "live", "labels": ["AA", "S", "K"], "echo": [0, 0.3]},
    {"kind": "live", "labels": ["AA", "S", "K"], "echo": [5, 0.3, 9]},
    {"kind": "live", "labels": ["AA", "S", "K"], "jitter_scale": -1},
    # a field the kind does not read, such as a misspelt one, is refused:
    # this scene once rendered at the default 30 dB
    {"kind": "live", "labels": ["AA"], "noise_snr": 5},
    {"kind": "static_playback", "labels": ["AA"], "recorder_distance_m": 0.3},
], ids=[
    "pose_missing_fields", "beep_no_distance", "offset_one_value", "rate_text",
    "seed_negative", "snr_very_negative", "attack_snr_very_negative",
    "rate_zero", "rate_negative", "rate_below_minimum", "rate_above_maximum",
    "beep_rate_zero", "beep_rate_above_maximum",
    "rate_numeric_text", "rate_fraction", "seed_bool", "seed_text", "echo_lag_fraction",
    "snr_text_jitter_bool", "snr_text", "jitter_bool", "echo_amp_text",
    "beep_distance_text", "attack_snr_bool", "recorder_distance_text",
    "offset_text_bool", "trajectory_text_bool", "pose_bool",
    "labels_number", "labels_nested", "labels_string",
    "echo_lag_negative", "echo_lag_zero", "echo_three_values", "jitter_negative",
    "misspelt_key", "key_of_another_kind",
])
def test_simulate_malformed_scene_is_typed_error(tmp_path, scene, capsys):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    code, out = run_cli("simulate", path, tmp_path / "out")
    assert (code, out) == (2, "")
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
    # the SNR and rate cases parse and are refused by the renderer: still
    # no output left
    assert not (tmp_path / "out").exists()


def test_simulate_unknown_label_is_schema_error(tmp_path, capsys):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({"kind": "live", "labels": ["AA", "QQ"]}))
    assert run_cli("simulate", path, tmp_path / "out") == (2, "")
    assert json.loads(capsys.readouterr().err)["error"] == "SchemaError"
    assert not (tmp_path / "out").exists()


def test_simulate_negative_seed_flag_is_typed_error(tmp_path, capsys):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({"kind": "live", "labels": ["AA", "S", "K"]}))
    code, out = run_cli("simulate", path, tmp_path / "out", "--seed", "-1")
    assert (code, out) == (2, "")
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
    assert not (tmp_path / "out").exists()


SEED_DOCS = {
    "simulate": {"kind": "live", "labels": LABELS},
    "evaluate": {
        "users": 1, "passphrases_per_user": 1, "live_trials": 2,
        "static_attacks": 1, "mobile_attacks": 1, "length_bands": [[2, 2]],
        "band_weights": [1.0], "duration_range": [0.06, 0.08],
    },
}


@pytest.mark.parametrize("command", sorted(SEED_DOCS))
def test_file_seed_wins_and_seed_flag_fills_a_missing_one(tmp_path, command):
    def run(name, *flags, **fields):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**SEED_DOCS[command], **fields}))
        out = tmp_path / name
        assert run_cli(command, path, out, *flags)[0] == 0
        return {f.name: f.read_bytes() for f in sorted(out.iterdir())}

    seed5, seed9 = run("seed5", seed=5), run("seed9", seed=9)
    assert run("seed5_flag9", "--seed", "9", seed=5) == seed5 != seed9
    assert run("unseeded_flag9", "--seed", "9") == seed9 != run("unseeded")


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


def test_verify_refuses_the_weighted_method(capsys):
    # every profile scores with the plain correlation: argparse refuses
    # the method before any file is opened
    with pytest.raises(SystemExit) as exc:
        main(["verify", "r.wav", "a.json", "--profile", "p.json", "--method", "weighted"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --method: invalid choice: 'weighted'" in captured.err


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


def test_simulate_beep_scene(tmp_path):
    scene = tmp_path / "beep.json"
    scene.write_text(json.dumps({"kind": "beep", "face_distance_m": 0.10, "seed": 4}))
    code, out = run_cli("simulate", scene, tmp_path / "beep_out")
    assert code == 0
    truth = json.loads((tmp_path / "beep_out" / "ground_truth.json").read_text())
    assert truth["echo_delay_samples"] == pytest.approx(112.94, abs=0.01)


def test_verify_with_beep_distance(pipeline, tmp_path):
    # checks only that a decision is emitted from a beep-estimated
    # distance: the 0.10 m beep is not the enrollment pose's x = 0.03, and
    # the range at that pose is wrong (ROADMAP item 3)
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
    ({"device": {"mic_spacing_m": "0.15"}}, []),
    # every utterance renders on the reference handset, so no device is settable
    ({"device": {"mic_spacing_m": 0.141}}, []),
], ids=[
    "rate_text", "band_one_value", "users_fraction", "seed_negative",
    "seed_flag_negative", "snr_very_negative", "device_spacing_text", "device_key",
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


def test_enroll_text_independent_via_cli(tmp_path, ti_trials):
    # three long utterances covering the inventory
    profile = tmp_path / "ti.json"
    args = ["enroll", "--out", profile, "--user", "u2", "--mode", "text_independent"]
    code, out = run_cli(*args, *_trial_flags(*ti_trials))
    assert code == 0
    assert json.loads(out)["n_phoneme_templates"] == 44
