"""Command-line interface: simulate, enroll, verify, evaluate, tdoa, pose.

Machine-readable results go to stdout (JSON, or CSV for `tdoa`); logs
go to stderr. Exit codes: 0 = success (for `verify`: LIVE), 1 = REPLAY
verdict, 2 = error. All randomness flows from one seed: a scene's or
experiment's own "seed" field, or --seed when the file has none. So
identical invocations produce byte-identical stdout.

Each setting has one source: `enroll` records geometry.REFERENCE_POSE
on the --device-spacing-m handset and `pose` solves at it; `verify`
scores with --method and --threshold over the defaults in `config`,
measures on the profile's handset unless --device-spacing-m names one,
and takes its distance from --distance-m or --beep-echo, never both.
`verify` loads, measures and ranges here and leaves the rest to
UserProfile.score, the path run_experiment scores through too.

`simulate` loads simulator and sourcemodel, and `evaluate` evaluation,
when they run; no other command loads these modules.

No file format is parsed here. Scene files load in
simulator.load_scene, experiment configs in ExperimentConfig.from_dict,
profiles in profiles.load_profile, alignments in
segmentation.load_alignment and WAV files in audio_io.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import logging
import math
import sys
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .audio_io import WavReader, check_sample_rate, load_wav, read_json, write_json, write_wav
from .config import load_config
from .errors import ConfigError, NoSolutionError, PhonotdoaError
from .geometry import (
    REFERENCE_POSE,
    SPEED_OF_SOUND,
    estimate_face_distance,
    make_beep,
    solve_source_distance,
    transform_tdoa,
)
from .profiles import ProfileMode, enroll, load_profile, save_profile
from .scoring import ScoringMethod, Verdict, decide
from .segmentation import load_alignment, save_alignment
from .tdoa import DeviceSpec, Method, measure_dynamic

log = logging.getLogger("phonotdoa")


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _device_from_args(args, spacing: float = REFERENCE_POSE.l) -> DeviceSpec:
    """The handset of --device-spacing-m, or of `spacing` without the flag."""
    return DeviceSpec(spacing if args.device_spacing_m is None else args.device_spacing_m)


# --- simulate ---

def cmd_simulate(args) -> int:
    # imported here: only simulate renders, so no other command loads these
    from .simulator import load_scene, synthesize_attack, synthesize_beep_scene, synthesize_live
    from .sourcemodel import load_source_model
    scene = load_scene(args.scene, args.seed)
    fs = scene.sample_rate
    out = Path(args.out)
    truth = {"version": 1, "kind": scene.kind, "sample_rate": fs}
    summary = {"out": str(out), "kind": scene.kind, "files": ["recording.wav", "ground_truth.json"]}
    if scene.kind == "beep":
        recording = synthesize_beep_scene(scene.face_distance_m, fs, scene.seed)
        truth["face_distance_m"] = scene.face_distance_m
        truth["echo_delay_samples"] = 2.0 * scene.face_distance_m / SPEED_OF_SOUND * fs
    else:
        model = load_source_model()
        if scene.kind == "live":
            utt = synthesize_live(
                scene.labels, model, scene.pose, fs, scene.seed, scene.noise_snr_db,
                echo=scene.echo, jitter_scale=scene.jitter_scale,
            )
        else:
            utt = synthesize_attack(
                scene.labels, model, scene.pose, scene.scenario, fs, scene.seed,
                scene.noise_snr_db,
            )
        recording = utt.recording
        truth["phonemes"] = [asdict(g) for g in utt.ground_truth]
        summary["n_phonemes"] = len(utt.segments)
        summary["files"].insert(1, "alignment.json")

    # only a successful render leaves an output directory behind
    out.mkdir(parents=True, exist_ok=True)
    write_wav(recording, out / "recording.wav", bit_depth=24)
    if scene.kind != "beep":
        save_alignment(utt.segments, fs, out / "alignment.json")
    write_json(out / "ground_truth.json", truth)
    _emit(summary)
    return 0


# --- enroll ---

def _open_trial(spec: str, files: contextlib.ExitStack) -> tuple:
    """(open WavReader, segments) of one trial, the reader closed with
    `files`. The WAV header and the alignment are checked here, in trial
    order, before any segment is measured."""
    try:
        wav_path, align_path = spec.rsplit(":", 1)
    except ValueError:
        raise ConfigError(
            f"trial {spec!r} must be recording.wav:alignment.json"
        ) from None
    recording = files.enter_context(WavReader(wav_path))
    return recording, load_alignment(align_path, recording)


def cmd_enroll(args) -> int:
    pose = REFERENCE_POSE.with_spacing(_device_from_args(args).mic_spacing_m)
    with contextlib.ExitStack() as files:
        trials = [_open_trial(spec, files) for spec in args.trial]
        profile = enroll(args.user, ProfileMode(args.mode), trials, pose, args.passphrase_id)
    save_profile(profile, args.out)
    _emit(
        {
            "profile": str(args.out),
            "user_id": profile.user_id,
            "mode": profile.mode.value,
            "passphrases": sorted(profile.passphrase_templates),
            "n_phoneme_templates": len(profile.phoneme_templates),
        }
    )
    return 0


# --- verify ---

def cmd_verify(args) -> int:
    method, threshold = load_config(args.method, args.threshold)
    log.info("effective config: %s", json.dumps(
        {"scoring": {"method": method.value, "threshold": threshold}}, sort_keys=True))
    profile = load_profile(args.profile)
    # pose release: the templates move to the verification pose, which
    # DevicePose refuses before anything is measured (x <= 0, a flat tilt)
    enrolled = profile.enrollment_pose
    x = args.distance_m
    if args.beep_echo is not None:
        echo_rec = load_wav(args.beep_echo)
        x = estimate_face_distance(echo_rec, make_beep(echo_rec.sample_rate))
        log.info("beep-echo distance estimate: %.4f m", x)
    pose = enrolled.with_(x=enrolled.x if x is None else x,
                          alpha=math.radians(args.angle_deg or 0.0))
    with WavReader(args.recording) as recording:
        segments = load_alignment(args.alignment, recording)
        dynamic = measure_dynamic(recording, segments, device=_device_from_args(args, enrolled.l))
    sim = profile.score(dynamic, args.passphrase_id, pose.alpha, pose.x - enrolled.x)
    decision = decide(sim, threshold, method)
    _emit(decision.to_json_dict())
    return 0 if decision.verdict == Verdict.LIVE else 1


# --- evaluate ---

def cmd_evaluate(args) -> int:
    # imported here: only evaluate runs experiments, so no other command loads it
    from .evaluation import ExperimentConfig, run_experiment, write_report
    doc = read_json(args.experiment, ConfigError)
    if args.seed is not None and "seed" not in doc:
        doc["seed"] = args.seed
    config = ExperimentConfig.from_dict(doc)
    report = run_experiment(config)
    write_report(report, args.out)
    summary = {
        "out": str(args.out),
        "methods": {
            name: block.get("overall")
            for name, block in report["methods"].items()
        },
    }
    _emit(summary)
    return 0


# --- tdoa ---

def cmd_tdoa(args) -> int:
    with WavReader(args.recording) as recording:
        segments = load_alignment(args.alignment, recording)
        dynamic = measure_dynamic(
            recording, segments, method=Method(args.method), device=_device_from_args(args)
        )
    print("label,start,end,delay_samples,peak_value,method")
    for seg, m in zip(segments, dynamic.measurements):
        print(
            f"{m.label},{seg.start},{seg.end},{m.delay_samples:.0f},"
            f"{m.peak_value:.6f},{m.method.value}"
        )
    return 0


# --- pose ---

def cmd_pose(args) -> int:
    check_sample_rate(args.sample_rate)
    transform = args.angle_deg is not None or args.delta_x_m is not None
    try:
        x = solve_source_distance(args.tdoa, REFERENCE_POSE.l1, REFERENCE_POSE.l2, args.sample_rate)
    except NoSolutionError:
        # the transform still moves a delay that only the vertical line fits
        if not transform:
            raise
        x = None
    result = {"tdoa1": args.tdoa, "sample_rate": args.sample_rate, "x_solved": x}
    if transform:
        result["tdoa2"] = transform_tdoa(
            args.tdoa,
            REFERENCE_POSE,
            alpha=math.radians(args.angle_deg or 0.0),
            delta_x=args.delta_x_m or 0.0,
            sample_rate=args.sample_rate,
        )
    _emit(result)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process (parse_args keeps no state)."""
    parser = argparse.ArgumentParser(
        prog="phonotdoa",
        description="Per-phoneme TDoA liveness detection toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="render a scene file to WAV + JSON")
    p.add_argument("scene", help="scene description JSON")
    p.add_argument("out", help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(run=cmd_simulate)

    p = sub.add_parser("enroll", help="build a user profile from trials")
    p.add_argument("--out", required=True, help="profile JSON path")
    p.add_argument("--user", required=True)
    p.add_argument("--passphrase-id", default="passphrase0")
    p.add_argument("--mode", choices=["text_dependent", "text_independent"],
                   default="text_dependent")
    p.add_argument("--trial", action="append", required=True,
                   metavar="WAV:ALIGNMENT", help="repeatable, >= 3 times")
    p.add_argument("--device-spacing-m", type=float, default=None)
    p.set_defaults(run=cmd_enroll)

    p = sub.add_parser("verify", help="live/replay decision for a recording")
    p.add_argument("recording", help="two-channel WAV")
    p.add_argument("alignment", help="alignment JSON")
    p.add_argument("--profile", required=True)
    p.add_argument("--passphrase-id", default=None)
    p.add_argument("--method",
                   choices=[m.value for m in ScoringMethod], default=None)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--angle-deg", type=float, default=None,
                   help="handset tilt at verification time")
    distance = p.add_mutually_exclusive_group()
    distance.add_argument("--distance-m", type=float, default=None,
                          help="mouth-to-handset distance at verification time")
    distance.add_argument("--beep-echo", default=None,
                          help="beep-echo WAV to estimate the distance from")
    p.add_argument("--device-spacing-m", type=float, default=None)
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("evaluate", help="run a simulated experiment config")
    p.add_argument("experiment", help="experiment config JSON")
    p.add_argument("out", help="report output directory")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(run=cmd_evaluate)

    p = sub.add_parser("tdoa", help="per-phoneme delays as CSV")
    p.add_argument("recording")
    p.add_argument("alignment")
    p.add_argument("--method", choices=[m.value for m in Method], default="gcc_phat")
    p.add_argument("--device-spacing-m", type=float, default=None)
    p.set_defaults(run=cmd_tdoa)

    p = sub.add_parser("pose", help="solve source distance / transform a delay")
    p.add_argument("--tdoa", type=float, required=True)
    p.add_argument("--sample-rate", type=int, default=192000)
    p.add_argument("--angle-deg", type=float, default=None)
    p.add_argument("--delta-x-m", type=float, default=None)
    p.set_defaults(run=cmd_pose)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s"
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (PhonotdoaError, OSError) as exc:
        print(
            json.dumps(
                {"error": type(exc).__name__, "message": str(exc)},
                sort_keys=True,
            ),
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
