"""Command-line interface: simulate, enroll, verify, evaluate, tdoa, pose.

Machine-readable results go to stdout (JSON, or CSV for `tdoa`); logs
go to stderr. Exit codes: 0 = success (for `verify`: LIVE), 1 = REPLAY
verdict, 2 = error. All randomness flows from --seed, so identical
invocations produce byte-identical stdout.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import sys
from pathlib import Path

from . import __version__
from .audio_io import FIELD_ERRORS, load_wav, read_json, write_json, write_wav
from .config import load_config
from .errors import ConfigError, PhonotdoaError, SchemaError
from .evaluation import ExperimentConfig, run_experiment, transform_templates, write_report
from .geometry import (
    REFERENCE_POSE,
    DevicePose,
    estimate_face_distance,
    make_beep,
    solve_source_distance,
    transform_tdoa,
)
from .profiles import (
    ProfileMode,
    assemble_template,
    enroll_from_dynamics,
    load_profile,
    save_profile,
)
from .scoring import ScoringMethod, Verdict, decide, score_dynamic
from .segmentation import load_alignment, save_alignment
from .simulator import (
    AttackKind,
    AttackScenario,
    synthesize_attack,
    synthesize_beep_scene,
    synthesize_live,
)
from .sourcemodel import load_source_model
from .tdoa import DeviceSpec, Method, measure_dynamic

log = logging.getLogger("phonotdoa")


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _pose_from_args(args) -> DevicePose:
    return DevicePose(
        x=args.pose_x, l1=args.pose_l1, l2=args.pose_l2,
        l=args.pose_l, alpha=0.0,
    )


def _device_from_args(args, fallback=None) -> DeviceSpec:
    if args.device_spacing_m is None:
        return fallback if fallback is not None else DeviceSpec(0.15, "reference")
    return DeviceSpec(mic_spacing_m=args.device_spacing_m, name=args.device_name)


def _add_pose_flags(p):
    p.add_argument("--pose-x", type=float, default=REFERENCE_POSE.x)
    p.add_argument("--pose-l1", type=float, default=REFERENCE_POSE.l1)
    p.add_argument("--pose-l2", type=float, default=REFERENCE_POSE.l2)
    p.add_argument("--pose-l", type=float, default=REFERENCE_POSE.l)


def _add_device_flags(p):
    p.add_argument("--device-spacing-m", type=float, default=None)
    p.add_argument("--device-name", default="generic")


# --- simulate ---

def cmd_simulate(args) -> int:
    scene = read_json(args.scene, ConfigError)
    try:
        kind = scene["kind"]
        fs = int(scene.get("sample_rate", 192000))
        seed = int(scene.get("seed", args.seed))
        if seed < 0:
            raise ConfigError(f"seed must be >= 0, got {seed}")
        if kind == "beep":
            face = float(scene["face_distance_m"])
        else:
            labels = scene.get("labels")
            if not labels:
                raise ConfigError("scene needs a 'labels' phoneme list")
            pose_doc = scene.get("pose")
            pose = DevicePose(**pose_doc) if pose_doc else REFERENCE_POSE
            snr = float(scene.get("noise_snr_db", 30.0))
            if kind == "live":
                echo = scene.get("echo")
                echo = (int(echo[0]), float(echo[1])) if echo else None
                jitter_scale = float(scene.get("jitter_scale", 1.0))
            else:
                scenario = AttackScenario(
                    kind=AttackKind(kind),
                    source_offset=tuple(scene.get("source_offset", (0.0, 0.0))),
                    trajectory=tuple(tuple(p) for p in scene.get("trajectory", ())),
                    recorder_distance_m=float(scene.get("recorder_distance_m", 0.0)),
                )
    except FIELD_ERRORS as exc:
        raise ConfigError(f"{args.scene}: malformed scene: {exc!r}") from exc
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model = load_source_model()

    if kind == "beep":
        recording = synthesize_beep_scene(face, fs, seed)
        write_wav(recording, out / "recording.wav", bit_depth=24)
        truth = {
            "version": 1,
            "kind": kind,
            "sample_rate": fs,
            "face_distance_m": face,
            "echo_delay_samples": 2.0 * face / 340.0 * fs,
        }
        write_json(out / "ground_truth.json", truth)
        _emit({"out": str(out), "kind": kind, "files": ["recording.wav", "ground_truth.json"]})
        return 0

    if kind == "live":
        utt = synthesize_live(
            labels, model, pose, fs, seed, snr, echo=echo, jitter_scale=jitter_scale,
        )
    else:
        utt = synthesize_attack(labels, model, pose, scenario, fs, seed, snr)

    write_wav(utt.recording, out / "recording.wav", bit_depth=24)
    save_alignment(utt.segments, fs, out / "alignment.json")
    truth = {
        "version": 1,
        "kind": kind,
        "sample_rate": fs,
        "phonemes": [
            {
                "label": g.label,
                "delay_samples": g.delay_samples,
                "source_dy": g.source_dy,
                "source_dz": g.source_dz,
                "start": g.start,
                "end": g.end,
            }
            for g in utt.ground_truth
        ],
    }
    write_json(out / "ground_truth.json", truth)
    _emit(
        {
            "out": str(out),
            "kind": kind,
            "n_phonemes": len(utt.segments),
            "files": ["recording.wav", "alignment.json", "ground_truth.json"],
        }
    )
    return 0


# --- enroll ---

def _parse_trial(spec: str) -> tuple:
    try:
        wav_path, align_path = spec.rsplit(":", 1)
    except ValueError:
        raise ConfigError(
            f"trial {spec!r} must be recording.wav:alignment.json"
        ) from None
    return wav_path, align_path


def cmd_enroll(args) -> int:
    device = _device_from_args(args)
    pose = _pose_from_args(args)
    method = Method.GCC_PHAT if args.method != "cc" else Method.CC
    trials = []
    for spec in args.trial:
        wav_path, align_path = _parse_trial(spec)
        recording = load_wav(wav_path)
        segments = load_alignment(align_path, recording)
        trials.append((recording, segments))
    dynamics = [
        measure_dynamic(recording, segments, method=method, device=device)
        for recording, segments in trials
    ]
    profile = enroll_from_dynamics(
        args.user, ProfileMode(args.mode), dynamics, pose, device, args.passphrase_id
    )
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
    config = load_config(
        args.config,
        overrides={"method": args.method, "threshold": args.threshold},
    )
    log.info("effective config: %s", json.dumps(config.as_dict(), sort_keys=True))
    profile = load_profile(args.profile)
    recording = load_wav(args.recording)
    segments = load_alignment(args.alignment, recording)
    device = _device_from_args(args, fallback=profile.device)

    dynamic = measure_dynamic(recording, segments, device=device, c=config.c)
    if (
        device.mic_spacing_m != profile.device.mic_spacing_m
        or recording.sample_rate != profile.sample_rate
    ):
        from .profiles import normalize_dynamic

        dynamic = normalize_dynamic(
            dynamic, device, profile.device, to_sample_rate=profile.sample_rate
        )

    inventory_stats = None
    if profile.mode == ProfileMode.TEXT_DEPENDENT:
        pid = args.passphrase_id
        if pid is None:
            ids = sorted(profile.passphrase_templates)
            if len(ids) != 1:
                raise SchemaError(
                    f"profile holds {len(ids)} passphrases; pass --passphrase-id"
                )
            pid = ids[0]
        templates = profile.templates_for(pid)
    else:
        templates = assemble_template(profile, [s.label for s in segments])
        inventory_stats = {
            label: t.std_delay for label, t in profile.phoneme_templates.items()
        }

    # pose release: map enrolled templates onto the verification pose
    alpha = math.radians(args.angle_deg or 0.0)
    new_x = None
    if args.beep_echo is not None:
        echo_rec = load_wav(args.beep_echo)
        beep = make_beep(echo_rec.sample_rate)
        new_x = estimate_face_distance(echo_rec, beep, c=config.c)
        log.info("beep-echo distance estimate: %.4f m", new_x)
    if args.distance_m is not None:
        new_x = args.distance_m
    delta_x = (new_x - profile.enrollment_pose.x) if new_x is not None else 0.0
    if alpha != 0.0 or delta_x != 0.0:
        templates = transform_templates(
            templates, profile.enrollment_pose, alpha, delta_x,
            profile.sample_rate, c=config.c,
        )

    method = ScoringMethod(config.method)
    sim = score_dynamic(
        dynamic, templates, method=method, inventory_stats=inventory_stats
    )
    decision = decide(sim, config.threshold)
    _emit(decision.to_json_dict())
    return 0 if decision.verdict == Verdict.LIVE else 1


# --- evaluate ---

def cmd_evaluate(args) -> int:
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
    recording = load_wav(args.recording)
    segments = load_alignment(args.alignment, recording)
    device = _device_from_args(args)
    method = Method.CC if args.method == "cc" else Method.GCC_PHAT
    dynamic = measure_dynamic(recording, segments, method=method, device=device)
    print("label,start,end,delay_samples,delay_subsample,peak_value,method")
    for seg, m in zip(segments, dynamic.measurements):
        print(
            f"{m.label},{seg.start},{seg.end},{m.delay_samples:.0f},"
            f"{m.delay_subsample:.4f},{m.peak_value:.6f},{m.method.value}"
        )
    return 0


# --- pose ---

def cmd_pose(args) -> int:
    config = load_config(args.config)
    pose = _pose_from_args(args)
    result = {
        "tdoa1": args.tdoa,
        "sample_rate": args.sample_rate,
        "x_solved": solve_source_distance(
            args.tdoa, pose.l1, pose.l2, args.sample_rate, c=config.c
        ),
    }
    if args.angle_deg is not None or args.delta_x_m is not None:
        result["tdoa2"] = transform_tdoa(
            args.tdoa,
            pose,
            alpha=math.radians(args.angle_deg or 0.0),
            delta_x=args.delta_x_m or 0.0,
            sample_rate=args.sample_rate,
            c=config.c,
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
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("enroll", help="build a user profile from trials")
    p.add_argument("--out", required=True, help="profile JSON path")
    p.add_argument("--user", required=True)
    p.add_argument("--passphrase-id", default="passphrase0")
    p.add_argument("--mode", choices=["text_dependent", "text_independent"],
                   default="text_dependent")
    p.add_argument("--trial", action="append", required=True,
                   metavar="WAV:ALIGNMENT", help="repeatable, >= 3 times")
    p.add_argument("--method", choices=["cc", "gcc_phat"], default="gcc_phat")
    _add_pose_flags(p)
    _add_device_flags(p)
    p.set_defaults(func=cmd_enroll)

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
    p.add_argument("--distance-m", type=float, default=None,
                   help="mouth-to-handset distance at verification time")
    p.add_argument("--beep-echo", default=None,
                   help="beep-echo WAV to estimate the distance from")
    p.add_argument("--config", default=None)
    _add_device_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("evaluate", help="run a simulated experiment config")
    p.add_argument("experiment", help="experiment config JSON")
    p.add_argument("out", help="report output directory")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("tdoa", help="per-phoneme delays as CSV")
    p.add_argument("recording")
    p.add_argument("alignment")
    p.add_argument("--method", choices=["cc", "gcc_phat"], default="gcc_phat")
    _add_device_flags(p)
    p.set_defaults(func=cmd_tdoa)

    p = sub.add_parser("pose", help="solve source distance / transform a delay")
    p.add_argument("--tdoa", type=float, required=True)
    p.add_argument("--sample-rate", type=int, default=192000)
    p.add_argument("--angle-deg", type=float, default=None)
    p.add_argument("--delta-x-m", type=float, default=None)
    p.add_argument("--config", default=None)
    _add_pose_flags(p)
    p.set_defaults(func=cmd_pose)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s"
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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
