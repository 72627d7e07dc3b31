"""Golden outputs: SHA-256 digests of what the CLI writes for a fixed
set of inputs, so a refactor that means to keep every output byte for
byte can show that it did.

build_artifacts(workdir) runs phonotdoa.cli.main in workdir with
relative paths, so no output names the directory:
- simulate: a live scene with an echo and a jitter scale, a live scene
  at a moved pose, a live scene on an S5-spaced handset, static, mobile,
  replace and beep scenes, and the enrollment trials;
- enroll: a text-dependent and a text-independent profile;
- verify: stdout and exit code for live and attack, at the reference
  pose and with --angle-deg 45 --distance-m 0.13, on a passphrase that
  holds the nasals M and N, and for the S5 live scene with
  --device-spacing-m 0.141, against the text-dependent profile; and
  for live and attack at the reference pose and live at the moved pose
  against the text-independent profile, enrolled at 48 kHz;
- tdoa: the CSV with each method;
- evaluate: every output file and stdout of a text-dependent config
  with pose changes and replace attacks and of a text-independent
  config.

test_golden compares the digests with golden_digests.json.

    PYTHONPATH=src python tests/golden.py --write

rewrites that file. A change that means to move an output runs it and
names the keys that moved.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np

from phonotdoa.cli import main
from phonotdoa.geometry import REFERENCE_POSE
from phonotdoa.phonemes import INVENTORY

DIGESTS = Path(__file__).with_name("golden_digests.json")

PASSPHRASE = ["IY", "M", "S", "K", "AA", "T", "OW", "N", "EH"]
INVENTORY_ORDER = sorted(INVENTORY.symbols)
MOVED_POSE = {"x": 0.13, "l1": 0.14, "l2": 0.01, "l": 0.15, "alpha": math.radians(45)}
MOVED_FLAGS = ["--angle-deg", "45", "--distance-m", "0.13"]
S5_SPACING = 0.141

SCENES = {
    "td1": {"kind": "live", "labels": PASSPHRASE, "seed": 1},
    "td2": {"kind": "live", "labels": PASSPHRASE, "seed": 2},
    "td3": {"kind": "live", "labels": PASSPHRASE, "seed": 3},
    "live": {"kind": "live", "labels": PASSPHRASE, "seed": 21,
             "echo": [96, 0.3], "jitter_scale": 1.7},
    "live_moved": {"kind": "live", "labels": PASSPHRASE, "seed": 22, "pose": MOVED_POSE},
    "live_s5": {"kind": "live", "labels": PASSPHRASE, "seed": 27,
                "pose": asdict(REFERENCE_POSE.with_spacing(S5_SPACING))},
    "static": {"kind": "static_playback", "labels": PASSPHRASE, "seed": 23,
               "source_offset": [0.0, -0.02]},
    "mobile": {"kind": "mobile_playback", "labels": PASSPHRASE, "seed": 24,
               "trajectory": [[0.05, 0.0], [0.0, 0.05], [-0.05, 0.0]]},
    "replace": {"kind": "replace", "labels": PASSPHRASE, "seed": 25,
                "recorder_distance_m": 0.3},
    "beep": {"kind": "beep", "face_distance_m": 0.10, "seed": 26},
    # three inventory-covering trials at 48 kHz keep the text-independent
    # enrollment quick
    **{
        f"ti{i}": {"kind": "live", "labels": INVENTORY_ORDER[i:] + INVENTORY_ORDER[:i],
                   "seed": 30 + i, "sample_rate": 48000}
        for i in (1, 2, 3)
    },
}

_EXPERIMENT = {
    "seed": 5, "users": 1, "passphrases_per_user": 2, "live_trials": 2,
    "static_attacks": 2, "mobile_attacks": 1, "length_bands": [[2, 3]],
    "band_weights": [1.0], "phonemes_per_word": [2, 3],
    "duration_range": [0.05, 0.07], "threshold": 0.6,
}
EXPERIMENTS = {
    "td_poses_replace": {
        **_EXPERIMENT, "pose_changes": [[30, 0.0], [0, 0.05]],
        "replace_distances": [0.3], "replace_attacks": 1,
    },
    "ti": {
        **_EXPERIMENT, "mode": "text_independent", "static_attacks": 1,
        "methods": ["correlation"],
    },
}


def _run(*argv) -> bytes:
    """Exit code and stdout of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(a) for a in argv])
    return f"exit {code}\n{out.getvalue()}".encode()


def _trial(name: str) -> str:
    return f"{name}/recording.wav:{name}/alignment.json"


def _files(directory: str, prefix: str) -> dict:
    return {f"{prefix}/{p.name}": p.read_bytes() for p in sorted(Path(directory).iterdir())}


def build_artifacts(workdir) -> dict:
    """Run every CLI command on the fixed inputs in workdir and return
    {artifact name: bytes}."""
    artifacts = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for name, scene in SCENES.items():
            Path(f"{name}.json").write_text(json.dumps(scene))
            artifacts[f"simulate/{name}/stdout"] = _run("simulate", f"{name}.json", name)
            artifacts.update(_files(name, f"simulate/{name}"))

        enroll = {
            "td": ["--user", "u1", "--passphrase-id", "pp"]
            + [a for i in (1, 2, 3) for a in ("--trial", _trial(f"td{i}"))],
            "ti": ["--user", "u2", "--mode", "text_independent"]
            + [a for i in (1, 2, 3) for a in ("--trial", _trial(f"ti{i}"))],
        }
        for name, args in enroll.items():
            path = f"{name}.profile.json"
            artifacts[f"enroll/{name}/stdout"] = _run("enroll", "--out", path, *args)
            artifacts[f"enroll/{name}/profile.json"] = Path(path).read_bytes()

        cases = {
            "live": ("td", "live", []),
            "attack": ("td", "static", []),
            "live_moved": ("td", "live_moved", MOVED_FLAGS),
            "attack_moved": ("td", "static", MOVED_FLAGS),
            "live_s5": ("td", "live_s5", ["--device-spacing-m", repr(S5_SPACING)]),
            "ti_live": ("ti", "live", []),
            "ti_attack": ("ti", "static", []),
            "ti_live_moved": ("ti", "live_moved", MOVED_FLAGS),
        }
        for case, (profile, scene, flags) in cases.items():
            artifacts[f"verify/{case}/stdout"] = _run(
                "verify", f"{scene}/recording.wav", f"{scene}/alignment.json",
                "--profile", f"{profile}.profile.json", *flags,
            )

        for method in ("gcc_phat", "cc"):
            artifacts[f"tdoa/{method}/stdout"] = _run(
                "tdoa", "live/recording.wav", "live/alignment.json", "--method", method,
            )

        for name, doc in EXPERIMENTS.items():
            Path(f"{name}.json").write_text(json.dumps(doc))
            artifacts[f"evaluate/{name}/stdout"] = _run("evaluate", f"{name}.json", name)
            artifacts.update(_files(name, f"evaluate/{name}"))
    finally:
        os.chdir(cwd)
    return artifacts


def digests(workdir) -> dict:
    return {
        name: hashlib.sha256(data).hexdigest()
        for name, data in sorted(build_artifacts(workdir).items())
    }


def build_info() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def moved_keys(expected: dict, actual: dict) -> list:
    """Artifact names whose digest differs, is missing or is new."""
    return sorted(k for k in expected.keys() | actual.keys() if expected.get(k) != actual.get(k))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true",
                        help=f"rewrite {DIGESTS.name} instead of comparing with it")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as workdir:
        actual = digests(workdir)
    if args.write:
        DIGESTS.write_text(json.dumps({**build_info(), "digests": actual}, indent=2) + "\n")
        print(f"wrote {len(actual)} digests to {DIGESTS}", file=sys.stderr)
    else:
        moved = moved_keys(json.loads(DIGESTS.read_text())["digests"], actual)
        print("\n".join(moved) or "no digest moved")
        sys.exit(1 if moved else 0)
