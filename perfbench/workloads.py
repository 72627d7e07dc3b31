"""The three benchmark workloads.

Each workload makes its inputs from the seed in `build` (the set-up that
`setup_s` times), then runs one closed-loop operation per `step`, one
client at a time, in-process. `step` returns (operations attempted,
operations failed, seconds spent inside the program), and
`tail_percentile` is the highest latency percentile a run has at least
ten samples beyond; `summary` returns
the correctness checks, the quality figure reported as `accuracy` and
details printed beside the metrics.

Every utterance has 15 phonemes (the mean C4 passphrase has 15.75), so a
run measures the same input size whatever the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from pathlib import Path

import numpy as np

import phonotdoa.cli as cli
from phonotdoa import evaluation, profiles, segmentation, sourcemodel
from phonotdoa.audio_io import write_wav
from phonotdoa.geometry import REFERENCE_POSE
from phonotdoa.profiles import ProfileMode
from phonotdoa.simulator import (
    AttackKind,
    AttackScenario,
    circle_trajectory,
    synthesize_attack,
    synthesize_live,
)
from phonotdoa.tdoa import DeviceSpec

FS = 192000
WORDS, PHONEMES_PER_WORD = 5, 3
UTTERANCE_PHONEMES = WORDS * PHONEMES_PER_WORD
DEVICE = DeviceSpec(0.15, "reference")
ANGLE_DEG = 30.0
DELTA_X_M = 0.05


def _seed_for(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0] >> 1)


def _run_cli(argv) -> tuple:
    """Exit code, stdout and seconds of one in-process CLI call."""
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), time.perf_counter() - t0


# --- scene rendering shared by the verify and enroll_ti inputs ---


class _Renderer:
    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.model = sourcemodel.load_source_model()
        self.user = self.model.perturbed(self.rng)
        self.labels = sorted(self.model.labels)

    def passphrase(self) -> list:
        return self.rng.choice(self.labels, UTTERANCE_PHONEMES).tolist()

    def shuffled_inventory(self) -> list:
        order = list(self.labels)
        self.rng.shuffle(order)
        return order

    def render(self, kind: str, labels, pose=REFERENCE_POSE):
        seed = int(self.rng.integers(0, 2**31 - 1))
        if kind == "live":
            return synthesize_live(labels, self.user, pose, FS, seed)
        if kind == "static_playback":
            scenario = AttackScenario(
                kind=AttackKind.STATIC_PLAYBACK,
                source_offset=(
                    float(self.rng.uniform(-0.03, 0.01)),
                    float(self.rng.uniform(-0.04, 0.03)),
                ),
            )
        else:
            scenario = AttackScenario(
                kind=AttackKind.MOBILE_PLAYBACK,
                trajectory=circle_trajectory(
                    radius=float(self.rng.uniform(0.03, 0.07)),
                    turns=float(self.rng.uniform(1.0, 2.5)),
                    phase=float(self.rng.uniform(0.0, 2.0 * math.pi)),
                ),
            )
        return synthesize_attack(labels, self.user, pose, scenario, FS, seed)


def _write_utterance(utt, out: Path, name: str) -> None:
    write_wav(utt.recording, out / f"{name}.wav", bit_depth=24)
    segmentation.save_alignment(utt.segments, FS, out / f"{name}.json")


def _write_json(doc, path: Path) -> None:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


# --- corpus_td ---


class CorpusTd:
    """Closed loop of `evaluation.run_experiment` on text-dependent corpora.

    Each experiment is one user and one passphrase with the C4 mix:
    3 enroll + 10 live + 5 static + 5 mobile renders, all scored with the
    correlation, probability and combined methods. One operation is one
    rendered utterance, enrollment renders included.
    """

    min_steps = 3  # accuracy is the mean over the first three experiments
    # about 6 calls a run: too few for ten to lie beyond any higher percentile
    tail_percentile = 50
    MIX = {"enroll_trials": 3, "live_trials": 10, "static_attacks": 5, "mobile_attacks": 5}
    OPS = sum(MIX.values())

    @staticmethod
    def build(seed: int, out: Path) -> None:
        sourcemodel.load_source_model()

    def __init__(self, seed: int, inputs: Path):
        self.seed = seed
        self.first_reports = {}
        self.count_mismatch = []  # experiments whose n_live/n_attack differ from the config
        self.repeat_differs = False

    def config(self, i: int):
        return evaluation.ExperimentConfig.from_dict(
            {
                "seed": _seed_for(self.seed, i),
                "users": 1,
                "passphrases_per_user": 1,
                **self.MIX,
                "length_bands": [[WORDS, WORDS]],
                "band_weights": [1.0],
                "phonemes_per_word": [PHONEMES_PER_WORD, PHONEMES_PER_WORD],
                "duration_range": [0.08, 0.12],
                "methods": ["correlation", "probability", "combined"],
            }
        )

    def warm_up(self) -> None:
        self.warm_report = json.dumps(evaluation.run_experiment(self.config(0)), sort_keys=True)

    def step(self, i: int) -> tuple:
        config = self.config(i)
        t0 = time.perf_counter()
        try:
            report = evaluation.run_experiment(config)
        except Exception:
            return self.OPS, self.OPS, time.perf_counter() - t0
        elapsed = time.perf_counter() - t0
        overall = report["methods"]["combined"]["overall"]
        n_live = config.users * config.passphrases_per_user * config.live_trials
        n_attack = config.users * config.passphrases_per_user * (
            config.static_attacks + config.mobile_attacks
        )
        if (overall["n_live"], overall["n_attack"]) != (n_live, n_attack):
            self.count_mismatch.append(i)
        if i < self.min_steps:
            self.first_reports.setdefault(i, report)
        if i == 0 and json.dumps(report, sort_keys=True) != self.warm_report:
            self.repeat_differs = True
        return self.OPS, 0, elapsed

    def summary(self) -> tuple:
        blocks = [r["methods"]["combined"]["overall"] for r in self.first_reports.values()]
        checks = {
            "n_live_n_attack_match_config": not self.count_mismatch,
            "same_seed_same_report": not self.repeat_differs,
            "first_experiments_scored": len(blocks) == self.min_steps,
        }
        details = {
            "eer": float(np.mean([b["eer"] for b in blocks])) if blocks else None,
            "eer_experiments": self.min_steps,
            "ops_per_experiment": self.OPS,
        }
        accuracy = float(np.mean([b["accuracy"] for b in blocks])) if blocks else 0.0
        return checks, accuracy, details


# --- verify ---


class Verify:
    """Closed loop of in-process `phonotdoa verify` calls over a pool.

    The pool holds two text-dependent profiles and one text-independent
    profile of one seeded user. Against each: live speech at the
    reference pose, live speech at a 30 degree tilt (`--angle-deg 30`)
    and at 5 cm farther (`--distance-m`), static and mobile playback.
    Calls cycle through the pool in a seeded order. Under the default
    configuration the tilt transform disagrees with the simulator, so
    the tilted live entries count as wrong verdicts until that is fixed.
    """

    min_steps = 100  # at least ten latency samples beyond p90
    tail_percentile = 90
    TD_MIX = {"live": 2, "live_angle": 1, "live_distance": 1, "static_playback": 1, "mobile_playback": 1}
    TI_MIX = {"live": 1, "live_angle": 1, "live_distance": 1, "static_playback": 1, "mobile_playback": 1}

    @classmethod
    def build(cls, seed: int, out: Path) -> None:
        r = _Renderer(seed)
        pose0 = REFERENCE_POSE
        poses = {
            "live": (pose0, []),
            "live_angle": (pose0.with_(alpha=math.radians(ANGLE_DEG)), ["--angle-deg", f"{ANGLE_DEG:g}"]),
            "live_distance": (pose0.with_(x=pose0.x + DELTA_X_M), ["--distance-m", repr(pose0.x + DELTA_X_M)]),
        }
        entries = []

        def add_entries(profile_name, labels, extra, mix):
            for kind, n in mix.items():
                pose, flags = poses.get(kind, (pose0, []))
                for k in range(n):
                    name = f"{profile_name}_{kind}{k}"
                    render_kind = "live" if kind.startswith("live") else kind
                    _write_utterance(r.render(render_kind, labels, pose), out, name)
                    entries.append(
                        {
                            "name": name,
                            "kind": kind,
                            "profile": f"{profile_name}.profile.json",
                            "flags": extra + flags,
                        }
                    )

        for p in range(2):
            pid = f"pp{p}"
            labels = r.passphrase()
            trials = []
            for _ in range(3):
                utt = r.render("live", labels)
                trials.append((utt.recording, utt.segments))
            profile = profiles.enroll_text_dependent("user", pid, trials, pose0, DEVICE)
            profiles.save_profile(profile, out / f"td{p}.profile.json")
            add_entries(f"td{p}", labels, ["--passphrase-id", pid], cls.TD_MIX)

        samples = {}
        for _ in range(3):
            utt = r.render("live", r.shuffled_inventory())
            for seg in utt.segments:
                samples.setdefault(seg.label, []).append((utt.recording, seg))
        ti = profiles.enroll_text_independent("user", samples, pose0, DEVICE)
        profiles.save_profile(ti, out / "ti.profile.json")
        add_entries("ti", r.passphrase(), [], cls.TI_MIX)

        order = r.rng.permutation(len(entries)).tolist()
        _write_json({"entries": [entries[i] for i in order]}, out / "pool.json")

    def __init__(self, seed: int, inputs: Path):
        doc = json.loads((inputs / "pool.json").read_text())
        self.entries = doc["entries"]
        self.argv = [
            ["verify", str(inputs / f"{e['name']}.wav"), str(inputs / f"{e['name']}.json"),
             "--profile", str(inputs / e["profile"]), *e["flags"]]
            for e in self.entries
        ]
        self.first = []
        self.bad_json = []
        self.changed = []

    def warm_up(self) -> None:
        for argv in self.argv:
            code, stdout, _ = _run_cli(argv)
            self.first.append((code, stdout))
            try:
                doc = json.loads(stdout)
                ok = (
                    doc["version"] == 1
                    and doc["verdict"] in ("live", "replay")
                    and code == (0 if doc["verdict"] == "live" else 1)
                )
            except (json.JSONDecodeError, KeyError, TypeError):
                ok = False
            if not ok:
                self.bad_json.append(argv[1])

    def step(self, i: int) -> tuple:
        k = i % len(self.argv)
        code, stdout, elapsed = _run_cli(self.argv[k])
        if (code, stdout) != self.first[k]:
            self.changed.append(k)
        return 1, int(code not in (0, 1)), elapsed

    def summary(self) -> tuple:
        wrong = {}
        for e, (code, _) in zip(self.entries, self.first):
            if code != (0 if e["kind"].startswith("live") else 1):
                wrong[e["kind"]] = wrong.get(e["kind"], 0) + 1
        n_wrong = sum(wrong.values())
        checks = {
            "stdout_is_decision_json_v1": not self.bad_json,
            "repeat_call_byte_identical": not self.changed,
        }
        details = {
            "wrong_verdict_frac": n_wrong / len(self.entries),
            "wrong_verdicts_by_kind": dict(sorted(wrong.items())),
            "pool_size": len(self.entries),
        }
        return checks, 1.0 - n_wrong / len(self.entries), details


# --- enroll_ti ---


class EnrollTi:
    """Closed loop of in-process `phonotdoa enroll --mode text_independent`.

    Input: three recordings of the seeded user speaking all 44 phonemes
    in shuffled order. Every call enrolls from all three and writes one
    profile.
    """

    min_steps = 5
    # about 25 calls a run: too few for ten to lie beyond a higher percentile
    tail_percentile = 50
    TOLERANCE_SAMPLES = 1.0

    @staticmethod
    def build(seed: int, out: Path) -> None:
        r = _Renderer(seed)
        truth = {}
        for k in range(3):
            utt = r.render("live", r.shuffled_inventory())
            _write_utterance(utt, out, f"trial{k}")
            for g in utt.ground_truth:
                truth.setdefault(g.label, []).append(g.delay_samples)
        _write_json({label: float(np.mean(v)) for label, v in truth.items()}, out / "truth.json")

    def __init__(self, seed: int, inputs: Path):
        self.inputs = inputs
        self.profile = inputs / "enrolled.profile.json"
        self.argv = ["enroll", "--mode", "text_independent", "--out", str(self.profile), "--user", "user"]
        for k in range(3):
            self.argv += ["--trial", f"{inputs / f'trial{k}.wav'}:{inputs / f'trial{k}.json'}"]
        self.changed = 0

    def warm_up(self) -> None:
        self.first = _run_cli(self.argv)[:2]
        self.first_profile = self.profile.read_bytes()

    def step(self, i: int) -> tuple:
        code, stdout, elapsed = _run_cli(self.argv)
        if (code, stdout) != self.first or self.profile.read_bytes() != self.first_profile:
            self.changed += 1
        return 1, int(code != 0), elapsed

    def summary(self) -> tuple:
        truth = json.loads((self.inputs / "truth.json").read_text())
        profile = profiles.load_profile(self.profile)
        templates = profile.phoneme_templates
        within = sum(
            abs(t.mean_delay - truth[label]) <= self.TOLERANCE_SAMPLES
            for label, t in templates.items()
        )
        try:
            stdout_ok = json.loads(self.first[1])["n_phoneme_templates"] == 44
        except (json.JSONDecodeError, KeyError, TypeError):
            stdout_ok = False
        checks = {
            "profile_reloads_with_44_templates": (
                profile.mode == ProfileMode.TEXT_INDEPENDENT and len(templates) == 44
            ),
            "stdout_reports_44_templates": self.first[0] == 0 and stdout_ok,
            "repeat_call_byte_identical": self.changed == 0,
        }
        details = {
            "templates_within_1_sample": within,
            "profile_bytes": len(self.first_profile),
        }
        return checks, within / max(len(templates), 1), details


WORKLOADS = {"corpus_td": CorpusTd, "verify": Verify, "enroll_ti": EnrollTi}
