"""Detection metrics (ROC / EER / accuracy) and config-driven simulated
experiments.

The decision rule everywhere is fail-closed: accept iff score is
strictly above the threshold. ROC and EER follow the same rule, so
accuracy at the EER threshold lines up with 1 - EER on balanced sets.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .audio_io import FIELD_ERRORS, write_json
from .errors import ConfigError, NoSolutionError
from .geometry import REFERENCE_POSE, DevicePose, transform_tdoa
from .phonemes import INVENTORY
from .profiles import (
    PhonemeTemplate,
    ProfileMode,
    assemble_template,
    enroll_text_dependent,
    enroll_text_independent,
)
from .scoring import ScoringMethod, score_dynamic
from .simulator import (
    AttackKind,
    AttackScenario,
    circle_trajectory,
    synthesize_attack,
    synthesize_live,
)
from .sourcemodel import load_source_model
from .tdoa import DeviceSpec, Method, measure_dynamic


@dataclass(frozen=True)
class LabeledScoreSet:
    live_scores: tuple
    attack_scores: tuple

    def __post_init__(self):
        object.__setattr__(self, "live_scores", tuple(float(s) for s in self.live_scores))
        object.__setattr__(self, "attack_scores", tuple(float(s) for s in self.attack_scores))
        if not self.live_scores or not self.attack_scores:
            raise ConfigError("both live and attack scores are required")


def roc(scores: LabeledScoreSet) -> list:
    """(threshold, TAR, FAR) per distinct score value plus the +/-inf
    endpoints, under the accept-iff-strictly-above rule."""
    live = np.asarray(scores.live_scores)
    attack = np.asarray(scores.attack_scores)
    thresholds = [-math.inf] + sorted(set(np.concatenate([live, attack]).tolist()))
    points = []
    for t in thresholds:
        tar = float(np.mean(live > t))
        far = float(np.mean(attack > t))
        points.append((t, tar, far))
    points.append((math.inf, 0.0, 0.0))
    return points


def eer(scores: LabeledScoreSet) -> float:
    """Equal error rate by linear interpolation between the adjacent
    sweep points where FAR - FRR changes sign."""
    rate, _ = eer_with_threshold(scores)
    return rate


def eer_with_threshold(scores: LabeledScoreSet) -> tuple:
    points = roc(scores)
    # diff = FAR - FRR decreases monotonically along the sweep
    diffs = [far - (1.0 - tar) for _, tar, far in points]
    for i in range(len(points) - 1):
        d0, d1 = diffs[i], diffs[i + 1]
        if d0 >= 0.0 >= d1:
            if d0 == d1:
                w = 0.0
            else:
                w = d0 / (d0 - d1)
            far0, far1 = points[i][2], points[i + 1][2]
            t0, t1 = points[i][0], points[i + 1][0]
            rate = far0 + w * (far1 - far0)
            if math.isinf(t0):
                threshold = t1
            elif math.isinf(t1):
                threshold = t0
            else:
                threshold = t0 + w * (t1 - t0)
            return float(rate), float(threshold)
    # diffs never cross: fall back to the sweep point closest to equality
    i = int(np.argmin(np.abs(diffs)))
    t, tar, far = points[i]
    return float((far + (1.0 - tar)) / 2.0), float(t)


def accuracy(scores: LabeledScoreSet, threshold: float) -> float:
    """(accepted live + rejected attacks) / total, fail-closed at ties."""
    live = np.asarray(scores.live_scores)
    attack = np.asarray(scores.attack_scores)
    correct = float(np.sum(live > threshold)) + float(np.sum(attack <= threshold))
    return correct / (len(live) + len(attack))


# --- config-driven experiments ---

DEFAULT_LENGTH_BANDS = ((2, 4), (5, 7), (8, 10))
DEFAULT_BAND_WEIGHTS = (0.5, 0.25, 0.25)


@dataclass
class ExperimentConfig:
    seed: int = 0
    sample_rate: int = 192000
    mode: ProfileMode = ProfileMode.TEXT_DEPENDENT
    users: int = 4
    passphrases_per_user: int = 4
    enroll_trials: int = 3
    live_trials: int = 5
    length_bands: tuple = DEFAULT_LENGTH_BANDS
    band_weights: tuple = DEFAULT_BAND_WEIGHTS
    phonemes_per_word: tuple = (2, 4)
    static_attacks: int = 2
    mobile_attacks: int = 2
    replace_distances: tuple = ()
    replace_attacks: int = 0
    noise_snr_db: float = 30.0
    duration_range: tuple = (0.08, 0.12)
    methods: tuple = ("correlation", "probability", "combined")
    pose_changes: tuple = ()  # (alpha_deg, delta_x_m) pairs
    transform: bool = True
    per_user_variation: bool = True
    oral_only: bool = False
    device: DeviceSpec = field(default_factory=lambda: DeviceSpec(0.15, "reference"))
    threshold: float = None

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        known = dict(doc)
        try:
            if "mode" in known:
                known["mode"] = ProfileMode(known["mode"])
            if "device" in known:
                dev = known["device"]
                known["device"] = DeviceSpec(
                    mic_spacing_m=float(dev["mic_spacing_m"]),
                    name=str(dev.get("name", "generic")),
                )
            for key in ("length_bands", "pose_changes"):
                if key in known:
                    known[key] = tuple(tuple(v) for v in known[key])
            for key in (
                "band_weights", "phonemes_per_word", "replace_distances",
                "methods", "duration_range",
            ):
                if key in known:
                    known[key] = tuple(known[key])
            return cls(**known).validate()
        except FIELD_ERRORS as exc:
            raise ConfigError(f"bad experiment config: {exc!r}") from exc

    def validate(self):
        if self.users < 1 or self.passphrases_per_user < 1:
            raise ConfigError("users and passphrases_per_user must be >= 1")
        if self.enroll_trials < 3:
            raise ConfigError("enroll_trials must be >= 3")
        if len(self.length_bands) != len(self.band_weights):
            raise ConfigError("length_bands and band_weights lengths differ")
        for m in self.methods:
            try:
                ScoringMethod(m)
            except ValueError as exc:
                raise ConfigError(f"unknown scoring method {m!r}") from exc
        total_attacks = (
            self.static_attacks + self.mobile_attacks
            + self.replace_attacks * max(len(self.replace_distances), 1)
        )
        if self.live_trials < 1 or total_attacks < 1:
            raise ConfigError("need at least one live trial and one attack")
        return self


def _band_label(band) -> str:
    return f"{band[0]}-{band[1]}"


def _sample_passphrase(rng, config: ExperimentConfig, labels_pool) -> tuple:
    band_idx = rng.choice(len(config.length_bands), p=np.asarray(config.band_weights) / sum(config.band_weights))
    lo, hi = config.length_bands[band_idx]
    words = int(rng.integers(lo, hi + 1))
    labels = []
    for _ in range(words):
        k = int(rng.integers(config.phonemes_per_word[0], config.phonemes_per_word[1] + 1))
        labels.extend(rng.choice(labels_pool, size=k).tolist())
    return tuple(labels), _band_label(config.length_bands[band_idx])


def transform_templates(
    templates,
    pose: DevicePose,
    alpha: float,
    delta_x: float,
    sample_rate: int,
):
    """Map template means to a new handset pose. Templates whose delay
    admits no on-axis source (e.g. nasals, whose source sits high above
    the mouth) are passed through unchanged."""
    out = []
    for t in templates:
        try:
            new_mean = transform_tdoa(
                t.mean_delay, pose, alpha=alpha, delta_x=delta_x,
                sample_rate=sample_rate,
            )
        except NoSolutionError:
            new_mean = t.mean_delay
        out.append(
            PhonemeTemplate(
                label=t.label,
                mean_delay=new_mean,
                std_delay=t.std_delay,
                trial_count=t.trial_count,
                delays=t.delays,
            )
        )
    return out


def run_experiment(config: ExperimentConfig, model=None) -> dict:
    """Generate a simulated corpus, enroll, score, and aggregate.

    Returns the metrics report as a plain dict (see write_report for
    the file outputs). Reproducible: a config with the same seed gives
    the identical report.
    """
    if model is None:
        model = load_source_model()
    rng = np.random.default_rng(config.seed)
    fs = config.sample_rate
    pose0 = REFERENCE_POSE
    labels_pool = sorted(
        label for label in model.labels
        if not config.oral_only or INVENTORY.articulation_class(label) != "nasal"
    )

    poses = [(0.0, 0.0)] + [tuple(p) for p in config.pose_changes]
    rows = []

    def next_seed() -> int:
        return int(rng.integers(0, 2**31 - 1))

    for user_idx in range(config.users):
        user_model = model.perturbed(rng) if config.per_user_variation else model
        user_id = f"user{user_idx:02d}"

        ti_profile = None
        ti_stats = None
        if config.mode == ProfileMode.TEXT_INDEPENDENT:
            samples = {label: [] for label in model.labels}
            order = list(model.labels)
            for _ in range(config.enroll_trials):
                rng.shuffle(order)
                utt = synthesize_live(
                    order, user_model, pose0, fs, next_seed(),
                    config.noise_snr_db, duration_range=config.duration_range,
                )
                for seg in utt.segments:
                    samples[seg.label].append((utt.recording, seg))
            ti_profile = enroll_text_independent(
                user_id, samples, pose0, config.device
            )
            ti_stats = {
                label: t.std_delay
                for label, t in ti_profile.phoneme_templates.items()
            }

        for pp_idx in range(config.passphrases_per_user):
            labels, band = _sample_passphrase(rng, config, labels_pool)
            passphrase_id = f"pp{pp_idx:02d}"

            if config.mode == ProfileMode.TEXT_DEPENDENT:
                trials = []
                for _ in range(config.enroll_trials):
                    utt = synthesize_live(
                        labels, user_model, pose0, fs, next_seed(),
                        config.noise_snr_db,
                        duration_range=config.duration_range,
                    )
                    trials.append((utt.recording, utt.segments))
                profile = enroll_text_dependent(
                    user_id, passphrase_id, trials, pose0, config.device
                )
                base_templates = profile.templates_for(passphrase_id)
                inventory_stats = None
            else:
                base_templates = assemble_template(ti_profile, labels)
                inventory_stats = ti_stats

            for pose_idx, (alpha_deg, delta_x) in enumerate(poses):
                alpha = math.radians(alpha_deg)
                ver_pose = pose0.with_(
                    x=pose0.x + delta_x, alpha=alpha
                ) if (alpha_deg or delta_x) else pose0
                if (alpha_deg or delta_x) and config.transform:
                    templates = transform_templates(
                        base_templates, pose0, alpha, delta_x, fs
                    )
                else:
                    templates = base_templates

                def add_row(kind, utt):
                    dynamic = measure_dynamic(
                        utt.recording, utt.segments, device=config.device
                    )
                    sim = score_dynamic(
                        dynamic, templates, inventory_stats=inventory_stats
                    )
                    rows.append(
                        {
                            "kind": kind,
                            "user": user_id,
                            "passphrase": passphrase_id,
                            "band": band,
                            "pose": f"a{alpha_deg:g}_dx{delta_x:g}",
                            **{m: sim.selected(ScoringMethod(m)) for m in config.methods},
                        }
                    )

                for _ in range(config.live_trials):
                    add_row(
                        "live",
                        synthesize_live(
                            labels, user_model, ver_pose, fs, next_seed(),
                            config.noise_snr_db,
                            duration_range=config.duration_range,
                        ),
                    )
                for _ in range(config.static_attacks):
                    scenario = AttackScenario(
                        kind=AttackKind.STATIC_PLAYBACK,
                        source_offset=(
                            float(rng.uniform(-0.03, 0.01)),
                            float(rng.uniform(-0.04, 0.03)),
                        ),
                    )
                    add_row(
                        "static_playback",
                        synthesize_attack(
                            labels, user_model, ver_pose, scenario, fs,
                            next_seed(), config.noise_snr_db,
                            duration_range=config.duration_range,
                        ),
                    )
                for _ in range(config.mobile_attacks):
                    scenario = AttackScenario(
                        kind=AttackKind.MOBILE_PLAYBACK,
                        trajectory=circle_trajectory(
                            radius=float(rng.uniform(0.03, 0.07)),
                            turns=float(rng.uniform(1.0, 2.5)),
                            phase=float(rng.uniform(0.0, 2.0 * math.pi)),
                        ),
                    )
                    add_row(
                        "mobile_playback",
                        synthesize_attack(
                            labels, user_model, ver_pose, scenario, fs,
                            next_seed(), config.noise_snr_db,
                            duration_range=config.duration_range,
                        ),
                    )
                for distance in config.replace_distances:
                    for _ in range(config.replace_attacks):
                        scenario = AttackScenario(
                            kind=AttackKind.REPLACE,
                            recorder_distance_m=float(distance),
                        )
                        add_row(
                            f"replace_{distance:g}",
                            synthesize_attack(
                                labels, user_model, ver_pose, scenario, fs,
                                next_seed(), config.noise_snr_db,
                                duration_range=config.duration_range,
                            ),
                        )

    return _aggregate(config, rows)


def _metric_block(live, attacks, threshold=None):
    scores = LabeledScoreSet(live_scores=live, attack_scores=attacks)
    rate, eer_thr = eer_with_threshold(scores)
    thr = eer_thr if threshold is None else threshold
    return {
        "eer": rate,
        "threshold": thr,
        "accuracy": accuracy(scores, thr),
        "n_live": len(live),
        "n_attack": len(attacks),
    }


def _aggregate(config: ExperimentConfig, rows) -> dict:
    base_pose = "a0_dx0"
    report = {
        "config": {
            "seed": config.seed,
            "mode": config.mode.value,
            "users": config.users,
            "passphrases_per_user": config.passphrases_per_user,
            "live_trials": config.live_trials,
            "methods": list(config.methods),
            "transform": config.transform,
        },
        "methods": {},
        "rows": rows,
    }

    for name in config.methods:
        live0 = [r[name] for r in rows if r["kind"] == "live" and r["pose"] == base_pose]
        att0 = [r[name] for r in rows if r["kind"] != "live" and r["pose"] == base_pose]
        block = {"overall": None, "by_attack": {}, "by_band": {}, "by_pose": {}}
        if live0 and att0:
            overall = _metric_block(live0, att0, config.threshold)
            block["overall"] = overall
            operating_threshold = overall["threshold"]
            roc_points = roc(LabeledScoreSet(live0, att0))
            block["roc"] = [[t, tar, far] for t, tar, far in roc_points]
            for kind in sorted({r["kind"] for r in rows if r["kind"] != "live"}):
                att_k = [
                    r[name] for r in rows
                    if r["kind"] == kind and r["pose"] == base_pose
                ]
                if att_k:
                    block["by_attack"][kind] = _metric_block(
                        live0, att_k, operating_threshold
                    )
            for band in sorted({r["band"] for r in rows}):
                live_b = [
                    r[name] for r in rows
                    if r["kind"] == "live" and r["band"] == band and r["pose"] == base_pose
                ]
                att_b = [
                    r[name] for r in rows
                    if r["kind"] != "live" and r["band"] == band and r["pose"] == base_pose
                ]
                if live_b and att_b:
                    block["by_band"][band] = _metric_block(live_b, att_b)
            for pose in sorted({r["pose"] for r in rows}):
                live_p = [r[name] for r in rows if r["kind"] == "live" and r["pose"] == pose]
                att_p = [r[name] for r in rows if r["kind"] != "live" and r["pose"] == pose]
                if live_p and att_p:
                    block["by_pose"][pose] = _metric_block(
                        live_p, att_p, operating_threshold
                    )
        report["methods"][name] = block
    return report


def write_report(report: dict, out_dir) -> None:
    """report.json plus flat CSVs (scores.csv, metrics.csv) for plotting."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    slim = {k: v for k, v in report.items() if k != "rows"}
    write_json(out / "report.json", slim)

    rows = report.get("rows", [])
    if rows:
        methods = report["config"]["methods"]
        with open(out / "scores.csv", "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["kind", "user", "passphrase", "band", "pose"] + methods)
            for r in rows:
                writer.writerow(
                    [r["kind"], r["user"], r["passphrase"], r["band"], r["pose"]]
                    + [f"{r[m]:.6f}" for m in methods]
                )

    with open(out / "metrics.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["method", "group", "key", "eer", "accuracy", "threshold", "n_live", "n_attack"])
        for method, block in report["methods"].items():
            if block.get("overall"):
                b = block["overall"]
                writer.writerow([method, "overall", "", f"{b['eer']:.6f}", f"{b['accuracy']:.6f}", f"{b['threshold']:.6f}", b["n_live"], b["n_attack"]])
            for group in ("by_attack", "by_band", "by_pose"):
                for key, b in block.get(group, {}).items():
                    writer.writerow([method, group, key, f"{b['eer']:.6f}", f"{b['accuracy']:.6f}", f"{b['threshold']:.6f}", b["n_live"], b["n_attack"]])

    # plain whitespace columns per method for gnuplot-style tooling
    for method, block in report["methods"].items():
        points = block.get("roc")
        if not points:
            continue
        with open(out / f"roc_{method}.dat", "w") as f:
            f.write("# threshold tar far\n")
            for t, tar, far in points:
                f.write(f"{t:.9g} {tar:.6f} {far:.6f}\n")
