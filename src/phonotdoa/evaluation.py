"""Detection metrics (ROC / EER / accuracy) and config-driven simulated
experiments.

The decision rule everywhere is fail-closed: accept iff score is
strictly above the threshold. ROC and EER follow the same rule, so
accuracy at the EER threshold lines up with 1 - EER on balanced sets.

An experiment renders and measures every utterance on the reference
handset (geometry.REFERENCE_POSE, tdoa.DEFAULT_DEVICE) and scores each
row through UserProfile.score, as `verify` does. Experiment config
files are parsed here: ExperimentConfig reads each field with the
audio_io JSON readers.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio_io import (
    FIELD_ERRORS, check_sample_rate, json_int, json_list, json_pair, json_real, write_json,
)
from .errors import ConfigError, InvalidPoseError
from .geometry import REFERENCE_POSE, DevicePose, mic_positions
from .profiles import MIN_TRIALS, ProfileMode, enroll_from_dynamics
from .scoring import MIN_SEQUENCE_LENGTH, ScoringMethod
from .simulator import (
    MAX_PATH_M,
    MIN_REPLACE_DISTANCE_M,
    SNR_RANGE_DB,
    AttackKind,
    AttackScenario,
    circle_trajectory,
    synthesize_attack,
    synthesize_live,
)
from .sourcemodel import MAX_SOURCE_RADIUS, load_source_model
from .tdoa import TdoaDynamic, fork_map, measure_dynamic


@dataclass(frozen=True)
class LabeledScoreSet:
    live_scores: tuple
    attack_scores: tuple

    def __post_init__(self):
        object.__setattr__(self, "live_scores", tuple(float(s) for s in self.live_scores))
        object.__setattr__(self, "attack_scores", tuple(float(s) for s in self.attack_scores))
        if not self.live_scores or not self.attack_scores:
            raise ConfigError("both live and attack scores are required")
        if any(math.isnan(s) for s in self.live_scores + self.attack_scores):
            raise ConfigError("scores must not be NaN")


def roc(scores: LabeledScoreSet) -> list:
    """(threshold, TAR, FAR) per distinct score value plus the +/-inf
    endpoints, under the accept-iff-strictly-above rule."""
    live = np.sort(scores.live_scores)
    attack = np.sort(scores.attack_scores)
    thresholds = [-math.inf] + sorted(set(scores.live_scores + scores.attack_scores))
    # the scores strictly above t are those sorted after its last copy
    tar = (live.size - np.searchsorted(live, thresholds, side="right")) / live.size
    far = (attack.size - np.searchsorted(attack, thresholds, side="right")) / attack.size
    return list(zip(thresholds, tar.tolist(), far.tolist())) + [(math.inf, 0.0, 0.0)]


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
# longest phoneme duration a config may ask for; speech stays well below
MAX_PHONEME_S = 1.0


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
    threshold: float = None

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        """The checked config of an experiment file's JSON object."""
        try:
            return cls(**doc).validate()
        except TypeError as exc:  # a key that is not a field
            raise ConfigError(f"bad experiment config: {exc!r}") from exc

    def validate(self):
        """Read every field in place as its JSON type (a list becomes a
        tuple, a number in a real field a float), then check its range,
        so that a bad config fails here with ConfigError before any
        render starts."""
        for name, read in _FIELD_READERS.items():
            try:
                setattr(self, name, read(getattr(self, name)))
            except FIELD_ERRORS as exc:
                raise ConfigError(f"bad experiment config: {name}: {exc!r}") from exc
        _require(self.seed >= 0, "seed must be >= 0")
        check_sample_rate(self.sample_rate)
        _require(
            self.users >= 1 and self.passphrases_per_user >= 1,
            "users and passphrases_per_user must be >= 1",
        )
        _require(self.enroll_trials >= MIN_TRIALS, f"enroll_trials must be >= {MIN_TRIALS}")
        _require(
            min(self.static_attacks, self.mobile_attacks, self.replace_attacks) >= 0,
            "attack counts must be >= 0",
        )
        lo, hi = SNR_RANGE_DB
        _require(lo <= self.noise_snr_db <= hi, f"noise_snr_db must be in [{lo}, {hi}] dB")
        _require(
            self.threshold is None or math.isfinite(self.threshold),
            "threshold must be a finite number or null",
        )
        _require(
            len(self.length_bands) >= 1 and all(1 <= a <= b for a, b in self.length_bands),
            "length_bands must be a non-empty list of [min, max] word counts, 1 <= min <= max",
        )
        _require(
            all(w >= 0 for w in self.band_weights) and 0 < sum(self.band_weights) < math.inf,
            "band_weights must be non-negative numbers with a positive finite sum",
        )
        if len(self.length_bands) != len(self.band_weights):
            raise ConfigError("length_bands and band_weights lengths differ")
        a, b = self.phonemes_per_word
        _require(1 <= a <= b, "phonemes_per_word must be [min, max] counts, 1 <= min <= max")
        n = a * min(lo for (lo, _), w in zip(self.length_bands, self.band_weights) if w > 0)
        _require(n >= MIN_SEQUENCE_LENGTH,
                 f"a passphrase may draw {n} phonemes; a score needs {MIN_SEQUENCE_LENGTH}")
        a, b = self.duration_range
        _require(
            0 < a <= b <= MAX_PHONEME_S,
            f"duration_range must be [min, max] seconds, 0 < min <= max <= {MAX_PHONEME_S}",
        )
        _require(
            all(d >= MIN_REPLACE_DISTANCE_M for d in self.replace_distances),
            f"replace_distances must be >= {MIN_REPLACE_DISTANCE_M} m",
        )
        _require(
            len(set(self.methods)) == len(self.methods) >= 1,
            "methods must be a non-empty list with no repeats",
        )
        total_attacks = (
            self.static_attacks + self.mobile_attacks
            + self.replace_attacks * len(self.replace_distances)
        )
        if self.live_trials < 1 or total_attacks < 1:
            raise ConfigError("need at least one live trial and one attack")
        changes = ((0.0, 0.0),) + self.pose_changes
        labels = [_pose_label(a, dx) for a, dx in changes]
        _require(len(set(labels)) == len(labels), f"two poses share a report label in {labels}")
        # every handset pose a render takes: DevicePose must accept it, and
        # no mic may sit out of MAX_PATH_M reach of a source near the mouth
        try:
            poses = [_verification_pose(a, dx) for a, dx in changes]
            if self.replace_attacks:
                poses += [p.with_(x=d) for p in poses for d in self.replace_distances]
        except InvalidPoseError as exc:
            raise ConfigError(f"bad experiment config: a render pose: {exc}") from exc
        reach = MAX_PATH_M - MAX_SOURCE_RADIUS
        for pose in poses:
            far = max(math.hypot(*mic) for mic in mic_positions(pose))
            _require(far <= reach, f"a pose puts a mic {far:.3g} m from the mouth, over {reach:g} m")
        return self


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ConfigError(message)


def _json_bool(value) -> bool:
    if type(value) is not bool:
        raise TypeError(f"expected true or false, got {value!r}")
    return value


# how ExperimentConfig.validate reads each field; a reader raises one of
# FIELD_ERRORS on a value of the wrong JSON type or shape
_FIELD_READERS = {
    **dict.fromkeys((
        "seed", "sample_rate", "users", "passphrases_per_user", "enroll_trials",
        "live_trials", "static_attacks", "mobile_attacks", "replace_attacks",
    ), json_int),
    "mode": ProfileMode,
    "transform": _json_bool,
    "noise_snr_db": json_real,
    "threshold": lambda v: None if v is None else json_real(v),
    "length_bands": lambda v: json_list(v, lambda band: json_pair(band, json_int)),
    "band_weights": lambda v: json_list(v, json_real),
    "phonemes_per_word": lambda v: json_pair(v, json_int),
    "duration_range": lambda v: json_pair(v, json_real),
    "pose_changes": lambda v: json_list(v, lambda p: json_pair(p, json_real)),
    "replace_distances": lambda v: json_list(v, json_real),
    "methods": lambda v: json_list(v, ScoringMethod),
}


def _verification_pose(alpha_deg: float, delta_x: float) -> DevicePose:
    """REFERENCE_POSE tilted by alpha_deg and moved back by delta_x."""
    if not (alpha_deg or delta_x):
        return REFERENCE_POSE
    return REFERENCE_POSE.with_(x=REFERENCE_POSE.x + delta_x, alpha=math.radians(alpha_deg))


def _pose_label(alpha_deg: float, delta_x: float) -> str:
    return f"a{alpha_deg:g}_dx{delta_x:g}"


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


def _measure(config: ExperimentConfig, job) -> TdoaDynamic:
    """Render one utterance and measure its per-phoneme delay dynamic.

    job is (labels, user_model, pose, scenario, seed); scenario None
    renders live speech. This is the unit of work run_experiment maps
    over its worker processes, so it ships no recording back.
    """
    labels, user_model, pose, scenario, seed = job
    if scenario is None:
        utt = synthesize_live(
            labels, user_model, pose, config.sample_rate, seed,
            config.noise_snr_db, duration_range=config.duration_range,
        )
    else:
        utt = synthesize_attack(
            labels, user_model, pose, scenario, config.sample_rate, seed,
            config.noise_snr_db, duration_range=config.duration_range,
        )
    return measure_dynamic(utt.recording, utt.segments)


def _plan(config: ExperimentConfig, model, poses) -> tuple:
    """Draw every random choice of the experiment from the one seeded
    stream, in a fixed order, and lay the renders out as a flat job list.

    Returns (jobs, passphrases), with (user_id, passphrase_id, band,
    enroll, rows) per passphrase. enroll lists the job indexes of
    the enrollment trials: the passphrase's own for text-dependent
    profiles, the user's for text-independent ones. rows lists (kind,
    pose index, job index) in report order.
    """
    rng = np.random.default_rng(config.seed)
    pose0 = REFERENCE_POSE
    labels_pool = sorted(model.labels)
    ver_poses = [_verification_pose(alpha_deg, delta_x) for alpha_deg, delta_x in poses]
    jobs = []
    passphrases = []

    def job(labels, user_model, pose, scenario=None) -> int:
        jobs.append(
            (tuple(labels), user_model, pose, scenario, int(rng.integers(0, 2**31 - 1)))
        )
        return len(jobs) - 1

    for user_idx in range(config.users):
        user_model = model.perturbed(rng)
        user_enroll = []
        if config.mode == ProfileMode.TEXT_INDEPENDENT:
            order = list(model.labels)
            for _ in range(config.enroll_trials):
                rng.shuffle(order)
                user_enroll.append(job(order, user_model, pose0))

        for pp_idx in range(config.passphrases_per_user):
            labels, band = _sample_passphrase(rng, config, labels_pool)
            enroll = user_enroll
            if config.mode == ProfileMode.TEXT_DEPENDENT:
                enroll = [
                    job(labels, user_model, pose0)
                    for _ in range(config.enroll_trials)
                ]
            rows = []
            for pose_idx, ver_pose in enumerate(ver_poses):
                for _ in range(config.live_trials):
                    rows.append(("live", pose_idx, job(labels, user_model, ver_pose)))
                for _ in range(config.static_attacks):
                    scenario = AttackScenario(
                        kind=AttackKind.STATIC_PLAYBACK,
                        source_offset=(
                            float(rng.uniform(-0.03, 0.01)),
                            float(rng.uniform(-0.04, 0.03)),
                        ),
                    )
                    rows.append(
                        ("static_playback", pose_idx, job(labels, user_model, ver_pose, scenario))
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
                    rows.append(
                        ("mobile_playback", pose_idx, job(labels, user_model, ver_pose, scenario))
                    )
                for distance in config.replace_distances:
                    for _ in range(config.replace_attacks):
                        scenario = AttackScenario(
                            kind=AttackKind.REPLACE,
                            recorder_distance_m=float(distance),
                        )
                        rows.append(
                            (f"replace_{distance:g}", pose_idx,
                             job(labels, user_model, ver_pose, scenario))
                        )
            passphrases.append(
                (f"user{user_idx:02d}", f"pp{pp_idx:02d}", band, enroll, rows)
            )
    return jobs, passphrases


def run_experiment(config: ExperimentConfig) -> dict:
    """Generate a simulated corpus from the packaged source model, enroll,
    score, and aggregate.

    Returns the metrics report as a plain dict (see write_report for
    the file outputs). Reproducible: a config with the same seed gives
    the identical report, whatever the number of workers.

    The renders run in forked processes of tdoa.fork_map's pool, one per
    CPU this process may run on but at most one per render, while this
    process waits; with one CPU, in this process. A failing render raises
    the lowest-indexed one's error at any worker count.
    """
    config.validate()
    model = load_source_model()
    poses = [(0.0, 0.0)] + [tuple(p) for p in config.pose_changes]
    jobs, passphrases = _plan(config, model, poses)
    dynamics = fork_map(functools.partial(_measure, config), jobs)

    rows = []
    for user_id, passphrase_id, band, enroll, pp_rows in passphrases:
        profile = enroll_from_dynamics(
            user_id, config.mode, [dynamics[j] for j in enroll], REFERENCE_POSE, passphrase_id,
        )
        for kind, pose_idx, j in pp_rows:
            alpha_deg, delta_x = poses[pose_idx]
            move = (math.radians(alpha_deg), delta_x) if config.transform else (0.0, 0.0)
            sim = profile.score(dynamics[j], passphrase_id, *move)
            rows.append(
                {
                    "kind": kind,
                    "user": user_id,
                    "passphrase": passphrase_id,
                    "band": band,
                    "pose": _pose_label(alpha_deg, delta_x),
                    **{m.value: sim.selected(m) for m in config.methods},
                }
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


def _split(rows, name, **match) -> tuple:
    """The live and the attack `name` scores of the rows that hold every
    value in match."""
    picked = [r for r in rows if all(r[k] == v for k, v in match.items())]
    return (
        [r[name] for r in picked if r["kind"] == "live"],
        [r[name] for r in picked if r["kind"] != "live"],
    )


def _aggregate(config: ExperimentConfig, rows) -> dict:
    base_pose = _pose_label(0.0, 0.0)
    report = {
        "config": {
            "seed": config.seed,
            "mode": config.mode.value,
            "users": config.users,
            "passphrases_per_user": config.passphrases_per_user,
            "live_trials": config.live_trials,
            "methods": [m.value for m in config.methods],
            "transform": config.transform,
        },
        "methods": {},
        "rows": rows,
    }

    for name in report["config"]["methods"]:
        live0, att0 = _split(rows, name, pose=base_pose)
        block = {"overall": None, "by_attack": {}, "by_band": {}, "by_pose": {}}
        if live0 and att0:
            overall = _metric_block(live0, att0, config.threshold)
            block["overall"] = overall
            operating_threshold = overall["threshold"]
            roc_points = roc(LabeledScoreSet(live0, att0))
            block["roc"] = [[t, tar, far] for t, tar, far in roc_points]
            for kind in sorted({r["kind"] for r in rows if r["kind"] != "live"}):
                _, att_k = _split(rows, name, kind=kind, pose=base_pose)
                if att_k:
                    block["by_attack"][kind] = _metric_block(live0, att_k, operating_threshold)
            for band in sorted({r["band"] for r in rows}):
                live_b, att_b = _split(rows, name, band=band, pose=base_pose)
                if live_b and att_b:
                    block["by_band"][band] = _metric_block(live_b, att_b)
            for pose in sorted({r["pose"] for r in rows}):
                live_p, att_p = _split(rows, name, pose=pose)
                if live_p and att_p:
                    block["by_pose"][pose] = _metric_block(live_p, att_p, operating_threshold)
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
