"""User delay profiles: enrollment, scoring against them, device
normalization, persistence.

Text-dependent profiles store one template sequence per enrolled
passphrase (the delays of >= 3 trials per position). Text-independent
profiles store one template per inventory phoneme and assemble passphrase
templates on demand. Enrollment measures every delay with GCC-PHAT, as
verification does, and records the device the trials were measured on.
UserProfile.score is the one path from a measured dynamic to a score,
shared by `verify` and run_experiment. A profile file holds each
template's delays only; load_profile checks them as enrollment checks
its trials and rebuilds each template's mean and std.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .audio_io import (
    FIELD_ERRORS, MAX_SAMPLE_RATE, MIN_SAMPLE_RATE, check_version, json_int, json_real,
    json_str, read_json, write_json,
)
from .errors import NoSolutionError, SchemaError
from .geometry import DevicePose, transform_tdoa
from .phonemes import INVENTORY
from .scoring import ScoringMethod, SimilarityScore, score_dynamic
from .tdoa import DeviceSpec, TdoaDynamic, estimate_tdoa, measure_dynamic

PROFILE_SCHEMA_VERSION = 2
MIN_TRIALS = 3


class ProfileMode(enum.Enum):
    TEXT_DEPENDENT = "text_dependent"
    TEXT_INDEPENDENT = "text_independent"


@dataclass(frozen=True)
class PhonemeTemplate:
    label: str
    mean_delay: float
    std_delay: float
    delays: tuple = ()  # raw per-trial values

    def __post_init__(self):
        if self.std_delay < 0:
            raise SchemaError("std_delay must be non-negative")
        object.__setattr__(self, "delays", tuple(float(d) for d in self.delays))


def _template_from_delays(label: str, delays) -> PhonemeTemplate:
    arr = np.asarray(delays, dtype=float)
    return PhonemeTemplate(
        label=label,
        mean_delay=float(np.mean(arr)),
        std_delay=float(np.std(arr, ddof=1)),
        delays=tuple(arr),
    )


@dataclass(frozen=True)
class UserProfile:
    user_id: str
    mode: ProfileMode
    device: DeviceSpec
    enrollment_pose: DevicePose
    sample_rate: int
    passphrase_templates: dict = field(default_factory=dict)
    phoneme_templates: dict = field(default_factory=dict)

    def templates_at(
        self, labels, passphrase_id: str = None, alpha: float = 0.0, delta_x: float = 0.0
    ) -> list:
        """The templates to score an utterance of labels against, moved
        from the enrollment pose to a handset tilted by alpha about its
        top mic and moved back by delta_x, at the profile's sample rate.

        A text-independent profile gives its inventory templates in label
        order; a text-dependent one the named passphrase's, or the only
        passphrase's when none is named. With no pose change the templates
        are returned as they are. A template whose delay fits a source
        neither on the mouth axis nor on the vertical line through the
        mouth, where nasals sit (transform_tdoa), keeps its mean.
        """
        if self.mode == ProfileMode.TEXT_INDEPENDENT:
            templates = assemble_template(self, labels)
        else:
            if passphrase_id is None:
                ids = sorted(self.passphrase_templates)
                if len(ids) != 1:
                    raise SchemaError(
                        f"profile holds {len(ids)} passphrases; pass --passphrase-id"
                    )
                passphrase_id = ids[0]
            try:
                templates = list(self.passphrase_templates[passphrase_id])
            except KeyError:
                raise SchemaError(
                    f"profile has no passphrase {passphrase_id!r}"
                ) from None
        if alpha == 0.0 and delta_x == 0.0:
            return templates
        moved = []
        for t in templates:
            try:
                mean = transform_tdoa(
                    t.mean_delay, self.enrollment_pose, alpha=alpha, delta_x=delta_x,
                    sample_rate=self.sample_rate,
                )
            except NoSolutionError:
                mean = t.mean_delay
            moved.append(replace(t, mean_delay=mean))
        return moved

    def score(
        self,
        dynamic: TdoaDynamic,
        passphrase_id: str = None,
        alpha: float = 0.0,
        delta_x: float = 0.0,
        method: ScoringMethod = ScoringMethod.COMBINED,
    ) -> SimilarityScore:
        """Every score of a measured dynamic against this profile, the
        templates moved by alpha and delta_x as in templates_at.

        A dynamic measured on another mic spacing (dynamic.device) or at
        another sample rate is first rescaled onto the profile's with
        normalize_dynamic. A text-independent profile scores with the
        stability weights.
        """
        if (
            dynamic.device.mic_spacing_m != self.device.mic_spacing_m
            or dynamic.sample_rate != self.sample_rate
        ):
            dynamic = normalize_dynamic(
                dynamic, dynamic.device, self.device, to_sample_rate=self.sample_rate
            )
        templates = self.templates_at(dynamic.labels, passphrase_id, alpha, delta_x)
        return score_dynamic(
            dynamic, templates, method, weighted=self.mode == ProfileMode.TEXT_INDEPENDENT,
        )


def enroll_text_dependent(
    user_id: str,
    passphrase_id: str,
    trials,
    pose: DevicePose,
    device: DeviceSpec,
) -> UserProfile:
    """Build a passphrase profile from >= 3 (recording, segments) trials."""
    dynamics = [
        measure_dynamic(recording, segments, device=device)
        for recording, segments in trials
    ]
    return enroll_from_dynamics(
        user_id, ProfileMode.TEXT_DEPENDENT, dynamics, pose, passphrase_id
    )


def enroll_text_independent(
    user_id: str,
    samples,
    pose: DevicePose,
    device: DeviceSpec,
) -> UserProfile:
    """Build per-phoneme templates from samples, which maps phoneme label
    -> list of (recording, segment) pairs, at least 3 per phoneme, all 44
    phonemes present."""
    dynamics = []
    for label in sorted(samples):
        for recording, segment in samples[label]:
            if segment.label != label:
                raise SchemaError(
                    f"segment labeled {segment.label!r} filed under {label!r}"
                )
            m = estimate_tdoa(recording, segment, device=device)
            dynamics.append(TdoaDynamic((m,), recording.sample_rate, device))
    return enroll_from_dynamics(user_id, ProfileMode.TEXT_INDEPENDENT, dynamics, pose)


def check_trials(mode: ProfileMode, trials) -> int:
    """The common sample rate of enrollment trials given as (sample rate,
    phoneme labels) pairs, or None for no trial. A set no profile can be
    built from raises SchemaError, so it can be refused before any delay
    is measured.

    Every trial must share the sample rate. Text-dependent: >= 3 trials
    sharing the exact phoneme label sequence. Text-independent: every
    inventory phoneme, and no other label, >= 3 times over all trials.
    """
    trials = [(rate, tuple(labels)) for rate, labels in trials]
    rates = {rate for rate, _ in trials}
    if len(rates) > 1:
        raise SchemaError("trials differ in sample rate")
    if mode == ProfileMode.TEXT_DEPENDENT:
        if len(trials) < MIN_TRIALS:
            raise SchemaError(
                f"need at least {MIN_TRIALS} trials, got {len(trials)}"
            )
        first = trials[0][1]
        for _, labels in trials:
            if labels != first:
                raise SchemaError(f"trial labels {labels} != {first}")
    else:
        counts = Counter(label for _, labels in trials for label in labels)
        missing = sorted(set(INVENTORY.symbols) - set(counts))
        if missing:
            raise SchemaError(f"missing phonemes: {', '.join(missing)}")
        short = sorted(label for label, n in counts.items() if n < MIN_TRIALS)
        if short:
            raise SchemaError(
                f"phonemes with fewer than {MIN_TRIALS} samples: {', '.join(short)}"
            )
        unknown = sorted(label for label in counts if label not in INVENTORY)
        if unknown:
            raise SchemaError(f"unknown phoneme label {unknown[0]!r}")
    return rates.pop() if rates else None


def enroll_from_dynamics(
    user_id: str,
    mode: ProfileMode,
    dynamics,
    pose: DevicePose,
    passphrase_id: str = None,
) -> UserProfile:
    """Build a profile from the measured delay dynamics of enrollment trials,
    which must pass check_trials and share one device, the one the profile
    records.

    Text-dependent: per position the template holds the delays of every
    trial. Text-independent: per phoneme, every measurement of it in any
    trial. Each template also holds the mean and std of its delays.
    """
    dynamics = list(dynamics)
    if len({d.device for d in dynamics}) > 1:
        raise SchemaError("trials differ in device")
    rate = check_trials(mode, [(d.sample_rate, d.labels) for d in dynamics])
    passphrases, phonemes = {}, {}
    if mode == ProfileMode.TEXT_DEPENDENT:
        stacked = np.stack([d.delays for d in dynamics])  # trials x positions
        passphrases[passphrase_id] = [
            _template_from_delays(label, stacked[:, i])
            for i, label in enumerate(dynamics[0].labels)
        ]
    else:
        delays = {}
        for d in dynamics:
            for m in d.measurements:
                delays.setdefault(m.label, []).append(m.delay_samples)
        for label in sorted(delays):
            phonemes[label] = _template_from_delays(label, delays[label])
    return UserProfile(
        user_id=user_id,
        mode=mode,
        device=dynamics[0].device,
        enrollment_pose=pose,
        sample_rate=rate,
        passphrase_templates=passphrases,
        phoneme_templates=phonemes,
    )


def assemble_template(profile: UserProfile, labels) -> list:
    """Per-phoneme templates in the order of the requested sequence."""
    if profile.mode != ProfileMode.TEXT_INDEPENDENT:
        raise SchemaError("assemble_template needs a text-independent profile")
    out = []
    for label in labels:
        if label not in profile.phoneme_templates:
            raise SchemaError(
                f"profile has no template for {label!r}"
            )
        out.append(profile.phoneme_templates[label])
    return out


def normalize_dynamic(
    dynamic: TdoaDynamic,
    from_device: DeviceSpec,
    to_device: DeviceSpec,
    to_sample_rate: int = None,
) -> TdoaDynamic:
    """Rescale delays onto another device's mic spacing (and optionally
    another sample rate). Linear in both, hence exactly invertible."""
    rate = to_sample_rate if to_sample_rate is not None else dynamic.sample_rate
    factor = (to_device.mic_spacing_m / from_device.mic_spacing_m) * (
        rate / dynamic.sample_rate
    )
    return TdoaDynamic(
        measurements=tuple(m.scaled(factor) for m in dynamic.measurements),
        sample_rate=rate,
        device=to_device,
    )


# --- persistence ---


def _template_to_json(t: PhonemeTemplate) -> dict:
    return {"label": t.label, "delays": list(t.delays)}


def _template_from_json(doc: dict) -> tuple:
    """The (label, delays) of a stored template, which holds nothing else."""
    if set(doc) != {"label", "delays"}:
        raise ValueError(f"template keys {sorted(doc)} are not label and delays")
    return json_str(doc["label"]), [json_real(d) for d in doc["delays"]]


def _check_stored(mode: ProfileMode, rate: int, passphrases: dict, phonemes: dict) -> None:
    """Refuse stored (label, delays) templates that enrollment would not
    have written: they must pass check_trials as the trials they came
    from, and only the profile's mode may hold templates."""
    td = mode == ProfileMode.TEXT_DEPENDENT
    if (phonemes if td else passphrases) or not (passphrases if td else phonemes):
        kind = "passphrases" if td else "phoneme templates"
        raise SchemaError(f"a {mode.value} profile must hold {kind} and nothing else")
    for pid, positions in passphrases.items():
        counts = {len(delays) for _, delays in positions}
        if len(counts) != 1:
            raise SchemaError(f"passphrase {pid!r} holds delay counts {sorted(counts)}, not one")
        check_trials(mode, [(rate, [label for label, _ in positions])] * counts.pop())
    if any(key != label for key, (label, _) in phonemes.items()):
        raise SchemaError("a phoneme template is filed under another label")
    if not td:
        check_trials(mode, [(rate, [label] * len(d)) for label, d in phonemes.values()])


def save_profile(profile: UserProfile, path) -> None:
    doc = {
        "version": PROFILE_SCHEMA_VERSION,
        "user_id": profile.user_id,
        "mode": profile.mode.value,
        "sample_rate": profile.sample_rate,
        "device": {"name": profile.device.name, "mic_spacing_m": profile.device.mic_spacing_m},
        "pose": asdict(profile.enrollment_pose),
        "passphrases": {
            pid: [_template_to_json(t) for t in templates]
            for pid, templates in profile.passphrase_templates.items()
        },
        "phonemes": {label: _template_to_json(t) for label, t in profile.phoneme_templates.items()},
    }
    write_json(path, doc)


def load_profile(path) -> UserProfile:
    """Read a profile file, refuse it unless its delays pass _check_stored,
    and rebuild every template from its delays as enrollment does."""
    doc = read_json(path, SchemaError)
    check_version(path, doc, "profile", PROFILE_SCHEMA_VERSION, SchemaError)
    try:
        spec = doc["device"]
        device = DeviceSpec(json_real(spec["mic_spacing_m"]), json_str(spec.get("name", "generic")))
        pose = DevicePose(**{k: json_real(v) for k, v in doc["pose"].items()})
        user_id = json_str(doc["user_id"])
        mode = ProfileMode(doc["mode"])
        rate = json_int(doc["sample_rate"])
        passphrases = {
            pid: [_template_from_json(t) for t in templates]
            for pid, templates in doc.get("passphrases", {}).items()
        }
        phonemes = {
            label: _template_from_json(t) for label, t in doc.get("phonemes", {}).items()
        }
    except FIELD_ERRORS as exc:
        raise SchemaError(f"{path}: malformed profile: {exc!r}") from exc
    if rate <= 0:
        raise SchemaError(f"{path}: sample rate {rate} not positive")
    if not MIN_SAMPLE_RATE <= rate <= MAX_SAMPLE_RATE:
        raise SchemaError(
            f"{path}: sample rate {rate} outside [{MIN_SAMPLE_RATE}, {MAX_SAMPLE_RATE}] Hz"
        )
    # transform_tdoa solves with the bottom mic at -l2 and no enrollment
    # tilt; any other pose would move templates to wrong delays
    if pose.alpha != 0.0 or abs(pose.l1 + pose.l2 - pose.l) > 1e-9:
        raise SchemaError(f"{path}: enrollment pose {pose} is not vertical with l = l1 + l2")
    try:
        _check_stored(mode, rate, passphrases, phonemes)
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from None
    return UserProfile(
        user_id, mode, device, pose, rate,
        passphrase_templates={
            pid: [_template_from_delays(*t) for t in templates]
            for pid, templates in passphrases.items()
        },
        phoneme_templates={label: _template_from_delays(*t) for label, t in phonemes.items()},
    )
