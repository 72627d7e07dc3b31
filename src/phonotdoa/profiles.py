"""User delay profiles: enrollment, device normalization, persistence.

Text-dependent profiles store one template sequence per enrolled
passphrase (mean/std per position over >= 3 trials). Text-independent
profiles store one template per inventory phoneme and assemble passphrase
templates on demand. Raw per-trial delays are kept alongside the
statistics so they can always be recomputed or re-weighted without
re-enrollment.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .audio_io import FIELD_ERRORS, read_json, write_json
from .errors import SchemaError
from .geometry import DevicePose
from .phonemes import INVENTORY, PhonemeInventory
from .tdoa import DeviceSpec, Method, TdoaDynamic, estimate_tdoa, measure_dynamic

PROFILE_SCHEMA_VERSION = 1
MIN_TRIALS = 3

# Templates enrolled from identical trials would have zero std and an
# infinite score density; scoring floors the std at this value.
STD_FLOOR_SAMPLES = 0.5


class ProfileMode(enum.Enum):
    TEXT_DEPENDENT = "text_dependent"
    TEXT_INDEPENDENT = "text_independent"


@dataclass(frozen=True)
class PhonemeTemplate:
    label: str
    mean_delay: float
    std_delay: float
    trial_count: int
    delays: tuple = ()  # raw per-trial values

    def __post_init__(self):
        if self.std_delay < 0:
            raise SchemaError("std_delay must be non-negative")
        if self.trial_count < 1:
            raise SchemaError("trial_count must be at least 1")
        object.__setattr__(self, "delays", tuple(float(d) for d in self.delays))


def _template_from_delays(label: str, delays) -> PhonemeTemplate:
    arr = np.asarray(delays, dtype=float)
    std = float(np.std(arr, ddof=1)) if len(arr) > 1 else 0.0
    return PhonemeTemplate(
        label=label,
        mean_delay=float(np.mean(arr)),
        std_delay=std,
        trial_count=len(arr),
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

    def templates_for(self, passphrase_id: str) -> list:
        try:
            return list(self.passphrase_templates[passphrase_id])
        except KeyError:
            raise SchemaError(
                f"profile has no passphrase {passphrase_id!r}"
            ) from None


def enroll_text_dependent(
    user_id: str,
    passphrase_id: str,
    trials,
    pose: DevicePose,
    device: DeviceSpec,
    method: Method = Method.GCC_PHAT,
) -> UserProfile:
    """Build a passphrase profile from >= 3 (recording, segments) trials.

    All trials must share the sample rate and the exact phoneme label
    sequence; per position the template stores mean and std over trials.
    """
    trials = list(trials)
    if len(trials) < MIN_TRIALS:
        raise SchemaError(
            f"need at least {MIN_TRIALS} trials, got {len(trials)}"
        )
    rate = trials[0][0].sample_rate
    labels = tuple(seg.label for seg in trials[0][1])
    per_trial = []
    for recording, segments in trials:
        if recording.sample_rate != rate:
            raise SchemaError("trials differ in sample rate")
        trial_labels = tuple(seg.label for seg in segments)
        if trial_labels != labels:
            raise SchemaError(
                f"trial labels {trial_labels} != {labels}"
            )
        dyn = measure_dynamic(recording, segments, method=method, device=device)
        per_trial.append(dyn.delays)
    stacked = np.stack(per_trial)  # trials x positions
    templates = [
        _template_from_delays(label, stacked[:, i])
        for i, label in enumerate(labels)
    ]
    return UserProfile(
        user_id=user_id,
        mode=ProfileMode.TEXT_DEPENDENT,
        device=device,
        enrollment_pose=pose,
        sample_rate=rate,
        passphrase_templates={passphrase_id: templates},
    )


def enroll_text_independent(
    user_id: str,
    samples,
    pose: DevicePose,
    device: DeviceSpec,
    method: Method = Method.GCC_PHAT,
    inventory: PhonemeInventory = INVENTORY,
) -> UserProfile:
    """Build per-phoneme templates covering the whole inventory.

    samples maps phoneme label -> list of (recording, segment) pairs,
    at least 3 per phoneme, all 44 phonemes present.
    """
    missing = sorted(set(inventory.symbols) - set(samples))
    if missing:
        raise SchemaError(
            f"missing phonemes: {', '.join(missing)}"
        )
    short = sorted(
        label for label, pairs in samples.items() if len(pairs) < MIN_TRIALS
    )
    if short:
        raise SchemaError(
            f"phonemes with fewer than {MIN_TRIALS} samples: {', '.join(short)}"
        )
    rate = None
    templates = {}
    for label in sorted(samples):
        if label not in inventory:
            raise SchemaError(f"unknown phoneme label {label!r}")
        delays = []
        for recording, segment in samples[label]:
            if rate is None:
                rate = recording.sample_rate
            elif recording.sample_rate != rate:
                raise SchemaError("samples differ in sample rate")
            if segment.label != label:
                raise SchemaError(
                    f"segment labeled {segment.label!r} filed under {label!r}"
                )
            m = estimate_tdoa(recording, segment, method=method, device=device)
            delays.append(m.delay_samples)
        templates[label] = _template_from_delays(label, delays)
    return UserProfile(
        user_id=user_id,
        mode=ProfileMode.TEXT_INDEPENDENT,
        device=device,
        enrollment_pose=pose,
        sample_rate=rate,
        phoneme_templates=templates,
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


def _pose_to_json(pose: DevicePose) -> dict:
    return {"x": pose.x, "l1": pose.l1, "l2": pose.l2, "l": pose.l, "alpha": pose.alpha}


def _template_to_json(t: PhonemeTemplate) -> dict:
    return {
        "label": t.label,
        "mean_delay": t.mean_delay,
        "std_delay": t.std_delay,
        "trial_count": t.trial_count,
        "delays": list(t.delays),
    }


def _template_from_json(doc: dict) -> PhonemeTemplate:
    return PhonemeTemplate(
        label=str(doc["label"]),
        mean_delay=float(doc["mean_delay"]),
        std_delay=float(doc["std_delay"]),
        trial_count=int(doc["trial_count"]),
        delays=tuple(doc.get("delays", ())),
    )


def save_profile(profile: UserProfile, path) -> None:
    doc = {
        "version": PROFILE_SCHEMA_VERSION,
        "user_id": profile.user_id,
        "mode": profile.mode.value,
        "sample_rate": profile.sample_rate,
        "device": {
            "name": profile.device.name,
            "mic_spacing_m": profile.device.mic_spacing_m,
        },
        "pose": _pose_to_json(profile.enrollment_pose),
        "passphrases": {
            pid: [_template_to_json(t) for t in templates]
            for pid, templates in profile.passphrase_templates.items()
        },
        "phonemes": {
            label: _template_to_json(t)
            for label, t in profile.phoneme_templates.items()
        },
    }
    write_json(path, doc)


def load_profile(path) -> UserProfile:
    doc = read_json(path, SchemaError)
    if doc.get("version") != PROFILE_SCHEMA_VERSION:
        raise SchemaError(
            f"{path}: expected profile schema version "
            f"{PROFILE_SCHEMA_VERSION}, got {doc.get('version')!r}"
        )
    try:
        device = DeviceSpec(
            mic_spacing_m=float(doc["device"]["mic_spacing_m"]),
            name=str(doc["device"].get("name", "generic")),
        )
        pose = DevicePose(**{k: float(v) for k, v in doc["pose"].items()})
        profile = UserProfile(
            user_id=str(doc["user_id"]),
            mode=ProfileMode(doc["mode"]),
            device=device,
            enrollment_pose=pose,
            sample_rate=int(doc["sample_rate"]),
            passphrase_templates={
                pid: [_template_from_json(t) for t in templates]
                for pid, templates in doc.get("passphrases", {}).items()
            },
            phoneme_templates={
                label: _template_from_json(t)
                for label, t in doc.get("phonemes", {}).items()
            },
        )
    except FIELD_ERRORS as exc:
        raise SchemaError(f"{path}: malformed profile: {exc!r}") from exc
    if profile.sample_rate <= 0:
        raise SchemaError(f"{path}: sample rate {profile.sample_rate} not positive")
    return profile
