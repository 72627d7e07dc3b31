"""User delay profiles: enrollment, device normalization, persistence.

Text-dependent profiles store one template sequence per enrolled
passphrase (mean/std per position over >= 3 trials). Text-independent
profiles store one template per inventory phoneme and assemble passphrase
templates on demand. Enrollment measures every delay with GCC-PHAT, as
verification does. Raw per-trial delays are kept alongside the
statistics so they can always be recomputed or re-weighted without
re-enrollment.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

import numpy as np

from .audio_io import (
    FIELD_ERRORS, MAX_SAMPLE_RATE, MIN_SAMPLE_RATE, json_int, json_real, read_json,
    write_json,
)
from .errors import NoSolutionError, SchemaError
from .geometry import DevicePose, transform_tdoa
from .phonemes import INVENTORY
from .tdoa import DeviceSpec, TdoaDynamic, estimate_tdoa, measure_dynamic

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

    def templates_at(
        self, labels, passphrase_id: str = None, alpha: float = 0.0, delta_x: float = 0.0
    ) -> list:
        """The templates to score an utterance of labels against, moved
        from the enrollment pose to a handset tilted by alpha about its
        top mic and moved back by delta_x, at the profile's sample rate.

        A text-independent profile gives its inventory templates in label
        order; a text-dependent one the named passphrase's, or the only
        passphrase's when none is named. With no pose change the templates
        are returned as they are. A template whose delay admits no on-axis
        source (e.g. a nasal, whose source sits high above the mouth)
        keeps its mean.
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
            templates = self.templates_for(passphrase_id)
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
        user_id, ProfileMode.TEXT_DEPENDENT, dynamics, pose, device, passphrase_id
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
    return enroll_from_dynamics(
        user_id, ProfileMode.TEXT_INDEPENDENT, dynamics, pose, device
    )


def enroll_from_dynamics(
    user_id: str,
    mode: ProfileMode,
    dynamics,
    pose: DevicePose,
    device: DeviceSpec,
    passphrase_id: str = None,
) -> UserProfile:
    """Build a profile from the measured delay dynamics of enrollment trials.

    Text-dependent: >= 3 trials sharing the exact phoneme label sequence;
    per position the template stores mean and std over trials.
    Text-independent: per phoneme, mean and std over every measurement
    of it in any trial; each inventory phoneme needs >= 3 measurements.
    All trials must share the sample rate.
    """
    dynamics = list(dynamics)
    rates = {d.sample_rate for d in dynamics}
    if len(rates) > 1:
        raise SchemaError("trials differ in sample rate")
    rate = rates.pop() if rates else None
    if mode == ProfileMode.TEXT_DEPENDENT:
        if len(dynamics) < MIN_TRIALS:
            raise SchemaError(
                f"need at least {MIN_TRIALS} trials, got {len(dynamics)}"
            )
        labels = dynamics[0].labels
        for d in dynamics:
            if d.labels != labels:
                raise SchemaError(f"trial labels {d.labels} != {labels}")
        stacked = np.stack([d.delays for d in dynamics])  # trials x positions
        templates = [
            _template_from_delays(label, stacked[:, i])
            for i, label in enumerate(labels)
        ]
        return UserProfile(
            user_id=user_id,
            mode=mode,
            device=device,
            enrollment_pose=pose,
            sample_rate=rate,
            passphrase_templates={passphrase_id: templates},
        )

    delays = {}
    for d in dynamics:
        for m in d.measurements:
            delays.setdefault(m.label, []).append(m.delay_samples)
    missing = sorted(set(INVENTORY.symbols) - set(delays))
    if missing:
        raise SchemaError(f"missing phonemes: {', '.join(missing)}")
    short = sorted(label for label, ds in delays.items() if len(ds) < MIN_TRIALS)
    if short:
        raise SchemaError(
            f"phonemes with fewer than {MIN_TRIALS} samples: {', '.join(short)}"
        )
    unknown = sorted(label for label in delays if label not in INVENTORY)
    if unknown:
        raise SchemaError(f"unknown phoneme label {unknown[0]!r}")
    return UserProfile(
        user_id=user_id,
        mode=mode,
        device=device,
        enrollment_pose=pose,
        sample_rate=rate,
        phoneme_templates={
            label: _template_from_delays(label, delays[label])
            for label in sorted(delays)
        },
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
        mean_delay=json_real(doc["mean_delay"]),
        std_delay=json_real(doc["std_delay"]),
        trial_count=json_int(doc["trial_count"]),
        delays=tuple(json_real(d) for d in doc.get("delays", ())),
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
            mic_spacing_m=json_real(doc["device"]["mic_spacing_m"]),
            name=str(doc["device"].get("name", "generic")),
        )
        pose = DevicePose(**{k: json_real(v) for k, v in doc["pose"].items()})
        profile = UserProfile(
            user_id=str(doc["user_id"]),
            mode=ProfileMode(doc["mode"]),
            device=device,
            enrollment_pose=pose,
            sample_rate=json_int(doc["sample_rate"]),
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
    rate = profile.sample_rate
    if rate <= 0:
        raise SchemaError(f"{path}: sample rate {rate} not positive")
    if not MIN_SAMPLE_RATE <= rate <= MAX_SAMPLE_RATE:
        raise SchemaError(
            f"{path}: sample rate {rate} outside [{MIN_SAMPLE_RATE}, {MAX_SAMPLE_RATE}] Hz"
        )
    return profile
