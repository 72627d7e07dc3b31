"""Target-delay table behind the frozen source model, and the solver
that regenerates data/vocal_source_model.json from it.

test_sourcemodel pins the shipped file to build_default_source_model()
within 1e-9 m, not bit for bit: the file was solved before the
closed-form solve_on_line, and a regeneration differs from it in the
last digits of 38 of its 44 dy values. So regenerating moves golden
digests even with PHONEME_TARGETS unchanged: the ground_truth.json of
nine simulate/* scenes (live, live_moved, replace, td1-3 and ti1-3),
though no recording, profile, verdict or report. To change the source
model, edit PHONEME_TARGETS, run
write_source_model(build_default_source_model(), path) over the shipped
file, and rewrite the golden digests (tests/golden.py --write), naming
the keys that moved.
"""

import json
import math

from phonotdoa.errors import ConfigError
from phonotdoa.geometry import REFERENCE_POSE
from phonotdoa.phonemes import INVENTORY, NASAL
from phonotdoa.sourcemodel import (
    _SOLVE_RADIUS,
    MODEL_SCHEMA_VERSION,
    PhonemeSource,
    VocalSourceModel,
    _on_line,
    _solve_dy,
)

# target delay (samples at 192 kHz, reference pose) and jitter std per
# phoneme. Vowels descend front-to-back across [52, 60]; non-nasal
# consonants span [44, 62] by place of articulation; nasals anchor near
# -30. Voiceless stops get the widest jitter, voiced stops the least.
PHONEME_TARGETS = {
    # vowels (front -> back)
    "IY": (60.0, 1.30), "IH": (59.6, 1.16), "IX": (59.1, 1.45),
    "EY": (58.7, 1.22), "EH": (58.2, 1.55), "AE": (57.8, 1.28),
    "AX": (57.3, 1.60), "ER": (56.9, 1.35), "AXR": (56.4, 1.50),
    "AH": (56.0, 1.20), "AY": (55.6, 1.42), "AW": (55.1, 1.58),
    "UX": (54.7, 1.25), "UH": (54.2, 1.48), "UW": (53.8, 1.33),
    "OY": (53.3, 1.52), "OW": (52.9, 1.18), "AO": (52.4, 1.40),
    "AA": (52.0, 1.26),
    # bilabial / labiodental
    "P": (62.0, 5.0), "B": (61.4, 0.70),
    "F": (60.5, 2.6), "V": (60.0, 0.90),
    # dental / alveolar
    "TH": (59.0, 2.2), "DH": (58.5, 1.00),
    "T": (56.0, 6.0), "D": (55.5, 0.80),
    "S": (54.5, 2.4), "Z": (54.0, 1.10),
    "L": (53.0, 1.00), "R": (51.5, 1.10),
    # palatal
    "SH": (50.5, 2.8), "ZH": (50.0, 1.20),
    "CH": (49.5, 5.5), "JH": (49.0, 1.15),
    "Y": (48.5, 0.90),
    # velar / glottal
    "K": (47.5, 10.0), "G": (45.5, 0.90),
    "W": (47.0, 1.00), "WH": (46.5, 2.2),
    "HH": (44.0, 2.0),
    # nasals: sources high in the head, top mic closer
    "M": (-29.0, 1.9), "N": (-30.0, 2.1), "NG": (-31.0, 2.3),
}


def _solve_dz(target: float, dy: float) -> float:
    """Point on the vertical line y = dy (used to place the nasal sources)."""
    dz = _on_line(target, h=REFERENCE_POSE.x - dy)
    if not 0.05 <= dz <= math.sqrt(max(_SOLVE_RADIUS**2 - dy * dy, 0.0)):
        raise ConfigError(f"delay {target:.2f} not reachable on the y = {dy:.3f} m line")
    return dz


def build_default_source_model() -> VocalSourceModel:
    """Solve the shipped coordinates from the target-delay table."""
    sources = {}
    for label, (target, jitter) in PHONEME_TARGETS.items():
        if INVENTORY.articulation_class(label) == NASAL:
            dy, dz = 0.0, _solve_dz(target, 0.0)
        else:
            dy, dz = _solve_dy(target, 0.0), 0.0
        sources[label] = PhonemeSource(label, dy, dz, jitter)
    return VocalSourceModel(sources)


def write_source_model(model: VocalSourceModel, path) -> None:
    """Write a model in the packaged file's layout (sorted, 2-space indent)."""
    doc = {
        "version": MODEL_SCHEMA_VERSION,
        "phonemes": {
            label: {"dy": src.dy, "dz": src.dz, "jitter_std": src.jitter_std}
            for label, src in model.sources.items()
        },
    }
    with open(path, "w") as f:
        f.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
