"""The 44-symbol ARPAbet phoneme inventory and articulation classes.

ARPAbet is used as the label alphabet because it is ASCII-safe. The
inventory is the 39 CMU symbols plus AX, AXR, IX, UX and WH, giving 19
vowels and 25 consonants.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SchemaError

# articulation classes
VOWEL = "vowel"
STOP = "stop"
AFFRICATE = "affricate"
FRICATIVE = "fricative"
NASAL = "nasal"
LIQUID = "liquid"
GLIDE = "glide"

UNLABELED = "?"

_VOWELS = (
    "IY", "IH", "IX", "EY", "EH", "AE", "AX", "ER", "AXR", "AH",
    "AY", "AW", "UX", "UH", "UW", "OY", "OW", "AO", "AA",
)

# label -> (articulation class, voiced)
_CONSONANTS = {
    "P": (STOP, False), "B": (STOP, True),
    "T": (STOP, False), "D": (STOP, True),
    "K": (STOP, False), "G": (STOP, True),
    "CH": (AFFRICATE, False), "JH": (AFFRICATE, True),
    "F": (FRICATIVE, False), "V": (FRICATIVE, True),
    "TH": (FRICATIVE, False), "DH": (FRICATIVE, True),
    "S": (FRICATIVE, False), "Z": (FRICATIVE, True),
    "SH": (FRICATIVE, False), "ZH": (FRICATIVE, True),
    "HH": (FRICATIVE, False),
    "M": (NASAL, True), "N": (NASAL, True), "NG": (NASAL, True),
    "L": (LIQUID, True), "R": (LIQUID, True),
    "W": (GLIDE, True), "Y": (GLIDE, True), "WH": (GLIDE, False),
}


@dataclass(frozen=True)
class PhonemeInventory:
    """Fixed set of phoneme labels with per-symbol articulation class."""

    classes: dict
    voiced: dict

    @property
    def symbols(self) -> frozenset:
        return frozenset(self.classes)

    @property
    def vowels(self) -> tuple:
        return tuple(s for s, c in self.classes.items() if c == VOWEL)

    @property
    def consonants(self) -> tuple:
        return tuple(s for s, c in self.classes.items() if c != VOWEL)

    def __contains__(self, label: str) -> bool:
        return label in self.classes

    def articulation_class(self, label: str) -> str:
        try:
            return self.classes[label]
        except KeyError:
            raise SchemaError(f"unknown phoneme label {label!r}") from None

    def is_vowel(self, label: str) -> bool:
        return self.articulation_class(label) == VOWEL

    def is_voiced(self, label: str) -> bool:
        if label not in self.voiced:
            raise SchemaError(f"unknown phoneme label {label!r}")
        return self.voiced[label]

    def validate(self, label: str) -> str:
        """Return the label if known (UNLABELED passes), else raise."""
        if label != UNLABELED and label not in self:
            raise SchemaError(f"unknown phoneme label {label!r}")
        return label


def default_inventory() -> PhonemeInventory:
    classes = {v: VOWEL for v in _VOWELS}
    voiced = {v: True for v in _VOWELS}
    for label, (cls, v) in _CONSONANTS.items():
        classes[label] = cls
        voiced[label] = v
    inv = PhonemeInventory(classes=classes, voiced=voiced)
    assert len(inv.symbols) == 44
    return inv


INVENTORY = default_inventory()
