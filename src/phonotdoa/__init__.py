"""phonotdoa: replay-attack detection from per-phoneme stereo delays.

An utterance spoken into a handset held near the mouth produces a
phoneme-by-phoneme pattern of arrival-time differences between the two
microphones. That pattern tracks the talker's vocal geometry and
collapses or flattens under replayed audio, so comparing it against an
enrolled profile separates live speech from replay attacks. The package
also ships a geometric simulator that renders ground-truthed scenes, so
every claim is testable without human subjects.
"""

__version__ = "0.1.0"

from .audio_io import StereoRecording, load_wav, write_wav
from .errors import PhonotdoaError
from .geometry import (
    REFERENCE_POSE,
    DevicePose,
    estimate_face_distance,
    make_beep,
    pose_to_tdoa,
    solve_source_distance,
    transform_tdoa,
)
from .phonemes import INVENTORY, PhonemeInventory
from .profiles import (
    PhonemeTemplate,
    ProfileMode,
    UserProfile,
    assemble_template,
    enroll_from_dynamics,
    enroll_text_dependent,
    enroll_text_independent,
    load_profile,
    normalize_dynamic,
    save_profile,
)
from .scoring import (
    Decision,
    ScoringMethod,
    SimilarityScore,
    Verdict,
    decide,
    score_dynamic,
)
from .segmentation import PhonemeSegment, load_alignment
from .simulator import (
    AttackKind,
    AttackScenario,
    synthesize_attack,
    synthesize_beep_scene,
    synthesize_live,
)
from .sourcemodel import VocalSourceModel, load_source_model
from .tdoa import (
    DeviceSpec,
    Method,
    TdoaDynamic,
    TdoaMeasurement,
    estimate_tdoa,
    gcc_phat,
    measure_dynamic,
    normalized_cross_correlation,
)
from .evaluation import (
    ExperimentConfig,
    LabeledScoreSet,
    accuracy,
    eer,
    roc,
    run_experiment,
)
