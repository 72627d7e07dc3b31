"""phonotdoa: replay-attack detection from per-phoneme stereo delays.

An utterance spoken into a handset held near the mouth produces a
phoneme-by-phoneme pattern of arrival-time differences between the two
microphones. That pattern tracks the talker's vocal geometry and
collapses or flattens under replayed audio, so comparing it against an
enrolled profile separates live speech from replay attacks. The package
also ships a geometric simulator that renders ground-truthed scenes, so
every claim is testable without human subjects.

Import names from their modules (`from phonotdoa.profiles import
load_profile`): the package holds only __version__ and loads no module.
"""

__version__ = "0.1.0"
