import json

from golden import DIGESTS, build_info, digests, moved_keys


def test_outputs_match_golden_digests(tmp_path):
    # every CLI output for the fixed inputs of golden.py, byte for byte
    expected = json.loads(DIGESTS.read_text())
    moved = moved_keys(expected["digests"], digests(tmp_path))
    written = {k: expected[k] for k in build_info()}
    assert not moved, (
        f"moved: {moved}; digests written with {written}, running {build_info()}"
    )
