"""Every pinned CLI output keeps the SHA-256 that ``output_hashes.json`` records."""

import json
from pathlib import Path

import pytest

import output_hashes

MANIFEST = json.loads((Path(__file__).parent / "output_hashes.json").read_text())


def test_outputs_match_the_manifest():
    recorded = MANIFEST["platform"]
    differences = [
        f"{key}: {recorded.get(key)!r} in the manifest, {value!r} here"
        for key, value in output_hashes.platform().items()
        if recorded.get(key) != value
    ]
    if differences:
        pytest.skip("the manifest was recorded on another platform; " + "; ".join(differences))
    assert output_hashes.output_hashes() == MANIFEST["outputs"]
