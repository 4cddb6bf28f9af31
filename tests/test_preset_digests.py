"""Every figure preset's CSV is byte-identical to its recorded digest.

`scripts/preset_digests.py` records the SHA-256 of each preset's rendered
CSV; this is its `--check`, one test per preset, so a moved cell on any
preset row fails the suite and names the preset.
"""

import hashlib
import json
from pathlib import Path

import pytest

from mzphase.sweep import figure_preset, run_sweep

DIGESTS = json.loads((Path(__file__).resolve().parent.parent / "scripts" / "preset_digests.json").read_text())


def test_every_preset_has_a_digest():
    assert len(DIGESTS) == 19


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_preset_csv_matches_recorded_digest(name):
    number = name.rstrip("ab")
    text = run_sweep(figure_preset(int(number), panel=name[len(number):])).render()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DIGESTS[name]
