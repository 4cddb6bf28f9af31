"""Every figure preset's CSV is byte-identical to its recorded digest.

`scripts/preset_digests.py` records the SHA-256 of each preset's rendered
CSV, once as it is and once with the oracle columns (`<name>+oracle`); this
is its `--check`, one test per rendering, so a moved cell on any preset row
fails the suite and names the preset. The digests are defined at one BLAS
thread, which tests/conftest.py pins.
"""

import ctypes
import hashlib
import json
import os
from dataclasses import replace
from pathlib import Path

import numpy as np

import pytest

from mzphase.sweep import figure_preset, run_sweep

DIGESTS = json.loads((Path(__file__).resolve().parent.parent / "scripts" / "preset_digests.json").read_text())


def test_blas_is_pinned_to_one_thread():
    # the `+oracle` digests are defined at one BLAS thread: the splitter
    # blocks differ in their last bits at two (tests/conftest.py pins it)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        assert os.environ[var] == "1"
    # numpy's bundled OpenBLAS, where there is one, read the variable as it loaded
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"):
        assert ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_() == 1


def test_every_preset_has_a_digest():
    presets = [name for name in DIGESTS if not name.endswith("+oracle")]
    assert len(presets) == 19
    assert sorted(DIGESTS) == sorted(presets + [f"{name}+oracle" for name in presets])


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_preset_csv_matches_recorded_digest(name):
    preset, oracle = name.removesuffix("+oracle"), name.endswith("+oracle")
    number = preset.rstrip("ab")
    spec = figure_preset(int(number), panel=preset[len(number):])
    text = run_sweep(replace(spec, oracle_check=oracle)).render()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DIGESTS[name]
