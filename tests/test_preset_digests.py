"""Every figure preset's CSV is byte-identical to its recorded digest.

`scripts/preset_digests.py` records the SHA-256 of each preset's rendered
CSV, once as it is and once with the oracle columns (`<name>+oracle`); this
is its `--check`, one test per rendering, so a moved cell on any preset row
fails the suite and names the preset. The `--oracle` renderings are also
rendered in two fresh processes, at one and at two BLAS threads, and must be
byte-identical there.
"""

import ctypes
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

import pytest

from mzphase.sweep import figure_preset, run_sweep

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = json.loads((ROOT / "scripts" / "preset_digests.json").read_text())
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _bundled_blas_threads() -> list[int]:
    """Thread counts of numpy's bundled OpenBLAS, where there is one."""
    libs = (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so")
    return [ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_() for lib in libs]


def test_blas_is_pinned_to_one_thread():
    # pinned so that test processes running side by side do not oversubscribe
    # the cores (tests/conftest.py); the bundled OpenBLAS read it as it loaded
    for var in BLAS_VARS:
        assert os.environ[var] == "1"
    assert all(threads == 1 for threads in _bundled_blas_threads())


# Every `--oracle` rendering's digest, and the BLAS thread counts it ran at.
RENDER_ORACLE_PRESETS = f"""
import hashlib, json, sys
from dataclasses import replace
sys.path.insert(0, {str(ROOT / "tests")!r})
from mzphase.sweep import figure_preset, run_sweep
from test_preset_digests import _bundled_blas_threads
out = {{}}
for name in sys.argv[1:]:
    number = name.rstrip("ab")
    spec = replace(figure_preset(int(number), panel=name[len(number):]), oracle_check=True)
    out[name] = hashlib.sha256(run_sweep(spec).render().encode("utf-8")).hexdigest()
print(json.dumps({{"digests": out, "blas_threads": _bundled_blas_threads()}}))
"""


def test_oracle_renderings_do_not_depend_on_blas_threads():
    presets = sorted(name for name in DIGESTS if not name.endswith("+oracle"))
    runs = {}
    for threads in (1, 2):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **dict.fromkeys(BLAS_VARS, str(threads)))
        cmd = [sys.executable, "-c", RENDER_ORACLE_PRESETS, *presets]
        runs[threads] = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    got = {}
    for threads, run in runs.items():
        out, err = run.communicate()
        assert run.returncode == 0, err
        got[threads] = json.loads(out)
        if os.cpu_count() >= threads:
            assert all(n == threads for n in got[threads]["blas_threads"])
    assert got[1]["digests"] == got[2]["digests"]
    assert got[1]["digests"] == {name: DIGESTS[f"{name}+oracle"] for name in presets}


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
