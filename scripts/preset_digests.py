"""SHA-256 of the CSV of every figure preset, recorded or checked.

    python3 scripts/preset_digests.py           # write scripts/preset_digests.json
    python3 scripts/preset_digests.py --check   # exit 1 if any preset's CSV changed

Runs the 19 presets (figures 2-5 and 7-11, panels a and b, and figure 12)
single-threaded, with BLAS pinned to one thread (scripts/trees.py), through
`run_sweep` on the `src/` tree next to this script, once as they are and
once with the oracle columns (`<name>+oracle`), and hashes the rendered CSV
text: the bytes `mzphase figure <n> [--oracle] --out` writes. `--check` names every rendering whose digest differs from the
recorded one. The full run takes about 10 s on one core. The one BLAS
thread keeps the oracle's sector products from oversubscribing shared
cores; the digests do not depend on it (tests/test_preset_digests.py
renders the `--oracle` presets at two threads too).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

from trees import ROOT  # importing it pins the BLAS to one thread; nothing has loaded numpy yet

DIGESTS = Path(__file__).resolve().with_suffix(".json")
PRESETS = [(n, p) for n in (2, 3, 4, 5, 7, 8, 9, 10, 11) for p in ("a", "b")] + [(12, "")]


def digests() -> dict[str, str]:
    sys.path.insert(0, str(ROOT / "src"))
    from mzphase.sweep import figure_preset, run_sweep

    out = {}
    for n, panel in PRESETS:
        spec = figure_preset(n, panel=panel)
        for name, run in ((f"{n}{panel}", spec), (f"{n}{panel}+oracle", replace(spec, oracle_check=True))):
            text = run_sweep(run).render()
            out[name] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--check", action="store_true", help="compare against the recorded digests instead of writing them")
    args = ap.parse_args()
    got = digests()
    if not args.check:
        DIGESTS.write_text(json.dumps(got, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {len(got)} digests to {DIGESTS.name}")
        return 0
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))
    changed = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
    for name in changed:
        print(f"changed: {name}")
    if changed:
        return 1
    print(f"all {len(got)} preset renderings match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
