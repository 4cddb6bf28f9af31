"""Two `src/` trees in one process, for the scripts that compare them.

`load_tree(src, name)` imports the `mzphase` package under `src` as the
package `name`, with its own module objects and caches, so two checkouts (or
one checkout twice, for an A/A run) can be called one after the other in
one interpreter. Importing this module pins the BLAS to one thread before
anything loads numpy, so that the Fock oracle's sector products do not
oversubscribe cores shared with other work.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent


def load_tree(src: Path, name: str):
    """The `mzphase` package under `src`, imported as the package `name`."""
    init = Path(src) / "mzphase" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package
