"""Fresh-process set-up probe behind the `setup_s` metric.

Usage: python3 setup_probe.py <checkout root> <out.csv> <config.json>...

Times, from before `import mzphase` to the end, the import plus one pass of
the workload's warm-up sweeps through the CLI, which fills the lazy caches
(jet convolution plans, beam-splitter blocks) every CLI user pays for. The
last stdout line is {"setup_s": seconds}.
"""

import json
import os
import sys
import time

if __name__ == "__main__":
    t0 = time.perf_counter()
    root, out, *configs = sys.argv[1:]
    sys.path.insert(0, os.path.join(root, "src"))
    from mzphase import cli

    for cfg in configs:
        code = cli.main(["sweep", "--config", cfg, "--out", out])
        if code != 0:
            sys.exit(code)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
