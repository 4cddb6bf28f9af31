"""Seeded sweep-config generators, one deck per workload.

A deck is an endless, deterministic sequence of sweep configs: the same
(workload, seed) always yields byte-identical JSON. Each workload cycles
through a few templates; a template fixes the sweep's shape (quantity,
axis, m list, loss scenarios, row count) and draws only the continuous
parameters from the seed, so every sweep of a workload costs about the same
and the cost does not depend on the seed. Why each workload exists, and
which numbers a change should move on it, is in NOTES.md.

Parameter ranges stay where every row is expected to come back with status
"ok" and where the Fock oracle is cheap enough for the correctness pass:
r <= 1.2, alpha <= 4, loss <= 0.9, phase inside (0, pi/2) wherever a
sensitivity is asked for, and phase and alpha kept where the parity fringe
has not died away (the sensitivity is ill-conditioned where it has).
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from typing import Callable, Iterator

WORKLOADS = ("scan", "optimize", "bounds", "xcheck")
M_PARITY = [0, 1, 2, 3]
M_BOUNDS = [0, 1, 2, 3, 6]


@dataclass(frozen=True)
class Template:
    name: str
    count: int  # sweep-axis points of a timed sweep
    build: Callable[[random.Random, int], dict]


@dataclass(frozen=True)
class Sweep:
    index: int
    template: str
    config: dict
    rows: int  # rows the CSV must hold, every one with status "ok"

    def text(self) -> str:
        return json.dumps(self.config, sort_keys=True) + "\n"


def _axis(name: str, rng: random.Random, lo: tuple[float, float], hi: tuple[float, float], count: int) -> dict:
    return {"name": name, "start": rng.uniform(*lo), "stop": rng.uniform(*hi), "count": count}


def _two_losses(rng: random.Random) -> list[float]:
    return [0.0, rng.uniform(0.05, 0.3)]


# -- scan: batch-1 parity kernel per row (presets 2-4) ------------------------


def _scan_phi_parity(rng, count):
    return {
        "quantity": "parity",
        "sweep": _axis("phi", rng, (-1.5, -1.2), (1.2, 1.5), count),
        "fixed": {"alpha": rng.uniform(1.0, 2.0), "r": rng.uniform(0.3, 1.0)},
        "loss": _two_losses(rng),
        "m_list": M_PARITY,
    }


def _scan_phi_sensitivity_total(rng, count):
    # fixed total energy at fixed r; alpha is re-derived per m
    return {
        "quantity": "sensitivity",
        "sweep": _axis("phi", rng, (0.05, 0.15), (0.9, 1.1), count),
        "fixed": {"r": rng.uniform(0.3, 0.5), "nbar": rng.uniform(6.5, 7.5)},
        "energy_mode": "fixed_total",
        "loss": _two_losses(rng),
        "m_list": M_PARITY,
    }


def _scan_r_sensitivity(rng, count):
    return {
        "quantity": "sensitivity",
        "sweep": _axis("r", rng, (0.0, 0.1), (1.0, 1.2), count),
        "fixed": {"alpha": rng.uniform(1.5, 2.5), "phi": [rng.uniform(0.01, 0.2), rng.uniform(0.1, 0.5)]},
        "loss": _two_losses(rng),
        "m_list": M_PARITY,
    }


def _scan_alpha_cfi(rng, count):
    return {
        "quantity": "cfi",
        "sweep": _axis("alpha", rng, (0.2, 0.4), (2.4, 2.8), count),
        "fixed": {"r": rng.uniform(0.3, 0.8), "phi": [rng.uniform(0.05, 0.3), rng.uniform(0.1, 0.5)]},
        "loss": _two_losses(rng),
        "m_list": M_PARITY,
    }


# -- optimize: one optimal_phase search per row (presets 5a, 5b, 9b) ----------


def _opt_loss(rng, count):
    return {
        "quantity": "sensitivity",
        "sweep": _axis("l", rng, (0.0, 0.05), (0.3, 0.4), count),
        "fixed": {"alpha": rng.uniform(1.5, 2.5), "r": rng.uniform(0.3, 0.8), "phi": "optimal"},
        "m_list": M_PARITY,
    }


def _opt_loss_total(rng, count):
    return {
        "quantity": "sensitivity",
        "sweep": _axis("l", rng, (0.0, 0.05), (0.3, 0.4), count),
        "fixed": {"r": rng.uniform(0.3, 0.5), "nbar": rng.uniform(8.0, 10.0), "phi": "optimal"},
        "energy_mode": "fixed_total",
        "m_list": M_PARITY,
    }


def _opt_nbar(rng, count):
    return {
        "quantity": ["sensitivity", "qcrb_linear"],
        "sweep": _axis("nbar", rng, (6.5, 8.0), (12.0, 16.0), count),
        "fixed": {"r": rng.uniform(0.3, 0.5), "phi": "optimal"},
        "energy_mode": "fixed_total",
        "loss": [rng.uniform(0.05, 0.15)],
        "m_list": M_PARITY,
    }


# -- bounds: moment kernels and the closed-form QFI bounds (presets 7, 8, 10-12)


def _bounds_r_qfi_linear(rng, count):
    return {
        "quantity": "qfi_linear",
        "sweep": _axis("r", rng, (0.0, 0.1), (1.0, 1.2), count),
        "fixed": {"alpha": rng.uniform(1.5, 2.5)},
        "loss": _two_losses(rng),
        "m_list": M_BOUNDS,
    }


def _bounds_alpha_qfi_kerr(rng, count):
    return {
        "quantity": "qfi_kerr",
        "sweep": _axis("alpha", rng, (0.1, 0.3), (2.4, 3.0), count),
        "fixed": {"r": rng.uniform(0.3, 0.8)},
        "loss": _two_losses(rng),
        "m_list": M_BOUNDS,
    }


def _bounds_l_qcrb(rng, count):
    return {
        "quantity": ["qcrb_linear", "qcrb_kerr"],
        "sweep": _axis("l", rng, (0.0, 0.05), (0.6, 0.9), count),
        "fixed": {"alpha": rng.uniform(1.5, 2.5), "r": rng.uniform(0.3, 0.8)},
        "m_list": M_BOUNDS,
    }


def _bounds_nbar_total(rng, count):
    # alpha fixed, so r is solved for every (row, m). m = 0 is left out: a
    # bare squeezed vacuum would need r > 1.2 to carry what m = 6 needs.
    alpha = rng.uniform(1.0, 1.5)
    return {
        "quantity": ["qcrb_linear", "qcrb_kerr"],
        "sweep": _axis("nbar", rng, (alpha**2 + 6.3, alpha**2 + 6.6), (alpha**2 + 7.5, alpha**2 + 8.0), count),
        "fixed": {"alpha": alpha},
        "energy_mode": "fixed_total",
        "loss": _two_losses(rng),
        "m_list": [1, 2, 3, 6],
    }


# -- xcheck: every row cross-checked by the Fock oracle, acceptance corner ----
# alpha <= 2, r <= 1, m <= 3, l <= 0.3. The oracle's cost follows its sector
# cutoff, which grows with r and alpha, and the loss channel's branch count,
# which grows with loss. The cutoffs are also what the 4-entry block cache is
# keyed on, so the order in which they come decides its misses. So every
# template sweeps r over the same fixed grid, ending at 1 where the cutoff is
# 128 for m = 3, at a fixed alpha, and only phi and a loss from a narrow range
# (the branch count barely moves inside it) are drawn from the seed: every
# seed asks for the same cutoffs in the same order and costs the same, and the
# largest cutoff (which sets peak memory) is the same whatever the seed.


def _xcheck_r(count):
    return {"name": "r", "start": 0.3, "stop": 1.0, "count": count}


def _xcheck_parity(rng, count):
    return {
        "quantity": "parity",
        "sweep": _xcheck_r(count),
        "fixed": {"alpha": 1.9, "phi": rng.uniform(-1.5, 1.5)},
        "loss": [rng.uniform(0.2, 0.22)],
        "m_list": M_PARITY,
    }


def _xcheck_sensitivity(rng, count):
    return {
        "quantity": "sensitivity",
        "sweep": _xcheck_r(count),
        "fixed": {"alpha": 1.6, "phi": rng.uniform(0.1, 1.2)},
        "loss": [rng.uniform(0.2, 0.22)],
        "m_list": M_PARITY,
    }


def _xcheck_qfi_linear(rng, count):
    return {
        "quantity": "qfi_linear",
        "sweep": _xcheck_r(count),
        "fixed": {"alpha": 1.7},
        "loss": [0.0, rng.uniform(0.2, 0.22)],
        "m_list": M_PARITY,
    }


def _xcheck_qfi_kerr(rng, count):
    return {
        "quantity": "qfi_kerr",
        "sweep": _xcheck_r(count),
        "fixed": {"alpha": 1.8},
        "loss": [0.0, rng.uniform(0.2, 0.22)],
        "m_list": M_PARITY,
    }


TEMPLATES: dict[str, tuple[Template, ...]] = {
    "scan": (
        Template("phi_parity", 24, _scan_phi_parity),
        Template("phi_sensitivity_total", 24, _scan_phi_sensitivity_total),
        Template("r_sensitivity", 24, _scan_r_sensitivity),
        Template("alpha_cfi", 24, _scan_alpha_cfi),
    ),
    "optimize": (
        Template("loss_opt", 2, _opt_loss),
        Template("loss_opt_total", 2, _opt_loss_total),
        Template("nbar_opt", 2, _opt_nbar),
    ),
    "bounds": (
        Template("r_qfi_linear", 8, _bounds_r_qfi_linear),
        Template("alpha_qfi_kerr", 8, _bounds_alpha_qfi_kerr),
        Template("l_qcrb", 16, _bounds_l_qcrb),
        Template("nbar_total", 3, _bounds_nbar_total),
    ),
    "xcheck": (
        Template("parity", 2, _xcheck_parity),
        Template("sensitivity", 2, _xcheck_sensitivity),
        Template("qfi_linear", 6, _xcheck_qfi_linear),
        Template("qfi_kerr", 6, _xcheck_qfi_kerr),
    ),
}


def _rows(config: dict) -> int:
    per_point = len(config["m_list"])
    if config["sweep"]["name"] != "l":
        per_point *= len(config.get("loss", [0.0]))
    return config["sweep"]["count"] * per_point


def _finish(workload: str, index: int, template: Template, body: dict, warmup: bool) -> Sweep:
    config = {"schema_version": 1, "panel": f"{workload}.{template.name}", **body}
    rows = _rows(config)
    if workload == "xcheck":
        config["oracle_check"] = True
        # a warm-up sweep only needs one oracle row to reach the Fock engine
        config["oracle_stride"] = rows if warmup else 1
    return Sweep(index, template.name, config, rows)


def deck(workload: str, seed: int) -> Iterator[Sweep]:
    """Timed sweeps of one workload, in the order they are run."""
    templates = TEMPLATES[workload]
    rng = random.Random(f"{workload}:{seed}")
    for i in itertools.count():
        t = templates[i % len(templates)]
        yield _finish(workload, i, t, t.build(rng, t.count), warmup=False)


def warmup_deck(workload: str, seed: int) -> list[Sweep]:
    """One two-point sweep per template: touches every jet shape and the
    oracle, so lazy caches are filled before anything is timed. A fixed
    phase stands in for "optimal": the search reuses the same jet shapes,
    and its cost is work, not set-up."""
    rng = random.Random(f"{workload}:{seed}:warmup")
    out = []
    for i, t in enumerate(TEMPLATES[workload]):
        body = t.build(rng, 2)
        if body["fixed"].get("phi") == "optimal":
            body["fixed"]["phi"] = 0.7
        out.append(_finish(workload, i, t, body, warmup=True))
    return out
