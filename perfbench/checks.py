"""Correctness pass: CSV shape and status checks, and the Fock-oracle re-check.

The deviation and the 1e-8 bound are those of acceptance checks 01/02 and of
the sweep runner's oracle columns. They are copied here, not imported, so a
change to the program cannot loosen the check that judges it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

DEV_BOUND = 1e-8
EXPECTED_STATUS = "ok"


def guarded_dev(a: float, o: float) -> float:
    """|a - o| softened to a relative scale once values leave [-1, 1]."""
    if math.isnan(a) or math.isnan(o):
        return math.inf
    if math.isinf(a) or math.isinf(o):
        return 0.0 if a == o else math.inf
    return abs(a - o) / max(1.0, abs(a), abs(o))


def fisher(value: float, dvalue: float, ddvalue: float) -> float:
    """Classical Fisher information of the parity outcome from f, f', f''."""
    denom = 1.0 - value * value
    if denom < 1e-12 and abs(dvalue) < 1e-6:
        return abs(ddvalue)  # |f| = 1 extremum: limit of f'^2 / (1 - f^2)
    return dvalue * dvalue / denom


def _inv_sqrt(f: float) -> float:
    return math.inf if f <= 0 else f**-0.5


@dataclass
class Row:
    sweep: int
    quantities: tuple[str, ...]
    cells: dict[str, str]

    def probe(self):
        from mzphase.states import ProbeParams

        phi = self.cells.get("phi", "")
        return ProbeParams(
            alpha=float(self.cells["alpha"]),
            r=float(self.cells["r"]),
            m=int(self.cells["m"]),
            loss=float(self.cells["l"]),
            phi=float(phi) if phi else 0.0,
        )


def parse_csv(text: str, sweep: int, quantities: tuple[str, ...]) -> list[Row]:
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    header = lines[0].split(",")
    return [Row(sweep, quantities, dict(zip(header, line.split(",")))) for line in lines[1:]]


def oracle_value(q: str, p) -> float:
    """The quantity recomputed by the Fock-space engine alone."""
    from mzphase import oracle
    from mzphase.qfi_kerr import kerr_mu_opt_numeric
    from mzphase.qfi_linear import qfi_lossy_numeric_check

    if q in ("parity", "sensitivity", "cfi"):
        # the n^2-weighted sector cutoff: at the default one the truncation
        # error (about 1e-11 of the mass) is a visible relative error on
        # signals of 1e-5, where the sensitivity is still well defined
        f, d1, d2 = oracle.parity_signal_oracle(p, cutoff=oracle.default_cutoff(p, weight=2))
        if q == "parity":
            return f
        fi = fisher(f, d1, d2)
        return fi if q == "cfi" else _inv_sqrt(fi)
    if q in ("qfi_linear", "qcrb_linear"):
        if p.loss == 0.0:
            m1, m2 = (oracle.moments_oracle(p, w) for w in (1, 2))
            fq = 4.0 * (m2 - m1 * m1)
        else:
            fq = qfi_lossy_numeric_check(p)
    elif q in ("qfi_kerr", "qcrb_kerr"):
        if p.loss == 0.0:
            m2, m4 = (oracle.moments_oracle(p, w) for w in (2, 4))
            fq = 4.0 * (m4 - m2 * m2)
        else:
            fq = kerr_mu_opt_numeric(p)[0]
    else:
        raise ValueError(f"no oracle for {q!r}")
    return fq if q.startswith("qfi") else _inv_sqrt(fq)


@dataclass
class Verdict:
    """Outcome of the correctness pass over one run's sweeps."""

    attempted: int = 0
    failed: int = 0
    statuses: Counter = field(default_factory=Counter)
    worst_dev: float = 0.0
    checked_rows: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, rows: int, why: str):
        self.failed += rows
        if len(self.problems) < 20:
            self.problems.append(why)

    def deviation(self, dev: float, where: str) -> bool:
        self.worst_dev = max(self.worst_dev, dev)
        if dev > DEV_BOUND:
            self.fail(1, f"{where}: oracle deviation {dev:.3e} > {DEV_BOUND:.0e}")
            return False
        return True

    @property
    def digits(self) -> float:
        """-log10 of the worst deviation; 16 (double precision) when exact."""
        return 16.0 if self.worst_dev <= 1e-16 else -math.log10(self.worst_dev)


def check_sweep(verdict: Verdict, sweep, exit_code: int, text: str | None) -> list[Row]:
    """Exit code, row count, statuses and in-CSV oracle columns of one sweep.
    Returns the sweep's rows that passed, for the oracle subsample."""
    verdict.attempted += sweep.rows
    where = f"sweep {sweep.index} ({sweep.template})"
    if exit_code != 0 or text is None:
        verdict.fail(sweep.rows, f"{where}: exit code {exit_code}")
        return []
    q = sweep.config["quantity"]
    quantities = (q,) if isinstance(q, str) else tuple(q)
    rows = parse_csv(text, sweep.index, quantities)
    if len(rows) != sweep.rows:
        verdict.fail(sweep.rows, f"{where}: {len(rows)} rows, expected {sweep.rows}")
        return []
    good = []
    for i, row in enumerate(rows):
        status = row.cells["status"]
        verdict.statuses[status] += 1
        if status != EXPECTED_STATUS:
            verdict.fail(1, f"{where} row {i}: status {status!r}")
            continue
        if sweep.config.get("oracle_check"):
            devs = [guarded_dev(float(row.cells[x]), float(row.cells[f"oracle_{x}"])) for x in quantities]
            verdict.checked_rows += 1
            if not verdict.deviation(max(devs), f"{where} row {i} (in-CSV oracle)"):
                continue
        good.append(row)
    return good


def recheck(verdict: Verdict, rows: list[Row]):
    """Recompute each row with the oracle; a miss fails the row."""
    for row in rows:
        p = row.probe()
        devs = [guarded_dev(float(row.cells[q]), oracle_value(q, p)) for q in row.quantities]
        verdict.checked_rows += 1
        verdict.deviation(max(devs), f"sweep {row.sweep} recheck {p}")
