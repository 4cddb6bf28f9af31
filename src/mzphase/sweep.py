"""Parameter sweeps and CSV tables behind the command-line front end.

A sweep is one axis (phase, squeezing, coherent amplitude, loss, or total
energy) crossed with the photon-addition orders and the loss scenarios. Rows
are computed by pure functions of the resolved probe parameters, so the
output is deterministic and byte-stable; numeric trouble at isolated points
becomes a per-row status code instead of an abort.

The parity-family cells (parity, sensitivity, cfi) come from batch arrays
before the per-row pass (`_parity_outcomes`): one kernel call per
photon-addition order m for the rows at a fixed phase, one lockstep
`parity.optimal_phases` search for all rows at the optimal phase, whatever
their m, and one `parity._fisher` call per signal batch. A row's values are
the same bits a one-row evaluation gives. Moments, QFI bounds and oracle
checks stay per row, and only they go to the `--threads` workers, in
chunks of eight consecutive rows: at most min(threads, os.cpu_count(),
chunks holding such a row) workers start, so a sweep whose such rows all
fall in one chunk, or that has none, runs in the calling process. `threads`
below 1 raises ParamOutOfRange.

The moments describe the probe before loss acts, and a sweep point's loss
scenarios are consecutive rows, so a row reuses the moment set of the row
before it when the two share (alpha, r, m) (`_probe_moments`), as
`oracle.probe_marginal` shares its marginal; a worker shares within its
chunk. The energy target of a `fixed_total` sweep is likewise resolved once
per (sweep value, m), not once per loss.
"""

from __future__ import annotations

import json
import math
import os
from collections import defaultdict
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import __version__
from .errors import (
    BracketExceeded,
    DegenerateSignal,
    InfeasibleTarget,
    ParamOutOfRange,
    SchemaViolation,
    SpecInvalid,
    UnknownFigure,
)
from .moments import MomentSet, moment_set
from .oracle import parity_signal_oracle
from .parity import (  # the one-row entry points stay importable here: tracing wraps them by name
    _fisher,
    _result,
    _sensitivities,
    _signals,
    optimal_phase,  # noqa: F401
    optimal_phases,
    parity_expectation,  # noqa: F401
    phase_sensitivity,  # noqa: F401
)
from .qfi_kerr import kerr_mu_opt_numeric, qfi_lossy_kerr
from .qfi_linear import benchmark_limits, qfi_lossy_linear, qfi_lossy_numeric_check
from .states import M_MAX, R_MAX, ProbeParams, pasvs_mean_photons, solve_r_for_energy

QUANTITIES = (
    "parity",
    "sensitivity",
    "cfi",
    "qfi_linear",
    "qfi_kerr",
    "qcrb_linear",
    "qcrb_kerr",
    "limits",
)
PHI_QUANTITIES = ("parity", "sensitivity", "cfi")
SWEEP_AXES = ("phi", "r", "alpha", "l", "nbar")
# numeric row failures that become a status code instead of an abort
ROW_ERRORS = (InfeasibleTarget, BracketExceeded, DegenerateSignal)
# rows per task a `--threads` worker takes at a time
_CHUNK = 8


@dataclass(frozen=True)
class SweepSpec:
    """Fully resolved description of one sweep (one panel of one figure)."""

    quantity: tuple[str, ...]
    sweep_name: str
    sweep_values: tuple[float, ...]
    m_list: tuple[int, ...] = (0, 1, 2, 3)
    energy_mode: str = "fixed_r"
    loss: tuple[float, ...] = (0.0,)
    # phi per loss scenario: a number, the string "optimal", or None
    phi: tuple = (None,)
    alpha: float | None = None
    r: float | None = None
    nbar: float | None = None
    oracle_check: bool = False
    oracle_stride: int = 0  # 0 = pick automatically (about 24 sampled rows)
    panel: str = ""


@dataclass(frozen=True)
class CsvTable:
    metadata: tuple[str, ...]
    header: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]
    trailer: tuple[str, ...] = ()

    def render(self) -> str:
        lines = [f"# {line}" for line in self.metadata]
        lines.append(",".join(self.header))
        lines.extend(",".join(row) for row in self.rows)
        lines.extend(f"# {line}" for line in self.trailer)
        return "\n".join(lines) + "\n"


def fnum(x: float) -> str:
    """Data-cell float format: 12 significant digits, scientific."""
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(x, ".11e")


# -- config parsing -----------------------------------------------------------


def _expect(cond: bool, path: str, msg: str):
    if not cond:
        raise SchemaViolation(f"{path}: {msg}")


def _num(value, path: str) -> float:
    _expect(isinstance(value, (int, float)) and not isinstance(value, bool), path, "expected a number")
    v = float(value)
    _expect(math.isfinite(v), path, "expected a finite number")
    return v


def _axis_values(node, path: str) -> tuple[str, tuple[float, ...]]:
    _expect(isinstance(node, dict), path, "expected an object")
    _expect("name" in node, f"{path}.name", "missing required key")
    name = node["name"]
    _expect(name in SWEEP_AXES, f"{path}.name", f"expected one of {SWEEP_AXES}")
    keys = set(node) - {"name"}
    if keys == {"values"}:
        vals = node["values"]
        _expect(isinstance(vals, list) and len(vals) >= 2, f"{path}.values", "expected a list of at least 2 numbers")
        out = tuple(_num(v, f"{path}.values[{i}]") for i, v in enumerate(vals))
    elif keys == {"start", "stop", "count"}:
        start = _num(node["start"], f"{path}.start")
        stop = _num(node["stop"], f"{path}.stop")
        count = node["count"]
        _expect(isinstance(count, int) and not isinstance(count, bool) and count >= 2, f"{path}.count", "expected an integer >= 2")
        step = (stop - start) / (count - 1)
        out = tuple(start + i * step for i in range(count))
    else:
        raise SchemaViolation(f"{path}: expected keys name+values or name+start/stop/count, got {sorted(node)}")
    return name, out


_FIXED_KEYS = {"alpha", "r", "phi", "nbar"}
_TOP_KEYS = {
    "schema_version",
    "quantity",
    "sweep",
    "fixed",
    "m_list",
    "energy_mode",
    "loss",
    "oracle_check",
    "oracle_stride",
    "panel",
}


def parse_config(text: str) -> SweepSpec:
    """Strict JSON -> SweepSpec. Unknown keys and type mismatches are errors."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaViolation(f"$: not valid JSON ({e.msg} at line {e.lineno})") from e
    _expect(isinstance(doc, dict), "$", "expected a JSON object")
    for key in doc:
        _expect(key in _TOP_KEYS, f"$.{key}", "unknown key")
    _expect("schema_version" in doc, "$.schema_version", "missing required key")
    _expect(doc["schema_version"] == 1, "$.schema_version", "expected 1")
    _expect("quantity" in doc, "$.quantity", "missing required key")

    q = doc["quantity"]
    if isinstance(q, str):
        q = [q]
    _expect(isinstance(q, list) and q, "$.quantity", "expected a name or non-empty list")
    for i, name in enumerate(q):
        _expect(name in QUANTITIES, f"$.quantity[{i}]", f"expected one of {QUANTITIES}")

    if "sweep" in doc:
        sweep_name, sweep_values = _axis_values(doc["sweep"], "$.sweep")
    else:
        _expect(q == ["limits"], "$.sweep", "missing required key")
        sweep_name, sweep_values = "nbar", ()

    fixed = doc.get("fixed", {})
    _expect(isinstance(fixed, dict), "$.fixed", "expected an object")
    for key in fixed:
        _expect(key in _FIXED_KEYS, f"$.fixed.{key}", "unknown key")
    alpha = _num(fixed["alpha"], "$.fixed.alpha") if "alpha" in fixed else None
    r = _num(fixed["r"], "$.fixed.r") if "r" in fixed else None
    nbar = _num(fixed["nbar"], "$.fixed.nbar") if "nbar" in fixed else None

    loss = doc.get("loss", 0.0)
    if isinstance(loss, (int, float)) and not isinstance(loss, bool):
        loss = [loss]
    _expect(isinstance(loss, list) and loss, "$.loss", "expected a number or non-empty list")
    loss_t = tuple(_num(v, f"$.loss[{i}]") for i, v in enumerate(loss))

    phi_node = fixed.get("phi")
    if phi_node is None:
        phi_t: tuple = (None,)
    else:
        if not isinstance(phi_node, list):
            phi_node = [phi_node]
        parsed = []
        for i, v in enumerate(phi_node):
            if v == "optimal":
                parsed.append("optimal")
            else:
                parsed.append(_num(v, f"$.fixed.phi[{i}]"))
        _expect(len(parsed) in (1, len(loss_t)), "$.fixed.phi", "length must be 1 or match $.loss")
        phi_t = tuple(parsed)

    m_list = doc.get("m_list", [0, 1, 2, 3])
    _expect(isinstance(m_list, list) and m_list, "$.m_list", "expected a non-empty list")
    for i, m in enumerate(m_list):
        is_order = isinstance(m, int) and not isinstance(m, bool) and 0 <= m <= M_MAX
        _expect(is_order, f"$.m_list[{i}]", f"expected an integer in 0..{M_MAX}")

    energy_mode = doc.get("energy_mode", "fixed_r")
    _expect(energy_mode in ("fixed_r", "fixed_total"), "$.energy_mode", "expected fixed_r or fixed_total")
    oracle_check = doc.get("oracle_check", False)
    _expect(isinstance(oracle_check, bool), "$.oracle_check", "expected a boolean")
    stride = doc.get("oracle_stride", 0)
    _expect(isinstance(stride, int) and not isinstance(stride, bool) and stride >= 0, "$.oracle_stride", "expected an integer >= 0")
    panel = doc.get("panel", "")
    _expect(isinstance(panel, str), "$.panel", "expected a string")

    return SweepSpec(
        quantity=tuple(q),
        sweep_name=sweep_name,
        sweep_values=sweep_values,
        m_list=tuple(m_list),
        energy_mode=energy_mode,
        loss=loss_t,
        phi=phi_t,
        alpha=alpha,
        r=r,
        nbar=nbar,
        oracle_check=oracle_check,
        oracle_stride=stride,
        panel=panel,
    )


# -- semantic validation ------------------------------------------------------


def _invalid(msg: str):
    raise SpecInvalid(msg)


def validate_spec(spec: SweepSpec):
    qs = spec.quantity
    if "limits" in qs and len(qs) > 1:
        _invalid("limits cannot be combined with other quantities")
    if qs == ("limits",):
        if spec.sweep_name != "nbar":
            _invalid("limits sweeps only over nbar")
        if not spec.sweep_values and spec.nbar is None:
            _invalid("limits needs an nbar sweep or a fixed nbar")
        return
    if len(spec.sweep_values) < 2:
        _invalid("sweep needs at least 2 points")
    if any(b <= a for a, b in zip(spec.sweep_values, spec.sweep_values[1:])):
        _invalid("sweep values must be strictly ascending")
    if len(set(spec.m_list)) != len(spec.m_list) or list(spec.m_list) != sorted(spec.m_list):
        _invalid("m_list must be ascending and free of duplicates")

    lo, hi = spec.sweep_values[0], spec.sweep_values[-1]
    axis_range = {"r": (0.0, R_MAX), "alpha": (0.0, math.inf), "l": (0.0, 1.0 - 1e-12), "nbar": (1e-12, math.inf)}
    if spec.sweep_name in axis_range:
        a, b = axis_range[spec.sweep_name]
        if lo < a or hi > b:
            _invalid(f"sweep axis {spec.sweep_name} must stay within [{a}, {b}]")

    if spec.sweep_name == "l":
        if spec.loss != (0.0,):
            _invalid("loss scenarios cannot be combined with a loss sweep axis")
        if len(spec.phi) != 1:
            _invalid("a loss sweep takes a single phi entry")
    else:
        for l in spec.loss:
            if not 0 <= l < 1:
                _invalid(f"loss {l} outside [0, 1)")
        if len(spec.phi) not in (1, len(spec.loss)):
            _invalid("phi entries must be a single value or match the loss list")

    uses_phi = any(q in PHI_QUANTITIES for q in qs)
    has_phi = spec.sweep_name == "phi" or any(v is not None for v in spec.phi)
    if uses_phi and not has_phi:
        _invalid("parity/sensitivity/cfi need phi from the sweep axis or fixed.phi")
    if not uses_phi and has_phi:
        _invalid("phi was set but no requested quantity depends on it")
    if spec.sweep_name == "phi" and any(v is not None for v in spec.phi):
        _invalid("fixed.phi conflicts with a phi sweep axis")
    if "parity" in qs and "optimal" in spec.phi:
        _invalid("parity needs a numeric phi, not \"optimal\"")

    def need_fixed(name, value):
        if value is None:
            _invalid(f"{name} must be fixed for this spec")

    def forbid_fixed(name, value):
        if value is not None:
            _invalid(f"{name} is already supplied by the sweep axis or energy mode")

    if spec.energy_mode == "fixed_r":
        forbid_fixed("nbar", spec.nbar)
        if spec.sweep_name == "nbar":
            _invalid("an nbar sweep requires energy_mode fixed_total")
        if spec.sweep_name == "alpha":
            forbid_fixed("alpha", spec.alpha)
            need_fixed("r", spec.r)
        elif spec.sweep_name == "r":
            forbid_fixed("r", spec.r)
            need_fixed("alpha", spec.alpha)
        else:
            need_fixed("alpha", spec.alpha)
            need_fixed("r", spec.r)
    else:
        if spec.sweep_name in ("alpha", "r"):
            _invalid("fixed_total re-derives alpha or r; sweep nbar, phi, or l instead")
        if spec.sweep_name == "nbar":
            forbid_fixed("nbar", spec.nbar)
        else:
            need_fixed("nbar", spec.nbar)
        if (spec.alpha is None) == (spec.r is None):
            _invalid("fixed_total needs exactly one of alpha or r fixed; the other is solved")

    if spec.r is not None and not 0 <= spec.r <= R_MAX:
        _invalid(f"r {spec.r} outside [0, {R_MAX:g}]")
    if spec.alpha is not None and spec.alpha < 0:
        _invalid(f"alpha {spec.alpha} must be non-negative")
    if spec.nbar is not None and spec.nbar <= 0:
        _invalid(f"nbar {spec.nbar} must be positive")


# -- row evaluation -----------------------------------------------------------


@dataclass(frozen=True)
class _RowTask:
    axis_value: float
    m: int
    loss: float
    phi_spec: object  # float | "optimal" | None
    alpha: float
    r: float
    quantities: tuple[str, ...]
    oracle: bool
    status: str = "ok"  # pre-marked failures (infeasible energy) skip evaluation


def _guarded_dev(a: float, o: float) -> float:
    """|a - o| softened to a relative scale once values leave [-1, 1]."""
    if math.isnan(a) or math.isnan(o):
        return math.inf
    if math.isinf(a) or math.isinf(o):
        return 0.0 if a == o else math.inf
    return abs(a - o) / max(1.0, abs(a), abs(o))


def _oracle_value(q: str, p: ProbeParams, fock=None, minima=None) -> float:
    """The oracle's value of q; `fock` is the row's `parity_signal_oracle`
    (None when the row asks for no parity-family quantity). The bounds are
    the operator-level minima over the commutation parameters, at every loss;
    `minima`, a dict kept for one row, holds each minimum once taken, by
    phase ("linear" or "kerr"), so that its qfi and qcrb columns share it."""
    if q == "parity":
        return fock[0]
    if q in ("sensitivity", "cfi"):
        fisher = _fisher(np.reshape(fock, (3, 1)))
        return (fisher if q == "cfi" else _sensitivities(fisher)).item()
    if q not in ("qfi_linear", "qcrb_linear", "qfi_kerr", "qcrb_kerr"):
        raise SpecInvalid(f"no oracle for quantity {q!r}")
    minima = {} if minima is None else minima
    kind = q.partition("_")[2]
    if kind not in minima:
        minima[kind] = qfi_lossy_numeric_check(p) if kind == "linear" else kerr_mu_opt_numeric(p)[0]
    fq = minima[kind]
    return fq if q.startswith("qfi") else (math.inf if fq <= 0 else fq**-0.5)


@lru_cache(maxsize=1)  # the loss rows of a sweep point follow each other
def _probe_moments(alpha: float, r: float, m: int) -> MomentSet:
    """`moment_set` of the pre-loss probe, kept until a row asks for another.
    It is looked up as a module global, so a wrapped `moment_set` sees only
    the calls that compute; an error it raises is not kept."""
    return moment_set(ProbeParams(alpha, r, m))


def _compute_row(task: _RowTask, parity=None) -> dict:
    """One CSV row. `parity` is the row's entry from `_parity_outcomes`; this
    adds the moments, bounds and oracle checks. The quantities are read in
    order, so the first that fails sets the status."""
    out = {"status": task.status, "phi": None, "values": {}, "oracle": {}, "dev": 0.0}
    if task.status != "ok":
        for q in task.quantities:
            out["values"][q] = math.nan
        return out
    out["phi"], cells = parity or (None, {})
    p = ProbeParams(task.alpha, task.r, task.m, task.loss, 0.0 if out["phi"] is None else out["phi"])
    ms = _probe_moments(p.alpha, p.r, p.m) if any(q.endswith(("_linear", "_kerr")) for q in task.quantities) else None
    for q in task.quantities:
        try:
            if q in PHI_QUANTITIES:
                value = _result(cells[q])
            elif q == "qfi_linear":
                value = qfi_lossy_linear(ms, task.loss).fq
            elif q == "qcrb_linear":
                value = qfi_lossy_linear(ms, task.loss).qcrb
            else:
                res = qfi_lossy_kerr(ms, task.loss)
                value = res.fq if q == "qfi_kerr" else res.qcrb
                if res.fallback and out["status"] == "ok":
                    out["status"] = "kerr_fallback"
            out["values"][q] = value
        except ROW_ERRORS as e:
            out["values"][q] = math.nan
            if out["status"] == "ok":
                out["status"] = _code(e)
    if task.oracle and out["status"] in ("ok", "kerr_fallback"):
        fock = parity_signal_oracle(p) if cells else None
        minima: dict = {}
        for q in task.quantities:
            o = _oracle_value(q, p, fock, minima)
            out["oracle"][q] = o
            out["dev"] = max(out["dev"], _guarded_dev(out["values"][q], o))
    return out


def _parity_outcomes(tasks: list[_RowTask], quantities: tuple[str, ...]) -> list:
    """Parity-family outcomes of every row, evaluated in batches.

    One entry per task: None for a row that needs none, else (phi, cells):
    the row's phase (phi* for phi "optimal", None where its search found no
    finite sensitivity), and each parity-family quantity's value or the
    DegenerateSignal that stopped it. Per m, one kernel call covers the rows
    at a numeric phase; one `optimal_phases` call searches the "optimal"
    rows of every m and gives their sensitivity, and for cfi one more kernel
    call evaluates them at phi*.
    """
    outcomes: list = [None] * len(tasks)
    asked = [q for q in PHI_QUANTITIES if q in quantities]
    fixed, optimal = defaultdict(list), []
    for i, task in enumerate(tasks):
        if asked and task.status == "ok":
            (optimal if task.phi_spec == "optimal" else fixed[task.m]).append(i)

    def params(rows):
        return [[getattr(tasks[i], f) for i in rows] for f in ("m", "alpha", "r", "loss")]

    def cells(rows, phis, names):
        # F only for sensitivity or cfi: a parity-only sweep never took the rule's |P| = 1 check
        vals = _signals(*params(rows), phis)
        if names == ["parity"]:
            return [{"parity": v} for v in vals[0].tolist()]
        fisher = _fisher(vals)
        cols = {"parity": vals[0].tolist(), "cfi": fisher.tolist(), "sensitivity": _sensitivities(fisher).tolist()}
        out = [{q: cols[q][j] for q in names} for j in range(len(rows))]
        for j in np.flatnonzero(np.isnan(fisher)):  # phase-stationary to second order
            stop = DegenerateSignal("parity signal is phase-stationary to second order")
            out[j].update((q, stop) for q in names if q != "parity")
        return out

    if optimal:
        for i, res in zip(optimal, optimal_phases(*params(optimal))):
            failed = isinstance(res, Exception)
            outcomes[i] = (None, dict.fromkeys(asked, res)) if failed else (res[0], {"sensitivity": res[1]})
        found = [i for i in optimal if outcomes[i][0] is not None]
        if "cfi" in asked and found:
            for i, got in zip(found, cells(found, [outcomes[i][0] for i in found], ["cfi"])):
                outcomes[i][1].update(got)
    for rows in fixed.values():
        phis = [tasks[i].phi_spec for i in rows]
        for i, phi, got in zip(rows, phis, cells(rows, phis, asked)):
            outcomes[i] = (phi, got)
    return outcomes


def _code(e: Exception) -> str:
    name = type(e).__name__
    out = []
    for ch in name:
        if ch.isupper() and out:
            out.append("_")
        out.append(ch.lower())
    return "".join(out)


# -- sweep driver -------------------------------------------------------------


def _meta_num(x: float) -> str:
    return repr(float(x))


def _limits_table(spec: SweepSpec) -> CsvTable:
    meta = [
        f"mzphase {__version__}",
        "schema_version=1",
        "quantity=limits",
    ]
    header = ("nbar", "sql", "heisenberg", "sub_heisenberg", "super_heisenberg", "status")
    rows = []
    values = spec.sweep_values if spec.sweep_values else (spec.nbar,)
    for nb in values:
        lim = benchmark_limits(nb)
        rows.append(
            (fnum(nb), fnum(lim.sql), fnum(lim.heisenberg), fnum(lim.sub_heisenberg), fnum(lim.super_heisenberg), "ok")
        )
    return CsvTable(tuple(meta), header, tuple(rows))


def _resolve_energy(spec: SweepSpec, m: int, nbar: float) -> tuple[float, float]:
    """Return (alpha, r) under fixed_total for one m at one energy target."""
    if spec.alpha is not None:
        target = nbar - spec.alpha**2
        if target < -1e-12:
            raise InfeasibleTarget(f"nbar {nbar} below the coherent energy alpha^2")
        return spec.alpha, solve_r_for_energy(m, max(target, 0.0))
    want = nbar - pasvs_mean_photons(spec.r, m)
    if want < -1e-12:
        raise InfeasibleTarget(f"nbar {nbar} below the probe-arm energy at r={spec.r}")
    return math.sqrt(max(want, 0.0)), spec.r


def run_sweep(spec: SweepSpec, threads: int = 1) -> CsvTable:
    if threads < 1:
        raise ParamOutOfRange(f"threads must be at least 1, got {threads}")
    validate_spec(spec)
    if spec.quantity == ("limits",):
        return _limits_table(spec)

    scenarios = list(spec.phi) if len(spec.phi) > 1 else list(spec.phi) * len(spec.loss)
    if spec.sweep_name == "l":
        pairs = [(None, spec.phi[0])]
    else:
        pairs = list(zip(spec.loss, scenarios))

    meta = [
        f"mzphase {__version__}",
        "schema_version=1",
        f"quantity={','.join(spec.quantity)}",
    ]
    if spec.panel:
        meta.append(f"panel={spec.panel}")
    meta.append(
        f"sweep={spec.sweep_name}:start={_meta_num(spec.sweep_values[0])}"
        f":stop={_meta_num(spec.sweep_values[-1])}:count={len(spec.sweep_values)}"
    )
    meta.append(f"energy_mode={spec.energy_mode}")
    meta.append("m_list=" + ",".join(str(m) for m in spec.m_list))
    if spec.sweep_name != "l":
        meta.append("loss=" + ",".join(_meta_num(l) for l in spec.loss))
    if any(v is not None for v in spec.phi):
        meta.append("phi=" + ",".join("optimal" if v == "optimal" else _meta_num(v) for v in spec.phi))
    for name in ("alpha", "r", "nbar"):
        v = getattr(spec, name)
        if v is not None:
            meta.append(f"fixed.{name}={_meta_num(v)}")
    if spec.nbar is not None:
        lim = benchmark_limits(spec.nbar)
        meta.append(f"limits.sql={_meta_num(lim.sql)}")
        meta.append(f"limits.heisenberg={_meta_num(lim.heisenberg)}")
        meta.append(f"limits.sub_heisenberg={_meta_num(lim.sub_heisenberg)}")
        meta.append(f"limits.super_heisenberg={_meta_num(lim.super_heisenberg)}")

    # resolve (alpha, r) per (m, row) up front; setup-time infeasibility of a
    # fixed energy target is a spec error, per-row shortfalls become rows
    fixed_energy: dict[int, tuple[float, float]] = {}
    if spec.energy_mode == "fixed_total" and spec.nbar is not None:
        for m in spec.m_list:
            try:
                fixed_energy[m] = _resolve_energy(spec, m, spec.nbar)
            except (InfeasibleTarget, BracketExceeded) as e:
                raise SpecInvalid(f"energy target infeasible at m={m}: {e}") from e
        for m in spec.m_list:
            meta.append(f"derived.alpha[m={m}]={_meta_num(fixed_energy[m][0])}")
            meta.append(f"derived.r[m={m}]={_meta_num(fixed_energy[m][1])}")

    tasks: list[_RowTask] = []
    for value in spec.sweep_values:
        for m in spec.m_list:
            status = "ok"
            if spec.energy_mode == "fixed_total":
                if spec.nbar is not None:
                    alpha, r = fixed_energy[m]
                else:
                    try:
                        alpha, r = _resolve_energy(spec, m, value)
                    except (InfeasibleTarget, BracketExceeded) as e:
                        alpha, r, status = 0.0, 0.0, _code(e)
            else:
                alpha = value if spec.sweep_name == "alpha" else spec.alpha
                r = value if spec.sweep_name == "r" else spec.r
            for loss_val, phi_spec in pairs:
                loss = value if spec.sweep_name == "l" else loss_val
                phi = value if spec.sweep_name == "phi" else phi_spec
                tasks.append(
                    _RowTask(value, m, loss, phi, alpha, r, spec.quantity, False, status)
                )

    if spec.oracle_check:
        stride = spec.oracle_stride or max(1, len(tasks) // 24)
        tasks = [
            replace(t, oracle=(i % stride == 0)) for i, t in enumerate(tasks)
        ]
        meta.append(f"oracle_stride={stride}")
        meta.append("oracle_dev_metric=guarded_relative")

    parity = _parity_outcomes(tasks, spec.quantity)
    # parity-family values are all in hand now: only moments, bounds and
    # oracle checks are worth a worker, and no more workers than cores or
    # than the pool's chunks that hold such a row
    per_row_work = any(q not in PHI_QUANTITIES for q in spec.quantity)
    busy = {i // _CHUNK for i, t in enumerate(tasks) if per_row_work or t.oracle}
    workers = min(threads, os.cpu_count() or 1, len(busy))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # multiprocessing loads only here

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_compute_row, tasks, parity, chunksize=_CHUNK))
    else:
        results = [_compute_row(*args) for args in zip(tasks, parity)]

    uses_phi = any(q in PHI_QUANTITIES for q in spec.quantity)
    header = ["panel", spec.sweep_name]
    for name in ("m", "l", "alpha", "r", "phi"):
        if name != spec.sweep_name and (name != "phi" or uses_phi):
            header.append(name)
    header.extend(spec.quantity)
    if spec.oracle_check:
        header.extend(f"oracle_{q}" for q in spec.quantity)
    header.append("status")

    rows = []
    max_dev, sampled = 0.0, 0
    for task, res in zip(tasks, results):
        cells = [spec.panel or "-", fnum(task.axis_value)]
        for name in ("m", "l", "alpha", "r"):
            if name == spec.sweep_name:
                continue
            if name == "m":
                cells.append(str(task.m))
            else:
                cells.append(fnum(getattr(task, "loss" if name == "l" else name)))
        if uses_phi and spec.sweep_name != "phi":
            cells.append("" if res["phi"] is None else fnum(res["phi"]))
        for q in spec.quantity:
            cells.append(fnum(res["values"][q]))
        if spec.oracle_check:
            for q in spec.quantity:
                cells.append(fnum(res["oracle"][q]) if q in res["oracle"] else "")
            if res["oracle"]:
                sampled += 1
                max_dev = max(max_dev, res["dev"])
        cells.append(res["status"])
        rows.append(tuple(cells))

    trailer = []
    if spec.oracle_check:
        trailer.append(f"oracle_rows={sampled}")
        trailer.append(f"oracle_max_dev={fnum(max_dev)}")
    return CsvTable(tuple(meta), tuple(header), tuple(rows), tuple(trailer))


# -- figure presets -----------------------------------------------------------

_PHI_GRID = tuple(-math.pi / 2 + i * (math.pi / (200)) for i in range(201))


def _ls(start: float, stop: float, count: int) -> tuple[float, ...]:
    step = (stop - start) / (count - 1)
    return tuple(start + i * step for i in range(count))


def figure_preset(n: int, panel: str = "a") -> SweepSpec:
    """Resolved sweep behind one figure panel; axis grids are pinned here
    so preset output stays byte-reproducible."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise UnknownFigure(f"figure number must be an integer, got {n!r}")
    if n in (1, 6):
        raise UnknownFigure(f"figure {n} is a schematic, no data behind it")
    if n not in (2, 3, 4, 5, 7, 8, 9, 10, 11, 12):
        raise UnknownFigure(f"no preset for figure {n}")
    single_panel = n == 12
    if single_panel:
        if panel not in ("", "a"):
            raise UnknownFigure(f"figure {n} has a single panel")
        panel = ""
    elif panel not in ("a", "b"):
        raise UnknownFigure(f"figure {n} has panels a and b, got {panel!r}")

    if n in (2, 3):
        q = "parity" if n == 2 else "sensitivity"
        common = dict(
            quantity=(q,), sweep_name="phi", sweep_values=_PHI_GRID,
            loss=(0.0, 0.1), panel=panel,
        )
        if panel == "a":
            return SweepSpec(alpha=2.0, r=0.5, **common)
        return SweepSpec(alpha=2.0, nbar=8.0, energy_mode="fixed_total", **common)
    if n == 4:
        common = dict(
            quantity=("sensitivity",), loss=(0.0, 0.1), phi=(1e-4, 0.15), panel=panel,
        )
        if panel == "a":
            return SweepSpec(sweep_name="r", sweep_values=_ls(0.0, 1.2, 121), alpha=2.0, **common)
        return SweepSpec(sweep_name="alpha", sweep_values=_ls(0.0, 3.0, 121), r=0.5, **common)
    if n == 5:
        common = dict(
            quantity=("sensitivity",), sweep_name="l", sweep_values=_ls(0.0, 0.4, 21),
            phi=("optimal",), panel=panel,
        )
        if panel == "a":
            return SweepSpec(alpha=2.0, r=0.5, **common)
        return SweepSpec(alpha=2.0, nbar=8.0, energy_mode="fixed_total", **common)
    if n in (7, 10):
        q = "qfi_linear" if n == 7 else "qfi_kerr"
        common = dict(quantity=(q,), loss=(0.0, 0.1), panel=panel)
        if panel == "a":
            return SweepSpec(sweep_name="r", sweep_values=_ls(0.0, 1.0, 101), alpha=2.0, **common)
        return SweepSpec(sweep_name="alpha", sweep_values=_ls(0.0, 3.0, 121), r=0.5, **common)
    if n in (8, 11):
        q = "qcrb_linear" if n == 8 else "qcrb_kerr"
        common = dict(
            quantity=(q,), sweep_name="l", sweep_values=_ls(0.0, 0.9, 91),
            m_list=(1, 2, 3), panel=panel,
        )
        if panel == "a":
            return SweepSpec(alpha=2.0, r=0.5, **common)
        return SweepSpec(alpha=2.0, nbar=8.0, energy_mode="fixed_total", **common)
    if n == 9:
        common = dict(
            quantity=("sensitivity", "qcrb_linear"), sweep_name="nbar",
            sweep_values=_ls(1.0, 20.0, 20), r=0.5, energy_mode="fixed_total", panel=panel,
        )
        if panel == "a":
            return SweepSpec(loss=(0.0,), phi=(1e-4,), **common)
        return SweepSpec(loss=(0.1,), phi=("optimal",), **common)
    return SweepSpec(
        quantity=("qcrb_kerr",), sweep_name="nbar", sweep_values=_ls(1.0, 20.0, 39),
        r=0.5, energy_mode="fixed_total", loss=(0.0, 0.1), panel=panel,
    )
