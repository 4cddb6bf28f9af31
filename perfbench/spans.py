"""In-memory span recorder, wrappers around mzphase's public functions, and
the per-layer table derived from the recorded spans.

Wrappers are installed from outside the program, in three places: on the
names `sweep` imports, on the module globals that internal callers look up,
and on the MultiJet methods. Each call becomes a span (name, start, end,
parent, sweep id, photon-addition order m). Spans live in flat arrays while
the pass runs and are written out when it ends; every per-layer number is
derived from those arrays afterwards. A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import math
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


def _m_of_probe(args):
    return getattr(args[0], "m", -1) if args else -1


def _m_first(args):
    return args[0] if args else -1


def _m_second(args):
    return args[1] if len(args) > 1 else -1


# (module, attribute, layer, group, how to read m from the call arguments).
# `cli` is folded into `sweep`. The two operator-level checks that live in
# qfi_linear / qfi_kerr belong to the oracle layer, so their metric names
# survive a move of those functions into mzphase.oracle.
TARGETS = (
    ("cli", "main", "sweep", "main", None),
    ("sweep", "parity_expectation", "parity", "point", _m_of_probe),
    ("sweep", "phase_sensitivity", "parity", "point", _m_of_probe),
    ("parity", "parity_expectation", "parity", "point", _m_of_probe),
    ("parity", "classical_fisher", "parity", "point", _m_of_probe),
    ("sweep", "optimal_phase", "parity", "optimal_phase", _m_of_probe),
    ("sweep", "solve_r_for_energy", "states", "solve_r", _m_first),
    ("sweep", "pasvs_mean_photons", "states", "mean_photons", _m_second),
    ("states", "pasvs_mean_photons", "states", "mean_photons", _m_second),
    ("sweep", "moment_set", "moments", "moment_set", _m_of_probe),
    ("moments", "nb_moment", "moments", "nb_moment", _m_of_probe),
    ("sweep", "qfi_lossy_linear", "qfi_linear", "bound", None),
    ("sweep", "qfi_lossy_kerr", "qfi_kerr", "bound", None),
    ("sweep", "kerr_mu_opt", "qfi_kerr", "bound", None),
    ("sweep", "parity_signal_oracle", "oracle", "check", _m_of_probe),
    ("sweep", "qfi_lossy_numeric_check", "oracle", "check", _m_of_probe),
    ("sweep", "kerr_cq_numeric", "oracle", "check", _m_of_probe),
    ("oracle", "default_cutoff", "oracle", "cutoff", _m_of_probe),
)
# MultiJet arithmetic and analytic maps, with what their work is: "plain"
# coefficient-wise, "product" a truncated product when the other operand is
# a jet, "series" always truncated products. A truncated product
# materialises a (batch x coefficient pairs) gather.
JET_METHODS = (
    ("__add__", "plain"), ("__radd__", "plain"), ("__sub__", "plain"), ("__rsub__", "plain"),
    ("__neg__", "plain"), ("__mul__", "product"), ("__rmul__", "product"),
    ("__truediv__", "product"), ("__pow__", "series"), ("exp", "series"),
    ("recip", "series"), ("sqrt", "series"),
)
LAYERS = ("sweep", "parity", "jets", "states", "moments", "qfi_linear", "qfi_kerr", "oracle")
# span groups broken down by m, and the m values the per-layer metrics name
PER_M = (("parity.point", (0, 3)), ("parity.optimal_phase", (0, 3)), ("moments.moment_set", (0, 3, 6)))


class Recorder:
    """Spans of one traced pass plus the counters kept at the same boundaries."""

    def __init__(self):
        self.keys: list[str] = []  # "layer.group" per span name id
        self.span_names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.sweep = array("i")
        self.m = array("i")
        self.stack: list[int] = []
        self.sweep_id = -1
        self.max_batch = 0
        self.gather_bytes_max = 0
        self.cutoffs: list[int] = []
        self.fallbacks = 0
        self.missing: set[str] = set()  # targets the program no longer has

    def wrap(self, fn, name: str, key: str, m_of=None, on_call=None, on_result=None):
        if name in self.span_names:
            nid = self.span_names.index(name)
        else:
            nid = len(self.span_names)
            self.span_names.append(name)
            self.keys.append(key)
        names, start, end, parent, sweeps, ms, stack = (
            self.name, self.start, self.end, self.parent, self.sweep, self.m, self.stack,
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            up = stack[-1] if stack else -1
            names.append(nid)
            parent.append(up)
            sweeps.append(self.sweep_id)
            ms.append(m_of(args) if m_of is not None else (ms[up] if up >= 0 else -1))
            start.append(0.0)
            end.append(0.0)
            if on_call is not None:
                on_call(args)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "sweep": np.frombuffer(self.sweep, dtype=np.int32).copy(),
            "m": np.frombuffer(self.m, dtype=np.int32).copy(),
        }

    def save(self, path: str):
        np.savez(
            path,
            span_names=np.array(self.span_names),
            span_keys=np.array(self.keys),
            cutoffs=np.array(self.cutoffs, dtype=np.int64),
            **self.arrays(),
        )


@contextmanager
def installed(rec: Recorder):
    """Install every wrapper for the duration of the block, then restore."""
    try:
        from mzphase.jets import MultiJet
    except ImportError:
        MultiJet = None
        rec.missing.add("jets.MultiJet")

    saved = []

    def put(owner, attr, value):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def on_kerr(res):
        rec.fallbacks += bool(getattr(res, "fallback", False))

    hooks = {"default_cutoff": rec.cutoffs.append, "qfi_lossy_kerr": on_kerr}
    gather_per_row: dict[tuple[int, ...], int] = {}

    def jet_hook(work: str):
        def hook(args):
            a = args[0]
            batch = a._flat.shape[0]
            other_jet = len(args) > 1 and isinstance(args[1], MultiJet)
            if other_jet:
                batch = max(batch, args[1]._flat.shape[0])
            rec.max_batch = max(rec.max_batch, batch)
            if work == "series" or (work == "product" and other_jet):
                caps = a.shape.caps
                per_row = gather_per_row.get(caps)
                if per_row is None:
                    per_row = gather_per_row[caps] = math.prod((c + 1) * (c + 2) // 2 for c in caps) * 16
                rec.gather_bytes_max = max(rec.gather_bytes_max, batch * per_row)

        return hook

    try:
        for mod_name, attr, layer, group, m_of in TARGETS:
            try:
                mod = importlib.import_module(f"mzphase.{mod_name}")
            except ModuleNotFoundError:
                mod = None
            if not hasattr(mod, attr):
                rec.missing.add(f"{mod_name}.{attr}")
                continue
            traced = rec.wrap(getattr(mod, attr), f"{layer}.{attr}", f"{layer}.{group}", m_of, on_result=hooks.get(attr))
            put(mod, attr, traced)
        for meth, work in JET_METHODS if MultiJet is not None else ():
            traced = rec.wrap(MultiJet.__dict__[meth], f"jets.{meth}", "jets.op", on_call=jet_hook(work))
            put(MultiJet, meth, traced)
        yield rec
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


# -- per-layer table ----------------------------------------------------------


@dataclass(frozen=True)
class Table:
    metrics: dict[str, tuple[float, str]]  # name -> (value, unit)
    per_m: list[tuple[str, int, int, float]]  # (span group, m, calls, mean ms per call)
    layer_self_s: dict[str, float]  # every layer's self time; together they cover the pass


def derive(rec: Recorder, wall_s: float, untraced_wall_s: float, rows: int, bs_misses: int) -> Table:
    """Per-layer metrics of one traced pass, from its spans and counters.

    `*_calls` count the first span of a group on each call path, so nested
    calls (phase_sensitivity -> classical_fisher -> parity_expectation) count
    once; `*_s` are self times; `*_ms_per_call.m<k>` are inclusive means.
    """
    a = rec.arrays()
    n = a["name"].size
    dur = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    self_t = dur - np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=n)
    key_names = sorted(set(rec.keys))
    key_code = np.array([key_names.index(k) for k in rec.keys], dtype=np.int64)
    key_of = key_code[a["name"]]
    parent_key = np.where(has_parent, key_of[np.maximum(a["parent"], 0)], -1)
    outer = key_of != parent_key

    def sel(key):
        return key_of == key_names.index(key) if key in key_names else np.zeros(n, dtype=bool)

    def layer_sel(layer):
        return np.isin(key_of, [i for i, k in enumerate(key_names) if k.startswith(layer + ".")])

    def calls(key):
        return int(np.count_nonzero(outer & sel(key)))

    def self_s(key):
        return float(self_t[sel(key)].sum())

    def layer_self(layer):
        return float(self_t[layer_sel(layer)].sum())

    s = {
        "sweep.self_s": (layer_self("sweep"), "s"),
        "sweep.rows": (rows, "count"),
        "parity.point_calls": (calls("parity.point"), "count"),
        "parity.point_s": (self_s("parity.point"), "s"),
        "parity.optimal_phase_calls": (calls("parity.optimal_phase"), "count"),
        "parity.optimal_phase_s": (self_s("parity.optimal_phase"), "s"),
        "jets.ops": (int(np.count_nonzero(layer_sel("jets"))), "count"),
        "jets.self_s": (layer_self("jets"), "s"),
        "jets.max_batch": (rec.max_batch, "count"),
        "jets.gather_mb_max": (rec.gather_bytes_max / 1e6, "MB_computed"),
        "states.solve_r_calls": (calls("states.solve_r"), "count"),
        "states.solve_r_s": (self_s("states.solve_r"), "s"),
        "states.mean_photons_calls": (int(np.count_nonzero(sel("states.mean_photons"))), "count"),
        "states.mean_photons_s": (self_s("states.mean_photons"), "s"),
        "moments.moment_set_calls": (calls("moments.moment_set"), "count"),
        "moments.moment_set_s": (self_s("moments.moment_set"), "s"),
        "moments.nb_moment_calls": (calls("moments.nb_moment"), "count"),
        "moments.nb_moment_s": (self_s("moments.nb_moment"), "s"),
        "qfi_linear.calls": (calls("qfi_linear.bound"), "count"),
        "qfi_linear.s": (layer_self("qfi_linear"), "s"),
        "qfi_kerr.calls": (calls("qfi_kerr.bound"), "count"),
        "qfi_kerr.s": (layer_self("qfi_kerr"), "s"),
        "qfi_kerr.fallbacks": (rec.fallbacks, "count"),
        "oracle.calls": (calls("oracle.check"), "count"),
        "oracle.s": (layer_self("oracle"), "s"),
        "oracle.cutoff_max": (max(rec.cutoffs, default=0), "count"),
        "oracle.cutoffs_distinct": (len(set(rec.cutoffs)), "count"),
        "oracle.bs_cache_misses": (bs_misses, "count"),
    }
    per_m = []
    for key, named in PER_M:
        group = outer & sel(key)
        for m in sorted(set(a["m"][group].tolist()) | set(named)):
            pick = group & (a["m"] == m)
            k = int(np.count_nonzero(pick))
            mean_ms = float(dur[pick].mean()) * 1e3 if k else 0.0
            if m in named:
                s[f"{key}_ms_per_call.m{m}"] = (mean_ms, "ms")
            if k:
                per_m.append((key, m, k, mean_ms))
    by_layer = {layer: layer_self(layer) for layer in LAYERS}
    s["trace.wall_s"] = (wall_s, "s")
    s["trace.unaccounted_s"] = (wall_s - sum(by_layer.values()), "s")
    s["trace.overhead_frac"] = (wall_s / untraced_wall_s - 1.0, "ratio")
    return Table(s, per_m, by_layer)
