"""Command-line front end.

Exit codes: 0 success, 1 malformed spec or figure request, 2 hard numeric
failure. Only the three `sweep.ROW_ERRORS` become a per-row status in the
CSV; any other error inside a sweep (a `ConsistencyError`, say) aborts it
with exit 2 and no `--out` file is written.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import __version__
from .errors import SchemaViolation, SpecInvalid, UnknownFigure
from .states import ParamOutOfRange, pasvs_mean_photons, solve_r_for_energy
from .sweep import CsvTable, SweepSpec, figure_preset, fnum, parse_config, run_sweep

SPEC_ERRORS = (SchemaViolation, SpecInvalid, UnknownFigure, ParamOutOfRange)


def _emit(table: CsvTable, out_path: str | None):
    text = table.render()
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_sweep(args) -> int:
    with open(args.config, encoding="utf-8") as fh:
        spec = parse_config(fh.read())
    if args.oracle:
        spec = replace(spec, oracle_check=True)
    _emit(run_sweep(spec, threads=args.threads), args.out)
    return 0


def _cmd_figure(args) -> int:
    spec = figure_preset(args.number, panel=args.panel)
    if args.oracle:
        spec = replace(spec, oracle_check=True)
    _emit(run_sweep(spec, threads=args.threads), args.out)
    return 0


def _cmd_limits(args) -> int:
    spec = SweepSpec(quantity=("limits",), sweep_name="nbar", sweep_values=(), nbar=args.nbar)
    _emit(run_sweep(spec), args.out)
    return 0


def _cmd_match_energy(args) -> int:
    r = solve_r_for_energy(args.m, args.nbar_b)
    meta = (f"mzphase {__version__}", "quantity=match_energy")
    header = ("m", "nbar_b_target", "r", "nbar_b_check", "status")
    row = (
        str(args.m), fnum(args.nbar_b), fnum(r),
        fnum(pasvs_mean_photons(r, args.m)), "ok",
    )
    _emit(CsvTable(meta, header, (row,)), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mzphase",
        description="Phase-estimation sweeps for a coherent plus photon-added "
        "squeezed-vacuum interferometer.",
    )
    ap.add_argument("--version", action="version", version=f"mzphase {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sweep", help="run a sweep described by a JSON config")
    sp.add_argument("--config", required=True, help="path to the JSON sweep spec")
    sp.add_argument("--out", help="output CSV path (default stdout)")
    sp.add_argument("--oracle", action="store_true", help="add operator-level cross-check columns")
    sp.add_argument("--threads", type=int, default=1, help="worker processes for row evaluation")
    sp.set_defaults(func=_cmd_sweep)

    fp = sub.add_parser("figure", help="run the preset behind one figure panel")
    fp.add_argument("number", type=int, help="figure number (2-5, 7-12)")
    fp.add_argument("--panel", default="a", help="panel letter for two-panel figures (default a)")
    fp.add_argument("--out", help="output CSV path (default stdout)")
    fp.add_argument("--oracle", action="store_true", help="add operator-level cross-check columns")
    fp.add_argument("--threads", type=int, default=1, help="worker processes for row evaluation")
    fp.set_defaults(func=_cmd_figure)

    lp = sub.add_parser("limits", help="benchmark precision limits at a total photon number")
    lp.add_argument("--nbar", type=float, required=True)
    lp.add_argument("--out", help="output CSV path (default stdout)")
    lp.set_defaults(func=_cmd_limits)

    mp = sub.add_parser("match-energy", help="squeezing that hits a probe-arm photon number")
    mp.add_argument("--m", type=int, required=True, help="photon addition order")
    mp.add_argument("--nbar-b", type=float, required=True, help="target probe-arm mean photon number")
    mp.add_argument("--out", help="output CSV path (default stdout)")
    mp.set_defaults(func=_cmd_match_energy)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SPEC_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # hard numeric failure: report, distinct code
        print(f"numeric failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
