"""Command-line front end.

Subcommands:
  cycle   run one engine cycle and print its stroke table and ledger
  sweep   evaluate a parameter grid and write it as CSV
  verify  run the analytic-vs-numeric cross-check suite

Exit codes: 0 success, 1 usage/config/io error, 2 invalid cycle
parameters, 3 verification failures.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from .config import ConfigError, load_config, parse_float_list
from .engine import (
    LEDGER_FIELDS,
    CycleMode,
    CycleParams,
    EnergyLedger,
    InvalidCycleError,
    first_law_residual,
    run_analytic,
    run_numeric,
)
from .sweep import SweepSpec, _cell, run_sweep
from .verify import (
    DEFAULT_B_GRID,
    DEFAULT_GAMMA_GRID,
    DEFAULT_R_GRID,
    normalize_perturb_field,
    run_verification,
)

DEFAULT_B = math.log(2.0)


class UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract here is 1.
    def error(self, message):
        raise UsageError(message)


@functools.cache  # built on first use, then shared: parsing does not change it
def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="measengine", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_ArgumentParser)

    cycle = sub.add_parser("cycle", help="run one engine cycle")
    cycle.add_argument("--mode", choices=[m.value for m in CycleMode])
    cycle.add_argument("--b", type=float, help=f"inverse temperature (default {DEFAULT_B:g})")
    cycle.add_argument("--gamma", type=float, help="strength fraction in [0, 1]")
    cycle.add_argument("--r", type=float, help="frequency ratio >= 1 (default 1)")
    cycle.add_argument("--config", help="key=value config file; flags override it")
    group = cycle.add_mutually_exclusive_group()
    group.add_argument("--analytic", dest="source", action="store_const", const="analytic")
    group.add_argument("--numeric", dest="source", action="store_const", const="numeric")
    group.add_argument("--both", dest="source", action="store_const", const="both")
    cycle.set_defaults(func=cmd_cycle, source=None)

    sweep = sub.add_parser("sweep", help="evaluate a parameter grid to CSV")
    sweep.add_argument("--mode", choices=[m.value for m in CycleMode])
    sweep.add_argument("--b-values", dest="b_values")
    sweep.add_argument("--gamma-values", dest="gamma_values")
    sweep.add_argument("--r-values", dest="r_values")
    sweep.add_argument("--out", help="output CSV path")
    sweep.add_argument("--config", help="key=value config file; flags override it")
    sweep.set_defaults(func=cmd_sweep)

    verify = sub.add_parser("verify", help="run the cross-check suite")
    verify.add_argument("--grid-b", dest="grid_b")
    verify.add_argument("--grid-gamma", dest="grid_gamma")
    verify.add_argument("--grid-r", dest="grid_r")
    verify.add_argument("--perturb", help="fault injection: add 0.1 to one ledger field")
    verify.set_defaults(func=cmd_verify)

    return parser


def _pick(flag_value, config: dict, key: str, default=None, required: bool = False):
    if flag_value is not None:
        return flag_value
    if key in config:
        return config[key]
    if required and default is None:
        raise UsageError(f"{key} is required (pass --{key.replace('_', '-')} or set it in a config file)")
    return default


def _parse_list_flag(text: str | None, what: str) -> tuple[float, ...] | None:
    if text is None:
        return None
    try:
        return parse_float_list(text)
    except ValueError as exc:
        raise UsageError(f"bad {what}: {exc}") from None


def _render_ledger(ledger: EnergyLedger) -> str:
    lines = [f"[{ledger.source}]"]
    lines.append(f"  {'stroke':<8}{'energy':>18}{'entropy':>18}")
    for rec in ledger.strokes:
        lines.append(f"  {rec.name:<8}{_cell(rec.energy_after):>18}{_cell(rec.entropy_after):>18}")
    numbers = [f"{name}={_cell(getattr(ledger, name))}" for name in LEDGER_FIELDS]
    lines.append(f"  {' '.join(numbers)} first_law_residual={_cell(first_law_residual(ledger))} "
                 f"valid={1 if ledger.valid else 0}")
    if ledger.flags:
        lines.append("  flags=" + ",".join(ledger.flags))
    return "\n".join(lines)


def cmd_cycle(args) -> int:
    config = load_config(args.config) if args.config else {}
    mode = _pick(args.mode, config, "mode", required=True)
    b = float(_pick(args.b, config, "b", default=DEFAULT_B))
    gamma = _pick(args.gamma, config, "gamma", required=True)
    r = float(_pick(args.r, config, "r", default=1.0))
    source = args.source or "both"
    params = CycleParams(b=b, gamma=float(gamma), mode=mode, r=r)

    ledgers = []
    if source in ("numeric", "both"):
        ledgers.append(run_numeric(params))
    if source in ("analytic", "both"):
        ledgers.append(run_analytic(params))

    print(
        f"mode={params.mode.value} b={_cell(params.b)} gamma={_cell(params.gamma)} "
        f"r={_cell(params.r)} P={_cell(params.strength)} source={source}"
    )
    for ledger in ledgers:
        print(_render_ledger(ledger))
    return 0


def cmd_sweep(args) -> int:
    config = load_config(args.config) if args.config else {}
    mode = _pick(args.mode, config, "mode", required=True)
    b_values = _pick(_parse_list_flag(args.b_values, "--b-values"), config, "b_values", required=True)
    gamma_values = _pick(
        _parse_list_flag(args.gamma_values, "--gamma-values"), config, "gamma_values", required=True
    )
    r_values = _pick(_parse_list_flag(args.r_values, "--r-values"), config, "r_values", default=(1.0,))
    out = _pick(args.out, config, "output")
    if not out:  # missing, or empty as `--out ""` and a config line `output =` give it
        raise UsageError("output is required (pass --out or set it in a config file)")
    spec = SweepSpec(
        mode=mode, b_values=b_values, gamma_values=gamma_values,
        r_values=r_values, output_path=str(out),
    )
    count = run_sweep(spec)
    print(f"wrote {count} rows to {spec.output_path}")
    return 0


def cmd_verify(args) -> int:
    b_grid = _parse_list_flag(args.grid_b, "--grid-b") or DEFAULT_B_GRID
    gamma_grid = _parse_list_flag(args.grid_gamma, "--grid-gamma") or DEFAULT_GAMMA_GRID
    r_grid = _parse_list_flag(args.grid_r, "--grid-r") or DEFAULT_R_GRID
    perturb = args.perturb
    if perturb is not None:
        try:
            perturb = normalize_perturb_field(perturb)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    report = run_verification(b_grid, gamma_grid, r_grid, perturb=perturb)
    print(report.summary())
    return 0 if report.passed else 3


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            raise UsageError("a subcommand is required: cycle, sweep, or verify")
        return args.func(args)
    except UsageError as exc:
        print(parser.format_usage(), end="", file=sys.stderr)
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except InvalidCycleError as exc:
        print(f"invalid cycle: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
