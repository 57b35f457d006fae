"""Command-line surface: rate tables, plan assembly, and parameter sweeps.

Three subcommands under one ``macc-lab`` entry point:

``rates``
    Closed-form rate calculators at one memory corner, as CSV or JSON.
``plan``
    Assemble, verify, and serialize a delivery plan for one demand round.
``sweep``
    One CSV row per (K, L, i) corner: every calculator rate next to the
    constructed rate and a decode-verified flag, in a fixed row order.

Exit codes: 0 success, 2 invalid parameters, 3 verification failure, 4 size
cap exceeded (an exact search's node cap, or a plan too large to verify).
``MACC_LAB_FIELD_W`` overrides the field degree used when encoding plans.
``--config FILE`` supplies JSON defaults for any flag of the chosen
subcommand; explicitly passed flags win.  Identical inputs produce
byte-identical output: orderings are fixed and rationals are rendered as
``num/den`` plus a six-digit decimal.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction
from itertools import chain

from .delivery import _plan_chunks, assemble, verify_plan
from .errors import ParameterError, SizeCapError, VerificationError, as_int
from .linalg_ff import FieldSpec
from .macc import MaccInstance
from .rates import compare, corner_points, memory_share

__all__ = ["main"]

_SCHEMES = ("prior_restricted", "prior_general", "divisor", "linear", "quadratic")
_MODES = ("quadratic", "linear", "divisor")
_RATES_HEADER = ("K", "L", "i", "M", "scheme", "rate_num", "rate_den", "F", "applicable")
_SWEEP_HEADER = (
    "K", "L", "i", "M", "mode",
    *(c for name in _SCHEMES + ("constructed",) for c in (name, name + "_dec")),
    "F", "transmissions", "decode_verified",
)

# guards on total sweep work; assembly verifies every tuple end to end
_SWEEP_MAX_K = 40
_SWEEP_MAX_TUPLES = 5000


def _int(value, flag: str) -> int:
    try:
        return int(value) if isinstance(value, str) else as_int(value, flag)
    except ValueError:
        raise ParameterError(f"{flag} expects an integer, got {value!r}") from None


def _fraction(value, flag: str) -> Fraction:
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError):
        raise ParameterError(f"{flag} expects a rational like 3/8 or 0.375, got {value!r}") from None


def _frac_cell(rate: Fraction | None) -> str:
    if rate is None:
        return ""
    return f"{rate.numerator}/{rate.denominator}"


def _dec_cell(rate: Fraction | None) -> str:
    if rate is None:
        return ""
    return f"{float(rate):.6f}"


def _parse_range(raw, flag: str) -> tuple[int, int]:
    """``a:b`` inclusive; a bare ``a`` means ``a:a``.  ``a > b`` is empty."""
    text = str(raw)
    lo, _, hi = text.partition(":")
    start = _int(lo, flag)
    end = start if hi == "" else _int(hi, flag)
    if start < 1:
        raise ParameterError(f"{flag} must start at 1 or above, got {text!r}")
    return start, end


def _parse_demands(raw) -> tuple[int, ...] | None:
    if raw is None:
        return None
    if isinstance(raw, (list, tuple)):
        parts = list(raw)
    else:
        parts = [p.strip() for p in str(raw).split(",") if p.strip() != ""]
    if not parts:
        raise ParameterError("--demands expects comma-separated file indices")
    return tuple(_int(p, "--demands") for p in parts)


def _field_from_env() -> FieldSpec | None:
    raw = os.environ.get("MACC_LAB_FIELD_W")
    if raw is None or raw.strip() == "":
        return None
    return FieldSpec(w=_int(raw, "MACC_LAB_FIELD_W"))


def _merge_config(args: argparse.Namespace) -> None:
    """Fill unset ``args.flags`` from ``--config`` JSON; explicit flags keep priority."""
    if not args.config:
        return
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParameterError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParameterError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParameterError("config must be a JSON object mapping flags to values")
    for key, value in data.items():
        attr = str(key).lstrip("-").replace("-", "_")
        if attr not in args.flags:
            raise ParameterError(f"config key {key!r} does not match any flag")
        if getattr(args, attr) is None:
            setattr(args, attr, value)


def _require(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise ParameterError(f"missing required --{name.replace('_', '-')}")


def _corner_args(args: argparse.Namespace) -> tuple[int, int, int]:
    _require(args, "K", "L", "i")
    return _int(args.K, "--K"), _int(args.L, "--L"), _int(args.i, "--i")


def cmd_rates(args: argparse.Namespace) -> int:
    k, l, i = _corner_args(args)
    divisor = None if args.divisor is None else _int(args.divisor, "--divisor")
    fmt = args.format or "csv"
    if fmt not in ("csv", "json"):
        raise ParameterError(f"--format must be csv or json, got {fmt!r}")
    reports = compare(k, l, i, divisor=divisor)
    corner_m = Fraction(i, k)

    rows = []
    for name in _SCHEMES:
        rep = reports[name]
        rate = rep.rate if rep.applicable else None
        rows.append((name, corner_m, rate, rep.subpacketization, rep.applicable, rep.note))
    if args.M is not None:
        mu = _fraction(args.M, "--M")
        rows.append(
            (
                "memory_share",
                mu,
                memory_share(corner_points(k, l), mu),
                None,
                True,
                "lower convex envelope of the quadratic corner points",
            )
        )

    if fmt == "json":
        payload = {
            "K": k,
            "L": l,
            "i": i,
            "rows": [
                {
                    "scheme": name,
                    "M": _frac_cell(m),
                    "rate_num": None if rate is None else rate.numerator,
                    "rate_den": None if rate is None else rate.denominator,
                    "rate_decimal": None if rate is None else _dec_cell(rate),
                    "F": f,
                    "applicable": applicable,
                    "note": note,
                }
                for name, m, rate, f, applicable, note in rows
            ],
        }
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return 0

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_RATES_HEADER)
    for name, m, rate, f, applicable, _ in rows:
        writer.writerow(
            [
                k,
                l,
                i,
                _frac_cell(m),
                name,
                "" if rate is None else rate.numerator,
                "" if rate is None else rate.denominator,
                "" if f is None else f,
                "true" if applicable else "false",
            ]
        )
    sys.stdout.write(buf.getvalue())
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    k, l, i = _corner_args(args)
    _require(args, "mode")
    mode = str(args.mode)
    if mode not in _MODES:
        raise ParameterError(f"--mode must be one of {', '.join(_MODES)}, got {mode!r}")
    divisor = None if args.divisor is None else _int(args.divisor, "--divisor")
    demands = _parse_demands(args.demands)
    if args.N is not None:
        n = _int(args.N, "--N")
    else:
        n = max(k, max(demands)) if demands else k
    cap = 20 if args.oracle_cap is None else _int(args.oracle_cap, "--oracle-cap")

    instance = MaccInstance(n_files=n, n_caches=k, access_degree=l, memory_index=i)
    plan = assemble(
        instance,
        demands,
        mode=mode,
        divisor=divisor,
        field=_field_from_env(),
        oracle_node_cap=cap,
    )
    check = verify_plan(plan)
    if not check.ok:
        raise VerificationError(
            f"plan failed verification: users_ok={check.users_ok}"
            f" constructed={_frac_cell(plan.rate)} calculator={_frac_cell(check.calculator_rate)}"
        )

    text = chain(_plan_chunks(plan), "\n")  # written a pair at a time
    summary = (
        f"rate {_frac_cell(plan.rate)} ({_dec_cell(plan.rate)})\n"
        f"F {plan.subpacketization}\n"
        f"transmissions {plan.n_transmissions}\n"
    )
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.writelines(text)
        except OSError as exc:
            raise ParameterError(f"cannot write output: {exc}") from exc
        sys.stdout.write(summary)
    else:
        sys.stdout.writelines(text)
        sys.stderr.write(summary)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    _require(args, "K_range", "out")
    k_lo, k_hi = _parse_range(args.K_range, "--K-range")
    l_bounds = None if args.L_range is None else _parse_range(args.L_range, "--L-range")
    mode = args.mode or "quadratic"
    if mode not in _MODES:
        raise ParameterError(f"--mode must be one of {', '.join(_MODES)}, got {mode!r}")
    cap = 0 if args.oracle_cap is None else _int(args.oracle_cap, "--oracle-cap")
    field = _field_from_env()

    if k_hi > _SWEEP_MAX_K:
        raise ParameterError(f"sweep K is capped at {_SWEEP_MAX_K}, got {k_hi}")
    corners = []
    for k in range(k_lo, k_hi + 1):
        l_lo, l_hi = (1, k) if l_bounds is None else (max(1, l_bounds[0]), min(k, l_bounds[1]))
        for l in range(l_lo, l_hi + 1):
            for i in range(1, -(-k // l) + 1):
                corners.append((k, l, i))
    if len(corners) > _SWEEP_MAX_TUPLES:
        raise ParameterError(
            f"sweep spans {len(corners)} corners, above the cap of {_SWEEP_MAX_TUPLES}"
        )

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_SWEEP_HEADER)
    for k, l, i in corners:
        reports = compare(k, l, i)
        instance = MaccInstance(n_files=k, n_caches=k, access_degree=l, memory_index=i)
        plan = assemble(instance, mode=mode, field=field, oracle_node_cap=cap)
        check = verify_plan(plan)
        row: list = [k, l, i, _frac_cell(Fraction(i, k)), mode]
        for name in _SCHEMES:
            rep = reports[name]
            rate = rep.rate if rep.applicable else None
            row.extend([_frac_cell(rate), _dec_cell(rate)])
        row.extend(
            [
                _frac_cell(plan.rate),
                _dec_cell(plan.rate),
                plan.subpacketization,
                plan.n_transmissions,
                "true" if all(check.users_ok) else "false",
            ]
        )
        writer.writerow(row)

    text = buf.getvalue()
    if args.out == "-":
        sys.stdout.write(text)
        return 0
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParameterError(f"cannot write output: {exc}") from exc
    return 0


def _add_config_flag(parser: argparse.ArgumentParser) -> None:
    """Add ``--config``; the dests of the flags added before may be its keys."""
    parser.set_defaults(flags={a.dest for a in parser._actions} - {"help"})
    parser.add_argument(
        "--config",
        default=None,
        metavar="FILE",
        help="JSON file of flag defaults; explicitly passed flags win",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="macc-lab",
        description="Multi-access coded caching: rate tables, delivery plans, sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rates = sub.add_parser("rates", help="closed-form rate calculators at one memory corner")
    rates.add_argument("--K", default=None, help="number of caches (= number of users)")
    rates.add_argument("--L", default=None, help="consecutive caches each user reads")
    rates.add_argument("--i", default=None, help="memory corner index (cache memory i*N/K)")
    rates.add_argument("--M", default=None, help="normalized memory share M/N for an envelope row")
    rates.add_argument("--divisor", default=None, help="explicit X dividing K for the divisor scheme")
    rates.add_argument("--format", default=None, choices=("csv", "json"), help="output format (default csv)")
    _add_config_flag(rates)
    rates.set_defaults(func=cmd_rates)

    plan = sub.add_parser("plan", help="assemble, verify, and serialize one delivery plan")
    plan.add_argument("--K", default=None, help="number of caches (= number of users)")
    plan.add_argument("--L", default=None, help="consecutive caches each user reads")
    plan.add_argument("--i", default=None, help="memory corner index (cache memory i*N/K)")
    plan.add_argument("--N", default=None, help="number of files (default max of K and demands)")
    plan.add_argument("--mode", default=None, help="construction mode: quadratic, linear, or divisor")
    plan.add_argument("--divisor", default=None, help="explicit X dividing K (divisor mode only)")
    plan.add_argument("--demands", default=None, help="comma-separated demanded file per user")
    plan.add_argument("--out", default=None, metavar="FILE", help="write plan JSON here instead of stdout")
    plan.add_argument("--oracle-cap", default=None, help="exact-search node cap (default 20)")
    _add_config_flag(plan)
    plan.set_defaults(func=cmd_plan)

    sweep = sub.add_parser("sweep", help="CSV scan over (K, L, i) corners")
    sweep.add_argument("--K-range", default=None, metavar="A:B", help="inclusive cache-count range")
    sweep.add_argument("--L-range", default=None, metavar="A:B", help="inclusive access-degree range (default 1:K)")
    sweep.add_argument("--mode", default=None, help="construction mode (default quadratic)")
    sweep.add_argument("--out", default=None, metavar="FILE", help="output CSV path, or - for stdout")
    sweep.add_argument("--oracle-cap", default=None, help="exact-search node cap (default 0: off)")
    _add_config_flag(sweep)
    sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _merge_config(args)
        return args.func(args)
    except ParameterError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except VerificationError as exc:
        sys.stderr.write(f"verification failed: {exc}\n")
        return 3
    except SizeCapError as exc:
        sys.stderr.write(f"size cap exceeded: {exc}\n")
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
