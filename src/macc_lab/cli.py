"""Command-line surface: rate tables, plan assembly, and parameter sweeps.

Three subcommands under one ``macc-lab`` entry point:

``rates``
    Closed-form rate calculators at one memory corner, as CSV or JSON.
``plan``
    Assemble, verify, and serialize a delivery plan for one demand round.
``sweep``
    One CSV row per (K, L, i) corner: every calculator rate next to the
    constructed rate and a decode-verified flag, in a fixed row order.

Each flag is declared once, in ``_FLAGS``, with the converter that checks
and types its value, and each subcommand once, in ``_COMMANDS``. ``--config
FILE`` supplies JSON values for any flag of the chosen subcommand; explicitly
passed flags win, and values from both sources pass the same converter.

``plan`` and ``sweep`` write to ``--out PATH``, or to stdout for ``-``, an
empty value or no ``--out``; ``plan``'s summary takes the other stream.

Exit codes: 0 success, 1 the reader closed the output early, 2 invalid
parameters, 3 verification failure, 4 size cap exceeded (an exact search's
node cap, or a plan too large to verify).
``MACC_LAB_FIELD_W`` overrides the field degree used when encoding plans.
Identical inputs produce byte-identical output: orderings are fixed and
rationals are rendered as ``num/den`` plus a six-digit decimal.
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
_RATES_HEADER = ("K", "L", "i", "M", "scheme", "rate_num", "rate_den", "F", "applicable")
_SWEEP_HEADER = (
    "K", "L", "i", "M", "mode",
    *(c for name in _SCHEMES + ("constructed",) for c in (name, name + "_dec")),
    "F", "transmissions", "decode_verified",
)

# guards total sweep work; assembly verifies every corner end to end
_SWEEP_MAX_K = 40


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


def _text(value, flag: str) -> str:
    if not isinstance(value, str):
        raise ParameterError(f"{flag} expects a string, got {value!r}")
    return value


def _choice(*options: str):
    def convert(value, flag: str) -> str:
        if _text(value, flag) not in options:
            raise ParameterError(f"{flag} must be one of {', '.join(options)}, got {value!r}")
        return value

    return convert


def _range(value, flag: str) -> tuple[int, int]:
    """``a:b`` inclusive; a bare ``a`` means ``a:a``.  ``a > b`` is empty."""
    lo, _, hi = _text(value, flag).partition(":")
    start = _int(lo, flag)
    end = start if hi == "" else _int(hi, flag)
    if start < 1:
        raise ParameterError(f"{flag} must start at 1 or above, got {value!r}")
    return start, end


def _demands(value, flag: str) -> tuple[int, ...]:
    """A comma-separated string, or from ``--config`` a JSON list."""
    parts = value if isinstance(value, list) else [p.strip() for p in str(value).split(",") if p.strip()]
    if not parts:
        raise ParameterError(f"{flag} expects comma-separated file indices")
    return tuple(_int(p, flag) for p in parts)


def _field_from_env() -> FieldSpec | None:
    raw = os.environ.get("MACC_LAB_FIELD_W")
    if raw is None or raw.strip() == "":
        return None
    return FieldSpec(w=_int(raw, "MACC_LAB_FIELD_W"))


# flag (its argparse dest): converter, metavar (None: argparse's), help
_FLAGS = {
    "K": (_int, None, "number of caches (= number of users)"),
    "L": (_int, None, "consecutive caches each user reads"),
    "i": (_int, None, "memory corner index (cache memory i*N/K)"),
    "N": (_int, None, "number of files (default max of K and demands)"),
    "M": (_fraction, None, "normalized memory share M/N for an envelope row"),
    "divisor": (_int, None, "explicit X dividing K for the divisor scheme (plan: divisor mode only)"),
    "demands": (_demands, None, "comma-separated demanded file per user"),
    "mode": (_choice("quadratic", "linear", "divisor"), None,
             "construction mode: quadratic, linear, or divisor (sweep's default quadratic)"),
    "format": (_choice("csv", "json"), "{csv,json}", "output format (default csv)"),
    "K_range": (_range, "A:B", "inclusive cache-count range"),
    "L_range": (_range, "A:B", "inclusive access-degree range (default 1:K)"),
    "out": (_text, "FILE", "output file for the plan JSON or sweep CSV (- or omitted: stdout)"),
    "oracle_cap": (_int, None, "exact-search node cap (default 20 for plan, 0: off for sweep)"),
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _write(out: str | None, chunks) -> bool:
    """Write text ``chunks`` to the file ``out``, or to stdout when ``out`` is
    ``-``, empty or ``None``; return whether they went to stdout."""
    if out in (None, "", "-"):
        sys.stdout.writelines(chunks)
        return True
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise ParameterError(f"cannot write output: {exc}") from exc
    return False


def cmd_rates(s: dict) -> int:
    k, l, i = s["K"], s["L"], s["i"]
    reports = compare(k, l, i, divisor=s["divisor"])
    corner_m = Fraction(i, k)

    rows = [
        (rep.scheme, corner_m, rep.rate, rep.subpacketization, rep.applicable, rep.note)
        for rep in (reports[name] for name in _SCHEMES)
    ]
    if s["M"] is not None:
        rows.append(
            (
                "memory_share",
                s["M"],
                memory_share(corner_points(k, l), s["M"]),
                None,
                True,
                "lower convex envelope of the quadratic corner points",
            )
        )

    if s["format"] == "json":
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

    sys.stdout.write(_csv(_RATES_HEADER, (
        [k, l, i, _frac_cell(m), name, *(("", "") if rate is None else (rate.numerator, rate.denominator)),
         "" if f is None else f, "true" if applicable else "false"]
        for name, m, rate, f, applicable, _ in rows
    )))
    return 0


def cmd_plan(s: dict) -> int:
    k, demands = s["K"], s["demands"]
    n = s["N"] if s["N"] is not None else max(k, max(demands)) if demands else k

    instance = MaccInstance(n_files=n, n_caches=k, access_degree=s["L"], memory_index=s["i"])
    plan = assemble(
        instance,
        demands,
        mode=s["mode"],
        divisor=s["divisor"],
        field=_field_from_env(),
        oracle_node_cap=s["oracle_cap"],
    )
    check = verify_plan(plan)
    if not check.ok:
        raise VerificationError(
            f"plan failed verification: users_ok={check.users_ok}"
            f" constructed={_frac_cell(plan.rate)} calculator={_frac_cell(check.calculator_rate)}"
        )

    # written a pair at a time; the summary takes the stream the plan did not
    to_stdout = _write(s["out"], chain(_plan_chunks(plan), "\n"))
    (sys.stderr if to_stdout else sys.stdout).write(
        f"rate {_frac_cell(plan.rate)} ({_dec_cell(plan.rate)})\n"
        f"F {plan.subpacketization}\n"
        f"transmissions {plan.n_transmissions}\n"
    )
    return 0


def cmd_sweep(s: dict) -> int:
    (k_lo, k_hi), l_bounds, mode = s["K_range"], s["L_range"], s["mode"]
    field = _field_from_env()

    if k_hi > _SWEEP_MAX_K:
        raise ParameterError(f"sweep K is capped at {_SWEEP_MAX_K}, got {k_hi}")
    corners = []
    for k in range(k_lo, k_hi + 1):
        l_lo, l_hi = (1, k) if l_bounds is None else (max(1, l_bounds[0]), min(k, l_bounds[1]))
        for l in range(l_lo, l_hi + 1):
            for i in range(1, -(-k // l) + 1):
                corners.append((k, l, i))

    rows = []
    for k, l, i in corners:
        reports = compare(k, l, i)
        instance = MaccInstance(n_files=k, n_caches=k, access_degree=l, memory_index=i)
        plan = assemble(instance, mode=mode, field=field, oracle_node_cap=s["oracle_cap"])
        check = verify_plan(plan)
        rates = [reports[name].rate for name in _SCHEMES] + [plan.rate]
        rows.append([
            k, l, i, _frac_cell(Fraction(i, k)), mode,
            *(cell(rate) for rate in rates for cell in (_frac_cell, _dec_cell)),
            plan.subpacketization, plan.n_transmissions, "true" if all(check.users_ok) else "false",
        ])
    _write(s["out"], [_csv(_SWEEP_HEADER, rows)])
    return 0


# subcommand: function, help, the flags it requires, {flag: default}
_COMMANDS = {
    "rates": (cmd_rates, "closed-form rate calculators at one memory corner", ("K", "L", "i"),
              dict(K=None, L=None, i=None, M=None, divisor=None, format="csv")),
    "plan": (cmd_plan, "assemble, verify, and serialize one delivery plan", ("K", "L", "i", "mode"),
             dict(K=None, L=None, i=None, N=None, mode=None, divisor=None, demands=None, out=None, oracle_cap=20)),
    "sweep": (cmd_sweep, "CSV scan over (K, L, i) corners", ("K_range",),
              dict(K_range=None, L_range=None, mode="quadratic", out=None, oracle_cap=0)),
}


def _settings(args: argparse.Namespace) -> dict:
    """Every flag of ``args.command``: the command line's value, else
    ``--config``'s, else the command's default. Every value given passes its
    flag's converter, even one the command line overrides."""
    _, _, required, defaults = _COMMANDS[args.command]
    data = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ParameterError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ParameterError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ParameterError("config must be a JSON object mapping flags to values")
    passed = [(name, getattr(args, name)) for name in defaults if getattr(args, name) is not None]
    values = {}
    for key, value in [*data.items(), *passed]:  # the command line's last, so it wins
        name = str(key).lstrip("-").replace("-", "_")
        if name not in defaults:
            raise ParameterError(f"config key {key!r} does not match any flag")
        values[name] = _FLAGS[name][0](value, _flag(name))
    for name in required:
        if name not in values:
            raise ParameterError(f"missing required {_flag(name)}")
    return {**defaults, **values}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="macc-lab",
        description="Multi-access coded caching: rate tables, delivery plans, sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, text, _, defaults) in _COMMANDS.items():
        flags = sub.add_parser(command, help=text)
        for name in defaults:
            _, metavar, help_text = _FLAGS[name]
            flags.add_argument(_flag(name), metavar=metavar, help=help_text)
        # the one flag that is not a setting: where more settings come from
        flags.add_argument("--config", metavar="FILE", help="JSON file of flag defaults; explicitly passed flags win")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = _COMMANDS[args.command][0](_settings(args))
        sys.stdout.flush()  # so a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader left early: send what is still buffered to devnull so the
        # final flush cannot fail again (the SIGPIPE note in Python's signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
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
