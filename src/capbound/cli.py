"""Command-line interface: every operation behind one entry point, with a
machine-readable JSON report on stdout, one compact line.

`capbound COMMAND [OPTIONS]`: each command's options come from one table
(`_COMMANDS`), read as `--name value` or `--name=value`; a repeated
option keeps its last value, a flag takes no value, and an option is
never matched by a prefix of its name.  A negative int such as `--n -5`
is a value, which the command's own checks then refuse.  `-h`/`--help`
prints the top-level or the command's usage on stdout and exits 0.
`verify-clp` reads its set from a point file alone (`--set`), the form
`search --out` writes.

Checks are stages.Check values, made by the layers and rendered here
alone as {name, pass, detail}.  Exit codes: 0 when every reported check
passes (or there are none), 1 when some check fails, 2 for usage and
domain errors (message on stderr, no JSON).  A reader that closes stdout
early (`| head`) cuts the report short but changes neither the exit code
nor stderr.
Arbitrary-precision integers are serialized as decimal strings of any
length (stages._int_str), fixed-point values as {mantissa, scale, decimal}.
The report is rendered by json.dumps with its default separators and no
indent, the form json's C encoder writes (an indent runs its pure-Python
encoder, about three times slower on a verify-clp report); rendering and
printing fall outside elapsed_ms.  `| python -m json.tool` indents it.

Each command loads only the layers it runs.  The rows, the bound
family, the search and the verifier are imported at the top: `bound`,
`qnomial`, `search` and `verify-clp` take milliseconds, so importing
them lazily would move their compile into the first job of a process
that runs many.  The asymptotics layer (with fixedpoint and golden) is
imported by the handlers of `growth`, `table`, `alpha`,
`leading-constant` and `verify-recurrence`, and the acceptance battery
by `verify-all` alone.
"""
from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace
from typing import NoReturn

from .bounds import bound_for_d, optimal_bound, sharp_bound, theorem_bound
from .capsearch import MAX_BUDGET, _check_search, max_capset
from .qnomial import qnomial
from .stages import Check, Stages, _int_str
from .verifier import (POINT_FILE_MAX_CHARS, check_reach, format_pointset,
                       parse_pointset, verify_support_bound)


def _prime_powers(lo: int, hi: int) -> list[int]:
    """The q in [lo, hi] that divide a power of their least factor p > 1:
    the powers of the prime p."""
    return [q for q in range(max(lo, 2), hi + 1)
            if pow(next(p for p in range(2, q + 1) if q % p == 0), q, q) == 0]


# ---------------------------------------------------------------------------
# subcommand implementations: each returns (result_object, checks_list)

def _cmd_bound(args) -> tuple[dict, list[Check]]:
    clock, reports, checks = Stages(), [], []
    for wanted, bound in ((args.d is not None,
                           lambda n: bound_for_d(n, args.d)),
                          (args.optimize_d, optimal_bound),
                          (args.theorem, theorem_bound),
                          (args.sharp, sharp_bound)):
        if wanted:
            report = bound(args.n)
            clock.lap(report.method)
            reports.append(report)
            checks += report.checks
    if not reports:
        raise ValueError(
            "pick at least one of --d, --optimize-d, --theorem, --sharp")
    return {"bounds": [r.as_json() for r in reports],
            "timings_ms": clock.ms}, checks


def _cmd_qnomial(args) -> tuple[dict, list[Check]]:
    clock = Stages()
    value = qnomial(args.n, args.k, args.q)
    clock.lap("row")
    return {"value": _int_str(value), "timings_ms": clock.ms}, []


def _cmd_growth(args) -> tuple[dict, list[Check]]:
    from .asymptotics import growth_constant_ratio, ratio_check, saddle_point

    result: dict = {}
    counters, timings_ms = {}, {}  # the saddle's, where it runs
    if args.method in ("saddle", "both"):
        sp = saddle_point(args.q, args.digits)
        result["saddle"] = {
            "q": sp.q,
            "x0": sp.x0.as_json(),
            "constant": sp.constant.as_json(),
            "residual": sp.residual.as_json(),
        }
        counters, timings_ms = sp.counters, sp.timings_ms
    clock = Stages()
    if args.method in ("ratio", "both"):
        result["ratio_estimate"] = growth_constant_ratio(args.q)
        clock.lap("ratio")
    checks = ([ratio_check(sp.constant, result["ratio_estimate"])[0]]
              if args.method == "both" else [])
    return {**result, "counters": counters,
            "timings_ms": {**timings_ms, **clock.ms}}, checks


def _cmd_table(args) -> tuple[dict, list[Check]]:
    from . import golden
    from .asymptotics import MAX_Q, saddle_point

    if args.qmax > MAX_Q:
        raise ValueError(f"qmax must be at most {MAX_Q}, got {args.qmax}")
    if args.qmin > args.qmax:
        raise ValueError(f"qmin must be at most qmax, got qmin {args.qmin} "
                         f"and qmax {args.qmax}")
    rows, checks = [], []
    for q in _prime_powers(args.qmin, args.qmax):
        sp = saddle_point(q)
        row = {"q": q, "constant": sp.constant.as_json(),
               "counters": sp.counters, "timings_ms": sp.timings_ms}
        if q in golden.GROWTH_TABLE:
            row["reference"] = golden.GROWTH_TABLE[q]
            checks.append(golden.growth_table_check(q, sp.constant)[0])
        rows.append(row)
    return {"rows": rows}, checks


def _cmd_alpha(args) -> tuple[dict, list[Check]]:
    from . import golden
    from .asymptotics import alpha, characteristic_root

    clock = Stages()
    value = alpha(args.digits)
    clock.lap("alpha")
    root = characteristic_root(args.digits)
    clock.lap("characteristic_root")
    checks = []
    if args.digits >= golden.ALPHA_CHECK_PLACES:
        checks = [check for check, _ in golden.alpha_checks(value, root)]
    return {"alpha": value.as_json(),
            "characteristic_root": root.as_json(),
            "timings_ms": clock.ms}, checks


def _cmd_leading_constant(args) -> tuple[dict, list[Check]]:
    from . import golden
    from .asymptotics import leading_constant

    clock = Stages("constant", "check")
    value = leading_constant(args.digits)
    clock.lap("constant")
    checks = []
    if args.digits >= golden.LEADING_CONSTANT_CHECK_PLACES:
        checks.append(golden.leading_constant_digit_check(value)[0])
        clock.lap("check")
    return {"leading_constant": value.as_json(),
            "timings_ms": clock.ms}, checks


def _cmd_verify_recurrence(args) -> tuple[dict, list[Check]]:
    from .asymptotics import verify_recurrence

    clock = Stages()
    found = verify_recurrence(args.nmax)
    clock.lap("recurrence")
    return {**vars(found), "timings_ms": clock.ms}, [found.check]


def _cmd_search(args) -> tuple[dict, list[Check]]:
    # refuse --n, --budget, then an unwritable --out, all before the walk
    _check_search(args.n, args.budget)
    if args.out:
        open(args.out, "a", encoding="utf-8").close()
    result = max_capset(args.n, node_budget=args.budget)
    witness_text = format_pointset(result.witness)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(witness_text)
    return {
        "n": result.n,
        "max_size": result.max_size,
        "witness": witness_text.splitlines(),
        "nodes_explored": result.nodes_explored,
        "prunes": result.prunes,
        "proven_optimal": result.proven_optimal,
        "timings_ms": result.timings_ms,
        "counters": result.counters,
    }, result.checks


def _cmd_verify_clp(args) -> tuple[dict, list[Check]]:
    check_reach(args.n)  # before reading and encoding the file
    with open(args.set, encoding="utf-8") as fh:
        ps = parse_pointset(fh.read(POINT_FILE_MAX_CHARS + 1), args.n)
    report = verify_support_bound(ps, args.d)
    return dict(vars(report)), list(report.checks)


def _cmd_verify_all(args) -> tuple[dict, list[Check]]:
    from . import acceptance

    criteria = acceptance.run_all(level=args.level)
    result = {"level": args.level,
              "criteria": [{"name": c.name, "measured": c.measured,
                            "elapsed_ms": c.elapsed_ms,
                            "timings_ms": c.timings_ms}
                           for c in criteria]}
    return result, [c.check for c in criteria]


# ---------------------------------------------------------------------------

class _Opt:
    """One option of a command.  kind is int, str, a tuple of the
    allowed values, or bool for a flag, which takes no value and reads
    True once given.  help is a string, or a function that returns it
    when help is shown, for a text that needs a layer the command's
    handler loads.  (Plain classes: a NamedTuple costs about 0.3 ms of
    every start to create.)"""
    __slots__ = ("kind", "default", "required", "help")

    def __init__(self, kind, default=None, required=False, help=""):
        self.kind, self.default = kind, default
        self.required, self.help = required, help


class _Command:
    """A command's handler, help line and options."""
    __slots__ = ("handler", "help", "options")

    def __init__(self, handler, help, options):
        self.handler, self.help, self.options = handler, help, options


def _nmax_help() -> str:
    from .asymptotics import RECURRENCE_MAX_N

    return (f"check n = 0..nmax-2; nmax in [2, {RECURRENCE_MAX_N}] (time "
            "grows like nmax^3)")


_DESCRIPTION = ("Exact bounds for progression-free subsets of F_q^n, "
                "proof-core verification, and growth-constant tables.")
_TOP_USAGE = "capbound [-h] COMMAND [OPTIONS]"

_COMMANDS = {
    "bound": _Command(
        _cmd_bound, "bound family / optimal / headline / sharp", {
            "--n": _Opt(int, required=True),
            "--d": _Opt(int),
            "--optimize-d": _Opt(bool, False),
            "--theorem": _Opt(bool, False),
            "--sharp": _Opt(bool, False),
        }),
    "qnomial": _Command(_cmd_qnomial, "one exact coefficient", {
        "--n": _Opt(int, required=True),
        "--k": _Opt(int, required=True),
        "--q": _Opt(int, 3),
    }),
    "growth": _Command(_cmd_growth, "growth constant for one q", {
        "--q": _Opt(int, required=True),
        "--digits": _Opt(int, 40),
        "--method": _Opt(("saddle", "ratio", "both"), "saddle"),
    }),
    "table": _Command(_cmd_table, "growth constants vs pinned references", {
        "--qmin": _Opt(int, 4),
        "--qmax": _Opt(int, 31),
    }),
    "alpha": _Command(_cmd_alpha, "base-3 growth constant digits", {
        "--digits": _Opt(int, 19),
    }),
    "leading-constant": _Command(
        _cmd_leading_constant, "sqrt(n)-normalized constant", {
            "--digits": _Opt(int, 19),
        }),
    "verify-recurrence": _Command(
        _cmd_verify_recurrence, "exact recurrence check", {
            "--nmax": _Opt(int, required=True, help=_nmax_help),
        }),
    "search": _Command(_cmd_search, "maximum progression-free set search", {
        "--n": _Opt(int, required=True),
        "--budget": _Opt(int, help=f"node budget in [1, {MAX_BUDGET}], "
                                   "required at n=5 (n >= 6 is refused); it "
                                   "counts the nodes every walk enters, not "
                                   "the children each node examines; a walk "
                                   "cut short reports a lower bound"),
        "--out": _Opt(str, help="write the witness in point-file format"),
    }),
    "verify-clp": _Command(
        _cmd_verify_clp, "replay the rank argument on a set", {
            "--n": _Opt(int, required=True),
            "--d": _Opt(int, required=True),
            "--set": _Opt(str, required=True,
                          help="point file, as `search --out` writes it"),
        }),
    "verify-all": _Command(
        _cmd_verify_all, "run the whole verification battery", {
            "--level": _Opt(("quick", "full"), "quick"),
        }),
}


def _spec(name: str, opt: _Opt) -> str:
    """An option as usage and help show it, with the value it takes."""
    if opt.kind is bool:
        return name
    if isinstance(opt.kind, tuple):
        return f"{name} {{{','.join(opt.kind)}}}"
    return f"{name} {name[2:].replace('-', '_').upper()}"


def _usage(name: str) -> str:
    command = _COMMANDS[name]
    parts = [f"capbound {name} [-h]"]
    for opt_name, opt in command.options.items():
        spec = _spec(opt_name, opt)
        parts.append(spec if opt.required else f"[{spec}]")
    return " ".join(parts)


def _help(name: str | None) -> str:
    """The top-level help, or one command's when name is given."""
    import textwrap

    if name is None:
        lines = [f"usage: {_TOP_USAGE}", "", textwrap.fill(_DESCRIPTION, 79),
                 "", "commands:"]
        lines += [f"  {cmd:<17} {c.help}" for cmd, c in _COMMANDS.items()]
        lines += ["", "Run `capbound COMMAND --help` for a command's options."]
        return "\n".join(lines)
    command = _COMMANDS[name]
    lines = [f"usage: {_usage(name)}", "", command.help, "", "options:",
             "  -h, --help        show this help message and exit"]
    for opt_name, opt in command.options.items():
        spec = _spec(opt_name, opt)
        text = opt.help() if callable(opt.help) else opt.help
        lines.append(textwrap.fill(text, 79,
                                   initial_indent=f"  {spec:<17} ",
                                   subsequent_indent=" " * 20)
                     if text else f"  {spec}")
    return "\n".join(lines)


def _usage_error(prog: str, usage: str, message: str) -> NoReturn:
    print(f"usage: {usage}\n{prog}: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _is_value(token: str) -> bool:
    """Whether a token after an option is its value: anything but another
    option, so a negative int reaches the command's own checks."""
    return not token.startswith("-") or token[1:].isdigit()


def _parse(argv: list[str]) -> SimpleNamespace:
    """The command and its options, one attribute per option (dashes
    turned to underscores) holding its value or default, plus `command`.

    Prints help and exits 0 on -h/--help; prints the usage and the error
    on stderr and exits 2 on any usage error.
    """
    if argv and argv[0] in ("-h", "--help"):
        print(_help(None))
        raise SystemExit(0)
    if not argv:
        _usage_error("capbound", _TOP_USAGE,
                     "the following arguments are required: COMMAND")
    name = argv[0]
    command = _COMMANDS.get(name)
    if command is None:
        _usage_error("capbound", _TOP_USAGE,
                     f"invalid choice: {name!r} (choose from "
                     f"{', '.join(_COMMANDS)})")

    def fail(message: str) -> NoReturn:
        _usage_error(f"capbound {name}", _usage(name), message)

    values = {opt_name: opt.default
              for opt_name, opt in command.options.items()}
    given = set()
    rest = argv[1:]
    i = 0
    while i < len(rest):
        token = rest[i]
        i += 1
        if token in ("-h", "--help"):
            print(_help(name))
            raise SystemExit(0)
        opt_name, eq, value = token.partition("=")
        opt = command.options.get(opt_name) if token.startswith("--") else None
        if opt is None:
            fail(f"unrecognized arguments: {token}")
        if opt.kind is bool:
            if eq:
                fail(f"argument {opt_name}: ignored explicit argument "
                     f"{value!r}")
            value = True
        else:
            if not eq:
                if i == len(rest) or not _is_value(rest[i]):
                    fail(f"argument {opt_name}: expected one argument")
                value = rest[i]
                i += 1
            if opt.kind is int:
                try:
                    value = int(value)
                except ValueError:
                    fail(f"argument {opt_name}: invalid int value: {value!r}")
            elif isinstance(opt.kind, tuple) and value not in opt.kind:
                fail(f"argument {opt_name}: invalid choice: {value!r} "
                     f"(choose from {', '.join(map(repr, opt.kind))})")
        values[opt_name] = value
        given.add(opt_name)
    missing = [opt_name for opt_name, opt in command.options.items()
               if opt.required and opt_name not in given]
    if missing:
        fail(f"the following arguments are required: {', '.join(missing)}")
    return SimpleNamespace(command=name, **{
        opt_name[2:].replace("-", "_"): value
        for opt_name, value in values.items()})


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    clock = Stages()
    try:
        result, checks = _COMMANDS[args.command].handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    clock.lap("command")
    inputs = {k: v for k, v in vars(args).items()
              if k != "command" and v is not None}
    report = {
        "command": args.command,
        "inputs": inputs,
        "result": result,
        "checks": [{"name": c.name, "pass": c.passed, "detail": c.detail}
                   for c in checks],
        "elapsed_ms": clock.ms["command"],
    }
    text = json.dumps(report)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone.  Point stdout at /dev/null so that the flush
        # at interpreter exit does not raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 0 if all(c.passed for c in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
