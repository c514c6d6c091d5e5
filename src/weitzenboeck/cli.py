"""Command line interface.

Exit codes: 0 success (verify: all degrees complete), 1 verification
failure (incomplete degree, NOT IN SPAN, not in kernel), 2 usage, parse,
or ambient errors, and a k or degree too large for Python's recursion
limit: the per-block counts recurse over k and the degree, and the
product walk once per factor.  Output is byte-identical across runs;
`--output machine` emits JSON objects with keys command/params/result
(one document per run, except `census`, which streams one record per
line).

Every command's options are one table, `_COMMANDS`.  `main` reads a
well-formed command line from it directly (`_read`); anything else, `--help`
and every usage error included, goes to the argparse parser that
`build_parser` builds from the same table, so importing this module loads
no argparse and a well-formed call builds no parser.
"""

from __future__ import annotations

import sys
from functools import cache
from types import SimpleNamespace

from .covariants import Covariant, tau, transvectant
from .derivation import WeitzenboeckDerivation, generators
from .errors import IndexOutOfRange, NotInKernel, NotInSpan, UnknownLabel, UnsupportedK
from .kernel import completeness_check, express_in_generators, kernel_dim
from .poly import Ambient, _signed_sum, parse


class _Flag:
    """One `--flag VALUE` option of the table, as both `_read` and `build_parser` read it.

    `type` is `int` or `str`.  An `append` flag collects its values into a
    list, empty when it is not given; an `exclusive` flag may not be given
    with another exclusive flag of the same command.
    """

    __slots__ = ("flag", "dest", "type", "default", "required", "choices", "append", "exclusive", "metavar", "help")

    def __init__(self, flag, help, type=str, default=None, required=False, choices=None, append=False, exclusive=False, metavar=None):
        self.flag = flag
        self.dest = flag[2:].replace("-", "_")
        self.type = type
        self.default = default
        self.required = required
        self.choices = choices
        self.append = append
        self.exclusive = exclusive
        self.metavar = metavar
        self.help = help


_COMMON = (
    _Flag("--n", "number of chain blocks (>= 1)", int, required=True),
    _Flag("--k", "chain length minus one (default 1)", int, default=1),
    _Flag("--output", "output format", choices=("text", "machine"), default="text"),
    _Flag("--seed", "accepted for interface stability; no shipped command is randomized", int, default=0),
)
_DEGREES = (  # verify and census, the commands that read degrees
    _Flag("--max-degree", "largest total degree to process", int, exclusive=True),
    _Flag("--degree", "process a single total degree", int, exclusive=True),
)
_POLY = _Flag("--poly", "polynomial text", required=True)


@cache
def build_parser():
    """The argparse parser of `_COMMANDS`, built once per process and shared by every `main` call.

    `main` asks for it only for a command line `_read` does not take: it
    prints `--help` and every usage message.  Parsing does not change it:
    argparse copies the `--exclude` default list before appending, so calls
    share no state.
    """
    import argparse  # a well-formed command line never needs it

    parser = argparse.ArgumentParser(prog="weitzenboeck", description="exact kernel computations for chain derivations")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        degrees = None
        for flag in flags:
            if flag.exclusive:
                degrees = degrees or command.add_mutually_exclusive_group()
            (degrees if flag.exclusive else command).add_argument(
                flag.flag,
                action="append" if flag.append else "store",
                type=flag.type,
                default=[] if flag.append else flag.default,
                required=flag.required,
                choices=flag.choices,
                metavar=flag.metavar,
                help=flag.help,
            )
    return parser


def _read(argv):
    """The namespace `build_parser().parse_args(argv)` returns, if `argv` is well formed; else None.

    Well formed is a command name, then `--flag value` pairs, each flag an
    exact name of that command's, given once (an append flag may repeat),
    each value one that argparse also reads as a value: not starting with
    `-`, unless it is a negative integer or starts with `- ` (`- x1`).
    Every `int` value converts, every value with choices is one of them,
    every required flag is given and at most one exclusive flag.  Every
    other form, however argparse reads it (`--help`, `--flag=value`, an
    abbreviation, `--`, or an error), is None.
    """
    if not argv or argv[0] not in _COMMANDS or len(argv) % 2 == 0:
        return None
    flags = _COMMANDS[argv[0]][2]
    by_name = {flag.flag: flag for flag in flags}
    values = {flag.dest: [] if flag.append else flag.default for flag in flags}
    given = set()
    for name, value in zip(argv[1::2], argv[2::2]):
        flag = by_name.get(name)
        if flag is None or (flag in given and not flag.append):
            return None
        if value[:1] == "-" and value[:2] != "- " and not (value[1:].isdigit() and value.isascii()):
            return None
        if flag.type is int:
            try:
                value = int(value)
            except ValueError:
                return None
        if flag.choices and value not in flag.choices:
            return None
        if flag.append:
            values[flag.dest].append(value)
        else:
            values[flag.dest] = value
        given.add(flag)
    if any(flag.required and flag not in given for flag in flags):
        return None
    if sum(flag.exclusive for flag in given) > 1:
        return None
    return SimpleNamespace(command=argv[0], **values)


def _machine(args, result) -> str:
    import json  # only machine output needs it; text-mode calls do not pay its import

    params = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("command", "output") and value not in (None, [])
    }
    return json.dumps({"command": args.command, "params": params, "result": result}, sort_keys=True)


def _degree_range(args) -> range:
    if args.degree is not None:
        if args.degree < 0:
            raise ValueError(f"--degree must be >= 0, got {args.degree}")
        return range(args.degree, args.degree + 1)
    if args.max_degree is None:
        raise ValueError("one of --max-degree or --degree is required")
    if args.max_degree < 0:
        raise ValueError(f"--max-degree must be >= 0, got {args.max_degree}")
    return range(args.max_degree + 1)


def cmd_gens(args) -> int:
    gens = generators(args.n, args.k)
    if args.output == "machine":
        result = [
            {"label": label, "poly": str(p), "degree": p.total_degree()} for label, p in gens
        ]
        print(_machine(args, result))
    else:
        for label, p in gens:
            text = str(p)
            print(label if text == label else f"{label} = {text}")
    return 0


def cmd_verify(args) -> int:
    reports = [
        completeness_check(args.n, args.k, d, exclude=args.exclude) for d in _degree_range(args)
    ]
    ok = all(r.complete for r in reports)
    if args.output == "machine":
        print(_machine(args, [r.to_dict() for r in reports]))
    else:
        for r in reports:
            status = "OK" if r.complete else "FAIL"
            print(f"degree {r.degree}: kernel_dim={r.kernel_dim} span_dim={r.span_dim} {status}")
        print("verify: all degrees complete" if ok else "verify: INCOMPLETE")
    return 0 if ok else 1


def cmd_census(args) -> int:
    for d in _degree_range(args):
        dim = kernel_dim(args.n, args.k, d)
        if args.output == "machine":
            print(_machine(args, {"degree": d, "kernel_dim": dim}), flush=True)
        else:
            print(f"degree {d}: kernel_dim={dim}", flush=True)
    return 0


def cmd_apply(args) -> int:
    amb = Ambient(args.n, args.k)
    result = WeitzenboeckDerivation(args.n, args.k).apply(parse(args.poly, amb))
    print(_machine(args, str(result)) if args.output == "machine" else str(result))
    return 0


def cmd_nilpotency(args) -> int:
    amb = Ambient(args.n, args.k)
    index = WeitzenboeckDerivation(args.n, args.k).nilpotency_index(parse(args.poly, amb))
    print(_machine(args, index) if args.output == "machine" else str(index))
    return 0


def cmd_transvect(args) -> int:
    amb = Ambient(args.n, args.k)
    u = Covariant.from_polynomial(parse(args.u, amb))
    v = Covariant.from_polynomial(parse(args.v, amb))
    result = transvectant(u, v, args.r)
    if args.output == "machine":
        print(_machine(args, {"poly": str(result.value), "order": result.order}))
    else:
        print(str(result.value))
    return 0


def cmd_tau(args) -> int:
    amb = Ambient(args.n, args.k)
    result = tau(Covariant.from_polynomial(parse(args.poly, amb)))
    print(_machine(args, str(result)) if args.output == "machine" else str(result))
    return 0


def cmd_express(args) -> int:
    amb = Ambient(args.n, args.k)
    p = parse(args.poly, amb)
    gens = generators(args.n, args.k)
    try:
        combination = express_in_generators(p, gens)
    except NotInSpan:
        if args.output == "machine":
            print(_machine(args, {"in_span": False, "combination": None}))
        else:
            print("NOT IN SPAN")
        return 1
    if args.output == "machine":
        result = {
            "in_span": True,
            "combination": [
                {"labels": list(labels), "coeff": str(coeff)} for labels, coeff in combination.items()
            ],
        }
        print(_machine(args, result))
    else:
        print(_signed_sum((coeff, labels) for labels, coeff in combination.items()))
    return 0


# command -> (handler, --help text, options in --help order)
_COMMANDS = {
    "gens": (cmd_gens, "emit the known kernel generators (k = 1 or 2)", _COMMON),
    "verify": (
        cmd_verify,
        "certify generators span the kernel, degree by degree",
        _COMMON + _DEGREES + (_Flag("--exclude", "drop a generator by label (repeatable)", append=True, metavar="LABEL"),),
    ),
    "census": (cmd_census, "kernel dimensions per degree (any k; no generation claim)", _COMMON + _DEGREES),
    "apply": (cmd_apply, "apply the derivation to a polynomial", _COMMON + (_POLY,)),
    "nilpotency": (cmd_nilpotency, "smallest r with D^r(p) = 0", _COMMON + (_POLY,)),
    "transvect": (
        cmd_transvect,
        "r-th transvectant of two covariants",
        _COMMON
        + (
            _Flag("--r", "transvectant order", int, required=True),
            _Flag("--u", "first covariant, polynomial text", required=True),
            _Flag("--v", "second covariant, polynomial text", required=True),
        ),
    ),
    "tau": (cmd_tau, "leading CX coefficient of a covariant", _COMMON + (_Flag("--poly", "covariant, polynomial text", required=True),)),
    "express": (cmd_express, "write a kernel element in the generators", _COMMON + (_POLY,)),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    if args.n < 1 or args.k < 1:
        build_parser().error("--n and --k must be >= 1")
    try:
        return _COMMANDS[args.command][0](args)
    except UnsupportedK as exc:
        print(f"error: {exc}; use 'census' for kernel dimensions when k >= 3", file=sys.stderr)
        return 2
    except UnknownLabel as exc:
        print(f"error: unknown generator label {exc}", file=sys.stderr)
        return 2
    except (NotInKernel, NotInSpan) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, IndexOutOfRange) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # the per-block counts recurse over k and the degree, the product walk once per factor
        degree = getattr(args, "degree", None)
        if degree is None:
            degree = getattr(args, "max_degree", None)
        sizes = f"n = {args.n}, k = {args.k}" + ("" if degree is None else f", degree = {degree}")
        print(f"error: too large for this implementation ({sizes}): maximum recursion depth exceeded", file=sys.stderr)
        return 2


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
