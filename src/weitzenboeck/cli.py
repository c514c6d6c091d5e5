"""Command line interface.

Exit codes: 0 success (verify: all degrees complete), 1 verification
failure (incomplete degree, NOT IN SPAN, not in kernel), 2 usage, parse,
or ambient errors.  Output is byte-identical across runs; `--output
machine` emits JSON objects with keys command/params/result (one document
per run, except `census`, which streams one record per line).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .covariants import Covariant, tau, transvectant
from .derivation import WeitzenboeckDerivation, generators
from .errors import IndexOutOfRange, NotInKernel, NotInSpan, UnknownLabel, UnsupportedK
from .kernel import completeness_check, express_in_generators, kernel_dim
from .poly import Ambient, parse


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process and shared by every `main` call.

    Parsing does not change it: argparse copies the `--exclude` default list
    before appending, so calls share no state.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n", type=int, required=True, help="number of chain blocks (>= 1)")
    common.add_argument("--k", type=int, default=1, help="chain length minus one (default 1)")
    degrees = common.add_mutually_exclusive_group()
    degrees.add_argument("--max-degree", type=int, default=None, help="largest total degree to process")
    degrees.add_argument("--degree", type=int, default=None, help="process a single total degree")
    common.add_argument("--output", choices=("text", "machine"), default="text", help="output format")
    common.add_argument("--seed", type=int, default=0, help="accepted for interface stability; no shipped command is randomized")

    parser = argparse.ArgumentParser(prog="weitzenboeck", description="exact kernel computations for chain derivations")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("gens", parents=[common], help="emit the known kernel generators (k = 1 or 2)")

    p_verify = sub.add_parser("verify", parents=[common], help="certify generators span the kernel, degree by degree")
    p_verify.add_argument("--exclude", action="append", default=[], metavar="LABEL", help="drop a generator by label (repeatable)")

    sub.add_parser("census", parents=[common], help="kernel dimensions per degree (any k; no generation claim)")

    p_apply = sub.add_parser("apply", parents=[common], help="apply the derivation to a polynomial")
    p_apply.add_argument("--poly", required=True, help="polynomial text")

    p_nil = sub.add_parser("nilpotency", parents=[common], help="smallest r with D^r(p) = 0")
    p_nil.add_argument("--poly", required=True, help="polynomial text")

    p_tr = sub.add_parser("transvect", parents=[common], help="r-th transvectant of two covariants")
    p_tr.add_argument("--r", type=int, required=True, help="transvectant order")
    p_tr.add_argument("--u", required=True, help="first covariant, polynomial text")
    p_tr.add_argument("--v", required=True, help="second covariant, polynomial text")

    p_tau = sub.add_parser("tau", parents=[common], help="leading CX coefficient of a covariant")
    p_tau.add_argument("--poly", required=True, help="covariant, polynomial text")

    p_ex = sub.add_parser("express", parents=[common], help="write a kernel element in the generators")
    p_ex.add_argument("--poly", required=True, help="polynomial text")

    return parser


def _machine(args, result) -> str:
    params = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("command", "output") and value not in (None, [])
    }
    return json.dumps({"command": args.command, "params": params, "result": result}, sort_keys=True)


def _degree_range(args) -> range:
    if args.degree is not None:
        return range(args.degree, args.degree + 1)
    if args.max_degree is None:
        raise SystemExit2("one of --max-degree or --degree is required")
    if args.max_degree < 0:
        raise SystemExit2(f"--max-degree must be >= 0, got {args.max_degree}")
    return range(args.max_degree + 1)


class SystemExit2(Exception):
    """Usage error detected after argparse (exit code 2)."""


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


def _format_combination(combination) -> str:
    if not combination:
        return "0"
    parts = []
    for labels, coeff in combination.items():
        # the coefficient prints unless it is +-1 on a nonempty product
        body = "*".join(labels if labels and abs(coeff) == 1 else (str(abs(coeff)),) + labels)
        if not parts:
            parts.append(f"-{body}" if coeff < 0 else body)
        else:
            parts.append(f" - {body}" if coeff < 0 else f" + {body}")
    return "".join(parts)


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
        print(_format_combination(combination))
    return 0


_COMMANDS = {
    "gens": cmd_gens,
    "verify": cmd_verify,
    "census": cmd_census,
    "apply": cmd_apply,
    "nilpotency": cmd_nilpotency,
    "transvect": cmd_transvect,
    "tau": cmd_tau,
    "express": cmd_express,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.n < 1 or args.k < 1:
        parser.error("--n and --k must be >= 1")
    try:
        return _COMMANDS[args.command](args)
    except UnsupportedK as exc:
        print(f"error: {exc}; use 'census' for kernel dimensions when k >= 3", file=sys.stderr)
        return 2
    except UnknownLabel as exc:
        print(f"error: unknown generator label {exc}", file=sys.stderr)
        return 2
    except (NotInKernel, NotInSpan) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, IndexOutOfRange, SystemExit2) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
