"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import importlib.util
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from weitzenboeck import Ambient, Polynomial, WeitzenboeckDerivation, cli  # noqa: E402

HELD_OUT_SEED = 2


def _oracle():
    spec = importlib.util.spec_from_file_location("oracle_conftest", ROOT / "tests" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ungraded_kernel_dimension


def test_count_matches_golden_census():
    golden = json.loads((ROOT / "tests" / "golden" / "census_n2_k3.json").read_text())
    n, k = golden["n"], golden["k"]
    assert {str(d): ref.kernel_dim(n, k, d) for d in range(len(golden["kernel_dims"]))} == golden["kernel_dims"]


@pytest.mark.parametrize("n,k,top", [(1, 1, 4), (2, 1, 3), (3, 1, 2), (1, 2, 4), (2, 2, 3), (1, 3, 4), (2, 3, 3), (2, 4, 2)])
def test_count_matches_ungraded_oracle(n, k, top):
    oracle = _oracle()
    for d in range(top + 1):
        assert ref.kernel_dim(n, k, d) == oracle(n, k, d), (n, k, d)


def test_span_reference_matches_known_shortfalls():
    from weitzenboeck import generators

    gens = [dict(p.items()) for label, p in generators(1, 2) if label != "H1,1"]
    # README: without H1,1 the span misses the kernel first in degree 2
    assert [ref.span_dim(gens, 1, 2, d) for d in range(3)] == [1, 1, 1]
    assert [ref.kernel_dim(1, 2, d) for d in range(3)] == [1, 1, 2]


@pytest.mark.parametrize("seed", [1, HELD_OUT_SEED])
def test_express_inputs_lie_in_kernel(seed):
    for op in workloads.build("express_k12", seed):
        n, k = int(op.argv[2]), int(op.argv[4])
        p = Polynomial(Ambient(n, k), op.poly)
        assert p and WeitzenboeckDerivation(n, k).is_in_kernel(p)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_ops(name):
    def key(ops):
        return [(op.argv, op.rc, op.stdout, op.poly) for op in ops]

    assert key(workloads.build(name, 7)) == key(workloads.build(name, 7))
    assert key(workloads.build(name, 7)) != key(workloads.build(name, 8))


def test_format_poly_round_trips_through_parser():
    from weitzenboeck import parse

    rng = random.Random(0)
    for n, k in [(3, 1), (3, 2), (2, 4)]:
        amb = Ambient(n, k)
        width = amb.width
        p = {}
        for _ in range(6):
            exps = [0] * width
            for _ in range(rng.randint(0, 4)):
                exps[rng.randrange(amb.ring_width)] += 1
            p[tuple(exps)] = rng.choice([-3, -1, 1, 2])
        assert parse(ref.format_poly(p, k), amb) == Polynomial(amb, p)


def test_check_rejects_wrong_answers():
    census = workloads.build("census_open", 1)[0]
    assert workloads.check(census, 0, census.stdout)
    assert not workloads.check(census, 1, census.stdout)
    assert not workloads.check(census, 0, census.stdout.replace("kernel_dim=", "kernel_dim=1"))
    express = workloads.build("express_k12", 1)[0]
    label = next(iter(express.gens))
    assert not workloads.check(express, 0, f"2*{label}")
    assert not workloads.check(express, 0, "garbage *")
    assert not workloads.check(express, "ZeroDivisionError: x", "")


@pytest.mark.parametrize("seed", [1, HELD_OUT_SEED])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_op_passes_its_check(name, seed, capsys):
    for op in workloads.build(name, seed):
        rc = cli.main(op.argv)
        out = capsys.readouterr().out
        assert workloads.check(op, rc, out), (op.argv, rc, out)


def test_traced_and_untraced_stdout_identical(tmp_path):
    argvs = [
        ["census", "--n", "2", "--k", "3", "--degree", "3"],
        ["verify", "--n", "3", "--k", "2", "--degree", "3", "--exclude", "H1,1"],
        ["verify", "--n", "4", "--k", "1", "--degree", "3"],
    ] + [op.argv for op in workloads.build("express_k12", 1)[:3]]
    plain = run.run_pass(argvs, False, tmp_path / "unused.jsonl")
    traced = run.run_pass(argvs, True, tmp_path / "spans.jsonl")
    assert traced["stdout"] == plain["stdout"] and traced["rc"] == plain["rc"]
    assert run.accounting_ok(traced)
    layers = traced["trace"]["layers"]
    assert layers["cli.main"]["calls"] == len(argvs)
    assert {"kernel.rref", "kernel.nullspace", "kernel.span_dimension", "poly.parse", "poly.mul"} <= set(layers)
    spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert {s["op"] for s in spans} == set(range(len(argvs)))
