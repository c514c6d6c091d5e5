import contextlib
import hashlib
import io
import json
import os
import random
import shlex
import subprocess
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import clear_kernel_caches, reference_parser
from weitzenboeck import UnknownLabel, cli, evaluate_combination, generators, kernel_basis, kernel_dim
from weitzenboeck.cli import build_parser, main


GOLDEN_DIR = Path(__file__).parent / "golden"
README = Path(__file__).parents[1] / "README.md"


def express_golden_calls():
    """The express calls of express_machine.txt, in its order."""
    cases = [(2, 1, "x1^2 + x1*y2 - x2*y1"), (2, 1, "3")]
    for n, k in ((2, 1), (1, 2)):
        cases += [(n, k, str(b)) for d in range(5) for b in kernel_basis(n, k, d)]
    cases += [(2, 1, "1/2*x1*y2 - 1/2*x2*y1 + 2/3*x1^2"), (1, 1, "x1*CX")]
    return [["express", "--n", str(n), "--k", str(k), "--poly", poly, "--output", "machine"] for n, k, poly in cases]


def express_batch_calls():
    """Text-mode express calls of 60 seeded kernel elements, 12 in each of five (n, k, degree) classes, shuffled.

    Each input is a combination of 3 to 6 random generator products of the
    class's degree, with small nonzero coefficients, a few of them halves or
    thirds, expanded by `evaluate_combination` and signed so that its text
    leads with a positive term.  Run in one interpreter, a
    later call of a class reads the piece bases an earlier one kept.
    """
    rng = random.Random(20090617)
    calls = []
    for n, k, degree in ((3, 1, 5), (3, 1, 6), (3, 2, 4), (3, 2, 5), (4, 2, 4)):
        gens = generators(n, k)
        index = {label: i for i, label in enumerate(gens.labels())}
        degrees = {label: p.total_degree() for label, p in gens}
        for _ in range(12):
            p = None
            while p is None or p.is_zero:
                combination = {}
                for _ in range(rng.randint(3, 6)):
                    labels, remaining = [], degree
                    while remaining:
                        label = rng.choice([label for label, d in degrees.items() if d <= remaining])
                        labels.append(label)
                        remaining -= degrees[label]
                    key = tuple(sorted(labels, key=index.__getitem__))
                    coeff = Fraction(rng.choice([c for c in range(-5, 6) if c]), rng.choice((1, 1, 1, 1, 2, 3)))
                    combination[key] = combination.get(key, 0) + coeff
                p = evaluate_combination(combination, gens)
            # a text that starts with "-" (but not "- ") is read as a flag, so it is negated
            text = str(p)
            calls.append(["express", "--n", str(n), "--k", str(k), "--poly", str(-p) if text[0] == "-" else text])
    rng.shuffle(calls)
    return calls


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGens:
    def test_linear(self, capsys):
        code, out, _ = run(capsys, "gens", "--n", "2", "--k", "1")
        assert code == 0
        assert out.splitlines() == ["x1", "x2", "J1,2 = x1*y2 - x2*y1"]

    def test_quadratic_diagonal(self, capsys):
        code, out, _ = run(capsys, "gens", "--n", "1", "--k", "2")
        assert code == 0
        assert out.splitlines() == ["x1", "H1,1 = 2*x1*z1 - y1^2"]

    def test_unsupported_k_exits_2(self, capsys):
        code, _, err = run(capsys, "gens", "--n", "2", "--k", "3")
        assert code == 2
        assert "no generator family" in err and "census" in err

    def test_machine_schema(self, capsys):
        code, out, _ = run(capsys, "gens", "--n", "2", "--k", "1", "--output", "machine")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"command", "params", "result"}
        assert doc["command"] == "gens"
        assert doc["result"][2] == {"label": "J1,2", "poly": "x1*y2 - x2*y1", "degree": 2}


class TestVerify:
    def test_linear_complete(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "2", "--k", "1", "--max-degree", "4")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "degree 0: kernel_dim=1 span_dim=1 OK"
        assert all(line.endswith("OK") for line in lines[:-1])
        assert lines[-1] == "verify: all degrees complete"

    def test_quadratic_complete(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "1", "--k", "2", "--max-degree", "3")
        assert code == 0

    def test_exclude_fails(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--n", "1", "--k", "2", "--max-degree", "2", "--exclude", "H1,1"
        )
        assert code == 1
        assert "degree 2: kernel_dim=2 span_dim=1 FAIL" in out.splitlines()

    def test_unknown_exclude_label(self, capsys):
        code, _, err = run(
            capsys, "verify", "--n", "1", "--k", "2", "--max-degree", "2", "--exclude", "Q1"
        )
        assert code == 2
        assert "unknown generator label" in err
        with pytest.raises(UnknownLabel):
            generators(1, 2).without("Q1")

    def test_internal_key_error_is_not_a_usage_error(self, monkeypatch):
        # only an unknown --exclude label exits 2; a KeyError from inside the
        # library is a bug and must surface as one
        def broken(*args, **kwargs):
            raise KeyError("internal")

        monkeypatch.setattr(cli, "completeness_check", broken)
        with pytest.raises(KeyError, match="internal"):
            main(["verify", "--n", "1", "--k", "2", "--max-degree", "2"])

    def test_unsupported_k(self, capsys):
        code, _, err = run(capsys, "verify", "--n", "2", "--k", "3", "--max-degree", "2")
        assert code == 2

    def test_machine_document(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--n", "1", "--k", "2", "--max-degree", "2", "--output", "machine"
        )
        assert code == 0
        doc = json.loads(out)
        reports = doc["result"]
        assert [r["degree"] for r in reports] == [0, 1, 2]
        assert reports[2]["kernel_dim"] == 2 and reports[2]["complete"] is True
        assert {"block_degrees", "weight", "kernel_dim", "span_dim"} == set(reports[2]["per_piece"][0])

    def test_wide_k2_output_matches_golden(self, capsys):
        # every degree of (8, 2, <=8) is decided on 3 blocks (polarization); the machine
        # output (9.4 MB, so kept as its SHA-256) is that path's byte for byte, as the
        # text output is (`test_golden_output`)
        code, out, err = run(capsys, "verify", "--n", "8", "--k", "2", "--max-degree", "8", "--output", "machine")
        assert (code, len(out), err) == (0, 9450300, "")
        assert hashlib.sha256(out.encode()).hexdigest() == "bae7990caf9538ea61031da80208f8eee4e812da153d099285d27d76dffa33fc"

    def test_single_degree_flag(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "2", "--k", "1", "--degree", "2")
        assert code == 0
        assert out.splitlines()[0] == "degree 2: kernel_dim=4 span_dim=4 OK"

    def test_missing_degree_arguments(self, capsys):
        code, _, err = run(capsys, "verify", "--n", "2", "--k", "1")
        assert code == 2
        assert "max-degree" in err

    def test_empty_degree_range(self, capsys):
        code, out, err = run(capsys, "verify", "--n", "2", "--k", "1", "--max-degree", "-1")
        assert code == 2
        assert out == "" and "max-degree" in err

    def test_degree_flags_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n", "2", "--k", "1", "--degree", "2", "--max-degree", "5"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "not allowed with" in captured.err


@cache
def fresh_verify_reports(n, k, exclude):
    """The per-degree reports of `verify --max-degree 6 --output machine` in a fresh interpreter."""
    argv = ["verify", "--n", str(n), "--k", str(k), "--max-degree", "6", "--output", "machine"]
    argv += [flag for label in exclude for flag in ("--exclude", label)]
    src = Path(__file__).parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "weitzenboeck", *argv], env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True
    )
    assert proc.stderr == ""
    return json.loads(proc.stdout)["result"]


class TestDegreeOrder:
    @given(st.sampled_from([(3, 2, ()), (3, 2, ("H1,1",)), (4, 2, ()), (4, 2, ("H2,3",))]), st.permutations(range(7)))
    @settings(max_examples=25, deadline=None)
    def test_any_degree_order_prints_what_a_fresh_run_prints(self, case, degrees):
        # the kernel's tables are kept and grown across calls of one process; asked one
        # degree at a time in any order, from empty caches, each call prints that degree's
        # report of a fresh --max-degree run, and exits 1 exactly when it is incomplete
        n, k, exclude = case
        fresh = fresh_verify_reports(n, k, exclude)
        clear_kernel_caches()
        for degree in degrees:
            argv = ["verify", "--n", str(n), "--k", str(k), "--degree", str(degree), "--output", "machine"]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv + [flag for label in exclude for flag in ("--exclude", label)])
            assert json.loads(out.getvalue())["result"] == [fresh[degree]]
            assert code == (0 if fresh[degree]["complete"] else 1)


class TestCensus:
    def test_single_block(self, capsys):
        code, out, _ = run(capsys, "census", "--n", "1", "--k", "1", "--max-degree", "3")
        assert code == 0
        assert out.splitlines() == [f"degree {d}: kernel_dim=1" for d in range(4)]

    def test_two_blocks(self, capsys):
        code, out, _ = run(capsys, "census", "--n", "2", "--k", "1", "--max-degree", "2")
        assert code == 0
        assert out.splitlines() == [
            "degree 0: kernel_dim=1",
            "degree 1: kernel_dim=2",
            "degree 2: kernel_dim=4",
        ]

    def test_open_case_streams_records(self, capsys):
        code, out, _ = run(
            capsys, "census", "--n", "2", "--k", "3", "--max-degree", "3", "--output", "machine"
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["result"]["kernel_dim"] for r in records] == [1, 2, 8, 20]
        assert all(set(r) == {"command", "params", "result"} for r in records)
        assert all("complete" not in json.dumps(r) for r in records)

    def test_empty_degree_range(self, capsys):
        code, out, err = run(capsys, "census", "--n", "2", "--k", "1", "--max-degree", "-1")
        assert code == 2
        assert out == "" and "max-degree" in err

    def test_negative_single_degree(self, capsys):
        code, out, err = run(capsys, "census", "--n", "2", "--degree", "-1")
        assert code == 2
        assert out == "" and "degree must be >= 0" in err

    def test_degree_flags_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["census", "--n", "2", "--k", "1", "--degree", "2", "--max-degree", "5"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "not allowed with" in captured.err


class TestExpressionCommands:
    def test_apply(self, capsys):
        code, out, _ = run(capsys, "apply", "--n", "1", "--k", "2", "--poly", "z1")
        assert code == 0 and out.strip() == "y1"

    def test_nilpotency(self, capsys):
        code, out, _ = run(capsys, "nilpotency", "--n", "1", "--k", "2", "--poly", "z1")
        assert code == 0 and out.strip() == "3"

    def test_transvect(self, capsys):
        code, out, _ = run(
            capsys,
            "transvect", "--n", "2", "--r", "1",
            "--u", "x1*CX + y1*CY", "--v", "x2*CX + y2*CY",
        )
        assert code == 0 and out.strip() == "x1*y2 - x2*y1"

    def test_tau(self, capsys):
        code, out, _ = run(capsys, "tau", "--n", "2", "--poly", "x1*CX + y1*CY")
        assert code == 0 and out.strip() == "x1"

    def test_express(self, capsys):
        code, out, _ = run(capsys, "express", "--n", "2", "--k", "1", "--poly", "x1*y2 - x2*y1")
        assert code == 0 and out.strip() == "J1,2"

    def test_express_combination(self, capsys):
        code, out, _ = run(
            capsys, "express", "--n", "2", "--k", "1", "--poly", "x1^2 + x1*y2 - x2*y1"
        )
        assert code == 0 and out.strip() == "x1*x1 + J1,2"

    def test_express_rational(self, capsys):
        poly = "1/2*x1*y2 - 1/2*x2*y1 + 2/3*x1^2"
        code, out, _ = run(capsys, "express", "--n", "2", "--k", "1", "--poly", poly)
        assert code == 0 and out == "2/3*x1*x1 + 1/2*J1,2\n"
        code, out, _ = run(capsys, "express", "--n", "2", "--k", "1", "--poly", poly, "--output", "machine")
        assert code == 0
        assert json.loads(out)["result"] == {
            "in_span": True,
            "combination": [{"labels": ["x1", "x1"], "coeff": "2/3"}, {"labels": ["J1,2"], "coeff": "1/2"}],
        }

    def test_express_constant(self, capsys):
        # the degree-0 product has no labels: the constant prints bare
        for poly, text in (("3", "3"), ("1", "1"), ("-2/3", "-2/3"), ("0", "0")):
            code, out, _ = run(capsys, "express", "--n", "2", "--k", "1", f"--poly={poly}")
            assert code == 0 and out == text + "\n"
        code, out, _ = run(capsys, "express", "--n", "2", "--poly", "3", "--output", "machine")
        assert code == 0
        assert json.loads(out)["result"] == {"in_span": True, "combination": [{"labels": [], "coeff": "3"}]}

    def test_leading_minus_poly(self, capsys):
        # the README's two ways to pass a polynomial with a leading minus
        for poly in (["--poly=-x1*y2+x2*y1"], ["--poly", "- x1*y2 + x2*y1"]):
            assert run(capsys, "express", "--n", "2", "--k", "1", *poly) == (0, "-J1,2\n", "")
        # argparse reads -x1 as an option, so --poly is left without its value
        with pytest.raises(SystemExit) as exc:
            main(["express", "--n", "2", "--k", "1", "--poly", "-x1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "argument --poly: expected one argument" in captured.err

    def test_express_not_in_kernel(self, capsys):
        code, _, err = run(capsys, "express", "--n", "2", "--k", "1", "--poly", "y1")
        assert code == 1 and "error" in err

    def test_parse_error_position(self, capsys):
        code, _, err = run(capsys, "apply", "--n", "1", "--k", "1", "--poly", "x1 +")
        assert code == 2
        assert "position" in err

    def test_ambient_error(self, capsys):
        code, _, err = run(capsys, "apply", "--n", "1", "--k", "1", "--poly", "z1")
        assert code == 2
        assert "z1" in err

    @pytest.mark.parametrize("name", ["x0", "y0", "v0.0", "v0.1"])
    def test_block_zero_name_exits_2(self, capsys, name):
        code, out, err = run(capsys, "apply", "--n", "2", "--k", "1", "--poly", f"{name}*x1")
        assert (code, out) == (2, "")
        assert err == f"error: no variable named '{name}' (position 0)\n"


class TestContract:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["express", "--n", "2", "--poly", "x1"], ["--degree", "3"]),
            (["gens", "--n", "2"], ["--max-degree", "9"]),
            (["apply", "--n", "1", "--poly", "y1"], ["--degree", "1"]),
        ],
    )
    def test_degree_flags_only_where_read(self, capsys, argv, flag):
        # only verify and census read a degree; elsewhere the flag is a usage error
        with pytest.raises(SystemExit) as exc:
            main(argv + flag)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments" in captured.err
        code, out, _ = run(capsys, *argv, "--output", "machine")
        assert code == 0 and not {"degree", "max_degree"} & set(json.loads(out)["params"])

    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gens", "--k", "1"])  # --n is required
        assert exc.value.code == 2

    def test_byte_identical_runs(self, capsys):
        args = ["verify", "--n", "2", "--k", "1", "--max-degree", "3", "--output", "machine"]
        code1 = main(args)
        first = capsys.readouterr().out
        code2 = main(args)
        second = capsys.readouterr().out
        assert code1 == code2 == 0
        assert first == second

    def test_successive_calls_share_no_state(self, capsys):
        # one parser serves every call it reads (here the `=` form), and its --exclude
        # appends to a shared default list; the table reader starts a fresh list
        assert build_parser() is build_parser()
        argv = ["verify", "--n", "1", "--k", "2", "--degree", "2", "--output", "machine"]
        for exclude in (["--exclude", "H1,1"], ["--exclude=H1,1"]) * 2:
            code, out, _ = run(capsys, *argv, *exclude)
            doc = json.loads(out)
            assert code == 1
            assert doc["params"]["exclude"] == ["H1,1"]
            assert doc["result"][0]["span_dim"] == 1
            code, out, _ = run(capsys, *argv)
            doc = json.loads(out)
            assert code == 0
            assert "exclude" not in doc["params"]
            assert doc["result"][0]["span_dim"] == 2
        assert build_parser().parse_args(argv).exclude == []

    def test_seed_flag_accepted(self, capsys):
        code, out, _ = run(capsys, "census", "--n", "1", "--k", "1", "--max-degree", "1", "--seed", "42")
        assert code == 0

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "weitzenboeck", "gens", "--n", "2", "--k", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[-1] == "J1,2 = x1*y2 - x2*y1"

    @pytest.mark.parametrize(
        "argv, dim",
        [
            ("census --n 1 --k 1500 --degree 1", 1),
            ("census --n 1 --k 1 --degree 1500", 1),
            ("census --n 1200 --k 1 --degree 1", 1200),
        ],
    )
    def test_census_answers_past_the_recursion_limit(self, argv, dim):
        # census reads one coefficient off a table built in loops, so no size recurses.
        # A fresh interpreter each, as in the usage-error test below
        proc = subprocess.run([sys.executable, "-m", "weitzenboeck", *argv.split()], capture_output=True, text=True)
        degree = argv.split()[-1]
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"degree {degree}: kernel_dim={dim}\n", "")

    @pytest.mark.parametrize(
        "argv, dim",
        [
            ("verify --n 1200 --k 1 --degree 1", 1200),
            ("verify --n 1200 --k 2 --degree 2", 2160600),
        ],
    )
    def test_verify_answers_past_the_recursion_limit(self, argv, dim):
        # the orbit representatives are listed and the kernel dims counted in loops, so
        # 1200 blocks answer; the kernel total is the one census prints. A fresh
        # interpreter each, as in the usage-error test below
        proc = subprocess.run([sys.executable, "-m", "weitzenboeck", *argv.split()], capture_output=True, text=True)
        _, _, n, _, k, _, degree = argv.split()
        assert kernel_dim(int(n), int(k), int(degree)) == dim
        expected = f"degree {degree}: kernel_dim={dim} span_dim={dim} OK\nverify: all degrees complete\n"
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, "")

    @pytest.mark.parametrize(
        "argv",
        [
            "verify --n 2 --k 1 --degree 1100",
        ],
    )
    def test_sizes_past_the_recursion_limit_are_a_usage_error(self, argv):
        # the per-block counts recurse over k and the degree, and the product walk once
        # per factor; past Python's recursion limit that is one error line and exit 2
        # (exit 1 is a failed certificate), with no traceback. A fresh interpreter each,
        # so no count cached by an earlier call shortens the recursion
        proc = subprocess.run([sys.executable, "-m", "weitzenboeck", *argv.split()], capture_output=True, text=True)
        _, _, n, _, k, _, degree = argv.split()
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (
            f"error: too large for this implementation (n = {n}, k = {k}, degree = {degree}): maximum recursion depth exceeded\n"
        )

    @pytest.mark.parametrize("command", ["verify", "census"])
    def test_negative_degree_is_a_usage_error(self, capsys, command):
        # rejected at the edge like --max-degree, before any library call
        assert run(capsys, command, "--n", "2", "--degree", "-1") == (2, "", "error: --degree must be >= 0, got -1\n")
        assert run(capsys, command, "--n", "2", "--max-degree", "-1") == (2, "", "error: --max-degree must be >= 0, got -1\n")

    def test_import_loads_no_unneeded_modules(self):
        # every call pays the import; dataclasses (and through it inspect), json and
        # argparse (and through it gettext) stay out of it
        src = Path(__file__).parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).parent / "import_guard.py")],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == f"{src / 'weitzenboeck' / '__init__.py'}\n"

    def test_generator_pieces_are_read_from_packed_terms(self):
        # each generator's degree and piece are read once, from its packed terms
        # (kernel._Tables.row), and never per term with Polynomial.gradings. A
        # fresh interpreter, so no generator table cached by an earlier test hides a call
        spy = (
            "import sys\n"
            "from weitzenboeck import Polynomial, cli\n"
            "calls = []\n"
            "real = Polynomial.gradings\n"
            "Polynomial.gradings = lambda self: calls.append(self) or real(self)\n"
            "codes = [cli.main(argv.split()) for argv in sys.argv[1:]]\n"
            "print(codes, len(calls))\n"
        )
        calls = ["express --n 12 --k 2 --poly x1*x2*x3*x4", "verify --n 4 --k 2 --max-degree 4 --exclude H2,3"]
        src = Path(__file__).parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-c", spy, *calls], env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.splitlines()[-1] == "[0, 1] 0"

    def test_express_applies_no_d_to_the_built_in_family(self):
        # the family's generators lie in ker D by their closed forms, so a one-shot express
        # applies D to none of its 376 generators, and to no input it finds a combination
        # for. A fresh interpreter, so no decision cached by an earlier test hides a call
        spy = (
            "from weitzenboeck import cli\n"
            "from weitzenboeck.derivation import WeitzenboeckDerivation\n"
            "calls = []\n"
            "real = WeitzenboeckDerivation.apply\n"
            "WeitzenboeckDerivation.apply = lambda self, p: calls.append(p) or real(self, p)\n"
            "code = cli.main(['express', '--n', '12', '--k', '2', '--poly', 'x1*x2*x3*x4'])\n"
            "print(code, len(calls))\n"
        )
        src = Path(__file__).parents[1] / "src"
        proc = subprocess.run([sys.executable, "-c", spy], env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.splitlines() == ["x1*x2*x3*x4", "0 0"]


COMMANDS = ("gens", "verify", "census", "apply", "nilpotency", "transvect", "tau", "express")
REQUIRED = {"apply": ("--poly",), "nilpotency": ("--poly",), "tau": ("--poly",), "express": ("--poly",), "transvect": ("--r", "--u", "--v")}
FLAGS = ("--n", "--k", "--output", "--seed", "--max-degree", "--degree", "--exclude", "--poly", "--r", "--u", "--v")
# abbreviated, `=` and help flags, `--`, and tokens no command knows
ODD_TOKENS = ("--max", "--deg", "--out", "--ex", "--po", "--n=2", "--degree=3", "--output=machine", "--poly=-x1", "-h", "--help", "--", "--bogus", "bogus")
INT_FLAGS = ("--n", "--k", "--seed", "--max-degree", "--degree", "--r")
INT_VALUES = ("0", "1", "2", "3", "-1", "-0", "1_0", " 2")
OTHER_VALUES = ("x1", "- x1", "-x1", "-h x1", "-", "-\u00b2", "", "text", "machine", "json", "H1,1", "x1*CX + y1*CY")


@st.composite
def command_lines(draw):
    """A command, `--flag value` pairs (the command's required flags most often among them), then a few edits.

    Half the extra flags are ones every command takes, the other half any flag.
    Three values in four are of the flag's own kind (an int, an --output choice
    or a bad one, a polynomial or label), the fourth any value.
    """
    command = draw(st.sampled_from(COMMANDS))
    flags = [flag for flag in ("--n", *REQUIRED.get(command, ())) if draw(st.integers(0, 4))]
    extra = draw(st.lists(st.sampled_from(("--k", "--output", "--seed")) | st.sampled_from(FLAGS), max_size=3))
    flags = draw(st.permutations(flags + extra))
    argv = [command]
    for flag in flags:
        own = INT_VALUES if flag in INT_FLAGS else ("text", "machine", "json") if flag == "--output" else OTHER_VALUES
        argv += [flag, draw(st.sampled_from(own if draw(st.integers(0, 3)) else INT_VALUES + OTHER_VALUES))]
    for _ in range(draw(st.sampled_from((0, 0, 1, 2)))):
        i = draw(st.integers(0, len(argv)))
        if draw(st.booleans()):
            argv.insert(i, draw(st.sampled_from(ODD_TOKENS)))
        elif i < len(argv):
            del argv[i]
    return argv


def exits(call, argv):
    """(exit code, stdout, stderr) if call(argv) exits, else None."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            call(argv)
    except SystemExit as exc:
        return exc.code, out.getvalue(), err.getvalue()
    return None


def readme_calls():
    """The argv of every `$ weitzenboeck ...` example in the README."""
    lines = README.read_text().splitlines()
    return [shlex.split(line, comments=True)[2:] for line in lines if line.startswith("$ weitzenboeck ")]


def golden_calls():
    """Golden file name -> the CLI calls whose stdout, concatenated, it freezes, each with its exit code.

    A certificate that finds a degree incomplete exits 1.  census_n2_k3.json is
    a table of dimensions read by `test_open_case_golden`, not CLI output, so
    only its call is listed here.
    """
    verify = {
        # the per-piece report byte for byte, pieces without products included
        "verify_n3_k2_d3.txt": (0, "--n 3 --k 2 --max-degree 3 --output machine"),
        "verify_n3_k2_d3_exclude_H11.txt": (1, "--n 3 --k 2 --max-degree 3 --exclude H1,1 --output machine"),
        # with every generator the products of most pieces of degree <= 6 show kernel_dim
        # distinct least monomials; the few that fall short are ranked exactly
        "verify_n3_k2_d6.txt": (0, "--n 3 --k 2 --max-degree 6 --output machine"),
        # without H1,1 the pieces of degree 3..6 at k = 2 fall short by various amounts,
        # so the exact span_dim of deep pieces is where elimination does the most work
        "verify_n3_k2_d6_exclude_H11.txt": (1, "--n 3 --k 2 --max-degree 6 --exclude H1,1 --output machine"),
        # without J1,2 only the block swaps (1 2) and (3 4) keep the generators, so
        # each orbit's report is copied within those two pairs of blocks only
        "verify_n4_k1_d4_exclude_J12.txt": (1, "--n 4 --k 1 --max-degree 4 --exclude J1,2 --output machine"),
        # the full symmetric group on 4 blocks: 9 of the 84 block-degree orbits of degree 6
        "verify_n4_k1_d6.txt": (0, "--n 4 --k 1 --max-degree 6 --output machine"),
        # only (2 3) keeps the generators without H2,3, so about 100 representative
        # pieces are wanted at once in degree 4
        "verify_n4_k2_d4_exclude_H23.txt": (1, "--n 4 --k 2 --max-degree 4 --exclude H2,3 --output machine"),
        # without H1,2 at n = 5 the stable swaps join blocks {1, 2} and {3, 4, 5} into
        # runs of unequal length; the report lists every piece in piece_keys order
        "verify_n5_k2_d4_exclude_H12.txt": (1, "--n 5 --k 2 --max-degree 4 --exclude H1,2 --output machine"),
        # the full family at n = 6 is stable under all of S6, so only pieces with
        # non-decreasing block degrees are decided; every rearrangement is listed
        "verify_n6_k1_d4.txt": (0, "--n 6 --k 1 --max-degree 4 --output machine"),
        # every degree of (8, 2, <=8) is decided on 3 blocks (polarization); the golden is
        # the text output of deciding every 8-block representative piece
        "verify_n8_k2_d8.txt": (0, "--n 8 --k 2 --max-degree 8"),
        # every degree of (4, 2, <=4) is decided on 3 blocks too; the machine report lists
        # the 4-block representatives, read only when to_dict writes them, and their orbits
        "verify_n4_k2_d4.txt": (0, "--n 4 --k 2 --max-degree 4 --output machine"),
        # n = k + 1 is decided on its own blocks at every degree, so degree 12 at k = 2
        # counts least monomials in one table of depth 12 and ranks the pieces it leaves short
        "verify_n3_k2_d12.txt": (0, "--n 3 --k 2 --max-degree 12"),
        # degrees 13..16 rank deep short pieces, each walked and expanded as its
        # elimination reads it, until the rank reaches kernel_dim
        "verify_n3_k2_d16.txt": (0, "--n 3 --k 2 --max-degree 16"),
        # the frontier of the full family: one piece is ranked, in degree 3, and the
        # least monomial its rank adds certifies every piece of degrees 4..20 by counting
        "verify_n3_k2_d20.txt": (0, "--n 3 --k 2 --max-degree 20"),
        # without H2,3 many pieces of degrees 5..8 fall short, and their ranks add least
        # monomials that the counts of every higher degree read
        "verify_n4_k2_d8_exclude_H23.txt": (1, "--n 4 --k 2 --max-degree 8 --exclude H2,3"),
        # without J1,2 the stable swaps join blocks 3..8 into one run of six, which the
        # least-monomial table prunes at every joined pair of blocks
        "verify_n8_k1_d8_exclude_J12.txt": (1, "--n 8 --k 1 --max-degree 8 --exclude J1,2"),
        # without H1,2 at n = 6 the runs are blocks {1, 2} and {3..6}, and every degree
        # from 2 up has short pieces: 138 pieces are ranked, the rest certified by counting
        "verify_n6_k2_d7_exclude_H12.txt": (1, "--n 6 --k 2 --max-degree 7 --exclude H1,2"),
    }
    calls = {name: [(["verify", *flags.split()], code)] for name, (code, flags) in verify.items()}
    calls["census_n2_k3.json"] = [(["census", "--n", "2", "--k", "3", "--max-degree", "8", "--output", "machine"], 0)]
    # twelve blocks, one coefficient of the monomial counts per degree
    calls["census_n12_k1_d8.txt"] = [(["census", "--n", "12", "--k", "1", "--max-degree", "8", "--output", "machine"], 0)]
    # three blocks of the open case k = 3, up to degree 40
    calls["census_n3_k3_d40.txt"] = [(["census", "--n", "3", "--k", "3", "--max-degree", "40"], 0)]
    # the README examples, every kernel basis element of (2, 1) and (1, 2) up to
    # degree 4, a rational input and, last, a NOT IN SPAN case
    express = express_golden_calls()
    calls["express_machine.txt"] = [(argv, 0) for argv in express[:-1]] + [(express[-1], 1)]
    # seeded kernel elements of five classes in one interpreter, in text mode: later calls
    # reduce their rows against the piece bases earlier ones kept
    calls["express_batch.txt"] = [(argv, 0) for argv in express_batch_calls()]
    return calls


@pytest.mark.parametrize("name", sorted(golden_calls().keys() - {"census_n2_k3.json"}))
def test_golden_output(capsys, name):
    # each call's exit code and empty stderr, and the calls' stdout concatenated, byte for byte
    outs = []
    for argv, expected in golden_calls()[name]:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (expected, ""), argv
        outs.append(out)
    assert "".join(outs) == (GOLDEN_DIR / name).read_text()


class TestCommandLineReader:
    """`main` reads well-formed command lines from its option table and leaves the rest to argparse."""

    @given(command_lines())
    @example(["verify", "--n", "2", "--max-degree", "-1", "--exclude", "H1,1", "--exclude", "J1,2", "--output", "machine"])
    @example(["census", "--n", "1_0", "--k", " 2", "--degree", "-0"])
    @example(["transvect", "--u", "- x1", "--n", "2", "--v", "x1*CX + y1*CY", "--r", "1"])
    @example(["express", "--n", "2", "--poly", "-h x1"])
    @example(["express", "--n", "2", "--poly", "-x1"])
    @example(["express", "--n", "2", "--poly", "-"])
    @example(["express", "--n", "2", "--poly", "-\u00b2"])  # a digit to str.isdigit, not to argparse's \d
    @example(["express", "--n", "2", "--n", "3", "--poly", "x1"])
    @example(["verify", "--n", "2", "--degree", "1", "--max-degree", "2"])
    @settings(max_examples=400, deadline=None)
    def test_reader_agrees_with_the_oracle(self, argv):
        # the oracle is the argparse-only parser the table replaced; `main` is run only
        # where the oracle exits, so no command is computed
        oracle = reference_parser()
        expected = exits(oracle.parse_args, argv)
        read = cli._read(argv)
        if expected is None:
            namespace = vars(oracle.parse_args(argv))
            assert vars(build_parser().parse_args(argv)) == namespace
            assert read is None or vars(read) == namespace
        else:
            assert read is None
            assert exits(build_parser().parse_args, argv) == expected
            assert exits(main, argv) == expected

    @pytest.mark.parametrize("command", ("",) + COMMANDS)
    def test_help_matches_the_oracle(self, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        argv = [command, "--help"] if command else ["--help"]
        expected = exits(reference_parser().parse_args, argv)
        assert expected[0] == 0 and expected[1].startswith(f"usage: weitzenboeck {command}".rstrip() + " ")
        assert exits(main, argv) == expected

    def test_well_formed_calls_build_no_parser(self, capsys, monkeypatch):
        # the README's examples and every call behind tests/golden are read from the
        # table alone, which is where the CLI saves argparse's import and build
        readme, golden = readme_calls(), golden_calls()
        assert {argv[0] for argv in readme} == set(COMMANDS)
        assert sorted(golden) == sorted(path.name for path in GOLDEN_DIR.iterdir())

        def refuse():
            raise AssertionError("a well-formed call built the argparse parser")

        monkeypatch.setattr(cli, "build_parser", refuse)
        for argv in readme:
            assert main(argv) in (0, 1), argv
        for argv, code in (call for calls in golden.values() for call in calls):
            assert main(argv) == code, argv
        capsys.readouterr()
