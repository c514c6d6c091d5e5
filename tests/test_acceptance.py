"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines;
all comparisons are exact (rational arithmetic, zero tolerance).
"""

import itertools
import json
import random

import pytest

from conftest import random_covariant_polynomial, ungraded_kernel_dimension
from weitzenboeck import (
    Ambient,
    Covariant,
    WeitzenboeckDerivation,
    completeness_check,
    evaluate_combination,
    express_in_generators,
    generators,
    jacobian,
    kernel_basis,
    kernel_dim,
    linear_form,
    parse,
    tau,
    transvectant,
)
from weitzenboeck.cli import main


def report(number, description, failures):
    status = "PASS" if not failures else f"FAIL ({len(failures)} deviations)"
    print(f"criterion {number} [{description}]: {status}")
    assert not failures, failures[:5]


def test_criterion_1_generator_kernel_membership():
    failures = []
    for k in (1, 2):
        for n in range(1, 7):
            deriv = WeitzenboeckDerivation(n, k)
            for label, p in generators(n, k):
                if not deriv.apply(p).is_zero:
                    failures.append((n, k, label))
    report(1, "generators lie in the kernel, n <= 6, k in {1,2}", failures)


def test_criterion_2_linear_completeness():
    failures = []
    for n in (2, 3, 4):
        for degree in range(7):
            rep = completeness_check(n, 1, degree)
            if not (rep.complete and rep.kernel_dim == rep.span_dim):
                failures.append((n, degree, rep.kernel_dim, rep.span_dim))
    report(2, "k=1 generators span the kernel, n in {2,3,4}, d <= 6", failures)


def test_criterion_3_quadratic_completeness():
    failures = []
    for n, max_degree in ((1, 6), (2, 6), (3, 5)):
        for degree in range(max_degree + 1):
            rep = completeness_check(n, 2, degree)
            if not rep.complete:
                failures.append((n, degree, rep.kernel_dim, rep.span_dim))
    report(3, "k=2 generators span the kernel at desk scale", failures)


def test_criterion_4_diagonal_h_necessity(capsys):
    failures = []
    excluded = completeness_check(1, 2, 2, exclude=["H1,1"])
    if not (excluded.span_dim == 1 and excluded.kernel_dim == 2 and not excluded.complete):
        failures.append(("excluded", excluded.kernel_dim, excluded.span_dim))
    included = completeness_check(1, 2, 2)
    if not (included.kernel_dim == included.span_dim == 2 and included.complete):
        failures.append(("included", included.kernel_dim, included.span_dim))
    code_fail = main(["verify", "--n", "1", "--k", "2", "--max-degree", "2", "--exclude", "H1,1"])
    code_ok = main(["verify", "--n", "1", "--k", "2", "--max-degree", "2"])
    capsys.readouterr()
    if code_fail != 1:
        failures.append(("exit code with exclusion", code_fail))
    if code_ok != 0:
        failures.append(("exit code without exclusion", code_ok))
    with capsys.disabled():
        report(4, "H1,1 is necessary at n=1, k=2, d=2 (exit codes 1/0)", failures)


def test_criterion_5_transvectant_suite():
    failures = []
    forms = [linear_form(i, 6) for i in range(1, 7)]
    amb = Ambient(6, 1)
    for i, j in itertools.combinations(range(1, 7), 2):
        expected = parse(f"x{i}*y{j} - x{j}*y{i}", amb)
        if transvectant(forms[i - 1], forms[j - 1], 1).value != expected:
            failures.append(("determinant", i, j))
    for i, j in itertools.product(range(1, 7), repeat=2):
        for r in (2, 3, 4):
            if not transvectant(forms[i - 1], forms[j - 1], r).is_zero:
                failures.append(("vanishing", i, j, r))
    rng = random.Random(20260811)
    for _ in range(200):
        a = Ambient(rng.randint(1, 3), 1)
        u = Covariant.from_polynomial(random_covariant_polynomial(rng, a, rng.randint(0, 3)))
        v = Covariant.from_polynomial(random_covariant_polynomial(rng, a, rng.randint(0, 3)))
        if transvectant(u, v, 0).value != u.value * v.value:
            failures.append(("order zero", str(u.value), str(v.value)))
    for _ in range(200):
        a = Ambient(rng.randint(1, 3), 1)
        u = Covariant.from_polynomial(random_covariant_polynomial(rng, a, rng.randint(0, 3)))
        v = Covariant.from_polynomial(random_covariant_polynomial(rng, a, rng.randint(0, 3)))
        r = rng.randint(0, 4)
        if transvectant(u, v, r).value != (-1) ** r * transvectant(v, u, r).value:
            failures.append(("sign symmetry", r))
    report(5, "transvectant identities (determinant, vanishing, product, sign)", failures)


def test_criterion_6_tau_chain():
    failures = []
    n = 6
    amb = Ambient(n, 1)
    deriv = WeitzenboeckDerivation(n, 1)
    forms = [linear_form(i, n) for i in range(1, n + 1)]
    for i in range(1, n + 1):
        if tau(forms[i - 1]) != parse(f"x{i}", amb):
            failures.append(("tau of form", i))
    for i, j in itertools.combinations(range(1, n + 1), 2):
        expected = parse(f"x{i}*y{j} - x{j}*y{i}", amb)
        if tau(jacobian(forms[i - 1], forms[j - 1])) != expected:
            failures.append(("tau of jacobian", i, j))
    rng = random.Random(6)
    for _ in range(100):
        a = Ambient(rng.randint(1, 3), 1)
        c1 = Covariant.from_polynomial(random_covariant_polynomial(rng, a, rng.randint(0, 3)))
        c2 = Covariant.from_polynomial(random_covariant_polynomial(rng, a, rng.randint(0, 3)))
        if tau(c1 * c2) != tau(c1) * tau(c2):
            failures.append(("multiplicativity",))
    pool = forms + [jacobian(u, v) for u, v in itertools.combinations(forms, 2)]
    for _ in range(100):
        word = rng.choice(pool)
        for _ in range(rng.randint(0, 3)):
            word = word * rng.choice(pool)
        if not deriv.is_in_kernel(tau(word)):
            failures.append(("semi-invariance", str(word.value)[:40]))
    report(6, "tau chain (forms, jacobians, multiplicativity, kernel membership)", failures)


def test_criterion_7_oracle_self_consistency():
    failures = []
    for n in (2, 3):
        for k in (1, 2):
            for degree in range(1, 5):
                graded = len(kernel_basis(n, k, degree))
                counted = kernel_dim(n, k, degree)
                ungraded = ungraded_kernel_dimension(n, k, degree)
                if not graded == counted == ungraded:
                    failures.append((n, k, degree, graded, counted, ungraded))
    report(7, "graded kernel bases and dims equal ungraded nullspace dims", failures)


def test_criterion_8_express_round_trip():
    failures = []
    for n in (1, 2, 3):
        for k in (1, 2):
            gens = generators(n, k)
            for degree in range(5):
                for element in kernel_basis(n, k, degree):
                    combination = express_in_generators(element, gens)
                    if evaluate_combination(combination, gens) != element:
                        failures.append((n, k, degree, str(element)[:40]))
    report(8, "express/evaluate round trip on kernel bases, n <= 3, d <= 4", failures)


def test_criterion_9_open_case_census():
    failures = []
    first = {d: kernel_dim(2, 3, d) for d in range(5)}
    second = {d: kernel_dim(2, 3, d) for d in range(5)}
    if json.dumps(first) != json.dumps(second):
        failures.append(("determinism", first, second))
    deriv = WeitzenboeckDerivation(2, 3)
    for degree in range(5):
        for element in kernel_basis(2, 3, degree):
            if not deriv.apply(element).is_zero:
                failures.append(("kernel membership", degree, str(element)[:40]))
    report(9, "open case k=3 census reproducible, basis annihilated", failures)
