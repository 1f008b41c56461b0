"""Acceptance suite: one test per criterion, frozen expected values.

Each test is named ``test_cNN_<slug>``; the terminal-summary hook in
conftest.py turns the names into one printed pass/fail line per criterion.
Expected values were fixed in advance (hand calculations and the GF(2)
oracle), never copied back from engine output.
"""

from __future__ import annotations

import itertools
import time

import pytest

from orlov_kit import (
    ARArrow,
    CYCLIC,
    IndecSet,
    LINEAR,
    ModuleSum,
    RefusalError,
    Relation,
    SpiClass,
    TorsionSpec,
    Uniserial,
    algebra_llts,
    algebra_loewy_length,
    bracket_n,
    build_algebra,
    coghost_lemma_check,
    ext1_nonzero,
    generation_time,
    global_dimension,
    indecomposables,
    irreducible_coghosts,
    is_strong_generator,
    middle_term,
    oriented_cycle_report,
    orlov_spectrum,
    projective,
    projective_dimension,
    radical_layer_length,
    radical_nilpotence_check,
    simple,
    spi_classify,
    star,
    theorem2_spectrum,
    tm_generator,
    truncation_triples,
    verify_star_sweep,
)

from conftest import all_linear_algebras


def simples_set(A) -> IndecSet:
    return IndecSet.of(A, (simple(A, i) for i in range(1, A.n + 1)))


def all_specs(A):
    vertices = range(1, A.n + 1)
    for r in range(A.n + 1):
        for S in itertools.combinations(vertices, r):
            yield TorsionSpec.of(A, S)


def test_c01_hereditary_line_spectra(linear):
    budgets = {4: 1.0, 5: 60.0}
    for n in range(2, 6):
        t0 = time.perf_counter()
        result = orlov_spectrum(linear(n))
        elapsed = time.perf_counter() - t0
        assert result.spectrum == frozenset(range(n)), n
        assert result.ext_dim == 0 and result.u_dim == n - 1
        if n in budgets:
            assert elapsed < budgets[n], (n, elapsed)
    with pytest.raises(RefusalError):
        orlov_spectrum(linear(6))  # n = 6 only behind force=True


def test_c02_simples_level_chain_on_linear4(linear):
    A = linear(4)
    S = simples_set(A)
    simples = {simple(A, i) for i in range(1, 5)}

    level2 = bracket_n(A, S, 2)
    assert set(level2.members()) == simples | {
        Uniserial(1, 2),
        Uniserial(2, 2),
        Uniserial(3, 2),
    }

    level3 = bracket_n(A, S, 3)
    assert set(level3.members()) == set(level2.members()) | {
        Uniserial(1, 3),
        Uniserial(2, 3),
    }
    assert projective(A, 1) not in level3

    two_star_two = star(A, level2, level2)
    assert two_star_two != level3  # levels are not multiplicative
    assert two_star_two.is_full
    assert bracket_n(A, S, 4).is_full
    assert generation_time(A, S) == 3


def test_c03_cyclic_fixture_layer_lengths(cyclic_fixture):
    A = cyclic_fixture
    assert algebra_loewy_length(A) == 23
    expected = {
        (): 23,
        (1,): 18,
        (2,): 17,
        (1, 2): 12,
        (2, 3): 11,
        (1, 2, 3): 6,
        (2, 3, 4): 5,
    }
    for vertices, value in expected.items():
        assert algebra_llts(A, TorsionSpec.of(A, vertices)) == value, vertices


def test_c04_spectrum_formula_values():
    assert theorem2_spectrum(23) == frozenset({1, 2, 3, 4, 5, 7, 11, 22})
    assert theorem2_spectrum(18) == frozenset({1, 2, 3, 4, 5, 8, 17})
    assert theorem2_spectrum(23) | {0} == frozenset({0, 1, 2, 3, 4, 5, 7, 11, 22})
    assert theorem2_spectrum(18) | {0} == frozenset({0, 1, 2, 3, 4, 5, 8, 17})


def test_c05_formula_times_are_achieved(linear):
    # every value of the layer-length formula is a real generation time
    for n in range(1, 6):
        A = linear(n)
        spectrum = orlov_spectrum(A).spectrum
        for spec in all_specs(A):
            L = algebra_llts(A, spec)
            assert theorem2_spectrum(L) <= spectrum, (n, sorted(spec.vertices), L)


def test_c06_simples_generation_time_is_loewy_minus_one():
    for n in range(1, 7):
        for A in all_linear_algebras(n):
            assert generation_time(A, simples_set(A)) == algebra_loewy_length(A) - 1, (
                A.kupisch,
            )


def test_c07_tm_coghost_classification(linear):
    for n in range(2, 7):
        A = linear(n)
        for m in range(1, n):
            got = irreducible_coghosts(A, tm_generator(A, m))
            want = tuple(
                sorted(
                    ARArrow("+", i, j)
                    for i in range(m + 1, n + 1)
                    for j in range(i, n + 1)
                )
            )
            assert got == want, (n, m)


def test_c08_radical_nilpotence(linear):
    # exhaustive at every n: R^n = 0 for the sum R of all radical basis maps
    for n in range(2, 8):
        report = radical_nilpotence_check(linear(n))
        assert report["nonzero_composites"] == [], n
        assert report["longest_nonzero"] == n - 1, n


def test_c09_star_matches_oracle_middles(linear, linear3_ab):
    for A in (linear(3), linear(4), linear3_ab):
        report = verify_star_sweep(A, cap=12, max_mult=2, max_support=2)
        assert report["mismatches"] == [], (A.kupisch, report["mismatches"])
        assert report["pairs_checked"] > 0
    # raising multiplicities changes nothing on the small line
    report = verify_star_sweep(linear(3), cap=12, max_mult=3, max_support=2)
    assert report["mismatches"] == []


def test_c10_chain_level_equivalence(linear):
    for A in (linear(3), linear(4)):
        count = len(indecomposables(A))
        for mask in range(1, 1 << count):
            assert coghost_lemma_check(A, IndecSet(A, mask), 4) == [], (A.n, mask)


def test_c11_layer_length_inequalities(linear, linear3_ab, cyclic_fixture):
    def check(A, spec, sub, mid, quot):
        l_sub = radical_layer_length(A, spec, sub)
        l_mid = radical_layer_length(A, spec, mid)
        l_quot = radical_layer_length(A, spec, quot)
        assert max(l_sub, l_quot) <= l_mid <= l_sub + l_quot

    # truncations of every indecomposable over the cyclic fixture
    A = cyclic_fixture
    cyc_specs = list(all_specs(A))
    for u in indecomposables(A):
        for sub, mid, quot in truncation_triples(A, u):
            for spec in cyc_specs:
                check(A, spec, sub, mid, quot)

    # glue sequences (nonsplit extensions) over the linear fixtures
    for B in (linear(2), linear(3), linear(4), linear(5), linear3_ab):
        lin_specs = list(all_specs(B))
        for quot, sub in itertools.product(indecomposables(B), repeat=2):
            if not ext1_nonzero(B, quot=quot, sub=sub):
                continue
            mid = middle_term(B, quot=quot, sub=sub)
            for spec in lin_specs:
                check(B, spec, sub, mid, quot)

    # degenerate ends force equalities: 0 -> M -> M -> 0 -> 0 and its mirror
    zero = ModuleSum.zero()
    for B in (linear(4), linear3_ab):
        for spec in all_specs(B):
            assert radical_layer_length(B, spec, zero) == 0
            for u in indecomposables(B):
                value = radical_layer_length(B, spec, u)
                for sub, quot in ((u, zero), (zero, u)):
                    l_sub = radical_layer_length(B, spec, sub)
                    l_quot = radical_layer_length(B, spec, quot)
                    assert max(l_sub, l_quot) == value == l_sub + l_quot


def test_c12_spi_trichotomy(linear):
    assert orlov_spectrum(build_algebra(LINEAR, 1, None)).spectrum == frozenset({0})
    assert orlov_spectrum(linear(2)).spectrum == frozenset({0, 1})

    # the trichotomy pins the Loewy length, across every linear algebra
    for n in range(1, 7):
        for A in all_linear_algebras(n):
            cls = spi_classify(A)
            if cls is SpiClass.SEMISIMPLE:
                assert algebra_loewy_length(A) == 1, A.kupisch
            elif cls is SpiClass.SPI:
                assert algebra_loewy_length(A) == 2, A.kupisch
            else:
                assert algebra_loewy_length(A) >= 2, A.kupisch

    # no cyclic algebra lands in the small classes (sweep capped per length)
    for n in range(2, 7):
        for start in range(1, n + 1):
            for length in range(2, 2 * n + 3):
                A = build_algebra(CYCLIC, n, Relation(start=start, length=length))
                assert spi_classify(A) is SpiClass.NOT_SPI, (n, start, length)

    # computed spectra: {0, 1} happens exactly at Loewy length 2
    candidates = [A for n in range(1, 5) for A in all_linear_algebras(n)]
    candidates.append(linear(5))
    for A in candidates:
        spectrum = orlov_spectrum(A).spectrum
        if spectrum == frozenset({0, 1}):
            assert algebra_loewy_length(A) == 2, A.kupisch


def test_c13_strong_generators_reach_global_dimension(linear3_ab):
    A = linear3_ab
    assert [projective_dimension(A, simple(A, i)) for i in (1, 2, 3)] == [2, 1, 0]
    assert global_dimension(A) == 2
    assert is_strong_generator(A, simples_set(A))

    strong = 0
    for mask in range(1, 1 << len(indecomposables(A))):
        T = IndecSet(A, mask)
        if not is_strong_generator(A, T):
            continue
        strong += 1
        assert projective_dimension(A, T.to_module()) == 2
    assert strong > 0


def test_c14_cycle_reports_match_catalogue():
    expected = {
        (5, 3): {
            "kupisch": [3, 7, 6, 5, 4],
            "loewy_length": 7,
            "mismatched_items": ["a", "b(i=2)", "b(i=3)", "c(i=2)", "c(i=3)", "d(i=5)"],
        },
        (6, 2): {
            "kupisch": [2, 7, 6, 5, 4, 3],
            "loewy_length": 7,
            "mismatched_items": ["a", "b(i=2)", "c(i=2)", "d(i=4)", "d(i=5)", "d(i=6)"],
        },
        (6, 4): {
            "kupisch": [4, 9, 8, 7, 6, 5],
            "loewy_length": 9,
            "mismatched_items": [
                "a", "b(i=2)", "b(i=3)", "b(i=4)",
                "c(i=2)", "c(i=3)", "c(i=4)", "d(i=6)",
            ],
        },
    }
    for (n, m), want in expected.items():
        report = oriented_cycle_report(n, m)
        assert report["kupisch"] == want["kupisch"], (n, m)
        assert report["loewy_length"] == want["loewy_length"] == n + m - 1, (n, m)
        assert report["internally_consistent"] is True, (n, m)
        assert all(e["bruteforce_agrees"] for e in report["entries"]), (n, m)
        # disagreements with the catalogued closed forms are reported verbatim
        assert report["mismatched_items"] == want["mismatched_items"], (n, m)
        derived = [
            e["item"] + (f"(i={e['i']})" if e["i"] is not None else "")
            for e in report["entries"]
            if not e["matches_reference"]
        ]
        assert derived == report["mismatched_items"], (n, m)
