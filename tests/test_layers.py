"""Torsion-radical layer lengths, homological dimensions, cycle reports."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from orlov_kit import (
    CYCLIC,
    INFINITE,
    InputError,
    ModuleSum,
    Relation,
    TorsionSpec,
    Uniserial,
    algebra_llts,
    build_algebra,
    finite_pd_simples,
    global_dimension,
    hom_dim,
    indecomposables,
    injective_dimension,
    loewy_length,
    oriented_cycle_report,
    projective,
    projective_dimension,
    radical_layer_length,
    simple,
    theorem2_spectrum,
    torsion_quotient,
    torsion_radical,
    truncation_triples,
    wd_generator,
)
from orlov_kit.layers import _layer_length_bruteforce

from conftest import all_linear_algebras


# ---------------------------------------------------------------------------
# torsion radical / quotient
# ---------------------------------------------------------------------------


def test_torsion_spec_validation(linear):
    spec = TorsionSpec.of(linear(4), [2, 3])
    assert spec.complement(linear(4)) == frozenset({1, 4})
    with pytest.raises(InputError):
        TorsionSpec.of(linear(4), [0])
    with pytest.raises(InputError):
        TorsionSpec.of(linear(4), [5])
    for vertices in ([1.7, True], [True], [1, True], [2.0], ["2"]):
        with pytest.raises(InputError):
            TorsionSpec.of(linear(4), vertices)


def test_trace_examples(linear):
    A = linear(4)
    spec = TorsionSpec.of(A, [1])
    P1 = projective(A, 1)
    assert torsion_radical(A, spec, P1) == ModuleSum.of(Uniserial(2, 3))
    assert torsion_quotient(A, spec, P1) == ModuleSum.of(Uniserial(1, 1))
    assert torsion_radical(A, spec, simple(A, 1)) == ModuleSum.zero()
    assert torsion_quotient(A, spec, simple(A, 1)) == ModuleSum.of(simple(A, 1))


def test_trace_with_empty_spec_keeps_everything(linear):
    A = linear(3)
    spec = TorsionSpec.of(A, ())
    M = ModuleSum.of(Uniserial(1, 3), Uniserial(2, 1))
    assert torsion_radical(A, spec, M) == M
    assert torsion_quotient(A, spec, M) == ModuleSum.zero()


@given(st.data())
def test_trace_and_quotient_partition_dimension(data):
    algebras = list(all_linear_algebras(5))
    A = algebras[data.draw(st.integers(min_value=0, max_value=len(algebras) - 1))]
    indecs = indecomposables(A)
    picks = data.draw(
        st.lists(st.integers(min_value=0, max_value=len(indecs) - 1), max_size=5)
    )
    M = ModuleSum.from_iterable(indecs[k] for k in picks)
    S = data.draw(st.frozensets(st.integers(min_value=1, max_value=A.n)))
    spec = TorsionSpec.of(A, S)
    assert (
        torsion_radical(A, spec, M).dim + torsion_quotient(A, spec, M).dim == M.dim
    )


# ---------------------------------------------------------------------------
# layer lengths
# ---------------------------------------------------------------------------


def test_layer_length_degenerate_specs(linear):
    A = linear(4)
    everything = TorsionSpec.of(A, range(1, 5))
    nothing = TorsionSpec.of(A, ())
    for u in indecomposables(A):
        assert radical_layer_length(A, everything, u) == 0
        assert radical_layer_length(A, nothing, u) == loewy_length(u)
    assert radical_layer_length(A, nothing, ModuleSum.zero()) == 0


def test_layer_length_bounded_by_loewy_length(linear):
    A = linear(5)
    for u in indecomposables(A):
        for S in ({1}, {2, 4}, {1, 3, 5}):
            spec = TorsionSpec.of(A, S)
            assert radical_layer_length(A, spec, u) <= loewy_length(u)


def test_algebra_llts_linear_prefix_formula(linear):
    # killing the first j simples of the hereditary line costs exactly j steps
    for n in (4, 5):
        A = linear(n)
        assert algebra_llts(A, TorsionSpec.of(A, ())) == n
        for j in range(1, n):
            spec = TorsionSpec.of(A, range(1, j + 1))
            assert algebra_llts(A, spec) == n - j


def test_algebra_llts_cyclic_anchor(cyclic_fixture):
    A = cyclic_fixture
    assert algebra_llts(A, TorsionSpec.of(A, ())) == 23
    assert algebra_llts(A, TorsionSpec.of(A, [1])) == 18


@given(st.data())
def test_layer_length_matches_bruteforce(data):
    algebras = list(all_linear_algebras(5))
    algebras.append(build_algebra(CYCLIC, 4, Relation(start=1, length=6)))
    algebras.append(build_algebra(CYCLIC, 5, Relation(start=2, length=3)))
    A = algebras[data.draw(st.integers(min_value=0, max_value=len(algebras) - 1))]
    indecs = indecomposables(A)
    u = indecs[data.draw(st.integers(min_value=0, max_value=len(indecs) - 1))]
    S = data.draw(st.frozensets(st.integers(min_value=1, max_value=A.n)))
    spec = TorsionSpec.of(A, S)
    assert radical_layer_length(A, spec, u) == _layer_length_bruteforce(A, S, u)


# ---------------------------------------------------------------------------
# the spectrum formula and the W_d classes
# ---------------------------------------------------------------------------


def test_theorem2_spectrum_values():
    assert theorem2_spectrum(0) == frozenset()
    assert theorem2_spectrum(1) == frozenset()
    assert theorem2_spectrum(2) == frozenset({1})
    assert theorem2_spectrum(5) == frozenset({1, 2, 4})
    for bad in (-1, True, 2.5, 5.0):
        with pytest.raises(InputError):
            theorem2_spectrum(bad)


def test_wd_generator_membership(linear):
    A = linear(4)
    spec = TorsionSpec.of(A, ())
    W1 = wd_generator(A, spec, 1)
    assert set(W1.members()) == {simple(A, i) for i in range(1, 5)}
    for d in (1, 2, 3):
        W = wd_generator(A, spec, d)
        for u in indecomposables(A):
            assert (u in W) == (radical_layer_length(A, spec, u) <= d)
    for bad in (0, 4, 2.5, True, 1.0):
        with pytest.raises(InputError):
            wd_generator(A, spec, bad)


# ---------------------------------------------------------------------------
# projective / injective dimension
# ---------------------------------------------------------------------------


def test_dimensions_on_hereditary_line(linear):
    A = linear(4)
    for i in range(1, 5):
        assert projective_dimension(A, projective(A, i)) == 0
        assert projective_dimension(A, simple(A, i)) == (0 if i == 4 else 1)
        assert injective_dimension(A, simple(A, i)) == (0 if i == 1 else 1)
    assert global_dimension(A) == 1


def test_dimensions_with_relation(linear3_ab):
    A = linear3_ab
    assert [projective_dimension(A, simple(A, i)) for i in (1, 2, 3)] == [2, 1, 0]
    assert global_dimension(A) == 2
    # explicit witness for pd S(1) = 2: the syzygy chain S(1) -> S(2) -> S(3)
    assert projective_dimension(A, simple(A, 2)) == 1
    assert projective(A, 3) == simple(A, 3)


def test_dimensions_on_cycle(cyclic_fixture):
    A = cyclic_fixture
    assert projective_dimension(A, simple(A, 1)) is INFINITE
    for i in (2, 3, 4):
        assert projective_dimension(A, simple(A, i)) == 1
    assert global_dimension(A) is INFINITE
    assert finite_pd_simples(A).vertices == frozenset({2, 3, 4})


def test_dimension_of_sum_is_max(linear3_ab):
    A = linear3_ab
    M = ModuleSum.of(simple(A, 1), projective(A, 2))
    assert projective_dimension(A, M) == 2
    assert projective_dimension(A, ModuleSum.zero()) == 0


# ---------------------------------------------------------------------------
# truncation sequences
# ---------------------------------------------------------------------------


def test_truncation_triples_structure(linear):
    A = linear(4)
    u = Uniserial(1, 3)
    triples = truncation_triples(A, u)
    assert triples == [
        (Uniserial(2, 2), u, Uniserial(1, 1)),
        (Uniserial(3, 1), u, Uniserial(1, 2)),
    ]
    for sub, mid, quot in triples:
        assert sub.length + quot.length == mid.length
        assert hom_dim(A, sub, mid) >= 1  # inclusion
        assert hom_dim(A, mid, quot) >= 1  # projection
    assert truncation_triples(A, simple(A, 2)) == []


def test_truncation_triples_wrap(cyclic_fixture):
    A = cyclic_fixture
    triples = truncation_triples(A, Uniserial(4, 3))
    assert [sub for sub, _, _ in triples] == [Uniserial(1, 2), Uniserial(2, 1)]


# ---------------------------------------------------------------------------
# oriented-cycle reports
# ---------------------------------------------------------------------------


def test_cycle_report_input_validation():
    for n, m in ((4, 4), (3, 1), (2, 1), (4, 0)):
        with pytest.raises(InputError):
            oriented_cycle_report(n, m)


def test_cycle_report_4_2():
    report = oriented_cycle_report(4, 2)
    assert report["kupisch"] == [2, 5, 4, 3]
    assert report["loewy_length"] == 5  # n + m - 1
    assert report["internally_consistent"]
    assert all(e["bruteforce_agrees"] for e in report["entries"])
    assert report["mismatched_items"] == ["a", "b(i=2)", "c(i=2)", "d(i=4)"]
    by_key = {(e["item"], e["i"]): e for e in report["entries"]}
    assert by_key[("a", None)]["reference_corrupted"]
    assert by_key[("a", None)]["computed"] == 5
    assert by_key[("b", 2)]["computed"] == 3 and by_key[("b", 2)]["reference"] == 4
    assert by_key[("c", 2)]["computed"] == 2 and by_key[("c", 2)]["reference"] == 3
    assert by_key[("d", 4)]["computed"] == 0 and by_key[("d", 4)]["reference"] == 2
    assert by_key[("e", None)]["computed"] == 1 == by_key[("e", None)]["reference"]
