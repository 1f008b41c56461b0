"""Hom/Ext window calculus and the AR quiver of the hereditary line."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, strategies as st

from orlov_kit import (
    ARArrow,
    InputError,
    ModuleSum,
    Uniserial,
    ar_quiver,
    ar_quiver_dot,
    ext1_nonzero,
    hom_dim,
    indecomposables,
    middle_term,
    projective,
    simple,
)
from orlov_kit.homext import _linear_hom_dim, composite_nonzero, hom_sum_nonzero, interval_end

from conftest import all_linear_algebras


# ---------------------------------------------------------------------------
# Hom
# ---------------------------------------------------------------------------


def test_hom_dim_linear_window_examples(linear):
    A = linear(4)
    # maps collapse the source onto a top window, then include it at the
    # target's socle end: nonzero iff c <= a <= d <= b.
    assert hom_dim(A, Uniserial(2, 3), Uniserial(1, 3)) == 1  # [2,4] -> [1,3]
    assert hom_dim(A, Uniserial(1, 3), Uniserial(2, 3)) == 0  # wrong direction
    assert hom_dim(A, Uniserial(1, 4), Uniserial(1, 2)) == 1  # quotient map
    assert hom_dim(A, Uniserial(3, 2), Uniserial(1, 4)) == 1  # submodule map
    assert hom_dim(A, Uniserial(1, 4), Uniserial(4, 1)) == 0  # socle is not a quotient
    assert hom_dim(A, Uniserial(1, 2), Uniserial(3, 2)) == 0  # disjoint windows


def test_hom_dim_identity_and_simples(linear):
    A = linear(4)
    for u in indecomposables(A):
        assert hom_dim(A, u, u) == 1
    for i, j in itertools.product(range(1, 5), repeat=2):
        assert hom_dim(A, simple(A, i), simple(A, j)) == (1 if i == j else 0)


def test_hom_dim_validates_while_the_window_test_does_not(linear):
    # The public entry still refuses modules that do not exist over A; the
    # unvalidated window test serves callers whose modules are valid already.
    A = linear(3)
    for bad in (Uniserial(1, 4), Uniserial(4, 1), Uniserial(2, 3)):
        with pytest.raises(InputError):
            hom_dim(A, bad, simple(A, 1))
        with pytest.raises(InputError):
            hom_dim(A, simple(A, 1), bad)
    for n in range(1, 5):
        for B in all_linear_algebras(n):
            for x, y in itertools.product(indecomposables(B), repeat=2):
                assert _linear_hom_dim(x, y) == hom_dim(B, x, y), (B.kupisch, x, y)


def test_hom_dim_cyclic_alignments(cyclic_fixture):
    A = cyclic_fixture  # n = 4, kupisch (20, 23, 22, 21)
    # offsets s with top + s = top(X) mod 4 and remaining length fitting in X
    assert hom_dim(A, Uniserial(2, 23), Uniserial(2, 8)) == 2  # s in {0, 4}
    # End(P(1)): the top vertex 1 recurs five times along P(1)'s 20 layers.
    P1 = projective(A, 1)
    assert hom_dim(A, P1, P1) == 5
    assert hom_dim(A, Uniserial(1, 2), Uniserial(4, 2)) == 1  # wraps 4 -> 1


def test_hom_sum_nonzero(linear):
    A = linear(3)
    M = ModuleSum.of(Uniserial(1, 1), Uniserial(3, 1))
    N = ModuleSum.of(Uniserial(2, 2))
    assert hom_sum_nonzero(A, M, N)  # S(3) `-> [2,3]
    assert hom_sum_nonzero(A, N, ModuleSum.of(Uniserial(2, 1)))  # [2,3] ->> S(2)
    assert not hom_sum_nonzero(A, N, M)  # S(3) is the socle, never a quotient
    assert not hom_sum_nonzero(A, ModuleSum.of(Uniserial(3, 1)), Uniserial(1, 1))
    assert not hom_sum_nonzero(A, ModuleSum.zero(), M)


def test_composite_nonzero(linear):
    A = linear(4)
    X, Y, Z = Uniserial(2, 3), Uniserial(1, 3), Uniserial(1, 2)
    assert composite_nonzero(A, X, Y, Z)  # top(X) = 2 stays inside [1,2]
    assert not composite_nonzero(A, Uniserial(3, 2), Y, Z)  # overlap empties
    assert not composite_nonzero(A, Uniserial(1, 2), Uniserial(3, 2), Z)  # first map 0


def test_composite_rejects_cyclic(cyclic_fixture):
    u = Uniserial(1, 1)
    with pytest.raises(InputError):
        composite_nonzero(cyclic_fixture, u, u, u)


# ---------------------------------------------------------------------------
# Ext^1 and middle terms
# ---------------------------------------------------------------------------


def test_ext1_adjacent_glue(linear):
    A = linear(4)
    assert ext1_nonzero(A, quot=simple(A, 1), sub=simple(A, 2))
    assert middle_term(A, quot=simple(A, 1), sub=simple(A, 2)) == ModuleSum.of(
        Uniserial(1, 2)
    )


def test_ext1_overlap_middle(linear):
    # quot = [2,3], sub = [3,4]: windows interlock with overlap [3,3].
    A = linear(4)
    quot, sub = Uniserial(2, 2), Uniserial(3, 2)
    assert ext1_nonzero(A, quot=quot, sub=sub)
    assert middle_term(A, quot=quot, sub=sub) == ModuleSum.of(
        Uniserial(2, 3), Uniserial(3, 1)
    )


def test_ext1_vanishing_cases(linear):
    A = linear(4)
    assert not ext1_nonzero(A, quot=simple(A, 1), sub=simple(A, 3))  # gap
    assert not ext1_nonzero(A, quot=simple(A, 2), sub=simple(A, 1))  # wrong order
    assert not ext1_nonzero(A, quot=Uniserial(1, 3), sub=Uniserial(2, 2))  # d <= b
    assert not ext1_nonzero(A, quot=simple(A, 1), sub=simple(A, 1))  # no self-ext


def test_ext1_capacity_block(linear, linear3_ab):
    # over the hereditary line the glue S(1)|S(2)|S(3) exists; the relation
    # of length 2 at vertex 1 caps the merged window and kills the class.
    quot, sub = Uniserial(1, 1), Uniserial(2, 2)
    assert ext1_nonzero(linear(3), quot=quot, sub=sub)
    assert not ext1_nonzero(linear3_ab, quot=quot, sub=sub)
    # the single-step glue below the cap survives.
    assert ext1_nonzero(linear3_ab, quot=Uniserial(1, 1), sub=Uniserial(2, 1))


def test_ext1_rejects_cyclic(cyclic_fixture):
    with pytest.raises(InputError):
        ext1_nonzero(cyclic_fixture, quot=Uniserial(1, 1), sub=Uniserial(2, 1))


def test_middle_term_requires_nonzero_ext(linear):
    with pytest.raises(InputError):
        middle_term(linear(4), quot=simple(linear(4), 2), sub=simple(linear(4), 1))


def test_ext1_antisymmetric_and_middle_exact():
    for A in all_linear_algebras(5):
        indecs = indecomposables(A)
        for quot, sub in itertools.product(indecs, repeat=2):
            forward = ext1_nonzero(A, quot=quot, sub=sub)
            backward = ext1_nonzero(A, quot=sub, sub=quot)
            assert not (forward and backward)
            if not forward:
                continue
            mid = middle_term(A, quot=quot, sub=sub)
            assert mid.dim == quot.length + sub.length
            for piece in mid:
                assert 1 <= piece.length <= A.c(piece.top_vertex)


@given(st.data())
def test_ext1_matches_window_inequalities(data):
    n = data.draw(st.integers(min_value=2, max_value=6), label="n")
    algebras = list(all_linear_algebras(n))
    A = algebras[data.draw(st.integers(min_value=0, max_value=len(algebras) - 1))]
    indecs = indecomposables(A)
    quot = indecs[data.draw(st.integers(min_value=0, max_value=len(indecs) - 1))]
    sub = indecs[data.draw(st.integers(min_value=0, max_value=len(indecs) - 1))]
    a, b = quot.top_vertex, interval_end(A, quot)
    c, d = sub.top_vertex, interval_end(A, sub)
    expected = a < c <= b + 1 <= d <= a + A.c(a) - 1
    assert ext1_nonzero(A, quot=quot, sub=sub) == expected


# ---------------------------------------------------------------------------
# AR quiver
# ---------------------------------------------------------------------------


def test_ar_quiver_small_counts(linear):
    q2 = ar_quiver(linear(2))
    assert q2.nodes == (Uniserial(1, 1), Uniserial(1, 2), Uniserial(2, 1))
    assert q2.arrows == (ARArrow("+", 2, 2), ARArrow("-", 1, 2))

    q4 = ar_quiver(linear(4))
    assert len(q4.nodes) == 10
    assert len(q4.arrows) == 12
    assert set(q4.nodes) == set(indecomposables(linear(4)))


def test_ar_arrows_are_nonzero_maps(linear):
    A = linear(5)
    for arrow in ar_quiver(A).arrows:
        assert hom_dim(A, arrow.source, arrow.target) == 1


def test_ar_arrow_windows():
    up = ARArrow("+", 3, 4)
    assert up.source == Uniserial(3, 2) and up.target == Uniserial(2, 3)
    assert up.label() == "f+[3,4]"
    down = ARArrow("-", 2, 4)
    assert down.source == Uniserial(2, 3) and down.target == Uniserial(2, 2)
    assert down.label() == "f-[2,4]"


def test_ar_meshes_commute(linear):
    # both routes M_[i,j] -> M_[i-1,j-1] are the canonical map; with the
    # sign-free convention their zero/nonzero pattern must agree.
    for n in (4, 5):
        A = linear(n)
        for i in range(2, n + 1):
            for j in range(i + 1, n + 1):
                src = ARArrow("+", i, j).source
                via_plus = ARArrow("+", i, j).target
                via_minus = ARArrow("-", i, j).target
                dst = Uniserial(i - 1, j - i + 1)  # window [i-1, j-1]
                assert composite_nonzero(A, src, via_plus, dst) == composite_nonzero(
                    A, src, via_minus, dst
                )


def test_ar_quiver_rejects_other_shapes(linear3_ab, cyclic_fixture):
    with pytest.raises(InputError):
        ar_quiver(linear3_ab)
    with pytest.raises(InputError):
        ar_quiver(cyclic_fixture)


def test_ar_quiver_dot_snapshot(linear):
    assert ar_quiver_dot(linear(2)) == (
        "digraph ar_quiver {\n"
        '  "M[1,1]";\n'
        '  "M[1,2]";\n'
        '  "M[2,2]";\n'
        '  "M[2,2]" -> "M[1,2]" [label="f+[2,2]"];\n'
        '  "M[1,2]" -> "M[1,1]" [label="f-[1,2]"];\n'
        "}\n"
    )
