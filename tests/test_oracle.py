"""The GF(2) representation oracle and its agreement with the window engine."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from orlov_kit import (
    CYCLIC,
    LINEAR,
    InputError,
    ModuleSum,
    RefusalError,
    Relation,
    Uniserial,
    build_algebra,
    ext1_nonzero,
    hom_dim,
    indecomposables,
    middle_terms,
    oracle_report,
    verify_star_sweep,
)
from orlov_kit.oracle import (
    MatRep,
    _build_middle,
    _canonical_pattern,
    _ext_pair_structure,
    _multisets,
    decompose,
    ext_dim_oracle,
    gf2_nullspace,
    gf2_rank,
    hom_space_dim,
    mat_mul,
    to_matrep,
    validate_matrep,
)

from conftest import all_linear_algebras


def small_algebras(max_dim: int = 12):
    """Every linear and cyclic single-relation algebra of total dimension <= max_dim."""
    out = []
    for n in range(2, 6):
        out.extend(A for A in all_linear_algebras(n) if A.dimension <= max_dim)
    for n in range(2, 5):
        for start in range(1, n + 1):
            for length in range(2, 2 * n + 2):
                A = build_algebra(CYCLIC, n, Relation(start=start, length=length))
                if A.dimension <= max_dim:
                    out.append(A)
    return out


# ---------------------------------------------------------------------------
# GF(2) linear algebra
# ---------------------------------------------------------------------------


def test_gf2_rank_basics():
    assert gf2_rank([0b1, 0b10, 0b100]) == 3
    assert gf2_rank([0b11, 0b01, 0b10]) == 2
    assert gf2_rank([0, 0]) == 0


@given(st.data())
def test_gf2_nullspace_solves_and_counts(data):
    nvars = data.draw(st.integers(min_value=1, max_value=10))
    rows = data.draw(
        st.lists(st.integers(min_value=0, max_value=(1 << nvars) - 1), max_size=12)
    )
    basis = gf2_nullspace(rows, nvars)
    for vec in basis:
        for eq in rows:
            assert (eq & vec).bit_count() % 2 == 0
    assert len(basis) == nvars - gf2_rank(rows)
    assert gf2_rank(basis) == len(basis)  # solutions are independent


def test_mat_mul_composes():
    # 2x2 over GF(2): swap then swap = identity
    swap = (0b10, 0b01)
    assert mat_mul(swap, swap) == (0b01, 0b10)
    proj = (0b01, 0b00)
    assert mat_mul(proj, proj) == proj


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------


def test_to_matrep_dimensions(linear):
    A = linear(4)
    rep = to_matrep(A, ModuleSum.of(Uniserial(1, 3), Uniserial(2, 2)))
    assert rep.dims == (1, 2, 2, 0)
    assert rep.total_dim == 5
    # the single basis vector at vertex 1 maps into vertex 2's two-dim space
    assert len(rep.arrows) == 3
    assert rep.arrows[0] == (0b01,)


def test_validate_matrep_rejects_bad_shapes(linear, linear3_ab):
    A = linear(3)
    with pytest.raises(InputError):
        validate_matrep(MatRep(A, (1, 1), ((1,), (1,))))  # dims length wrong
    with pytest.raises(InputError):
        validate_matrep(MatRep(A, (1, 1, 1), ((0b10,), (1,))))  # bit exceeds target
    # a composition series 1-2-3 is a module on the hereditary line but the
    # two-arrow relation at vertex 1 kills it
    chain = MatRep(linear3_ab, (1, 1, 1), ((1,), (1,)))
    with pytest.raises(InputError):
        validate_matrep(chain)
    validate_matrep(MatRep(A, (1, 1, 1), ((1,), (1,))))


# ---------------------------------------------------------------------------
# dual-route agreement: solver vs window combinatorics
# ---------------------------------------------------------------------------


def test_hom_agreement_on_all_small_algebras():
    for A in small_algebras():
        for x, y in itertools.product(indecomposables(A), repeat=2):
            if x.length + y.length > 10:
                continue
            assert hom_space_dim(to_matrep(A, x), to_matrep(A, y)) == hom_dim(A, x, y), (
                A.shape,
                A.kupisch,
                x,
                y,
            )


def test_ext_agreement_on_all_small_linear_algebras():
    for A in small_algebras():
        if not A.is_linear:
            continue
        for x, y in itertools.product(indecomposables(A), repeat=2):
            want = 1 if ext1_nonzero(A, quot=x, sub=y) else 0
            assert ext_dim_oracle(A, x, y) == want, (A.kupisch, x, y)


@settings(deadline=None)
@given(st.data())
def test_decompose_round_trip(data):
    algebras = list(all_linear_algebras(5))
    A = algebras[data.draw(st.integers(min_value=0, max_value=len(algebras) - 1))]
    indecs = indecomposables(A)
    picks = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=len(indecs) - 1),
            min_size=1,
            max_size=3,
        )
    )
    M = ModuleSum.from_iterable(indecs[k] for k in picks)
    if M.dim > 12:
        return
    assert decompose(to_matrep(A, M)) == M


def test_decompose_rejects_cyclic(cyclic_fixture):
    rep = to_matrep(cyclic_fixture, Uniserial(1, 2))
    with pytest.raises(InputError):
        decompose(rep)


# ---------------------------------------------------------------------------
# extension middles
# ---------------------------------------------------------------------------


def test_middle_terms_single_pair(linear):
    A = linear(4)
    middles = middle_terms(A, ModuleSum.of(Uniserial(1, 1)), ModuleSum.of(Uniserial(2, 1)))
    assert middles == frozenset(
        {
            ModuleSum.of(Uniserial(1, 1), Uniserial(2, 1)),  # split
            ModuleSum.of(Uniserial(1, 2)),  # glued
        }
    )


def test_middle_terms_overlap_pair(linear):
    A = linear(4)
    middles = middle_terms(A, ModuleSum.of(Uniserial(2, 2)), ModuleSum.of(Uniserial(3, 2)))
    assert ModuleSum.of(Uniserial(2, 3), Uniserial(3, 1)) in middles
    assert ModuleSum.of(Uniserial(2, 2), Uniserial(3, 2)) in middles
    assert len(middles) == 2


def test_middle_terms_no_ext_only_split(linear):
    A = linear(4)
    middles = middle_terms(A, ModuleSum.of(Uniserial(2, 1)), ModuleSum.of(Uniserial(1, 1)))
    assert middles == frozenset({ModuleSum.of(Uniserial(1, 1), Uniserial(2, 1))})


def test_middle_terms_coupled_class_liberates(linear):
    # one quotient glued simultaneously onto two sub pieces: the coupled
    # class produces a summand no single-pair extension shows.
    A = linear(4)
    middles = middle_terms(
        A,
        ModuleSum.of(Uniserial(1, 2)),
        ModuleSum.of(Uniserial(2, 3), Uniserial(3, 1)),
    )
    assert len(middles) == 4  # two independent ext pairs -> four classes
    assert any(Uniserial(2, 2) in mid.summands for mid in middles)


def test_middle_terms_guards(linear, cyclic_fixture):
    with pytest.raises(RefusalError):
        middle_terms(
            linear(4),
            ModuleSum.of(Uniserial(1, 4), Uniserial(1, 4)),
            ModuleSum.of(Uniserial(1, 4), Uniserial(1, 4)),
            cap=12,
        )
    with pytest.raises(InputError):
        middle_terms(
            cyclic_fixture, ModuleSum.of(Uniserial(1, 1)), ModuleSum.of(Uniserial(2, 1))
        )


def test_middle_dimensions_are_exact(linear):
    A = linear(4)
    rng = random.Random(3)
    indecs = indecomposables(A)
    for _ in range(25):
        V = ModuleSum.from_iterable(
            indecs[rng.randrange(len(indecs))] for _ in range(rng.randint(1, 2))
        )
        U = ModuleSum.from_iterable(
            indecs[rng.randrange(len(indecs))] for _ in range(rng.randint(1, 2))
        )
        if V.dim + U.dim > 12:
            continue
        for mid in middle_terms(A, V, U):
            assert mid.dim == V.dim + U.dim


def test_middle_terms_dedup_matches_every_pattern(linear):
    # _canonical_pattern skips patterns that permute equal summands.  On a
    # seeded sample of sweep pairs with at least two ext pairs, decompose
    # every bit pattern: patterns sharing a key must share their middle, and
    # middle_terms must return exactly the middles of all patterns.
    rng = random.Random(9)
    merged = 0
    for A, max_mult in ((linear(3), 3), (linear(4), 2)):
        modules = list(_multisets(A, 2, max_mult, 12))
        sampled = 0
        while sampled < 120:
            V, U = rng.choice(modules), rng.choice(modules)
            if V.dim + U.dim > 12:
                continue
            Urep, Vrep, pairs = _ext_pair_structure(A, V, U)
            if len(pairs) < 2:
                continue
            sampled += 1
            by_key: dict = {}
            for bits in range(1 << len(pairs)):
                middle = decompose(_build_middle(Urep, Vrep, pairs, bits))
                by_key.setdefault(_canonical_pattern(V, U, pairs, bits), set()).add(middle)
            assert all(len(middles) == 1 for middles in by_key.values()), (A.kupisch, V, U)
            assert middle_terms(A, V, U) == frozenset().union(*by_key.values()), (A.kupisch, V, U)
            merged += len(by_key) < 1 << len(pairs)
    assert merged > 0  # the key does merge patterns on this sample


# ---------------------------------------------------------------------------
# sweep and report
# ---------------------------------------------------------------------------


def test_star_sweep_small(linear):
    report = verify_star_sweep(linear(3), cap=10, max_mult=2, max_support=2)
    assert report["mismatches"] == []
    assert (report["pairs_checked"], report["support_pairs"]) == (3574, 441)


def test_oracle_report_linear(linear3_ab):
    report = oracle_report(linear3_ab, cap=10)
    assert report["ok"] is True
    assert [c["ok"] for c in report["checks"]] == [True] * 4
    assert report["algebra"] == {"shape": LINEAR, "n": 3}


def test_oracle_report_cyclic():
    A = build_algebra(CYCLIC, 4, Relation(start=1, length=2))
    report = oracle_report(A, cap=8)
    assert report["ok"] is True
    assert len(report["checks"]) == 1  # hom agreement only on cyclic shapes
