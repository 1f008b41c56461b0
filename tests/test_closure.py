"""Extension closures: star levels, generation times, spectrum enumeration."""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

import pytest

from orlov_kit import (
    INFINITE,
    LINEAR,
    IndecSet,
    InputError,
    ModuleSum,
    RefusalError,
    Relation,
    TorsionSpec,
    Uniserial,
    bracket_n,
    build_algebra,
    fac_closure,
    generation_time,
    indecomposables,
    is_strong_generator,
    orlov_spectrum,
    projective,
    simple,
    star,
    sub_closure,
    verify_subset_lemmas,
    wd_generator,
)
from orlov_kit.closure import _kernel_windows, _onto, _rank_f2, _realizable, star_mask

from conftest import all_linear_algebras

GOLDEN = Path(__file__).parent / "golden"


def simples_set(A) -> IndecSet:
    return IndecSet.of(A, (simple(A, i) for i in range(1, A.n + 1)))


# ---------------------------------------------------------------------------
# IndecSet
# ---------------------------------------------------------------------------


def test_indec_set_basics(linear):
    A = linear(4)
    T = IndecSet.of(A, [Uniserial(1, 2), Uniserial(3, 1)])
    assert len(T) == 2
    assert Uniserial(1, 2) in T and Uniserial(3, 2) not in T
    assert T.members() == (Uniserial(1, 2), Uniserial(3, 1))
    assert T.to_module() == ModuleSum.of(Uniserial(1, 2), Uniserial(3, 1))
    assert len(IndecSet.empty(A)) == 0
    assert IndecSet.full(A).is_full and len(IndecSet.full(A)) == 10

    S = IndecSet.of(A, [Uniserial(1, 2)])
    assert S <= T and not T <= S
    assert (S | T) == T and (S & T) == S


def test_indec_set_validates_members(linear):
    with pytest.raises(InputError):
        IndecSet.of(linear(3), [Uniserial(2, 3)])  # longer than P(2)


def test_indec_set_rejects_mixed_algebras(linear):
    with pytest.raises(InputError):
        IndecSet.full(linear(3)) | IndecSet.full(linear(4))


# ---------------------------------------------------------------------------
# sub / fac closures
# ---------------------------------------------------------------------------


def test_sub_and_fac_of_projective(linear):
    A = linear(4)
    P = IndecSet.of(A, [projective(A, 1)])
    assert set(sub_closure(A, P).members()) == {
        Uniserial(1, 4),
        Uniserial(2, 3),
        Uniserial(3, 2),
        Uniserial(4, 1),
    }
    assert set(fac_closure(A, P).members()) == {Uniserial(1, l) for l in range(1, 5)}


def test_sub_closure_wraps_on_cycle(cyclic_fixture):
    A = cyclic_fixture
    T = IndecSet.of(A, [Uniserial(4, 2)])
    assert set(sub_closure(A, T).members()) == {Uniserial(4, 2), Uniserial(1, 1)}


def test_closures_are_idempotent_and_monotone(linear):
    A = linear(4)
    rng = random.Random(1)
    full = (1 << 10) - 1
    for _ in range(50):
        T = IndecSet(A, rng.randrange(1, full + 1))
        for close in (sub_closure, fac_closure):
            C = close(A, T)
            assert T <= C
            assert close(A, C) == C


# ---------------------------------------------------------------------------
# star
# ---------------------------------------------------------------------------


def test_star_contains_both_sides_and_middles(linear):
    A = linear(4)
    left = IndecSet.of(A, [simple(A, 2)])
    right = IndecSet.of(A, [simple(A, 1)])
    got = star(A, left, right)
    # sub from the left, quotient from the right: S(1) on top of S(2)
    assert got == IndecSet.of(A, [simple(A, 1), simple(A, 2), Uniserial(1, 2)])


def test_star_is_order_sensitive(linear):
    A = linear(4)
    sub_part = IndecSet.of(A, [Uniserial(3, 2)])  # window [3,4]
    quot_part = IndecSet.of(A, [Uniserial(1, 2)])  # window [1,2]
    assert projective(A, 1) in star(A, sub_part, quot_part)
    assert projective(A, 1) not in star(A, quot_part, sub_part)


def test_star_empty_side_is_identity(linear):
    A = linear(3)
    T = IndecSet.of(A, [Uniserial(1, 2)])
    assert star(A, T, IndecSet.empty(A)) == T
    assert star(A, IndecSet.empty(A), T) == T


def test_star_direct_sum_liberation(linear):
    # extensions between direct sums can stitch summands no single-pair
    # extension produces; both mechanisms must be visible to the engine.
    A = linear(4)
    target = Uniserial(2, 2)  # window [2,3]
    left_a = IndecSet.of(A, [Uniserial(2, 3), Uniserial(3, 1)])
    right_a = IndecSet.of(A, [Uniserial(1, 2)])
    assert target in star(A, left_a, right_a)

    left_b = IndecSet.of(A, [Uniserial(3, 2)])
    right_b = IndecSet.of(A, [Uniserial(1, 3), Uniserial(2, 1)])
    assert target in star(A, left_b, right_b)


def test_star_blocked_pairs_stay_blocked(linear):
    A = linear(4)
    assert Uniserial(2, 2) not in star(
        A, IndecSet.of(A, [Uniserial(3, 1)]), IndecSet.of(A, [Uniserial(1, 2)])
    )
    assert Uniserial(2, 1) not in star(
        A, IndecSet.of(A, [Uniserial(1, 2)]), IndecSet.of(A, [Uniserial(2, 2)])
    )


def test_star_associative_exhaustive_small(linear):
    A = linear(3)
    full = (1 << len(indecomposables(A))) - 1
    masks = range(1, full + 1)
    for x, y, z in itertools.product(masks, repeat=3):
        left = star_mask(A, star_mask(A, x, y), z)
        right = star_mask(A, x, star_mask(A, y, z))
        assert left == right, (x, y, z)


def test_star_associative_sampled(linear):
    A = linear(4)
    full = (1 << len(indecomposables(A))) - 1
    rng = random.Random(20260814)
    for _ in range(300):
        x, y, z = (rng.randrange(1, full + 1) for _ in range(3))
        assert star_mask(A, star_mask(A, x, y), z) == star_mask(
            A, x, star_mask(A, y, z)
        ), (x, y, z)


def test_realizable_decisions_match_golden():
    # Every gap-bit decision orlov_spectrum makes on linear4 and on linear4
    # with relation (1,2) and (2,2): 8 realized, 34 refuted.  A search that
    # realizes or refutes any of them wrongly fails here.
    golden = json.loads((GOLDEN / "realizable_decisions.json").read_text())
    for name, entry in golden.items():
        rel = entry["relation"]
        A = build_algebra(LINEAR, 4, Relation(*rel) if rel else None)
        _realizable.cache_clear()
        got = [[left, right, w, _realizable(A, left, right, w)] for left, right, w, _ in entry["decisions"]]
        assert got == entry["decisions"], name
    _realizable.cache_clear()


def _reference_nullspace(rows: list[int], nvars: int) -> list[int]:
    pivots: dict[int, int] = {}
    for r in rows:
        for p, row in pivots.items():
            if r >> p & 1:
                r ^= row
        if r:
            p = r.bit_length() - 1
            for q in pivots:
                if pivots[q] >> p & 1:
                    pivots[q] ^= r
            pivots[p] = r
    out = []
    for f in range(nvars):
        if f in pivots:
            continue
        vec = 1 << f
        for p, r in pivots.items():
            if r >> f & 1:
                vec |= 1 << p
        out.append(vec)
    return out


def _reference_onto_and_kernel(n, X, Vc, chosen):
    """The witness search's former route, kept as the reference: g as a full
    matrix over the vertex bases, surjectivity as full rank, and kernel
    window multiplicities by inclusion-exclusion over every path rank."""
    xb = {key: k for k, key in enumerate((i, v) for i, (a, b) in enumerate(X) for v in range(a, b + 1))}
    vb = {key: k for k, key in enumerate((j, v) for j, (c, d) in enumerate(Vc) for v in range(c, d + 1))}
    cols = [0] * len(xb)
    for i, j in chosen:
        for v in range(X[i][0], Vc[j][1] + 1):
            cols[xb[(i, v)]] |= 1 << vb[(j, v)]
    onto = _rank_f2(cols) == len(vb)
    rows = [0] * len(vb)
    for col, bits in enumerate(cols):
        for r in range(len(vb)):
            if bits >> r & 1:
                rows[r] |= 1 << col
    ker = _reference_nullspace(rows, len(xb))
    inv = {col: key for key, col in xb.items()}

    def path_rank(a: int, b: int) -> int:
        if a < 1 or b > n:
            return 0
        vecs = []
        for vec in ker:
            out = 0
            for col in range(len(xb)):
                if vec >> col & 1:
                    i, v = inv[col]
                    if v == a and X[i][1] >= b:
                        out |= 1 << xb[(i, b)]
            vecs.append(out)
        return _rank_f2(vecs)

    mults = {}
    for a in range(1, n + 1):
        for b in range(a, n + 1):
            mult = path_rank(a, b) - path_rank(a - 1, b) - path_rank(a, b + 1) + path_rank(a - 1, b + 1)
            if mult:
                mults[(a, b)] = mult
    return onto, mults


def test_search_rules_match_full_matrix_reference():
    # Rule (b): surjectivity from the rank on tops equals full rank.
    # Rule (c): per-vertex kernel multiplicities equal the all-path-rank
    # inclusion-exclusion, for every map, onto or not.
    rng = random.Random(20261018)
    algebras = [A for n in range(2, 6) for A in all_linear_algebras(n)]
    onto_seen = 0
    for _ in range(1500):
        A = rng.choice(algebras)
        wins = [(u.top_vertex, u.top_vertex + u.length - 1) for u in indecomposables(A)]
        X = sorted(rng.choice(wins) for _ in range(rng.randint(1, 4)))
        # quotient windows mostly start at a top of X, so that onto maps occur
        tops = [w for w in wins if any(w[0] == a for a, _ in X)]
        Vc = tuple(sorted(rng.choice(tops if rng.random() < 0.8 else wins) for _ in range(rng.randint(1, 4))))
        pairs = [(i, j) for i, (a, b) in enumerate(X) for j, (c, d) in enumerate(Vc) if c <= a <= d <= b]
        chosen = tuple(p for p in pairs if rng.random() < 0.6)
        onto, mults = _reference_onto_and_kernel(A.n, X, Vc, chosen)
        assert _onto(X, Vc, chosen) == onto, (A.kupisch, X, Vc, chosen)
        assert dict(_kernel_windows(X, Vc, chosen)) == mults, (A.kupisch, X, Vc, chosen)
        onto_seen += onto
    assert onto_seen >= 200


# ---------------------------------------------------------------------------
# levels and generation time
# ---------------------------------------------------------------------------


def test_bracket_levels(linear):
    A = linear(4)
    S = simples_set(A)
    assert bracket_n(A, S, 0) == IndecSet.empty(A)
    assert bracket_n(A, S, 1) == S
    two = bracket_n(A, S, 2)
    assert set(two.members()) == set(S.members()) | {
        Uniserial(1, 2),
        Uniserial(2, 2),
        Uniserial(3, 2),
    }
    assert bracket_n(A, S, 4).is_full
    with pytest.raises(InputError):
        bracket_n(A, S, -1)


def test_generation_time_values(linear):
    assert generation_time(linear(3), simples_set(linear(3))) == 2
    assert generation_time(linear(4), simples_set(linear(4))) == 3
    assert generation_time(linear(4), IndecSet.full(linear(4))) == 0


def test_generation_time_infinite(linear):
    A = linear(2)
    assert generation_time(A, IndecSet.of(A, [projective(A, 1)])) is INFINITE


def test_strong_generator_checks(linear):
    A = linear(4)
    assert is_strong_generator(A, simples_set(A))
    assert is_strong_generator(A, IndecSet.full(A))
    assert not is_strong_generator(A, IndecSet.of(A, [projective(A, 1)]))
    assert not is_strong_generator(A, IndecSet.empty(A))


def test_wd_generation_times_follow_ceiling_formula(linear):
    # W_d (everything of layer length <= d) generates in ceil(L/d) - 1 steps.
    for n in (4, 5):
        A = linear(n)
        spec = TorsionSpec.of(A, ())
        for d in range(1, n):
            W = wd_generator(A, spec, d)
            assert generation_time(A, W) == -(-n // d) - 1


# ---------------------------------------------------------------------------
# spectrum enumeration
# ---------------------------------------------------------------------------


def test_orlov_spectrum_small_line(linear):
    A = linear(3)
    result = orlov_spectrum(A)
    assert result.spectrum == frozenset({0, 1, 2})
    assert result.ext_dim == 0 and result.u_dim == 2
    assert set(result.witnesses) == set(result.spectrum)
    for t, witness in result.witnesses.items():
        assert generation_time(A, IndecSet.of(A, witness.summands)) == t


def test_orlov_spectrum_refuses_large_input(linear):
    with pytest.raises(RefusalError):
        orlov_spectrum(linear(6))


def test_orlov_spectrum_parallel_matches_serial(linear):
    A = linear(5)
    serial = orlov_spectrum(A)
    parallel = orlov_spectrum(A, jobs=3)
    assert parallel.spectrum == serial.spectrum == frozenset(range(5))
    assert parallel.witnesses == serial.witnesses


# ---------------------------------------------------------------------------
# closure-calculus lemmas
# ---------------------------------------------------------------------------


def test_subset_lemmas_exhaustive_on_a3(linear):
    assert verify_subset_lemmas(linear(3)) == []


def test_subset_lemmas_sampled_on_a4(linear):
    assert verify_subset_lemmas(linear(4), samples=40, seed=7) == []
