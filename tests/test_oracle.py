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
    _ext_pair_structure,
    _interval_hom_counts,
    _multisets,
    decompose,
    ext_dim_oracle,
    gf2_nullspace,
    gf2_rank,
    hom_space_dim,
    mat_mul,
    middle_summand_union,
    to_matrep,
    validate_matrep,
)
import orlov_kit.oracle as oracle
from orlov_kit.closure import star_mask

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


def test_middle_terms_refuses_a_non_integer_cap(linear):
    A = linear(4)
    V, U = ModuleSum.of(Uniserial(1, 1)), ModuleSum.of(Uniserial(2, 1))
    for cap in (2.5, 10.0, True, None):
        with pytest.raises(InputError):
            middle_terms(A, V, U, cap=cap)
        with pytest.raises(InputError):
            middle_summand_union(A, V, U, cap)


def test_middle_terms_refuses_an_end_of_another_type(linear):
    A = linear(3)
    good = ModuleSum.of(Uniserial(2, 1))
    for bad in ([Uniserial(1, 1)], "1-1", None):
        for V, U in ((bad, good), (good, bad)):
            with pytest.raises(InputError):
                middle_terms(A, V, U)
            with pytest.raises(InputError):
                middle_summand_union(A, V, U, 12)
    # a bare uniserial end is read as a one-summand module
    assert middle_terms(A, Uniserial(1, 1), Uniserial(2, 1)) == middle_terms(
        A, ModuleSum.of(Uniserial(1, 1)), good
    )


def test_middle_terms_invalid_end_beats_cap(linear):
    # An end that is not a module of A is an input error even when the pair
    # is also over the cap: validation runs before the refusal.
    A = linear(4)
    bad = Uniserial(2, 4)  # P(2) has length 3
    big = ModuleSum.of(Uniserial(1, 4), Uniserial(1, 4), Uniserial(1, 4))
    for V, U in ((ModuleSum.of(bad), big), (big, ModuleSum.of(bad))):
        with pytest.raises(InputError):
            middle_terms(A, V, U, cap=4)
    with pytest.raises(RefusalError):
        middle_terms(A, big, ModuleSum.of(Uniserial(2, 3)), cap=4)


def test_middle_terms_validates_each_end_once(linear, monkeypatch):
    import orlov_kit.nakayama as nakayama

    A = linear(4)
    V = ModuleSum.of(Uniserial(1, 2), Uniserial(2, 1))
    U = ModuleSum.of(Uniserial(3, 2), Uniserial(3, 1), Uniserial(2, 1))
    middle_terms(A, V, U)  # fills the per-uniserial ext caches
    seen = []
    original = nakayama.validate_uniserial

    def counting(B, u):
        seen.append(u)
        return original(B, u)

    monkeypatch.setattr(nakayama, "validate_uniserial", counting)
    middle_terms(A, V, U)
    assert sorted(seen) == sorted(V.summands + U.summands)


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


def _equal_summand_perms(M: ModuleSum):
    """Every permutation of M's summand positions that fixes the summands."""
    n = len(M.summands)
    return [
        p
        for p in itertools.permutations(range(n))
        if all(M.summands[p[i]] == M.summands[i] for i in range(n))
    ]


def _pattern_orbits(V: ModuleSum, U: ModuleSum, pairs) -> list[list[int]]:
    """Bit patterns over ``pairs`` grouped into orbits under the full group
    of permutations of equal summands on either side (reference for the
    orbit rule of ``middle_terms``)."""
    index = {(i, j): idx for idx, (i, j, _) in enumerate(pairs)}
    images = [
        [index[pv[i], pu[j]] for i, j, _ in pairs]
        for pv in _equal_summand_perms(V)
        for pu in _equal_summand_perms(U)
    ]
    seen: set[int] = set()
    orbits: list[list[int]] = []
    for bits in range(1 << len(pairs)):
        if bits in seen:
            continue
        orbit = {sum(1 << perm[idx] for idx in range(len(pairs)) if bits >> idx & 1) for perm in images}
        seen |= orbit
        orbits.append(sorted(orbit))
    return orbits


def _touched_runs_independent(V: ModuleSum, U: ModuleSum, pairs, bits: int) -> bool:
    """Whether a pattern's rows on every run of equal V summands and its
    columns on every run of equal U summands, over the copies it touches,
    are linearly independent over GF(2) (reference for the rank rule of
    ``middle_terms``, read from the pairs alone)."""
    rows: dict[int, int] = {}  # V position -> its row over the U positions
    cols: dict[int, int] = {}  # U position -> its column over the V positions
    for idx, (i, j, _) in enumerate(pairs):
        if bits >> idx & 1:
            rows[i] = rows.get(i, 0) | 1 << j
            cols[j] = cols.get(j, 0) | 1 << i
    for summands, vectors in ((V.summands, rows), (U.summands, cols)):
        runs: dict[Uniserial, list[int]] = {}
        for pos, vec in vectors.items():
            runs.setdefault(summands[pos], []).append(vec)
        if any(gf2_rank(run) < len(run) for run in runs.values()):
            return False
    return True


def test_middle_terms_dedup_matches_every_pattern(linear, monkeypatch):
    # middle_terms decomposes one pattern per orbit under permutations of
    # equal summands, and only patterns whose touched runs are independent.
    # On a seeded sample of sweep pairs with at least two ext pairs,
    # decompose every bit pattern: patterns in one orbit must share their
    # middle and their independence, middle_terms must return exactly the
    # middles of all patterns, and it must call decompose once per nonzero
    # orbit whose touched runs are independent.
    rng = random.Random(9)
    merged = skipped = 0
    calls = []
    original = oracle.decompose

    def counting(X):
        calls.append(X)
        return original(X)

    monkeypatch.setattr(oracle, "decompose", counting)
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
            orbits = _pattern_orbits(V, U, pairs)
            middles = []
            independent = 0
            for orbit in orbits:
                found = {original(_build_middle(Urep, Vrep, pairs, bits)) for bits in orbit}
                assert len(found) == 1, (A.kupisch, V, U, orbit)
                middles.append(found.pop())
                ranks = {_touched_runs_independent(V, U, pairs, bits) for bits in orbit}
                assert len(ranks) == 1, (A.kupisch, V, U, orbit)
                independent += orbit != [0] and ranks.pop()
            oracle._touching_table.cache_clear()  # count on a cold table
            calls.clear()
            assert middle_terms(A, V, U) == frozenset(middles), (A.kupisch, V, U)
            assert len(calls) == independent, (A.kupisch, V, U)
            merged += len(orbits) < 1 << len(pairs)
            skipped += independent < len(orbits) - 1
    assert merged > 0 and skipped > 0  # both rules cut patterns on this sample


def test_middle_terms_decomposes_each_orbit_once(linear, monkeypatch):
    # V = S1 + S1, U = S2 + S2 + M[2,3]: six ext pairs, 63 nonzero patterns
    # in 23 orbits under the group of order 4, of which 13 have independent
    # touched runs.
    A = linear(3)
    V = ModuleSum.of(Uniserial(1, 1), Uniserial(1, 1))
    U = ModuleSum.of(Uniserial(2, 1), Uniserial(2, 1), Uniserial(2, 2))
    Urep, Vrep, pairs = _ext_pair_structure(A, V, U)
    orbits = _pattern_orbits(V, U, pairs)
    assert len(orbits) - 1 == 23
    assert sum(_touched_runs_independent(V, U, pairs, orbit[0]) for orbit in orbits[1:]) == 13
    calls = []
    original = oracle.decompose

    def counting(X):
        calls.append(X)
        return original(X)

    monkeypatch.setattr(oracle, "decompose", counting)
    oracle._touching_table.cache_clear()  # count on a cold table
    middles = middle_terms(A, V, U)
    assert len(calls) == 13
    assert len(middles) == 5


def test_middle_terms_split_off_rule(linear, linear3_ab):
    # A pattern whose touched runs are independent has as middle its
    # untouched summands plus a middle of the sub-pair it touches, as
    # ``_touching_middles`` lists them; any other pattern's middle is still
    # one of ``middle_terms``, by the rank rule.  Checked by decomposing
    # each pattern of a seeded sample of sweep pairs directly.
    rng = random.Random(21)
    for A in (linear(3), linear3_ab, linear(4)):
        modules = list(_multisets(A, 2, 2, 10))
        sampled = dependent = 0
        while sampled < 40:
            V, U = rng.choice(modules), rng.choice(modules)
            if V.dim + U.dim > 10:
                continue
            Urep, Vrep, pairs = _ext_pair_structure(A, V, U)
            if not pairs:
                continue
            sampled += 1
            every = middle_terms(A, V, U)
            patterns = range(1, 1 << len(pairs))
            for bits in rng.sample(patterns, min(len(patterns), 64)):
                got = decompose(_build_middle(Urep, Vrep, pairs, bits))
                if not _touched_runs_independent(V, U, pairs, bits):
                    dependent += 1
                    assert got in every, (A.kupisch, V, U, bits)
                    continue
                touched_v = {i for idx, (i, _, _) in enumerate(pairs) if bits >> idx & 1}
                touched_u = {j for idx, (_, j, _) in enumerate(pairs) if bits >> idx & 1}
                rest = [v for i, v in enumerate(V.summands) if i not in touched_v]
                rest += [u for j, u in enumerate(U.summands) if j not in touched_u]
                V1 = ModuleSum.from_iterable(V.summands[i] for i in touched_v)
                U1 = ModuleSum.from_iterable(U.summands[j] for j in touched_u)
                want = {ModuleSum.from_iterable(rest + list(M))
                        for M in oracle._touching_middles(A, V1, U1)}
                assert got in want, (A.kupisch, V, U, bits)
        assert dependent > 0, A.kupisch


def test_rank_rule_matches_every_pattern(linear, monkeypatch):
    # The rank rule decomposes only patterns whose touched runs are
    # independent.  On every coupled sub-pair that a sweep decomposes, the
    # middles of all its bit patterns, each decomposed, must be exactly
    # middle_terms.  linear3 at max_mult=3 has runs of three equal
    # summands, where distinct rows can still be dependent (a, b, a + b);
    # its cap is 8, where 96 of the 202 pairs hold such a run, since cap 10
    # has ten times the patterns (223,782).
    coupled = []
    original = oracle._touching_middles

    def recording(A, V, U):
        coupled.append((V, U))
        return original(A, V, U)

    monkeypatch.setattr(oracle, "_touching_middles", recording)
    for A, max_mult, cap in ((linear(3), 3, 8), (linear(4), 2, 10)):
        oracle._touching_table.cache_clear()
        coupled.clear()
        verify_star_sweep(A, cap=cap, max_mult=max_mult, max_support=2)
        swept = list(coupled)
        if max_mult == 3:
            assert any(3 in map(M.summands.count, M.summands) for pair in swept for M in pair)
        for V, U in swept:
            Urep, Vrep, pairs = _ext_pair_structure(A, V, U)
            every = {decompose(_build_middle(Urep, Vrep, pairs, bits)) for bits in range(1 << len(pairs))}
            assert middle_terms(A, V, U, cap) == every, (A.kupisch, V, U)


def test_outnumbered_run_builds_nothing(linear, monkeypatch):
    # V = S1 + S1 against U = S2: two rows in a one-dimensional space are
    # dependent in every pattern, so the pair's entry is empty and only the
    # sub-pair (S1, S2) builds representations; its class still gives the
    # middle M[1,2] + S1 of (V, U).
    A = linear(3)
    s1, s2 = Uniserial(1, 1), Uniserial(2, 1)
    V, U = ModuleSum.of(s1, s1), ModuleSum.of(s2)
    oracle._ext_rows(A)  # the ext table builds each uniserial's representation once
    calls = []
    original = oracle._matrep

    def counting(B, M):
        calls.append(M)
        return original(B, M)

    monkeypatch.setattr(oracle, "_matrep", counting)
    oracle._touching_table.cache_clear()
    assert middle_terms(A, V, U) == frozenset({U + V, ModuleSum.of(Uniserial(1, 2), s1)})
    assert sorted(M.summands for M in calls) == [(s1,), (s2,)]
    assert sorted(oracle._touching_table(A).values()) == [((), 0), (((Uniserial(1, 2),),), 1 << 1)]


def test_middle_terms_reuses_coupled_sub_pairs(linear, monkeypatch):
    # W = S4 is projective on the line, so it has no ext against U and is
    # split off every class of (V + W, U): each coupled sub-pair of that
    # pair is one of (V, U), and the first call decomposed them all.
    A = linear(4)
    V = ModuleSum.of(Uniserial(1, 1), Uniserial(1, 2))
    U = ModuleSum.of(Uniserial(2, 1), Uniserial(3, 1), Uniserial(2, 2))
    W = ModuleSum.of(Uniserial(4, 1))
    assert not any(oracle._pair_ext_generators(A, w, u) for w in W.summands for u in U.summands)
    calls = []
    original = oracle.decompose

    def counting(X):
        calls.append(X)
        return original(X)

    monkeypatch.setattr(oracle, "decompose", counting)
    oracle._touching_table.cache_clear()
    first = middle_terms(A, V, U)
    assert calls
    calls.clear()
    assert middle_terms(A, V + W, U) == frozenset(X + W for X in first)
    assert calls == []


def test_star_matches_oracle_middles_along_generation_time(linear, linear3_ab):
    # Every (T, [T]_k) pair that generation_time evaluates, over every T:
    # star_mask(T, [T]_k) must be the union of middle summands over the
    # multiplicity-free ends U in add(T), V in add([T]_k) with
    # dim U + dim V <= 10.  The hull gap of these pairs holds 4 bits, all
    # on linear3_ab and all refuted, so a star that realized every gap bit
    # fails here.  linear4 is left out: the same check had not finished
    # after 300 s there.
    for A, count in ((linear(3), 84), (linear3_ab, 34)):
        indecs = indecomposables(A)
        full = (1 << len(indecs)) - 1

        def ends(mask):
            members = [u for k, u in enumerate(indecs) if mask >> k & 1]
            return [ModuleSum.from_iterable(c)
                    for r in range(1, len(members) + 1) for c in itertools.combinations(members, r)]

        unions: dict = {}
        checked = 0
        for T in range(1, full + 1):
            cur = T
            while cur != full:
                nxt = star_mask(A, T, cur)
                got = 0
                for U in ends(T):
                    for V in ends(cur):
                        if U.dim + V.dim > 10:
                            continue
                        if (V, U) not in unions:
                            unions[V, U] = middle_summand_union(A, V, U, 10)
                        got |= unions[V, U]
                assert got == nxt, (A.kupisch, T, cur)
                checked += 1
                if nxt == cur:
                    break
                cur = nxt
        assert checked == count


def test_middle_terms_builds_nothing_without_ext(linear, monkeypatch):
    A = linear(4)
    V = ModuleSum.of(Uniserial(2, 1))
    U = ModuleSum.of(Uniserial(1, 1))
    oracle._ext_rows(A)  # the ext table builds each uniserial's representation once
    calls = []
    original = oracle._matrep

    def counting(B, M):
        calls.append(M)
        return original(B, M)

    monkeypatch.setattr(oracle, "_matrep", counting)
    assert middle_terms(A, V, U) == frozenset({U + V})
    assert calls == []


def test_middle_summand_union_is_the_union_of_middle_terms(linear, linear3_ab):
    # The union rule reads a pair's summands off supp V, supp U and the
    # touching masks of its coupled sub-pairs; the reference is the union
    # of the summands of every middle ``middle_terms`` lists.  Every cap-10
    # sweep pair of linear3 and linear3_ab, and a seeded sample of linear4's.
    rng = random.Random(15)
    oracle._touching_table.cache_clear()  # build every mask in this test
    for A, sample in ((linear(3), None), (linear3_ab, None), (linear(4), 1500)):
        index = {u: k for k, u in enumerate(indecomposables(A))}
        modules = list(_multisets(A, 2, 2, 10))
        pairs = [(V, U) for V in modules for U in modules if V.dim + U.dim <= 10]
        if sample:
            pairs = rng.sample(pairs, sample)
        for V, U in pairs:
            want = 0
            for X in middle_terms(A, V, U, 10):
                for u in X.summands:
                    want |= 1 << index[u]
            assert middle_summand_union(A, V, U, 10) == want, (A.kupisch, V, U)


def _interval_hom_count_reference(A, I, X) -> int:
    """dim Hom(M_[a,b], X) from one path product per interval (reference
    for ``_interval_hom_counts``)."""
    a = I.top_vertex
    b = a + I.length - 1
    if b == A.n:
        return X.dims[a - 1]
    prod = X.arrows[a - 1]
    for v in range(a + 1, b + 1):
        prod = mat_mul(prod, X.arrows[v - 1])
    return X.dims[a - 1] - gf2_rank(prod)


def test_interval_hom_counts_match_reference(linear, linear3_ab):
    def check(A, X):
        want = [_interval_hom_count_reference(A, I, X) for I in indecomposables(A)]
        assert _interval_hom_counts(X) == want, (A.kupisch, X)

    algebras = [A for n in range(1, 6) for A in all_linear_algebras(n)]
    assert linear3_ab in algebras
    for A in algebras:
        for u in indecomposables(A):
            check(A, to_matrep(A, u))
    # middles of a seeded sample of sweep pairs, one random class each
    rng = random.Random(13)
    for A in (linear(3), linear3_ab, linear(4)):
        modules = list(_multisets(A, 2, 2, 10))
        sampled = 0
        while sampled < 60:
            V, U = rng.choice(modules), rng.choice(modules)
            if V.dim + U.dim > 10:
                continue
            Urep, Vrep, pairs = _ext_pair_structure(A, V, U)
            if not pairs:
                continue
            sampled += 1
            check(A, _build_middle(Urep, Vrep, pairs, rng.randrange(1 << len(pairs))))


# ---------------------------------------------------------------------------
# sweep and report
# ---------------------------------------------------------------------------


def test_star_sweep_small(linear):
    report = verify_star_sweep(linear(3), cap=10, max_mult=2, max_support=2)
    assert report["mismatches"] == []
    assert (report["pairs_checked"], report["support_pairs"]) == (3574, 441)


def test_star_sweep_support_three(linear, linear3_ab):
    # Sides of three summands reach gap bits that the support-2 sweeps never
    # build, so star's hom-support refutations meet the oracle here too.
    for A, counts in ((linear(3), (12569, 1500)), (linear3_ab, (8089, 625)), (linear(4), (94084, 15195))):
        report = verify_star_sweep(A, cap=10, max_mult=2, max_support=3)
        assert report["mismatches"] == [], (A.kupisch, report["mismatches"])
        assert (report["pairs_checked"], report["support_pairs"]) == counts


def _every_pair_unions(A, cap, max_mult, max_support) -> dict:
    """(supp V, supp U) -> the OR of ``middle_summand_union`` over every
    sweep pair of the group: the sweep loop before the domination rule."""
    modules = list(_multisets(A, max_support, max_mult, cap))
    unions = {}
    for V in modules:
        for U in modules:
            if V.dim + U.dim <= cap:
                key = oracle._summand_mask(A, V.summands), oracle._summand_mask(A, U.summands)
                unions[key] = unions.get(key, 0) | middle_summand_union(A, V, U, cap)
    return unions


def test_sweep_maximal_pairs_give_every_group_union(linear, linear3_ab, monkeypatch):
    # The sweep calls middle_summand_union on the cap-maximal pairs of each
    # support group only (the domination rule).  The OR of those calls per
    # group must be the OR over every pair of the group, and the sweep must
    # fill _touching_table with the coupled sub-pairs of every pair.
    calls = []
    original = oracle.middle_summand_union

    def recording(A, V, U, cap):
        union = original(A, V, U, cap)
        calls.append((V, U, union))
        return union

    cases = ((linear(3), {"cap": 12, "max_mult": 3}, 2536), (linear3_ab, {"cap": 10, "max_support": 3}, 2384),
             (linear(4), {"cap": 10}, 5470))
    for A, kwargs, union_calls in cases:
        bounds = {"max_mult": 2, "max_support": 2, **kwargs}
        oracle._touching_table.cache_clear()
        calls.clear()
        monkeypatch.setattr(oracle, "middle_summand_union", recording)
        report = verify_star_sweep(A, **bounds)
        monkeypatch.undo()
        swept_keys = set(oracle._touching_table(A))
        got = {}
        for V, U, union in calls:
            key = oracle._summand_mask(A, V.summands), oracle._summand_mask(A, U.summands)
            got[key] = got.get(key, 0) | union
        # every pair's coupled sub-pairs are in the table already: the
        # reference adds none (and the sweep's pairs are among its own)
        want = _every_pair_unions(A, **bounds)
        assert got == want, (A.kupisch, bounds)
        assert set(oracle._touching_table(A)) == swept_keys
        assert (len(calls), report["support_pairs"]) == (union_calls, len(want))


def test_sweep_decomposes_each_coupled_pair_once(linear, linear3_ab, monkeypatch):
    # One ``_touching_table`` entry per fully coupled sub-pair of the
    # sweep's pairs, and nothing else, each built by one
    # ``_touching_middles`` call.
    calls = []
    original = oracle._touching_middles

    def counting(A, V, U):
        calls.append((V, U))
        return original(A, V, U)

    monkeypatch.setattr(oracle, "_touching_middles", counting)
    for A, entries in ((linear(3), 139), (linear3_ab, 24)):
        oracle._touching_table.cache_clear()
        calls.clear()
        verify_star_sweep(A, cap=10, max_mult=2, max_support=2)
        assert len(oracle._touching_table(A)) == entries
        assert len(calls) == len(set(calls)) == entries


def test_vacuous_sweeps_are_input_errors(linear):
    # cap < 2 leaves no sweep pair, and max_mult or max_support < 1 no
    # module: each would check nothing and report a pass.
    A = linear(3)
    bad = ({"cap": 1}, {"cap": 0}, {"cap": -3}, {"max_mult": 0}, {"max_support": 0}, {"max_mult": -1},
           {"cap": 10.0}, {"max_mult": True})
    for kwargs in bad:
        with pytest.raises(InputError):
            verify_star_sweep(A, **kwargs)
    for cap in (1, 0, -3):
        with pytest.raises(InputError):
            oracle_report(A, cap=cap)
    for max_support in (0, -1, 2.0, True):
        with pytest.raises(InputError):
            oracle_report(A, max_support=max_support)


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
