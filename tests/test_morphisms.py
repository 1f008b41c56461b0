"""Morphism calculus: composition, ghosts/coghosts, chains, approximations."""

from __future__ import annotations

import random

import pytest

from orlov_kit import (
    IndecSet,
    InputError,
    ModuleSum,
    Uniserial,
    bracket_n,
    coghost_chain_exists,
    coghost_lemma_check,
    compose,
    fac_closure,
    find_coghost_chain,
    ghost_chain_exists,
    hom_dim,
    indecomposables,
    irreducible_coghosts,
    is_coghost,
    is_ghost,
    left_approximation,
    morphism,
    projective,
    radical_nilpotence_check,
    simple,
    sub_closure,
    tm_generator,
)
from conftest import all_linear_algebras
from orlov_kit import morphisms
from orlov_kit.closure import _bits, _union
from orlov_kit.homext import ARArrow, interval_end
from orlov_kit.morphisms import (
    Morphism,
    approximation_kernel,
    arrow_morphism,
    basis_morphism,
    identity_morphism,
    is_radical_morphism,
    zero_morphism,
)

from conftest import all_linear_algebras


def simples_set(A) -> IndecSet:
    return IndecSet.of(A, (simple(A, i) for i in range(1, A.n + 1)))


# ---------------------------------------------------------------------------
# construction and composition
# ---------------------------------------------------------------------------


def test_morphism_requires_hom_support(linear):
    A = linear(4)
    with pytest.raises(InputError):
        morphism(
            A,
            ModuleSum.of(Uniserial(1, 2)),
            ModuleSum.of(Uniserial(3, 1)),
            {(0, 0): 1},
        )
    assert zero_morphism(A, ModuleSum.of(Uniserial(1, 2)), ModuleSum.of(simple(A, 1))).is_zero
    assert not identity_morphism(A, ModuleSum.of(Uniserial(1, 2), simple(A, 3))).is_zero
    # coefficients are integers: fractional, boolean and string scalars are refused
    for bad in (0.5, 1.0, True, "1"):
        with pytest.raises(InputError):
            morphism(A, ModuleSum.of(Uniserial(1, 2)), ModuleSum.of(simple(A, 1)), {(0, 0): bad})
    # keys are in-range (source, target) index pairs: a negative index would
    # wrap onto the last summand, where this hom exists
    for key in ((-1, 0), (0, -1), (1, 0), (5, 0), (0, 1), (0,), (0, 0, 0), (True, 0), (0, 0.0), "ab"):
        with pytest.raises(InputError):
            morphism(A, ModuleSum.of(Uniserial(1, 2)), ModuleSum.of(simple(A, 1)), {key: 1})


def test_compose_endpoint_rule(linear):
    A = linear(4)
    f = basis_morphism(A, Uniserial(2, 3), Uniserial(1, 3))
    g = basis_morphism(A, Uniserial(1, 3), Uniserial(1, 2))
    assert compose(g, f).entry(0, 0) == 1  # top 2 stays inside [1,2]

    f0 = basis_morphism(A, Uniserial(3, 2), Uniserial(1, 3))
    assert compose(g, f0).is_zero  # top 3 falls off [1,2]


def test_compose_scales_and_cancels(linear):
    A = linear(4)
    f = basis_morphism(A, Uniserial(2, 3), Uniserial(1, 3), scalar=2)
    g = basis_morphism(A, Uniserial(1, 3), Uniserial(1, 2), scalar=3)
    assert compose(g, f).entry(0, 0) == 6

    # two parallel routes with opposite signs cancel in the matrix sum
    X = ModuleSum.of(Uniserial(2, 3))
    Y = ModuleSum.of(Uniserial(1, 3), Uniserial(1, 3))
    Z = ModuleSum.of(Uniserial(1, 2))
    through = morphism(A, X, Y, {(0, 0): 1, (0, 1): -1})
    collect = morphism(A, Y, Z, {(0, 0): 1, (1, 0): 1})
    assert compose(collect, through).is_zero


def test_compose_shape_mismatch(linear):
    A = linear(3)
    f = basis_morphism(A, Uniserial(1, 2), Uniserial(1, 1))
    with pytest.raises(InputError):
        compose(f, f)


def _window(u: Uniserial) -> tuple[int, int]:
    return u.top_vertex, u.top_vertex + u.length - 1


def _has_hom(x: Uniserial, y: Uniserial) -> bool:
    (a, b), (c, d) = _window(x), _window(y)
    return c <= a <= d <= b


def _vertex_matrices(f: Morphism, n: int) -> dict:
    """f as a map of representations: vertex v -> the matrix of f at v, rows
    by target summand, columns by source summand.  A basis map [a,b] -> [c,d]
    is the identity at each vertex of the overlap and zero elsewhere."""

    def in_overlap(v, x, y):
        (a, b), (c, d) = _window(x), _window(y)
        return max(a, c) <= v <= min(b, d)

    return {
        v: [
            [f.entry(s, t) if in_overlap(v, x, y) else 0 for s, x in enumerate(f.source)]
            for t, y in enumerate(f.target)
        ]
        for v in range(1, n + 1)
    }


def _reference_compose(g: Morphism, f: Morphism, n: int) -> tuple[dict, tuple]:
    """g after f, vertex by vertex as matrix products, and the coefficients
    read back at each source's top vertex (zero off the hom support)."""
    fv, gv = _vertex_matrices(f, n), _vertex_matrices(g, n)
    product = {
        v: [
            [sum(gv[v][u][t] * fv[v][t][s] for t in range(len(f.target))) for s in range(len(f.source))]
            for u in range(len(g.target))
        ]
        for v in fv
    }
    coefficients = tuple(
        tuple(product[x.top_vertex][u][s] if _has_hom(x, z) else 0 for u, z in enumerate(g.target))
        for s, x in enumerate(f.source)
    )
    return product, coefficients


def _assert_compose_matches_reference(g: Morphism, f: Morphism, n: int) -> None:
    product, coefficients = _reference_compose(g, f, n)
    h = compose(g, f)
    assert (h.source, h.target) == (f.source, g.target)
    assert h.coefficients == coefficients, (f, g)
    assert _vertex_matrices(h, n) == product, (f, g)


def test_compose_matches_vertex_matrices_on_every_basis_pair():
    pairs = 0
    for n in range(1, 6):
        for A in all_linear_algebras(n):
            indecs = indecomposables(A)
            for x in indecs:
                for y in (y for y in indecs if _has_hom(x, y)):
                    f = basis_morphism(A, x, y)
                    for z in (z for z in indecs if _has_hom(y, z)):
                        _assert_compose_matches_reference(basis_morphism(A, y, z), f, n)
                        pairs += 1
    assert pairs > 0


def test_compose_matches_vertex_matrices_on_seeded_sums():
    rng = random.Random(20261020)
    cancelled = 0
    for n in (3, 4, 5):
        for A in all_linear_algebras(n):
            indecs = indecomposables(A)

            def draw_sum():
                return ModuleSum.from_iterable(rng.choice(indecs) for _ in range(rng.randint(1, 3)))

            def draw_map(X, Y):
                entries = {
                    (s, t): rng.choice((-2, -1, 1, 2))
                    for s, x in enumerate(X)
                    for t, y in enumerate(Y)
                    if _has_hom(x, y) and rng.random() < 0.8
                }
                return morphism(A, X, Y, entries)

            for _ in range(40):
                X, Y, Z = draw_sum(), draw_sum(), draw_sum()
                f, g = draw_map(X, Y), draw_map(Y, Z)
                _assert_compose_matches_reference(g, f, n)
                h = compose(g, f)
                # an entry whose vertex-wise terms are nonzero but sum to 0
                cancelled += sum(
                    not h.entry(s, u)
                    and any(
                        f.entry(s, t) * g.entry(t, u) and _has_hom(x, z)
                        for t in range(len(Y))
                    )
                    for s, x in enumerate(X)
                    for u, z in enumerate(Z)
                )
    assert cancelled > 0


def test_radical_morphism_predicate(linear):
    A = linear(4)
    assert is_radical_morphism(basis_morphism(A, Uniserial(2, 3), Uniserial(1, 3)))
    assert not is_radical_morphism(identity_morphism(A, ModuleSum.of(simple(A, 2))))


# ---------------------------------------------------------------------------
# ghost / coghost predicates
# ---------------------------------------------------------------------------


def test_is_coghost_examples(linear):
    A = linear(4)
    T = IndecSet.of(A, [simple(A, 1)])
    # the quotient [1,2] ->> S(1) is detected by Hom(-, S(1))
    assert not is_coghost(A, basis_morphism(A, Uniserial(1, 2), simple(A, 1)), T)
    # [2,4] -> [1,3] : nothing maps from the source to S(1)
    assert is_coghost(A, basis_morphism(A, Uniserial(2, 3), Uniserial(1, 3)), T)
    assert is_coghost(A, basis_morphism(A, Uniserial(1, 2), simple(A, 1)), IndecSet.empty(A))


def test_is_ghost_examples(linear):
    A = linear(4)
    f = basis_morphism(A, Uniserial(1, 2), simple(A, 1))
    assert is_ghost(A, f, IndecSet.of(A, [simple(A, 1)]))  # nothing from S(1) into [1,2]
    assert not is_ghost(A, f, IndecSet.of(A, [Uniserial(1, 2)]))  # identity precompose


def test_coghosts_form_an_ideal(linear):
    A = linear(4)
    indecs = indecomposables(A)
    rng = random.Random(20260814)
    full = (1 << len(indecs)) - 1
    basis_pairs = [
        (x, y) for x in indecs for y in indecs if hom_dim(A, x, y)
    ]
    checked = 0
    for _ in range(2000):
        x, y = basis_pairs[rng.randrange(len(basis_pairs))]
        g = basis_morphism(A, x, y)
        T = IndecSet(A, rng.randrange(1, full + 1))
        if not is_coghost(A, g, T):
            continue
        checked += 1
        befores = [w for w in indecs if hom_dim(A, w, x)]
        afters = [z for z in indecs if hom_dim(A, y, z)]
        f = basis_morphism(A, befores[rng.randrange(len(befores))], x)
        h = basis_morphism(A, y, afters[rng.randrange(len(afters))])
        assert is_coghost(A, compose(g, f), T)
        assert is_coghost(A, compose(h, g), T)
    assert checked >= 50  # the sample must actually exercise the property


# ---------------------------------------------------------------------------
# T_m and its irreducible coghosts
# ---------------------------------------------------------------------------


def test_tm_generator_members(linear):
    assert len(tm_generator(linear(4), 2)) == 5
    assert len(tm_generator(linear(2), 1)) == 2
    assert len(tm_generator(linear(5), 4)) == 8
    members = set(tm_generator(linear(4), 2).members())
    assert members == {
        Uniserial(1, 1),
        Uniserial(1, 2),
        Uniserial(2, 1),
        Uniserial(3, 1),
        Uniserial(4, 1),
    }
    for bad in (0, 4, True, 2.0, 1.5):
        with pytest.raises(InputError):
            tm_generator(linear(4), bad)
    # T_m's bits come from Kupisch prefix sums; the reference indexes every
    # indecomposable.  Relations with c_1 < m refuse the interval (1, m).
    for n in range(2, 7):
        for A in all_linear_algebras(n):
            for m in range(1, n):
                if m > A.c(1):
                    with pytest.raises(InputError):
                        tm_generator(A, m)
                    continue
                members = morphisms.tm_members(A, m)
                assert list(members) == sorted(members, key=lambda u: (u.top_vertex, u.length))
                assert tm_generator(A, m) == IndecSet.of(A, members)
                assert set(members) == {Uniserial(1, j) for j in range(1, m + 1)} | {simple(A, i) for i in range(1, n + 1)}


def test_coghost_predicates_validate_a_hand_built_morphism(linear):
    # each end is validated once, up front, before hom is read unchecked:
    # M[1,5] is no module over linear4, on either end and for every T
    A = linear(4)
    good, bad = ModuleSum.of(simple(A, 1)), ModuleSum.of(Uniserial(1, 5))
    for source, target in ((bad, good), (good, bad)):
        f = Morphism(source, target, ((1,),))
        for T in (IndecSet.full(A), simples_set(A), IndecSet.empty(A)):
            for predicate in (is_coghost, is_ghost):
                with pytest.raises(InputError):
                    predicate(A, f, T)


def test_irreducible_coghosts_examples(linear):
    A = linear(2)
    assert irreducible_coghosts(A, tm_generator(A, 1)) == (ARArrow("+", 2, 2),)
    assert irreducible_coghosts(A, IndecSet.full(A)) == ()


# ---------------------------------------------------------------------------
# chain searches
# ---------------------------------------------------------------------------


def test_chain_search_matches_witness_finder(linear):
    A = linear(4)
    indecs = indecomposables(A)
    rng = random.Random(5)
    full = (1 << len(indecs)) - 1
    for _ in range(120):
        T = IndecSet(A, rng.randrange(1, full + 1))
        Y = indecs[rng.randrange(len(indecs))]
        n = rng.randint(1, 4)
        chain = find_coghost_chain(A, T, Y, n)
        assert (chain is not None) == coghost_chain_exists(A, T, Y, n)
        if chain is None:
            continue
        assert len(chain) == n + 1 and chain[-1] == Y
        assert chain[0].top_vertex <= interval_end(A, Y)  # composite is nonzero
        for src, tgt in zip(chain, chain[1:]):
            assert is_coghost(A, basis_morphism(A, src, tgt), T)


def test_ghost_chain_search_matches_fac_levels(linear):
    rng = random.Random(5)
    for A in (linear(3), linear(4)):
        indecs = indecomposables(A)
        full = (1 << len(indecs)) - 1
        for _ in range(120):
            T = IndecSet(A, rng.randrange(1, full + 1))
            X = indecs[rng.randrange(len(indecs))]
            n = rng.randint(1, 4)
            level = bracket_n(A, fac_closure(A, T), n)
            assert ghost_chain_exists(A, T, X, n) == (X not in level), (T.mask, X, n)


def test_chain_length_validation(linear):
    A = linear(3)
    with pytest.raises(InputError):
        coghost_chain_exists(A, simples_set(A), simple(A, 1), 0)
    with pytest.raises(InputError):
        ghost_chain_exists(A, simples_set(A), simple(A, 1), 0)
    for n in (0, -2):
        with pytest.raises(InputError):
            find_coghost_chain(A, simples_set(A), simple(A, 1), n)


def test_morphism_entry_points_reject_a_set_over_another_algebra(linear):
    # T's mask and members index linear3's indecomposables, not linear4's
    A, T3 = linear(4), IndecSet.full(linear(3))
    Y = simple(A, 1)
    X = ModuleSum.of(Y)
    f = identity_morphism(A, X)
    calls = [
        lambda: is_coghost(A, f, T3),
        lambda: is_ghost(A, f, T3),
        lambda: irreducible_coghosts(A, T3),
        lambda: coghost_chain_exists(A, T3, Y, 1),
        lambda: ghost_chain_exists(A, T3, Y, 1),
        lambda: find_coghost_chain(A, T3, Y, 1),
        lambda: coghost_lemma_check(A, T3, 2),
        lambda: left_approximation(A, X, T3),
        lambda: approximation_kernel(A, X, T3),
    ]
    for call in calls:
        with pytest.raises(InputError):
            call()


def test_coghost_lemma_small_cases(linear):
    A = linear(3)
    assert coghost_lemma_check(A, simples_set(A), 3) == []
    assert coghost_lemma_check(A, IndecSet.of(A, [projective(A, 1)]), 3) == []


def test_coghost_lemma_stops_at_the_fixpoint(linear):
    # Past the level where the reach sets and both closure levels repeat,
    # every level repeats the same checks, so a huge nmax costs no more.
    A = linear(3)
    for mask in range(1 << len(indecomposables(A))):
        T = IndecSet(A, mask)
        assert coghost_lemma_check(A, T, 10**6) == coghost_lemma_check(A, T, 8), mask


def _reference_chain_tables(A):
    """``_chain_tables`` built from validated ``hom_dim`` on every pair."""
    indecs = indecomposables(A)
    count = len(indecs)
    ends = [interval_end(A, u) for u in indecs]
    hom = [[hom_dim(A, x, y) for y in indecs] for x in indecs]
    into = [[None] * count for _ in range(count)]
    out_of = [[None] * count for _ in range(count)]
    for a in range(count):
        for b in range(count):
            if hom[a][b]:
                into[b][a] = sum(1 << i for i in range(count)
                                 if hom[b][i] and indecs[a].top_vertex <= ends[i])
                out_of[a][b] = sum(1 << i for i in range(count)
                                   if hom[i][a] and indecs[i].top_vertex <= ends[b])
    return ends, into, out_of


def test_chain_tables_match_hom_dim_reference(monkeypatch):
    # every linear algebra with n <= 5, hereditary and with each relation;
    # the tables read Hom from the closure layer's masks, not from hom_dim
    algebras = [A for n in range(1, 6) for A in all_linear_algebras(n)]
    want = {A: _reference_chain_tables(A) for A in algebras}
    monkeypatch.setattr(morphisms, "hom_dim", None)
    morphisms._chain_tables.cache_clear()
    for A in algebras:
        ends, into, out_of = morphisms._chain_tables(A)
        assert (ends, into, out_of) == want[A], A.kupisch


def _reference_steps(table, kill: int) -> list[int]:
    """Per-row edge masks as the chain searches once built them: step[x] has
    the y with table[x][y] defined and disjoint from kill."""
    return [
        sum(1 << y for y, mask in enumerate(row) if mask is not None and mask & kill == 0)
        for row in table
    ]


def test_packed_kernel_matches_the_per_row_walk():
    # every linear algebra with n <= 5, both directions, seeded T, 6 levels
    rng = random.Random(24)
    for A in (A for n in range(1, 6) for A in all_linear_algebras(n)):
        indecs = indecomposables(A)
        count = len(indecs)
        full = (1 << count) - 1
        ends, into, out_of = morphisms._chain_tables(A)
        masks = {0, full} | {rng.randrange(full + 1) for _ in range(12)}
        for mask in sorted(masks):
            T = IndecSet(A, mask)
            for ghost, table in ((False, into), (True, out_of)):
                step, good = morphisms._steps(A, T, ghost)
                assert step == _reference_steps(table, mask), (A.kupisch, mask, ghost)
                for y, Y in enumerate(indecs):
                    want = {a for a in range(count) if (Y.top_vertex <= ends[a] if ghost
                                                        else indecs[a].top_vertex <= ends[y])}
                    assert set(_bits(good[y])) == want
                rows = [1 << y for y in range(count)]
                for packed, _ in zip(morphisms._packed_reach(step), range(6)):
                    rows = [_union(step, r) for r in rows]
                    assert [packed >> y * count & full for y in range(count)] == rows, (A.kupisch, mask)
                    assert packed >> count * count == 0


def _reference_lemma_check(A, T, nmax):
    """``coghost_lemma_check`` as a per-row walk: one reach mask per Y, each
    stepped with ``_union`` and read element by element."""
    indecs = indecomposables(A)
    ends, into, out_of = morphisms._chain_tables(A)
    step_in, step_out = _reference_steps(into, T.mask), _reference_steps(out_of, T.mask)
    reach_in = reach_out = [1 << k for k in range(len(indecs))]
    sub_mask, fac_mask = sub_closure(A, T).mask, fac_closure(A, T).mask
    violations, state = [], None
    for n in range(1, nmax + 1):
        reach_in = [_union(step_in, r) for r in reach_in]
        reach_out = [_union(step_out, r) for r in reach_out]
        in_sub, in_fac = morphisms._level(A, sub_mask, n), morphisms._level(A, fac_mask, n)
        if state == (reach_in, reach_out, in_sub, in_fac):
            break
        state = (reach_in, reach_out, in_sub, in_fac)
        for y, Y in enumerate(indecs):
            cog = any(indecs[a].top_vertex <= ends[y] for a in _bits(reach_in[y]))
            gho = any(Y.top_vertex <= ends[b] for b in _bits(reach_out[y]))
            for kind, chain, level in (("coghost", cog, in_sub), ("ghost", gho, in_fac)):
                member = bool(level >> y & 1)
                if chain == member:
                    violations.append(
                        f"{kind} mismatch: T={T.mask:#x} n={n} Y={Y}: chain={chain}, level member={member}"
                    )
    return violations


def test_coghost_lemma_violations_match_the_per_row_walk(monkeypatch):
    # Every T passes on the real levels, so the violation path is reached by
    # flipping one bit of each level; the report must list the same lines in
    # the same order as the per-row walk.
    algebras = [A for n in range(1, 5) for A in all_linear_algebras(n)]
    real = morphisms._level
    flipped = 0
    for level in (real, lambda A, t_mask, n: real(A, t_mask, n) ^ 1 << (t_mask + n) % A.dimension):
        monkeypatch.setattr(morphisms, "_level", level)
        for A in algebras:
            for mask in range(1, 1 << A.dimension):
                T = IndecSet(A, mask)
                got = coghost_lemma_check(A, T, 5)
                assert got == _reference_lemma_check(A, T, 5), (A.kupisch, mask)
                flipped += len(got)
        assert (flipped > 0) == (level is not real)


# ---------------------------------------------------------------------------
# radical nilpotence
# ---------------------------------------------------------------------------


def test_explicit_radical_chain(linear):
    A = linear(4)
    steps = [
        basis_morphism(A, Uniserial(1, 4), Uniserial(1, 3)),
        basis_morphism(A, Uniserial(1, 3), Uniserial(1, 2)),
        basis_morphism(A, Uniserial(1, 2), Uniserial(1, 1)),
    ]
    composite = steps[0]
    for f in steps[1:]:
        assert is_radical_morphism(f)
        composite = compose(f, composite)
    assert not composite.is_zero  # n - 1 radical steps can survive


#: length-n basis chains of radical maps, keyed by (n, relation start,
#: relation length), with (n, None, None) the hereditary line
RADICAL_CHAIN_COUNTS = {
    (2, None, None): 1, (2, 1, 2): 1,
    (3, None, None): 7, (3, 1, 2): 3, (3, 1, 3): 7, (3, 2, 2): 7,
    (4, None, None): 55, (4, 1, 2): 19, (4, 1, 3): 40, (4, 1, 4): 55,
    (4, 2, 2): 19, (4, 2, 3): 55, (4, 3, 2): 55,
    (5, None, None): 446, (5, 1, 2): 139, (5, 1, 3): 279, (5, 1, 4): 390,
    (5, 1, 5): 446, (5, 2, 2): 103, (5, 2, 3): 279, (5, 2, 4): 446,
    (5, 3, 2): 139, (5, 3, 3): 446, (5, 4, 2): 446,
    (6, None, None): 3758, (7, None, None): 32656,
}


def test_radical_nilpotence_exhaustive(linear):
    seen = set()
    algebras = [A for n in range(2, 6) for A in all_linear_algebras(n)] + [linear(6), linear(7)]
    for A in algebras:
        n, rel = A.n, A.relation
        key = (n, rel.start, rel.length) if rel else (n, None, None)
        seen.add(key)
        report = radical_nilpotence_check(A)
        assert report == {
            "n": n,
            "nonzero_composites": [],
            "chains": RADICAL_CHAIN_COUNTS[key],
            "longest_nonzero": n - 1,
        }, key
    assert seen == set(RADICAL_CHAIN_COUNTS)


def test_radical_nilpotence_catches_a_broken_compose(linear, monkeypatch):
    def compose_without_endpoint_rule(g, f):
        rows = tuple(
            tuple(
                sum(f.entry(s, t) * g.entry(t, u) for t in range(len(f.target)))
                for u in range(len(g.target))
            )
            for s in range(len(f.source))
        )
        return Morphism(f.source, g.target, rows)

    monkeypatch.setattr(morphisms, "compose", compose_without_endpoint_rule)
    report = radical_nilpotence_check(linear(6))
    assert report["nonzero_composites"]
    assert report["longest_nonzero"] == 6


# ---------------------------------------------------------------------------
# approximations
# ---------------------------------------------------------------------------


def test_left_approximation_of_projective(linear):
    A = linear(4)
    X = ModuleSum.of(projective(A, 1))
    T = simples_set(A)
    approx = left_approximation(A, X, T)
    assert approx.target == ModuleSum.of(simple(A, 1))  # only S(1) receives a map
    incl = approximation_kernel(A, X, T)
    assert incl.source == ModuleSum.of(Uniserial(2, 3))
    assert compose(approx, incl).is_zero
    assert is_coghost(A, incl, T)


def test_approximation_properties_random(linear):
    A = linear(4)
    indecs = indecomposables(A)
    rng = random.Random(9)
    full = (1 << len(indecs)) - 1
    for _ in range(60):
        X = ModuleSum.from_iterable(
            indecs[rng.randrange(len(indecs))] for _ in range(rng.randint(1, 3))
        )
        T = IndecSet(A, rng.randrange(1, full + 1))
        approx = left_approximation(A, X, T)
        assert all(u in T for u in approx.target.summands)
        incl = approximation_kernel(A, X, T)
        assert compose(approx, incl).is_zero
        assert is_coghost(A, incl, T)


def test_arrow_morphism_roundtrip(linear):
    A = linear(3)
    arrow = ARArrow("-", 1, 3)
    f = arrow_morphism(A, arrow)
    assert f.source == ModuleSum.of(Uniserial(1, 3))
    assert f.target == ModuleSum.of(Uniserial(1, 2))
