"""Torsion pairs from simples, radical layer lengths, and dimension counts.

A set S of vertices picks the torsion class of modules whose top avoids the
simples S(i), i in S.  The torsion radical t_S(M) is the largest submodule in
that class; on a uniserial the submodules form a chain, so t_S is found by
scanning down from the top for the first composition factor outside S.  The
layered functor F = rad .. t_S drives the t_S-radical layer length

    ll^{t_S}(M) = least i >= 0 with t_S(F^i(M)) = 0,

which is always finite (each F strictly shrinks dimension).  Sums take the
max over summands since t_S and rad are additive.

The same module also houses projective/injective dimension via syzygy-orbit
walking (Nakayama syzygies of uniserials are uniserial, so orbits either hit
a projective or cycle), the ll^infinity specialisation, the spectrum subset
ceil(L/d)-1 for 1 <= d < L, and its W_d witness generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .closure import IndecSet
from .nakayama import (
    INFINITE,
    Algebra,
    CYCLIC,
    InputError,
    ModuleSum,
    Relation,
    Uniserial,
    algebra_loewy_length,
    build_algebra,
    indecomposables,
    injective,
    projective,
    radical,
    simple,
    socle_vertex,
    validate_module,
    validate_uniserial,
    _as_sum,
    _is_int,
)


@dataclass(frozen=True)
class TorsionSpec:
    """A choice of simples S (by vertex); the torsion side keeps tops outside S."""

    vertices: frozenset[int]

    @staticmethod
    def of(A: Algebra, vertices) -> "TorsionSpec":
        given = tuple(vertices)
        if not all(_is_int(v) for v in given):
            raise InputError(f"torsion spec vertices must be integers, got {given!r}")
        vs = frozenset(given)
        bad = [v for v in vs if not 1 <= v <= A.n]
        if bad:
            raise InputError(f"torsion spec vertices {sorted(bad)} outside 1..{A.n}")
        return TorsionSpec(vs)

    def complement(self, A: Algebra) -> frozenset[int]:
        return frozenset(range(1, A.n + 1)) - self.vertices


def _trace_uniserial(A: Algebra, S: frozenset[int], u: Uniserial) -> Uniserial | None:
    """Largest submodule of u whose top lies outside S (None for zero).

    Submodules of a uniserial form the chain (top+r, length-r); the largest
    acceptable one is the smallest r whose vertex escapes S.
    """
    for r in range(u.length):
        v = A.step(u.top_vertex, r)
        if v not in S:
            return Uniserial(v, u.length - r)
    return None


def torsion_radical(A: Algebra, spec: TorsionSpec, M: ModuleSum | Uniserial) -> ModuleSum:
    """t_S(M): summand-wise trace of the torsion class."""
    out = []
    for u in _as_sum(M):
        t = _trace_uniserial(A, spec.vertices, u)
        if t is not None:
            out.append(t)
    return ModuleSum.from_iterable(out)


def torsion_quotient(A: Algebra, spec: TorsionSpec, M: ModuleSum | Uniserial) -> ModuleSum:
    """q_t(M) = M / t_S(M): the torsion-free tops cut off above the trace."""
    out = []
    for u in _as_sum(M):
        t = _trace_uniserial(A, spec.vertices, u)
        kept = u.length if t is None else u.length - t.length
        if kept:
            out.append(Uniserial(u.top_vertex, kept))
    return ModuleSum.from_iterable(out)


@lru_cache(maxsize=None)
def _layer_length_uniserial(A: Algebra, S: frozenset[int], u: Uniserial) -> int:
    steps = 0
    cur: Uniserial | None = u
    while cur is not None:
        t = _trace_uniserial(A, S, cur)
        if t is None:
            return steps
        # F = rad . t_S ; rad of a uniserial drops the top composition factor
        cur = Uniserial(A.step(t.top_vertex), t.length - 1) if t.length > 1 else None
        steps += 1
    return steps


def radical_layer_length(A: Algebra, spec: TorsionSpec, M: ModuleSum | Uniserial) -> int:
    """ll^{t_S}(M): least i with t_S((rad t_S)^i M) = 0; max over summands."""
    M = _as_sum(M)
    validate_module(A, M)
    if M.is_zero:
        return 0
    return max(_layer_length_uniserial(A, spec.vertices, u) for u in M)


def algebra_llts(A: Algebra, spec: TorsionSpec) -> int:
    """ll^{t_S} of the algebra = max over the indecomposable projectives."""
    return max(
        _layer_length_uniserial(A, spec.vertices, projective(A, i)) for i in range(1, A.n + 1)
    )


def theorem2_spectrum(L: int) -> frozenset[int]:
    """{ceil(L/d) - 1 : 1 <= d < L}: generation times witnessed by the W_d classes.

    Pure arithmetic in L; empty for L <= 1 (the union with {0} that reports
    print for representation-finite algebras is applied by callers, not here).
    """
    if not _is_int(L) or L < 0:
        raise InputError(f"layer length must be an integer >= 0, got {L!r}")
    return frozenset((L + d - 1) // d - 1 for d in range(1, L))


def wd_generator(A: Algebra, spec: TorsionSpec, d: int) -> IndecSet:
    """W_d: all indecomposables with ll^{t_S} <= d (needs 1 <= d < algebra ll^{t_S})."""
    bound = algebra_llts(A, spec)
    if not _is_int(d) or not 1 <= d < bound:
        raise InputError(f"d must be an integer with 1 <= d < {bound}, got {d!r}")
    members = [
        u for u in indecomposables(A) if _layer_length_uniserial(A, spec.vertices, u) <= d
    ]
    return IndecSet.of(A, members)


# ---------------------------------------------------------------------------
# projective / injective dimension by syzygy orbits
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _pd_uniserial(A: Algebra, u: Uniserial):
    seen = set()
    cur = u
    steps = 0
    while True:
        if cur.length == A.c(cur.top_vertex):
            return steps
        if cur in seen:
            return INFINITE
        seen.add(cur)
        # 0 -> rad^l P(i) -> P(i) -> (i,l) -> 0 : the syzygy starts l arrows down
        cur = Uniserial(A.step(cur.top_vertex, cur.length), A.c(cur.top_vertex) - cur.length)
        steps += 1


@lru_cache(maxsize=None)
def _id_uniserial(A: Algebra, u: Uniserial):
    seen = set()
    cur = u
    steps = 0
    while True:
        env = injective(A, socle_vertex(A, cur))
        if env == cur:
            return steps
        if cur in seen:
            return INFINITE
        seen.add(cur)
        # 0 -> cur -> I(soc) -> I/cur -> 0 : the cokernel keeps the envelope's top
        cur = Uniserial(env.top_vertex, env.length - cur.length)
        steps += 1


def projective_dimension(A: Algebra, M: ModuleSum | Uniserial):
    """pd M: max over summands; 0 for projectives (and the zero module)."""
    M = _as_sum(M)
    validate_module(A, M)
    if M.is_zero:
        return 0
    return max(_pd_uniserial(A, u) for u in M)


def injective_dimension(A: Algebra, M: ModuleSum | Uniserial):
    """id M, dual to pd via injective envelopes and cosyzygy cokernels."""
    M = _as_sum(M)
    validate_module(A, M)
    if M.is_zero:
        return 0
    return max(_id_uniserial(A, u) for u in M)


def global_dimension(A: Algebra):
    """gl.dim = max pd over the simples (INFINITE when any simple cycles)."""
    return max(projective_dimension(A, simple(A, i)) for i in range(1, A.n + 1))


def finite_pd_simples(A: Algebra) -> TorsionSpec:
    """The spec S = {i : pd S(i) finite}; its layer length is ll^infinity."""
    return TorsionSpec(
        frozenset(
            i for i in range(1, A.n + 1) if _pd_uniserial(A, simple(A, i)) is not INFINITE
        )
    )


# ---------------------------------------------------------------------------
# short exact sequences of uniserials (used by the inequality suites)
# ---------------------------------------------------------------------------


def truncation_triples(A: Algebra, u: Uniserial) -> list[tuple[Uniserial, Uniserial, Uniserial]]:
    """All (sub, middle, quotient) from cutting u: 0 -> (i+r, l-r) -> u -> (i, r) -> 0."""
    validate_uniserial(A, u)
    out = []
    for r in range(1, u.length):
        sub = Uniserial(A.step(u.top_vertex, r), u.length - r)
        quot = Uniserial(u.top_vertex, r)
        out.append((sub, u, quot))
    return out


# ---------------------------------------------------------------------------
# oriented-cycle comparison report
# ---------------------------------------------------------------------------

#: Closed forms catalogued for the cycle on n vertices with relation the
#: first m arrows (2 <= m <= n-1), items (a)-(e).  Item (a)'s source text is
#: corrupted ("ll(Lambda)m+n"); it is carried as the literal m+n with a flag,
#: while first principles give ll(Lambda) = n+m-1.  Mismatches between the
#: computed values and this table are expected output, listed verbatim.
_CYCLE_ITEMS = ("a", "b", "c", "d", "e")


def _cycle_reference_rows(n: int, m: int):
    rows: list[tuple[str, int | None, frozenset[int], int | None, bool]] = []
    rows.append(("a", None, frozenset(), m + n, True))  # corrupted source text
    for i in range(2, m + 1):
        rows.append(("b", i, frozenset(range(2, i + 1)), m + n + 2 - 2 * i, False))
    for i in range(2, m + 1):
        rows.append(("c", i, frozenset(range(1, i + 1)), m + n + 1 - 2 * i, False))
    for i in range(m + 2, n + 1):
        rows.append(("d", i, frozenset(range(1, i + 1)), n + 2 - i, False))
    rows.append(("e", None, frozenset(range(2, n + 1)), 1, False))
    return rows


def _layer_length_bruteforce(A: Algebra, S: frozenset[int], u: Uniserial) -> int:
    """Independent recomputation of ll^{t_S} on explicit composition-factor lists.

    A uniserial is its vertex list read from the top; submodules are the
    suffixes.  The trace is the longest suffix whose head escapes S (found by
    trying every suffix), rad drops the head.  No chain-scan shortcuts.
    """
    factors = [A.step(u.top_vertex, r) for r in range(u.length)]
    steps = 0
    while True:
        candidates = [
            factors[r:] for r in range(len(factors)) if factors[r] not in S
        ]
        if not candidates:
            return steps
        trace = max(candidates, key=len)
        factors = trace[1:]  # rad of the trace
        steps += 1


def oriented_cycle_report(n: int, m: int) -> dict:
    """Compare computed ll^{t_S} values on the m-arrow-relation n-cycle
    against the catalogued closed forms; mismatches are listed, never patched.
    """
    if not 2 <= m <= n - 1:
        raise InputError(f"need 2 <= m <= n-1, got (n, m) = ({n}, {m})")
    A = build_algebra(CYCLIC, n, Relation(start=1, length=m))
    entries = []
    consistent = True
    for item, i, S, reference, corrupted in _cycle_reference_rows(n, m):
        spec = TorsionSpec(S)
        computed = algebra_llts(A, spec)
        brute = max(
            _layer_length_bruteforce(A, S, projective(A, v)) for v in range(1, n + 1)
        )
        if brute != computed:
            consistent = False
        entries.append(
            {
                "item": item,
                "i": i,
                "simples": sorted(S),
                "computed": computed,
                "reference": reference,
                "reference_corrupted": corrupted,
                "matches_reference": computed == reference,
                "bruteforce_agrees": brute == computed,
            }
        )
    return {
        "n": n,
        "m": m,
        "kupisch": list(A.kupisch),
        "loewy_length": algebra_loewy_length(A),
        "entries": entries,
        "internally_consistent": consistent,
        "mismatched_items": [
            f"{e['item']}" + (f"(i={e['i']})" if e["i"] is not None else "")
            for e in entries
            if not e["matches_reference"]
        ],
    }
