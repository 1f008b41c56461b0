"""Morphism calculus over canonical hom bases; ghosts, coghosts, approximations.

Over a linear-shape algebra every hom space between indecomposables is 0- or
1-dimensional, so a morphism between sums is just a coefficient matrix over
the canonical basis maps (integers: nothing divides, and every predicate
below only cares about zero patterns).  The canonical basis map
M_[a,b] -> M_[c,d] collapses the source onto the overlap and includes it;
composing two of them gives the canonical map again exactly when the
source's top stays inside the final window:

    [a,b] -> [c,d] -> [e,f]   is canonical [a,b] -> [e,f]  iff  a <= f,
                              and zero otherwise.

Because window ends only shrink along nonzero maps, an n-step chain of
canonical maps M_0 -> ... -> M_n has nonzero composite iff top(M_0) <=
end(M_n): a single endpoint condition.  That turns "does a nonzero n-fold
T-coghost into Y exist" into a reachability problem over coghost edges, and
entry-wise expansion shows searching such basis chains is complete:

* a morphism between sums is a T-coghost iff every matrix entry is (the
  conditions range over the same (summand, T-member) pairs), and
* a nonzero composite of sum-level maps has a nonzero matrix entry, which is
  a sum over paths of scalar products times one shared endpoint indicator,
  so some all-nonzero path of entry maps survives — a basis chain.

Radical nilpotence reads the same expansion with every scalar 1.  On the sum
G of all indecomposables, let R be the sum of the radical basis maps (nonzero
homs between distinct indecomposables).  Entry (s, u) of R^k is a sum of
positive terms, one per length-k basis chain s -> ... -> u with nonzero
composite, so nothing cancels and it is nonzero iff such a chain exists.  A
radical map of sums has radical basis maps as its entries, so R^n = 0 means
every composite of n radical maps vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .closure import IndecSet, _bits, _check_algebra, _hom_support, _level, _union, fac_closure, sub_closure
from .homext import ARArrow, _linear_hom_dim, ar_quiver, hom_dim, interval_end
from .nakayama import (
    Algebra,
    InputError,
    ModuleSum,
    Uniserial,
    _is_int,
    indec_index,
    indecomposables,
    simple,
    validate_module,
)


@dataclass(frozen=True)
class Morphism:
    """Map of module sums: coefficients[s][t] scales the canonical hom s -> t."""

    source: ModuleSum
    target: ModuleSum
    coefficients: tuple[tuple[int, ...], ...]

    def entry(self, s: int, t: int) -> int:
        return self.coefficients[s][t]

    @property
    def is_zero(self) -> bool:
        return all(not e for row in self.coefficients for e in row)


def _require_linear(A: Algebra) -> None:
    if not A.is_linear:
        raise InputError("morphism calculus needs thin hom spaces: linear shapes only")


def morphism(A: Algebra, source: ModuleSum, target: ModuleSum, entries: dict) -> Morphism:
    """Build a morphism from {(s_index, t_index): scalar}, checking hom support."""
    _require_linear(A)
    validate_module(A, source)
    validate_module(A, target)
    coeff = [[0] * len(target) for _ in range(len(source))]
    for key, value in entries.items():
        if not (
            isinstance(key, tuple)
            and len(key) == 2
            and all(map(_is_int, key))
            and 0 <= key[0] < len(source)
            and 0 <= key[1] < len(target)
        ):
            raise InputError(f"morphism entry keys must be in-range (source, target) indices, got {key!r}")
        s, t = key
        if not _is_int(value):
            raise InputError(f"morphism coefficients must be integers, got {value!r}")
        if not value:
            continue
        if _linear_hom_dim(source.summands[s], target.summands[t]) == 0:
            raise InputError(
                f"no hom from summand {s} ({source.summands[s]}) to {t} ({target.summands[t]})"
            )
        coeff[s][t] = value
    return Morphism(source, target, tuple(tuple(row) for row in coeff))


def zero_morphism(A: Algebra, source: ModuleSum, target: ModuleSum) -> Morphism:
    return morphism(A, source, target, {})


def identity_morphism(A: Algebra, M: ModuleSum) -> Morphism:
    entries = {
        (s, t): 1
        for s, u in enumerate(M.summands)
        for t, v in enumerate(M.summands)
        if s == t
    }
    return morphism(A, M, M, entries)


def basis_morphism(A: Algebra, x: Uniserial, y: Uniserial, scalar=1) -> Morphism:
    """The canonical generator of Hom(x, y), as a morphism of singleton sums."""
    if hom_dim(A, x, y) == 0:
        raise InputError(f"Hom({x}, {y}) = 0; no basis morphism exists")
    return morphism(A, ModuleSum.of(x), ModuleSum.of(y), {(0, 0): scalar})


def arrow_morphism(A: Algebra, arrow: ARArrow) -> Morphism:
    return basis_morphism(A, arrow.source, arrow.target)


def compose(g: Morphism, f: Morphism) -> Morphism:
    """g after f.  Entry (s,u) sums over middles, then the endpoint rule
    top(source_s) <= end(target_u) decides survival (it is path independent)."""
    if f.target != g.source:
        raise InputError("compose(g, f) needs f.target == g.source")
    rows = []
    for s, src in enumerate(f.source.summands):
        row = []
        for u, tgt in enumerate(g.target.summands):
            if src.top_vertex <= tgt.top_vertex + tgt.length - 1:
                total = sum(f.coefficients[s][t] * g.coefficients[t][u] for t in range(len(f.target)))
            else:
                total = 0
            row.append(total)
        rows.append(tuple(row))
    return Morphism(f.source, g.target, tuple(rows))


def is_radical_morphism(f: Morphism) -> bool:
    """No nonzero entry between equal uniserials: entries are scalars, so any
    such entry is an isomorphism component and the map leaves the radical."""
    for s, src in enumerate(f.source.summands):
        for t, tgt in enumerate(f.target.summands):
            if src == tgt and f.coefficients[s][t]:
                return False
    return True


# ---------------------------------------------------------------------------
# ghost / coghost predicates
# ---------------------------------------------------------------------------


def is_coghost(A: Algebra, f: Morphism, T: IndecSet) -> bool:
    """Hom(f, I) = 0 for every I in T.

    Per member I: if Hom(source, I) or Hom(target, I) vanishes the condition
    is automatic; otherwise expand over basis maps g: target_t -> I, where
    (g o f) at summand s is coefficients[s][t] times the endpoint indicator.
    """
    _require_linear(A)
    _check_algebra(A, T)
    for I in T.members():
        end_i = interval_end(A, I)
        src_homs = [hom_dim(A, u, I) for u in f.source.summands]
        if not any(src_homs):
            continue
        for t, tgt in enumerate(f.target.summands):
            if hom_dim(A, tgt, I) == 0:
                continue
            for s, src in enumerate(f.source.summands):
                if f.coefficients[s][t] and src.top_vertex <= end_i:
                    return False
    return True


def is_ghost(A: Algebra, f: Morphism, T: IndecSet) -> bool:
    """Hom(I, f) = 0 for every I in T; mirror image of is_coghost."""
    _require_linear(A)
    _check_algebra(A, T)
    for I in T.members():
        tgt_homs = [hom_dim(A, I, u) for u in f.target.summands]
        if not any(tgt_homs):
            continue
        for s, src in enumerate(f.source.summands):
            if hom_dim(A, I, src) == 0:
                continue
            for t, tgt in enumerate(f.target.summands):
                if f.coefficients[s][t] and I.top_vertex <= interval_end(A, tgt):
                    return False
    return True


def tm_generator(A: Algebra, m: int) -> IndecSet:
    """T_m: the initial intervals M_[1,j] for j <= m together with all simples."""
    _require_linear(A)
    if not _is_int(m) or not 1 <= m < A.n:
        raise InputError(f"m must be an integer with 1 <= m < {A.n}, got {m!r}")
    members = {Uniserial(1, j) for j in range(1, m + 1)}
    members |= {simple(A, i) for i in range(1, A.n + 1)}
    return IndecSet.of(A, members)


def irreducible_coghosts(A: Algebra, T: IndecSet) -> tuple[ARArrow, ...]:
    """The AR arrows that are T-coghosts (classification by direct check)."""
    return tuple(
        arrow for arrow in ar_quiver(A).arrows if is_coghost(A, arrow_morphism(A, arrow), T)
    )


# ---------------------------------------------------------------------------
# chain searches for the Ghost / Coghost Lemma
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _chain_tables(A: Algebra):
    """Per hom pair, the members I killing edge (co)ghostness, as masks, read
    in the direction the searches walk (from the chain end they start at):

      into[b][a]   = {I : Hom(b, I) != 0 and top(a) <= end(I)}  (coghost a -> b)
      out_of[a][b] = {I : Hom(I, a) != 0 and top(I) <= end(b)}  (ghost a -> b)

    None where Hom(a, b) = 0.  Identity pairs are included: id_a is a
    T-coghost iff Hom(a, T) = 0.  Hom is read from ``_hom_support``.
    """
    _require_linear(A)
    indecs = indecomposables(A)
    count = len(indecs)
    ends = [interval_end(A, u) for u in indecs]
    hom_into, hom_out = _hom_support(A)  # bit y of hom_out[x], bit x of hom_into[y]: Hom(x, y) != 0
    into = [[None] * count for _ in range(count)]
    out_of = [[None] * count for _ in range(count)]
    for a in range(count):
        for b in _bits(hom_out[a]):
            into[b][a] = sum(1 << i for i in _bits(hom_out[b]) if indecs[a].top_vertex <= ends[i])
            out_of[a][b] = sum(1 << i for i in _bits(hom_into[a]) if indecs[i].top_vertex <= ends[b])
    return ends, into, out_of


def _edge_masks(table, kill: int) -> list[int]:
    """step[x] = bitmask of y with table[x][y] defined and disjoint from kill."""
    return [
        sum(1 << y for y, mask in enumerate(row) if mask is not None and mask & kill == 0)
        for row in table
    ]


def coghost_chain_exists(A: Algebra, T: IndecSet, Y: Uniserial, n: int) -> bool:
    """Whether some nonzero composite of n T-coghost maps lands in Y.

    Search runs over basis chains A_n -> ... -> A_1 -> Y of coghost edges;
    the composite is nonzero iff top(A_n) <= end(Y) (window ends shrink, so
    only the endpoints matter).  Basis chains are complete for this question.
    """
    if n < 1:
        raise InputError(f"chain length must be >= 1, got {n}")
    _check_algebra(A, T)
    ends, into, _ = _chain_tables(A)
    step = _edge_masks(into, T.mask)
    indecs = indecomposables(A)
    y = indec_index(A)[Y]
    reach = 1 << y
    for _ in range(n):
        reach = _union(step, reach)
    return any(indecs[a].top_vertex <= ends[y] for a in _bits(reach))


def ghost_chain_exists(A: Algebra, T: IndecSet, X: Uniserial, n: int) -> bool:
    """Dual search: nonzero composite of n T-ghost maps out of X."""
    if n < 1:
        raise InputError(f"chain length must be >= 1, got {n}")
    _check_algebra(A, T)
    ends, _, out_of = _chain_tables(A)
    step = _edge_masks(out_of, T.mask)
    reach = 1 << indec_index(A)[X]
    for _ in range(n):
        reach = _union(step, reach)
    return any(X.top_vertex <= ends[b] for b in _bits(reach))


def find_coghost_chain(A: Algebra, T: IndecSet, Y: Uniserial, n: int) -> tuple[Uniserial, ...] | None:
    """One witnessing chain (A_n, ..., A_1, Y) with nonzero composite, if any."""
    if n < 1:
        raise InputError(f"chain length must be >= 1, got {n}")
    _check_algebra(A, T)
    ends, into, _ = _chain_tables(A)
    step = _edge_masks(into, T.mask)
    indecs = indecomposables(A)
    y = indec_index(A)[Y]
    layers = [1 << y]
    for _ in range(n):
        layers.append(_union(step, layers[-1]))
    starts = [a for a in _bits(layers[n]) if indecs[a].top_vertex <= ends[y]]
    if not starts:
        return None
    chain = [starts[0]]
    for k in range(n - 1, 0, -1):
        cur = chain[-1]
        for b in _bits(layers[k]):
            if step[b] >> cur & 1:
                chain.append(b)
                break
        else:  # pragma: no cover - layers are consistent by construction
            raise AssertionError("chain reconstruction failed")
    chain.append(y)
    return tuple(indecs[k] for k in chain)


def coghost_lemma_check(A: Algebra, T: IndecSet, nmax: int) -> list[str]:
    """Both equivalences, for every indecomposable Y and 1 <= n <= nmax:

      nonzero n-fold T-coghost into Y   <=>  Y not in [Sub T]_n
      nonzero n-fold T-ghost out of Y   <=>  Y not in [Fac T]_n

    Returns human-readable violations (expected empty).  An ``nmax`` below 1
    would check nothing, so it is refused rather than passed.  Level n's
    checks read only (reach_in, reach_out, [Sub T]_n, [Fac T]_n), and each
    part is a function of its value at n - 1, so once that state repeats every
    later level repeats its checks: the loop stops there, whatever ``nmax``.
    """
    if not _is_int(nmax) or nmax < 1:
        raise InputError(f"nmax must be a positive integer, got {nmax!r}")
    _check_algebra(A, T)
    violations = []
    indecs = indecomposables(A)
    ends, into, out_of = _chain_tables(A)
    step_in = _edge_masks(into, T.mask)
    step_out = _edge_masks(out_of, T.mask)
    # reach_in[y] / reach_out[x]: chain sources into y / targets out of x
    reach_in = reach_out = [1 << k for k in range(len(indecs))]
    sub_mask = sub_closure(A, T).mask
    fac_mask = fac_closure(A, T).mask
    state = None
    for n in range(1, nmax + 1):
        reach_in = [_union(step_in, r) for r in reach_in]
        reach_out = [_union(step_out, r) for r in reach_out]
        in_sub = _level(A, sub_mask, n)
        in_fac = _level(A, fac_mask, n)
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


# ---------------------------------------------------------------------------
# radical nilpotence
# ---------------------------------------------------------------------------


def radical_nilpotence_check(A: Algebra) -> dict:
    """Check that every composite of n = A.n radical maps vanishes.

    Let G be the sum of all indecomposables, each once, and R: G -> G the
    morphism with coefficient 1 on every radical basis map (the nonzero homs
    minus the identities: ``step`` below).  ``compose`` gives R^2, ..., R^n.
    Every coefficient is positive and ``compose`` only multiplies and adds
    them, so nothing cancels: entry (s, u) of R^k counts the length-k chains
    of radical basis maps from s to u with nonzero composite, and is nonzero
    iff one exists.  So R^n = 0 proves, by the entry-wise expansion in the
    module docstring, that every composite of n radical maps (between sums,
    with any scalars) vanishes.

    The report lists one ``(source, target, n)`` per nonzero entry of R^n
    (expected none), ``chains``, the number of length-n radical basis chains
    (a walk count over ``step``, nonzero composite or not), and
    ``longest_nonzero``, the largest k <= n with R^k != 0 (expected n - 1).

    Cost: n - 1 products of count x count matrices, so count^3 * n
    coefficient steps.  Warm calls on one core of a 2-vCPU Xeon took 5-8 ms
    on linear6, 28-44 ms on linear8, 0.11-0.17 s on linear10 and 0.35-0.56 s
    on linear12 (two sittings; the host's speed drifts).
    """
    _require_linear(A)
    n = A.n
    indecs = indecomposables(A)
    # the radical basis maps: the nonzero homs minus the identities
    step = [out & ~(1 << x) for x, out in enumerate(_hom_support(A)[1])]
    G = ModuleSum.from_iterable(indecs)  # indecomposables are sorted already, so indices agree
    R = morphism(A, G, G, {(x, y): 1 for x, row in enumerate(step) for y in _bits(row)})
    power = R
    longest = 0 if R.is_zero else 1
    for k in range(2, n + 1):
        power = compose(R, power)
        if not power.is_zero:
            longest = k
    walks = [1] * len(indecs)  # walks[x]: basis chains of the current length ending at x
    for _ in range(n):
        nxt = [0] * len(indecs)
        for x, count in enumerate(walks):
            for y in _bits(step[x]):
                nxt[y] += count
        walks = nxt
    return {
        "n": n,
        "nonzero_composites": [
            (indecs[s], indecs[u], n)
            for s, row in enumerate(power.coefficients)
            for u, entry in enumerate(row)
            if entry
        ],
        "chains": sum(walks),
        "longest_nonzero": longest,
    }


# ---------------------------------------------------------------------------
# approximations
# ---------------------------------------------------------------------------


def left_approximation(A: Algebra, X: ModuleSum, T: IndecSet) -> Morphism:
    """The hom-basis left add-T-approximation: one target copy per basis map.

    Every map X -> I with I in add T factors through it (each basis hom is
    literally a component), which is the covariant-finiteness construction.
    """
    _require_linear(A)
    _check_algebra(A, T)
    validate_module(A, X)
    items = [
        (s, I)
        for s, src in enumerate(X.summands)
        for I in T.members()
        if hom_dim(A, src, I)
    ]
    order = sorted(range(len(items)), key=lambda k: (items[k][1], items[k][0]))
    target = ModuleSum.from_iterable(items[k][1] for k in order)
    entries = {(items[k][0], col): 1 for col, k in enumerate(order)}
    return morphism(A, X, target, entries)


def approximation_kernel(A: Algebra, X: ModuleSum, T: IndecSet) -> Morphism:
    """Inclusion of ker(left_approximation): summand-wise window tails.

    Summand [a, b] maps into the T-members [c_k, d_k] it has homs to; each
    kernel is the tail past d_k, so the joint kernel is the tail past
    D = max d_k (all of [a, b] when there are no homs, zero when D = b).
    """
    _require_linear(A)
    _check_algebra(A, T)
    validate_module(A, X)
    parts = []  # (kernel summand, source index)
    for s, src in enumerate(X.summands):
        tails = [interval_end(A, I) for I in T.members() if hom_dim(A, src, I)]
        end = interval_end(A, src)
        if not tails:
            parts.append((src, s))
            continue
        d = max(tails)
        if d < end:
            parts.append((Uniserial(d + 1, end - d), s))
    order = sorted(range(len(parts)), key=lambda k: (parts[k][0], parts[k][1]))
    kernel = ModuleSum.from_iterable(parts[k][0] for k in order)
    entries = {(row, parts[k][1]): 1 for row, k in enumerate(order)}
    return morphism(A, kernel, X, entries)
