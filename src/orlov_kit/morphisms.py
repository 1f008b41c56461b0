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
from itertools import accumulate

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
    validate_module,
    validate_uniserial,
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
        if not (isinstance(key, tuple) and len(key) == 2 and all(map(_is_int, key))
                and 0 <= key[0] < len(source) and 0 <= key[1] < len(target)):
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
    return morphism(A, M, M, {(s, s): 1 for s in range(len(M))})


def basis_morphism(A: Algebra, x: Uniserial, y: Uniserial, scalar=1) -> Morphism:
    """The canonical generator of Hom(x, y), as a morphism of singleton sums."""
    if hom_dim(A, x, y) == 0:
        raise InputError(f"Hom({x}, {y}) = 0; no basis morphism exists")
    return morphism(A, ModuleSum.of(x), ModuleSum.of(y), {(0, 0): scalar})


def arrow_morphism(A: Algebra, arrow: ARArrow) -> Morphism:
    return basis_morphism(A, arrow.source, arrow.target)


def compose(g: Morphism, f: Morphism) -> Morphism:
    """g after f: entry (s,u) sums f[s][t] g[t][u] over the t with f[s][t] != 0
    and survives iff top(source_s) <= end(target_u) (path independent)."""
    if f.target != g.source:
        raise InputError("compose(g, f) needs f.target == g.source")
    ends = [tgt.top_vertex + tgt.length - 1 for tgt in g.target.summands]
    rows = []
    for src, f_row in zip(f.source.summands, f.coefficients):
        terms = [(g.coefficients[t], c) for t, c in enumerate(f_row) if c]
        top = src.top_vertex
        rows.append(tuple(
            sum(c * g_row[u] for g_row, c in terms) if top <= end else 0 for u, end in enumerate(ends)
        ))
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
    # each end once, so hom is read unchecked; T's members are valid by construction
    validate_module(A, f.source)
    validate_module(A, f.target)
    return _coghost_against(A, f, T.members())


def _coghost_against(A: Algebra, f: Morphism, members) -> bool:
    """``is_coghost``'s test of a checked f against T's decoded members."""
    for I in members:
        end_i = interval_end(A, I)
        if not any(_linear_hom_dim(u, I) for u in f.source.summands):
            continue
        for t, tgt in enumerate(f.target.summands):
            if not _linear_hom_dim(tgt, I):
                continue
            for s, src in enumerate(f.source.summands):
                if f.coefficients[s][t] and src.top_vertex <= end_i:
                    return False
    return True


def is_ghost(A: Algebra, f: Morphism, T: IndecSet) -> bool:
    """Hom(I, f) = 0 for every I in T; mirror image of is_coghost."""
    _require_linear(A)
    _check_algebra(A, T)
    validate_module(A, f.source)
    validate_module(A, f.target)
    for I in T.members():
        if not any(_linear_hom_dim(I, u) for u in f.target.summands):
            continue
        for s, src in enumerate(f.source.summands):
            if not _linear_hom_dim(I, src):
                continue
            for t, tgt in enumerate(f.target.summands):
                if f.coefficients[s][t] and I.top_vertex <= interval_end(A, tgt):
                    return False
    return True


def tm_members(A: Algebra, m: int) -> tuple[Uniserial, ...]:
    """T_m's members, each validated, in the canonical order: the initial
    intervals M_[1,j] for j <= m, then the simples of vertices 2..n."""
    _require_linear(A)
    if not _is_int(m) or not 1 <= m < A.n:
        raise InputError(f"m must be an integer with 1 <= m < {A.n}, got {m!r}")
    members = [Uniserial(1, j) for j in range(1, m + 1)] + [Uniserial(i, 1) for i in range(2, A.n + 1)]
    return tuple(validate_uniserial(A, u) for u in members)


def tm_generator(A: Algebra, m: int) -> IndecSet:
    """T_m: the initial intervals M_[1,j] for j <= m together with all simples.

    Its n + m - 1 bits come from the Kupisch prefix sums, with no index of
    every indecomposable: (i, l) is indecomposable c_1 + ... + c_{i-1} + l - 1.
    """
    starts = (0, *accumulate(A.kupisch))
    return IndecSet(A, sum(1 << starts[u.top_vertex - 1] + u.length - 1 for u in tm_members(A, m)))


def irreducible_coghosts(A: Algebra, T: IndecSet) -> tuple[ARArrow, ...]:
    """The AR arrows that are T-coghosts (classification by direct check).

    T's members are decoded once for every arrow, and each arrow's ends are
    validated when ``arrow_morphism`` builds it."""
    _require_linear(A)
    _check_algebra(A, T)
    members = T.members()
    return tuple(
        arrow for arrow in ar_quiver(A).arrows if _coghost_against(A, arrow_morphism(A, arrow), members)
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


@lru_cache(maxsize=None)
def _packed_edges(A: Algebra):
    """``_chain_tables`` packed, one (base, kill, good) per direction (0:
    coghost ``into``, 1: ghost ``out_of``).  ``base`` has every defined edge
    x -> y as bit x*count + y, ``kill[i]`` the edges whose table mask holds
    member i, and good[y] the chain ends with nonzero composite: {a : top(a)
    <= end(y)} into Y, {b : top(Y) <= end(b)} out of Y."""
    ends, into, out_of = _chain_tables(A)
    tops = [u.top_vertex for u in indecomposables(A)]
    count = len(tops)
    good_in = tuple(sum(1 << a for a, top in enumerate(tops) if top <= end) for end in ends)
    good_out = tuple(sum(1 << b for b, end in enumerate(ends) if top <= end) for top in tops)
    packed = []
    for table, good in ((into, good_in), (out_of, good_out)):
        base, kill = 0, [0] * count
        for x, row in enumerate(table):
            for y, mask in enumerate(row):
                if mask is not None:
                    base |= 1 << x * count + y
                    for i in _bits(mask):
                        kill[i] |= 1 << x * count + y
        packed.append((base, tuple(kill), good))
    return tuple(packed)


def _steps(A: Algebra, T: IndecSet, ghost: bool) -> tuple[list[int], tuple[int, ...]]:
    """(step, good) for T: T's edges are ``base`` less kill[i] for each i in T
    (|T| int operations), and their row x is step[x]."""
    base, kill, good = _packed_edges(A)[ghost]
    for i in _bits(T.mask):
        base &= ~kill[i]
    count, row = len(good), (1 << len(good)) - 1
    return [base >> x * count & row for x in range(count)], good


def _packed_reach(step: list[int]):
    """Yield the reach of every start at once, after 1, 2, ... steps.

    Row y of the packed int (bits y*count ... y*count + count - 1) is the set
    reached from y; it starts at the identity, bit y*count + y.  One step ORs,
    for each x, ``(reach >> x & rows) * step[x]``: ``rows`` has bit y*count
    for every y, so the factor selects the rows holding x.  The product has
    no carries: the selected bits lie count places apart and step[x] <
    2^count, so each copy of step[x] fills only its own row.
    """
    count = len(step)
    rows = ((1 << count * count) - 1) // ((1 << count) - 1)  # sum of 2^(y*count)
    reach = ((1 << count * (count + 1)) - 1) // ((1 << count + 1) - 1)  # sum of 2^(y*count + y)
    live = [(x, s) for x, s in enumerate(step) if s]
    while True:
        new = 0
        for x, s in live:
            new |= (reach >> x & rows) * s
        reach = new
        yield reach


def _layers(A: Algebra, T: IndecSet, start: Uniserial, n: int, ghost: bool):
    """(step, good, index of start, [reach after 0..n steps from start])."""
    if n < 1:
        raise InputError(f"chain length must be >= 1, got {n}")
    _check_algebra(A, T)
    step, good = _steps(A, T, ghost)
    y = indec_index(A)[start]
    layers = [1 << y]
    for _ in range(n):
        layers.append(_union(step, layers[-1]))
    return step, good, y, layers


def coghost_chain_exists(A: Algebra, T: IndecSet, Y: Uniserial, n: int) -> bool:
    """Whether some nonzero composite of n T-coghost maps lands in Y.

    Search runs over basis chains A_n -> ... -> A_1 -> Y of coghost edges;
    the composite is nonzero iff top(A_n) <= end(Y) (window ends shrink, so
    only the endpoints matter).  Basis chains are complete for this question.
    """
    _, good, y, layers = _layers(A, T, Y, n, False)
    return bool(layers[n] & good[y])


def ghost_chain_exists(A: Algebra, T: IndecSet, X: Uniserial, n: int) -> bool:
    """Dual search: nonzero composite of n T-ghost maps out of X."""
    _, good, x, layers = _layers(A, T, X, n, True)
    return bool(layers[n] & good[x])


def find_coghost_chain(A: Algebra, T: IndecSet, Y: Uniserial, n: int) -> tuple[Uniserial, ...] | None:
    """One witnessing chain (A_n, ..., A_1, Y) with nonzero composite, if any."""
    step, good, y, layers = _layers(A, T, Y, n, False)
    starts = layers[n] & good[y]
    if not starts:
        return None
    chain = [next(_bits(starts))]
    for k in range(n - 1, 0, -1):  # layer k holds a predecessor: layers are consistent by construction
        chain.append(next(b for b in _bits(layers[k]) if step[b] >> chain[-1] & 1))
    indecs = indecomposables(A)
    return tuple(indecs[k] for k in chain + [y])


def coghost_lemma_check(A: Algebra, T: IndecSet, nmax: int) -> list[str]:
    """Both equivalences, for every indecomposable Y and 1 <= n <= nmax:

      nonzero n-fold T-coghost into Y   <=>  Y not in [Sub T]_n
      nonzero n-fold T-ghost out of Y   <=>  Y not in [Fac T]_n

    Returns human-readable violations (expected empty); an ``nmax`` below 1
    would check nothing, so it is refused.  The chain ends of every Y come
    from one packed int per direction (``_packed_reach``).  Level n's checks
    read only (reach_in, reach_out, [Sub T]_n, [Fac T]_n), each a function
    of its value at n - 1, so once that state repeats every later level
    repeats its checks: the loop stops there, whatever ``nmax``.
    """
    if not _is_int(nmax) or nmax < 1:
        raise InputError(f"nmax must be a positive integer, got {nmax!r}")
    _check_algebra(A, T)
    violations = []
    indecs = indecomposables(A)
    count = len(indecs)
    step_in, good_in = _steps(A, T, False)
    step_out, good_out = _steps(A, T, True)
    sub_mask = sub_closure(A, T).mask
    fac_mask = fac_closure(A, T).mask
    state = None
    levels = zip(range(1, nmax + 1), _packed_reach(step_in), _packed_reach(step_out))
    for n, reach_in, reach_out in levels:
        in_sub, in_fac = _level(A, sub_mask, n), _level(A, fac_mask, n)
        if state == (reach_in, reach_out, in_sub, in_fac):
            break
        state = (reach_in, reach_out, in_sub, in_fac)
        cog = sum(1 << y for y in range(count) if reach_in >> y * count & good_in[y])
        gho = sum(1 << y for y in range(count) if reach_out >> y * count & good_out[y])
        for y in _bits((~(cog ^ in_sub) | ~(gho ^ in_fac)) & (1 << count) - 1):
            for kind, reached, level in (("coghost", cog, in_sub), ("ghost", gho, in_fac)):
                chain, member = bool(reached >> y & 1), bool(level >> y & 1)
                if chain == member:
                    violations.append(f"{kind} mismatch: T={T.mask:#x} n={n} Y={indecs[y]}: "
                                      f"chain={chain}, level member={member}")
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

    Cost: n - 1 products of count x count matrices, each entry summed over the
    nonzero terms of its row of R^(k-1) only.  Warm calls on one core of a
    2-vCPU Xeon took 1.2-1.4 ms on linear6, 4-5 ms on linear8, 14 ms on linear10
    and 36-40 ms on linear12 (the dense sum: 3, 18, 73 and 242 ms, same sitting).
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
        walks = [sum(w for w, row in zip(walks, step) if row >> y & 1) for y in range(len(indecs))]
    return {
        "n": n,
        "nonzero_composites": [
            (indecs[s], indecs[u], n) for s, row in enumerate(power.coefficients) for u, e in enumerate(row) if e
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
    items = [(s, I) for s, src in enumerate(X.summands) for I in T.members() if hom_dim(A, src, I)]
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
