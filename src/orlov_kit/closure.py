"""Extension closures, generation times, and Orlov spectra (linear shapes).

Subcategories here are add-closed classes of modules, so they are determined
by a set of indecomposables; ``IndecSet`` stores one as a bitmask over the
algebra's indecomposable list.  The one-step closure of two classes is

    star(left, right) = summands of middles of  0 -> u -> E -> v -> 0,
                        u in add(left), v in add(right)

(split extensions included, so members of either side stay in).  Extensions
of direct sums can liberate summands that no single pair of uniserials
produces, so star is computed exactly in three tiers:

* floor - members plus the middle summands of the pairwise nonzero classes
  (merged window + overlap window); every floor bit is realizable.
* ceiling - every summand of a middle is a stack: a tail window of the right
  side sitting on top of a tail window of the left side (either part may be
  empty), and star is monotone under sub-/quotient-closure of both sides,
  where the floor is already the whole answer.  Intersecting these bounds
  gives a set every true star member must lie in.
* gap bits (ceiling minus floor) are decided one by one by an explicit
  witness search over F2 (`_realizable`), memoised per (left, right, bit).
  Three exact rules bound its work per candidate:
  (a) quotient multisets grow only while their dimension vector stays under
      the middle's and their dimension below it; both conditions are
      monotone in the multiset, so pruning at a prefix loses no candidate;
  (b) a map g: X -> V is onto iff it is onto on tops (Nakayama's lemma), a
      rank test on the maps between windows with a common top vertex;
  (c) g acts vertex by vertex, so ker g has a basis of vectors that each
      live at one vertex; the multiplicity of a kernel window [a, b] comes
      from ranks of the kernels at a and a - 1 masked to the windows of X
      that reach b and b + 1.

Levels are the chain [T]_1 = add T, [T]_k = star([T]_1, [T]_{k-1}), which is
monotone and stabilises after at most #indecomposables steps.

generation_time(T) is the least n with [T]_{n+1} = everything (INFINITE if
the chain stabilises short of that); the spectrum of such times over all
multiplicity-free strong generators has min = the extension dimension and
max = the Orlov-style upper dimension.
"""

from __future__ import annotations

import itertools
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .homext import ext1_nonzero, middle_term
from .nakayama import (
    INFINITE,
    Algebra,
    InputError,
    ModuleSum,
    RefusalError,
    Uniserial,
    indec_index,
    indecomposables,
    injective,
    simple,
    socle_vertex,
    validate_uniserial,
)

#: refuse exhaustive spectrum enumeration above this many indecomposables
#: unless the caller forces it.  20 puts the hereditary n <= 5 algebras on
#: the fast side and everything from n = 6 up (2^21 closure runs and beyond)
#: behind --force.
OSPEC_REFUSAL_LIMIT = 20


@dataclass(frozen=True)
class IndecSet:
    """A set of indecomposables over a fixed algebra, as a bitmask.

    The bit order is the canonical indecomposable order of the algebra, so
    equal masks mean equal subcategories and unions are bitwise ors.
    """

    algebra: Algebra
    mask: int

    @staticmethod
    def empty(A: Algebra) -> "IndecSet":
        return IndecSet(A, 0)

    @staticmethod
    def full(A: Algebra) -> "IndecSet":
        return IndecSet(A, (1 << len(indecomposables(A))) - 1)

    @staticmethod
    def of(A: Algebra, members: Iterable[Uniserial]) -> "IndecSet":
        index = indec_index(A)
        mask = 0
        for u in members:
            validate_uniserial(A, u)
            mask |= 1 << index[u]
        return IndecSet(A, mask)

    def members(self) -> tuple[Uniserial, ...]:
        indecs = indecomposables(self.algebra)
        return tuple(indecs[k] for k in _bits(self.mask))

    def to_module(self) -> ModuleSum:
        """The multiplicity-free direct sum of the members."""
        return ModuleSum.from_iterable(self.members())

    def __contains__(self, u: Uniserial) -> bool:
        k = indec_index(self.algebra).get(u)
        return k is not None and bool(self.mask >> k & 1)

    def __or__(self, other: "IndecSet") -> "IndecSet":
        self._check_same(other)
        return IndecSet(self.algebra, self.mask | other.mask)

    def __and__(self, other: "IndecSet") -> "IndecSet":
        self._check_same(other)
        return IndecSet(self.algebra, self.mask & other.mask)

    def __le__(self, other: "IndecSet") -> bool:
        self._check_same(other)
        return self.mask | other.mask == other.mask

    def __len__(self) -> int:
        return self.mask.bit_count()

    @property
    def is_full(self) -> bool:
        return self.mask == (1 << len(indecomposables(self.algebra))) - 1

    def _check_same(self, other: "IndecSet") -> None:
        if self.algebra != other.algebra:
            raise InputError("cannot combine indec sets over different algebras")


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------------------------------------------------------------------------
# closure under sub / quotient
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _window_tables(A: Algebra) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(tails, heads) per indec k: bits of its uniserial submodules, chopped
    from the top as (i+r, l-r), and of its quotients, truncated at the socle
    as (i, l-r)."""
    index = indec_index(A)
    tails = []
    heads = []
    for u in indecomposables(A):
        t = h = 0
        for r in range(u.length):
            t |= 1 << index[Uniserial(A.step(u.top_vertex, r), u.length - r)]
            h |= 1 << index[Uniserial(u.top_vertex, u.length - r)]
        tails.append(t)
        heads.append(h)
    return tuple(tails), tuple(heads)


def _union(table: tuple[int, ...], mask: int) -> int:
    out = 0
    for k in _bits(mask):
        out |= table[k]
    return out


@lru_cache(maxsize=None)
def _sub_mask(A: Algebra, mask: int) -> int:
    return _union(_window_tables(A)[0], mask)


@lru_cache(maxsize=None)
def _fac_mask(A: Algebra, mask: int) -> int:
    return _union(_window_tables(A)[1], mask)


def sub_closure(A: Algebra, T: IndecSet) -> IndecSet:
    """All indecomposable submodules of members."""
    return IndecSet(A, _sub_mask(A, T.mask))


def fac_closure(A: Algebra, T: IndecSet) -> IndecSet:
    """All indecomposable quotients of members."""
    return IndecSet(A, _fac_mask(A, T.mask))


# ---------------------------------------------------------------------------
# star and the level chain
# ---------------------------------------------------------------------------


#: Ambient dimension horizon for gap-bit witness searches.  A gap bit counts
#: as a star member only on an explicit extension witness of total dimension
#: at most this; the pairwise floor needs no witness, so the horizon only
#: limits how baroque a liberating direct-sum extension may get.  The full
#: horizon is this dimension, _SEARCH_PIECES summands of the middle,
#: _SEARCH_COPIES summands of its quotient and _SEARCH_HOM_PAIRS canonical
#: maps per surjection search.
STAR_SEARCH_DIM = 12

#: Witness shape caps: summands of the searched middle / of its quotient,
#: and (middle summand, quotient summand) pairs with a nonzero map.
_SEARCH_PIECES = 4
_SEARCH_COPIES = 4
_SEARCH_HOM_PAIRS = 16


@lru_cache(maxsize=None)
def _pair_table(A: Algebra) -> tuple[tuple[int, ...], ...]:
    """table[q][u] = middle-summand bits of the class in Ext^1(q, u), else 0."""
    if not A.is_linear:
        raise InputError("extension closure is implemented for linear shapes only")
    indecs = indecomposables(A)
    index = indec_index(A)
    table: list[tuple[int, ...]] = []
    for v in indecs:  # quotient of the extension
        row = [0] * len(indecs)
        for ui, u in enumerate(indecs):  # submodule
            if ext1_nonzero(A, quot=v, sub=u):
                for w in middle_term(A, quot=v, sub=u).summands:
                    row[ui] |= 1 << index[w]
        table.append(tuple(row))
    return tuple(table)


def _floor_mask(A: Algebra, left: int, right: int) -> int:
    """Members plus pairwise middle summands: a realizable subset of star."""
    table = _pair_table(A)
    out = left | right
    for q in _bits(right):
        row = table[q]
        for u in _bits(left):
            out |= row[u]
    return out


def _ceiling_mask(A: Algebra, left: int, right: int) -> int:
    """Stack-shape bound: every star member is a right-tail over a left-tail."""
    indecs = indecomposables(A)
    index = indec_index(A)
    t_right = _sub_mask(A, right)
    t_left = _sub_mask(A, left)
    out = left | right | t_right | t_left
    for kc in _bits(t_right):
        c_win = indecs[kc]
        a = c_win.top_vertex
        b = a + c_win.length - 1
        room = A.c(a) - c_win.length
        if room <= 0:
            continue
        for ku in _bits(t_left):
            k_win = indecs[ku]
            if k_win.top_vertex == b + 1 and k_win.length <= room:
                out |= 1 << index[Uniserial(a, c_win.length + k_win.length)]
    return out


@lru_cache(maxsize=None)
def _star_hull(A: Algebra, left: int, right: int) -> tuple[int, int]:
    """(floor, hull) with floor ⊆ star(left, right) ⊆ floor | hull.

    hull = stack-shape ceiling cut down by the exact stars of the sub- and
    quotient-closures (closure of a closed set is its floor).  Bits of
    hull \\ floor are exactly the ones needing witness arbitration.
    """
    floor = _floor_mask(A, left, right)
    hull = (
        _ceiling_mask(A, left, right)
        & _floor_mask(A, _sub_mask(A, left), _sub_mask(A, right))
        & _floor_mask(A, _fac_mask(A, left), _fac_mask(A, right))
    )
    return floor, hull


@lru_cache(maxsize=None)
def star_mask(A: Algebra, left: int, right: int) -> int:
    """Exact star on bitmasks: floor, then arbitrate the hull gap."""
    if left == 0 or right == 0:
        return left | right
    floor, hull = _star_hull(A, left, right)
    for k in _bits(hull & ~floor):
        if _realizable(A, left, right, k):
            floor |= 1 << k
    return floor


def star(A: Algebra, left: IndecSet, right: IndecSet) -> IndecSet:
    """One-step extension closure: left-submodule by right-quotient middles."""
    left._check_same(right)
    return IndecSet(A, star_mask(A, left.mask, right.mask))


# ---------------------------------------------------------------------------
# gap arbitration: explicit witness search over F2
# ---------------------------------------------------------------------------


def _rank_f2(rows) -> int:
    rank = 0
    basis: list[int] = []
    for r in rows:
        for b in basis:
            r = min(r, r ^ b)
        if r:
            basis.append(r)
            rank += 1
    return rank


#: Dimension vectors are packed one field per vertex.  A dimension vector
#: under a middle's has fields <= STAR_SEARCH_DIM, one window more adds at
#: most 1, and the field's top bit stays clear as a guard for domination.
_FIELD = (STAR_SEARCH_DIM + 1).bit_length() + 1


def _packed(windows) -> int:
    """Packed dimension vector of a direct sum of windows."""
    return sum(1 << _FIELD * (v - 1) for a, b in windows for v in range(a, b + 1))


def _fits(small: int, big: int, guard: int) -> bool:
    """Componentwise small <= big for packed vectors; guard has every field's
    guard bit.  No field borrows, so a cleared guard bit marks a shortfall."""
    return ((big | guard) - small) & guard == guard


def _left_feasible(u: int, left_at: dict[int, list[int]], guard: int, memo: dict) -> bool:
    """Whether the packed vector u is a sum of left windows: the lowest vertex
    of u must be the top of one of them, and the rest must be feasible."""
    if not u:
        return True
    if u in memo:
        return memo[u]
    pos = ((u & -u).bit_length() - 1) // _FIELD
    ok = any(_fits(w, u, guard) and _left_feasible(u - w, left_at, guard, memo) for w in left_at.get(pos, ()))
    memo[u] = ok
    return ok


def _quotients(right, x_packed: int, dim_x: int, guard: int):
    """Yield (multiset, packed vector) for multisets of 1.._SEARCH_COPIES
    right windows whose vector is <= X's and whose dimension is < dim X, by
    size, then in combinations_with_replacement order.  ``right`` holds
    (window, packed, dimension) sorted by window.  Both conditions only fail
    more as windows are added, so a multiset is extended only while it fits.
    """
    level = [((), 0, 0, 0)]
    for _ in range(_SEARCH_COPIES):
        grown = []
        for multi, packed, dim, first in level:
            for t in range(first, len(right)):
                win, w_packed, w_dim = right[t]
                p = packed + w_packed
                if dim + w_dim < dim_x and _fits(p, x_packed, guard):
                    grown.append((multi + (win,), p, dim + w_dim, t))
        yield from ((multi, packed) for multi, packed, _, _ in grown)
        level = grown


def _onto(X, Vc, chosen) -> bool:
    """Whether g = sum of the chosen canonical maps X_i -> V_j is onto.

    By Nakayama's lemma g is onto iff it is onto modulo radicals.  Top of X_i
    lands in top of V_j only when both windows start at the same vertex, so
    the test is rank |V| of that |V| x |X| matrix over F2.
    """
    cols = [0] * len(X)
    for i, j in chosen:
        if X[i][0] == Vc[j][0]:
            cols[i] |= 1 << j
    return _rank_f2(cols) == len(Vc)


def _kernel_windows(X, Vc, chosen):
    """Yield ((a, b), multiplicity) for the windows of ker g, a then b ascending.

    g is a map of representations, so ker g is graded by vertex: K_v is the
    nullspace of g at v, written over the windows X_i that contain v.  K is a
    sum of windows, so r(a, b) = rank(K_a -> X_b) counts its windows with top
    <= a and end >= b, and K_a -> X_b keeps exactly the windows X_i that
    reach b.  t(b) = r(a, b) - r(a - 1, b) counts K's windows with top a and
    end >= b, and t(b) - t(b + 1) is the multiplicity of [a, b].
    """
    lo = min(a for a, _ in X)
    hi = max(b for _, b in X)
    ker: dict[int, list[int]] = {}
    for v in range(lo, hi + 1):
        cols = [0] * len(X)
        for i, j in chosen:
            if X[i][0] <= v <= Vc[j][1]:
                cols[i] |= 1 << j
        basis: list[tuple[int, int]] = []
        null: list[int] = []
        for i, (a, b) in enumerate(X):
            if a <= v <= b:
                col, combo = cols[i], 1 << i
                for b_col, b_combo in basis:
                    if col ^ b_col < col:
                        col ^= b_col
                        combo ^= b_combo
                if col:
                    basis.append((col, combo))
                else:
                    null.append(combo)
        ker[v] = null
    reach = [0] * (hi + 2)  # reach[v]: the windows X_i that contain v
    for i, (a, b) in enumerate(X):
        for v in range(a, b + 1):
            reach[v] |= 1 << i
    for a in range(lo, hi + 1):
        here, below = ker[a], ker.get(a - 1, ())
        t = len(here) - _rank_f2([k & reach[a] for k in below])
        b = a
        while t:
            t_next = _rank_f2([k & reach[b + 1] for k in here]) - _rank_f2([k & reach[b + 1] for k in below])
            if t > t_next:
                yield (a, b), t - t_next
            t = t_next
            b += 1


def _g_search(X, Vc, left_set) -> bool:
    """Search surjections g: X -> Vc over F2 with ker g in add(left).

    Hom spaces between windows are at most one-dimensional, so every g is a
    0/1 combination of the canonical overlap maps X_i -> V_j.  Only the maps
    between windows with a common top decide surjectivity (``_onto``), so
    those are chosen first and the rest only for a choice that is onto.
    """
    hom_pairs = [
        (i, j)
        for i, (a, b) in enumerate(X)
        for j, (c, d) in enumerate(Vc)
        if c <= a <= d <= b
    ]
    if not hom_pairs or len(hom_pairs) > _SEARCH_HOM_PAIRS:
        return False
    tops = [(i, j) for i, j in hom_pairs if X[i][0] == Vc[j][0]]
    rest = [(i, j) for i, j in hom_pairs if X[i][0] != Vc[j][0]]
    # every copy's top needs a window starting exactly at it, else no g is onto
    if len({j for _, j in tops}) < len(Vc):
        return False
    for size in range(1, len(tops) + 1):
        for top_choice in itertools.combinations(tops, size):
            if not _onto(X, Vc, top_choice):
                continue
            for r in range(len(rest) + 1):
                for rest_choice in itertools.combinations(rest, r):
                    kernel = _kernel_windows(X, Vc, top_choice + rest_choice)
                    if all(win in left_set for win, _ in kernel):  # stops at the first non-left window
                        return True
    return False


@lru_cache(maxsize=None)
def _realizable(A: Algebra, left: int, right: int, w_idx: int) -> bool:
    """Decide one gap bit: is indec ``w_idx`` a summand of the middle of some
    0 -> U -> X -> V -> 0  with U in add(left), V in add(right) and
    dim X <= STAR_SEARCH_DIM?

    Candidate middles are the gap window plus shape-legal pieces; quotient
    candidates are multisets of right windows dominated by the middle's
    dimension vector whose complement is assemblable from left windows.  Each
    surviving pair goes to the F2 surjection search.  Three exact rules keep
    the work per candidate small:

    (a) ``_quotients`` extends a multiset only while it fits under X: adding
        a window never shrinks a dimension vector or a dimension, so a prefix
        that does not fit has no extension that fits.
    (b) ``_onto`` decides surjectivity on tops before any kernel is built:
        g(X) + rad V = V forces g(X) = V (Nakayama's lemma).
    (c) ``_kernel_windows`` reads kernel multiplicities vertex by vertex: a
        map of representations acts vertex by vertex, so its kernel vectors
        are homogeneous in the vertex.
    """
    indecs = indecomposables(A)
    w = indecs[w_idx]
    w_win = (w.top_vertex, w.top_vertex + w.length - 1)
    floor, hull = _star_hull(A, left, right)
    piece_bits = floor | hull
    if not piece_bits >> w_idx & 1:
        return False

    def windows(mask: int):
        return sorted((u.top_vertex, u.top_vertex + u.length - 1) for u in (indecs[k] for k in _bits(mask)))

    pieces = windows(piece_bits)
    left_wins = windows(left)
    left_set = frozenset(left_wins)
    left_at: dict[int, list[int]] = {}  # packed left windows by top field
    for win in left_wins:
        left_at.setdefault(win[0] - 1, []).append(_packed([win]))
    right = [(win, _packed([win]), win[1] - win[0] + 1) for win in windows(right)]
    guard = _packed([(1, A.n)]) << _FIELD - 1
    feas_memo: dict = {}
    for extra in range(_SEARCH_PIECES):
        for combo in itertools.combinations_with_replacement(pieces, extra):
            X = [w_win, *combo]
            dim_x = sum(b - a + 1 for a, b in X)
            if dim_x > STAR_SEARCH_DIM:
                continue
            x_packed = _packed(X)
            for v_multi, v_packed in _quotients(right, x_packed, dim_x, guard):
                if _left_feasible(x_packed - v_packed, left_at, guard, feas_memo) and _g_search(
                    X, v_multi, left_set
                ):
                    return True
    return False


@lru_cache(maxsize=None)
def _bracket_mask(A: Algebra, t_mask: int, n: int) -> int:
    if n == 0:
        return 0
    if n == 1:
        return t_mask
    return star_mask(A, t_mask, _bracket_mask(A, t_mask, n - 1))


def bracket_n(A: Algebra, T: IndecSet, n: int) -> IndecSet:
    """The n-th level [T]_n of the extension-closure chain ([T]_0 is empty)."""
    if n < 0:
        raise InputError(f"closure level must be >= 0, got {n}")
    return IndecSet(A, _bracket_mask(A, T.mask, n))


def generation_time(A: Algebra, T: IndecSet):
    """Least n with [T]_{n+1} = all indecomposables; INFINITE if never reached."""
    full = IndecSet.full(A).mask
    cur = T.mask
    level = 1
    while cur != full:
        nxt = star_mask(A, T.mask, cur)
        if nxt == cur:
            return INFINITE
        cur = nxt
        level += 1
    return level - 1


def is_strong_generator(A: Algebra, T: IndecSet) -> bool:
    """Whether T generates everything in finitely many extension steps.

    Fast rejection first: the tops and socles of a strong generator must
    cover every vertex (extensions never create new tops or socles).
    """
    top_bit, soc_bit, _ = _enumeration_tables(A)
    tops = socs = 0
    for k in _bits(T.mask):
        tops |= top_bit[k]
        socs |= soc_bit[k]
    all_vertices = (1 << A.n) - 1
    if tops != all_vertices or socs != all_vertices:
        return False
    return generation_time(A, T) is not INFINITE


# ---------------------------------------------------------------------------
# spectrum enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrlovResult:
    """Outcome of the exhaustive spectrum enumeration over one algebra."""

    algebra: Algebra
    spectrum: frozenset[int]
    ext_dim: int
    u_dim: int
    witnesses: dict[int, ModuleSum]  # time -> a smallest-mask generator achieving it


@lru_cache(maxsize=None)
def _enumeration_tables(A: Algebra):
    """Static data for subset enumeration: coverage bits and forced summands.

    Any strong generator must contain every projective simple and every
    injective simple (a simple admits no nonsplit self-assembly, so it enters
    a closure only through add T), and its tops/socles must cover all
    vertices.  These are sound prunes; closure runs decide the rest.
    """
    indecs = indecomposables(A)
    top_bit = tuple(1 << (u.top_vertex - 1) for u in indecs)
    soc_bit = tuple(1 << (socle_vertex(A, u) - 1) for u in indecs)
    index = indec_index(A)
    required = 0
    for i in range(1, A.n + 1):
        s = simple(A, i)
        if A.c(i) == 1:  # projective simple
            required |= 1 << index[s]
        if injective(A, i) == s:  # injective simple
            required |= 1 << index[s]
    return top_bit, soc_bit, required


def _scan_masks(A: Algebra, sub_lo: int, sub_hi: int):
    """Enumerate generator candidates with optional-part index in [sub_lo, sub_hi).

    Returns (times_seen, {time: smallest full mask achieving it}).
    """
    top_bit, soc_bit, required = _enumeration_tables(A)
    count = len(indecomposables(A))
    optional = [k for k in range(count) if not required >> k & 1]
    all_vertices = (1 << A.n) - 1
    times: set[int] = set()
    witness: dict[int, int] = {}
    req_tops = req_socs = 0
    for k in _bits(required):
        req_tops |= top_bit[k]
        req_socs |= soc_bit[k]
    for sub in range(sub_lo, sub_hi):
        mask = required
        tops, socs = req_tops, req_socs
        rest = sub
        while rest:
            low = rest & -rest
            k = optional[low.bit_length() - 1]
            rest ^= low
            mask |= 1 << k
            tops |= top_bit[k]
            socs |= soc_bit[k]
        if tops != all_vertices or socs != all_vertices:
            continue
        t = generation_time(A, IndecSet(A, mask))
        if t is INFINITE:
            continue
        times.add(t)
        if t not in witness or mask < witness[t]:
            witness[t] = mask
    return times, witness


def _scan_chunk(args):
    A, lo, hi = args
    return _scan_masks(A, lo, hi)


def orlov_spectrum(A: Algebra, force: bool = False, jobs: int = 1) -> OrlovResult:
    """Exhaustive generation-time spectrum over multiplicity-free subsets.

    Witnesses are deterministic (smallest bitmask per time), also across
    parallel runs: chunk minima merge to the global minimum.
    """
    indecs = indecomposables(A)
    if len(indecs) > OSPEC_REFUSAL_LIMIT and not force:
        raise RefusalError(
            f"{len(indecs)} indecomposables means 2^{len(indecs)} candidate subsets; "
            "pass force=True (CLI: --force) to run anyway"
        )
    _, _, required = _enumeration_tables(A)
    free = len(indecs) - required.bit_count()
    total = 1 << free
    if jobs <= 1 or total < 1 << 12:
        times, witness = _scan_masks(A, 0, total)
    else:
        chunk = -(-total // jobs)
        bounds = [(A, lo, min(lo + chunk, total)) for lo in range(0, total, chunk)]
        times = set()
        witness = {}
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for part_times, part_witness in pool.map(_scan_chunk, bounds):
                times |= part_times
                for t, mask in part_witness.items():
                    if t not in witness or mask < witness[t]:
                        witness[t] = mask
    if not times:
        raise InputError("no strong generators found; the enumeration filters are broken")
    witnesses = {t: IndecSet(A, mask).to_module() for t, mask in witness.items()}
    return OrlovResult(
        algebra=A,
        spectrum=frozenset(times),
        ext_dim=min(times),
        u_dim=max(times),
        witnesses=witnesses,
    )


# ---------------------------------------------------------------------------
# subset lemmas (sanity layer used by tests and the verify command)
# ---------------------------------------------------------------------------


def verify_subset_lemmas(
    A: Algebra,
    *,
    exhaustive_pair_limit: int = 6,
    samples: int = 2000,
    seed: int = 20260814,
) -> list[str]:
    """Check the closure-calculus lemmas on A; returns a list of violations.

    * composition:  star([T1]_m, [T2]_k)  ⊆  [T1 ∪ T2]_{m+k}
    * monotone absorption:  generation_time(X ∪ Y) <= generation_time(X)
    * spectrum membership: if [T]_{n+1} is everything but [T]_n is not,
      then n is a generation time (witnessed by T itself).

    Pair checks run exhaustively when the algebra has at most
    ``exhaustive_pair_limit`` indecomposables, else on a seeded sample.
    """
    violations: list[str] = []
    count = len(indecomposables(A))
    full = (1 << count) - 1
    rng = random.Random(seed)
    if count <= exhaustive_pair_limit:
        pairs = [(t1, t2) for t1 in range(1, full + 1) for t2 in range(1, full + 1)]
    else:
        pairs = [(rng.randrange(1, full + 1), rng.randrange(1, full + 1)) for _ in range(samples)]
    for t1, t2 in pairs:
        for m, k in ((1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1)):
            left = _bracket_mask(A, t1, m)
            right = _bracket_mask(A, t2, k)
            combined = _bracket_mask(A, t1 | t2, m + k)
            # Bound-first containment: floor ⊆ star ⊆ floor|hull, so a clean
            # floor plus an absorbed hull settles the pair without arbitration.
            floor, hull = _star_hull(A, left, right)
            if (floor | hull) | combined == combined:
                continue
            if floor | combined == combined:
                got = star_mask(A, left, right)
                if got | combined == combined:
                    continue
            violations.append(
                f"composition failure: [{t1:#x}]_{m} * [{t2:#x}]_{k} not within [{t1 | t2:#x}]_{m + k}"
            )
    single_sets = (
        [t for t in range(1, full + 1)] if count <= exhaustive_pair_limit
        else [rng.randrange(1, full + 1) for _ in range(samples)]
    )
    for t in single_sets:
        gt = generation_time(A, IndecSet(A, t))
        for extra in (rng.randrange(full + 1) for _ in range(4)):
            gt_bigger = generation_time(A, IndecSet(A, t | extra))
            if not gt_bigger <= gt:
                violations.append(f"absorption failure: time({t | extra:#x}) > time({t:#x})")
        if gt is not INFINITE and gt >= 1:
            lower = _bracket_mask(A, t, gt)
            if lower == full:
                violations.append(f"level failure: [{t:#x}]_{gt} already everything but time is {gt}")
    return violations
