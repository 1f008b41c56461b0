"""Extension closures, generation times, and Orlov spectra (linear shapes).

Subcategories here are add-closed classes of modules, so they are determined
by a set of indecomposables; ``IndecSet`` stores one as a bitmask over the
algebra's indecomposable list.  The one-step closure of two classes is

    star(left, right) = summands of middles of  0 -> u -> E -> v -> 0,
                        u in add(left), v in add(right)

(split extensions included, so members of either side stay in).  Extensions
of direct sums can liberate summands that no single pair of uniserials
produces, so star is computed exactly from two bounds and a search:

* floor - members plus the middle summands of the pairwise nonzero classes
  (merged window + overlap window); every floor bit is realizable.  Only
  about 15% of the (quotient, submodule) pairs have a nonzero class (15 of
  100 on linear4, 70 of 441 on linear6), so `_ext_pairs` keeps, per
  submodule u, just the quotients q with Ext^1(q, u) != 0 and their middle
  bits, and the floor walks the left bits through those lists.  Above
  PAIR_TABLE_LIMIT (quotient, submodule) pairs star is refused before the
  table is built.
* hull - star is monotone under sub-/quotient-closure of both sides, and on
  closed sides the floor is the whole answer, so star(L, R) lies in
  hull = floor(Sub L, Sub R) & floor(Fac L, Fac R).  The floor lies in the
  hull: it is monotone in both sides, and L ⊆ Sub L, L ⊆ Fac L (likewise R).
  No stack-shape bound (a middle summand is a right tail stacked on a left
  tail, either part possibly empty) cuts the hull, since the Sub-floor is
  made of such stacks.  Members of Sub L and Sub R are, with one part empty.
  A nonzero class of q = [a, b] in Sub R by u = [c, d] in Sub L has
  a < c <= b + 1 <= d <= a + c_a - 1 and middle M[a, d] + M[c, b]; M[c, b]
  is a tail of q, and M[a, d] stacks q on [b + 1, d], a tail of u as
  c <= b + 1, which fits as d - b <= c_a - (b - a + 1).
* hom support - a summand of a middle that is in neither side receives a
  nonzero map from the left side and sends one to the right side.  Take
  0 -> U -> E -> V -> 0 with U in add(left), V in add(right), and W an
  indecomposable summand of E with projection p: E -> W and inclusion
  i: W -> E, p i = id.  Let g: E -> V be the quotient map.  If W is not in
  add(right) and every map from a summand of U to W is zero, p kills
  U = ker g, so p = q g for some q: V -> W; then q (g i) = id, so W is a
  summand of V, hence in add(right) by Krull-Schmidt: a contradiction.
  Dually, if W is not in add(left) and every map from W to a summand of V
  is zero, g i = 0, so i lands in U and W is a summand of U.  The proof
  uses only exactness and Krull-Schmidt, so it holds with relations too.
  The floor contains left | right, so no gap bit lies in either side, and
  a gap bit w with no u in left having Hom(u, w) != 0, or no v in right
  having Hom(w, v) != 0, is refuted with no search.  `_hom_support` holds
  the two masks per w, from the line's rule Hom([a, b], [c, d]) != 0 iff
  c <= a <= d <= b.
* witness table - each witness the search below finds is kept per algebra
  (`_witness_table`): under gap bit w, the pair (k, v) of indecomposable
  masks of the windows of ker g (a minimal kernel window set, rule d) and of
  the quotient V.  A later gap bit w of (left, right) is set with no search
  when some kept (k, v) has k ⊆ left and v ⊆ right.  This is exact: the kept
  sequence 0 -> ker g -> X -> V -> 0 has ker g in add(k) ⊆ add(left) and V
  in add(v) ⊆ add(right), so it is itself a witness for (left, right).  It
  also lies inside the search's horizon for (left, right).  The search met
  (X, V) as a candidate, and its conditions on a candidate depend on X and
  V alone (shape caps, dimensions, rule b) except for three, which hold
  here: the summands of X lie in star(k, v) ⊆ star(left, right) ⊆ hull;
  the windows of V lie in v ⊆ right; and ker g, a sum of windows of k,
  makes the dimension vector of X minus V's a sum of left windows, while
  k, a minimal kernel set of (X, V) inside the left set, passes rule (d).
  So the search would return True as well, and every decision is the one
  the search makes.
* gap bits (hull minus floor) that the hom-support rule leaves are decided
  one by one by an explicit witness search over F2 (`_realizable`),
  memoised per (left, right, bit).  Four exact rules bound its work per
  candidate.  Hom spaces between windows are at most one-dimensional, so a
  map g: X -> V is a 0/1 combination of the canonical maps X_i -> V_j, one
  bitmask C_i per summand X_i = [a_i, b_i]: the copies V_j = [c_j, d_j] it
  maps to, a submask of allowed_i = {j : c_j <= a_i <= d_j <= b_i}.
  (a) quotient multisets grow only while their dimension vector stays under
      the middle's and their dimension below it; both conditions are
      monotone in the multiset, so pruning at a prefix loses no candidate;
  (b) g is onto iff it is onto on tops (Nakayama's lemma), a rank test on
      the maps between windows with a common top vertex: g is onto iff the
      C_i & top_i have rank |V| over F2, where top_i = {j in allowed_i :
      c_j = a_i}.  A nonzero map [a, b] -> [c, d] needs c <= a <= d <= b,
      and its image [a, d] holds the top of [c, d] only when a = c.  So if
      no window [a, b] of X has a = c and d <= b, every g maps X into
      rad [c, d] plus the other copies, no g is onto, and every multiset
      holding [c, d] is refuted.  Such windows are dropped from the quotient
      alphabet before (a) walks it; (a)'s conditions concern only the
      windows kept, so its pruning stays exact;
  (c) the kernel windows come from nullity increments, with no nullspace
      vectors.  The canonical map [a_i, b_i] -> [c_j, d_j] is nonzero
      exactly at the vertices of [a_i, d_j], so at a vertex v in X_i the
      column of g_v at X_i is C_i & D_v, with D_v = {j : d_j >= v}.  Let
      N_v(b) be the nullity of g_v restricted to the windows of X that
      contain v and end before b.  For v <= b the structure map X_v -> X_b
      kills exactly those windows and is injective on the others, so the
      kernel of K_v -> X_b (K = ker g) is the nullspace of that restriction
      and rank(K_v -> X_b) = N_v(inf) - N_v(b).  K is a sum of windows and
      K_b lies in X_b, so that rank counts the windows of K with top <= v
      and end >= b.  Inclusion-exclusion over top <= a versus top <= a - 1
      and end >= b versus end >= b + 1 gives the multiplicity of [a, b] in
      K; the N_v(inf) terms cancel, leaving
      mult[a, b] = dN_a(b) - dN_{a-1}(b), with dN_v(b) = N_v(b+1) - N_v(b).
      Eliminating the columns of the windows at v in order of end, the
      nullity of the windows ending before b is the number of columns among
      them that depend on earlier ones, so dN_v(b) is the number of
      dependent columns among the windows ending at b: one incremental
      elimination per vertex yields every dN_v;
  (d) whether a surjection g: X -> V with ker g in add(left) exists depends
      only on the multisets X and V and on the left set: the maps g are the
      same for any order of the summands, and left enters only through the
      test "the window set of ker g lies in the left set".  Every window
      set contains one that is minimal under inclusion among those of the
      onto g, and each minimal set is some g's, so the test passes for some
      g iff some minimal set lies in the left set.  The minimal sets of
      (X, V) are enumerated once (`_kernel_sets`) for every left set.  X has
      at most _SEARCH_PIECES summands and V at most _SEARCH_COPIES, so the
      enumeration runs over at most 16 canonical maps and needs no cap.

Levels are the chain [T]_1 = add T, [T]_k = star([T]_1, [T]_{k-1}), which is
monotone and stabilises after at most #indecomposables steps.  One walk
(`_walk`) computes each level once, up to the stable level; `_chain` keeps
it per T for `bracket_n` and the level checks.

generation_time(T) is the least n with [T]_{n+1} = everything (INFINITE if
the chain stabilises short of that); the spectrum of such times over all
multiplicity-free strong generators has min = the extension dimension and
max = the Orlov-style upper dimension.

The spectrum scan visits one member of each orbit {T, DT} of the vertex
reversal.  Let D = Hom_k(-, k) followed by renaming vertex i as n + 1 - i.
It sends window [a, b] to [n + 1 - b, n + 1 - a]; when that permutes A's
indecomposables (`_dual_table` is not None: hereditary lines and relations
the reversal fixes), D is an exact contravariant involution of mod A.

1. D turns 0 -> U -> E -> V -> 0 into 0 -> DV -> DE -> DU -> 0, and D is
   a bijection on short exact sequences, so star(L, R) = D star(DR, DL).
2. Star is associative up to summands: writing X*Y for the middles of
   extensions of add Y by add X and smd for summands,
   smd(smd(X*Y)*Z) = smd(X*Y*Z) = smd(X*smd(Y*Z)).  If W + W' lies in
   X*Y and 0 -> W -> F -> Z -> 0 is exact, so is
   0 -> W + W' -> F + W' -> Z -> 0, and F is a summand of F + W'.
   Dually, 0 -> X -> F -> W -> 0 with W + W' in Y*Z gives
   0 -> X -> F + W' -> W + W' -> 0.  The tests `test_star_associative_*`
   check this on the engine.
3. So [T]_k = smd(T*...*T) (k factors) in either bracketing, and by
   induction D[T]_k = D star([T]_1, [T]_{k-1}) = star(D[T]_{k-1}, D[T]_1)
   = star([DT]_{k-1}, [DT]_1) = [DT]_k.  D fixes the full set, hence
   gt(DT) = gt(T).
4. `_scan_masks` skips T when mask(DT) < mask(T).  Each time class is
   closed under D, so its smallest mask m has mask(Dm) >= m and is never
   skipped: times and witnesses are those of the full scan.  The rule
   reads one subset at a time, so it does not depend on how the subsets
   are cut into chunks for ``jobs``.

On relation algebras the engine refutes gap bits by the capped search of
`_realizable`, which caps quotient copies but not submodule copies, a
shape that D does not preserve.  There the engine's answers are
D-invariant only as far as that search is complete (ROADMAP item 5);
`test_scan_duality_skip_is_exact` pins gt(T) = gt(DT) on every subset of
linear4 with relation (1,3).
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .homext import _linear_hom_dim, ext1_nonzero, middle_term
from .nakayama import (
    INFINITE,
    Algebra,
    InputError,
    ModuleSum,
    RefusalError,
    Uniserial,
    _is_int,
    indec_index,
    indecomposables,
    injective,
    socle_vertex,
    validate_uniserial,
)

#: refuse exhaustive spectrum enumeration above this many indecomposables
#: unless the caller forces it.  20 puts the hereditary n <= 5 algebras on
#: the fast side and everything from n = 6 up (21 indecomposables, of which
#: 2 are forced simples: 2^19 closure runs, and beyond) behind --force.
OSPEC_REFUSAL_LIMIT = 20

#: refuse star, and so every closure level, when the ext-pair table would
#: walk more than this many (quotient, submodule) pairs, count^2 for count
#: indecomposables.  Measured building it on one core (2-vCPU Xeon VM,
#: Python 3.11): linear26 (351 indecomposables, 123,201 pairs, 20,475 of
#: them nonzero) 0.31 s and +3 MB, linear27 (378, 142,884) 0.34-0.39 s and
#: +4 MB, linear40 (820, 672,400) 1.3-1.8 s and +24 MB.
PAIR_TABLE_LIMIT = 1 << 17


@dataclass(frozen=True)
class IndecSet:
    """A set of indecomposables over a fixed algebra, as a bitmask.

    The bit order is the canonical indecomposable order of the algebra, so
    equal masks mean equal subcategories and unions are bitwise ors.
    """

    algebra: Algebra
    mask: int

    def __post_init__(self) -> None:
        # A Nakayama algebra's indecomposables are the uniserials (i, l) with
        # l <= c_i, so their count is the sum of the Kupisch entries.
        count = self.algebra.dimension
        if not _is_int(self.mask) or self.mask < 0 or self.mask >> count:
            raise InputError(f"mask {self.mask!r} is not a set of the {count} indecomposables")

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


def _check_algebra(A: Algebra, T: IndecSet) -> None:
    """Refuse a set built over another algebra: its mask indexes that
    algebra's indecomposables, so read over A it names other modules."""
    if T.algebra != A:
        raise InputError(f"indec set over {T.algebra!r} passed with {A!r}")


def _check_linear(A: Algebra) -> None:
    if not A.is_linear:
        raise InputError("extension closure is implemented for linear shapes only")


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
    _check_algebra(A, T)
    return IndecSet(A, _sub_mask(A, T.mask))


def fac_closure(A: Algebra, T: IndecSet) -> IndecSet:
    """All indecomposable quotients of members."""
    _check_algebra(A, T)
    return IndecSet(A, _fac_mask(A, T.mask))


# ---------------------------------------------------------------------------
# star and the level chain
# ---------------------------------------------------------------------------


#: Ambient dimension horizon for gap-bit witness searches.  A gap bit counts
#: as a star member only on an explicit extension witness of total dimension
#: at most this; the pairwise floor needs no witness, so the horizon only
#: limits how baroque a liberating direct-sum extension may get.  The full
#: horizon is this dimension, _SEARCH_PIECES summands of the middle and
#: _SEARCH_COPIES summands of its quotient.  These two also bound the
#: canonical maps of a surjection search by their product, 16.
STAR_SEARCH_DIM = 12

#: Witness shape caps: summands of the searched middle / of its quotient.
_SEARCH_PIECES = 4
_SEARCH_COPIES = 4


def _refuse_pair_table(count: int) -> None:
    """Refuse star on count indecomposables when `_ext_pairs` would walk
    more than PAIR_TABLE_LIMIT (quotient, submodule) pairs."""
    if count * count > PAIR_TABLE_LIMIT:
        raise RefusalError(
            f"{count} indecomposables make the ext-pair table check {count}^2 = {count * count:,} "
            f"(quotient, submodule) entries, above the limit of {PAIR_TABLE_LIMIT:,}"
        )


@lru_cache(maxsize=None)
def _ext_pairs(A: Algebra) -> tuple[tuple[tuple[int, int], ...], ...]:
    """pairs[u] = ((bit of q, middle-summand bits), ...), one entry per
    quotient q with Ext^1(q, u) != 0, in index order of q."""
    _check_linear(A)
    _refuse_pair_table(A.dimension)  # the number of indecomposables, none built yet
    indecs = indecomposables(A)
    index = indec_index(A)
    pairs = []
    for u in indecs:  # submodule
        row = []
        for qi, q in enumerate(indecs):  # quotient of the extension
            if ext1_nonzero(A, quot=q, sub=u):
                middle = 0
                for w in middle_term(A, quot=q, sub=u).summands:
                    middle |= 1 << index[w]
                row.append((1 << qi, middle))
        pairs.append(tuple(row))
    return tuple(pairs)


@lru_cache(maxsize=None)
def _hom_support(A: Algebra) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(into, out): into[w] has the bits of the u with Hom(u, w) != 0, out[w]
    those of the v with Hom(w, v) != 0."""
    indecs = indecomposables(A)
    into = [0] * len(indecs)
    out = [0] * len(indecs)
    for ui, u in enumerate(indecs):
        for wi, w in enumerate(indecs):
            if _linear_hom_dim(u, w):
                into[wi] |= 1 << ui
                out[ui] |= 1 << wi
    return tuple(into), tuple(out)


def _floor_mask(A: Algebra, left: int, right: int) -> int:
    """Members plus pairwise middle summands: a realizable subset of star.
    Each left bit u adds the middles of its nonzero classes whose quotient
    lies in right; a left bit past the last indecomposable raises
    IndexError."""
    pairs = _ext_pairs(A)
    out = left | right
    while left:
        low = left & -left
        for q, middle in pairs[low.bit_length() - 1]:
            if q & right:
                out |= middle
        left ^= low
    return out


@lru_cache(maxsize=None)
def _star_hull(A: Algebra, left: int, right: int) -> tuple[int, int]:
    """(floor, hull) with floor ⊆ star(left, right) ⊆ hull, where hull is
    the exact stars of the sub- and quotient-closures (their floors),
    intersected.  The module docstring proves floor ⊆ hull and that a
    stack-shape bound would cut nothing from it.  Bits of hull \\ floor are
    exactly the ones needing witness arbitration.  The three floors each
    walk the bits of their own left side, so the Sub and Fac floors, whose
    left sides are closed, cost the most.
    """
    floor = _floor_mask(A, left, right)
    sub_floor = _floor_mask(A, _sub_mask(A, left), _sub_mask(A, right))
    return floor, sub_floor & _floor_mask(A, _fac_mask(A, left), _fac_mask(A, right))


@lru_cache(maxsize=None)
def _witness_table(A: Algebra) -> dict[int, set[tuple[int, int]]]:
    """Per gap bit w, the (kernel, quotient) indecomposable masks of every
    witness `_realizable` has found for w on A (module docstring)."""
    return {}


@lru_cache(maxsize=None)
def star_mask(A: Algebra, left: int, right: int) -> int:
    """Exact star on bitmasks: floor, then arbitrate the hull gap.  A gap
    bit is refuted by hom support, else set when a kept witness fits inside
    (left, right), else decided by the witness search."""
    if left == 0 or right == 0:
        return left | right
    floor, hull = _star_hull(A, left, right)
    gap = hull & ~floor
    if gap:
        into, out = _hom_support(A)
        witnesses = _witness_table(A)
        for k in _bits(gap):
            if into[k] & left and out[k] & right and (
                any(ker & ~left == 0 and quo & ~right == 0 for ker, quo in witnesses.get(k, ()))
                or _realizable(A, left, right, k, hull)
            ):
                floor |= 1 << k
    return floor


def star(A: Algebra, left: IndecSet, right: IndecSet) -> IndecSet:
    """One-step extension closure: left-submodule by right-quotient middles."""
    _check_algebra(A, left)
    _check_algebra(A, right)
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


def _quotients(right, X, x_packed: int, dim_x: int, guard: int):
    """Yield (multiset, packed vector) for multisets of 1.._SEARCH_COPIES
    right windows whose vector is <= X's and whose dimension is < dim X, by
    size, then in combinations_with_replacement order.  ``right`` holds
    (window, packed, dimension) sorted by window.  Both conditions only fail
    more as windows are added, so a multiset is extended only while it fits.
    Only the right windows [c, d] covered from the top by a window [a, b] of
    X (a = c, d <= b) are used: no map from X is onto any other (rule b).
    """
    right = [r for r in right if any(a == r[0][0] and r[0][1] <= b for a, b in X)]
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


def _window_bit(a: int, b: int) -> int:
    """The bit of window [a, b] in a kernel-set mask.  b(b+1)/2 + a is
    injective on 1 <= a <= b, whatever the number of vertices."""
    return 1 << (b * (b + 1) // 2 + a)


def _map_plan(X, Vc):
    """(allowed, top, vertices) for the maps g: X -> Vc written as one
    bitmask C_i of copies per summand X_i (module docstring, rules b, c).

    allowed[i] and top[i] are the copies X_i may map to and those sharing
    its top vertex.  vertices holds, for each vertex v from the lowest top
    of X to its highest end, D_v and the windows of X containing v grouped
    by end, ascending, as (end, bit of the window [v, end], summands).
    """
    allowed, top = [], []
    for a, b in X:
        m = t = 0
        for j, (c, d) in enumerate(Vc):
            if c <= a <= d <= b:
                m |= 1 << j
                if c == a:
                    t |= 1 << j
        allowed.append(m)
        top.append(t)
    vertices = []
    for v in range(min(a for a, _ in X), max(b for _, b in X) + 1):
        d_v = 0
        for j, (_, d) in enumerate(Vc):
            if d >= v:
                d_v |= 1 << j
        by_end: dict[int, list[int]] = {}
        for i, (a, b) in enumerate(X):
            if a <= v <= b:
                by_end.setdefault(b, []).append(i)
        vertices.append((d_v, tuple((e, _window_bit(v, e), tuple(by_end[e])) for e in sorted(by_end))))
    return tuple(allowed), tuple(top), tuple(vertices)


def _kernel_mask(vertices, C) -> int:
    """The ``_window_bit``s of the windows of ker g, for g given by C
    (rule c): [v, b] is a window iff dN_v(b) > dN_{v-1}(b)."""
    mask = 0
    below: dict[int, int] = {}  # dN_{v-1}
    for d_v, groups in vertices:
        basis: list[int] = []
        here: dict[int, int] = {}
        for end, bit, summands in groups:
            dependent = 0
            for i in summands:
                col = C[i] & d_v
                for e in basis:
                    if col ^ e < col:
                        col ^= e
                if col:
                    basis.append(col)
                else:
                    dependent += 1
            if dependent:
                here[end] = dependent
                if dependent > below.get(end, 0):
                    mask |= bit
        below = here
    return mask


def _submasks(mask: int) -> list[int]:
    """Every submask of mask, largest first."""
    out = [mask]
    sub = mask
    while sub:
        sub = (sub - 1) & mask
        out.append(sub)
    return out


@lru_cache(maxsize=None)
def _kernel_sets(X, Vc) -> tuple[int, ...]:
    """The inclusion-minimal window sets of ker g over all surjections
    g: X -> Vc, as masks of ``_window_bit``s (rule d).

    The top parts of C decide surjectivity (rule b), so they are chosen
    first and the rest only for a choice that is onto.
    """
    allowed, top, vertices = _map_plan(X, Vc)
    rest_choices = [_submasks(m & ~t) for m, t in zip(allowed, top)]
    found: set[int] = set()
    for tops in itertools.product(*map(_submasks, top)):
        if _rank_f2(tops) != len(Vc):
            continue
        for rests in itertools.product(*rest_choices):
            found.add(_kernel_mask(vertices, [t | r for t, r in zip(tops, rests)]))
    return tuple(sorted(k for k in found if not any(m != k and m & ~k == 0 for m in found)))


@lru_cache(maxsize=None)
def _realizable(A: Algebra, left: int, right: int, w_idx: int, hull: int) -> bool:
    """Decide one gap bit: is indec ``w_idx`` a summand of the middle of some
    0 -> U -> X -> V -> 0  with U in add(left), V in add(right) and
    dim X <= STAR_SEARCH_DIM?  ``hull`` is ``_star_hull(A, left, right)[1]``,
    which the caller already holds.

    Candidate middles are the gap window plus pieces from the hull; quotient
    candidates are multisets of right windows dominated by the middle's
    dimension vector whose complement is assemblable from left windows.  Each
    surviving pair goes to the F2 surjection search.  Four exact rules keep
    the work per candidate small (proofs in the module docstring):

    (a) ``_quotients`` extends a multiset only while it fits under X: adding
        a window never shrinks a dimension vector or a dimension, so a prefix
        that does not fit has no extension that fits.
    (b) surjectivity is decided on tops before any kernel is built:
        g(X) + rad V = V forces g(X) = V (Nakayama's lemma).  A nonzero map
        [a, b] -> [c, d] needs c <= a <= d <= b, and its image [a, d] holds
        the top of [c, d] only if a = c.  So ``_quotients`` first drops every
        right window [c, d] with no window [a, b] of X such that a = c and
        d <= b: no g is onto a multiset holding it.  (a) prunes the windows
        kept by conditions on them alone, so it stays exact.
    (c) ``_kernel_mask`` reads the kernel windows of a map from one
        incremental elimination per vertex, taking the windows of X in order
        of end: [a, b] is a kernel window iff more columns of windows ending
        at b are dependent at a than at a - 1.
    (d) the answer comes from the minimal kernel window sets of (X, V),
        enumerated once per sorted X and V whatever the left set
        (``_kernel_sets``): some g has ker g in add(left) iff some minimal
        set lies in the left set.

    A realized bit adds the witness found, as the indecomposable masks of
    that minimal set and of V's windows, to ``_witness_table(A)[w_idx]``,
    from which ``star_mask`` decides later bits with no search.  The search
    itself never reads the table, so its answer depends on its arguments
    alone.
    """
    indecs = indecomposables(A)
    w = indecs[w_idx]
    w_win = (w.top_vertex, w.top_vertex + w.length - 1)
    if not hull >> w_idx & 1:
        return False

    def windows(mask: int):
        return sorted((u.top_vertex, u.top_vertex + u.length - 1) for u in (indecs[k] for k in _bits(mask)))

    pieces = windows(hull)
    left_wins = windows(left)
    left_mask = sum(_window_bit(a, b) for a, b in left_wins)  # distinct windows
    left_at: dict[int, list[int]] = {}  # packed left windows by top field
    for win in left_wins:
        left_at.setdefault(win[0] - 1, []).append(_packed([win]))
    right = [(win, _packed([win]), win[1] - win[0] + 1) for win in windows(right)]
    guard = _packed([(1, A.n)]) << _FIELD - 1
    feas_memo: dict = {}
    for extra in range(_SEARCH_PIECES):
        for combo in itertools.combinations_with_replacement(pieces, extra):
            X = tuple(sorted((w_win, *combo)))
            dim_x = sum(b - a + 1 for a, b in X)
            if dim_x > STAR_SEARCH_DIM:
                continue
            x_packed = _packed(X)
            for v_multi, v_packed in _quotients(right, X, x_packed, dim_x, guard):
                if not _left_feasible(x_packed - v_packed, left_at, guard, feas_memo):
                    continue
                for k in _kernel_sets(X, v_multi):
                    if k & ~left_mask == 0:
                        kernel = [win for win in left_wins if _window_bit(*win) & k]
                        witness = (_indec_mask(A, kernel), _indec_mask(A, v_multi))
                        _witness_table(A).setdefault(w_idx, set()).add(witness)
                        return True
    return False


def _indec_mask(A: Algebra, windows) -> int:
    """The indecomposable mask of the distinct windows [a, b] in windows."""
    index = indec_index(A)
    mask = 0
    for a, b in windows:
        mask |= 1 << index[Uniserial(a, b - a + 1)]
    return mask


def _walk(A: Algebra, t_mask: int):
    """Yield [T]_1, [T]_2, ... up to the stable level: the first that star
    leaves unchanged, or the full set, whose star is never asked for."""
    full = (1 << A.dimension) - 1
    cur = t_mask
    yield cur
    while cur != full:
        nxt = star_mask(A, t_mask, cur)
        if nxt == cur:
            return
        cur = nxt
        yield cur


@lru_cache(maxsize=None)
def _chain(A: Algebra, t_mask: int) -> tuple[int, ...]:
    """([T]_1, ..., [T]_s) with s the stable level, walked once per T."""
    return tuple(_walk(A, t_mask))


def _level(A: Algebra, t_mask: int, n: int) -> int:
    """[T]_n as a mask; [T]_0 is empty and [T]_n = [T]_s for n >= s."""
    if n == 0:
        return 0
    chain = _chain(A, t_mask)
    return chain[min(n, len(chain)) - 1]


def bracket_n(A: Algebra, T: IndecSet, n: int) -> IndecSet:
    """The n-th level [T]_n of the extension-closure chain ([T]_0 is empty)."""
    if not _is_int(n) or n < 0:
        raise InputError(f"closure level must be an integer >= 0, got {n!r}")
    _check_algebra(A, T)
    return IndecSet(A, _level(A, T.mask, n))


def generation_time(A: Algebra, T: IndecSet):
    """Least n with [T]_{n+1} = all indecomposables; INFINITE if never
    reached.  The spectrum scan asks once per T, so the walk is not kept."""
    _check_algebra(A, T)
    full = IndecSet.full(A).mask
    for n, level in enumerate(_walk(A, T.mask)):
        if level == full:
            return n
    return INFINITE


def is_strong_generator(A: Algebra, T: IndecSet) -> bool:
    """Whether T generates everything in finitely many extension steps.

    Fast rejection first: the tops and socles of a strong generator must
    cover every vertex (extensions never create new tops or socles).
    """
    _check_algebra(A, T)
    top_bit, soc_bit, _ = _enumeration_tables(A)
    all_vertices = (1 << A.n) - 1
    if _union(top_bit, T.mask) != all_vertices or _union(soc_bit, T.mask) != all_vertices:
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
    required = sum(1 << index[Uniserial(i, 1)] for i in _forced_vertices(A))
    return top_bit, soc_bit, required


def _forced_vertices(A: Algebra) -> list[int]:
    """The vertices whose simple is projective (P(i) has length 1) or
    injective (I(i) has length 1)."""
    return [i for i in range(1, A.n + 1) if A.c(i) == 1 or injective(A, i).length == 1]


@lru_cache(maxsize=None)
def _dual_table(A: Algebra) -> tuple[int, ...] | None:
    """table[k] = the bit of D(indec k), window [a, b] to [n+1-b, n+1-a];
    None unless the reversal maps A's indecomposables to themselves."""
    if not A.is_linear:
        return None
    index = indec_index(A)
    table = []
    for u in indecomposables(A):
        k = index.get(Uniserial(A.n + 2 - u.top_vertex - u.length, u.length))
        if k is None:
            return None
        table.append(1 << k)
    return tuple(table)


def _scan_masks(A: Algebra, sub_lo: int, sub_hi: int):
    """Enumerate generator candidates with optional-part index in [sub_lo, sub_hi).

    A candidate T is skipped when mask(DT) < mask(T): gt(DT) = gt(T), and
    the module docstring shows the skip keeps every time and witness.
    Returns (times_seen, {time: smallest full mask achieving it}).
    """
    top_bit, soc_bit, required = _enumeration_tables(A)
    dual = _dual_table(A)
    count = len(indecomposables(A))
    optional = [k for k in range(count) if not required >> k & 1]
    all_vertices = (1 << A.n) - 1
    times: set[int] = set()
    witness: dict[int, int] = {}
    req_tops, req_socs = _union(top_bit, required), _union(soc_bit, required)
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
        if dual is not None and _union(dual, mask) < mask:
            continue
        t = generation_time(A, IndecSet(A, mask))
        if t is INFINITE:
            continue
        times.add(t)
        if t not in witness or mask < witness[t]:
            witness[t] = mask
    return times, witness


#: Contiguous chunks of the subset range per started worker of a parallel
#: scan.  Work is uneven along the range (on linear6 the lower half by index
#: leaves 55,416 candidates and the upper 43,250, which take 6.1 and 9.2 s
#: on one core), so the pool hands out more chunks than it has workers.
_CHUNKS_PER_WORKER = 8


def _scan_chunk(args):
    A, lo, hi = args
    return _scan_masks(A, lo, hi)


def orlov_spectrum(A: Algebra, force: bool = False, jobs: int = 1) -> OrlovResult:
    """Exhaustive generation-time spectrum over multiplicity-free subsets.

    Witnesses are deterministic (smallest bitmask per time), also across
    parallel runs: chunk minima merge to the global minimum.  The pool forks
    all its workers at the first submit, so it gets at most jobs or CPUs.
    The subsets are cut into _CHUNKS_PER_WORKER contiguous chunks per worker
    it starts, handed out as workers free up.
    """
    if not _is_int(jobs) or jobs < 1:
        raise InputError(f"jobs must be a positive integer, got {jobs!r}")
    _check_linear(A)
    count = A.dimension  # the number of indecomposables, none built yet
    forced = len(_forced_vertices(A))
    free = count - forced
    if count > OSPEC_REFUSAL_LIMIT and not force:
        raise RefusalError(
            f"{count} indecomposables, {forced} of them forced simples, "
            f"leave 2^{free} candidate subsets; pass force=True (CLI: --force) to run anyway"
        )
    _refuse_pair_table(count)  # star's size rule, before any scan
    total = 1 << free
    workers = min(jobs, os.cpu_count() or 1) if total >= 1 << 12 else 1
    if workers == 1:
        times, witness = _scan_masks(A, 0, total)
    else:
        chunk = -(-total // (workers * _CHUNKS_PER_WORKER))
        bounds = [(A, lo, min(lo + chunk, total)) for lo in range(0, total, chunk)]
        times = set()
        witness = {}
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(bounds))) as pool:
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
# subset lemmas (a sanity layer for the tests)
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
            left = _level(A, t1, m)
            right = _level(A, t2, k)
            combined = _level(A, t1 | t2, m + k)
            # Bound-first containment: floor ⊆ star ⊆ hull, so a clean floor
            # plus an absorbed hull settles the pair without arbitration.
            floor, hull = _star_hull(A, left, right)
            if hull | combined == combined:
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
            lower = _level(A, t, gt)
            if lower == full:
                violations.append(f"level failure: [{t:#x}]_{gt} already everything but time is {gt}")
    return violations
