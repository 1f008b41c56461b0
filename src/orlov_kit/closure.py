"""Extension closures, generation times, and Orlov spectra (linear shapes).

Subcategories here are add-closed classes of modules, so they are determined
by a set of indecomposables; ``IndecSet`` stores one as a bitmask over the
algebra's indecomposable list.  The one-step closure of two classes is

    star(left, right) = summands of middles of  0 -> u -> E -> v -> 0,
                        u in add(left), v in add(right)

(split extensions included, so members of either side stay in).  Extensions
of direct sums can liberate summands that no single pair of uniserials
produces, so star is computed exactly from two bounds and one decision per
bit between them:

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
* reduced ends - each gap bit (hull minus floor) is decided exactly by one
  lemma that bounds both ends of the extensions that can realize it.

  Lemma.  Let W be indecomposable and in neither side.  Let U* be the sum
  of the u in left with Hom(u, W) != 0, and V* the sum of the v in right
  with Hom(W, v) != 0, each taken once.  Then W is in star(left, right) iff
  W is a summand of the middle of some extension 0 -> U* -> E -> V* -> 0.

  Proof.  "If" holds as U* is in add(left) and V* in add(right).  For "only
  if", take 0 -> U -f-> E -g-> V -> 0 with U in add(left), V in add(right),
  and W a summand of E by i: W -> E and p: E -> W with p i = 1.
  1. Hom spaces between windows are at most one-dimensional.  So for each
     indecomposable v with m copies in V, the components of g i on those
     copies are (l_1 h, ..., l_m h) for one map h: W -> v and scalars l_k.
     An automorphism of v^m sends a nonzero (l_1, ..., l_m) to
     (1, 0, ..., 0).  Composing g with such automorphisms of V changes
     neither E nor exactness.  Then g i meets at most one copy of each v,
     and only v with Hom(W, v) != 0.  Let V_S be the sum of the copies it
     meets: V = V_S + V_R, and V_S is a summand of V*.
  2. Pull back along the inclusion V_S -> V: E' = g^-1(V_S) sits in
     0 -> U -> E' -> V_S -> 0.  i lands in E', as g i lands in V_S, and p
     restricted to E' still splits it, so W is a summand of E'.
  3. Dually, compose f with automorphisms of U so that p f meets at most
     one copy of each u, and only u with Hom(u, W) != 0.  Then U = U_S + U_R
     with p f zero on U_R, and U_S is a summand of U*.  Push out along the
     projection U -> U_S: E'' = E' / f(U_R) sits in
     0 -> U_S -> E'' -> V_S -> 0.  p kills f(U_R), so it factors through
     E'', and W is a summand of E''.
  4. Write U* = U_S + U_c and V* = V_S + V_c.  Adding the split sequence
     0 -> U_c -> U_c + V_c -> V_c -> 0 gives ends U* and V* and the middle
     E'' + U_c + V_c, of which W is a summand.
  Pullbacks and pushouts of extensions are as in Auslander, Reiten and
  Smalø, Representation Theory of Artin Algebras, ch. I.  The proof uses
  exactness, Krull-Schmidt and thin hom spaces only, so it holds with
  relations too.  When U* or V* is 0 every such extension splits, its
  middle U* + V* has no summand W by Krull-Schmidt, and W is refuted: this
  is the hom-support rule.  `star_mask` reads U* = into[w] & left and
  V* = out[w] & right from `_hom_support`, which holds the line's rule
  Hom([a, b], [c, d]) != 0 iff c <= a <= d <= b.  It asks `_realizable`
  only when both are nonzero, and `_realizable` is memoised on (w, U*, V*),
  so one decision serves every (left, right) with the same reduced ends.
  On the linear6 scan the 29,580 decisions have 1,436 distinct keys.
* classes - both ends are multiplicity-free, so Ext^1(V*, U*) is the sum of
  the Ext^1(v, u) over the p pairs that `_ext_pairs` lists, each of
  dimension one.  For v = [e, f] and u = [g, d] the class exists iff
  e < g <= f + 1 <= d <= e + c_e - 1 (`homext.ext1_nonzero`).  Its gluing
  bit is the representation on u + v that adds, on the arrow f -> f + 1,
  the map sending v's basis vector at f to u's basis vector at f + 1.  It is
  a module: the only paths it makes nonzero run from a vertex s of [e, f]
  to a vertex t of [f + 1, d], and t - s <= e + c_e - 1 - s < c_s, as
  c_s >= c_e - (s - e) along a line; so the relation (d <= e + c_e - 1) is
  what keeps every path of length c_s zero.  u is a submodule with quotient
  v, so it is an extension, and it does not split: the path map from e to
  d is nonzero on it (v's vector at e reaches u's at d) but zero on u + v,
  where no window holds both e and d.  So the gluing bit is a cocycle whose
  class is nonzero, and it spans the one-dimensional Ext^1(v, u).  Connecting
  data add up blockwise over the pairs, so over F2 the classes of
  Ext^1(V*, U*) are the 2^p patterns of gluing bits, the zero one split.
* multiplicity - a pattern's middle E is a representation of the line, so a
  sum of windows.  The path map from vertex i to vertex j >= i has rank
  r(i, j) = the number of windows [s, t] of E with s <= i and t >= j
  (dim E_i when i = j, 0 when i or j is off the line), so by
  inclusion-exclusion [a, b] has multiplicity
  r(a, b) - r(a-1, b) - r(a, b+1) + r(a-1, b+1).  On the basis of u + v a
  vector of a window holding i and j goes to that window's vector at j; the
  vector of v = [e, f] at i, when f < j, goes through the gluing bits of v
  to the glued u holding j.  A u holding i and j is a pivot row, so r(i, j)
  is the number of windows of U* and V* holding i and j plus the rank of
  the v rows over the u that hold j but not i.  The counts add up to the
  multiplicity of [a, b] in U* + V*, which is 0 as w lies in neither side,
  so `_realizable` sums the four ranks of gluing rows alone.
* cost - a realized bit stops at the first pattern with a positive
  multiplicity; a refutation walks all 2^p - 1 nonzero patterns, each four
  ranks of at most |V*| rows.  The patterns go in Gray-code order, so each
  step flips one gluing bit in each row set.  On seeded pairs p reached 11
  on linear6 (at most 3 ms a bit) and 16 on linear7, where one refutation
  took 0.7 s (2-vCPU Xeon VM, Python 3.11).  On linear5, w = M[2,4] (bit 7)
  under (0x535d, 0x7a32) has reduced ends of two windows each and p = 1.
* field - the engine computes over F2, as the oracle does: a class is a 0/1
  pattern.  Over a larger field a class carries one scalar per pair, and
  when the pairs form a cycle a ratio of them cannot be rescaled away.
  `test_realizable_matches_gf3_classes` decides each bit again with classes
  in {0, 1, 2}^p and ranks over GF(3); it agrees with F2 on seeded pairs of
  the hereditary lines and of relation algebras.  That is evidence, not a
  proof, that the answers do not depend on the field.

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

Every star decision is exact, relations included, so the skip holds on
every algebra with a `_dual_table`; `test_scan_duality_skip_is_exact` pins
gt(T) = gt(DT) on every subset of linear4 with relation (1,3).
"""

from __future__ import annotations

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

#: refuse ``coghost --list-irreducible`` above this many (AR arrow, T_m
#: member) checks: n(n - 1) arrows of hereditary linear n times the n + m - 1
#: members.  Measured on one core (2-vCPU Xeon VM, Python 3.11), about 1.0
#: million checks a second: linear100 (m = 2: 999,900 checks) 0.98-1.05 s,
#: linear120 (1,727,880) 1.71-1.79 s.  Every linear100 answers (m = 99:
#: 1,960,200).
COGHOST_CHECK_LIMIT = 2_000_000


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
    exactly the ones `_realizable` may have to decide.  The three floors each
    walk the bits of their own left side, so the Sub and Fac floors, whose
    left sides are closed, cost the most.
    """
    floor = _floor_mask(A, left, right)
    sub_floor = _floor_mask(A, _sub_mask(A, left), _sub_mask(A, right))
    return floor, sub_floor & _floor_mask(A, _fac_mask(A, left), _fac_mask(A, right))


@lru_cache(maxsize=None)
def star_mask(A: Algebra, left: int, right: int) -> int:
    """Exact star on bitmasks: floor, then arbitrate the hull gap.  A gap
    bit w is set iff its reduced ends U* = into[w] & left and
    V* = out[w] & right are both nonzero and `_realizable` finds w in a
    middle of Ext^1(V*, U*) (module docstring)."""
    if left == 0 or right == 0:
        return left | right
    floor, hull = _star_hull(A, left, right)
    gap = hull & ~floor
    if gap:
        into, out = _hom_support(A)
        for k in _bits(gap):
            u_star, v_star = into[k] & left, out[k] & right
            if u_star and v_star and _realizable(A, k, u_star, v_star):
                floor |= 1 << k
    return floor


def star(A: Algebra, left: IndecSet, right: IndecSet) -> IndecSet:
    """One-step extension closure: left-submodule by right-quotient middles."""
    _check_algebra(A, left)
    _check_algebra(A, right)
    return IndecSet(A, star_mask(A, left.mask, right.mask))


# ---------------------------------------------------------------------------
# gap arbitration: the classes of Ext^1(V*, U*) over F2
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


@lru_cache(maxsize=None)
def _realizable(A: Algebra, w_idx: int, u_mask: int, v_mask: int) -> bool:
    """Decide one gap bit: is indec ``w_idx``, a member of neither side, a
    summand of the middle of some class in Ext^1(V*, U*)?  U* and V* are the
    multiplicity-free sums of the members of ``u_mask`` and ``v_mask``, the
    reduced ends that `star_mask` passes, so one decision serves every
    (left, right) with the same reduced ends.

    The classes are the 0/1 patterns over the p pairs (v, u) with
    Ext^1(v, u) != 0, one gluing bit per pair on the arrow out of v's end.
    w = [a, b] is a summand of a pattern's middle E iff
    r(a, b) - r(a-1, b) - r(a, b+1) + r(a-1, b+1) > 0, with r(i, j) the rank
    of E's path map from vertex i to vertex j.  Each r(i, j) is the number
    of windows of U* and V* holding both i and j, which cancels in the sum
    as w is in neither end, plus the rank of the gluing rows: the row of v
    holds the u whose bit the pattern sets and whose window holds j but not
    i, when the path crosses v's gluing arrow f -> f + 1 (v holds i and
    f < j).  The patterns are walked in Gray-code order, one gluing bit
    flipped per step, and the first with a positive multiplicity realizes
    w.  A refutation costs 2^p - 1 patterns times four ranks of at most
    |V*| rows (module docstring).
    """
    indecs = indecomposables(A)
    w = indecs[w_idx]
    a, b = w.top_vertex, w.top_vertex + w.length - 1
    terms = ((a, b), (a - 1, b), (a, b + 1), (a - 1, b + 1))
    ext = _ext_pairs(A)
    flips = []  # per pair: (term, row of v, column bit of u) for each term whose path crosses its gluing bit
    for col, u_idx in enumerate(_bits(u_mask)):
        u = indecs[u_idx]
        g, d = u.top_vertex, u.top_vertex + u.length - 1
        for q, _ in ext[u_idx]:
            if q & v_mask:
                v = indecs[q.bit_length() - 1]
                e, f = v.top_vertex, v.top_vertex + v.length - 1
                row = (v_mask & (q - 1)).bit_count()
                crossed = (t for t, (i, j) in enumerate(terms) if e <= i <= f < j <= d and i < g)
                flips.append(tuple((t, row, 1 << col) for t in crossed))
    rows = [[0] * v_mask.bit_count() for _ in terms]
    for step in range(1, 1 << len(flips)):
        for t, row, col in flips[(step & -step).bit_length() - 1]:
            rows[t][row] ^= col
        if _rank_f2(rows[0]) - _rank_f2(rows[1]) - _rank_f2(rows[2]) + _rank_f2(rows[3]) > 0:
            return True
    return False


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
