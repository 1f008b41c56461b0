"""Ground-truth oracle over the two-element field.

Everything else in the package computes with window combinatorics; this
module re-derives the same facts from explicit quiver representations and
exact linear algebra over GF(2), so the two routes can be played against
each other in tests:

* hom dimensions by solving the intertwiner system f_w . X_a = Y_a . f_v;
* extension middle terms by enumerating connecting data (cocycles modulo
  coboundaries) and building the block representation they define;
* Krull-Schmidt decomposition by hom counting against the indecomposables,
  whose hom matrix is unitriangular in the canonical order.

Classes of 0 -> U -> X -> V -> 0 are bit patterns over the summand pairs
with nonzero ext.  A pair with no ext at all builds no representation: its
only middle is U + V.

Split-off rule.  A class that is zero on every pair involving a summand
V_i has connecting data theta with no rows in V_i's block, so V_i's basis
spans a subrepresentation of X = [[U, 0], [theta, V]] (its rows map into
V_i's own coordinates), and so does the rest (U's rows stay in U, and the
other V rows land in U and in their own blocks); hence X = V_i + X', with
X' the block matrix of the class restricted to the other summands.  The
same holds for a summand U_j whose columns theta never reaches.  So a
class's middle is its untouched summands plus the middle of its
restriction to the touched sub-pair (V', U'), a class that touches every
summand of both ends.  ``middle_terms`` therefore decomposes only such
touching classes, once per fully coupled pair (V', U') met, whose middles
``_touching_table`` keeps.  A sub-multiset of a sweep multiset is a sweep
multiset, so one ``verify_star_sweep`` decomposes each coupled pair once.

Rank rule.  The ext generator of a summand pair depends only on the two
isoclasses, so equal summands share it, and a pattern's bits on a run of k
equal summands of V form k rows over GF(2), indexed by U's summands; a run
of equal U summands gives columns, indexed by V's.  Any g in GL_k(F_2)
mixing the k copies is an automorphism of V, and pulling a class back along
it applies g to those rows and keeps the middle up to isomorphism;
pushforward along an automorphism of U does the same to columns.  If the
rows of a run are dependent, some g makes one row zero, and by the
split-off rule the middle is that copy plus the middle of a class on a
smaller sub-pair.  By induction on the number of summands a class touches,
every middle therefore comes from a touching class whose rows in every V
run and columns in every U run are linearly independent, on some coupled
sub-pair, with the matching complement, and ``middle_terms`` lists exactly
those.  So only such classes are decomposed.  A run with more copies than
partners on the other side has no independent rows, and its pair's entry
is empty before any representation is built.

Least rule.  A move acts on two copies s != t of one run: it swaps them,
or adds copy s's row (V run) or column (U run) to copy t's.  Each move is
one of the GL_k(F_2) automorphisms of the rank rule, so it keeps the middle
up to isomorphism, and it keeps touching and independence.  The moves
generate a finite group, so each orbit of touching, independent patterns
has a least int, and no move makes that pattern smaller.
``_touching_middles`` decomposes exactly the patterns that no single move
makes smaller: every orbit's least pattern is among them, and each is a
class of the pair, so the middles are all found and no false one is added.
At cap 10 one sweep decomposes 100, 8 and 679 classes on ``linear3``,
``linear3_ab`` and ``linear4``, against 749, 48 and 4,310 with the rank rule
alone.

Union rule.  The summands of all middles of (V, U) are supp V, supp U and
the summands of the touching middles (those the rank rule keeps) of every
coupled sub-pair (V', U').  By the split-off and rank rules the middles are
U + V and the (V - V') + (U - U') + M with M such a middle of (V', U');
U + V gives supp V and supp U, and the summands of (V - V') + (U - U') are
among them, so only the M add more.  ``middle_summand_union`` therefore
works in the index space of ``indecomposables``: each end's ``_end_plan``
holds its support mask and its sub-multisets under int keys, ``_ext_rows``
says which pairs of indecomposables have ext, and the same
``_touching_table`` entry holds the coupled sub-pair's summand mask beside
its middles, keyed by the pair's two int keys.  No middle is built as a
``ModuleSum`` there.  At cap 10 one
sweep leaves 139, 24 and 861 entries in ``_touching_table`` on ``linear3``,
``linear3_ab`` and ``linear4``.

Domination rule.  Adding one copy v of a summand of V never loses a middle
summand: a middle X of a class of (V, U) gives the middle X + v of the
class of (V + v, U) that is zero on v's pairs, by the split-off rule, so
union(V, U) is inside union(V + v, U), and the same holds for U.  The copy
keeps both supports, so ``verify_star_sweep`` unions each support group
over its cap-maximal pairs only, those that no extra copy fits within
``max_mult`` and ``cap``.  Every pair of the group lies below one of them,
so the group's union is unchanged, and their coupled sub-pairs include
every skipped pair's, so ``_touching_table`` gets the same entries.  At
cap 10 one ``oracle verify`` sweep makes 887, 344 and 5,470 union calls on
``linear3``, ``linear3_ab`` and ``linear4``, against one per pair (3,574,
2,263 and 17,630) without the rule.

Matrices live as tuples of int bitmasks, one row per SOURCE basis vector,
bit j = coefficient on target basis j; mat_mul therefore composes maps in
diagram order.  GF(2) suffices because ext spaces between uniserials over
linear shapes are at most one dimensional, so extension classes are bit
patterns; for cyclic shapes the oracle still answers hom questions but
offers neither decompose nor middle enumeration.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, groupby, permutations, product
from typing import NamedTuple

from .closure import IndecSet, _refuse_pair_table, star
from .nakayama import (
    Algebra,
    InputError,
    ModuleSum,
    RefusalError,
    Uniserial,
    _as_sum,
    _is_int,
    indec_index,
    indecomposables,
    validate_module,
)


class OracleError(RuntimeError):
    """An oracle self-check failed: inconsistent decomposition or cocycle data."""


# ---------------------------------------------------------------------------
# GF(2) linear algebra on int-bitmask rows
# ---------------------------------------------------------------------------


def mat_mul(a_rows: tuple[int, ...], b_rows: tuple[int, ...]) -> tuple[int, ...]:
    """Compose row-convention maps: row i of the product is the image of
    source basis i, i.e. the XOR of b's rows selected by a's row bits."""
    out = []
    for row in a_rows:
        acc = 0
        rest = row
        while rest:
            low = rest & -rest
            acc ^= b_rows[low.bit_length() - 1]
            rest ^= low
        out.append(acc)
    return tuple(out)


def gf2_rank(rows) -> int:
    """Rank by elimination on a working copy of int-bitmask rows."""
    basis: list[int] = []
    for row in rows:
        for b in basis:
            low = b & -b
            if row & low:
                row ^= b
        if row:
            basis.append(row)
    return len(basis)


def gf2_nullspace(equations, nvars: int) -> list[int]:
    """Solution basis of a homogeneous system; equations are bitmask rows."""
    pivots: dict[int, int] = {}  # pivot column -> fully reduced row
    for row in equations:
        for col, prow in pivots.items():
            if row >> col & 1:
                row ^= prow
        if row:
            col = (row & -row).bit_length() - 1
            # keep earlier rows clear of the new pivot column, or the
            # free-variable readout below misreports solutions
            for c2, prow in pivots.items():
                if prow >> col & 1:
                    pivots[c2] = prow ^ row
            pivots[col] = row
    basis = []
    pivot_cols = set(pivots)
    for free in range(nvars):
        if free in pivot_cols:
            continue
        vec = 1 << free
        for col, prow in pivots.items():
            if prow >> free & 1:
                vec |= 1 << col
        basis.append(vec)
    return basis


class _Echelon:
    """Incremental reduced span, for coset-representative extraction."""

    def __init__(self) -> None:
        self.rows: list[int] = []

    def reduce(self, vec: int) -> int:
        for row in self.rows:
            low = row & -row
            if vec & low:
                vec ^= row
        return vec

    def add(self, vec: int) -> bool:
        vec = self.reduce(vec)
        if vec:
            self.rows.append(vec)
            self.rows.sort(key=lambda r: r & -r)
            return True
        return False


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MatRep:
    """Quiver representation: per-vertex dimensions and one matrix per arrow."""

    algebra: Algebra
    dims: tuple[int, ...]
    arrows: tuple[tuple[int, ...], ...]

    @property
    def total_dim(self) -> int:
        return sum(self.dims)


def _arrow_list(A: Algebra) -> list[tuple[int, int]]:
    if A.is_linear:
        return [(v, v + 1) for v in range(1, A.n)]
    return [(v, v % A.n + 1) for v in range(1, A.n + 1)]


def _constraint_paths(A: Algebra) -> list[tuple[int, int]]:
    """(start vertex, arrow count) of the paths that must act as zero.

    The path of length c_i out of vertex i dies in any module; together these
    generate the defining ideal, so checking them all characterises modules
    over the algebra regardless of how the Kupisch series arose.  Paths that
    leave a linear quiver impose nothing.
    """
    paths = []
    for i in range(1, A.n + 1):
        c = A.c(i)
        if A.is_linear and i + c > A.n:
            continue
        paths.append((i, c))
    return paths


def validate_matrep(rep: MatRep) -> MatRep:
    A = rep.algebra
    arrows = _arrow_list(A)
    if len(rep.dims) != A.n or len(rep.arrows) != len(arrows):
        raise InputError("matrep shape mismatch with the algebra's quiver")
    for k, (v, w) in enumerate(arrows):
        rows = rep.arrows[k]
        if len(rows) != rep.dims[v - 1]:
            raise InputError(f"arrow {v}->{w}: expected {rep.dims[v - 1]} rows")
        if any(row >> rep.dims[w - 1] for row in rows):
            raise InputError(f"arrow {v}->{w}: row bits exceed target dimension")
    for start, length in _constraint_paths(A):
        prod = rep.arrows[start - 1]
        for step in range(1, length):
            v = A.step(start, step)
            prod = mat_mul(prod, rep.arrows[v - 1])
        if any(prod):
            raise InputError(f"path of length {length} from vertex {start} acts nonzero")
    return rep


def _layout(A: Algebra, M: ModuleSum):
    """Basis bookkeeping: per vertex, the list of (summand index, depth)."""
    at_vertex: list[list[tuple[int, int]]] = [[] for _ in range(A.n)]
    for s, u in enumerate(M.summands):
        for t in range(u.length):
            at_vertex[A.step(u.top_vertex, t) - 1].append((s, t))
    pos = {item: p for slots in at_vertex for p, item in enumerate(slots)}
    return at_vertex, pos


def to_matrep(A: Algebra, M: ModuleSum | Uniserial) -> MatRep:
    """Block assembly of the companion representations of the summands."""
    if isinstance(M, Uniserial):
        M = ModuleSum.of(M)
    return _matrep(A, validate_module(A, M))


def _matrep(A: Algebra, M: ModuleSum) -> MatRep:
    """``to_matrep`` for a module whose summands are already validated."""
    at_vertex, pos = _layout(A, M)
    dims = tuple(len(slots) for slots in at_vertex)
    mats = []
    for v, w in _arrow_list(A):
        rows = []
        for s, t in at_vertex[v - 1]:
            u = M.summands[s]
            nxt = (s, t + 1)
            if t + 1 < u.length and A.step(u.top_vertex, t + 1) == w:
                rows.append(1 << pos[nxt])
            else:
                rows.append(0)
        mats.append(tuple(rows))
    return validate_matrep(MatRep(A, dims, tuple(mats)))


# ---------------------------------------------------------------------------
# hom spaces
# ---------------------------------------------------------------------------


def hom_space_dim(X: MatRep, Y: MatRep) -> int:
    """dim Hom(X, Y) = nullity of the intertwiner system over all arrows."""
    if X.algebra != Y.algebra:
        raise InputError("hom between representations of different algebras")
    A = X.algebra
    offsets = []
    nvars = 0
    for v in range(A.n):
        offsets.append(nvars)
        nvars += X.dims[v] * Y.dims[v]

    def var(v: int, p: int, q: int) -> int:  # f_v[p][q], 0-based vertex
        return offsets[v] + p * Y.dims[v] + q

    equations = []
    for k, (v, w) in enumerate(_arrow_list(A)):
        xa, ya = X.arrows[k], Y.arrows[k]
        for p in range(X.dims[v - 1]):
            for q in range(Y.dims[w - 1]):
                eq = 0
                row = xa[p]
                while row:
                    low = row & -row
                    eq ^= 1 << var(w - 1, low.bit_length() - 1, q)
                    row ^= low
                for r in range(Y.dims[v - 1]):
                    if ya[r] >> q & 1:
                        eq ^= 1 << var(v - 1, p, r)
                if eq:
                    equations.append(eq)
    return nvars - gf2_rank(equations)


def _interval_hom_counts(X: MatRep) -> list[int]:
    """dim Hom(M_[a,b], X) for every indecomposable, in ``indecomposables``
    order (linear shapes), without the full solver.

    A map out of the interval is freely determined by the image x of the top
    basis vector at a; pushing x down the interval is forced, and the one
    condition is that the push past b dies: x in ker(X path product a..b).
    When b = n there is no arrow to fall over, so every x works.  The
    indecomposables at one top come in lengths 1, 2, ..., so each longer
    interval multiplies the running path product by one more arrow.
    """
    A = X.algebra
    counts = []
    for I in indecomposables(A):
        a = I.top_vertex
        b = a + I.length - 1
        if b == A.n:
            counts.append(X.dims[a - 1])
            continue
        step = X.arrows[b - 1]
        prod = step if I.length == 1 else mat_mul(prod, step)
        counts.append(X.dims[a - 1] - gf2_rank(prod))
    return counts


@lru_cache(maxsize=None)
def _hom_table(A: Algebra) -> tuple[tuple[int, ...], ...]:
    """Oracle-side hom counts between indecomposables (row maps INTO column)."""
    columns = [_interval_hom_counts(to_matrep(A, u)) for u in indecomposables(A)]
    return tuple(zip(*columns))


def decompose(X: MatRep) -> ModuleSum:
    """Krull-Schmidt multiset by hom counting (linear shapes).

    In the canonical order (top, then length) hom only flows backwards:
    Hom(I, J) != 0 forces J's window componentwise <= I's, so the hom-count
    matrix G is lower unitriangular and h_I = sum_J G[I][J] m_J solves by
    forward substitution.  Negative multiplicities or a dimension-vector
    mismatch mean the input was not a module over this algebra.
    """
    A = X.algebra
    if not A.is_linear:
        raise InputError("decompose is offered for linear shapes only")
    validate_matrep(X)
    indecs = indecomposables(A)
    table = _hom_table(A)
    found = []  # (index, multiplicity) of the summands found so far
    for i, h in enumerate(_interval_hom_counts(X)):
        row = table[i]
        m = h - sum(row[j] * mj for j, mj in found)
        if m < 0:
            raise OracleError(f"negative multiplicity at {indecs[i]}: not a module")
        if m:
            found.append((i, m))
    dims = [0] * A.n
    parts = []
    for i, m in found:
        u = indecs[i]
        parts.extend([u] * m)
        for t in range(u.length):
            dims[A.step(u.top_vertex, t) - 1] += m
    if tuple(dims) != X.dims:
        raise OracleError("hom counts and dimension vector disagree: not a module")
    return ModuleSum.from_iterable(parts)


# ---------------------------------------------------------------------------
# extensions: cocycles, coboundaries, middles
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _pair_ext_generators(A: Algebra, v: Uniserial, u: Uniserial) -> tuple:
    """Coset generators of Ext^1(v, u) as connecting data.

    Connecting data theta assigns to each arrow a block V_a -> U_b making
    X = [[U, 0], [theta, V]] an algebra module; the module condition is that
    every defining path (start, c_start) kills X, whose lower-left block is
    linear in theta.  Coboundaries are theta = phi.U - V.phi for vertexwise
    phi: V -> U (signs immaterial over GF(2)).  Returns a tuple of theta
    assignments (one per Ext basis class), each a tuple over arrows of rows.
    """
    Vrep = to_matrep(A, v)
    Urep = to_matrep(A, u)
    arrows = _arrow_list(A)
    offsets = []
    nvars = 0
    for k, (a, b) in enumerate(arrows):
        offsets.append(nvars)
        nvars += Vrep.dims[a - 1] * Urep.dims[b - 1]

    def var(k: int, p: int, q: int) -> int:  # theta_k[p][q]
        return offsets[k] + p * Urep.dims[arrows[k][1] - 1] + q

    def prefix_products(rep: MatRep, start: int, length: int):
        """prods[j] = product of rep's arrows for the first j path steps."""
        dim0 = rep.dims[start - 1]
        prods = [tuple(1 << i for i in range(dim0))]
        for step in range(length):
            vtx = A.step(start, step)
            prods.append(mat_mul(prods[-1], rep.arrows[vtx - 1]))
        return prods

    equations = []
    for start, length in _constraint_paths(A):
        vpre = prefix_products(Vrep, start, length)
        target = A.step(start, length)
        # suffix U-products from each path position to the end
        usuf = [None] * (length + 1)
        usuf[length] = tuple(1 << i for i in range(Urep.dims[target - 1]))
        for j in range(length - 1, -1, -1):
            vtx = A.step(start, j)
            usuf[j] = mat_mul(Urep.arrows[vtx - 1], usuf[j + 1])
        for p in range(Vrep.dims[start - 1]):
            for q in range(Urep.dims[target - 1]):
                eq = 0
                for j in range(length):
                    vtx = A.step(start, j)
                    k = vtx - 1  # arrow out of vtx sits at index vtx-1 on both shapes
                    for r in range(Vrep.dims[vtx - 1]):
                        if not vpre[j][p] >> r & 1:
                            continue
                        nxt = A.step(start, j + 1)
                        for s_ in range(Urep.dims[nxt - 1]):
                            if usuf[j + 1][s_] >> q & 1:
                                eq ^= 1 << var(k, r, s_)
                if eq:
                    equations.append(eq)

    cocycles = gf2_nullspace(equations, nvars)
    boundary = _Echelon()
    for vtx in range(1, A.n + 1):
        for p in range(Vrep.dims[vtx - 1]):
            for q in range(Urep.dims[vtx - 1]):
                vec = 0
                for k, (a, b) in enumerate(arrows):
                    if a == vtx:  # (phi . U_arrow) row p picks U row q
                        row = Urep.arrows[k][q]
                        while row:
                            low = row & -row
                            vec ^= 1 << var(k, p, low.bit_length() - 1)
                            row ^= low
                    if b == vtx:  # (V_arrow . phi): rows hitting p land on q
                        for r in range(Vrep.dims[a - 1]):
                            if Vrep.arrows[k][r] >> p & 1:
                                vec ^= 1 << var(k, r, q)
                if vec and boundary.reduce(vec) == 0:
                    continue
                if vec:
                    # coboundaries must satisfy the module condition
                    for eq in equations:
                        if (eq & vec).bit_count() & 1:
                            raise OracleError("coboundary violates the path constraints")
                    boundary.add(vec)

    reps = []
    classes = _Echelon()
    for row in boundary.rows:
        classes.add(row)
    for z in cocycles:
        if classes.add(z):
            reps.append(z)
    if A.is_linear and len(reps) > 1:
        raise OracleError(f"ext space of dim {len(reps)} between uniserials on a line")

    def unpack(vec: int):
        mats = []
        for k, (a, b) in enumerate(arrows):
            rows = []
            for p in range(Vrep.dims[a - 1]):
                word = 0
                for q in range(Urep.dims[b - 1]):
                    if vec >> var(k, p, q) & 1:
                        word |= 1 << q
                rows.append(word)
            mats.append(tuple(rows))
        return tuple(mats)

    return tuple(unpack(z) for z in reps)


def ext_dim_oracle(A: Algebra, quot: Uniserial, sub: Uniserial) -> int:
    """dim Ext^1(quot, sub) recomputed from cocycles modulo coboundaries."""
    return len(_pair_ext_generators(A, quot, sub))


def _build_middle(Urep: MatRep, Vrep: MatRep, pairs, bits: int) -> MatRep:
    """X = [[U, 0], [theta, V]]: U-basis first at every vertex, with theta the
    XOR of the generator entries of the ``pairs`` selected by ``bits``."""
    A = Urep.algebra
    mats = [list(Urep.arrows[k]) + [row << Urep.dims[b - 1] for row in Vrep.arrows[k]]
            for k, (_, b) in enumerate(_arrow_list(A))]
    for idx, (_, _, entries) in enumerate(pairs):
        if bits >> idx & 1:
            for k, row, word in entries:
                mats[k][row] ^= word
    dims = tuple(Urep.dims[i] + Vrep.dims[i] for i in range(A.n))
    return MatRep(A, dims, tuple(map(tuple, mats)))


def _ext_pair_structure(A: Algebra, V: ModuleSum, U: ModuleSum):
    """(Urep, Vrep, pairs): the summand pairs (i, j) with nonvanishing
    Ext^1(V_i, U_j), in lexicographic order, and the two ends'
    representations, built once.  Each pair carries its connecting-data
    generator as the entries (arrow, row of X, word) that ``_build_middle``
    XORs into the middle X.  When no pair has ext, nothing is built: the
    reps are None and ``pairs`` is empty.  The caller has validated both
    ends."""
    gens = {}
    for i, v in enumerate(V.summands):
        for j, u in enumerate(U.summands):
            pair_gens = _pair_ext_generators(A, v, u)
            if pair_gens:
                (gens[i, j],) = pair_gens  # linear shapes: ext is at most one dimensional
    if not gens:
        return None, None, []
    _, v_pos = _layout(A, V)
    _, u_pos = _layout(A, U)
    arrows = _arrow_list(A)
    Urep = _matrep(A, U)
    Vrep = _matrep(A, V)
    pairs = []
    for (i, j), gen in gens.items():
        v, u = V.summands[i], U.summands[j]
        entries = []
        for k, (a, b) in enumerate(arrows):
            # a line meets each vertex once: v at depth a - top, u at b - top,
            # each one-dimensional there, so the generator block is one bit;
            # X's rows at a list U's basis first
            t, tu = a - v.top_vertex, b - u.top_vertex
            if 0 <= t < v.length and 0 <= tu < u.length and gen[k][0] & 1:
                entries.append((k, Urep.dims[a - 1] + v_pos[(i, t)], 1 << u_pos[(j, tu)]))
        pairs.append((i, j, tuple(entries)))
    return Urep, Vrep, pairs


def _summand_runs(V: ModuleSum, U: ModuleSum, pairs) -> list[tuple[int, int, int]]:
    """(mask, stride, copies) of every run of two or more equal summands, on
    either side, of a pair in which every summand has an ext partner.

    ``pairs`` lists (i, j) in lexicographic order, and equal summands have
    the same ext partners, so copy t of a run owns the pattern bits
    ``mask << t * stride``: the stride is a V summand's partner count, and 1
    on the U side.  Shifted back by t * stride, copy t's bits of a pattern
    are its row (V) or column (U) in the coordinates of the run's first copy.
    """
    runs = []
    for side, summands in enumerate((V.summands, U.summands)):
        owned = [0] * len(summands)
        for idx, pair in enumerate(pairs):
            owned[pair[side]] |= 1 << idx
        s = 0
        for _, run in groupby(summands):
            copies = len(list(run))
            if copies > 1:
                stride = owned[s + 1].bit_length() - owned[s].bit_length()
                runs.append((owned[s], stride, copies))
            s += copies
    return runs


def _least(bits: int, runs) -> bool:
    """Whether no single move makes a pattern's int smaller (the least rule
    of ``middle_terms``).  A move acts on two copies s != t of one run: it
    swaps them, or adds copy s's row (V run) or column (U run) to copy t's."""
    for mask, stride, copies in runs:
        rows = [(bits >> t * stride) & mask for t in range(copies)]
        for s, t in permutations(range(copies), 2):
            flip = rows[s] ^ rows[t]
            if bits ^ (rows[s] << t * stride) < bits or bits ^ (flip << s * stride | flip << t * stride) < bits:
                return False
    return True


def _independent(bits: int, runs) -> bool:
    """Whether a pattern's rows in every V run and columns in every U run
    are linearly independent over GF(2) (the rank rule of ``middle_terms``)."""
    return all(gf2_rank([(bits >> t * stride) & mask for t in range(copies)]) == copies
               for mask, stride, copies in runs)


def _outnumbered(A: Algebra, V: ModuleSum, U: ModuleSum) -> bool:
    """Whether some run of equal summands has more copies than ext partners
    on the other side.  Its rows (or columns) then lie in a space of smaller
    dimension, so no pattern passes the rank rule."""
    vs, us = V.summands, U.summands
    ext = [[bool(_pair_ext_generators(A, v, u)) for u in us] for v in vs]
    return (any(vs.count(v) > sum(row) for v, row in zip(vs, ext))
            or any(us.count(u) > sum(col) for u, col in zip(us, zip(*ext))))


@lru_cache(maxsize=None)
def _ext_rows(A: Algebra) -> tuple[int, ...]:
    """Row i has bit j set iff Ext^1(indecomposables[i], indecomposables[j])
    is nonzero, as ``_pair_ext_generators`` finds it from cocycles."""
    indecs = indecomposables(A)
    return tuple(sum(1 << j for j, u in enumerate(indecs) if _pair_ext_generators(A, v, u))
                 for v in indecs)


def _summand_mask(A: Algebra, summands) -> int:
    """The ``indecomposables(A)`` mask of the given summands."""
    index = indec_index(A)
    mask = 0
    for u in summands:
        mask |= 1 << index[u]
    return mask


class _EndPlan(NamedTuple):
    """One end module of an extension, in ``indecomposables`` index space."""

    support: int  # bit i: indecomposables[i] is a summand
    # the nonempty sub-multisets M' grouped by their support S, one group
    # (S, ext rows of S's members, the OR of those rows, subs) per S; each
    # sub is (key, M', rest), with ``rest`` the summands M' leaves out and
    # the key M''s packed count vector
    groups: tuple[tuple, ...]


@lru_cache(maxsize=None)
def _end_plan(A: Algebra, M: ModuleSum) -> _EndPlan:
    """The plan of a validated end within the cap; a sweep holds one per
    multiset it draws.

    The key packs the count c_i of every indecomposable i in unary, lowest
    index first: c_i ones, then a zero.  For the sorted indices s_0 <= s_1
    <= ... of the summands that puts the t-th one at bit s_t + t, and the
    positions give back the s_t, so equal keys mean equal sub-multisets.
    """
    index = indec_index(A)
    ext = _ext_rows(A)
    runs = tuple(Counter(M.summands).items())
    groups: dict[int, list] = {}
    for counts in product(*(range(m + 1) for _, m in runs)):
        if any(counts):
            taken = tuple(u for (u, _), c in zip(runs, counts) for _ in range(c))
            rest = tuple(u for (u, m), c in zip(runs, counts) for _ in range(m - c))
            key = sum(1 << (index[u] + t) for t, u in enumerate(taken))
            support = _summand_mask(A, (u for (u, _), c in zip(runs, counts) if c))
            groups.setdefault(support, []).append((key, ModuleSum(taken), rest))
    plan = []
    for support, subs in groups.items():
        rows = tuple(ext[i] for i in range(support.bit_length()) if support >> i & 1)
        hit = 0
        for row in rows:
            hit |= row
        plan.append((support, rows, hit, tuple(subs)))
    return _EndPlan(_summand_mask(A, M.summands), tuple(plan))


def _checked_ends(A: Algebra, V, U, cap) -> tuple[ModuleSum, ModuleSum, _EndPlan, _EndPlan]:
    """(V, U) as modules and their plans, after the checks that
    ``middle_terms`` documents: each end is validated on every call, and
    before the cap refusal."""
    if not A.is_linear:
        raise InputError("middle terms are enumerated for linear shapes only")
    if not _is_int(cap):
        raise InputError(f"cap must be an integer, got {cap!r}")
    V, U = _as_sum(V), _as_sum(U)
    for end in (V, U):
        if not isinstance(end, ModuleSum):
            raise InputError(f"an extension end must be a ModuleSum or a Uniserial, got {end!r}")
    validate_module(A, V)  # each end once, and before the cap refusal
    validate_module(A, U)
    dim = V.dim + U.dim
    if dim > cap:  # before the plans, since a plan lists every sub-multiset of its end
        raise RefusalError(f"middle dimension {dim} exceeds cap {cap}")
    return V, U, _end_plan(A, V), _end_plan(A, U)


@lru_cache(maxsize=None)
def _touching_table(A: Algebra) -> dict[tuple[int, int], tuple[tuple[tuple[Uniserial, ...], ...], int]]:
    """(middles, summand mask) of the touching middles of each coupled
    sub-pair met so far, keyed by the sub-pair's two packed count vectors;
    filled by ``_coupled_sub_pairs``."""
    return {}


def _coupled_sub_pairs(A: Algebra, pv: _EndPlan, pu: _EndPlan):
    """(V - V', U - U', middles, mask) for every coupled sub-pair: V' <= V
    and U' <= U nonempty, and every summand of each with an ext partner in
    the other; middles and mask are the pair's ``_touching_table`` entry,
    built on first use.  Coupling depends on the supports alone."""
    table = _touching_table(A)
    for _, rows, hit, v_subs in pv.groups:
        for u_support, _, _, u_subs in pu.groups:
            # each member of the U side's support has a partner on the V side, and vice versa
            if u_support & ~hit or not all(map(u_support.__and__, rows)):
                continue
            for kv, V1, v_rest in v_subs:
                for ku, U1, u_rest in u_subs:
                    entry = table.get((kv, ku))
                    if entry is None:
                        middles = _touching_middles(A, V1, U1)
                        entry = table[kv, ku] = middles, _summand_mask(A, (u for mid in middles for u in mid))
                    yield v_rest, u_rest, *entry


def _touching_middles(A: Algebra, V: ModuleSum, U: ModuleSum) -> tuple[tuple[Uniserial, ...], ...]:
    """Middles of the classes of (V, U) that touch every summand of both
    ends and pass the rank rule, as sorted summand tuples (smaller to keep
    than ModuleSums in a set).  The caller passes a pair in which every
    summand has an ext partner on the other side, with validated ends.

    Each pattern is decided on its own, from ``bits``, ``covers`` and
    ``runs``.  The rank rule (proved in ``middle_terms``) skips a pattern
    whose rows on a run of equal V summands, or columns on a run of equal U
    summands, are linearly dependent: an automorphism of that end carries it
    to a class with an untouched copy, whose middle the split-off rule lists
    from a smaller sub-pair.  The least rule (``_least``, proved in
    ``middle_terms``) skips a pattern that one move between two copies of a
    run makes smaller: its orbit's least pattern has the same middle.  An
    outnumbered run (``_outnumbered``) fails the rank rule in every pattern,
    so such a pair builds nothing and its entry is empty.
    """
    if _outnumbered(A, V, U):
        return ()
    Urep, Vrep, pairs = _ext_pair_structure(A, V, U)
    covers = [0] * (len(V.summands) + len(U.summands))
    for idx, (i, j, _) in enumerate(pairs):
        covers[i] |= 1 << idx
        covers[len(V.summands) + j] |= 1 << idx
    runs = _summand_runs(V, U, pairs)
    middles = set()
    for bits in range(1, 1 << len(pairs)):
        if all(map(bits.__and__, covers)) and _least(bits, runs) and _independent(bits, runs):
            middles.add(decompose(_build_middle(Urep, Vrep, pairs, bits)))
    return tuple(M.summands for M in middles)


def middle_terms(A: Algebra, V: ModuleSum, U: ModuleSum, cap: int = 12) -> frozenset[ModuleSum]:
    """All middles of 0 -> U -> X -> V -> 0, decomposed, over GF(2).

    Extension classes decompose blockwise over summand pairs (the path
    constraints and coboundaries never couple distinct blocks), so classes
    are enumerated as bit patterns over the pairs with nonzero ext.  The
    zero pattern contributes U + V itself, and a pair with no ext at all
    builds no representation.

    Split-off rule: middle_terms(V, U) = {U + V} united with every
    (V - V') + (U - U') + M, where V' <= V and U' <= U are nonempty
    sub-multisets in which every summand has an ext partner on the other
    side, and M is a middle of a class of (V', U') that touches every
    summand of both.  Proof: a pattern zero on every pair of a summand
    leaves theta without entries in that summand's block, and the block
    then spans a direct summand of X (rows of a V block map into its own
    coordinates, a U block is reached by no theta column), whose
    complement is the block matrix of the restricted class.  Splitting off
    every untouched summand leaves the touched sub-pair, which is coupled,
    and its restricted pattern touches all of it; conversely every
    touching class of a sub-pair is a class of (V, U), zero off the
    sub-pair.  Which copies of an equal summand V' takes does not matter:
    permuting equal summands is an automorphism of that end.

    Rank rule: only the touching classes of (V', U') whose rows on every
    run of equal V' summands and columns on every run of equal U' summands
    are linearly independent over GF(2) are decomposed.  Proof: equal
    summands share their ext generator, so any g in GL_k(F_2) on k equal
    copies of v is an automorphism of V', and pulling a class back along it
    applies g to the k rows while the middle stays the same up to
    isomorphism; pushforward along an automorphism of U' acts on columns in
    the same way.  Dependent rows let some g zero one row, and the split-off
    rule then gives middle = v + the middle of a class on a sub-pair with
    one summand fewer, which, by induction on the number of summands
    touched, is already listed here with the matching complement.

    Least rule: of the touching, independent classes of (V', U'), only
    those that no single move makes smaller as ints are decomposed.  A move
    acts on two copies s != t of one run: it swaps them, or adds copy s's
    row (V run) or column (U run) to copy t's.  Proof: each move is an
    automorphism of one end, one of the GL_k mixings of the rank rule, so
    it keeps the middle up to isomorphism.  A swap permutes the copies of a
    run, and an addition multiplies the pattern matrix by an invertible
    matrix on one side, so both keep every run's rank.  An addition changes
    copy t alone, and its entry against a summand w of the other end only
    where copy s's entry against w is nonzero, so every w stays touched,
    and so does copy t, by independence.  So moves keep touching and
    independence, each orbit under the group they generate is finite, and
    its least pattern, which no move makes smaller, passes the test.  Every
    pattern kept is a class of (V', U'), so the middles are exactly those of
    the rank rule.  A warm ``_touching_table`` serves every sub-pair seen
    before.

    ``cap`` must be an integer; a pair with V.dim + U.dim above it is
    refused.
    """
    V, U, pv, pu = _checked_ends(A, V, U, cap)
    middles = {U + V}
    for v_rest, u_rest, touching, _ in _coupled_sub_pairs(A, pv, pu):
        for mid in touching:
            middles.add(ModuleSum.from_iterable(v_rest + u_rest + mid))
    return frozenset(middles)


def middle_summand_union(A: Algebra, V: ModuleSum, U: ModuleSum, cap: int) -> int:
    """The indecomposable summands of every middle of (V, U), as a mask over
    ``indecomposables(A)``; ends and ``cap`` are checked as in
    ``middle_terms``.

    Union rule: the mask is supp V | supp U | the touching mask of every
    coupled sub-pair (V', U'), the summands of the middles of its classes
    that touch all of it and pass the rank rule.  Proof: by the split-off rule the middles are
    U + V and the (V - V') + (U - U') + M with M a touching middle of a
    coupled (V', U').  U + V is always a middle and contributes exactly
    supp V | supp U, and every summand of the rest (V - V') + (U - U') is a
    summand of V or of U, so only the M add anything new.  A sub-pair's
    touching mask depends on (V', U') alone, so ``_touching_table`` keeps
    it under the two packed count vectors, and a sweep reads it from there
    for every pair that contains the sub-pair.
    """
    _, _, pv, pu = _checked_ends(A, V, U, cap)
    union = pv.support | pu.support
    for _, _, _, mask in _coupled_sub_pairs(A, pv, pu):
        union |= mask
    return union


# ---------------------------------------------------------------------------
# the star completeness sweep
# ---------------------------------------------------------------------------


def _multisets(A: Algebra, max_support: int, max_mult: int, max_dim: int):
    indecs = indecomposables(A)
    for size in range(1, max_support + 1):
        for supp in combinations(indecs, size):
            for mults in product(range(1, max_mult + 1), repeat=size):
                parts = [u for u, m in zip(supp, mults) for _ in range(m)]
                M = ModuleSum.from_iterable(parts)
                if M.dim <= max_dim:
                    yield M


def _check_sweep_bound(name: str, value, least: int) -> None:
    if not _is_int(value) or value < least:
        raise InputError(f"{name} must be an integer >= {least}, got {value!r}")


def verify_star_sweep(A: Algebra, cap: int = 12, max_mult: int = 2, max_support: int = 2) -> dict:
    """Exhaustive star-vs-middles comparison, grouped by support pair.

    star(left, right) unions middle summands over *all* of add(left) x
    add(right), and extensions of direct sums can realize summands no single
    multiset pair shows, so the comparison groups multiset pairs (V, U) by
    their supports: over every pair with bounded support, multiplicity, and
    total dimension, the union of summands of all GF(2) middles of
    0 -> U -> X -> V -> 0 must equal star(supp U, supp V).  Returns a report
    with any mismatches.  A bound that leaves nothing to check (cap < 2,
    max_mult < 1 or max_support < 1) is an ``InputError``, not a pass.

    Domination rule: ``middle_summand_union`` is called on the cap-maximal
    pairs only, those to which no single extra copy of one of their own
    summands can be added within ``max_mult`` and ``cap``; every pair still
    counts in ``pairs_checked``.  Each group's union is unchanged, because:

    * a middle X of a class of (V, U), plus the added copy v, is the middle
      of the class of (V + v, U) that is zero on v's pairs (split-off rule),
      so union(V, U) is inside union(V + v, U), and likewise for U + u;
    * adding a copy keeps both supports, so (V + v, U) is in the same group,
      and adding copies while one fits ends at a maximal pair: every pair
      lies below a maximal one of its group;
    * the coupled sub-pairs of a pair are those of every pair above it, so
      the maximal pairs fill ``_touching_table`` with the same entries.
    """
    _check_sweep_bound("cap", cap, 2)
    _check_sweep_bound("max_mult", max_mult, 1)
    _check_sweep_bound("max_support", max_support, 1)
    indecs = indecomposables(A)
    modules = []
    for M in _multisets(A, max_support, max_mult, cap):
        # the least dimension one more copy of a summand adds within max_mult; cap + 1 if none can
        grow = min((u.length for u, m in Counter(M.summands).items() if m < max_mult), default=cap + 1)
        modules.append((M, M.dim, _summand_mask(A, M.summands), grow))
    checked = 0
    by_support: dict[tuple[int, int], int] = {}  # (supp V, supp U) -> union of middle summands
    for V, v_dim, v_supp, v_grow in modules:
        for U, u_dim, u_supp, u_grow in modules:
            room = cap - v_dim - u_dim
            if room < 0:
                continue
            checked += 1
            if room >= min(v_grow, u_grow):  # a larger pair of the group holds this one's union
                continue
            key = v_supp, u_supp
            by_support[key] = by_support.get(key, 0) | middle_summand_union(A, V, U, cap)

    def members(mask: int) -> list[Uniserial]:
        return [u for k, u in enumerate(indecs) if mask >> k & 1]

    mismatches = []
    for (supp_v, supp_u), union in sorted(by_support.items()):
        want = star(A, IndecSet(A, supp_u), IndecSet(A, supp_v)).mask
        if union != want:
            mismatches.append(
                f"V supp={members(supp_v)} U supp={members(supp_u)}: "
                f"middles gave {members(union)}, star gave {members(want)}"
            )
    return {"pairs_checked": checked, "support_pairs": len(by_support),
            "mismatches": mismatches,
            "max_mult": max_mult, "max_support": max_support, "cap": cap}


# ---------------------------------------------------------------------------
# aggregate report for the CLI
# ---------------------------------------------------------------------------


def oracle_report(A: Algebra, cap: int = 12, max_support: int = 2) -> dict:
    """Pass/fail self-checks: hom agreement, ext agreement, round trip, star sweep.

    The star sweep draws ends of up to ``max_support`` distinct summands.  A
    cap below 2 admits no pair of modules and a ``max_support`` below 1 no
    end, so either is an ``InputError``, raised before any check runs.  Next,
    on every shape, star's size rule (``_refuse_pair_table``: count^2 pairs
    of indecomposables above ``PAIR_TABLE_LIMIT``) refuses before any check.
    """
    from .homext import ext1_nonzero, hom_dim  # local to avoid import-order knots

    _check_sweep_bound("cap", cap, 2)
    _check_sweep_bound("max_support", max_support, 1)
    _refuse_pair_table(A.dimension)  # the number of indecomposables, none built yet
    checks = []
    indecs = indecomposables(A)
    reps = {u: to_matrep(A, u) for u in indecs if u.length <= cap}
    small = [u for u in indecs if u.length <= cap]

    bad = sum(
        1
        for x in small
        for y in small
        if x.length + y.length <= cap
        and hom_space_dim(reps[x], reps[y]) != hom_dim(A, x, y)
    )
    checks.append({"name": "hom agreement (solver vs window count)", "ok": bad == 0, "failures": bad})

    if A.is_linear:
        bad = sum(
            1
            for x in small
            for y in small
            if x.length + y.length <= cap
            and ext_dim_oracle(A, x, y) != (1 if ext1_nonzero(A, quot=x, sub=y) else 0)
        )
        checks.append({"name": "ext agreement (cocycles vs window criterion)", "ok": bad == 0, "failures": bad})

        bad = 0
        count = 0
        for size in (1, 2):
            for parts in combinations(small, size):
                M = ModuleSum.from_iterable(parts)
                if M.dim > cap:
                    continue
                count += 1
                if decompose(to_matrep(A, M)) != M:
                    bad += 1
        checks.append({"name": f"decompose round trip ({count} sums)", "ok": bad == 0, "failures": bad})

        sweep = verify_star_sweep(A, cap=min(cap, 10), max_mult=2, max_support=max_support)
        checks.append(
            {
                "name": f"star sweep ({sweep['pairs_checked']} pairs)",
                "ok": not sweep["mismatches"],
                "failures": len(sweep["mismatches"]),
            }
        )
    return {"algebra": {"shape": A.shape, "n": A.n}, "cap": cap,
            "ok": all(c["ok"] for c in checks), "checks": checks}
