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

Matrices live as tuples of int bitmasks, one row per SOURCE basis vector,
bit j = coefficient on target basis j; mat_mul therefore composes maps in
diagram order.  GF(2) suffices because ext spaces between uniserials over
linear shapes are at most one dimensional, so extension classes are bit
patterns; for cyclic shapes the oracle still answers hom questions but
offers neither decompose nor middle enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

from .closure import IndecSet, star
from .nakayama import (
    Algebra,
    InputError,
    ModuleSum,
    RefusalError,
    Uniserial,
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


def interval_hom_count(A: Algebra, I: Uniserial, X: MatRep) -> int:
    """dim Hom(M_[a,b], X) for linear shapes, without the full solver.

    A map out of the interval is freely determined by the image x of the top
    basis vector at a; pushing x down the interval is forced, and the one
    condition is that the push past b dies: x in ker(X path product a..b).
    When b = n there is no arrow to fall over, so every x works.
    """
    if not A.is_linear:
        raise InputError("interval hom counting needs the linear shape")
    a = I.top_vertex
    b = a + I.length - 1
    if b == A.n:
        return X.dims[a - 1]
    prod = X.arrows[a - 1]
    for v in range(a + 1, b + 1):
        prod = mat_mul(prod, X.arrows[v - 1])
    return X.dims[a - 1] - gf2_rank(prod)


@lru_cache(maxsize=None)
def _hom_table(A: Algebra) -> tuple[tuple[int, ...], ...]:
    """Oracle-side hom counts between indecomposables (row maps INTO column)."""
    indecs = indecomposables(A)
    reps = [to_matrep(A, u) for u in indecs]
    return tuple(
        tuple(interval_hom_count(A, I, rep) for rep in reps) for I in indecs
    )


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
    h = [interval_hom_count(A, I, X) for I in indecs]
    mult = [0] * len(indecs)
    for i in range(len(indecs)):
        m = h[i] - sum(table[i][j] * mult[j] for j in range(i))
        if m < 0:
            raise OracleError(f"negative multiplicity at {indecs[i]}: not a module")
        mult[i] = m
    dims = [0] * A.n
    parts = []
    for u, m in zip(indecs, mult):
        for _ in range(m):
            parts.append(u)
            for t in range(u.length):
                dims[A.step(u.top_vertex, t) - 1] += 1
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
    XOR of the embedded generators of the ``pairs`` selected by ``bits``."""
    A = Urep.algebra
    arrows = _arrow_list(A)
    theta = [[0] * Vrep.dims[a - 1] for a, _ in arrows]
    for idx, (_, _, embedded) in enumerate(pairs):
        if bits >> idx & 1:
            for k, block in enumerate(embedded):
                for r, row in enumerate(block):
                    theta[k][r] ^= row
    dims = tuple(Urep.dims[i] + Vrep.dims[i] for i in range(A.n))
    mats = []
    for k, (a, b) in enumerate(arrows):
        du = Urep.dims[b - 1]
        rows = [Urep.arrows[k][p] for p in range(Urep.dims[a - 1])]
        for r in range(Vrep.dims[a - 1]):
            rows.append(theta[k][r] | (Vrep.arrows[k][r] << du))
        mats.append(tuple(rows))
    return MatRep(A, dims, tuple(mats))


def _ext_pair_structure(A: Algebra, V: ModuleSum, U: ModuleSum):
    """(Urep, Vrep, pairs): the two ends' representations, built once, and
    the summand pairs (i, j) with nonvanishing Ext^1(V_i, U_j) with their
    connecting-data generators embedded at the right block offsets.  The
    caller has validated both ends."""
    _, v_pos = _layout(A, V)
    _, u_pos = _layout(A, U)
    arrows = _arrow_list(A)
    Urep = _matrep(A, U)
    Vrep = _matrep(A, V)
    pairs = []
    for i, v in enumerate(V.summands):
        for j, u in enumerate(U.summands):
            gens = _pair_ext_generators(A, v, u)
            if not gens:
                continue
            (gen,) = gens  # linear shapes: ext is at most one dimensional
            embedded = []
            for k, (a, b) in enumerate(arrows):
                rows = [0] * Vrep.dims[a - 1]
                for t in range(v.length):
                    if A.step(v.top_vertex, t) != a:
                        continue
                    row_small = gen[k][_small_pos(A, v, a, t)]
                    big = 0
                    for tu in range(u.length):
                        if A.step(u.top_vertex, tu) == b and row_small >> _small_pos(A, u, b, tu) & 1:
                            big |= 1 << u_pos[(j, tu)]
                    rows[v_pos[(i, t)]] = big
                embedded.append(tuple(rows))
            pairs.append((i, j, tuple(embedded)))
    return Urep, Vrep, pairs


def _small_pos(A: Algebra, u: Uniserial, vertex: int, t: int) -> int:
    """Position of depth t within the single-summand layout at a vertex."""
    return sum(1 for t2 in range(t) if A.step(u.top_vertex, t2) == vertex)


def _canonical_pattern(V: ModuleSum, U: ModuleSum, pairs, bits: int) -> tuple:
    """Sound dedup key: permuting equal summands on either side is an
    isomorphism of the pair, hence preserves the middle's class.  Sort rows
    by (V summand, row bits), then columns by (U summand, column bits in the
    new row order); both sorts only permute equal summands.
    """
    grid = {(i, j): bits >> idx & 1 for idx, (i, j, _) in enumerate(pairs)}
    nu = len(U.summands)
    rows = sorted(
        range(len(V.summands)),
        key=lambda i: (V.summands[i], tuple(grid.get((i, j), 0) for j in range(nu))),
    )
    cols = sorted(range(nu), key=lambda j: (U.summands[j], tuple(grid.get((i, j), 0) for i in rows)))
    return tuple(tuple(grid.get((i, j), 0) for j in cols) for i in rows)


def middle_terms(A: Algebra, V: ModuleSum, U: ModuleSum, cap: int = 12) -> frozenset[ModuleSum]:
    """All middles of 0 -> U -> X -> V -> 0, decomposed, over GF(2).

    Extension classes decompose blockwise over summand pairs (the path
    constraints and coboundaries never couple distinct blocks), so classes
    are enumerated as bit patterns over the pairs with nonzero ext, one per
    ``_canonical_pattern`` key.  The zero pattern contributes U + V itself.
    """
    if not A.is_linear:
        raise InputError("middle terms are enumerated for linear shapes only")
    V = V if isinstance(V, ModuleSum) else ModuleSum.of(V)
    U = U if isinstance(U, ModuleSum) else ModuleSum.of(U)
    validate_module(A, V)  # each end once, and before the cap refusal
    validate_module(A, U)
    if V.dim + U.dim > cap:
        raise RefusalError(f"middle dimension {V.dim + U.dim} exceeds cap {cap}")
    Urep, Vrep, pairs = _ext_pair_structure(A, V, U)
    middles = {U + V}
    seen_patterns = set()
    for bits in range(1, 1 << len(pairs)):
        pattern = _canonical_pattern(V, U, pairs, bits)
        if pattern not in seen_patterns:
            seen_patterns.add(pattern)
            middles.add(decompose(_build_middle(Urep, Vrep, pairs, bits)))
    return frozenset(middles)


def middle_summand_union(A: Algebra, V: ModuleSum, U: ModuleSum, cap: int) -> frozenset[Uniserial]:
    """Union of indecomposable summands over every middle of (V, U)."""
    return frozenset(u for X in middle_terms(A, V, U, cap) for u in X.summands)


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


def verify_star_sweep(A: Algebra, cap: int = 12, max_mult: int = 2, max_support: int = 2) -> dict:
    """Exhaustive star-vs-middles comparison, grouped by support pair.

    star(left, right) unions middle summands over *all* of add(left) x
    add(right), and extensions of direct sums can realize summands no single
    multiset pair shows, so the comparison groups multiset pairs (V, U) by
    their supports: over every pair with bounded support, multiplicity, and
    total dimension, the union of summands of all GF(2) middles of
    0 -> U -> X -> V -> 0 must equal star(supp U, supp V).  Returns a report
    with any mismatches.
    """
    mismatches = []
    checked = 0
    modules = list(_multisets(A, max_support, max_mult, cap))
    by_support: dict = {}
    for V in modules:
        for U in modules:
            if V.dim + U.dim > cap:
                continue
            checked += 1
            got = middle_summand_union(A, V, U, cap)
            key = (frozenset(V.summands), frozenset(U.summands))
            by_support.setdefault(key, set()).update(got)
    for (supp_v, supp_u), union in sorted(by_support.items(), key=repr):
        left = IndecSet.of(A, supp_u)
        right = IndecSet.of(A, supp_v)
        want = frozenset(star(A, left, right).members())
        if union != want:
            mismatches.append(
                f"V supp={sorted(supp_v)} U supp={sorted(supp_u)}: "
                f"middles gave {sorted(union)}, star gave {sorted(want)}"
            )
    return {"pairs_checked": checked, "support_pairs": len(by_support),
            "mismatches": mismatches,
            "max_mult": max_mult, "max_support": max_support, "cap": cap}


# ---------------------------------------------------------------------------
# aggregate report for the CLI
# ---------------------------------------------------------------------------


def oracle_report(A: Algebra, cap: int = 12) -> dict:
    """Pass/fail self-checks: hom agreement, ext agreement, round trip, star sweep."""
    from .homext import ext1_nonzero, hom_dim  # local to avoid import-order knots

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

        sweep = verify_star_sweep(A, cap=min(cap, 10), max_mult=2, max_support=2)
        checks.append(
            {
                "name": f"star sweep ({sweep['pairs_checked']} pairs)",
                "ok": not sweep["mismatches"],
                "failures": len(sweep["mismatches"]),
            }
        )
    return {"algebra": {"shape": A.shape, "n": A.n}, "cap": cap,
            "ok": all(c["ok"] for c in checks), "checks": checks}
