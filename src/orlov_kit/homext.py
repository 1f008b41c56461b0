"""Hom and Ext^1 between uniserials, plus the Auslander-Reiten quiver of A_n.

For uniserials every nonzero map factors as quotient-then-submodule: collapse
the source onto one of its tops-down quotient windows, then include that
window as a submodule window of the target.  Hom dimension is therefore a
count of window alignments:

* linear shape, X = M_[a,b], Y = M_[c,d]: there is at most one alignment,
  and Hom(X, Y) is nonzero exactly when  c <= a <= d <= b.  The canonical
  basis map acts as the identity on the overlap [a, d].
* cyclic shape: count offsets s in [0, len Y) with top(Y)+s = top(X) mod n
  and len(Y) - s <= len(X); windows can wrap and several alignments may
  coexist, so hom spaces need not be thin.

Ext^1 between uniserials (linear shape) is similarly windowed.  Writing the
quotient as M_[a,b] and the submodule as M_[c,d], a nonsplit extension exists
iff the submodule window starts inside the quotient window or exactly one step
past it, reaches strictly beyond the quotient's socle, and the merged window
[a,d] is layer-legal:

    a < c <= b + 1 <= d <= a + c_a - 1.

The middle of the (unique up to scalar) nonzero class is M_[a,d] (+) M_[c,b],
merged window plus overlap window; the overlap is empty exactly in the
end-to-end case c = b + 1, where the middle is the single glued uniserial.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .nakayama import (
    Algebra,
    InputError,
    ModuleSum,
    Uniserial,
    validate_uniserial,
)


def interval_end(A: Algebra, u: Uniserial) -> int:
    """Socle position of u as a plain integer: on the line, top + length - 1."""
    if A.is_linear:
        return u.top_vertex + u.length - 1
    return (u.top_vertex - 1 + u.length - 1) % A.n + 1


def _linear_hom_dim(X: Uniserial, Y: Uniserial) -> int:
    """dim Hom(X, Y) on a linear shape, with no validation: for callers whose
    uniserials are valid already.  The windows [a, b] of X and [c, d] of Y
    have a nonzero map iff c <= a <= d <= b."""
    a, b = X.top_vertex, X.top_vertex + X.length - 1
    c, d = Y.top_vertex, Y.top_vertex + Y.length - 1
    return 1 if c <= a <= d <= b else 0


def hom_dim(A: Algebra, X: Uniserial, Y: Uniserial) -> int:
    """dim Hom(X, Y) over any base field (the count is field independent)."""
    validate_uniserial(A, X)
    validate_uniserial(A, Y)
    if A.is_linear:
        return _linear_hom_dim(X, Y)
    count = 0
    for s in range(Y.length):
        if (Y.top_vertex - 1 + s) % A.n == X.top_vertex - 1 and Y.length - s <= X.length:
            count += 1
    return count


def hom_sum_nonzero(A: Algebra, X: ModuleSum | Uniserial, Y: ModuleSum | Uniserial) -> bool:
    """Whether Hom(X, Y) != 0 for (sums of) uniserials."""
    xs = X.summands if isinstance(X, ModuleSum) else (X,)
    ys = Y.summands if isinstance(Y, ModuleSum) else (Y,)
    return any(hom_dim(A, x, y) for x in xs for y in ys)


def composite_nonzero(A: Algebra, X: Uniserial, Y: Uniserial, Z: Uniserial) -> bool:
    """Whether the canonical maps compose to a nonzero map X -> Y -> Z (linear only).

    Given both canonical maps are nonzero, the composite is the canonical map
    X -> Z exactly when top(X) still lies inside Z's window, i.e.
    top(X) <= end(Z); otherwise the overlap empties out and the composite is 0.
    """
    if not A.is_linear:
        raise InputError("composite calculus is only defined for linear shapes")
    if hom_dim(A, X, Y) == 0 or hom_dim(A, Y, Z) == 0:
        return False
    return X.top_vertex <= interval_end(A, Z)


def ext1_nonzero(A: Algebra, quot: Uniserial, sub: Uniserial) -> bool:
    """Whether Ext^1(quot, sub) != 0 (linear shapes; spaces are 0- or 1-dim).

    With quot = M_[a,b] and sub = M_[c,d], a nonsplit extension
    0 -> sub -> E -> quot -> 0 exists iff

        a < c <= b + 1 <= d <= a + c_a - 1,

    i.e. the sub window starts below the quot top but no later than one step
    past the quot socle, reaches strictly beyond that socle, and the merged
    window [a,d] respects the layer bound c_a at the quot top.  (When d <= b
    every cocycle extends a hom and splits off; when c > b + 1 the windows
    cannot interlock at all.)  Argument order matters; call sites should name
    quot=/sub=.
    """
    if not A.is_linear:
        raise InputError("ext1_nonzero is only defined for linear shapes")
    validate_uniserial(A, quot)
    validate_uniserial(A, sub)
    a = quot.top_vertex
    b = a + quot.length - 1
    c = sub.top_vertex
    d = c + sub.length - 1
    return a < c <= b + 1 <= d <= a + A.c(a) - 1


def middle_term(A: Algebra, quot: Uniserial, sub: Uniserial) -> ModuleSum:
    """Middle of the nonzero class in Ext^1(quot, sub) (requires ext != 0).

    For quot = M_[a,b], sub = M_[c,d] this is M_[a,d] (+) M_[c,b]: the merged
    window plus the overlap window.  The overlap is dropped when empty
    (end-to-end case c = b + 1), leaving the single glued uniserial.
    """
    if not ext1_nonzero(A, quot=quot, sub=sub):
        raise InputError(f"Ext^1({quot}, {sub}) = 0: the windows do not interlock")
    a = quot.top_vertex
    b = a + quot.length - 1
    c = sub.top_vertex
    d = c + sub.length - 1
    pieces = [Uniserial(a, d - a + 1)]
    if c <= b:
        pieces.append(Uniserial(c, b - c + 1))
    return ModuleSum.of(*pieces)


# ---------------------------------------------------------------------------
# Auslander-Reiten quiver of the hereditary linear algebra
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class ARArrow:
    """Irreducible map in the AR quiver of A_n, in canonical window form.

    kind "+" : f+_[i,j] : M_[i,j] -> M_[i-1,j]   (extend the window up)
    kind "-" : f-_[i,j] : M_[i,j] -> M_[i,j-1]   (cut the socle off)
    Both are canonical basis maps; meshes commute without signs under this
    choice (a deliberate, documented convention).
    """

    kind: str
    i: int
    j: int

    @property
    def source(self) -> Uniserial:
        return Uniserial(self.i, self.j - self.i + 1)

    @property
    def target(self) -> Uniserial:
        if self.kind == "+":
            return Uniserial(self.i - 1, self.j - self.i + 2)
        return Uniserial(self.i, self.j - self.i)

    def label(self) -> str:
        return f"f{self.kind}[{self.i},{self.j}]"


@dataclass(frozen=True)
class ARQuiver:
    nodes: tuple[Uniserial, ...]
    arrows: tuple[ARArrow, ...]


@lru_cache(maxsize=None)
def ar_quiver(A: Algebra) -> ARQuiver:
    """AR quiver of the hereditary linear algebra: nodes M_[i,j], 12-style mesh."""
    if not (A.is_linear and A.relation is None):
        raise InputError("the AR quiver is implemented for hereditary linear shapes only")
    n = A.n
    nodes = tuple(Uniserial(i, j - i + 1) for i in range(1, n + 1) for j in range(i, n + 1))
    arrows: list[ARArrow] = []
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            if i >= 2:
                arrows.append(ARArrow("+", i, j))
            if j > i:
                arrows.append(ARArrow("-", i, j))
    return ARQuiver(nodes=nodes, arrows=tuple(sorted(arrows)))


def ar_quiver_dot(A: Algebra) -> str:
    """Graphviz DOT text for the AR quiver; node and edge order is canonical."""
    q = ar_quiver(A)
    lines = ["digraph ar_quiver {"]
    for u in q.nodes:
        i, j = u.top_vertex, u.top_vertex + u.length - 1
        lines.append(f'  "M[{i},{j}]";')
    for arrow in q.arrows:
        s, t = arrow.source, arrow.target
        si, sj = s.top_vertex, s.top_vertex + s.length - 1
        ti, tj = t.top_vertex, t.top_vertex + t.length - 1
        lines.append(f'  "M[{si},{sj}]" -> "M[{ti},{tj}]" [label="{arrow.label()}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
