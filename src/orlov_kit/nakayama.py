"""Nakayama algebras presented by a quiver and one path relation.

A connected Nakayama algebra is determined by a linear (A_n) or cyclic
quiver together with an admissible ideal; here the ideal is generated by a
single path, given as a start vertex and an arrow count.  Everything the
rest of the package needs is combinatorial and field independent:

* the Kupisch series ``c_i`` = (longest relation-free path out of vertex i) + 1,
  which is derived from the presentation, never supplied by the caller;
* indecomposable modules, which are uniserial and recorded as a pair
  (top vertex, length) with ``length <= c_top``;
* finite modules, which are multisets of uniserials (``ModuleSum``).

Vertices are numbered 1..n and arrows point ``i -> i+1`` (mod n on the
cycle).  Paths compose left to right: ``ab`` means "a then b".
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import Iterable, Iterator

LINEAR = "linear"
CYCLIC = "cyclic"

#: Sentinel for "no finite value": infinite generation time, projective dimension, ...
#: ``float("inf")`` compares correctly against every int, which is all we need.
INFINITE = float("inf")


class InputError(ValueError):
    """Raised for malformed descriptors, module literals, or out-of-range data."""


class RefusalError(RuntimeError):
    """Raised when a computation is refused for size reasons (override with force)."""


@dataclass(frozen=True, order=True)
class Relation:
    """Path generating the admissible ideal: ``length`` arrows starting at ``start``."""

    start: int
    length: int


@dataclass(frozen=True)
class AlgebraDescriptor:
    """User-facing presentation: quiver shape, vertex count, optional relation."""

    shape: str
    n: int
    relation: Relation | None = None


@dataclass(frozen=True)
class Algebra:
    """A Nakayama algebra with its derived Kupisch series.

    Construct through :func:`build_algebra` (or, for property tests only,
    :func:`algebra_from_kupisch`).  ``kupisch[i-1]`` is ``c_i`` = the length
    of the projective cover P(i).
    """

    descriptor: AlgebraDescriptor
    kupisch: tuple[int, ...]

    # Every lru_cache key and IndecSet hashes its algebra, so the hash and
    # the invariants below are computed once per instance and kept in its
    # __dict__ (cached_property writes there, past the frozen __setattr__).
    # The hash is the one the dataclass would give, (descriptor, kupisch);
    # it hashes the shape string, which differs between interpreters with
    # other PYTHONHASHSEEDs, so __reduce__ pickles the fields alone and an
    # unpickled copy hashes afresh.

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.descriptor, self.kupisch))

    def __reduce__(self):
        return Algebra, (self.descriptor, self.kupisch)

    @property
    def shape(self) -> str:
        return self.descriptor.shape

    @cached_property
    def n(self) -> int:
        return self.descriptor.n

    @property
    def relation(self) -> Relation | None:
        return self.descriptor.relation

    @cached_property
    def is_linear(self) -> bool:
        return self.descriptor.shape == LINEAR

    def c(self, vertex: int) -> int:
        """Kupisch entry c_vertex = dim P(vertex)."""
        return self.kupisch[vertex - 1]

    @cached_property
    def dimension(self) -> int:
        """dim of the algebra = sum of the projective lengths."""
        return sum(self.kupisch)

    def step(self, vertex: int, k: int = 1) -> int:
        """Vertex reached from ``vertex`` after ``k`` arrows (mod n on a cycle).

        On the linear shape the result may exceed n; callers guard ranges.
        """
        if self.is_linear:
            return vertex + k
        return (vertex - 1 + k) % self.n + 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        rel = self.relation
        tail = f", rel({rel.start},{rel.length})" if rel else ""
        return f"Algebra({self.shape}({self.n}){tail})"


@dataclass(frozen=True, order=True)
class Uniserial:
    """Indecomposable module: uniserial with composition series read down the quiver.

    ``top_vertex`` carries the top (head) simple; the radical filtration walks
    one arrow per step, so the socle sits ``length - 1`` arrows further on.
    """

    top_vertex: int
    length: int


@dataclass(frozen=True)
class ModuleSum:
    """Finite module = multiset of uniserials, stored sorted for canonicality.

    The empty multiset is the zero module.  Direct sum is ``+``.
    """

    summands: tuple[Uniserial, ...] = ()

    @staticmethod
    def of(*parts: Uniserial) -> "ModuleSum":
        return ModuleSum(tuple(sorted(parts)))

    @staticmethod
    def from_iterable(parts: Iterable[Uniserial]) -> "ModuleSum":
        return ModuleSum(tuple(sorted(parts)))

    @staticmethod
    def zero() -> "ModuleSum":
        return ModuleSum(())

    @property
    def is_zero(self) -> bool:
        return not self.summands

    @property
    def dim(self) -> int:
        return sum(u.length for u in self.summands)

    def __add__(self, other: "ModuleSum") -> "ModuleSum":
        return ModuleSum(tuple(sorted(self.summands + other.summands)))

    def __iter__(self) -> Iterator[Uniserial]:
        return iter(self.summands)

    def __len__(self) -> int:
        return len(self.summands)


class SpiClass(Enum):
    """Trichotomy used when deciding how small an algebra's homology can be."""

    SEMISIMPLE = "semisimple"
    SPI = "spi"  # every simple is projective or injective, not semisimple
    NOT_SPI = "not-spi"


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


def _is_int(value) -> bool:
    """An integer proper: bool is an int subclass, but true is not a count."""
    return isinstance(value, int) and not isinstance(value, bool)


def _validate_descriptor(desc: AlgebraDescriptor) -> None:
    if desc.shape not in (LINEAR, CYCLIC):
        raise InputError(f"shape must be '{LINEAR}' or '{CYCLIC}', got {desc.shape!r}")
    if not _is_int(desc.n) or desc.n < 1:
        raise InputError(f"n must be a positive integer, got {desc.n!r}")
    rel = desc.relation
    if rel is None:
        if desc.shape == CYCLIC:
            raise InputError("a cyclic quiver needs a relation (the path algebra is infinite dimensional)")
        return
    if not _is_int(rel.start) or not _is_int(rel.length):
        raise InputError("relation start/length must be integers")
    if rel.length < 2:
        raise InputError(f"relation length must be >= 2 (admissibility), got {rel.length}")
    if not 1 <= rel.start <= desc.n:
        raise InputError(f"relation start must be a vertex in 1..{desc.n}, got {rel.start}")
    if desc.shape == LINEAR and rel.start + rel.length - 1 > desc.n:
        raise InputError(
            f"relation path leaves the linear quiver: start {rel.start} + {rel.length} arrows needs "
            f"vertex {rel.start + rel.length}, but n = {desc.n}"
        )


def _kupisch_entry(desc: AlgebraDescriptor, i: int) -> int:
    """c_i = 1 + length of the longest path from i avoiding the relation."""
    rel = desc.relation
    if desc.shape == LINEAR:
        free = desc.n - i  # path to the sink
        if rel is not None and rel.start >= i:
            # the path from i hits the relation once it covers arrows
            # start .. start+length-1; it stays clean up to that window.
            free = min(free, rel.start - i + rel.length - 1)
        return free + 1
    assert rel is not None
    # distance (in arrows) from i forward to the relation's start vertex
    t0 = (rel.start - i) % desc.n
    return t0 + rel.length


def build_algebra(shape: str, n: int, relation: Relation | None = None) -> Algebra:
    """Build an algebra from its presentation, deriving the Kupisch series."""
    desc = AlgebraDescriptor(shape=shape, n=n, relation=relation)
    _validate_descriptor(desc)
    kupisch = tuple(_kupisch_entry(desc, i) for i in range(1, n + 1))
    return Algebra(descriptor=desc, kupisch=kupisch)


def algebra_from_kupisch(shape: str, kupisch: Iterable[int]) -> Algebra:
    """Debug/property-test entry: accept a raw Kupisch series after validating it.

    Such an algebra need not come from a single-path relation, so the
    descriptor carries ``relation=None``; the GF(2) oracle still works because
    module validation only needs the Kupisch series (paths of length c_i die).
    """
    series = tuple(kupisch)
    n = len(series)
    if n < 1:
        raise InputError("kupisch series must be nonempty")
    if not all(_is_int(c) for c in series):
        raise InputError(f"kupisch entries must be integers, got {series!r}")
    if any(c < 1 for c in series):
        raise InputError("kupisch entries must be >= 1")
    if shape == LINEAR:
        if series[-1] != 1:
            raise InputError("linear kupisch series must end with c_n = 1")
        for i in range(n - 1):
            if series[i] > series[i + 1] + 1:
                raise InputError(f"kupisch condition violated at {i + 1}: {series[i]} > {series[i + 1]} + 1")
    elif shape == CYCLIC:
        if any(c < 2 for c in series):
            raise InputError("cyclic kupisch entries must be >= 2 (admissibility)")
        for i in range(n):
            if series[i] > series[(i + 1) % n] + 1:
                raise InputError(f"kupisch condition violated at {i + 1}")
    else:
        raise InputError(f"shape must be '{LINEAR}' or '{CYCLIC}', got {shape!r}")
    desc = AlgebraDescriptor(shape=shape, n=n, relation=None)
    return Algebra(descriptor=desc, kupisch=series)


def validate_uniserial(A: Algebra, u: Uniserial) -> Uniserial:
    """Check (top, length) labels an actual indecomposable of A."""
    if not 1 <= u.top_vertex <= A.n:
        raise InputError(f"top vertex {u.top_vertex} outside 1..{A.n}")
    if not 1 <= u.length <= A.c(u.top_vertex):
        raise InputError(
            f"length {u.length} invalid at vertex {u.top_vertex}: must be in 1..{A.c(u.top_vertex)}"
        )
    return u


def validate_module(A: Algebra, M: ModuleSum) -> ModuleSum:
    for u in M:
        validate_uniserial(A, u)
    return M


# ---------------------------------------------------------------------------
# indecomposables and distinguished modules
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def indecomposables(A: Algebra) -> tuple[Uniserial, ...]:
    """All indecomposables, ordered by (top vertex, length).

    For linear shapes this order is also compatible with hom flow: a nonzero
    map M -> N forces N's (top, end) componentwise <= M's, so N sorts first.
    """
    return tuple(
        Uniserial(i, l) for i in range(1, A.n + 1) for l in range(1, A.c(i) + 1)
    )


@lru_cache(maxsize=None)
def indec_index(A: Algebra) -> dict[Uniserial, int]:
    return {u: k for k, u in enumerate(indecomposables(A))}


def simple(A: Algebra, i: int) -> Uniserial:
    return validate_uniserial(A, Uniserial(i, 1))


def projective(A: Algebra, i: int) -> Uniserial:
    """P(i): the longest uniserial with top S(i)."""
    if not 1 <= i <= A.n:
        raise InputError(f"vertex {i} outside 1..{A.n}")
    return Uniserial(i, A.c(i))


@lru_cache(maxsize=None)
def injective(A: Algebra, j: int) -> Uniserial:
    """I(j): the longest uniserial with socle S(j).

    A uniserial (i, l) has socle at vertex i + (l-1) arrows; maximise l over
    tops that land on j.  On the line this is M_[1,j] when no relation cuts
    it short.
    """
    if not 1 <= j <= A.n:
        raise InputError(f"vertex {j} outside 1..{A.n}")
    best = 0
    for l in range(1, max(A.kupisch) + 1):
        if A.is_linear:
            top = j - l + 1
            if top < 1:
                break
        else:
            top = (j - l) % A.n + 1
        if l <= A.c(top):
            best = l
    assert best >= 1
    if A.is_linear:
        return Uniserial(j - best + 1, best)
    return Uniserial((j - best) % A.n + 1, best)


def regular_module(A: Algebra) -> ModuleSum:
    """The algebra as a right module over itself: direct sum of all P(i)."""
    return ModuleSum.from_iterable(projective(A, i) for i in range(1, A.n + 1))


def socle_vertex(A: Algebra, u: Uniserial) -> int:
    return A.step(u.top_vertex, u.length - 1) if u.length > 1 else u.top_vertex


def is_projective(A: Algebra, u: Uniserial) -> bool:
    return u.length == A.c(u.top_vertex)


def is_injective(A: Algebra, u: Uniserial) -> bool:
    return injective(A, socle_vertex(A, u)) == u


# ---------------------------------------------------------------------------
# radical / socle / top / Loewy length
# ---------------------------------------------------------------------------


def _as_sum(M: ModuleSum | Uniserial) -> ModuleSum:
    if isinstance(M, Uniserial):
        return ModuleSum.of(M)
    return M


def radical(A: Algebra, M: ModuleSum | Uniserial) -> ModuleSum:
    """rad M: drop the top of every summand, shifting one arrow down."""
    out = []
    for u in _as_sum(M):
        if u.length > 1:
            out.append(Uniserial(A.step(u.top_vertex), u.length - 1))
    return ModuleSum.from_iterable(out)


def top(A: Algebra, M: ModuleSum | Uniserial) -> ModuleSum:
    """M / rad M: one simple per summand, at the top vertex."""
    return ModuleSum.from_iterable(Uniserial(u.top_vertex, 1) for u in _as_sum(M))


def socle(A: Algebra, M: ModuleSum | Uniserial) -> ModuleSum:
    """Largest semisimple submodule: one simple per summand, at the socle vertex."""
    return ModuleSum.from_iterable(
        Uniserial(socle_vertex(A, u), 1) for u in _as_sum(M)
    )


def loewy_length(M: ModuleSum | Uniserial) -> int:
    """Least k with rad^k M = 0; for uniserials that is just the length."""
    M = _as_sum(M)
    if M.is_zero:
        return 0
    return max(u.length for u in M)


def algebra_loewy_length(A: Algebra) -> int:
    """Loewy length of the algebra = that of its regular module = max c_i."""
    return max(A.kupisch)


def spi_classify(A: Algebra) -> SpiClass:
    """Classify: semisimple / every simple projective-or-injective / neither."""
    if algebra_loewy_length(A) == 1:
        return SpiClass.SEMISIMPLE
    for i in range(1, A.n + 1):
        s = simple(A, i)
        if is_projective(A, s) or is_injective(A, s):
            continue
        return SpiClass.NOT_SPI
    return SpiClass.SPI


# ---------------------------------------------------------------------------
# parsing / serialisation
# ---------------------------------------------------------------------------


def parse_module_literal(A: Algebra, text: str) -> ModuleSum:
    """Parse ``"1-4+2-2"`` as M(1,4) (+) M(2,2); ``"0"`` is the zero module."""
    text = text.strip()
    if text == "0" or text == "":
        return ModuleSum.zero()
    parts = []
    for chunk in text.split("+"):
        chunk = chunk.strip()
        fields = chunk.split("-")
        if len(fields) != 2:
            raise InputError(f"bad module summand {chunk!r}: expected 'top-length'")
        try:
            i, l = int(fields[0]), int(fields[1])
        except ValueError as exc:
            raise InputError(f"bad module summand {chunk!r}: {exc}") from exc
        parts.append(validate_uniserial(A, Uniserial(i, l)))
    return ModuleSum.from_iterable(parts)


def format_module(M: ModuleSum | Uniserial) -> str:
    M = _as_sum(M)
    if M.is_zero:
        return "0"
    return "+".join(f"{u.top_vertex}-{u.length}" for u in M)


def descriptor_from_dict(data: dict) -> AlgebraDescriptor:
    try:
        shape = data["shape"]
        n = data["n"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"algebra descriptor needs 'shape' and 'n': {exc}") from exc
    rel_data = data.get("relation")
    relation = None
    if rel_data is not None:
        try:
            relation = Relation(start=rel_data["start"], length=rel_data["length"])
        except (KeyError, TypeError) as exc:
            raise InputError(f"bad relation object {rel_data!r}") from exc
        if not (_is_int(relation.start) and _is_int(relation.length)):
            raise InputError(f"relation start/length must be integers, got {rel_data!r}")
    if not _is_int(n):
        raise InputError(f"n must be an integer, got {n!r}")
    return AlgebraDescriptor(shape=shape, n=n, relation=relation)


def descriptor_to_dict(desc: AlgebraDescriptor) -> dict:
    rel = None
    if desc.relation is not None:
        rel = {"start": desc.relation.start, "length": desc.relation.length}
    return {"shape": desc.shape, "n": desc.n, "relation": rel}


def load_algebra(path: str) -> Algebra:
    """Read a JSON descriptor file and build the algebra."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read algebra file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path!r}: {exc}") from exc
    desc = descriptor_from_dict(data)
    return build_algebra(desc.shape, desc.n, desc.relation)
