"""Outside-in span tracing of orlov_kit, installed by the benchmark child.

Nothing in the package is edited.  ``install`` replaces each traced function
with a recording wrapper in *every* ``orlov_kit`` namespace that binds it:
``cli`` imports ``orlov_spectrum`` and ``radical_nilpotence_check`` by name,
``oracle`` imports ``star``, and ``__init__`` re-exports most names, so
patching only the defining module would miss those call sites.

A span is (name, start, end, parent span).  Spans live in compact arrays
while the command runs and are written out once at the end.  Self time is a
span's length minus the time its child spans cover.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from functools import lru_cache
from time import perf_counter

#: metric prefix -> (module, attribute, how to wrap).
#:   plain: wrap the function; every call is a span.
#:   outer: wrap an lru_cache object from outside; every call, hit or miss,
#:          is a span, and the cache's own miss count is reported beside it.
#:   inner: rebuild the lru_cache around a wrapped body, so only real
#:          evaluations are spans; the boolean result is tallied.
TRACED = {
    "closure.realizable": ("orlov_kit.closure", "_realizable", "inner"),
    "closure.floor": ("orlov_kit.closure", "_floor_mask", "plain"),
    "closure.hull": ("orlov_kit.closure", "_star_hull", "outer"),
    "closure.star_mask": ("orlov_kit.closure", "star_mask", "outer"),
    "closure.generation_time": ("orlov_kit.closure", "generation_time", "plain"),
    "closure.orlov_spectrum": ("orlov_kit.closure", "orlov_spectrum", "plain"),
    "oracle.to_matrep": ("orlov_kit.oracle", "to_matrep", "plain"),
    "oracle.validate_matrep": ("orlov_kit.oracle", "validate_matrep", "plain"),
    "oracle.decompose": ("orlov_kit.oracle", "decompose", "plain"),
    "oracle.middle_summand_union": ("orlov_kit.oracle", "middle_summand_union", "plain"),
    "oracle.hom_space_dim": ("orlov_kit.oracle", "hom_space_dim", "plain"),
    "oracle.ext_dim_oracle": ("orlov_kit.oracle", "ext_dim_oracle", "plain"),
    "morphisms.radical_nilpotence_check": ("orlov_kit.morphisms", "radical_nilpotence_check", "plain"),
    "morphisms.compose": ("orlov_kit.morphisms", "compose", "plain"),
    "morphisms.morphism": ("orlov_kit.morphisms", "morphism", "plain"),
    "morphisms.coghost_lemma_check": ("orlov_kit.morphisms", "coghost_lemma_check", "plain"),
    "morphisms.irreducible_coghosts": ("orlov_kit.morphisms", "irreducible_coghosts", "plain"),
    "homext.hom_dim": ("orlov_kit.homext", "hom_dim", "plain"),
    "homext.middle_term": ("orlov_kit.homext", "middle_term", "plain"),
    "nakayama.validate_uniserial": ("orlov_kit.nakayama", "validate_uniserial", "plain"),
    "nakayama.load_algebra": ("orlov_kit.nakayama", "load_algebra", "plain"),
    "layers.oriented_cycle_report": ("orlov_kit.layers", "oriented_cycle_report", "plain"),
    "layers.algebra_llts": ("orlov_kit.layers", "algebra_llts", "plain"),
    "layers.projective_dimension": ("orlov_kit.layers", "projective_dimension", "plain"),
    "cli.emit": ("orlov_kit.cli", "_emit", "plain"),
    "cli.main": ("orlov_kit.cli", "main", "plain"),
}


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.names = list(TRACED)
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.outcomes: dict[str, list[int]] = {}  # name -> [false, true]
        self.caches: dict[str, object] = {}  # name -> lru_cache object

    def _wrap(self, name: str, fn):
        nid = self.names.index(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _wrap_tally(self, name: str, fn):
        tally = self.outcomes.setdefault(name, [0, 0])
        inner = self._wrap(name, fn)

        def counted(*args):
            result = inner(*args)
            tally[bool(result)] += 1
            return result

        return counted

    def install(self) -> None:
        """Patch every traced function in every loaded orlov_kit namespace."""
        namespaces = [m for k, m in sys.modules.items() if k == "orlov_kit" or k.startswith("orlov_kit.")]
        for name, (module, attr, kind) in TRACED.items():
            original = getattr(sys.modules[module], attr)
            if kind == "inner":
                replacement = lru_cache(maxsize=None)(self._wrap_tally(name, original.__wrapped__))
            else:
                replacement = self._wrap(name, original)
                if kind == "outer":
                    self.caches[name] = original
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, replacement)

    def summary(self) -> dict:
        """Per traced name: calls, inclusive seconds, self seconds, extras."""
        k = len(self.names)
        calls = [0] * k
        total = [0.0] * k
        self_s = [0.0] * k
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        for i in range(len(name_id)):
            nid = name_id[i]
            d = end[i] - start[i]
            calls[nid] += 1
            total[nid] += d
            self_s[nid] += d
            p = parent[i]
            if p >= 0:
                self_s[name_id[p]] -= d
        out = {
            name: {"calls": calls[j], "s": total[j], "self_s": self_s[j]}
            for j, name in enumerate(self.names)
        }
        for name, (false, true) in self.outcomes.items():
            out[name].update(decided=false + true, realized=true, refuted=false)
        for name, cache in self.caches.items():
            out[name]["misses"] = cache.cache_info().misses
        return out

    def write(self, path: str, command_id: int) -> None:
        """Write the spans as gzipped tab-separated rows: name start end parent command."""
        names = self.names
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\tcommand\n")
            fh.writelines(
                f"{names[name_id[i]]}\t{start[i]:.9f}\t{end[i]:.9f}\t{parent[i]}\t{command_id}\n"
                for i in range(len(name_id))
            )
