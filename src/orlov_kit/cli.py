"""Command-line surface: JSON in, JSON (or DOT) out.

Every command reads an algebra descriptor file (``--algebra``), except
``verify`` which runs on the bundled fixtures.  Output is a single JSON
document on stdout with ``"schema": "orlov-kit/1"``, serialized with sorted
keys so runs are byte-identical (including across ``--jobs`` settings).

Exit codes: 0 success, 2 usage error (argparse), 3 bad input, 4 size
refusal, 5 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources

from .closure import (
    COGHOST_CHECK_LIMIT,
    IndecSet,
    bracket_n,
    generation_time,
    is_strong_generator,
    orlov_spectrum,
)
from .homext import ar_quiver, ar_quiver_dot
from .layers import (
    TorsionSpec,
    algebra_llts,
    global_dimension,
    injective_dimension,
    oriented_cycle_report,
    projective_dimension,
    radical_layer_length,
    theorem2_spectrum,
)
from .morphisms import irreducible_coghosts, radical_nilpotence_check, tm_generator, tm_members
from .nakayama import (
    INFINITE,
    Algebra,
    InputError,
    ModuleSum,
    RefusalError,
    algebra_loewy_length,
    build_algebra,
    format_module,
    indecomposables,
    injective,
    is_injective,
    is_projective,
    load_algebra,
    parse_module_literal,
    projective,
    simple,
    socle_vertex,
    spi_classify,
)
from .oracle import oracle_report

SCHEMA = "orlov-kit/1"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_REFUSAL = 4
EXIT_VERIFY = 5

DEFAULT_SEED = 20260814


def _emit(payload: dict) -> None:
    payload = dict(payload)
    payload["schema"] = SCHEMA
    json.dump(payload, sys.stdout, sort_keys=True, separators=(", ", ": "))
    sys.stdout.write("\n")


def _finite(value):
    """JSON-friendly form of naturals that may be INFINITE."""
    return "infinite" if value is INFINITE else value


def _algebra_blurb(A: Algebra) -> dict:
    rel = A.relation
    return {
        "shape": A.shape,
        "n": A.n,
        "relation": None if rel is None else {"start": rel.start, "length": rel.length},
    }


def _parse_simples(A: Algebra, text: str) -> TorsionSpec:
    text = text.strip()
    if not text:
        return TorsionSpec.of(A, ())
    try:
        vertices = [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise InputError(f"bad --simples list {text!r}: {exc}") from exc
    return TorsionSpec.of(A, vertices)


def _generator_set(A: Algebra, literal: str) -> IndecSet:
    M = parse_module_literal(A, literal)
    if M.is_zero:
        raise InputError("generator must be nonzero")
    return IndecSet.of(A, set(M.summands))


# ---------------------------------------------------------------------------
# command bodies
# ---------------------------------------------------------------------------


def _cmd_algebra(args) -> int:
    A = load_algebra(args.algebra)
    _emit(
        {
            "algebra": _algebra_blurb(A),
            "kupisch": list(A.kupisch),
            "dimension": A.dimension,
            "loewy_length": algebra_loewy_length(A),
            "indecomposables": A.dimension,  # one uniserial per (top, length): sum(kupisch)
            "spi_class": spi_classify(A).value,
            "global_dimension": _finite(global_dimension(A)),
        }
    )
    return EXIT_OK


def _cmd_indec(args) -> int:
    A = load_algebra(args.algebra)
    rows = [
        {
            "module": format_module(u),
            "dim": u.length,
            "top": u.top_vertex,
            "socle": socle_vertex(A, u),
            "projective": is_projective(A, u),
            "injective": is_injective(A, u),
        }
        for u in indecomposables(A)
    ]
    _emit({"algebra": _algebra_blurb(A), "count": len(rows), "indecomposables": rows})
    return EXIT_OK


def _cmd_closure(args) -> int:
    A = load_algebra(args.algebra)
    T = _generator_set(A, args.gen)
    level = bracket_n(A, T, args.level)
    _emit(
        {
            "algebra": _algebra_blurb(A),
            "generator": args.gen,
            "level": args.level,
            "members": [format_module(u) for u in level.members()],
            "count": len(level),
            "is_everything": level.is_full,
        }
    )
    return EXIT_OK


def _cmd_gentime(args) -> int:
    A = load_algebra(args.algebra)
    T = _generator_set(A, args.gen)
    time = generation_time(A, T)
    _emit(
        {
            "algebra": _algebra_blurb(A),
            "generator": args.gen,
            "generation_time": _finite(time),
            "strong_generator": is_strong_generator(A, T),
        }
    )
    return EXIT_OK


def _cmd_ospec(args) -> int:
    A = load_algebra(args.algebra)
    result = orlov_spectrum(A, force=args.force, jobs=args.jobs)
    _emit(
        {
            "algebra": _algebra_blurb(A),
            "spectrum": sorted(result.spectrum),
            "ext_dim": result.ext_dim,
            "u_dim": result.u_dim,
            "witnesses": {str(t): format_module(m) for t, m in sorted(result.witnesses.items())},
        }
    )
    return EXIT_OK


def _cmd_llts(args) -> int:
    A = load_algebra(args.algebra)
    spec = _parse_simples(A, args.simples)
    if args.module is None:
        value = algebra_llts(A, spec)
    else:
        value = radical_layer_length(A, spec, parse_module_literal(A, args.module))
    _emit(
        {
            "algebra": _algebra_blurb(A),
            "simples": sorted(spec.vertices),
            "module": args.module,
            "llts": value,
        }
    )
    return EXIT_OK


def _cmd_thm2(args) -> int:
    A = load_algebra(args.algebra)
    spec = _parse_simples(A, args.simples)
    L = algebra_llts(A, spec)
    _emit(
        {
            "algebra": _algebra_blurb(A),
            "simples": sorted(spec.vertices),
            "llts": L,
            "spectrum_subset": sorted(theorem2_spectrum(L)),
        }
    )
    return EXIT_OK


def _cmd_pd(args) -> int:
    A = load_algebra(args.algebra)
    M = parse_module_literal(A, args.module)
    _emit(
        {
            "algebra": _algebra_blurb(A),
            "module": args.module,
            "pd": _finite(projective_dimension(A, M)),
            "id": _finite(injective_dimension(A, M)),
        }
    )
    return EXIT_OK


def _cmd_coghost(args) -> int:
    A = load_algebra(args.algebra)
    # counted before T_m is built; other inputs fail in tm_members or ar_quiver
    if args.list_irreducible and A.is_linear and A.relation is None and 1 <= args.m < A.n:
        checks = A.n * (A.n - 1) * (A.n + args.m - 1)
        if checks > COGHOST_CHECK_LIMIT:
            raise RefusalError(
                f"{A.n * (A.n - 1):,} AR arrows times {A.n + args.m - 1} generator members make "
                f"{checks:,} coghost checks, above the limit of {COGHOST_CHECK_LIMIT:,} "
                "(about 1.0 million a second)"
            )
    payload = {
        "algebra": _algebra_blurb(A),
        "m": args.m,
        "generator": [format_module(u) for u in tm_members(A, args.m)],
    }
    if args.list_irreducible:
        payload["irreducible_coghosts"] = [f.label() for f in irreducible_coghosts(A, tm_generator(A, args.m))]
    _emit(payload)
    return EXIT_OK


def _cmd_coghost_lemma(args) -> int:
    from .morphisms import coghost_lemma_check

    A = load_algebra(args.algebra)
    count = A.dimension  # one uniserial per (top, length): sum(kupisch)
    if count > 12:
        raise RefusalError(
            f"{count} indecomposables means 2^{count} - 1 generator subsets; "
            "the lemma sweep is meant for desk-size algebras"
        )
    violations = []
    for mask in range(1, 1 << count):
        violations.extend(coghost_lemma_check(A, IndecSet(A, mask), args.nmax))
    _emit(
        {
            "algebra": _algebra_blurb(A),
            "nmax": args.nmax,
            "subsets_checked": (1 << count) - 1,
            "violations": violations,
            "ok": not violations,
        }
    )
    return EXIT_OK if not violations else EXIT_VERIFY


def _cmd_arquiver(args) -> int:
    A = load_algebra(args.algebra)
    if args.dot:
        sys.stdout.write(ar_quiver_dot(A))
        return EXIT_OK
    q = ar_quiver(A)
    _emit(
        {
            "algebra": _algebra_blurb(A),
            "nodes": [format_module(u) for u in q.nodes],
            "arrows": [
                {
                    "label": f.label(),
                    "source": format_module(f.source),
                    "target": format_module(f.target),
                }
                for f in q.arrows
            ],
        }
    )
    return EXIT_OK


def _cmd_oracle(args) -> int:
    A = load_algebra(args.algebra)
    report = oracle_report(A, cap=args.cap, max_support=args.max_support)
    _emit(report)
    return EXIT_OK if report["ok"] else EXIT_VERIFY


# ---------------------------------------------------------------------------
# the bundled reference-value table
# ---------------------------------------------------------------------------


def _fixture_path(name: str) -> str:
    return str(resources.files("orlov_kit").joinpath("fixtures", name))


def _fixture(name: str) -> Algebra:
    return load_algebra(_fixture_path(name))


def _verify_checks():
    """Yield (name, expected, actual) rows; equality decides pass/fail."""
    lin = {n: _fixture(f"linear{n}.json") for n in (2, 3, 4, 5)}
    lin3ab = _fixture("linear3_ab.json")
    cyc = _fixture("cyclic4_rel20.json")

    for n in (2, 3, 4):
        yield (
            f"spectrum linear{n}",
            sorted(range(n)),
            sorted(orlov_spectrum(lin[n]).spectrum),
        )

    A4 = lin[4]
    S = IndecSet.of(A4, [simple(A4, i) for i in range(1, 5)])
    lvl2 = {format_module(u) for u in bracket_n(A4, S, 2).members()}
    yield (
        "simples level 2 on linear4",
        {"1-1", "2-1", "3-1", "4-1", "1-2", "2-2", "3-2"},
        lvl2,
    )
    lvl3 = {format_module(u) for u in bracket_n(A4, S, 3).members()}
    yield (
        "simples level 3 on linear4",
        {"1-1", "2-1", "3-1", "4-1", "1-2", "2-2", "3-2", "1-3", "2-3"},
        lvl3,
    )
    yield ("P(1) outside level 3", False, projective(A4, 1) in bracket_n(A4, S, 3))
    yield ("simples level 4 is everything", True, bracket_n(A4, S, 4).is_full)
    yield ("generation time of simples on linear4", 3, generation_time(A4, S))

    yield ("loewy length of the cyclic fixture", 23, algebra_loewy_length(cyc))
    llts_rows = (
        ((), 23), ((1,), 18), ((2,), 17), ((1, 2), 12),
        ((2, 3), 11), ((1, 2, 3), 6), ((2, 3, 4), 5),
    )
    for vertices, expected in llts_rows:
        yield (
            f"layer length of cyclic fixture, simples {list(vertices)}",
            expected,
            algebra_llts(cyc, TorsionSpec.of(cyc, vertices)),
        )

    yield ("spectrum formula at 23", {1, 2, 3, 4, 5, 7, 11, 22}, set(theorem2_spectrum(23)))
    yield ("spectrum formula at 18", {1, 2, 3, 4, 5, 8, 17}, set(theorem2_spectrum(18)))
    yield (
        "spectrum formula at 23 with the representation-finite 0",
        {0, 1, 2, 3, 4, 5, 7, 11, 22},
        set(theorem2_spectrum(23)) | {0},
    )

    yield ("pd of S(1) on linear3+rel", 2, projective_dimension(lin3ab, simple(lin3ab, 1)))
    yield ("pd of S(2) on linear3+rel", 1, projective_dimension(lin3ab, simple(lin3ab, 2)))
    yield ("pd of S(3) on linear3+rel", 0, projective_dimension(lin3ab, simple(lin3ab, 3)))
    yield ("global dimension of linear3+rel", 2, global_dimension(lin3ab))
    simples3 = IndecSet.of(lin3ab, [simple(lin3ab, i) for i in (1, 2, 3)])
    yield ("simples strongly generate linear3+rel", True, is_strong_generator(lin3ab, simples3))

    yield ("spi class of linear2", "spi", spi_classify(lin[2]).value)
    yield ("loewy length bound for spi linear2", 2, algebra_loewy_length(lin[2]))

    T2 = tm_generator(A4, 2)
    yield (
        "irreducible coghosts of T_2 on linear4",
        {"f+[3,3]", "f+[3,4]", "f+[4,4]"},
        {f.label() for f in irreducible_coghosts(A4, T2)},
    )

    nilp = radical_nilpotence_check(A4)
    yield ("4-step radical composites vanish on linear4", [], nilp["nonzero_composites"])
    yield ("longest nonzero radical chain on linear4", 3, nilp["longest_nonzero"])
    nilp6 = radical_nilpotence_check(build_algebra("linear", 6, None))
    yield ("6-step radical composites vanish on linear6", [], nilp6["nonzero_composites"])

    for n, m in ((5, 3), (6, 2), (6, 4)):
        report = oriented_cycle_report(n, m)
        yield (f"cycle report ({n},{m}) internally consistent", True, report["internally_consistent"])
        yield (f"cycle report ({n},{m}) loewy length", n + m - 1, report["loewy_length"])

    inj2 = injective(lin[2], 2)  # M_[1,2]; socle S(2), so both simples are covered
    yield (
        "hereditary linear2 injective envelope of S(2)",
        "1-2",
        format_module(inj2),
    )


def _cmd_verify(args) -> int:
    failures = 0
    rows = []
    for name, expected, actual in _verify_checks():
        ok = expected == actual
        failures += not ok
        rows.append(
            {
                "name": name,
                "expected": _verify_repr(expected),
                "actual": _verify_repr(actual),
                "ok": ok,
            }
        )
    _emit(
        {
            "seed": args.seed,
            "checks": rows,
            "passed": len(rows) - failures,
            "failed": failures,
            "ok": failures == 0,
        }
    )
    return EXIT_OK if failures == 0 else EXIT_VERIFY


def _verify_repr(value):
    if isinstance(value, (set, frozenset)):
        return sorted(value, key=repr)
    if isinstance(value, (list, tuple)):
        return [_verify_repr(v) for v in value]
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    return repr(value)


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orlov-kit",
        description="Extension closures, generation times, Orlov spectra, and "
        "layer lengths for Nakayama algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_algebra(p):
        p.add_argument("--algebra", required=True, help="algebra descriptor JSON file")
        return p

    with_algebra(sub.add_parser("algebra", help="summarize an algebra descriptor"))
    with_algebra(sub.add_parser("indec", help="list the indecomposable modules"))

    p = with_algebra(sub.add_parser("closure", help="members of the extension level [T]_k"))
    p.add_argument("--gen", required=True, help='generator, e.g. "1-1+2-1+3-1+4-1"')
    p.add_argument("--level", type=int, required=True)

    p = with_algebra(sub.add_parser("gentime", help="generation time of a generator"))
    p.add_argument("--gen", required=True)

    p = with_algebra(sub.add_parser("ospec", help="exhaustive Orlov spectrum"))
    p.add_argument("--force", action="store_true", help="run despite the subset-count refusal")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")

    p = with_algebra(sub.add_parser("llts", help="torsion-radical layer length"))
    p.add_argument("--simples", required=True, help='comma list of vertices, e.g. "1,3"')
    p.add_argument("--module", help="module literal; omit for the algebra-level value")

    p = with_algebra(sub.add_parser("thm2", help="layer length and its spectrum subset"))
    p.add_argument("--simples", required=True)

    p = with_algebra(sub.add_parser("pd", help="projective/injective dimension of a module"))
    p.add_argument("--module", required=True)

    p = with_algebra(sub.add_parser("coghost", help="the T_m generator and its coghosts"))
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--list-irreducible", action="store_true")

    p = with_algebra(sub.add_parser("coghost-lemma", help="chain/closure equivalence sweep"))
    p.add_argument("--nmax", type=int, default=4)

    p = with_algebra(sub.add_parser("arquiver", help="Auslander-Reiten quiver"))
    p.add_argument("--dot", action="store_true", help="emit Graphviz DOT instead of JSON")

    oracle = sub.add_parser("oracle", help="GF(2) matrix-representation cross-checks")
    oracle_sub = oracle.add_subparsers(dest="oracle_command", required=True)
    p = with_algebra(oracle_sub.add_parser("verify", help="run the oracle self-check report"))
    p.add_argument("--cap", type=int, default=12, help="total dimension bound")
    p.add_argument("--max-support", type=int, default=2,
                   help="most distinct summands of a star-sweep end")

    p = sub.add_parser("verify", help="replay the bundled reference-value table")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="echoed in the output; no row depends on it")

    return parser


_HANDLERS = {
    "algebra": _cmd_algebra,
    "indec": _cmd_indec,
    "closure": _cmd_closure,
    "gentime": _cmd_gentime,
    "ospec": _cmd_ospec,
    "llts": _cmd_llts,
    "thm2": _cmd_thm2,
    "pd": _cmd_pd,
    "coghost": _cmd_coghost,
    "coghost-lemma": _cmd_coghost_lemma,
    "arquiver": _cmd_arquiver,
    "oracle": _cmd_oracle,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RefusalError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSAL


if __name__ == "__main__":
    sys.exit(main())
