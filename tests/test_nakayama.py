"""Algebra construction, module calculus, parsing, and the SPI trichotomy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from orlov_kit.nakayama import (
    CYCLIC,
    LINEAR,
    AlgebraDescriptor,
    InputError,
    ModuleSum,
    Relation,
    SpiClass,
    Uniserial,
    algebra_from_kupisch,
    algebra_loewy_length,
    build_algebra,
    descriptor_from_dict,
    descriptor_to_dict,
    format_module,
    indecomposables,
    injective,
    load_algebra,
    loewy_length,
    parse_module_literal,
    projective,
    radical,
    regular_module,
    simple,
    socle,
    spi_classify,
    top,
    validate_uniserial,
)

from conftest import all_linear_algebras

SRC = Path(__file__).resolve().parents[1] / "src"
FIXTURES = SRC / "orlov_kit" / "fixtures"


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_hereditary_linear_kupisch(linear):
    assert linear(4).kupisch == (4, 3, 2, 1)
    assert linear(1).kupisch == (1,)


def test_relation_kupisch(linear3_ab):
    assert linear3_ab.kupisch == (2, 2, 1)


def test_cyclic_fixture_kupisch(cyclic_fixture):
    assert cyclic_fixture.kupisch == (20, 23, 22, 21)
    assert algebra_loewy_length(cyclic_fixture) == 23
    assert cyclic_fixture.dimension == 86


def test_indecomposable_counts(linear, linear3_ab, cyclic_fixture):
    assert len(indecomposables(linear(4))) == 10
    assert len(indecomposables(linear3_ab)) == 5
    assert len(indecomposables(cyclic_fixture)) == 86
    # one uniserial per (top, length), so the count is sum(kupisch)
    for n in range(1, 7):
        for A in all_linear_algebras(n):
            assert len(indecomposables(A)) == A.dimension, A
    assert len(indecomposables(cyclic_fixture)) == cyclic_fixture.dimension


def test_cached_invariants_match_the_fields():
    # n, is_linear, dimension and the hash are computed once per instance;
    # each must equal its value from the fields, on first use and after
    paths = sorted(FIXTURES.glob("*.json"))
    assert len(paths) == 7
    for path in paths:
        A = load_algebra(str(path))
        for _ in range(2):
            assert A.n == A.descriptor.n == len(A.kupisch), path.name
            assert A.is_linear == (A.descriptor.shape == LINEAR), path.name
            assert A.dimension == sum(A.kupisch), path.name
            assert hash(A) == hash((A.descriptor, A.kupisch)), path.name
        assert load_algebra(str(path)) == A
        assert hash(load_algebra(str(path))) == hash(A)


_DUMP = """
import pickle, sys
from orlov_kit.nakayama import load_algebra
A = load_algebra(sys.argv[1])
A.n, A.is_linear, A.dimension  # fill every cached entry
print(hash(A), pickle.dumps(A).hex())
"""

_LOAD = """
import pickle, sys
from orlov_kit.nakayama import load_algebra
A = pickle.loads(bytes.fromhex(sys.argv[2]))
B = load_algebra(sys.argv[1])
print(sorted(vars(A)), A == B, hash(A) == hash(B), hash(A))
"""


def test_pickled_algebra_hashes_afresh():
    # The hash covers the shape string, whose hash depends on
    # PYTHONHASHSEED, so an algebra sent to a worker with another seed must
    # not bring its cached hash along.
    def run(code, seed, *args):
        env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": seed}
        proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()

    for name in ("linear4.json", "linear3_ab.json", "cyclic4_rel20.json"):
        path = str(FIXTURES / name)
        old_hash, blob = run(_DUMP, "1", path)
        got = run(_LOAD, "2", path, blob)
        assert got[:-1] == ["['descriptor',", "'kupisch']", "True", "True"], (name, got)
        assert got[-1] != old_hash, name  # the seed did change the hash


def test_rejects_bad_descriptors():
    with pytest.raises(InputError):
        build_algebra("pentagon", 3, None)
    with pytest.raises(InputError):
        build_algebra(LINEAR, 0, None)
    with pytest.raises(InputError):
        build_algebra(LINEAR, 3, Relation(1, 1))  # not admissible
    with pytest.raises(InputError):
        build_algebra(LINEAR, 3, Relation(3, 2))  # path runs off the quiver
    with pytest.raises(InputError):
        build_algebra(CYCLIC, 3, None)  # infinite dimensional
    for n, relation in (
        (True, None),  # bool is an int subclass, not a vertex count
        (3.0, None),
        ("3", None),
        (3, Relation(True, 2)),
        (3, Relation(1, 2.0)),
        (3, Relation("1", 2)),
    ):
        with pytest.raises(InputError):
            build_algebra(LINEAR, n, relation)
    # the Kupisch entry point checks its entries the same way: no truncating
    # 2.9 to 2 or reading True as 1
    for series in ((2.9, True), (2, True), (2.0, 1), ("2", 1), (3, 2, 1.0)):
        with pytest.raises(InputError):
            algebra_from_kupisch(LINEAR, series)


def test_kupisch_entry_point_validates():
    A = algebra_from_kupisch(LINEAR, (3, 2, 1))
    assert A.kupisch == (3, 2, 1)
    with pytest.raises(InputError):
        algebra_from_kupisch(LINEAR, (3, 1, 1, 1))  # c_1 > c_2 + 1
    with pytest.raises(InputError):
        algebra_from_kupisch(LINEAR, (2, 2))  # linear series must end in 1
    with pytest.raises(InputError):
        algebra_from_kupisch(CYCLIC, (4, 2, 2))  # wrap-around condition fails
    with pytest.raises(InputError):
        algebra_from_kupisch(CYCLIC, (2, 2, 1))  # cyclic entries must be >= 2


def test_uniserial_validation(linear, linear3_ab):
    validate_uniserial(linear(4), Uniserial(2, 3))
    with pytest.raises(InputError):
        validate_uniserial(linear(4), Uniserial(2, 4))  # longer than P(2)
    with pytest.raises(InputError):
        validate_uniserial(linear3_ab, Uniserial(1, 3))  # killed by the relation
    with pytest.raises(InputError):
        validate_uniserial(linear(4), Uniserial(0, 1))


# ---------------------------------------------------------------------------
# module calculus
# ---------------------------------------------------------------------------


def test_projective_injective_simple(linear, linear3_ab):
    A = linear(4)
    assert projective(A, 1) == Uniserial(1, 4)
    assert injective(A, 3) == Uniserial(1, 3)
    assert injective(A, 4) == Uniserial(1, 4)
    assert simple(A, 2) == Uniserial(2, 1)
    assert projective(linear3_ab, 1) == Uniserial(1, 2)
    assert injective(linear3_ab, 3) == Uniserial(2, 2)


def test_radical_top_socle(linear):
    A = linear(4)
    assert radical(A, projective(A, 1)) == ModuleSum.of(Uniserial(2, 3))
    assert top(A, regular_module(A)) == ModuleSum.from_iterable(
        simple(A, i) for i in range(1, 5)
    )
    assert socle(A, ModuleSum.of(Uniserial(1, 2), Uniserial(1, 1))) == ModuleSum.of(
        Uniserial(2, 1), Uniserial(1, 1)
    )


def test_loewy_length_values(linear, cyclic_fixture):
    assert loewy_length(ModuleSum.zero()) == 0
    assert algebra_loewy_length(cyclic_fixture) == 23
    for n in (1, 2, 5):
        assert algebra_loewy_length(linear(n)) == n


def test_zero_module_is_first_class(linear):
    A = linear(3)
    zero = ModuleSum.zero()
    assert zero.is_zero and zero.dim == 0
    assert radical(A, zero) == zero
    assert top(A, zero) == zero
    assert socle(A, zero) == zero
    assert parse_module_literal(A, "0") == zero
    assert format_module(zero) == "0"


def test_module_sum_is_canonical():
    a, b = Uniserial(2, 1), Uniserial(1, 2)
    assert ModuleSum.of(a, b) == ModuleSum.of(b, a)
    assert ModuleSum.of(a, b).summands == (b, a)  # sorted by (top, length)
    assert (ModuleSum.of(a) + ModuleSum.of(b)).dim == 3


# ---------------------------------------------------------------------------
# parsing / serialisation
# ---------------------------------------------------------------------------


def test_parse_module_literal(linear):
    A = linear(4)
    M = parse_module_literal(A, "1-4+2-2")
    assert M == ModuleSum.of(Uniserial(1, 4), Uniserial(2, 2))
    with pytest.raises(InputError):
        parse_module_literal(A, "1-4+2")
    with pytest.raises(InputError):
        parse_module_literal(A, "5-1")


@st.composite
def _module_over_linear4(draw):
    parts = draw(
        st.lists(
            st.tuples(st.integers(1, 4), st.integers(1, 4)).filter(
                lambda il: il[0] + il[1] <= 5
            ),
            max_size=5,
        )
    )
    return ModuleSum.from_iterable(Uniserial(i, l) for i, l in parts)


@given(_module_over_linear4())
def test_literal_round_trip(M):
    A = build_algebra(LINEAR, 4, None)
    assert parse_module_literal(A, format_module(M)) == M


@given(_module_over_linear4())
def test_radical_drops_loewy_length_by_one(M):
    A = build_algebra(LINEAR, 4, None)
    assert loewy_length(radical(A, M)) == max(loewy_length(M) - 1, 0)


def test_descriptor_round_trip():
    data = {"shape": "cyclic", "n": 4, "relation": {"start": 1, "length": 20}}
    desc = descriptor_from_dict(data)
    assert desc == AlgebraDescriptor(CYCLIC, 4, Relation(1, 20))
    assert descriptor_to_dict(desc) == data
    assert json.loads(json.dumps(descriptor_to_dict(desc))) == data
    with pytest.raises(InputError):
        descriptor_from_dict({"shape": "linear"})
    with pytest.raises(InputError):
        descriptor_from_dict({"shape": "linear", "n": "four"})
    # no coercion: bools, floats and numeric strings are refused, not cast
    for bad in (
        {"shape": "linear", "n": True},
        {"shape": "linear", "n": 3.0},
        {"shape": "linear", "n": "3"},
        {"shape": "linear", "n": 3, "relation": {"start": 1, "length": 2.9}},
        {"shape": "linear", "n": 3, "relation": {"start": "1", "length": 2}},
        {"shape": "linear", "n": 3, "relation": {"start": 1, "length": True}},
        {"shape": "linear", "n": 3, "relation": {"start": 1}},
        {"shape": "linear", "n": 3, "relation": [1, 2]},
    ):
        with pytest.raises(InputError):
            descriptor_from_dict(bad)


# ---------------------------------------------------------------------------
# SPI trichotomy
# ---------------------------------------------------------------------------


def test_spi_examples(linear):
    assert spi_classify(linear(1)) is SpiClass.SEMISIMPLE
    assert spi_classify(linear(2)) is SpiClass.SPI
    assert spi_classify(linear(4)) is SpiClass.NOT_SPI


def test_semisimple_iff_loewy_one():
    for n in (1, 2, 3):
        for A in all_linear_algebras(n):
            semisimple = spi_classify(A) is SpiClass.SEMISIMPLE
            assert semisimple == (algebra_loewy_length(A) == 1)
