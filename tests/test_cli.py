"""End-to-end CLI tests: JSON envelopes, exit codes, determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from orlov_kit import IndecSet, InputError, cli, load_algebra
from orlov_kit.cli import (
    DEFAULT_SEED,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_REFUSAL,
    SCHEMA,
    _fixture_path,
    main,
)
from orlov_kit.morphisms import coghost_lemma_check

LIN2 = _fixture_path("linear2.json")
LIN3 = _fixture_path("linear3.json")
LIN4 = _fixture_path("linear4.json")
LIN5 = _fixture_path("linear5.json")
LIN3AB = _fixture_path("linear3_ab.json")
CYC = _fixture_path("cyclic4_rel20.json")

#: stdout of the commands checked below, each captured before a refactor of
#: the code behind it (the chain searches and closures; the oracle's middle
#: enumeration).  A refactor must leave these bytes unchanged; a change
#: that alters the output on purpose rewrites the file from the new stdout.
GOLDEN = Path(__file__).parent / "golden"


def golden(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_OK, err
    payload = json.loads(out)
    assert payload["schema"] == SCHEMA
    return payload


# ---------------------------------------------------------------------------
# informational commands
# ---------------------------------------------------------------------------


def test_algebra_summary(capsys):
    payload = run_json(capsys, "algebra", "--algebra", LIN4)
    assert payload["kupisch"] == [4, 3, 2, 1]
    assert payload["dimension"] == 10
    assert payload["loewy_length"] == 4
    assert payload["indecomposables"] == 10
    assert payload["global_dimension"] == 1
    assert payload["spi_class"] == "not-spi"
    assert payload["algebra"] == {"shape": "linear", "n": 4, "relation": None}


def test_module_entry_point_runs_the_cli(capsys):
    # ``python -m orlov_kit`` from a checkout, with no installed script
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-m", "orlov_kit", "algebra", "--algebra", LIN3],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout == run_cli(capsys, "algebra", "--algebra", LIN3)[1]


def test_cli_import_leaves_multiprocessing_out():
    # Only a parallel spectrum scan starts a process pool, so the pool's
    # import (multiprocessing, socket, pickle) waits for it.
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = "import sys, orlov_kit.cli; print('multiprocessing' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_algebra_summary_cyclic(capsys):
    payload = run_json(capsys, "algebra", "--algebra", CYC)
    assert payload["kupisch"] == [20, 23, 22, 21]
    assert payload["loewy_length"] == 23
    assert payload["indecomposables"] == 86
    assert payload["global_dimension"] == "infinite"


def test_algebra_counts_without_materializing(capsys, monkeypatch):
    expected = run_json(capsys, "algebra", "--algebra", CYC)

    def refuse(A):
        raise AssertionError("algebra summary must not list the indecomposables")

    monkeypatch.setattr(cli, "indecomposables", refuse)
    assert run_json(capsys, "algebra", "--algebra", CYC) == expected


def test_indec_listing(capsys):
    payload = run_json(capsys, "indec", "--algebra", LIN2)
    assert payload["count"] == 3
    rows = {row["module"]: row for row in payload["indecomposables"]}
    assert rows["1-1"]["projective"] is False and rows["1-1"]["injective"] is True
    assert rows["1-2"]["projective"] is True and rows["1-2"]["injective"] is True
    assert rows["2-1"]["projective"] is True and rows["2-1"]["injective"] is False
    assert rows["1-2"]["socle"] == 2


# ---------------------------------------------------------------------------
# closures and spectra
# ---------------------------------------------------------------------------


def test_closure_level(capsys):
    payload = run_json(
        capsys,
        "closure",
        "--algebra",
        LIN4,
        "--gen",
        "1-1+2-1+3-1+4-1",
        "--level",
        "2",
    )
    assert payload["members"] == ["1-1", "1-2", "2-1", "2-2", "3-1", "3-2", "4-1"]
    assert payload["count"] == 7
    assert payload["is_everything"] is False


def test_gentime(capsys):
    payload = run_json(
        capsys, "gentime", "--algebra", LIN4, "--gen", "1-1+2-1+3-1+4-1"
    )
    assert payload["generation_time"] == 3
    assert payload["strong_generator"] is True

    payload = run_json(capsys, "gentime", "--algebra", LIN4, "--gen", "1-4")
    assert payload["generation_time"] == "infinite"
    assert payload["strong_generator"] is False


def test_ospec_and_jobs_determinism(capsys, tmp_path):
    code, first, _ = run_cli(capsys, "ospec", "--algebra", LIN3)
    assert code == EXIT_OK
    payload = json.loads(first)
    assert payload["spectrum"] == [0, 1, 2]
    assert payload["ext_dim"] == 0 and payload["u_dim"] == 2
    assert set(payload["witnesses"]) == {"0", "1", "2"}

    code, again, _ = run_cli(capsys, "ospec", "--algebra", LIN3, "--jobs", "3")
    assert code == EXIT_OK
    assert again == first  # byte-identical across worker counts
    assert first == golden("ospec_linear3.json")

    code, out, _ = run_cli(capsys, "ospec", "--algebra", LIN3AB)
    assert code == EXIT_OK
    assert out == golden("ospec_linear3_ab.json")

    # the hereditary spectra whose floors dominate the scan; linear5 has
    # 2^13 candidate subsets, enough for --jobs to start a pool
    for path, name, jobs in ((LIN4, "linear4", "1"), (LIN5, "linear5", "1"), (LIN5, "linear5", "3")):
        code, out, _ = run_cli(capsys, "ospec", "--algebra", path, "--jobs", jobs)
        assert code == EXIT_OK
        assert out == golden(f"ospec_{name}.json")

    # the relation spectra: the only ones whose gap bits are refuted
    for start, length in ((1, 2), (2, 2), (1, 3)):
        path = tmp_path / f"linear4_rel{start}_{length}.json"
        path.write_text(json.dumps({"shape": "linear", "n": 4, "relation": {"start": start, "length": length}}))
        code, out, _ = run_cli(capsys, "ospec", "--algebra", str(path))
        assert code == EXIT_OK
        assert out == golden(f"ospec_linear4_rel{start}_{length}.json")


def test_ospec_refusal_exit_code(capsys, tmp_path):
    path = tmp_path / "linear6.json"
    path.write_text(json.dumps({"shape": "linear", "n": 6, "relation": None}))
    code, out, err = run_cli(capsys, "ospec", "--algebra", str(path))
    assert code == EXIT_REFUSAL
    assert out == "" and "refused" in err
    # --force passes the subset-count rule but not star's size rule, which
    # refuses before the scan starts; without --force the count rule speaks
    for n in (27, 200):
        path = tmp_path / f"linear{n}.json"
        path.write_text(json.dumps({"shape": "linear", "n": n, "relation": None}))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "ospec", "--algebra", str(path), "--force")
        assert code == EXIT_REFUSAL and time.perf_counter() - start < 1.0, (n, err)
        assert out == "" and f"refused: {n * (n + 1) // 2} indecomposables" in err and "entries" in err
        code, out, err = run_cli(capsys, "ospec", "--algebra", str(path))
        assert code == EXIT_REFUSAL and "candidate subsets" in err, (n, err)


def test_closure_and_gentime_refuse_large_lines(capsys, tmp_path):
    # The ext-pair table walks count^2 (quotient, submodule) pairs, with a
    # limit of 2^17: linear26 (351 indecomposables, 123,201 pairs) runs and
    # linear27 (378, 142,884) refuses, as do linear60 (1,830) and linear200
    # (20,100).  The refusal comes before the table is built.
    for n, want in ((20, EXIT_OK), (26, EXIT_OK), (27, EXIT_REFUSAL), (60, EXIT_REFUSAL), (200, EXIT_REFUSAL)):
        path = tmp_path / f"linear{n}.json"
        path.write_text(json.dumps({"shape": "linear", "n": n, "relation": None}))
        for argv in (("closure", "--level", "2"), ("gentime",)):
            start = time.perf_counter()
            code, out, err = run_cli(capsys, argv[0], "--algebra", str(path), "--gen", "1-1", *argv[1:])
            assert code == want, (n, argv, err)
            if want == EXIT_REFUSAL:
                assert time.perf_counter() - start < 1.0, (n, argv)
                assert out == "" and f"refused: {n * (n + 1) // 2} indecomposables" in err
                assert "entries" in err


# ---------------------------------------------------------------------------
# layer lengths and dimensions
# ---------------------------------------------------------------------------


def test_llts_values(capsys):
    payload = run_json(capsys, "llts", "--algebra", CYC, "--simples", "1")
    assert payload["llts"] == 18 and payload["module"] is None

    payload = run_json(capsys, "llts", "--algebra", CYC, "--simples", "1,2")
    assert payload["llts"] == 12 and payload["simples"] == [1, 2]

    payload = run_json(
        capsys, "llts", "--algebra", LIN4, "--simples", "1", "--module", "1-4"
    )
    assert payload["llts"] == 3


def test_thm2(capsys):
    payload = run_json(capsys, "thm2", "--algebra", LIN5, "--simples", "")
    assert payload["llts"] == 5
    assert payload["spectrum_subset"] == [1, 2, 4]


def test_pd(capsys):
    payload = run_json(capsys, "pd", "--algebra", LIN3AB, "--module", "1-1")
    assert payload["pd"] == 2 and payload["id"] == 0

    payload = run_json(capsys, "pd", "--algebra", CYC, "--module", "1-1")
    assert payload["pd"] == "infinite"


# ---------------------------------------------------------------------------
# coghosts and the AR quiver
# ---------------------------------------------------------------------------


def test_coghost_listing(capsys):
    payload = run_json(
        capsys, "coghost", "--algebra", LIN4, "--m", "2", "--list-irreducible"
    )
    assert payload["generator"] == ["1-1", "1-2", "2-1", "3-1", "4-1"]
    assert payload["irreducible_coghosts"] == ["f+[3,3]", "f+[3,4]", "f+[4,4]"]


def test_coghost_listing_refuses_long_lines_fast(capsys, tmp_path):
    # n(n - 1) AR arrows times n + m - 1 members of T_m, counted before T_m
    # is built
    for n in (200, 2000):
        path = tmp_path / f"linear{n}.json"
        path.write_text(json.dumps({"shape": "linear", "n": n, "relation": None}))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "coghost", "--algebra", str(path), "--m", "2", "--list-irreducible")
        assert code == EXIT_REFUSAL and time.perf_counter() - start < 1.0, (n, err)
        checks = n * (n - 1) * (n + 1)
        assert out == "" and f"make {checks:,} coghost checks, above the limit of 2,000,000" in err, err
        # without the listing there is nothing to refuse
        if n == 200:
            assert run_cli(capsys, "coghost", "--algebra", str(path), "--m", "2")[0] == EXIT_OK


def test_coghost_generator_answers_long_lines_fast(capsys, tmp_path):
    # T_m is listed without indexing all n(n + 1)/2 indecomposables (2,001,000
    # on linear2000); linear200's stdout was captured before that change
    for n in (200, 2000):
        path = tmp_path / f"linear{n}.json"
        path.write_text(json.dumps({"shape": "linear", "n": n, "relation": None}))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "coghost", "--algebra", str(path), "--m", "2")
        assert code == EXIT_OK and time.perf_counter() - start < 1.0, (n, err)
        generator = ["1-1", "1-2", *(f"{i}-1" for i in range(2, n + 1))]
        assert json.loads(out)["generator"] == generator
        if n == 200:
            assert out == golden("coghost_linear200_m2.json")


def test_coghost_listing_answers_every_linear100(capsys, tmp_path, monkeypatch):
    # m = 99 is linear100's largest count, 9,900 x 198 = 1,960,200; the
    # listing itself is stubbed, as it takes over a second
    path = tmp_path / "linear100.json"
    path.write_text(json.dumps({"shape": "linear", "n": 100, "relation": None}))
    monkeypatch.setattr(cli, "irreducible_coghosts", lambda A, T: ())
    for m in ("2", "99"):
        payload = run_json(capsys, "coghost", "--algebra", str(path), "--m", m, "--list-irreducible")
        assert payload["irreducible_coghosts"] == []


def test_coghost_lemma_sweep(capsys):
    code, out, err = run_cli(capsys, "coghost-lemma", "--algebra", LIN3, "--nmax", "3")
    assert code == EXIT_OK, err
    payload = json.loads(out)
    assert payload["subsets_checked"] == 63
    assert payload["ok"] is True and payload["violations"] == []
    assert out == golden("coghost_lemma_linear3_nmax3.json")


def test_coghost_lemma_refuses_large(capsys):
    code, _, err = run_cli(capsys, "coghost-lemma", "--algebra", LIN5)
    assert code == EXIT_REFUSAL and "refused" in err


def test_coghost_lemma_refuses_long_lines_fast(capsys, tmp_path):
    # the subset count 2^count - 1 is stated, not computed: in decimal it
    # would pass Python's 4,300-digit limit on linear200 (20,100 members)
    for n in (200, 2000):
        path = tmp_path / f"linear{n}.json"
        path.write_text(json.dumps({"shape": "linear", "n": n, "relation": None}))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "coghost-lemma", "--algebra", str(path))
        assert code == EXIT_REFUSAL and time.perf_counter() - start < 1.0, (n, err)
        count = n * (n + 1) // 2
        assert out == "" and f"refused: {count} indecomposables means 2^{count} - 1 generator subsets" in err


def test_arquiver_dot_snapshot(capsys):
    code, out, _ = run_cli(capsys, "arquiver", "--algebra", LIN2, "--dot")
    assert code == EXIT_OK
    assert out == (
        "digraph ar_quiver {\n"
        '  "M[1,1]";\n'
        '  "M[1,2]";\n'
        '  "M[2,2]";\n'
        '  "M[2,2]" -> "M[1,2]" [label="f+[2,2]"];\n'
        '  "M[1,2]" -> "M[1,1]" [label="f-[1,2]"];\n'
        "}\n"
    )


def test_arquiver_json(capsys):
    payload = run_json(capsys, "arquiver", "--algebra", LIN2)
    assert payload["nodes"] == ["1-1", "1-2", "2-1"]
    assert payload["arrows"] == [
        {"label": "f+[2,2]", "source": "2-1", "target": "1-2"},
        {"label": "f-[1,2]", "source": "1-2", "target": "1-1"},
    ]


# ---------------------------------------------------------------------------
# verification commands
# ---------------------------------------------------------------------------


def test_oracle_verify(capsys):
    code, out, err = run_cli(capsys, "oracle", "verify", "--algebra", LIN3, "--cap", "10")
    assert code == EXIT_OK, err
    payload = json.loads(out)
    assert payload["ok"] is True
    assert all(check["ok"] for check in payload["checks"])
    assert out == golden("oracle_verify_linear3_cap10.json")
    code, out, err = run_cli(capsys, "oracle", "verify", "--algebra", LIN3AB, "--cap", "10")
    assert code == EXIT_OK, err
    assert out == golden("oracle_verify_linear3_ab_cap10.json")


def test_oracle_verify_refuses_long_lines_fast(capsys, tmp_path):
    # star's size rule, count^2 (quotient, submodule) pairs above
    # PAIR_TABLE_LIMIT, refuses before any check; without it linear200 ran
    # on past 10 s with no output
    for n in (200, 2000):
        path = tmp_path / f"linear{n}.json"
        path.write_text(json.dumps({"shape": "linear", "n": n, "relation": None}))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "oracle", "verify", "--algebra", str(path))
        assert code == EXIT_REFUSAL and time.perf_counter() - start < 1.0, (n, err)
        count = n * (n + 1) // 2
        assert out == "" and f"{count} indecomposables make the ext-pair table check" in err


def test_oracle_verify_vacuous_cap_is_input_error(capsys):
    # a cap below 2 admits no sweep pair: refusing beats an empty pass
    for cap in ("1", "0", "-3"):
        code, out, err = run_cli(capsys, "oracle", "verify", "--algebra", LIN3, "--cap", cap)
        assert code == EXIT_INPUT and out == "" and "error" in err, cap


def test_oracle_verify_max_support(capsys):
    # ends of up to three distinct summands: the sweep row counts their pairs
    payload = json.loads(run_cli(capsys, "oracle", "verify", "--algebra", LIN3, "--max-support", "3")[1])
    assert payload["ok"] is True
    assert [c["name"] for c in payload["checks"]][-1] == "star sweep (12569 pairs)"
    # a bound below 1 draws no end: refusing beats an empty pass
    for bad in ("0", "-2"):
        code, out, err = run_cli(capsys, "oracle", "verify", "--algebra", LIN3, "--max-support", bad)
        assert code == EXIT_INPUT and out == "" and "error" in err, bad


def test_coghost_lemma_vacuous_nmax_is_input_error(capsys):
    # nmax below 1 checks no chain level: refusing beats an empty pass
    for nmax in ("0", "-4"):
        code, out, err = run_cli(capsys, "coghost-lemma", "--algebra", LIN3, "--nmax", nmax)
        assert code == EXIT_INPUT and out == "" and "error" in err, nmax
    A = load_algebra(LIN3)
    for nmax in (1.5, True, "2"):
        with pytest.raises(InputError):
            coghost_lemma_check(A, IndecSet.full(A), nmax)


def test_verify_table_passes_and_is_deterministic(capsys):
    code, first, _ = run_cli(capsys, "verify")
    assert code == EXIT_OK
    payload = json.loads(first)
    assert payload["ok"] is True and payload["failed"] == 0
    assert payload["seed"] == DEFAULT_SEED
    assert payload["passed"] == len(payload["checks"]) == 37

    code, again, _ = run_cli(capsys, "verify")
    assert code == EXIT_OK and again == first
    assert first == golden("verify.json")


def test_verify_table_at_a_second_seed(capsys):
    code, out, _ = run_cli(capsys, "verify", "--seed", "5")
    assert code == EXIT_OK
    assert out == golden("verify_seed5.json")


def test_verify_seed_is_only_echoed(capsys):
    # no row depends on --seed; it is kept because callers pass it
    default = json.loads(run_cli(capsys, "verify")[1])
    seeded = json.loads(run_cli(capsys, "verify", "--seed", "5")[1])
    assert (default.pop("seed"), seeded.pop("seed")) == (DEFAULT_SEED, 5)
    assert seeded == default


# ---------------------------------------------------------------------------
# error handling
# ---------------------------------------------------------------------------


def test_bad_module_literal_is_input_error(capsys):
    code, out, err = run_cli(capsys, "pd", "--algebra", LIN4, "--module", "9-9")
    assert code == EXIT_INPUT
    assert out == "" and "error" in err


def test_missing_algebra_file_is_input_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "algebra", "--algebra", str(tmp_path / "nope.json"))
    assert code == EXIT_INPUT and "error" in err


def test_non_integer_descriptor_is_input_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    for desc in (
        {"shape": "linear", "n": True, "relation": None},
        {"shape": "linear", "n": 4, "relation": {"start": 1, "length": 2.9}},
        {"shape": "linear", "n": 4, "relation": {"start": "1", "length": 2}},
        {"shape": "linear", "n": 4, "relation": {"start": 1, "length": True}},
    ):
        path.write_text(json.dumps(desc))
        code, out, err = run_cli(capsys, "algebra", "--algebra", str(path))
        assert code == EXIT_INPUT and out == "" and "error" in err, desc


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["algebra", "--algebra", LIN2, "--wat"])
    assert exc.value.code == 2
