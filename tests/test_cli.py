"""Command-line interface: subcommands, exit codes, and the enclosure cache."""

import json
import re
from fractions import Fraction

import pytest

from tvals.cli import main

OK, UNRESOLVED, INVALID, COUNTEREXAMPLE = 0, 1, 2, 3


@pytest.fixture
def cache_path(tmp_path, monkeypatch):
    path = tmp_path / "enclosures.jsonl"
    monkeypatch.setenv("TV_CACHE", str(path))
    return path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- eval -------------------------------------------------------------------

def test_eval_single_exponent(cache_path, capsys):
    code, out, _ = run(capsys, "eval", "--index", "2", "--digits", "20")
    assert code == OK
    assert "1.2337005501361698" in out
    assert " in " in out and "[" in out and "]" in out


def test_eval_empty_tail_is_exactly_one(cache_path, capsys):
    code, out, _ = run(capsys, "eval", "--index", "empty", "--tail", "1")
    assert code == OK
    assert "[1.0000" in out


def test_eval_direct_method(cache_path, capsys):
    code, out, _ = run(
        capsys, "eval", "--index", "2,1", "--digits", "4", "--method", "direct"
    )
    assert code == OK
    assert "0.329" in out


def test_eval_rejects_bad_index(cache_path, capsys):
    code, _, err = run(capsys, "eval", "--index", "2,x")
    assert code == INVALID
    assert "x" in err


def test_eval_rejects_divergent_index(cache_path, capsys):
    code, _, err = run(capsys, "eval", "--index", "1,2")
    assert code == INVALID
    assert "1" in err


# --- cache ------------------------------------------------------------------

def test_eval_populates_and_reuses_cache(cache_path, capsys):
    code, first_out, _ = run(capsys, "eval", "--index", "2,1", "--digits", "15")
    assert code == OK
    lines = cache_path.read_text().strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["index"] == [2, 1]
    assert record["tail_offset"] == 0
    assert Fraction(record["lo"]) <= Fraction(record["hi"])
    assert record["method"] in {"accelerated", "direct"}
    assert record["precision_bits"] > 0

    # a second identical run is served from the cache and appends nothing
    code, second_out, _ = run(capsys, "eval", "--index", "2,1", "--digits", "15")
    assert code == OK
    assert "cached" in second_out
    interval = first_out[first_out.index("["): first_out.index("]") + 1]
    assert interval in second_out
    assert len(cache_path.read_text().strip().splitlines()) == 1


def test_higher_precision_request_refines_cache(cache_path, capsys):
    run(capsys, "eval", "--index", "3", "--digits", "10")
    run(capsys, "eval", "--index", "3", "--digits", "30")
    records = [json.loads(l) for l in cache_path.read_text().strip().splitlines()]
    assert len(records) == 2
    coarse, fine = records
    assert fine["precision_bits"] > coarse["precision_bits"]
    # successive cached enclosures stay nested
    assert Fraction(fine["lo"]) >= Fraction(coarse["lo"])
    assert Fraction(fine["hi"]) <= Fraction(coarse["hi"])


def test_corrupt_cache_lines_are_skipped(cache_path, capsys):
    run(capsys, "eval", "--index", "2", "--digits", "10")
    good = cache_path.read_text()
    cache_path.write_text("this is not json\n" + good + "{\"half\": \n")
    code, out, err = run(capsys, "eval", "--index", "2", "--digits", "10")
    assert code == OK
    assert "1.23370" in out
    assert "skipping corrupt cache line" in err


def test_cache_record_that_misses_the_value_is_skipped(cache_path, capsys):
    forged = {
        "index": [2],
        "tail_offset": 0,
        "precision_bits": 200,
        "lo": "2.5",
        "hi": "2.5",
        "method": "accelerated",
        "created_at": "2020-01-01T00:00:00+00:00",
    }
    cache_path.write_text(json.dumps(forged) + "\n")
    code, out, err = run(capsys, "eval", "--index", "2", "--digits", "10")
    assert code == OK
    assert "1.2337005501" in out
    assert "(cached" not in out
    assert "skipping corrupt cache line 1" in err


def test_cache_is_read_once_per_miss(cache_path, capsys, monkeypatch):
    from tvals import cli

    run(capsys, "eval", "--index", "2", "--digits", "10")
    calls = []
    original = cli.cache_lookup

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cli, "cache_lookup", counting)
    code, out, _ = run(capsys, "eval", "--index", "2", "--digits", "25")
    assert code == OK and "(cached" not in out
    assert len(calls) == 1


def test_budget_warning_prints_a_width_below_the_float_range(cache_path, capsys):
    code, out, err = run(capsys, "eval", "--index", "2", "--digits", "1000")
    assert code == UNRESOLVED
    assert out.startswith("2  in  [1.2337005501361698")
    match = re.search(r"warning: width \d\.\d{3}e-(\d+) misses the requested 1000 digits", err)
    assert match is not None, err
    assert int(match.group(1)) > 700


def test_eval_digits_beyond_the_int_str_limit(cache_path, capsys):
    # 5000 digits exceed the 4096-bit budget and Python's 4,300-digit
    # int-to-str limit; the second run reads the 5006-digit cache record back
    for _ in range(2):
        code, out, err = run(capsys, "eval", "--index", "2", "--digits", "5000")
        assert code == UNRESOLVED
        lo, hi = re.fullmatch(r"2  in  \[(\S+), (\S+)\]\n", out).groups()
        assert len(lo) == len(hi) == 5002
        assert lo.startswith("1.2337005501361698") and lo < hi
        assert "misses the requested 5000 digits" in err
        assert "Traceback" not in err and "skipping" not in err


def test_no_cache_flag_leaves_no_file(cache_path, capsys):
    code, _, _ = run(capsys, "eval", "--index", "2", "--no-cache")
    assert code == OK
    assert not cache_path.exists()


def test_cache_flag_overrides_env(tmp_path, cache_path, capsys):
    other = tmp_path / "other.jsonl"
    code, _, _ = run(capsys, "eval", "--index", "2", "--cache", str(other))
    assert code == OK
    assert other.exists() and not cache_path.exists()


# --- compare ----------------------------------------------------------------

def test_compare_greater(capsys):
    code, out, _ = run(capsys, "compare", "--a", "2", "--b", "3")
    assert code == OK
    assert "Greater" in out


def test_compare_less_with_tail_operand(capsys):
    code, out, _ = run(capsys, "compare", "--a", "2,1", "--b", "tail:1:empty")
    assert code == OK
    assert "Less" in out


def test_compare_identical_unresolved(capsys):
    code, out, _ = run(
        capsys, "compare", "--a", "2,1", "--b", "2,1", "--budget-bits", "256"
    )
    assert code == UNRESOLVED
    assert "Unresolved" in out


def test_compare_invalid_operand(capsys):
    code, _, err = run(capsys, "compare", "--a", "2", "--b", "tail:z:2")
    assert code == INVALID
    assert err


# --- beta / phi / chain -----------------------------------------------------

def test_beta_table_output(capsys):
    code, out, _ = run(capsys, "beta", "--count", "4")
    assert code == OK
    rows = [l for l in out.splitlines() if l.strip() and not l.startswith("rank")]
    assert len(rows) == 4
    assert "0.2337005501361698" in out
    assert "0.0517997902646449" in out


def test_phi_coordinates(capsys):
    code, out, _ = run(capsys, "phi", "--index", "2,3")
    assert code == OK
    assert "(2, 3)" in out


def test_phi_rejects_empty_index(capsys):
    code, _, err = run(capsys, "phi", "--index", "empty")
    assert code == INVALID
    assert err


def test_chain_reports_symbolic_top(capsys):
    code, out, _ = run(capsys, "chain", "--blocks", "2", "--per-block", "3")
    assert code == OK
    assert "infinity" in out
    assert "AllPassed" in out


# --- verify / scan ----------------------------------------------------------

def test_verify_identities_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "identities", "--nmax", "2")
    assert code == OK
    assert "AllPassed" in out


def test_verify_json_format(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "limits", "--nmax", "6", "--format", "json"
    )
    assert code == OK
    payload = json.loads(out)
    assert payload and all("status" in r for r in payload)


def test_scan_p_sets_counterexample_exit(capsys):
    code, out, _ = run(capsys, "scan", "--kind", "p-sets", "--rank-max", "5")
    assert code == COUNTEREXAMPLE
    assert "Counterexample" in out


def test_scan_collisions_passes(capsys):
    code, out, _ = run(capsys, "scan", "--kind", "collisions", "--weight-max", "5")
    assert code == OK
    assert "AllPassed" in out


def test_scan_pairing_writes_report(tmp_path, capsys):
    report_path = tmp_path / "pairing.json"
    code, out, _ = run(
        capsys,
        "scan", "--kind", "pairing", "--weight-max", "3", "--nmax", "1",
        "--report", str(report_path),
    )
    assert code == COUNTEREXAMPLE
    (payload,) = json.loads(report_path.read_text())
    assert payload["scan_id"] == "pairing-conjecture"
    assert payload["status"] == "Counterexample"
    assert any(f["verdict"] == "fail" for f in payload["findings"])


def test_unknown_subcommand_exits_nonzero(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "--index", "2", "--tail", "-1"),
        ("eval", "--index", "2", "--digits", "-3"),
        ("beta", "--count", "0"),
        ("scan", "--kind", "p-sets", "--rank-max", "0"),
        ("compare", "--a", "2", "--b", "3", "--budget-bits", "8"),
        ("chain", "--blocks", "0"),
        ("verify", "--suite", "limits", "--nmax", "-1"),
        ("scan", "--kind", "collisions", "--weight-max", "-1"),
        ("scan", "--kind", "pairing", "--total-max", "-2"),
    ],
)
def test_out_of_range_numeric_argument_exits_invalid(argv, cache_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == INVALID
    assert "error:" in capsys.readouterr().err
