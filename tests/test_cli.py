"""Command-line interface: subcommands, exit codes, and the enclosure cache."""

import json
import re
from decimal import Decimal
from fractions import Fraction

import pytest

from tvals import cli, order, verify
from tvals.cli import main
from tvals.enclosure import Enclosure
from tvals.errors import BudgetExceededError, UnresolvedComparisonError
from tvals.evaluator import evaluate_spec
from tvals.indices import ValueSpec, parse_index
from tvals.numerics import PrecisionBudget, const_pi
from tvals.order import compare
from tvals.verify import verify_chain

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


def test_eval_direct_warns_when_its_width_misses_the_digits(cache_path, capsys):
    code, out, err = run(
        capsys, "eval", "--index", "2,1,1,1", "--digits", "12", "--method", "direct"
    )
    assert code == UNRESOLVED
    assert "0.06568" in out
    assert re.search(r"warning: width \S+ misses the requested 12 digits", err)
    # the wide enclosure is still certified, so it is cached
    records = [json.loads(line) for line in cache_path.read_text().splitlines()]
    assert [(r["index"], r["method"]) for r in records] == [([2, 1, 1, 1], "direct")]


def test_eval_rejects_bad_index(cache_path, capsys):
    code, _, err = run(capsys, "eval", "--index", "2,x")
    assert code == INVALID
    assert "x" in err


def test_eval_rejects_divergent_index(cache_path, capsys):
    code, _, err = run(capsys, "eval", "--index", "1,2")
    assert code == INVALID
    assert "1" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--index", "2,1", "--tail", "999999"), "max_outer too small"),
        (("--index", ",".join(["2"] + ["1"] * 18)), "term budget too small"),
    ],
    ids=["offset", "depth-19"],
)
def test_eval_direct_beyond_its_terms_is_one_error_line(argv, message, cache_path, capsys):
    code, out, err = run(capsys, "eval", *argv, "--method", "direct", "--no-cache")
    assert code == INVALID
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_eval_direct_points_to_the_default_method(cache_path, capsys):
    # the CLI has no option for more outer terms, so the message names its
    # fixed term count and the method that does certify this index
    index = ",".join(["2"] + ["1"] * 18)
    code, _, err = run(capsys, "eval", "--index", index, "--method", "direct", "--no-cache")
    assert code == INVALID
    assert len(err.splitlines()) == 1
    assert "--method direct sums at most 1,000,000 outer terms" in err
    assert "default method" in err and "raise max_outer" not in err
    code, out, _ = run(capsys, "eval", "--index", index, "--no-cache")
    assert code == OK and index in out


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


def test_exact_record_hits_at_any_digit_count(cache_path, capsys):
    # t()_2 = 1 is stored exactly at 64 bits; a hit is decided by width alone
    argv = ("eval", "--index", "empty", "--tail", "2", "--digits", "30")
    code, first, _ = run(capsys, *argv)
    assert code == OK and "(cached" not in first
    code, second, _ = run(capsys, *argv)
    assert code == OK and "(cached" in second
    assert second.startswith(first.rstrip("\n"))
    assert len(cache_path.read_text().splitlines()) == 1


def test_cache_miss_prints_and_stores_the_fresh_enclosure(cache_path, capsys):
    # a record that passes the 2^-54 check, is too wide to answer 20 digits
    # and overlaps the lower end of the fresh enclosure must not narrow it
    digits, spec = 20, ValueSpec((2,), 0)
    fresh = evaluate_spec(spec, Fraction(1, 10 ** (digits + 2)))
    lo = fresh.lo_fraction - Fraction(1, 10**6)
    hi = fresh.lo_fraction + fresh.width() / 2
    planted = Enclosure.from_fraction_pair(lo, hi, 200)
    assert planted.overlaps(evaluate_spec(spec, Fraction(1, 2**54)))
    forged = {
        "index": [2],
        "tail_offset": 0,
        "precision_bits": 200,
        "lo": f"{Decimal(lo.numerator) / Decimal(lo.denominator):.40f}",
        "hi": f"{Decimal(hi.numerator) / Decimal(hi.denominator):.40f}",
        "method": "accelerated",
        "created_at": "2020-01-01T00:00:00+00:00",
    }
    cache_path.write_text(json.dumps(forged) + "\n")
    code, out, err = run(capsys, "eval", "--index", "2", "--digits", str(digits))
    assert code == OK and "(cached" not in out and "skipping" not in err
    assert out == "2  in  [{}, {}]\n".format(*fresh.decimal_strings(digits))
    stored = json.loads(cache_path.read_text().splitlines()[1])
    assert (stored["lo"], stored["hi"]) == fresh.decimal_strings(digits + 6)


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


def test_cache_record_outside_the_reference_is_skipped(cache_path, capsys):
    # the reference is asked for at 2^-54: a record just above it, though
    # inside the wider enclosure that a plain 2^-48 request returns, is
    # refused
    spec = ValueSpec((2,), 0)
    reference = evaluate_spec(spec, Fraction(1, 2**54))
    plain = evaluate_spec(spec, Fraction(1, 2**48))
    middle = (reference.hi_fraction + plain.hi_fraction) / 2
    point = f"{Decimal(middle.numerator) / Decimal(middle.denominator):.25f}"
    assert reference.hi_fraction < Fraction(point) < plain.hi_fraction
    forged = {
        "index": [2],
        "tail_offset": 0,
        "precision_bits": 200,
        "lo": point,
        "hi": point,
        "method": "accelerated",
        "created_at": "2020-01-01T00:00:00+00:00",
    }
    cache_path.write_text(json.dumps(forged) + "\n")
    code, out, err = run(capsys, "eval", "--index", "2", "--digits", "10")
    assert code == OK
    assert "(cached" not in out
    assert "skipping corrupt cache line 1" in err and "misses the value" in err


def test_cache_lookup_decodes_only_the_records_it_can_use(cache_path, capsys, monkeypatch):
    from tvals.enclosure import Enclosure

    for index in ("3", "2,1", "4", "2"):
        run(capsys, "eval", "--index", index, "--digits", "10")
    run(capsys, "eval", "--index", "2", "--tail", "1", "--digits", "10")
    calls = []
    original = Enclosure.from_decimal_strings

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(Enclosure, "from_decimal_strings", staticmethod(counting))
    code, out, _ = run(capsys, "eval", "--index", "2", "--digits", "10")
    assert code == OK and "(cached" in out
    assert len(calls) == 1  # of five records, only the one for t(2)


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


def test_budget_capped_miss_prints_the_narrower_record_and_stores_nothing(cache_path, capsys):
    # the default budget leaves a record about 1e-803 wide, and a rerun's
    # record would be no narrower; a 64-bit budget reaches about 1e-25, so
    # each capped run answers from the record
    for _ in range(2):
        run(capsys, "eval", "--index", "2", "--digits", "1000")
    seeded = cache_path.read_text()
    assert len(seeded.splitlines()) == 1
    record = cli.CacheRecord(**json.loads(seeded)).to_enclosure()
    assert record.width() < Fraction(1, 10**800)
    for _ in range(2):
        code, out, err = run(
            capsys, "eval", "--index", "2", "--digits", "1000", "--budget-bits", "64"
        )
        assert code == UNRESOLVED
        lo, hi = record.decimal_strings(1000)
        assert out == f"2  in  [{lo}, {hi}]  (cached, accelerated)\n"
        match = re.search(r"warning: width \d\.\d{3}e-(\d+) misses the requested 1000 digits", err)
        assert match is not None and int(match.group(1)) > 700, err
        assert cache_path.read_text() == seeded


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


def _printed_separation(out):
    return Fraction(re.search(r"separation >= (\S+)", out).group(1))


def test_compare_prints_a_separation_rounded_down(capsys):
    # the nearest 7 digits, 1.819008e-01, lie above the certified bound
    _, out, _ = run(capsys, "compare", "--a", "2", "--b", "3")
    assert "Greater  separation >= 1.819007e-01  (96 bits)" in out
    exact = compare(ValueSpec((2,)), ValueSpec((3,))).separation
    assert _printed_separation(out) <= exact < Fraction("1.819008e-01")


def test_compare_prints_a_separation_below_the_float_range(capsys):
    # certified Greater: the tails differ by about 1/(2n)**2 = 2.5e-341
    n = 10**170
    left, right = ValueSpec((2,), n), ValueSpec((2,), n + 1)
    code, out, _ = run(capsys, "compare", "--a", str(left), "--b", str(right))
    assert code == OK and "Greater" in out
    printed = _printed_separation(out)
    assert 0 < printed <= compare(left, right).separation
    assert "separation >= 2.499999e-341" in out


def test_compare_stdout_is_pinned_after_coarse_decisions(capsys):
    # the line the one-tier ladder printed; a coarse decision on the same
    # pair first leaves its 2^-16 enclosures in the order layer's memo
    order._decide(ValueSpec((2, 1, 1, 1)), ValueSpec((3,), 1), PrecisionBudget())
    code, out, _ = run(capsys, "compare", "--a", "2,1,1,1", "--b", "tail:1:3")
    assert code == OK
    assert out == "2,1,1,1 vs tail:1:3: Greater  separation >= 1.390854e-02  (96 bits)\n"


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
    # the table is certified at 2^-48 and printed to 24 digits, each endpoint
    # rounded outward by at most 10^-24
    code, out, _ = run(capsys, "beta", "--count", "4")
    assert code == OK
    rows = re.findall(r"beta_(\d+)\s+source (\S+)\s+\[(\S+), (\S+)\]", out)
    assert [int(rank) for rank, *_ in rows] == [1, 2, 3, 4]
    for rank, source, lo, hi in rows:
        lo, hi = Fraction(lo), Fraction(hi)
        assert hi - lo <= Fraction(1, 2**48) + Fraction(2, 10**24)
        value = evaluate_spec(ValueSpec(parse_index(source), 1), Fraction(1, 10**40))
        assert lo <= value.lo_fraction and value.hi_fraction <= hi
        if rank == "2":  # beta_2 = t(2)_1 = pi^2/8 - 1
            pi = const_pi(200)
            assert lo <= pi.lo_fraction**2 / 8 - 1 and pi.hi_fraction**2 / 8 - 1 <= hi


def test_phi_coordinates(capsys):
    code, out, _ = run(capsys, "phi", "--index", "2,3")
    assert code == OK
    assert "(2, 3)" in out


def test_phi_rejects_empty_index(capsys):
    code, _, err = run(capsys, "phi", "--index", "empty")
    assert code == INVALID
    assert err


def test_phi_below_the_first_width_is_one_error_line(capsys):
    # the value lies below 2^-48, so its first enclosure reaches down to 0
    code, out, err = run(capsys, "phi", "--index", "30,30,30")
    assert code == UNRESOLVED
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: 30,30,30 ")


def test_chain_reports_symbolic_top(capsys):
    code, out, _ = run(capsys, "chain", "--blocks", "2", "--per-block", "3")
    assert code == OK
    assert "infinity" in out
    assert "AllPassed" in out


def test_printed_chain_is_the_certified_chain(capsys):
    code, out, _ = run(capsys, "chain", "--blocks", "3", "--per-block", "2")
    assert code == OK
    lines = [line.strip() for line in out.splitlines() if line.startswith("  t(")]
    # "t(2,1)" and "[tail:1:2]" print the labels "2,1" and "tail:1:2"
    printed = [term[2:-1] if term.startswith("t(") else term[1:-1]
               for line in lines for term in line.split(" > ")]
    compared = [f.subject.split(" > ") for f in verify_chain(3, 2).findings[1:]]
    assert printed == [compared[0][0]] + [right for _, right in compared]


# --- verify / scan ----------------------------------------------------------

def test_verify_identities_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "identities", "--nmax", "2")
    assert code == OK
    assert "AllPassed" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("scan", "--kind", "pairing", "--weight-max", "0", "--nmax", "1"),
        ("scan", "--kind", "collisions", "--weight-max", "0"),
    ],
)
def test_scan_that_checks_nothing_is_unresolved(argv, capsys):
    code, out, _ = run(capsys, *argv)
    assert code == UNRESOLVED
    assert "Unresolved" in out and "pass=" not in out


def test_verify_limits_with_one_member_is_one_error_line(capsys):
    code, out, err = run(capsys, "verify", "--suite", "limits", "--nmax", "2")
    assert code == INVALID
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: n_max must exceed 2 ")


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


# --- exit codes -------------------------------------------------------------

# each subcommand and the library call it makes first
LIBRARY_CALLS = {
    ("eval", "--index", "2", "--no-cache"): (cli, "evaluate_spec"),
    ("compare", "--a", "2", "--b", "3"): (order, "compare"),
    ("beta",): (order, "beta_table"),
    ("phi", "--index", "2,3"): (order, "phi"),
    ("chain",): (verify, "verify_chain"),
    ("verify", "--suite", "limits"): (verify, "verify_limits"),
    ("scan", "--kind", "p-sets"): (verify, "scan_p_sets"),
}


@pytest.mark.parametrize(
    "error, expected",
    [
        (BudgetExceededError("budget ran out"), UNRESOLVED),
        (UnresolvedComparisonError("cannot separate"), UNRESOLVED),
        (ValueError("bad input"), INVALID),
        (OSError("unreadable"), INVALID),
    ],
    ids=["budget", "unresolved", "value", "os"],
)
@pytest.mark.parametrize("argv", list(LIBRARY_CALLS), ids=lambda argv: argv[0])
def test_library_errors_exit_with_one_error_line(argv, error, expected, monkeypatch, capsys):
    def failing(*args, **kwargs):
        raise error

    monkeypatch.setattr(*LIBRARY_CALLS[argv], failing)
    code, out, err = run(capsys, *argv)
    assert code == expected
    assert out == ""
    assert err == f"error: {error}\n"


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
        ("verify", "--suite", "limits", "--nmax", "1"),  # the empty family starts at 2
    ],
)
def test_out_of_range_numeric_argument_exits_invalid(argv, cache_path, capsys):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # rejected by the argument parser
        code = exc.code
    assert code == INVALID
    err = capsys.readouterr().err
    assert err.count("error:") == 1
