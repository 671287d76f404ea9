"""Mechanical verification scans: statuses, replayability, JSON round-trips.

Counts pinned here are deterministic: every scan derives its work list and
refinement schedule from its arguments alone (plus a fixed seed where random
pairs are drawn), so identical calls must reproduce identical reports.
"""

import hashlib
import re
from decimal import Decimal
from fractions import Fraction

import pytest

from tvals import order, verify
from tvals.enclosure import Enclosure
from tvals.indices import parse_value_spec
from tvals.verify import (
    Finding,
    ScanReport,
    ScanStatus,
    check_phi_conjecture,
    scan_p_sets,
    scan_tail_collisions,
    verify_catalan,
    verify_chain,
    verify_limits,
    verify_monotonicity,
    verify_repeated,
    verify_sum_formula,
    verify_tail_recurrence,
)


# --- identity scans ---------------------------------------------------------

def test_repeated_block_identities_hold():
    report = verify_repeated(n_max=3)
    assert report.status is ScanStatus.ALL_PASSED
    assert report.counts()["pass"] >= 9  # three families, three depths each


def test_sum_formula_identity_holds():
    report = verify_sum_formula(n_max=3)
    assert report.status is ScanStatus.ALL_PASSED
    assert all(f.verdict == "pass" for f in report.findings)


def test_closed_form_scans_honour_a_tolerance_below_1e_55():
    # the references are sized from the tolerance too, not from n_max alone
    tolerance = Fraction(1, 10**100)
    for report in (verify_repeated(3, tolerance), verify_sum_formula(4, tolerance)):
        assert report.status is ScanStatus.ALL_PASSED, report.scan_id


def test_closed_form_findings_report_widths_below_the_float_range(monkeypatch):
    # widths near 1e-400 underflow a float; the report must still show them
    tolerance = Fraction(1, 10**400)
    pairs = []
    real = verify._overlap_finding

    def recording(subject, computed, reference, tolerance, detail):
        pairs.append((computed, reference))
        return real(subject, computed, reference, tolerance, detail)

    monkeypatch.setattr(verify, "_overlap_finding", recording)
    report = verify_repeated(n_max=2, tolerance=tolerance)
    assert len(pairs) == len(report.findings) == 6
    for finding, (computed, reference) in zip(report.findings, pairs):
        width = computed.width() + reference.width()
        printed = Fraction(Decimal(finding.data["combined_width"]))
        # seven significant digits, as in the float range
        assert abs(printed - width) <= width / 10**6, finding.data
    # a failing finding prints the width and the tolerance in its detail
    computed, reference = pairs[0]
    apart = reference + Enclosure.exact_int(1, reference.precision_bits)
    failing = real("2", computed, apart, tolerance, "shifted")
    assert failing.verdict == "fail"
    match = re.search(r"combined width (\S+) vs tolerance (\S+)$", failing.detail)
    assert match is not None, failing.detail
    width = computed.width() + apart.width()
    assert abs(Fraction(Decimal(match.group(1))) - width) <= width / 1000
    assert match.group(2) == "1.000e-400"


def test_combined_widths_in_the_float_range_keep_seven_digits():
    report = verify_repeated(n_max=2)
    assert [f.data["combined_width"] for f in report.findings] == [
        "1.002643e-22", "1.667867e-23", "1.017625e-22",
        "1.481576e-23", "1.023674e-22", "1.210606e-23",
    ]


def test_catalan_partial_sums_and_frozen_gap():
    report = verify_catalan(j_max=12)
    assert report.status is ScanStatus.ALL_PASSED
    assert report.counts() == {"pass": 13}
    ceiling = report.findings[-1]
    assert "frozen" in ceiling.subject
    assert "2.441539e-04" in ceiling.detail


def test_tail_recurrence_holds_across_offsets():
    report = verify_tail_recurrence(weight_max=6)
    assert report.status is ScanStatus.ALL_PASSED
    assert report.counts()["pass"] > 0


def test_limit_decay_envelopes():
    for index in ((), (2,), (2, 1)):
        report = verify_limits(index, n_max=8)
        assert report.status is ScanStatus.ALL_PASSED, index


@pytest.mark.parametrize("index, least", [((), 2), ((2,), 1)])
def test_limits_reject_a_family_without_members(index, least):
    with pytest.raises(ValueError, match=f"n_max must be at least {least} "):
        verify_limits(index, n_max=least - 1)


@pytest.mark.parametrize("index, least", [((), 2), ((2,), 1), ((2, 1), 1)])
def test_limits_reject_a_family_of_one_member(index, least):
    # the envelope constant is frozen from the first member, so that member
    # alone would never test it
    with pytest.raises(ValueError, match=f"n_max must exceed {least} "):
        verify_limits(index, n_max=least)


# --- order scans ------------------------------------------------------------

def test_monotonicity_pairs_all_certified():
    report = verify_monotonicity(pair_count=12, weight_max=6)
    assert report.status is ScanStatus.ALL_PASSED
    assert report.counts()["pass"] == 12


def test_chain_blocks_certified():
    report = verify_chain(block_count=3, per_block=4)
    assert report.status is ScanStatus.ALL_PASSED
    assert report.counts()["note"] >= 1  # the divergent top is noted, not checked


def test_collisions_all_separated_at_weight_six():
    report = scan_tail_collisions(weight_max=6)
    assert report.status is ScanStatus.ALL_PASSED
    assert report.counts()["pass"] == 31  # 30 adjacent pairs + transitivity note pair
    assert report.counts()["note"] == 2


def test_scan_separations_are_lower_bounds():
    findings = scan_tail_collisions(weight_max=5).findings
    separations = [f.data["separation"] for f in findings if "separation" in f.data]
    assert len(separations) == 15
    for finding in findings[1:-1]:
        left, right = map(parse_value_spec, finding.subject.split(" vs "))
        printed = finding.data["separation"]
        assert finding.detail == f"adjacent separation {printed}"
        assert 0 < Fraction(printed) <= order.compare(left, right).separation
    assert Fraction(findings[-1].detail) == min(map(Fraction, separations))
    _, link = verify_chain(block_count=1, per_block=1).findings
    left, right = map(parse_value_spec, link.subject.split(" > "))
    assert 0 < Fraction(link.data["separation"]) <= order.compare(left, right).separation


# --- threshold-set scans ----------------------------------------------------

def test_p_sets_empty_through_rank_three():
    report = scan_p_sets(rank_max=3)
    assert report.status is ScanStatus.ALL_PASSED
    notes = [f for f in report.findings if f.verdict == "note"]
    assert any("definition" in f.detail for f in notes)


def test_p_sets_nonempty_at_rank_five():
    report = scan_p_sets(rank_max=5)
    assert report.status is ScanStatus.COUNTEREXAMPLE
    fails = [f for f in report.findings if f.verdict == "fail"]
    assert fails
    assert any("2, 1, 1, 1" in f.subject or "2,1,1,1" in f.subject for f in fails)


# --- pairing conjecture -----------------------------------------------------

def test_pairing_smallest_triangle_counts_frozen():
    report = check_phi_conjecture(weight_max=3, n_max=1)
    assert report.status is ScanStatus.COUNTEREXAMPLE
    assert report.counts() == {"pass": 2, "fail": 1, "note": 1}
    (fail,) = [f for f in report.findings if f.verdict == "fail"]
    assert fail.subject == "3,1"
    assert "(4, 1)" in fail.detail and "(4, 2)" in fail.detail


def test_pairing_records_band_escape():
    report = check_phi_conjecture(weight_max=4, n_max=1)
    fails = {f.subject: f for f in report.findings if f.verdict == "fail"}
    escape = fails["2,1,1,1"]
    assert "(5, 1)" in escape.detail and "(4, 1)" in escape.detail
    assert escape.data.get("agrees_b") is False or "reading_b" in escape.data


def test_pairing_unplaceable_member_is_unresolved(monkeypatch):
    # a member missing from its band's enumerated prefix has no certified
    # position, so it must not be scored as a counterexample
    true_band_of_value = order.band_of_value

    def shifted_band_of_value(index, budget=None):
        band = true_band_of_value(index, budget)
        return band + 1 if index == (2, 1, 1, 1) else band

    monkeypatch.setattr(order, "band_of_value", shifted_band_of_value)
    report = check_phi_conjecture(weight_max=4, n_max=1)
    (member,) = [f for f in report.findings if f.subject == "2,1,1,1"]
    assert member.verdict == "unresolved"
    assert "could not place within band 5" in member.detail
    assert all(f.data["actual"][1] is not None for f in report.findings if "actual" in f.data)


def test_mid_size_pairing_report_is_pinned():
    # families whose members spread over several bands; the report must not
    # depend on the order in which bands are walked and placed
    report = check_phi_conjecture(weight_max=7, n_max=7, total_max=8)
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == (
        "525b93c62fa63ae6de046ba6bcb16f527ca27ee656f5bbeca0865faf131a9fff"
    )


def test_pairing_scan_is_replayable():
    first = check_phi_conjecture(weight_max=3, n_max=2)
    second = check_phi_conjecture(weight_max=3, n_max=2)
    assert first.to_json() == second.to_json()


# --- report plumbing --------------------------------------------------------

def test_report_json_round_trip():
    report = verify_repeated(n_max=1)
    recovered = ScanReport.from_json(report.to_json())
    assert recovered.scan_id == report.scan_id
    assert recovered.parameters == report.parameters
    assert recovered.status is report.status
    assert len(recovered.findings) == len(report.findings)
    for a, b in zip(recovered.findings, report.findings):
        assert (a.subject, a.verdict, a.detail) == (b.subject, b.verdict, b.detail)


def test_report_status_values_round_trip():
    for status in ScanStatus:
        report = ScanReport(
            scan_id="synthetic",
            parameters={"n": 1},
            findings=[Finding("x", "note", "synthetic finding", {})],
            status=status,
        )
        assert ScanReport.from_json(report.to_json()).status is status


def test_passed_property_tracks_status():
    assert verify_repeated(n_max=1).passed
    assert not scan_p_sets(rank_max=5).passed
