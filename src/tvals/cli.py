"""Command-line surface: evaluation, comparison, order queries, scans.

The ``tv`` tool wraps the library with a persistent enclosure cache and
uniform exit codes:

* ``0`` — success / all checks passed,
* ``1`` — unresolved or precision budget exceeded (partial output printed),
* ``2`` — invalid input,
* ``3`` — a scan found a certified counterexample.

The cache is an append-only UTF-8 file of one JSON record per line.
Records carry outward-rounded decimal endpoint strings — never binary
floats.  A record is used only if it overlaps a fresh enclosure of the
value at width ``2**-48``; a record that misses the value is skipped with a
warning, like a corrupt line.  Appends take an advisory file lock, so
concurrent writers interleave whole records.  The path comes from
``--cache``, the ``TV_CACHE`` environment variable, or
``~/.cache/tv/enclosures.jsonl`` in that order.
"""

from __future__ import annotations

import argparse
import datetime as _dt
import json
import os
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from .enclosure import Enclosure, _format_sci
from .errors import BudgetExceededError, DivergentError, UnresolvedComparisonError
from .evaluator import evaluate_direct, evaluate_spec
from .indices import IndexParseError, ValueSpec, index_str, parse_index, parse_value_spec
from .numerics import PrecisionBudget
from .order import Verdict, beta_table, compare, phi
from .verify import (
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

__all__ = [
    "CacheRecord",
    "cache_lookup",
    "cache_store",
    "default_cache_path",
    "main",
]

EXIT_OK = 0
EXIT_UNRESOLVED = 1
EXIT_INVALID = 2
EXIT_COUNTEREXAMPLE = 3


# ----------------------------------------------------------------------
# enclosure cache
# ----------------------------------------------------------------------
@dataclass
class CacheRecord:
    index: list[int]
    tail_offset: int
    precision_bits: int
    lo: str
    hi: str
    method: str
    created_at: str

    @classmethod
    def from_enclosure(
        cls, spec: ValueSpec, enclosure: Enclosure, method: str, digits: int
    ) -> "CacheRecord":
        lo, hi = enclosure.decimal_strings(digits)
        return cls(
            index=list(spec.index),
            tail_offset=spec.tail_offset,
            precision_bits=enclosure.precision_bits,
            lo=lo,
            hi=hi,
            method=method,
            created_at=_dt.datetime.now(_dt.timezone.utc).isoformat(),
        )

    def to_enclosure(self) -> Enclosure:
        return Enclosure.from_decimal_strings(self.lo, self.hi, self.precision_bits)


def default_cache_path() -> Path:
    env = os.environ.get("TV_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "tv" / "enclosures.jsonl"


def cache_lookup(
    path: Path, spec: ValueSpec, min_precision: int
) -> Optional[tuple[CacheRecord, Enclosure]]:
    """Narrowest cached enclosure for ``spec`` with at least ``min_precision``
    recorded bits.  Corrupt lines, and records disjoint from a fresh
    enclosure of the value at width ``2**-48``, are skipped with a warning,
    never fatal."""
    if not path.exists():
        return None
    best: Optional[tuple[CacheRecord, Enclosure]] = None
    reference: Optional[Enclosure] = None
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise OSError(f"cache file {path} is unreadable: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
            record = CacheRecord(**payload)
            enclosure = record.to_enclosure()
            if tuple(record.index) != spec.index or record.tail_offset != spec.tail_offset:
                continue
            if record.precision_bits < min_precision:
                continue
            if reference is None:
                reference = evaluate_spec(spec, Fraction(1, 2**48))
            if not enclosure.overlaps(reference):
                raise ValueError(f"[{record.lo}, {record.hi}] misses the value of {spec}")
        except (ValueError, TypeError, KeyError) as exc:
            print(
                f"warning: skipping corrupt cache line {lineno} in {path}: {exc}",
                file=sys.stderr,
            )
            continue
        if best is None or enclosure.width() < best[1].width():
            best = (record, enclosure)
    return best


def cache_store(path: Path, record: CacheRecord) -> None:
    """Append one record atomically (single whole-line write under an
    advisory lock)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    line = json.dumps(asdict(record)) + "\n"
    with open(path, "a", encoding="utf-8") as handle:
        try:
            import fcntl

            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                handle.write(line)
                handle.flush()
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
        except ImportError:  # platforms without fcntl: plain append
            handle.write(line)
            handle.flush()


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------
def _budget_from(args: argparse.Namespace) -> PrecisionBudget:
    if getattr(args, "budget_bits", None):
        return PrecisionBudget(max_bits=args.budget_bits)
    return PrecisionBudget()


def _cache_path_from(args: argparse.Namespace) -> Optional[Path]:
    if getattr(args, "no_cache", False):
        return None
    if getattr(args, "cache", None):
        return Path(args.cache)
    return default_cache_path()


def _emit_report(
    reports: Sequence[ScanReport], args: argparse.Namespace
) -> None:
    payload = [json.loads(r.to_json()) for r in reports]
    if getattr(args, "report", None):
        Path(args.report).write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8"
        )
    if getattr(args, "format", "table") == "json":
        print(json.dumps(payload, indent=2))
    else:
        for report in reports:
            counts = report.counts()
            summary = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
            print(f"{report.scan_id}: {report.status.value} ({summary})")
            for finding in report.findings:
                if finding.verdict in ("fail", "unresolved"):
                    print(f"  [{finding.verdict}] {finding.subject}: {finding.detail}")


def _status_exit(reports: Sequence[ScanReport]) -> int:
    statuses = {report.status for report in reports}
    if ScanStatus.COUNTEREXAMPLE in statuses:
        return EXIT_COUNTEREXAMPLE
    if ScanStatus.UNRESOLVED in statuses:
        return EXIT_UNRESOLVED
    return EXIT_OK


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------
def _cmd_eval(args: argparse.Namespace) -> int:
    try:
        spec = ValueSpec(parse_index(args.index), args.tail)
    except IndexParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    digits = args.digits
    min_bits = int(digits * 3.33) + 8
    cache_path = _cache_path_from(args)
    # one read serves both the hit check and the intersection below
    prior = cache_lookup(cache_path, spec, 2) if cache_path is not None else None
    if (
        prior is not None
        and prior[0].precision_bits >= min_bits
        and prior[1].width() <= Fraction(1, 10**digits)
    ):
        lo, hi = prior[1].decimal_strings(digits)
        print(f"{spec}  in  [{lo}, {hi}]  (cached, {prior[0].method})")
        return EXIT_OK
    target = Fraction(1, 10 ** (digits + 2))
    budget = _budget_from(args)
    exit_code = EXIT_OK
    try:
        if args.method == "direct":
            enclosure = evaluate_direct(spec, max_outer=1_000_000)
        else:
            enclosure = evaluate_spec(spec, target, budget)
    except DivergentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except BudgetExceededError as exc:
        if exc.partial is None:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_UNRESOLVED
        enclosure = exc.partial
        exit_code = EXIT_UNRESOLVED
    if cache_path is not None:
        if prior is not None and enclosure.overlaps(prior[1]):
            # intersecting with earlier records keeps successive cached
            # enclosures nested while still containing the exact value
            enclosure = enclosure.intersect(prior[1])
        record = CacheRecord.from_enclosure(spec, enclosure, args.method, digits + 6)
        cache_store(cache_path, record)
    lo, hi = enclosure.decimal_strings(digits)
    print(f"{spec}  in  [{lo}, {hi}]")
    if exit_code == EXIT_UNRESOLVED:
        print(
            f"warning: width {_format_sci(enclosure.width())} misses the "
            f"requested {digits} digits (budget exceeded)",
            file=sys.stderr,
        )
    return exit_code


def _cmd_compare(args: argparse.Namespace) -> int:
    try:
        left = parse_value_spec(args.a)
        right = parse_value_spec(args.b)
    except IndexParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    try:
        outcome = compare(left, right, _budget_from(args))
    except DivergentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    print(
        f"{left} vs {right}: {outcome.verdict.value}"
        f"  separation >= {float(outcome.separation):.6e}"
        f"  ({outcome.bits_used} bits)"
    )
    return EXIT_OK if outcome.verdict is not Verdict.UNRESOLVED else EXIT_UNRESOLVED


def _cmd_beta(args: argparse.Namespace) -> int:
    budget = _budget_from(args)
    try:
        entries = beta_table(args.count, budget)
    except (UnresolvedComparisonError, BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNRESOLVED
    rows = []
    for entry in entries:
        lo, hi = entry.value.decimal_strings(24)
        rows.append(
            {
                "rank": entry.rank,
                "source": index_str(entry.index),
                "lo": lo,
                "hi": hi,
            }
        )
    if args.format == "json":
        print(json.dumps(rows, indent=2))
    else:
        for row in rows:
            print(f"  beta_{row['rank']:<3d} source {row['source']:<14s} "
                  f"[{row['lo']}, {row['hi']}]")
    if args.report:
        Path(args.report).write_text(json.dumps(rows, indent=2) + "\n", encoding="utf-8")
    return EXIT_OK


def _cmd_phi(args: argparse.Namespace) -> int:
    try:
        index = parse_index(args.index)
    except IndexParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if len(index) == 0:
        print("error: the empty index names the constant 1, not a series value",
              file=sys.stderr)
        return EXIT_INVALID
    try:
        coord = phi(index, _budget_from(args))
    except (UnresolvedComparisonError, BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNRESOLVED
    print(f"phi({index_str(index)}) = ({coord.band}, {coord.position})")
    return EXIT_OK


def _cmd_chain(args: argparse.Namespace) -> int:
    budget = _budget_from(args)
    report = verify_chain(args.blocks, args.per_block, budget)
    if args.format == "table":
        print("t(1) = infinity (divergent; symbolic top of the chain)")
        for entry in beta_table(args.blocks, budget):
            if len(entry.index) == 0:
                members = [
                    index_str((c,)) for c in range(2, args.per_block + 2)
                ]
            else:
                members = [
                    index_str(entry.index + (n,))
                    for n in range(1, args.per_block + 1)
                ]
            line = " > ".join(f"t({m})" for m in members)
            print(f"  {line} > [tail:1:{index_str(entry.index)}]")
    _emit_report([report], args)
    return _status_exit([report])


def _cmd_verify(args: argparse.Namespace) -> int:
    budget = _budget_from(args)
    nmax = args.nmax
    reports: list[ScanReport] = []
    if args.suite in ("identities", "all"):
        reports.append(verify_repeated(nmax or 3, budget=budget))
        reports.append(verify_sum_formula(nmax or 4, budget=budget))
        reports.append(verify_catalan(12, budget=budget))
        reports.append(verify_tail_recurrence(8, budget=budget))
    if args.suite in ("limits", "all"):
        for index in ((), (2,), (2, 1)):
            reports.append(verify_limits(index, nmax or 12, budget=budget))
    if args.suite in ("order", "all"):
        reports.append(verify_monotonicity(50, 8, budget=budget))
        reports.append(verify_chain(4, 8, budget=budget))
    _emit_report(reports, args)
    return _status_exit(reports)


def _cmd_scan(args: argparse.Namespace) -> int:
    budget = _budget_from(args)
    if args.kind == "p-sets":
        report = scan_p_sets(args.rank_max, args.nmax or 10, budget)
    elif args.kind == "collisions":
        report = scan_tail_collisions(args.weight_max, budget=budget)
    else:
        report = check_phi_conjecture(
            args.weight_max,
            args.nmax or 4,
            budget,
            total_max=args.total_max,
        )
    _emit_report([report], args)
    return _status_exit([report])


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------
def _int_at_least(minimum: int):
    """argparse type: an integer not below ``minimum``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its "invalid int" message
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tv",
        description="Certified enclosures and order structure of nested "
        "odd-denominator series values.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--budget-bits", type=_int_at_least(64), default=None,
                       help="precision ceiling in bits (default 4096)")

    def add_report(p: argparse.ArgumentParser) -> None:
        p.add_argument("--report", default=None,
                       help="write the JSON report to this path")
        p.add_argument("--format", choices=("json", "table"), default="table")

    p_eval = sub.add_parser("eval", help="evaluate one value to a certified enclosure")
    p_eval.add_argument("--index", required=True,
                        help="comma-separated exponents, or 'empty'")
    p_eval.add_argument("--tail", type=_int_at_least(0), default=0,
                        help="tail offset n (0 = full value)")
    p_eval.add_argument("--digits", type=_int_at_least(1), default=30)
    p_eval.add_argument("--method", choices=("accelerated", "direct"),
                        default="accelerated")
    p_eval.add_argument("--cache", default=None, help="cache file path")
    p_eval.add_argument("--no-cache", action="store_true")
    add_common(p_eval)
    p_eval.set_defaults(func=_cmd_eval)

    p_cmp = sub.add_parser("compare", help="certified comparison of two values")
    p_cmp.add_argument("--a", required=True, help="'<index>' or 'tail:<n>:<index>'")
    p_cmp.add_argument("--b", required=True)
    add_common(p_cmp)
    p_cmp.set_defaults(func=_cmd_compare)

    p_beta = sub.add_parser("beta", help="leading rows of the tail-value table")
    p_beta.add_argument("--count", type=_int_at_least(1), default=4)
    add_common(p_beta)
    add_report(p_beta)
    p_beta.set_defaults(func=_cmd_beta)

    p_phi = sub.add_parser("phi", help="(band, position) coordinates of a value")
    p_phi.add_argument("--index", required=True)
    add_common(p_phi)
    p_phi.set_defaults(func=_cmd_phi)

    p_chain = sub.add_parser("chain", help="certify the descending interleaved chain")
    p_chain.add_argument("--blocks", type=_int_at_least(1), default=4)
    p_chain.add_argument("--per-block", type=_int_at_least(1), default=8)
    add_common(p_chain)
    add_report(p_chain)
    p_chain.set_defaults(func=_cmd_chain)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", choices=("identities", "limits", "order", "all"),
                          default="all")
    p_verify.add_argument("--nmax", type=_int_at_least(1), default=None)
    add_common(p_verify)
    add_report(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_scan = sub.add_parser("scan", help="run a conjecture scan")
    p_scan.add_argument("--kind", choices=("p-sets", "collisions", "pairing"),
                        required=True)
    p_scan.add_argument("--rank-max", type=_int_at_least(1), default=3)
    p_scan.add_argument("--weight-max", type=_int_at_least(0), default=4)
    p_scan.add_argument("--nmax", type=_int_at_least(1), default=None)
    p_scan.add_argument("--total-max", type=_int_at_least(0), default=None)
    add_common(p_scan)
    add_report(p_scan)
    p_scan.set_defaults(func=_cmd_scan)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
