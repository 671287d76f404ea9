"""Command-line surface: evaluation, comparison, order queries, scans.

The ``tv`` tool wraps the library with a persistent enclosure cache and
uniform exit codes:

* ``0`` — success / all checks passed,
* ``1`` — unresolved or precision budget exceeded (partial output printed),
* ``2`` — invalid input,
* ``3`` — a scan found a certified counterexample.

:func:`main` alone maps library errors to codes 1 and 2, each printed as
one ``error:`` line: ``ValueError`` (bad input, divergent index) and
``OSError`` exit 2, ``UnresolvedComparisonError`` and
``BudgetExceededError`` exit 1.

The cache is an append-only UTF-8 file of one JSON record per line.
Records carry outward-rounded decimal endpoint strings — never binary
floats.  A record is used only if it overlaps a fresh enclosure of the
value asked for at width ``2**-54``; a record that misses the value is
skipped with a warning, like a corrupt line.  That check is the cache's
trust boundary: a record that is wrong only below ``2**-54`` is printed as
certified.  The narrowest usable record answers ``tv eval`` when its width
alone is at most ``10**-digits``; otherwise the value is computed afresh,
and the narrower of the fresh enclosure and that record is printed.  The
fresh one is appended only when its record is narrower than every usable
one, so a budget-capped rerun appends nothing.  Appends take an advisory
file lock, so concurrent writers interleave whole records.
The path comes from ``--cache``, the ``TV_CACHE`` environment variable, or
``~/.cache/tv/enclosures.jsonl`` in that order.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

from .enclosure import Enclosure, _format_lower, _format_sci
from .errors import BudgetExceededError, DivergentError, UnresolvedComparisonError
from .evaluator import evaluate_direct, evaluate_spec
from .indices import ValueSpec, _Frozen, index_str, parse_index, parse_value_spec
from .numerics import PrecisionBudget

if TYPE_CHECKING:
    from .verify import ScanReport

# The order layer and the scans load inside the subcommands that run them,
# so that ``tv eval`` starts without them; calls go through the module
# attributes (``order.phi``, not a bound ``phi``).

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

_DIRECT_MAX_OUTER = 1_000_000  # outer terms summed by ``eval --method direct``


# ----------------------------------------------------------------------
# enclosure cache
# ----------------------------------------------------------------------
class CacheRecord(_Frozen):
    """One cache line; ``__slots__`` lists the fields in their JSON order."""

    __slots__ = ("index", "tail_offset", "precision_bits", "lo", "hi", "method", "created_at")
    index: list[int]
    tail_offset: int
    precision_bits: int
    lo: str
    hi: str
    method: str
    created_at: str

    __hash__ = None  # ``index`` is a list, hence unhashable

    @classmethod
    def from_enclosure(
        cls, spec: ValueSpec, enclosure: Enclosure, method: str, digits: int
    ) -> "CacheRecord":
        from datetime import datetime, timezone  # only a cache store needs the clock

        lo, hi = enclosure.decimal_strings(digits)
        return cls(
            index=list(spec.index),
            tail_offset=spec.tail_offset,
            precision_bits=enclosure.precision_bits,
            lo=lo,
            hi=hi,
            method=method,
            created_at=datetime.now(timezone.utc).isoformat(),
        )

    def to_enclosure(self) -> Enclosure:
        return Enclosure.from_decimal_strings(self.lo, self.hi, self.precision_bits)


def default_cache_path() -> Path:
    env = os.environ.get("TV_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "tv" / "enclosures.jsonl"


def cache_lookup(path: Path, spec: ValueSpec) -> Optional[tuple[CacheRecord, Enclosure]]:
    """Narrowest cached enclosure for ``spec``; the caller decides by its
    width alone whether it answers a request.  Corrupt lines, and records
    disjoint from a fresh enclosure of the value asked for at width
    ``2**-54``, are skipped with a warning, never fatal.  Only the endpoints
    of records for ``spec`` are decoded, so a malformed endpoint elsewhere
    goes unnoticed."""
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
            if tuple(record.index) != spec.index or record.tail_offset != spec.tail_offset:
                continue
            enclosure = record.to_enclosure()
            if reference is None:
                reference = evaluate_spec(spec, Fraction(1, 2**54))
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
    line = json.dumps(record._fields()) + "\n"
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
    from .verify import ScanStatus

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
    spec = ValueSpec(parse_index(args.index), args.tail)
    digits = args.digits
    cache_path = _cache_path_from(args)
    cached = cache_lookup(cache_path, spec) if cache_path is not None else None
    if cached is not None and cached[1].width() <= Fraction(1, 10**digits):
        lo, hi = cached[1].decimal_strings(digits)
        print(f"{spec}  in  [{lo}, {hi}]  (cached, {cached[0].method})")
        return EXIT_OK
    target = Fraction(1, 10 ** (digits + 2))
    shortfall = None  # why the printed enclosure misses the requested digits
    try:
        if args.method == "direct":
            enclosure = evaluate_direct(spec, max_outer=_DIRECT_MAX_OUTER)
        else:
            enclosure = evaluate_spec(spec, target, _budget_from(args))
    except BudgetExceededError as exc:
        if exc.partial is None:
            raise
        enclosure = exc.partial
        shortfall = "budget exceeded"
    except ValueError as exc:
        if args.method != "direct" or isinstance(exc, DivergentError):
            raise
        # an offset or depth beyond the oracle's terms; the library's
        # advice after ";" to raise max_outer has no option here
        raise ValueError(
            f"--method direct sums at most {_DIRECT_MAX_OUTER:,} outer terms "
            f"and cannot certify {spec} ({str(exc).partition(';')[0]}); "
            "use the default method instead"
        ) from None
    source = ""
    if cached is not None and cached[1].width() < enclosure.width():
        # a capped or direct answer wider than the checked record: print the
        # record and store nothing
        enclosure, source = cached[1], f"  (cached, {cached[0].method})"
    elif cache_path is not None:
        record = CacheRecord.from_enclosure(spec, enclosure, args.method, digits + 6)
        # a lookup picks the narrowest record, so a wider or equal one is dead
        if cached is None or record.to_enclosure().width() < cached[1].width():
            cache_store(cache_path, record)
    if shortfall is None and enclosure.width() > Fraction(1, 10**digits):
        shortfall = f"direct summation to {_DIRECT_MAX_OUTER:,} outer terms"
    lo, hi = enclosure.decimal_strings(digits)
    print(f"{spec}  in  [{lo}, {hi}]{source}")
    if shortfall is None:
        return EXIT_OK
    print(
        f"warning: width {_format_sci(enclosure.width())} misses the "
        f"requested {digits} digits ({shortfall})",
        file=sys.stderr,
    )
    return EXIT_UNRESOLVED


def _cmd_compare(args: argparse.Namespace) -> int:
    from . import order

    left = parse_value_spec(args.a)
    right = parse_value_spec(args.b)
    outcome = order.compare(left, right, _budget_from(args))
    print(
        f"{left} vs {right}: {outcome.verdict.value}"
        f"  separation >= {_format_lower(outcome.separation)}"
        f"  ({outcome.bits_used} bits)"
    )
    return EXIT_OK if outcome.verdict is not order.Verdict.UNRESOLVED else EXIT_UNRESOLVED


def _cmd_beta(args: argparse.Namespace) -> int:
    from . import order

    rows = []
    for entry in order.beta_table(args.count, _budget_from(args)):
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
    from . import order

    index = parse_index(args.index)
    if len(index) == 0:
        raise ValueError("the empty index names the constant 1, not a series value")
    coord = order.phi(index, _budget_from(args))
    print(f"phi({index_str(index)}) = ({coord.band}, {coord.position})")
    return EXIT_OK


def _cmd_chain(args: argparse.Namespace) -> int:
    from . import verify

    budget = _budget_from(args)
    report = verify.verify_chain(args.blocks, args.per_block, budget)
    if args.format == "table":
        print("t(1) = infinity (divergent; symbolic top of the chain)")
        for members, tail in verify._chain_blocks(args.blocks, args.per_block, budget):
            line = " > ".join(f"t({index_str(m)})" for m in members)
            print(f"  {line} > [tail:1:{index_str(tail)}]")
    _emit_report([report], args)
    return _status_exit([report])


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import verify

    budget = _budget_from(args)
    nmax = args.nmax
    families = ((), (2,), (2, 1)) if args.suite in ("limits", "all") else ()
    # run first, so that an n_max too small for a family exits before any suite
    limits = [verify.verify_limits(index, nmax or 12, budget=budget) for index in families]
    reports: list[ScanReport] = []
    if args.suite in ("identities", "all"):
        reports.append(verify.verify_repeated(nmax or 3, budget=budget))
        reports.append(verify.verify_sum_formula(nmax or 4, budget=budget))
        reports.append(verify.verify_catalan(12, budget=budget))
        reports.append(verify.verify_tail_recurrence(8, budget=budget))
    reports.extend(limits)
    if args.suite in ("order", "all"):
        reports.append(verify.verify_monotonicity(50, 8, budget=budget))
        reports.append(verify.verify_chain(4, 8, budget=budget))
    _emit_report(reports, args)
    return _status_exit(reports)


def _cmd_scan(args: argparse.Namespace) -> int:
    from . import verify

    budget = _budget_from(args)
    if args.kind == "p-sets":
        report = verify.scan_p_sets(args.rank_max, args.nmax or 10, budget)
    elif args.kind == "collisions":
        report = verify.scan_tail_collisions(args.weight_max, budget=budget)
    else:
        report = verify.check_phi_conjecture(
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
    p_eval.add_argument("--cache", default=None,
                        help="cache file path; a cached record is checked only "
                        "against a fresh 2^-54 enclosure, so a record that is "
                        "wrong only below that width prints as certified")
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
    except (ValueError, OSError) as exc:  # invalid input, or an unusable file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (UnresolvedComparisonError, BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNRESOLVED


if __name__ == "__main__":
    sys.exit(main())
