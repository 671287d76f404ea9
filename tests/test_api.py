"""The public names of the package and what importing it pulls in."""

import ast
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tvals

PUBLIC_NAMES = [
    "Enclosure",
    "RoundingError",
    "BudgetExceededError",
    "DivergentError",
    "UnresolvedComparisonError",
    "DEFAULT_TARGET_WIDTH",
    "EvalRequest",
    "evaluate",
    "evaluate_direct",
    "evaluate_direct_many",
    "evaluate_direct_family",
    "evaluate_spec",
    "IndexParseError",
    "MultiIndex",
    "ValueSpec",
    "depth",
    "enumerate_admissible",
    "enumerate_admissible_up_to",
    "index_str",
    "is_admissible",
    "parse_index",
    "parse_value_spec",
    "weight",
    "PrecisionBudget",
    "bernoulli_fraction",
    "const_catalan",
    "const_pi",
    "euler_int",
    "odd_power_tail",
    "BetaEntry",
    "ComparisonOutcome",
    "PhiCoord",
    "Verdict",
    "band_of_value",
    "band_prefix",
    "beta_table",
    "compare",
    "enumerate_tails_above",
    "phi",
    "rank_of_tail",
    "Finding",
    "ScanReport",
    "ScanStatus",
    "check_phi_conjecture",
    "scan_p_sets",
    "scan_tail_collisions",
    "verify_catalan",
    "verify_chain",
    "verify_limits",
    "verify_monotonicity",
    "verify_repeated",
    "verify_sum_formula",
    "verify_tail_recurrence",
    "__version__",
]


def test_public_names_are_frozen():
    assert tvals.__all__ == PUBLIC_NAMES
    assert all(hasattr(tvals, name) for name in PUBLIC_NAMES)


def test_runs_without_mpmath():
    script = (
        "import sys\n"
        "from fractions import Fraction\n"
        "import tvals\n"
        "spec = tvals.ValueSpec((2, 1), 0)\n"
        "assert tvals.evaluate_spec(spec, Fraction(1, 10**20)).is_positive()\n"
        "tvals.compare(spec, tvals.ValueSpec((3,), 0))\n"
        "assert len(tvals.beta_table(4)) == 4\n"
        "assert 'mpmath' not in sys.modules, 'mpmath was imported'\n"
    )
    src = str(Path(tvals.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


_UNLOADED = ("tvals.order", "tvals.verify", "dataclasses", "inspect", "datetime")

# fresh process: importing the package, or the CLI and running ``tv eval``
# without a cache, leaves the order layer, the scans, ``dataclasses``,
# ``inspect`` and ``datetime`` unloaded; the first read of ``tvals.phi``
# loads the order layer, and neither ``tv phi`` nor the scans load
# ``dataclasses`` or ``inspect``
_LEAN_SCRIPT = f"""
import contextlib, io, sys
import tvals
import tvals.cli
def tv(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert tvals.cli.main(list(argv)) == 0
tv("eval", "--index", "2,1", "--digits", "10", "--no-cache")
loaded = sorted(set({_UNLOADED!r}) & set(sys.modules))
assert not loaded, f"loaded: {{loaded}}"
assert tvals.phi is sys.modules["tvals.order"].phi
assert "tvals.verify" not in sys.modules
tv("phi", "--index", "2,1,1")
import tvals.verify
loaded = sorted({{"dataclasses", "inspect"}} & set(sys.modules))
assert not loaded, f"the order layer and the scans loaded: {{loaded}}"
"""


def _run_lean_script(src: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", _LEAN_SCRIPT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120,
    )


def test_eval_loads_neither_the_order_layer_nor_the_scans():
    result = _run_lean_script(Path(tvals.__file__).resolve().parents[1])
    assert result.returncode == 0, result.stderr


def test_lean_import_check_sees_an_eager_scan_import(tmp_path):
    package = Path(tvals.__file__).resolve().parent
    shutil.copytree(package, tmp_path / "tvals", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "tvals" / "cli.py"
    source = cli.read_text(encoding="utf-8")
    anchor = "from .numerics import PrecisionBudget\n"
    assert anchor in source
    cli.write_text(source.replace(anchor, anchor + "from .verify import ScanStatus\n"), encoding="utf-8")
    result = _run_lean_script(tmp_path)
    assert result.returncode != 0 and "loaded: ['tvals.order', 'tvals.verify']" in result.stderr


def _unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads; a name listed in ``__all__``
    or read inside a string annotation counts as read."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
        # a function's return, an argument's or an annotated assignment's
        annotation = getattr(node, "returns", None) or getattr(node, "annotation", None)
        for inner in ast.walk(annotation) if annotation else ():
            if isinstance(inner, ast.Constant) and isinstance(inner.value, str):
                parsed = ast.parse(inner.value, mode="eval")
                used.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize(
    "module", sorted(Path(tvals.__file__).parent.glob("*.py")), ids=lambda p: p.name
)
def test_modules_import_no_unused_names(module):
    assert _unused_imports(module.read_text(encoding="utf-8")) == []


def test_unused_import_check_reads_all_and_string_annotations():
    source = (
        "from typing import Optional\n"
        "from .a import Exported, Annotated, Unused\n"
        "__all__ = ['Exported']\n"
        "def f(x: 'Optional[Annotated]'): pass\n"
    )
    assert _unused_imports(source) == ["Unused (line 2)"]
