"""The performance recorder in ``bench/record.py``: parsing and cold rows."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("record", ROOT / "bench" / "record.py")
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)


def _run_output(workload, seed, trace, throughput):
    report = {"workload": workload, "seed": seed, "trace": trace, "python": "3.x", "tvals": "0.1.0"}
    metrics = {name: {"value": 1.0, "unit": "-"} for name in record.END_TO_END}
    metrics["throughput_rps"]["value"] = throughput
    return "\n".join([
        f"{workload:18s} throughput_rps {throughput} 1/s",
        json.dumps({"report": report}),
        json.dumps({"correct": True, "attempted": 9, "failed": 0, "metrics": metrics}),
    ])


def test_perfbench_rows_take_medians_of_untraced_runs(tmp_path):
    outputs = [
        _run_output("eval_highprec", 1, 0, 100.0),
        _run_output("eval_highprec", 2, 0, 140.0),
        _run_output("eval_highprec", 3, 0, 120.0),
        _run_output("eval_highprec", 0, 1, 1.0),  # traced: not an end-to-end run
        _run_output("order_scan", 1, 0, 90.0),
    ]
    paths = []
    for number, text in enumerate(outputs):
        paths.append(tmp_path / f"run{number}.txt")
        paths[-1].write_text(text + "\n")
    rows = {row["name"]: row for row in record.perfbench_rows(paths)}
    assert sorted(rows) == ["eval_highprec", "order_scan"]
    assert rows["eval_highprec"]["runs"] == 3
    assert rows["eval_highprec"]["seeds"] == [1, 2, 3]
    assert rows["eval_highprec"]["median"]["throughput_rps"] == 120.0
    assert rows["eval_highprec"]["quartiles"]["throughput_rps"] == [110.0, 130.0]
    assert rows["order_scan"]["stamp"] == {"python": "3.x", "tvals": "0.1.0"}


def test_traced_rows_take_per_layer_medians_of_traced_runs(tmp_path):
    outputs = [
        _run_output("eval_highprec", 1, 1, 10.0),
        _run_output("eval_highprec", 2, 1, 30.0),
        _run_output("eval_highprec", 3, 1, 20.0),
        _run_output("eval_highprec", 4, 0, 99.0),  # untraced: no per-layer values
    ]
    path = tmp_path / "runs.txt"
    path.write_text("\n".join(outputs) + "\n")
    (row,) = record.traced_rows([path])
    assert (row["kind"], row["name"], row["runs"], row["seeds"]) == ("traced", "eval_highprec", 3, [1, 2, 3])
    assert row["median"]["throughput_rps"] == 20.0
    assert [r["name"] for r in record.perfbench_rows([path])] == ["eval_highprec"]


def test_cold_row_runs_in_a_fresh_process_without_mpmath():
    got = record.time_cold(ROOT, "prefix_expansion", (2, 1), 8)
    assert got["seconds"] > 0
    assert set(got) == {"seconds", "peak_rss_mb", "python", "tvals"}
    # a whole interpreter with tvals imported, read in MiB, not KiB
    assert 1 < got["peak_rss_mb"] < 1000


def test_cold_grid_starts_with_a_calibration_loop():
    assert record.COLD_GRID[0] == ("calibration", 6)
    assert record.REPEAT == 5
    assert record._name("calibration", 6) == (
        "calibration (10**6 steps of a pure-Python integer loop)"
    )
    small, large = (record.time_cold(ROOT, "calibration", (), e)["seconds"] for e in (1, 5))
    assert 0 < small < large


def test_cold_grid_times_the_direct_oracle():
    assert ("evaluate_direct_many", 5) in record.COLD_GRID
    assert record._name("evaluate_direct_many", 5) == (
        "evaluate_direct_many((2, 1, 1, 1), (0, 1), 10**5)"
    )
    got = record.time_cold(ROOT, "evaluate_direct_many", (2, 1), 3)
    assert got["seconds"] > 0
    assert set(got) == {"seconds", "peak_rss_mb", "python", "tvals"}
    # the weight <= 6 family of the oracle_crosscheck workload, in one call
    assert ("evaluate_direct_family", 5) in record.COLD_GRID
    assert record._name("evaluate_direct_family", 5) == (
        "evaluate_direct_family(weight <= 6, (0, 1), 10**5)"
    )
    got = record.time_cold(ROOT, "evaluate_direct_family", (), 3)
    assert got["seconds"] > 0
    assert set(got) == {"seconds", "peak_rss_mb", "python", "tvals"}


def test_cold_grid_times_the_order_queries():
    assert {
        ("phi", 0), ("beta_table", 12), ("check_phi_conjecture", 8),
        ("check_phi_conjecture", 10), ("check_phi_conjecture", 11),
    } <= set(record.COLD_GRID)
    assert record._name("phi", 0) == "phi((2, 1, 1, 1))"
    assert record._name("beta_table", 12) == "beta_table(12)"
    assert record._name("check_phi_conjecture", 8) == "check_phi_conjecture(7, 7, total_max=8)"
    assert record._name("check_phi_conjecture", 10) == "check_phi_conjecture(9, 9, total_max=10)"
    assert record._name("check_phi_conjecture", 11) == "check_phi_conjecture(10, 10, total_max=11)"
    for kind, arg in (("phi", 0), ("beta_table", 3), ("check_phi_conjecture", 4)):
        got = record.time_cold(ROOT, kind, (2, 1), arg)
        assert got["seconds"] > 0


def test_pairing_scan_decisions_are_counted_apart_from_the_timed_runs():
    # the same scan in two fresh processes makes the same decisions
    calls = record.count_decisions(ROOT, 4)
    assert calls > 0 and record.count_decisions(ROOT, 4) == calls
    # a timed run reports no count
    assert "decide_calls" not in record.time_cold(ROOT, "check_phi_conjecture", (2, 1), 4)


def test_cold_grid_times_tv_eval_processes():
    assert {("tv_eval", 0), ("tv_eval", 1)} <= set(record.COLD_GRID)
    assert record._name("tv_eval", 0) == (
        "tv eval --index 2,1,1,1 --digits 30 (fresh process, cache miss)"
    )
    assert record._name("tv_eval", 1).endswith("(fresh process, cache hit)")
    for hit in (0, 1):  # time_tv checks that the run missed or hit
        got = record.time_tv(ROOT, "tv_eval", hit)
        assert got["seconds"] > 0
        assert got["python"] and got["tvals"] == "0.1.0"


def test_cold_grid_times_a_tv_phi_process():
    assert ("tv_phi", 0) in record.COLD_GRID
    assert record._name("tv_phi", 0) == "tv phi --index 2,1,1,1 (fresh process, cache miss)"
    got = record.time_tv(ROOT, "tv_phi")
    assert got["seconds"] > 0 and got["tvals"] == "0.1.0"


def test_cold_grid_times_t2111_at_1e_20():
    assert ("evaluate_spec", 20) in record.COLD_GRID
    assert record._name("evaluate_spec", 20) == "evaluate_spec(T(2, 1, 1, 1), 1e-20)"
    got = record.time_cold(ROOT, "evaluate_spec", (2, 1, 1, 1), 20)
    assert got["seconds"] > 0 and got["tvals"] == "0.1.0"


def _fake_timers(monkeypatch, calls):
    """Replace both timers by ones that log ``(tree, kind)`` and take a
    second per character of the tree's name; a cold child also peaks at ten
    MiB per character, and a pairing scan makes a thousand decisions per
    character plus its argument.  Compiling a tree does nothing."""

    def timed(tree, kind):
        calls.append((tree.name, kind))
        return {"seconds": float(len(tree.name)), "python": "3.x", "tvals": tree.name}

    def cold(tree, kind, index, arg):
        return dict(timed(tree, kind), peak_rss_mb=10.0 * len(tree.name))

    monkeypatch.setattr(record, "time_cold", cold)
    monkeypatch.setattr(record, "time_tv", lambda tree, kind, hit=0: timed(tree, kind))
    monkeypatch.setattr(record, "compile_tree", lambda tree: None)
    monkeypatch.setattr(record, "count_decisions", lambda tree, arg: 1000 * len(tree.name) + arg)
    monkeypatch.setattr(record, "COLD_GRID", (("prefix_expansion", 8), ("tv_eval", 0)))
    monkeypatch.setattr(record, "REPEAT", 3)


def test_cold_rows_time_each_row_on_every_tree_in_turn(tmp_path, monkeypatch):
    calls = []
    _fake_timers(monkeypatch, calls)
    a, b = tmp_path / "a", tmp_path / "bb"
    rows_a, rows_b = record.cold_rows([a, b])
    turns = ["a", "bb", "bb", "a", "a", "bb"]
    assert calls == [(t, "prefix_expansion") for t in turns] + [(t, "tv_eval") for t in turns]
    assert [row["median_s"] for row in rows_a] == [1.0, 1.0]
    assert [row["runs_s"] for row in rows_b] == [[2.0] * 3] * 2
    assert (rows_b[0]["median_rss_mb"], rows_b[0]["runs_rss_mb"]) == (20.0, [20.0] * 3)
    assert "median_rss_mb" not in rows_b[1]  # a tv process reports no RSS
    assert rows_b[1]["name"].startswith("tv eval") and rows_b[1]["stamp"]["tvals"] == "bb"


def test_cold_pairing_scan_rows_count_the_decisions_of_their_tree(tmp_path, monkeypatch):
    calls = []
    _fake_timers(monkeypatch, calls)
    monkeypatch.setattr(record, "COLD_GRID", (("check_phi_conjecture", 8), ("phi", 0)))
    rows_a, rows_b = record.cold_rows([tmp_path / "a", tmp_path / "bb"])
    assert (rows_a[0]["decide_calls"], rows_b[0]["decide_calls"]) == (1008, 2008)
    assert rows_a[0]["runs_s"] == [1.0] * 3  # the counting run is not timed
    assert "decide_calls" not in rows_a[1]


def test_cold_rows_compile_each_tree_before_timing_it(tmp_path, monkeypatch):
    calls = []
    _fake_timers(monkeypatch, calls)
    monkeypatch.setattr(record, "compile_tree", lambda tree: calls.append((tree.name, "compile")))
    record.cold_rows([tmp_path / "a", tmp_path / "bb"])
    assert calls.count(("a", "compile")) == calls.count(("bb", "compile")) == 1
    for tree in ("a", "bb"):
        timed = [i for i, (name, kind) in enumerate(calls) if name == tree and kind != "compile"]
        assert calls.index((tree, "compile")) < timed[0]


def test_compile_tree_writes_bytecode_for_the_sources(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("VALUE = 1\n")
    record.compile_tree(tmp_path)
    assert list((package / "__pycache__").glob("__init__.*.pyc"))


def test_main_labels_each_tree_with_its_own_runs(tmp_path, monkeypatch):
    calls = []
    _fake_timers(monkeypatch, calls)
    runs = {}
    for label, throughput in (("parent", 100.0), ("change", 150.0)):
        runs[label] = tmp_path / f"{label}.txt"
        runs[label].write_text(_run_output("eval_highprec", 1, 0, throughput) + "\n")
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"rows": [
        {"label": "older", "kind": "cold", "name": "x"},
        {"label": "parent", "kind": "cold", "name": "stale"},
    ]}))
    assert record.main([
        "--out", str(out),
        "--tree", str(tmp_path / "a"), "--label", "parent", "--perfbench", str(runs["parent"]),
        "--tree", str(tmp_path / "bb"), "--label", "change", "--perfbench", str(runs["change"]),
    ]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert [row["name"] for row in rows if row["label"] == "older"] == ["x"]
    assert "stale" not in [row["name"] for row in rows]
    for label, tree, throughput in (("parent", "a", 100.0), ("change", "bb", 150.0)):
        mine = [row for row in rows if row["label"] == label]
        assert [row["kind"] for row in mine] == ["cold", "cold", "perfbench"]
        assert {row["stamp"]["tvals"] for row in mine[:2]} == {tree}
        assert mine[2]["median"]["throughput_rps"] == throughput
    assert calls[:2] == [("a", "prefix_expansion"), ("bb", "prefix_expansion")]


@pytest.mark.parametrize("argv", [
    ["--tree", "a", "--label", "x", "--tree", "b"],
    ["--tree", "a", "--label", "x", "--tree", "b", "--label", "x"],
    ["--tree", "a", "--label", "x", "--perfbench", "p", "--tree", "b", "--label", "y"],
    ["--tree", "a", "--label", "x", "--pytest", "p", "--tree", "b", "--label", "y"],
], ids=["missing-label", "same-label", "one-perfbench", "one-pytest"])
def test_main_rejects_options_that_do_not_pair_with_the_trees(argv, tmp_path, monkeypatch):
    _fake_timers(monkeypatch, [])
    with pytest.raises(SystemExit) as excinfo:
        record.main(["--out", str(tmp_path / "BENCH.json"), *argv])
    assert excinfo.value.code == 2
    assert not (tmp_path / "BENCH.json").exists()
