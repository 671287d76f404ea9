"""The performance recorder in ``bench/record.py``: parsing and cold rows."""

import importlib.util
import json
from pathlib import Path

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


def test_cold_row_runs_in_a_fresh_process_without_mpmath():
    got = record.time_cold(ROOT, "prefix_expansion", (2, 1), 8)
    assert got["seconds"] > 0
    assert set(got) == {"seconds", "python", "tvals"}
