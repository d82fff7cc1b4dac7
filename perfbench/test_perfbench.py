"""Quick self-tests of the benchmark (tiny inputs, sub-second windows).

They check that every workload emits every metric ``BENCHMARK.json`` names,
with a valid name and unit, that the oracle check can fail, and that the
benchmark refuses to run outside a checkout.  The full-size runs are
``python3 perfbench/run.py`` (see ``perfbench/README.md``).
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
from inputs import Inputs, expected_wire, mismatches  # noqa: E402
from layers import PREDICTIONS, self_times  # noqa: E402

TINY = {"subjects": 20, "history": 400}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_spec_names_units_and_predictions_agree():
    spec = _spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
    assert [m["name"] for m in spec["per_layer"]] == list(PREDICTIONS)
    assert [w["name"] for w in spec["workloads"]] == [
        "gate_hot", "audit_cold", "tracker_mixed", "fabric_gate"]


@pytest.mark.parametrize("workload", ["gate_hot", "audit_cold", "tracker_mixed", "fabric_gate"])
def test_workload_emits_every_metric(workload):
    result = run.measure(workload, 7, 0.6, True, setups=1, scale=TINY)
    assert result["failed"] == 0 and result["attempted"] > 0
    spec = _spec()
    assert set(result["end_to_end"]) == {m["name"] for m in spec["end_to_end"]}
    for name, value in result["end_to_end"].items():
        assert value > 0, name
    emitted = result["per_layer"]["metrics"]
    assert set(emitted) == {m["name"] for m in spec["per_layer"]}
    for name, value in emitted.items():
        assert value == value, name
    assert emitted["pdp.stage.entry_window_us"] > 0
    for unserved in ("pdp.stage.conflict_resolution_us", "pdp.stage.capacity_us"):
        assert emitted[unserved] == 0
    table = result["per_layer"]["table"]
    assert sum(row["self_us"] for row in table["rows"]) == pytest.approx(table["total_us"])


def test_a_corrupted_decision_is_caught():
    result = run.measure("gate_hot", 7, 0.3, False, setups=1, scale=TINY, corrupt=True)
    assert result["mismatched"] >= 1 and result["failed"] >= 1


def test_a_used_up_live_stream_ends_the_window_cleanly(monkeypatch):
    from workloads import TRACKER_CHUNK, TrackerMixed

    monkeypatch.setattr(TrackerMixed, "live_events", staticmethod(lambda seconds: 2 * TRACKER_CHUNK))
    result = run.measure("tracker_mixed", 7, 30.0, False, setups=1, scale=TINY)
    assert result["window_cut"] and result["window_s"] < 30.0
    assert result["samples"]["ingest"] == 2 and result["failed"] == 0
    assert result["attempted"] == 2 * TRACKER_CHUNK + result["samples"]["decide"]


def test_gated_times_scale_to_the_reference_speed_without_stolen_time():
    from reference import REFERENCE_SECONDS

    half_speed = 2 * REFERENCE_SECONDS
    piece = {"duration": 0.25, "stolen": 0.05, "cpu": 0.1, "decisions": 100, "events": 0,
             "latencies": {"decide": [200e-6] * 3}, "kernel": half_speed}
    gated = run._gated([piece], [(2.0, 0.5, half_speed), (3.0, 0.0, half_speed)], 50.0,
                       lambda kernel: REFERENCE_SECONDS / kernel)
    assert gated["decide_p50_us"] == pytest.approx(100)
    assert gated["decisions_per_s"] == pytest.approx(100 / 0.2 * 2)
    assert gated["server_cpu_us_per_op"] == pytest.approx(500)
    assert gated["setup_s"] == pytest.approx(0.75)
    assert gated["server_rss_mb"] == 50.0


def test_mismatches_compares_outcome_reason_entries_and_authorization():
    inputs = Inputs(3, **TINY)
    oracle = inputs.oracle()
    decisions = [expected_wire(d) for d in oracle.pdp.decide_many(inputs.requests(50))]
    assert mismatches(decisions, decisions) == 0
    for field, value in (("granted", None), ("reason", "bogus"), ("entries_used", 99),
                         ("authorization", {"auth_id": "other"})):
        altered = [dict(decisions[0], **{field: value})] + decisions[1:]
        assert mismatches(altered, decisions) == 1


def test_self_times_subtract_the_union_of_children():
    spans = [
        ["a", None, "router.op", 0, 100, None],
        ["b", "a", "router.fan_out", 10, 80, None],
        ["c", "b", "router.call", 10, 60, None],
        ["d", "b", "router.call", 20, 70, None],
        ["e", "c", "server.op", 20, 30, None],
    ]
    own, outer = self_times(spans)
    assert outer == 100
    assert own == {"router.op": 20, "router.fan_out": 0, "router.call": 100, "server.op": 30}


def test_refuses_to_run_without_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    process = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gate_hot", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={key: value for key, value in os.environ.items() if key != "PYTHONPATH"},
    )
    assert process.returncode != 0 and process.stdout == ""
