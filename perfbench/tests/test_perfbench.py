"""The benchmark's own tests: a quick-mode smoke run, the span arithmetic,
percentile sample counts, and that the traced pass restores what it rebinds.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args):
    out = subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=ROOT,
                         capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_quick_run_reports_every_end_to_end_metric(workload):
    result = _run("--workload", workload, "--seed", "5", "--seconds", "1",
                  "--trace", "0", "--quick")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for metric in SPEC["end_to_end"]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"] and reported["value"] > 0


def test_quick_traced_run_reports_every_per_layer_metric():
    result = _run("--workload", "dense_cv", "--seed", "5", "--seconds", "1",
                  "--trace", "1", "--quick")
    assert result["correct"] is True
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert layers.metric_names() == [m["name"] for m in SPEC["per_layer"]]


def _tree():
    """root [0,10] with children a [1,4] and b [3,6] (another thread),
    and a's child c [2,3]."""
    rec = tracer.Recorder()
    rec.names = ["x.root", "y.a", "y.b", "z.c"]
    rec.starts = [0.0, 1.0, 3.0, 2.0]
    rec.ends = [10.0, 4.0, 6.0, 3.0]
    rec.parents = [-1, 0, 0, 1]
    rec.pass_ids = [1, 1, 1, 1]
    return rec


def test_self_time_subtracts_the_union_of_children():
    # root: 10 - |[1,6]| = 5; a: 3 - 1 = 2; b and c have no children
    assert tracer.self_times(_tree()) == [5.0, 2.0, 3.0, 1.0]
    assert tracer.layer_self_times(_tree()) == {"x": 5.0, "y": 5.0, "z": 1.0}


def test_self_time_clips_children_to_the_parent():
    rec = _tree()
    rec.starts[2], rec.ends[2] = 8.0, 12.0  # b outlives the root
    assert tracer.self_times(rec)[0] == 10.0 - 3.0 - 2.0


def test_recorder_nests_spans_per_thread():
    rec = tracer.Recorder()
    with rec.span("a.outer"):
        with rec.span("a.inner"):
            pass
    assert rec.parents == [-1, 0]
    assert all(end >= start for start, end in zip(rec.starts, rec.ends))


@pytest.mark.parametrize("n, q, value, past", [
    (400, 0.5, 200, 200), (400, 0.9, 360, 40), (1200, 0.9, 1080, 120),
    (10, 0.9, 9, 1), (1, 0.9, 1, 0),
])
def test_percentile_sample_counts(n, q, value, past):
    samples = list(range(n, 0, -1))
    assert run.percentile(samples, q) == value
    assert run.beyond(samples, q) == past
    assert sum(1 for s in samples if s > value) == past


def _bindings():
    snapshot = {}
    for mod in tracer._modules("deskbench"):
        for name, value in vars(mod).items():
            snapshot[(mod.__name__, name)] = value
    for probe in layers.PROBES:
        if isinstance(probe.owner, type):
            snapshot[(probe.owner.__qualname__, probe.attr)] = vars(probe.owner)[probe.attr]
    return snapshot


def test_traced_pass_rebinds_every_copy_and_restores_all(tmp_path):
    from deskbench import textfeat
    from deskbench.distbench import bench, worker

    before = _bindings()
    original_epoch = worker.local_epoch
    size = workloads.sizes("rating_gbt", quick=True)
    workloads.SETUP["rating_gbt"](tmp_path, 3, size)
    rec = tracer.Recorder()
    with pytest.raises(RuntimeError):
        with tracer.instrument(rec, layers.PROBES):
            assert worker.local_epoch is not original_epoch
            assert bench.local_epoch is worker.local_epoch
            assert textfeat.tokenize.__wrapped__ is before[("deskbench.textfeat", "tokenize")]
            workloads.PASS["rating_gbt"](tmp_path, 3, size, {})
            raise RuntimeError("leave the traced block early")
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
    assert rec.durations("gbt.fit") and rec.counts["textfeat.tokens"] > 0
