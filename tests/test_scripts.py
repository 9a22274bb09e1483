"""Smoke tests for the demos in scripts/: each runs in-process and its outputs
must keep the bytes (or, where they hold wall-clock times, the columns) that
were pinned when the flows moved into library functions."""

import csv
import hashlib
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from deskbench import distbench
from deskbench.errors import ProtocolError

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, name, outdir, *args):
    monkeypatch.setattr(sys, "argv", [name, "--outdir", str(outdir), *map(str, args)])
    monkeypatch.setattr(sys, "path", list(sys.path))  # each script prepends src/
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_polarity_balance(monkeypatch, tmp_path):
    run_script(monkeypatch, "run_polarity_balance.py", tmp_path)
    assert sha256(tmp_path / "class-report-before.csv") == \
        "5ae707e251a3fa3db6c7f0ee099400a4db52c5e28eea66a18ddb66e618e2896a"
    assert sha256(tmp_path / "class-report-after.csv") == \
        "f45e1b83b97a5bb95e26153f81366395b593dc5b022f8f6f1dc86e9962fa3632"


def test_rating_pipeline(monkeypatch, tmp_path):
    run_script(monkeypatch, "run_rating_pipeline.py", tmp_path)
    assert sha256(tmp_path / "features.csv") == \
        "88025c3ed1284f52603cdac3653ce8e0db90f0bd39985f01eac6583013904bf4"
    with open(tmp_path / "rating-cv.csv", newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    assert [row[0] for row in rows][1:] == \
        ["fold-0", "fold-1", "fold-2", "fold-3", "fold-4", "cv-average"]
    # the GBT metrics, not the wall_clock_s column after them
    assert [row[6:9] for row in rows] == [
        ["rmse", "mae", "r2"],
        ["0.6636003868608875", "0.4977229860721632", "0.8797361877334203"],
        ["0.7070923258879294", "0.5508010787183564", "0.8653952544463243"],
        ["0.7303651679677959", "0.6047145312705668", "0.8505742993978409"],
        ["0.7181745899772785", "0.5560970111073583", "0.868037392582693"],
        ["0.6558425082200388", "0.5057478805550106", "0.8843853590512881"],
        ["0.695014995782786", "0.5430166975446911", "0.8696256986423133"],
    ]


def test_dense_benchmark(monkeypatch, tmp_path):
    run_script(monkeypatch, "run_dense_benchmark.py", tmp_path, "--rows", 800, "--features", 60)
    with open(tmp_path / "dense-benchmark.csv", newline="", encoding="utf-8") as handle:
        rows = [row[:3] for row in csv.reader(handle)]
    assert rows == [
        ["algorithm", "accuracy", "auc_roc"],
        ["logistic", "0.8812", "0.9569"],
        ["svm", "0.8313", "0.9055"],
        ["mlp", "0.8688", "0.9547"],
    ]


def test_distributed_demo(monkeypatch, tmp_path):
    run_script(monkeypatch, "run_distributed_demo.py", tmp_path,
               "--rows", 600, "--features", 20, "--rounds", 3)
    lines = (tmp_path / "comparison.csv").read_text().splitlines()
    assert lines[0] == "algorithm,mode,wall_clock_s,auc_roc,speedup"
    assert [line.split(",")[:2] for line in lines[1:3]] == \
        [["logistic", "local"], ["logistic", "distributed"]]
    assert len(lines) == 4 and lines[3].startswith("#")


def test_distributed_demo_reaps_workers_when_master_fails(monkeypatch, tmp_path):
    started = []
    popen = subprocess.Popen

    def recording_popen(*args, **kwargs):
        started.append(popen(*args, **kwargs))
        return started[-1]

    def failing_master(spec, algo, cfg, rounds, holdout, manifest, on_listening):
        on_listening(("127.0.0.1", 9))
        raise ProtocolError("master failed")

    monkeypatch.setattr(subprocess, "Popen", recording_popen)
    monkeypatch.setattr(distbench, "run_master", failing_master)
    with pytest.raises(ProtocolError, match="master failed"):
        run_script(monkeypatch, "run_distributed_demo.py", tmp_path,
                   "--rows", 600, "--features", 20, "--rounds", 3)
    assert len(started) == 3
    assert all(proc.returncode is not None for proc in started)
