"""deskbench benchmark: one command, four seeded workloads, checked outputs.

    python3 perfbench/run.py --workload dense_cv --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run sets up the workload's inputs (several times, to
time set-up), then a child process of its own runs untraced passes for
``--seconds``, timing a fixed reference loop between passes, and checks each
pass's outputs. The last line of standard output is a JSON object with the
end-to-end metrics. With ``--trace 1`` the run makes a warm-up, an untraced
and a traced pass of every workload and reports the per-layer metrics
instead (README.md says why all four). ``--quick`` shrinks every input for a
smoke test. Run from the root of a deskbench checkout; work files go to
``.bench_work/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# Pinned to 1 in the benchmark's own environment before numpy is imported;
# the child and the cluster workers inherit it. No machine setting changes.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
REFERENCE_LOOP = 1_000_000
SETUP_REPEATS = 2
SETUP_MIN_S = 1.0
SETUP_MAX_REPEATS = 25
SETUP_AFTER_BUDGET_S = 10.0
RUN_BUDGET_S = 170.0    # the whole run must end within 180 s
PASS_TIMEOUT_S = 150.0  # one child process (one traced workload) at most


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q of the
    samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def beyond(values, q: float) -> int:
    """How many samples lie strictly past the nearest-rank q percentile slot."""
    return len(values) - max(1, math.ceil(q * len(values)))


def reference_s() -> float:
    """Time a fixed pure-Python loop that no deskbench change can speed up.

    The shared host's speed drifts by up to ~40% over tens of seconds. A
    pass's time over this loop's time, taken right before and after the
    pass, cancels most of that drift; ``wall_ref`` is that ratio.
    """
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOP):
        total += i * i % 7
    return time.perf_counter() - start


def machine_facts() -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {"name": deps.get("blas", {}).get("name"),
                "version": deps.get("blas", {}).get("version")}
    except (TypeError, AttributeError):  # numpy without dict-mode show_config
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "machine": platform.machine(),
    }


def _import_library() -> None:
    if not (SRC / "deskbench" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no deskbench sources under {SRC}")
    sys.path.insert(0, str(SRC))


# ---------------------------------------------------------------------------
# child process: the passes of one workload


def child_main(spec_path: str) -> int:
    _import_library()
    import layers
    import tracer
    import workloads

    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    name, seed, workdir = spec["workload"], spec["seed"], Path(spec["workdir"])
    size = workloads.sizes(name, spec["quick"])
    run_pass = workloads.PASS[name]
    state: dict = {}
    passes, errors = [], []
    refs = [reference_s()]

    def one_pass():
        try:
            res = run_pass(workdir, seed, size, state)
        except Exception as exc:  # a pass that raises is one failed operation
            errors.append(f"{type(exc).__name__}: {exc}")
            passes.append({"attempted": 1, "failed": 1})
            res = None
        refs.append(reference_s())
        if res is not None:
            passes.append({"wall_s": res.wall_s, "startup_s": res.startup_s,
                           "ref_s": (refs[-2] + refs[-1]) / 2.0,
                           "attempted": res.attempted, "failed": res.failed,
                           "checks": res.checks, "values": res.values,
                           "digests": res.digests, "samples": res.samples})
        return res

    out = {}
    if spec["trace"]:
        one_pass()  # warm-up: first-call costs would otherwise land on one side
        plain = one_pass()
        rec = tracer.Recorder()
        rec.pass_id = 1
        with tracer.instrument(rec, layers.PROBES):
            traced = one_pass()
        if plain is not None and traced is not None:
            metrics = layers.layer_metrics(name, rec, traced)
            metrics["trace_overhead_s"] = (traced.wall_s - plain.wall_s, "s")
            out["layer"] = metrics
        tracer.write_spans(rec, workdir / "spans.json")
    else:
        start = time.perf_counter()
        while True:
            one_pass()
            if time.perf_counter() - start >= spec["seconds"]:
                break
    out["passes"] = passes
    out["errors"] = errors
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(spec["out"]).write_text(json.dumps(out), encoding="utf-8")
    return 0


def _exit_on_sigterm() -> None:
    """Turn SIGTERM into SystemExit so that ``finally`` blocks reap children."""
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill the child's process group (the child and its workers) and wait."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_child(spec: dict, timeout_s: float) -> dict:
    """Run one child process to completion; its own session holds its workers."""
    workdir = Path(spec["workdir"])
    spec_path, out_path = workdir / "child-spec.json", workdir / "child-out.json"
    out_path.unlink(missing_ok=True)
    spec_path.write_text(json.dumps(dict(spec, out=str(out_path))), encoding="utf-8")
    proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve()),
                             "--child", str(spec_path)],
                            cwd=str(ROOT), stdin=subprocess.DEVNULL, stdout=sys.stderr,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: {spec['workload']} passes exceeded {timeout_s:.0f} s")
    finally:
        _stop_group(proc)
    if code != 0 or not out_path.is_file():
        raise SystemExit(f"perfbench: {spec['workload']} child exited with status {code}")
    return json.loads(out_path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# parent: set-up, child, report


def _workdir(workload: str, seed: int, quick: bool) -> Path:
    path = WORK / f"{workload}-seed{seed}{'-quick' if quick else ''}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _setup(workloads, workload: str, seed: int, quick: bool, repeats: int = 1,
           min_s: float = 0.0):
    """Make the inputs ``repeats`` times, and more until ``min_s`` is spent.

    Returns the work directory and the time of each repeat. Every repeat
    writes the same files, so any of them can feed the passes.
    """
    workdir = _workdir(workload, seed, quick)
    size = workloads.sizes(workload, quick)
    times = []
    while len(times) < repeats or (sum(times) < min_s and len(times) < SETUP_MAX_REPEATS):
        t0 = time.perf_counter()
        workloads.SETUP[workload](workdir, seed, size)
        times.append(time.perf_counter() - t0)
    return workdir, times


def _tally(passes) -> tuple[int, int]:
    return sum(p["attempted"] for p in passes), sum(p["failed"] for p in passes)


def _print_checks(passes) -> None:
    outcomes: dict = {}
    for p in passes:
        for check, ok in p.get("checks", {}).items():
            outcomes.setdefault(check, []).append(ok)
    for check, oks in outcomes.items():
        status = "ok" if all(oks) else "FAILED"
        print(f"check {status}: {check} ({sum(oks)}/{len(oks)} passes)")


def _print_digests(passes) -> None:
    seen: dict = {}
    for p in passes:
        for name, digest in p.get("digests", {}).items():
            seen.setdefault(name, set()).add(digest)
    for name, digests in seen.items():
        print(f"digest {name}: sha256 {' '.join(sorted(digests))}")


def measure(args, workloads) -> dict:
    # set-up is timed before and after the passes, so that its median spans
    # the run rather than one stretch of the host's speed
    workdir, setup_times = _setup(workloads, args.workload, args.seed, args.quick,
                                  SETUP_REPEATS, SETUP_MIN_S)
    budget = RUN_BUDGET_S - SETUP_AFTER_BUDGET_S - (time.perf_counter() - args.started)
    out = run_child({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                     "quick": args.quick, "trace": False, "workdir": str(workdir)},
                    max(10.0, budget))
    setup_times += _setup(workloads, args.workload, args.seed, args.quick,
                          SETUP_REPEATS, SETUP_MIN_S)[1]
    setup_s = statistics.median(setup_times)
    passes = out["passes"]
    good = [p for p in passes if "wall_s" in p]
    if not good:
        raise SystemExit(f"perfbench: every {args.workload} pass raised: {out['errors']}")
    attempted, failed = _tally(passes)
    metrics = {"wall_ref": (statistics.median(p["wall_s"] / p["ref_s"] for p in good), "ref"),
               "setup_s": (setup_s, "s"),
               "peak_rss_mb": (out["peak_rss_mb"], "MB")}
    extra = {"wall_s": (statistics.median(p["wall_s"] for p in good), "s"),
             "ref_s": (statistics.median(p["ref_s"] for p in good), "s"),
             "startup_s": (statistics.median(p["startup_s"] for p in good), "s")}
    for name in good[0]["values"]:
        unit = good[0]["values"][name][1]
        extra[name] = (statistics.median(p["values"][name][0] for p in good), unit)
    rounds = [ms for p in good for ms in p["samples"].get("round_ms", [])]
    if rounds:
        extra["round_p50_ms"] = (percentile(rounds, 0.5), "ms")
        extra["round_p90_ms"] = (percentile(rounds, 0.9), "ms")
        extra["round_samples"] = (len(rounds), "count")
        extra["round_samples_beyond_p90"] = (beyond(rounds, 0.9), "count")
    extra["failed_frac"] = (failed / attempted, "frac")

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"passes={len(passes)} quick={int(args.quick)}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"metric {name} {value!r} {unit}")
    _print_checks(passes)
    _print_digests(passes)
    for error in out["errors"]:
        print(f"error {error}")
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics, "extra": extra, "errors": out["errors"]}


def trace(args, workloads) -> dict:
    metrics, attempted, failed, errors = {}, 0, 0, []
    for name in workloads.WORKLOADS:
        workdir, _ = _setup(workloads, name, args.seed, args.quick)
        budget = RUN_BUDGET_S - (time.perf_counter() - args.started)
        out = run_child({"workload": name, "seed": args.seed, "seconds": args.seconds,
                         "quick": args.quick, "trace": True, "workdir": str(workdir)},
                        max(10.0, min(PASS_TIMEOUT_S, budget)))
        a, f = _tally(out["passes"])
        attempted, failed = attempted + a, failed + f
        errors += out["errors"]
        print(f"perfbench traced workload={name} seed={args.seed} quick={int(args.quick)} "
              f"spans={workdir / 'spans.json'}")
        _print_checks(out["passes"])
        for metric, (value, unit) in out.get("layer", {}).items():
            metrics[f"{name}.{metric}"] = (value, unit)
            print(f"layer {name}.{metric} {value!r} {unit}")
    for error in errors:
        print(f"error {error}")
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics, "errors": errors}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny inputs for a smoke test")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.environ.update({var: "1" for var in BLAS_THREAD_VARS})
    _exit_on_sigterm()
    if args.child:
        return child_main(args.child)
    args.started = time.perf_counter()
    _import_library()
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    facts = machine_facts()
    print("machine " + json.dumps(facts, sort_keys=True))
    result = trace(args, workloads) if args.trace else measure(args, workloads)
    if args.trace:
        wanted = layers.metric_names()
        missing = [name for name in wanted if name not in result["metrics"]]
        if missing:
            raise SystemExit(f"perfbench: traced run is missing {missing}")
        result["metrics"] = {name: result["metrics"][name] for name in wanted}
    report = {"correct": result["correct"], "attempted": result["attempted"],
              "failed": result["failed"],
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in result["metrics"].items()}}
    WORK.mkdir(exist_ok=True)
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**report, "machine": facts, "extra": result.get("extra", {}),
                    "errors": result["errors"]}, indent=1), encoding="utf-8")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
