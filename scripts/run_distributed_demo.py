"""Loopback distributed training demo: one master, three workers.

Splits a synthetic dense dataset into three parts, trains the same
linear model single-node and over the socket protocol, and prints the
comparison table. The master runs on this thread and the workers are three
`deskbench bench-worker` processes on loopback. Both sides of the comparison
time the training rounds alone (see distbench.bench_compare).

Usage: python3 scripts/run_distributed_demo.py [--algo logistic] [--rounds 1000]
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from deskbench import dataio, distbench, linmodels


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--algo", default="logistic", choices=["logistic", "svm"])
    parser.add_argument("--rows", type=int, default=6000)
    parser.add_argument("--features", type=int, default=100)
    parser.add_argument("--rounds", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--outdir", default="distributed-demo-out")
    args = parser.parse_args()

    pool = dataio.generate_synthetic(int(args.rows * 1.25), args.features, 4.0,
                                     args.seed)
    train = pool.take(range(args.rows))
    holdout = pool.take(range(args.rows, pool.num_rows))
    parts, _manifest = dataio.split_parts(train, 3, shuffle_seed=args.seed)
    print(f"train {train.num_rows} rows -> parts {[p.num_rows for p in parts]}, "
          f"holdout {holdout.num_rows}")

    cfg = linmodels.SgdConfig(lambda_=1e-4, epochs_or_iters=1,
                              learning_rate=0.1, seed=args.seed)
    _model, local = distbench.run_local_bench(
        train, args.algo, cfg, args.rounds, holdout, manifest="demo")
    print(f"local: wall {local.wall_clock_s:.2f}s auc {local.auc_roc:.4f}")

    with tempfile.TemporaryDirectory() as tmp:
        part_paths = [Path(tmp) / f"part{i}.csv" for i in range(3)]
        for part, path in zip(parts, part_paths):
            dataio.save_dense(part, path)

        spec = distbench.ClusterSpec(
            "127.0.0.1:0", [(wid, 1, str(path)) for wid, path in enumerate(part_paths, 1)],
            round_timeout_s=30.0, max_rounds=args.rounds)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        workers = []

        def on_listening(addr):
            for wid, _cores, path in spec.workers:
                workers.append(subprocess.Popen(
                    [sys.executable, "-m", "deskbench.cli", "bench-worker",
                     "--connect", f"{addr[0]}:{addr[1]}", "--part", path,
                     "--worker-id", str(wid), "--outdir", str(Path(tmp) / f"worker{wid}")],
                    env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL))

        try:
            _dist_model, record = distbench.run_master(
                spec, args.algo, cfg, args.rounds, holdout, "demo", on_listening)
            for proc in workers:
                proc.wait(timeout=30)  # each has its DONE frame and exits by itself
        finally:
            for proc in workers:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()

    print(f"distributed: rounds {sum(record.round_wall_clock_s):.2f}s "
          f"of a {record.wall_clock_s:.2f}s session, auc {record.holdout_auc:.4f} "
          f"({record.bytes_sent}B out, {record.bytes_received}B in)")

    rows = distbench.bench_compare(local, record)
    csv_text = distbench.render_comparison_csv(rows)
    print()
    print(csv_text)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "comparison.csv").write_text(csv_text)
    print(f"wrote {outdir / 'comparison.csv'}")


if __name__ == "__main__":
    main()
