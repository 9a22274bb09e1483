"""Benchmark the three classifiers on a dense high-dimensional binary task.

Generates a synthetic stand-in for the dense benchmark corpus, trains
logistic regression, linear SVM, and the MLP on the same train split,
scores each on the holdout with ``evaluation.evaluate_split`` and prints
a comparison table (accuracy, AUC, wall clock), writing the rows to
dense-benchmark.csv. The wall clock covers fit and holdout prediction.

Usage: python3 scripts/run_dense_benchmark.py [--rows 4000] [--features 400]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from deskbench import dataio, evaluation, linmodels, mlp


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--rows", type=int, default=4000)
    parser.add_argument("--features", type=int, default=400)
    parser.add_argument("--separation", type=float, default=4.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--outdir", default="dense-benchmark-out")
    args = parser.parse_args()

    pool = dataio.generate_synthetic(args.rows, args.features, args.separation, args.seed)
    cut = int(args.rows * 0.8)
    train, test = pool.take(range(cut)), pool.take(range(cut, args.rows))
    print(f"train {train.num_rows} x {train.num_features}, test {test.num_rows}")

    trainers = {
        "logistic": linmodels.make_trainer("logistic", linmodels.SgdConfig(
            lambda_=1e-4, epochs_or_iters=5, seed=args.seed)),
        "svm": linmodels.make_trainer("svm", linmodels.SgdConfig(
            lambda_=1e-4, epochs_or_iters=5 * train.num_rows, seed=args.seed)),
        "mlp": mlp.make_trainer(
            mlp.MlpArchitecture(input_size=args.features, hidden_size=64,
                                num_hidden_blocks=2, dropout_p=0.2),
            mlp.MlpTrainConfig(learning_rate=1e-2, epochs=10, batch_size=128,
                               seed=args.seed)),
    }
    rows = []
    for name, trainer in trainers.items():
        report = evaluation.evaluate_split(train, test, trainer)
        rows.append((name, report.accuracy, report.auc_roc, report.wall_clock_s))
        print(f"{name:10s} acc {report.accuracy:.4f}  auc {report.auc_roc:.4f}  "
              f"wall {report.wall_clock_s:.2f}s")

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    lines = ["algorithm,accuracy,auc_roc,wall_clock_s"]
    lines += [f"{n},{a:.4f},{u:.4f},{w:.2f}" for n, a, u, w in rows]
    (outdir / "dense-benchmark.csv").write_text("\n".join(lines) + "\n")
    print(f"wrote {outdir / 'dense-benchmark.csv'}")


if __name__ == "__main__":
    main()
