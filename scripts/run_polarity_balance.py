"""Rebalance an imbalanced polarity corpus: rings down, synonyms up.

Builds a five-class review corpus with a strong majority skew, then
ring-undersamples the oversized classes on a hashed TF-IDF embedding
and synonym-augments the undersized ones, printing class reports
before and after.

Usage: python3 scripts/run_polarity_balance.py [--target 300]
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from deskbench import prep

TEMPLATES = {
    "1": ("terrible awful broken useless waste", "sadly a bad buy"),
    "2": ("poor weak disappointing slow", "not a good sign"),
    "3": ("okay average fine decent", "it does the job"),
    "4": ("good solid pleasant happy", "quite a nice find"),
    "5": ("great excellent wonderful fantastic love", "a very happy buy"),
}
SKEW = {"1": 40, "2": 80, "3": 200, "4": 700, "5": 1400}


def synth_reviews(seed):
    rng = np.random.default_rng(seed)
    texts, labels = [], []
    for label, count in SKEW.items():
        vocab, tail = TEMPLATES[label]
        words = vocab.split()
        for i in range(count):
            body = " ".join(rng.choice(words, size=5))
            texts.append(f"{body} {tail} number {i}")
            labels.append(label)
    return texts, labels


def show(title, report):
    print(f"\n{title} (total {report.total})")
    for label, count in report.counts:
        print(f"  {label}: {count}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--target", type=int, default=300)
    parser.add_argument("--factor", type=int, default=3)
    parser.add_argument("--rings", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--outdir", default="polarity-balance-out")
    args = parser.parse_args()

    texts, labels = synth_reviews(args.seed)
    before = prep.class_report(labels)
    show("before", before)

    out, failures = prep.rebalance(texts, labels, args.target, args.factor, args.rings,
                                   args.seed, dim=512, min_doc_freq=1)
    after = prep.class_report([label for _, label in out])
    show("after", after)
    print(f"\naugment failures: {failures}")

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "class-report-before.csv").write_text(before.to_csv())
    (outdir / "class-report-after.csv").write_text(after.to_csv())
    print(f"wrote {outdir / 'class-report-after.csv'}")


if __name__ == "__main__":
    main()
