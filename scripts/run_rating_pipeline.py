"""Movie-rating regression end to end: clean, impute, featurize, boost.

Builds a small synthetic movie table with missing ratings, currency
strings, and free text, then runs the full preparation pipeline and
cross-validates the gradient-boosted tree regressor on the hashed
text + numeric features.

Usage: python3 scripts/run_rating_pipeline.py [--rows 400]
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from deskbench import dataio, evaluation, gbt, prep, textfeat

GENRES = ("Drama", "Comedy", "War", "Scifi", "Romance")
DIRECTORS = ("Jones", "Smith", "Lee", "Nguyen", "Garcia", "Okafor")
WORDS = ("love", "battle", "family", "journey", "secret", "laugh", "city",
         "night", "quiet", "storm", "letter", "return", "lost", "found")


def synth_movies(rows, seed):
    """Ratings correlate with director skill and description word choice."""
    rng = np.random.default_rng(seed)
    skill = {d: rng.uniform(4.0, 9.0) for d in DIRECTORS}
    table = [("title", "text"), ("rating", "number"), ("director", "text"),
             ("genre", "text"), ("year", "number"), ("gross", "text"),
             ("description", "text")]
    cells = []
    for i in range(rows):
        director = DIRECTORS[rng.integers(len(DIRECTORS))]
        genre = GENRES[rng.integers(len(GENRES))]
        rating = float(np.clip(skill[director] + rng.normal(0, 0.7), 1.0, 10.0))
        year = float(rng.integers(1960, 2023))
        gross = f"${rng.integers(1, 300) * 100000:,}"
        desc = " ".join(rng.choice(WORDS, size=8))
        missing = rng.random() < 0.15  # sparse targets drive the imputation stage
        cells.append([f"movie-{i}", None if missing else rating, director,
                      genre, year, gross, desc])
    return dataio.TabularFrame(table, cells)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--rows", type=int, default=400)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dim", type=int, default=256)
    parser.add_argument("--outdir", default="rating-pipeline-out")
    args = parser.parse_args()

    frame = synth_movies(args.rows, args.seed)
    missing = sum(1 for v in frame.column("rating") if v is None)
    print(f"{frame.num_rows} movies, {missing} missing ratings")

    frame = dataio.clean_currency(frame, ["gross"])
    plan = prep.impute_fit(frame, "rating", ("director", "genre"))
    frame = prep.impute_apply(frame, plan)
    frame = prep.normalize_year(frame, "year")
    print(f"imputed via {len(plan.group_means)} context columns, "
          f"global mean {plan.global_mean:.2f}")

    features, idf = textfeat.feature_matrix(
        frame, ("genre", "director", "description"), ("gross", "year"), None,
        args.dim, min_doc_freq=2)
    labels = np.array([float(v) for v in frame.column("rating")])
    ds = dataio.DenseDataset(labels, features)
    print(f"feature matrix {ds.features.shape}, "
          f"{int(np.count_nonzero(idf.idf))} active idf slots")

    cfg = gbt.GbtConfig(max_depth=4, eta=0.1, num_round=60,
                        min_child_weight=2.0, seed=args.seed)
    trainer = gbt.make_trainer(cfg)
    reports, avg = evaluation.kfold_cv(ds, 5, trainer, args.seed)
    for i, rep in enumerate(reports):
        print(f"fold {i}: rmse {rep.rmse:.3f}  mae {rep.mae:.3f}")
    print(f"average: rmse {avg.rmse:.3f}  mae {avg.mae:.3f}  r2 {avg.r2:.3f}")

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    dataio.save_dense(ds, outdir / "features.csv")
    rows = [(f"fold-{i}", "gbt", i, rep) for i, rep in enumerate(reports)]
    rows.append(("cv-average", "gbt", None, avg))
    evaluation.save_report_csv(outdir / "rating-cv.csv", rows)
    print(f"wrote {outdir / 'rating-cv.csv'}")


if __name__ == "__main__":
    main()
