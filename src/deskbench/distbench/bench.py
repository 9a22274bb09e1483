"""Local-vs-distributed benchmark runs and the comparison table.

The local benchmark replays the exact distributed schedule on one
process: the same per-round generators and the worker's local_epoch,
one linmodels.sgd_epoch pass per round, so a single-worker cluster and
the local run are the same computation and serve as each other's oracle.
"""

import time
from dataclasses import dataclass

import numpy as np

from ..dataio import DenseDataset
from ..errors import ConfigError, DataFormatError
from ..evaluation import auc_roc
from ..linmodels import LinearModel, SgdConfig, _require_binary, decision_scores
from .codec import ALGO_CODES
from .master import BenchRecord
from .worker import epoch_rng, local_epoch

COMPARISON_COLUMNS = ("algorithm", "mode", "wall_clock_s", "auc_roc", "speedup")
COMPARISON_NOTE = ("# linear models only: tree ensembles are benchmarked "
                   "locally and do not travel the wire")


@dataclass
class LocalBenchResult:
    """Timing and quality of a single-node benchmark run."""

    algo: str
    manifest: str
    rounds: int
    wall_clock_s: float
    auc_roc: float | None = None


def local_train_rounds(ds: DenseDataset, algo: str, cfg: SgdConfig, rounds: int,
                       worker_id: int = 1) -> LinearModel:
    """Train locally with the distributed round schedule.

    Round r runs one local epoch seeded by (cfg.seed, worker_id, r),
    exactly what a lone worker with that id would compute. Labels must
    be 0/1, as a worker requires of its part.
    """
    if algo not in ALGO_CODES:
        raise ConfigError(f"algo must be one of {sorted(ALGO_CODES)}")
    if rounds < 1:
        raise ConfigError("rounds must be >= 1")
    _require_binary(ds)
    w = np.zeros(ds.num_features, dtype=np.float64)
    b = 0.0
    for round_ in range(rounds):
        rng = epoch_rng(cfg.seed, worker_id, round_)
        w, b = local_epoch(algo, w, b, ds.features, ds.labels,
                           cfg.lambda_, cfg.learning_rate, rng)
    return LinearModel(weights=w, bias=b, kind=algo)


def run_local_bench(ds: DenseDataset, algo: str, cfg: SgdConfig, rounds: int,
                    holdout=None, manifest: str = ""):
    """Time local_train_rounds as worker 1; returns (model, LocalBenchResult)."""
    start = time.perf_counter()
    model = local_train_rounds(ds, algo, cfg, rounds)
    elapsed = time.perf_counter() - start
    auc = None
    if holdout is not None:
        auc = auc_roc(holdout.labels, decision_scores(model, holdout))
    return model, LocalBenchResult(algo, manifest, rounds, elapsed, auc)


def bench_compare(local: LocalBenchResult, dist: BenchRecord) -> list:
    """Build the two comparison rows from matching local/distributed runs.

    Both time the training rounds alone: the local wall_clock_s against the
    distributed sum(round_wall_clock_s). The speedup is None when that is 0.
    """
    if local.algo != dist.algo:
        raise DataFormatError(f"algorithm mismatch: {local.algo!r} vs {dist.algo!r}")
    if local.manifest != dist.manifest:
        raise DataFormatError(f"manifest mismatch: {local.manifest!r} vs {dist.manifest!r}")
    dist_train_s = sum(dist.round_wall_clock_s)
    speedup = local.wall_clock_s / dist_train_s if dist_train_s > 0 else None
    return [
        {"algorithm": local.algo, "mode": "local",
         "wall_clock_s": local.wall_clock_s, "auc_roc": local.auc_roc,
         "speedup": None},
        {"algorithm": dist.algo, "mode": "distributed",
         "wall_clock_s": dist_train_s, "auc_roc": dist.holdout_auc,
         "speedup": speedup},
    ]


def render_comparison_csv(rows) -> str:
    """CSV with wall clock to 2 decimals and AUC to 4, plus a scope note."""
    lines = [",".join(COMPARISON_COLUMNS)]
    for row in rows:
        auc = "" if row["auc_roc"] is None else f"{row['auc_roc']:.4f}"
        speedup = "" if row["speedup"] is None else f"{row['speedup']:.2f}"
        lines.append(f"{row['algorithm']},{row['mode']},"
                     f"{row['wall_clock_s']:.2f},{auc},{speedup}")
    lines.append(COMPARISON_NOTE)
    return "\n".join(lines) + "\n"
