"""Master-worker distributed training over a length-prefixed TCP protocol."""

from .bench import LocalBenchResult, bench_compare, render_comparison_csv, run_local_bench
from .codec import ALGO_CODES
from .master import BenchRecord, ClusterSpec, run_master
from .worker import run_worker

__all__ = [
    "ALGO_CODES", "BenchRecord", "ClusterSpec", "LocalBenchResult", "bench_compare",
    "render_comparison_csv", "run_local_bench", "run_master", "run_worker",
]
