"""The benchmark's three workloads and the checks on their outputs.

Every workload runs the same lifecycle through the public pipeline
entry points, so every end-to-end metric is measured on every workload:

1. ``refresh``: ``Pipeline.run`` publishes a generation (the offline
   job of paper §IV-C-1); its eval stage gives the quality numbers.
2. Output checks on the built indices (outside any timed region).
3. A serving session over the published generation (§IV-C-2):
   ``Pipeline.from_artifacts`` plus engine warm-up, nominal open-loop
   drives, a ``hot_swap``, a rate ladder and an overload rung, then a
   check that served results equal a direct ``retrieve_batch``.

The workloads differ in what dominates: ``refresh_default`` is the
shipped config and is train-bound, ``refresh_catalog`` is a 4x catalog
with an IVF index and is index-bound, and ``serve_zipf`` runs two short
refreshes (two generations), so its work is mostly serving and its swap
moves onto a different generation.

The refresh inputs are the shipped config's own (``data.seed`` and the
model and training seeds stay at their defaults), so quality numbers
are reproducible run to run; ``--seed`` draws the request streams and
the sampled check keys.
"""

from __future__ import annotations

import gc
import os
import pathlib
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

import numpy as np

from repro.geometry import kernels
from repro.pipeline import Pipeline, PipelineConfig
from repro.retrieval import ExactBackend
from repro.retrieval.quantization import recall_at_k
from repro.serving.traffic import TrafficGenerator

#: the cache-filling warm-up drive offers ~5000 requests at a rate a
#: cold cache sustains too
WARM_QPS, WARM_SECONDS = 2000.0, 2.5
#: virtual seconds per nominal drive
DRIVE_SECONDS = 1.0
#: ladder rungs above the nominal rate, 5% apart (finer than the
#: max_qps_at_slo bound), and virtual seconds per ladder drive: long
#: enough that the requests one host stall sheds stay under 1%
LADDER_STEP, LADDER_RUNGS = 1.05, 29
LADDER_SECONDS = 2.0
#: overload rung: about 3x capacity on every workload, so the share the
#: admission layer refuses is never 0 and moves less than capacity does
HIGH_QPS = 30000.0
HIGH_SECONDS = 0.5
HIGH_REPEATS = 3
#: a rung meets the SLO when at most this share of offered requests
#: misses it (is shed)
SLO_MISS_MAX = 0.01
#: sampled keys per relation for the exact-match and recall checks
CHECK_KEYS = 64
RECALL_KEYS = 256

_CATALOG = ["data.simulator.num_queries=4800", "data.simulator.num_items=7200",
            "data.simulator.num_ads=1600", "data.simulator.num_users=2400",
            "training.steps=20", "index.backend=ivf", "index.rerank_k=100"]

#: name -> (overrides of the refresh, overrides of a second generation
#: published before serving or None, nominal offered rate).  The nominal
#: rate is under half the workload's capacity, so batches fill (32 in
#: 8-11 ms) and a host stall rarely sheds; the 4x catalog lowers the
#: cache hit rate and with it the capacity.
WORKLOADS = {
    "refresh_default": ([], None, 4000.0),
    "refresh_catalog": (_CATALOG, None, 3000.0),
    "serve_zipf": (["training.steps=20"], ["training.steps=20",
                                           "model.seed=1"], 4000.0),
}

_SETUP_SNIPPET = """
import sys, time
start = time.perf_counter()
from repro.geometry import kernels
from repro.pipeline import Pipeline, PipelineConfig
config = PipelineConfig().with_overrides(sys.argv[2:])
if kernels.resolve_mode(config.model.kernels) == "compiled":
    kernels.warmup()
Pipeline(config, artifact_dir=sys.argv[1])
print(time.perf_counter() - start)
"""


def make_config(overrides: List[str]) -> PipelineConfig:
    return PipelineConfig().with_overrides(["serving.enabled=false"]
                                           + overrides)


class Tally:
    """Operations attempted and failed; ``wrong`` names failed checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.wrong: List[str] = []

    def add(self, attempted: int, failed: int, what: str,
            check: bool = False) -> None:
        self.attempted += int(attempted)
        self.failed += int(failed)
        if failed:
            problem = "%s: %d of %d failed" % (what, failed, attempted)
            self.problems.append(problem)
            if check:
                self.wrong.append(problem)


def _setup_refresh(overrides: List[str], artifact_dir: pathlib.Path):
    """Config validation, ``Pipeline`` construction and kernel warm-up."""
    start = time.perf_counter()
    config = make_config(overrides)
    if kernels.resolve_mode(config.model.kernels) == "compiled":
        kernels.warmup()
    pipeline = Pipeline(config, artifact_dir=str(artifact_dir))
    return pipeline, time.perf_counter() - start


def _setup_in_fresh_process(overrides: List[str], src: pathlib.Path,
                            artifact_dir: pathlib.Path) -> float:
    """Imports + refresh set-up as a new process pays them, in seconds."""
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", _SETUP_SNIPPET, str(artifact_dir)]
        + ["serving.enabled=false"] + overrides,
        env=env, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


# -- output checks -----------------------------------------------------------

def check_indices(index_set, exact: bool, rng: np.random.Generator,
                  tally: Tally) -> float:
    """Row invariants, exact-backend parity and recall@10; returns recall.

    Every row must hold ids in range, non-decreasing finite distances
    and, for same-type relations, no self-hit.  On sampled keys, the
    indices of an exact build must equal a fresh ``ExactBackend``
    search; recall@10 against that search is the ``ann_recall10``
    metric (1.0 for an exact build).
    """
    recalls = []
    for relation, index in sorted(index_set.indices.items(),
                                  key=lambda item: item[0].value):
        space = index_set.spaces[relation]
        same = relation.source_type == relation.target_type
        ids, dists = index.ids, index.distances
        rows = np.arange(ids.shape[0])[:, None]
        bad = ((ids < 0) | (ids >= space.num_targets)).any(axis=1)
        bad |= ~np.isfinite(dists).all(axis=1)
        bad |= (np.diff(dists, axis=1) < 0).any(axis=1)
        if same:
            bad |= (ids == rows).any(axis=1)
        tally.add(ids.shape[0], int(bad.sum()),
                  "%s index rows" % relation.value, check=True)

        width = ids.shape[1]
        keys = rng.choice(space.num_sources,
                          size=min(RECALL_KEYS, space.num_sources),
                          replace=False)
        truth_ids, truth_dists = ExactBackend().build(space).search(
            keys, width, exclude_self=same)
        recalls.append(recall_at_k(ids[keys], truth_ids, min(10, width)))
        if exact:
            sample = slice(0, CHECK_KEYS)
            mismatch = ~((ids[keys[sample]] == truth_ids[sample]).all(axis=1)
                         & np.isclose(dists[keys[sample]],
                                      truth_dists[sample], rtol=1e-12,
                                      atol=0.0).all(axis=1))
            tally.add(min(CHECK_KEYS, keys.size), int(mismatch.sum()),
                      "%s exact parity" % relation.value, check=True)
    return float(np.mean(recalls))


def check_served(pipeline: Pipeline, controller, k: int,
                 tally: Tally) -> None:
    """Served results must equal a direct ``retrieve_batch`` on them."""
    served = controller.results
    if not served:
        tally.add(1, 1, "served-vs-direct (nothing served)", check=True)
        return
    requests = [request for request, _ in served]
    direct = pipeline.retriever.retrieve_batch(
        [r.query for r in requests], [r.preclicks for r in requests], k=k)
    mismatched = sum(
        1 for (_, got), want in zip(served, direct)
        if got is None or not (np.array_equal(got.ads, want.ads)
                               and np.allclose(got.scores, want.scores,
                                               rtol=1e-12, atol=0.0)))
    tally.add(len(served), mismatched, "served-vs-direct results",
              check=True)


# -- the serving session -------------------------------------------------------

class _Drives:
    """Fresh controller per drive, seeded request streams."""

    def __init__(self, pipeline: Pipeline, traffic: TrafficGenerator,
                 seed: int):
        self.pipeline = pipeline
        self.traffic = traffic
        self._next_seed = seed * 1000

    def __call__(self, qps: float, seconds: float, keep: bool = False):
        controller = self.pipeline.make_admission_controller(
            keep_results=keep)
        self._next_seed += 1
        start = time.perf_counter()
        report = self.traffic.drive(controller, qps=qps, duration=seconds,
                                    seed=self._next_seed)
        return report, time.perf_counter() - start, controller


def _miss_rate(report) -> float:
    # served requests never wait past the admission deadline (it is the
    # latency limit), so the ones that would have missed it were shed
    return report.shed / max(report.offered, 1)


def serve_session(artifact_dir: pathlib.Path, logs, train_days: int,
                  seed: int, seconds: float, nominal_qps: float,
                  setup_reps: int, tracer, tally: Tally) -> Dict[str, Any]:
    """Set-up, warm-up, nominal, swap, ladder, overload and check drives."""
    facts: Dict[str, Any] = {}
    traffic = TrafficGenerator(logs[:train_days], seed=seed)
    warm = traffic.generate(WARM_QPS, 0.02, seed=seed)
    setup = []
    for _ in range(setup_reps):
        with tracer.span("setup", root=True):
            start = time.perf_counter()
            pipeline = Pipeline.from_artifacts(artifact_dir)
            pipeline.engine
            pipeline.retriever.retrieve_batch(
                [r.query for r in warm], [r.preclicks for r in warm],
                k=pipeline.config.serving.k)
            setup.append(time.perf_counter() - start)
    facts["serve_setup_s"] = statistics.median(setup)
    facts["setup_reps"] = setup_reps
    drive = _Drives(pipeline, traffic, seed)
    # this process also holds the refresh's objects and the traffic
    # population, which a serving process would not; frozen, full
    # collections skip them instead of stalling a batch long enough to
    # shed requests
    gc.collect()
    gc.freeze()
    try:
        _serve_phases(pipeline, drive, seconds, nominal_qps, tracer, tally,
                      facts)
    finally:
        gc.unfreeze()
        pipeline.engine.close()
    return facts


def _serve_phases(pipeline: Pipeline, drive: _Drives, seconds: float,
                  nominal_qps: float, tracer, tally: Tally,
                  facts: Dict[str, Any]) -> None:
    engine_stats = pipeline.engine.stats

    with tracer.span("warm", root=True):
        report, _, _ = drive(WARM_QPS, WARM_SECONDS)
    tally.add(report.offered, report.shed, "warm-up drive")

    nominal: Dict[str, List[float]] = {key: [] for key in (
        "p50", "p99", "us_per_req", "wait_p50", "wait_p99", "batch_mean")}
    hits = engine_stats.cache_hits
    misses = engine_stats.cache_misses
    offered = 0
    for _ in range(max(3, int(round(seconds / DRIVE_SECONDS)))):
        with tracer.span("nominal", root=True):
            report, wall, _ = drive(nominal_qps, DRIVE_SECONDS)
        tally.add(report.offered, report.shed, "nominal drive")
        offered += report.offered
        nominal["p50"].append(report.latency_ms["p50"])
        nominal["p99"].append(report.latency_ms["p99"])
        nominal["us_per_req"].append(1e6 * wall / report.offered)
        nominal["wait_p50"].append(report.wait_ms["p50"])
        nominal["wait_p99"].append(report.wait_ms["p99"])
        nominal["batch_mean"].append(report.mean_batch_size)
    facts["nominal"] = {key: statistics.median(values)
                        for key, values in nominal.items()}
    facts["nominal_offered"] = offered
    looked_up = (engine_stats.cache_hits - hits
                 + engine_stats.cache_misses - misses)
    facts["cache_hit_rate"] = ((engine_stats.cache_hits - hits)
                               / max(looked_up, 1))

    with tracer.span("swap", root=True):
        pipeline.hot_swap()
    tally.add(1, 0, "hot swap")

    # bisection over the fixed ladder for the highest rung meeting the
    # SLO; the lowest rung is the nominal rate, well below capacity
    ladder = [int(round(nominal_qps * LADDER_STEP ** i))
              for i in range(LADDER_RUNGS)]
    lo, hi = -1, len(ladder)
    rungs = {}
    while hi - lo > 1:
        mid = (lo + hi) // 2
        with tracer.span("ladder", root=True):
            report, _, _ = drive(ladder[mid], LADDER_SECONDS)
        rungs[ladder[mid]] = _miss_rate(report)
        if _miss_rate(report) <= SLO_MISS_MAX:
            lo = mid
        else:
            hi = mid
    facts["ladder"] = rungs
    facts["max_qps_at_slo"] = float(ladder[lo]) if lo >= 0 else 0.0

    high_miss, high_p99, high_shed = [], [], []
    for _ in range(HIGH_REPEATS):
        with tracer.span("high", root=True):
            report, _, _ = drive(HIGH_QPS, HIGH_SECONDS)
        high_miss.append(_miss_rate(report))
        high_p99.append(report.latency_ms["p99"])
        high_shed.append(report.shed)
    facts["high"] = {"slo_miss_rate": statistics.median(high_miss),
                     "p99": statistics.median(high_p99),
                     "shed": statistics.median(high_shed)}

    report, _, controller = drive(nominal_qps, 0.2, keep=True)
    tally.add(report.offered, report.shed, "check drive")
    check_served(pipeline, controller, pipeline.config.serving.k, tally)
    # a degraded request got an empty result after its retries ran out
    facts["degraded_requests"] = engine_stats.degraded_requests
    tally.add(engine_stats.requests, engine_stats.degraded_requests,
              "engine requests served degraded")


# -- the lifecycle ---------------------------------------------------------------

def _tree_bytes(root: pathlib.Path) -> int:
    return sum(path.stat().st_size for path in root.rglob("*")
               if path.is_file())


def run_workload(name: str, seed: int, seconds: float, workdir: pathlib.Path,
                 src: pathlib.Path, import_s: float, tracer) -> Dict[str, Any]:
    """One pass of a workload; returns its facts (timings, reports, ...)."""
    overrides, second, nominal_qps = WORKLOADS[name]
    rng = np.random.default_rng(seed)
    tally = Tally()
    facts: Dict[str, Any] = {}
    artifacts = workdir / "artifacts"

    pipeline, construct_s = _setup_refresh(overrides, artifacts)
    samples = [import_s + construct_s]
    if name != "serve_zipf":
        for rep in range(2):
            samples.append(_setup_in_fresh_process(
                overrides, src, workdir / ("setup-%d" % rep)))
    facts["refresh_setup_s"] = statistics.median(samples)

    walls = []
    with tracer.span("refresh", root=True):
        start = time.perf_counter()
        report = pipeline.run()
        walls.append(time.perf_counter() - start)
    tally.add(len(report.stages), 0, "pipeline stages")
    stages = {stage.name: stage.info for stage in report.stages}
    facts["stages"] = stages
    facts["ann_recall10"] = check_indices(
        pipeline.ctx.index_set, pipeline.config.index.backend == "exact",
        rng, tally)
    logs = pipeline.ctx.logs
    train_days = pipeline.config.data.train_days

    if second is not None:
        with tracer.span("refresh", root=True):
            start = time.perf_counter()
            extra = Pipeline(make_config(second),
                             artifact_dir=str(artifacts)).run()
            walls.append(time.perf_counter() - start)
        tally.add(len(extra.stages), 0, "second-generation stages")
    del pipeline
    facts["refresh_s"] = statistics.mean(walls)
    facts["refreshes"] = len(walls)
    facts["artifact_bytes"] = _tree_bytes(artifacts) / len(walls)

    facts.update(serve_session(
        artifacts, logs, train_days, seed, seconds, nominal_qps,
        setup_reps=5 if name == "serve_zipf" else 1,
        tracer=tracer, tally=tally))
    facts["setup_s"] = (facts["serve_setup_s"] if name == "serve_zipf"
                        else facts["refresh_setup_s"])
    facts["tally"] = tally
    return facts


#: end-to-end metric -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "refresh_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "next_auc": ("pct", "higher"),
    "q2i_hr10": ("pct", "higher"),
    "q2a_hr10": ("pct", "higher"),
    "ann_recall10": ("ratio", "higher"),
    "serve_p50_ms": ("ms", "lower"),
    "serve_p99_ms": ("ms", "lower"),
    "serve_p99_ms.high": ("ms", "lower"),
    "slo_miss_rate": ("ratio", "lower"),
    "max_qps_at_slo": ("1/s", "higher"),
    "serve_wall_us_per_req": ("us", "lower"),
}


def end_to_end(facts: Dict[str, Any], peak_rss_mb: float) -> Dict[str, float]:
    evaluation = facts["stages"]["eval"]
    return {
        "setup_s": facts["setup_s"],
        "refresh_s": facts["refresh_s"],
        "peak_rss_mb": peak_rss_mb,
        "next_auc": evaluation["next_auc"],
        "q2i_hr10": evaluation["q2i"]["hr@10"],
        "q2a_hr10": evaluation["q2a"]["hr@10"],
        "ann_recall10": facts["ann_recall10"],
        "serve_p50_ms": facts["nominal"]["p50"],
        "serve_p99_ms": facts["nominal"]["p99"],
        "serve_p99_ms.high": facts["high"]["p99"],
        "slo_miss_rate": facts["high"]["slo_miss_rate"],
        "max_qps_at_slo": facts["max_qps_at_slo"],
        "serve_wall_us_per_req": facts["nominal"]["us_per_req"],
    }
