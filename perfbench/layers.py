"""Which library functions the traced run wraps, and the per-layer metrics.

Each target names the layer its self time is charged to.  ``stage.*``
spans (the pipeline stages other than eval) and the benchmark's own
phase spans are containers: their self time is bookkeeping between
layers, and they give the *scope* a layer span ran in, so that e.g. the
encode-plan time of the eval stage is not charged to training.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, List

import numpy as np

#: span names that are not layers
STAGES = ("stage.data", "stage.graph", "stage.train", "stage.index",
          "stage.serve")
PROBE = "trace.probe"
#: loss calls between two tape-size probes
_PROBE_EVERY = 10


def _probe_tape(tracer, args, kwargs, loss) -> None:
    tracer.count("losses", 1)
    if tracer.counters[(tracer.root, "losses")] % _PROBE_EVERY == 1:
        with tracer.span(PROBE):
            nodes = loss.graph_size()
        tracer.count("tape_nodes", nodes)
        tracer.count("tape_probes", 1)


def _count_ivf(tracer, args, kwargs, result) -> None:
    tracer.count("ivf_keys", np.asarray(args[1]).size)
    tracer.count("ivf_results", result[0].size)


def _count_rerank(tracer, args, kwargs, result) -> None:
    valid = args[3] if len(args) > 3 else kwargs["valid"]
    tracer.count("rerank_pairs", int(np.count_nonzero(valid)))


def _count_keys(tracer, args, kwargs, results) -> None:
    tracer.count("gathered", len(results))
    tracer.count("keys", sum(r.num_keys for r in results))


def targets() -> List[tuple]:
    """``(owner, attribute, span name[, after hook])`` for ``Tracer.install``."""
    from repro import io
    from repro.autodiff.tensor import Tensor
    from repro.data.synthetic import SponsoredSearchSimulator
    from repro.graph.builder import GraphBuilder
    from repro.graph.metapath import MetaPathWalker
    from repro.graph.sampling import NegativeSampler
    from repro.models.amcad import AMCAD
    from repro.models.encoder import NodeEncoder
    from repro.pipeline import PipelineConfig, PipelineReport, stages
    from repro.pipeline.artifacts import ArtifactStore
    from repro.pipeline.core import Pipeline
    from repro.retrieval import ann
    from repro.retrieval.backend import ExactBackend
    from repro.retrieval.index import IndexSet
    from repro.retrieval.mnn import RelationSpace
    from repro.retrieval.two_layer import TwoLayerRetriever
    from repro.serving.admission import AdmissionController
    from repro.serving.engine import ServingEngine
    from repro.serving.traffic import TrafficGenerator
    from repro.training.optim import AdaGrad
    from repro.training.trainer import Trainer

    return [
        (stages.DataStage, "run", "stage.data"),
        (stages.GraphStage, "run", "stage.graph"),
        (stages.TrainStage, "run", "stage.train"),
        (stages.IndexStage, "run", "stage.index"),
        (stages.ServeStage, "run", "stage.serve"),
        (stages.EvalStage, "run", "eval"),
        # data, graph
        (SponsoredSearchSimulator, "__init__", "data.simulate"),
        (SponsoredSearchSimulator, "simulate_days", "data.simulate"),
        (GraphBuilder, "add_logs", "graph.build"),
        (GraphBuilder, "build", "graph.build"),
        # training
        (stages, "make_model", "train.init"),
        (Trainer, "__init__", "train.init"),
        (Trainer, "train_step", "train.step"),
        (MetaPathWalker, "sample_pair_blocks", "train.sample"),
        (NegativeSampler, "sample_arrays", "train.sample"),
        (NodeEncoder, "build_plan", "train.plan"),
        (AMCAD, "loss", "train.forward", _probe_tape),
        (Tensor, "backward", "train.backward"),
        (AdaGrad, "step", "train.optimiser"),
        (AMCAD, "constrain", "train.optimiser"),
        # index build
        (RelationSpace, "from_model", "index.embed"),
        (IndexSet, "build_one", "index.build"),
        (ExactBackend, "build", "index.exact"),
        (ExactBackend, "search", "index.exact"),
        (ann.IVFBackend, "build", "index.kmeans"),
        (ann.IVFBackend, "search", "index.coarse", _count_ivf),
        (ann, "candidate_dist", "index.rerank", _count_rerank),
        # artifacts
        (IndexSet, "save", "artifacts.save"),
        (io, "save_model", "artifacts.save"),
        (ArtifactStore, "save_config", "artifacts.save"),
        (ArtifactStore, "save_report", "artifacts.save"),
        (ArtifactStore, "publish_generation", "artifacts.publish"),
        (ArtifactStore, "verify_generation", "artifacts.verify"),
        (IndexSet, "load", "artifacts.load"),
        (PipelineConfig, "load", "artifacts.load"),
        (PipelineReport, "load", "artifacts.load"),
        # serving
        (TrafficGenerator, "drive", "traffic"),
        (TrafficGenerator, "generate", "traffic"),
        (Pipeline, "make_admission_controller", "admission"),
        (AdmissionController, "offer", "admission"),
        (AdmissionController, "drain", "admission"),
        (ServingEngine, "serve_batch", "engine"),
        (TwoLayerRetriever, "expand_keys_batch", "retrieval.expand"),
        (TwoLayerRetriever, "gather_batch", "retrieval.gather", _count_keys),
        (Pipeline, "hot_swap", "swap.load"),
        (ServingEngine, "swap_retriever", "swap.pause"),
    ]


#: per-layer metric -> (unit, better)
PER_LAYER = {
    "data.simulate_s": ("s", "lower"),
    "graph.build_s": ("s", "lower"),
    "graph.edges": ("count", "lower"),
    "train.sample_s": ("s", "lower"),
    "train.plan_s": ("s", "lower"),
    "train.forward_s": ("s", "lower"),
    "train.backward_s": ("s", "lower"),
    "train.optimiser_s": ("s", "lower"),
    "train.step_p50_ms": ("ms", "lower"),
    "train.tape_nodes_per_step": ("count", "lower"),
    "train.tail_loss": ("loss", "lower"),
    "index.embed_s": ("s", "lower"),
    "index.exact_s": ("s", "lower"),
    "index.kmeans_s": ("s", "lower"),
    "index.coarse_s": ("s", "lower"),
    "index.rerank_s": ("s", "lower"),
    "index.rerank_pairs_per_key": ("count", "lower"),
    "index.useful_ratio": ("ratio", "higher"),
    "artifacts.save_s": ("s", "lower"),
    "artifacts.publish_s": ("s", "lower"),
    "artifacts.bytes_written": ("bytes", "lower"),
    "artifacts.verify_s": ("s", "lower"),
    "artifacts.load_s": ("s", "lower"),
    "eval.s": ("s", "lower"),
    "admission.self_us_per_req": ("us", "lower"),
    "admission.wait_p50_ms": ("ms", "lower"),
    "admission.wait_p99_ms": ("ms", "lower"),
    "admission.batch_mean": ("count", "higher"),
    "admission.shed": ("count", "lower"),
    "engine.batch_p50_ms": ("ms", "lower"),
    "engine.batch_p99_ms": ("ms", "lower"),
    "engine.cache_hit_rate": ("ratio", "higher"),
    "engine.degraded": ("count", "lower"),
    "retrieval.expand_us_per_req": ("us", "lower"),
    "retrieval.gather_us_per_req": ("us", "lower"),
    "retrieval.keys_per_req": ("count", "lower"),
    "swap.load_s": ("s", "lower"),
    "swap.pause_ms": ("ms", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "trace.overhead": ("ratio", "lower"),
}


class _Spans:
    """Self and inclusive times grouped by (root, scope, name)."""

    def __init__(self, tracer):
        own = tracer.self_times()
        self.self = defaultdict(float)
        self.durations = defaultdict(list)
        roots: List[str] = []
        scopes: List[str] = []
        for i, (name, start, end, parent) in enumerate(tracer.spans):
            root = roots[parent] if parent >= 0 else name
            scope = (name if name in STAGES or name == "eval"
                     or parent < 0 else scopes[parent])
            roots.append(root)
            scopes.append(scope)
            self.self[(root, scope, name)] += own[i]
            self.durations[(root, scope, name)].append(end - start)
        self.wall = tracer.wall()
        self.layer_self = sum(
            own[i] for i, (name, _, _, parent) in enumerate(tracer.spans)
            if parent >= 0 and name not in STAGES and name != PROBE)

    def own(self, root: str, scope: str, name: str) -> float:
        return self.self[(root, scope, name)]

    def spans(self, root: str, scope: str, name: str) -> List[float]:
        return self.durations[(root, scope, name)]


def _percentile_ms(durations: List[float], q: float) -> float:
    return 1000.0 * float(np.percentile(durations, q)) if durations else 0.0


def derive(tracer, facts: Dict[str, Any], call_cost: float
           ) -> Dict[str, float]:
    """Every per-layer metric of one traced workload pass.

    ``call_cost`` is the measured extra seconds of one wrapped call;
    ``trace.overhead`` is the traced wall time over that time minus
    ``call_cost`` per recorded span.
    """
    s = _Spans(tracer)
    c = tracer.counters
    stages = facts["stages"]
    # refresh-side layers are reported per Pipeline.run
    runs = facts["refreshes"]

    def refresh(scope: str, name: str) -> float:
        return s.own("refresh", scope, name) / runs

    def train(name: str) -> float:
        return refresh("stage.train", name)

    def index(name: str) -> float:
        return refresh("stage.index", name)

    steps = s.spans("refresh", "stage.train", "train.step")
    nominal_offered = max(facts["nominal_offered"], 1)
    gathered = max(c[("nominal", "gathered")], 1)
    reps = facts["setup_reps"]
    swap_total = sum(s.spans("swap", "swap", "swap.load"))
    pause = sum(s.spans("swap", "swap", "swap.pause"))
    return {
        "data.simulate_s": refresh("stage.data", "data.simulate"),
        "graph.build_s": refresh("stage.graph", "graph.build"),
        "graph.edges": (stages["graph"]["train_edges"]
                        + stages["graph"]["eval_edges"]),
        "train.sample_s": train("train.sample"),
        "train.plan_s": train("train.plan"),
        "train.forward_s": train("train.forward"),
        "train.backward_s": train("train.backward"),
        "train.optimiser_s": train("train.optimiser"),
        "train.step_p50_ms": _percentile_ms(steps, 50),
        "train.tape_nodes_per_step": (c[("refresh", "tape_nodes")]
                                      / max(c[("refresh", "tape_probes")], 1)),
        "train.tail_loss": stages["train"]["mean_tail_loss"],
        "index.embed_s": index("index.embed"),
        "index.exact_s": index("index.exact"),
        "index.kmeans_s": index("index.kmeans"),
        "index.coarse_s": index("index.coarse"),
        "index.rerank_s": index("index.rerank"),
        "index.rerank_pairs_per_key": (c[("refresh", "rerank_pairs")]
                                       / max(c[("refresh", "ivf_keys")], 1)),
        "index.useful_ratio": (c[("refresh", "ivf_results")]
                               / max(c[("refresh", "rerank_pairs")], 1)),
        "artifacts.save_s": sum(refresh(scope, "artifacts.save")
                                for scope in ("refresh", "stage.train",
                                              "stage.index")),
        "artifacts.publish_s": refresh("refresh", "artifacts.publish"),
        "artifacts.bytes_written": facts["artifact_bytes"],
        "artifacts.verify_s": s.own("setup", "setup",
                                    "artifacts.verify") / reps,
        "artifacts.load_s": s.own("setup", "setup", "artifacts.load") / reps,
        "eval.s": sum(s.spans("refresh", "eval", "eval")) / runs,
        "admission.self_us_per_req": (
            1e6 * s.own("nominal", "nominal", "admission") / nominal_offered),
        "admission.wait_p50_ms": facts["nominal"]["wait_p50"],
        "admission.wait_p99_ms": facts["nominal"]["wait_p99"],
        "admission.batch_mean": facts["nominal"]["batch_mean"],
        "admission.shed": facts["high"]["shed"],
        "engine.batch_p50_ms": _percentile_ms(
            s.spans("nominal", "nominal", "engine"), 50),
        "engine.batch_p99_ms": _percentile_ms(
            s.spans("nominal", "nominal", "engine"), 99),
        "engine.cache_hit_rate": facts["cache_hit_rate"],
        "engine.degraded": facts["degraded_requests"],
        "retrieval.expand_us_per_req": (
            1e6 * s.own("nominal", "nominal", "retrieval.expand") / gathered),
        "retrieval.gather_us_per_req": (
            1e6 * s.own("nominal", "nominal", "retrieval.gather") / gathered),
        "retrieval.keys_per_req": c[("nominal", "keys")] / gathered,
        "swap.load_s": swap_total - pause,
        "swap.pause_ms": 1000.0 * pause,
        "trace.coverage": s.layer_self / s.wall,
        "trace.overhead": s.wall / (s.wall
                                    - call_cost * len(tracer.spans)),
    }


def table(tracer) -> List[tuple]:
    """``(root, layer, self seconds, calls)`` rows, largest first."""
    s = _Spans(tracer)
    rows = defaultdict(lambda: [0.0, 0])
    for (root, scope, name), total in s.self.items():
        row = rows[(root, name)]
        row[0] += total
        row[1] += len(s.spans(root, scope, name))
    return sorted(((root, name, total, calls)
                   for (root, name), (total, calls) in rows.items()),
                  key=lambda row: -row[2])
