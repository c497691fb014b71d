"""Behaviour-log → heterogeneous-graph construction (paper §IV-A-1, Fig. 4).

Four edge channels:

- **clicking** — query → each clicked item/ad of its sessions;
- **co-clicking** — adjacent clicked item/ad nodes within a session,
  plus query-query co-search edges between a user's consecutive
  sessions (behavioural edges for popular nodes);
- **semantic similarity** — query pairs whose term Jaccard similarity
  exceeds a threshold (cold-start help for behaviour-sparse nodes);
- **co-bidding** — ad pairs sharing at least one bid keyword.

All channels produce symmetric (both-direction) edges; click/co-click
weights are interaction counts.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from typing import TYPE_CHECKING

from repro.common import PAD
from repro.graph.hetgraph import HetGraph
from repro.graph.schema import EdgeType, NodeType

if TYPE_CHECKING:  # avoid a circular import at runtime
    from repro.data.logs import BehaviorLog
    from repro.data.universe import Universe

#: terms held by more rows than this are too generic to be informative
#: and pair no rows (semantic and co-bid edges alike)
_MAX_TERM_ROWS = 200


class GraphBuilder:
    """Accumulates edges from logs over a :class:`Universe`."""

    def __init__(self, universe: "Universe", semantic_threshold: float = 0.4,
                 max_semantic_degree: int = 20):
        self.universe = universe
        self.semantic_threshold = float(semantic_threshold)
        self.max_semantic_degree = int(max_semantic_degree)
        self._click: Dict[Tuple[NodeType, int, int], float] = defaultdict(float)
        self._co_click: Dict[Tuple[NodeType, int, NodeType, int], float] = defaultdict(float)
        self._co_search: Dict[Tuple[int, int], float] = defaultdict(float)

    # -- behavioural edges ---------------------------------------------------

    def add_log(self, log: "BehaviorLog") -> "GraphBuilder":
        """Accumulate clicking / co-clicking edges from one daily log."""
        for session in log:
            query = session.query
            for ref in session.clicks:
                self._click[(ref.node_type, query, ref.index)] += 1.0
            for first, second in zip(session.clicks, session.clicks[1:]):
                key = (first.node_type, first.index, second.node_type, second.index)
                if (first.node_type, first.index) != (second.node_type, second.index):
                    self._co_click[key] += 1.0
        for run in log.user_session_runs():
            for first, second in zip(run, run[1:]):
                if first.query != second.query:
                    pair = (min(first.query, second.query),
                            max(first.query, second.query))
                    self._co_search[pair] += 1.0
        return self

    def add_logs(self, logs: Iterable["BehaviorLog"]) -> "GraphBuilder":
        for log in logs:
            self.add_log(log)
        return self

    # -- non-behavioural edges -------------------------------------------------

    def _semantic_pairs(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Query pairs with term-Jaccard above threshold.

        Overlaps come from the inverted term lists
        (:func:`_shared_term_pairs`), so the cost is proportional to the
        number of co-occurring pairs, not |Q|².  Degree is capped to the strongest
        ``max_semantic_degree`` matches per query (Jaccard descending,
        then partner id descending) so dense term clusters do not blow
        up the edge count.
        """
        a, b, inter, sizes = _shared_term_pairs(self.universe.queries.terms)
        jaccard = inter / (sizes[a] + sizes[b] - inter)
        keep = jaccard >= self.semantic_threshold
        a, b, jaccard = a[keep], b[keep], jaccard[keep]
        # each match is a candidate edge of both endpoints
        src = np.concatenate([a, b])
        dst = np.concatenate([b, a])
        weight = np.concatenate([jaccard, jaccard])
        order = np.lexsort((-dst, -weight, src))
        src, dst, weight = src[order], dst[order], weight[order]
        first = np.searchsorted(src, src, side="left")
        top = np.arange(src.size) - first < self.max_semantic_degree
        return src[top], dst[top], weight[top]

    def _co_bid_pairs(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Ad pairs sharing at least one bid keyword."""
        a, b, shared, _ = _shared_term_pairs(self.universe.ads.bid_words)
        return a, b, shared.astype(np.float64)

    # -- finalisation -----------------------------------------------------------

    def build(self) -> HetGraph:
        """Materialise the heterogeneous graph."""
        universe = self.universe
        graph = HetGraph(universe.num_nodes(), universe.categories(),
                         universe.features(), universe.category_tree)

        # clicking edges (query <-> item/ad)
        for target_type in (NodeType.ITEM, NodeType.AD):
            entries = [(q, d, w) for (t, q, d), w in self._click.items()
                       if t == target_type]
            if entries:
                q, d, w = (np.asarray(col) for col in zip(*entries))
                graph.add_edges(NodeType.QUERY, EdgeType.CLICK, target_type,
                                q, d, w, symmetric=True)

        # co-clicking edges (item/ad <-> item/ad, all type combinations)
        grouped: Dict[Tuple[NodeType, NodeType], List[Tuple[int, int, float]]] = defaultdict(list)
        for (t1, i1, t2, i2), w in self._co_click.items():
            grouped[(t1, t2)].append((i1, i2, w))
        for (t1, t2), entries in grouped.items():
            s, d, w = (np.asarray(col) for col in zip(*entries))
            graph.add_edges(t1, EdgeType.CO_CLICK, t2, s, d, w, symmetric=True)

        # query co-search edges (behavioural q-q, used by Table III's
        # first meta-path)
        if self._co_search:
            entries = [(a, b, w) for (a, b), w in self._co_search.items()]
            a, b, w = (np.asarray(col) for col in zip(*entries))
            graph.add_edges(NodeType.QUERY, EdgeType.CO_CLICK, NodeType.QUERY,
                            a, b, w, symmetric=True)

        # semantic similarity edges (q-q)
        src, dst, weight = self._semantic_pairs()
        if src.size:
            graph.add_edges(NodeType.QUERY, EdgeType.SEMANTIC, NodeType.QUERY,
                            src, dst, weight, symmetric=True)

        # co-bidding edges (a-a)
        src, dst, weight = self._co_bid_pairs()
        if src.size:
            graph.add_edges(NodeType.AD, EdgeType.CO_BID, NodeType.AD,
                            src, dst, weight, symmetric=True)
        return graph


def _shared_term_pairs(rows: np.ndarray
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                  np.ndarray]:
    """Row pairs that share informative terms, from the inverted lists.

    ``rows`` is an ``(n, slots)`` PAD-filled term table.  Returns
    ``(a, b, shared, sizes)``: every pair ``a < b`` of rows sharing at
    least one term held by 2 to ``_MAX_TERM_ROWS`` rows, the number of
    such shared terms, and each row's count of distinct terms.
    """
    n, slots = rows.shape
    term = rows.ravel()
    row = np.repeat(np.arange(n, dtype=np.int64), slots)
    valid = term != PAD
    # distinct (term, row) incidences, sorted by term then row
    incidence = np.unique(term[valid] * n + row[valid])
    term, row = incidence // n, incidence % n
    sizes = np.bincount(row, minlength=n)
    starts = np.flatnonzero(np.r_[True, term[1:] != term[:-1]])
    holders = np.diff(np.r_[starts, term.size])
    informative = (holders >= 2) & (holders <= _MAX_TERM_ROWS)
    # each incidence pairs with the later rows of its term's list
    position = np.arange(term.size) - np.repeat(starts, holders)
    later = np.where(np.repeat(informative, holders),
                     np.repeat(holders, holders) - 1 - position, 0)
    left = np.repeat(np.arange(term.size), later)
    right = (left + 1 + np.arange(left.size)
             - np.repeat(np.cumsum(later) - later, later))
    pairs, shared = np.unique(row[left] * n + row[right], return_counts=True)
    return pairs // n, pairs % n, shared, sizes


def build_graph(universe: "Universe", logs: Sequence["BehaviorLog"],
                semantic_threshold: float = 0.4) -> HetGraph:
    """One-call construction: accumulate all logs and build."""
    builder = GraphBuilder(universe, semantic_threshold=semantic_threshold)
    builder.add_logs(logs)
    return builder.build()
