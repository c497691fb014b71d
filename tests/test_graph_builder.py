"""Tests for behaviour-log -> graph construction."""

import numpy as np
import pytest

from repro.data.logs import BehaviorLog, Session
from repro.graph import EdgeType, GraphBuilder, NodeType, build_graph
from repro.graph.schema import NodeRef


class TestEdgeChannels:
    def test_all_channels_present(self, train_graph):
        keys = {(s.value, e.value, d.value)
                for (s, e, d) in train_graph.adjacency_keys}
        assert ("query", "click", "item") in keys
        assert ("query", "click", "ad") in keys
        assert ("item", "co_click", "item") in keys
        assert ("query", "semantic", "query") in keys
        assert ("ad", "co_bid", "ad") in keys

    def test_click_edges_symmetric(self, train_graph):
        forward = train_graph.num_edges(NodeType.QUERY, EdgeType.CLICK,
                                        NodeType.ITEM)
        backward = train_graph.num_edges(NodeType.ITEM, EdgeType.CLICK,
                                         NodeType.QUERY)
        assert forward == backward > 0

    def test_click_weights_count_interactions(self, universe):
        log = BehaviorLog(day=0, sessions=[
            Session(user=0, query=1, clicks=[NodeRef(NodeType.ITEM, 2)]),
            Session(user=1, query=1, clicks=[NodeRef(NodeType.ITEM, 2)]),
        ])
        graph = build_graph(universe, [log])
        ids, weights, __ = graph.neighbors(NodeType.QUERY, 1,
                                           edge_type=EdgeType.CLICK,
                                           dst_type=NodeType.ITEM)
        assert ids.tolist() == [2]
        assert weights.tolist() == [2.0]

    def test_co_click_from_adjacent_clicks(self, universe):
        log = BehaviorLog(day=0, sessions=[
            Session(user=0, query=0, clicks=[NodeRef(NodeType.ITEM, 1),
                                             NodeRef(NodeType.AD, 2),
                                             NodeRef(NodeType.ITEM, 3)]),
        ])
        graph = build_graph(universe, [log])
        # adjacent pairs: (i1, a2) and (a2, i3); non-adjacent (i1, i3) absent
        ids, __w, __t = graph.neighbors(NodeType.ITEM, 1,
                                        edge_type=EdgeType.CO_CLICK)
        assert 2 in ids.tolist()
        ids13, __w2, __t2 = graph.neighbors(NodeType.ITEM, 1,
                                            edge_type=EdgeType.CO_CLICK,
                                            dst_type=NodeType.ITEM)
        assert 3 not in ids13.tolist()

    def test_query_cosearch_edges(self, universe):
        log = BehaviorLog(day=0, sessions=[
            Session(user=0, query=0, clicks=[NodeRef(NodeType.ITEM, 1)]),
            Session(user=0, query=5, clicks=[NodeRef(NodeType.ITEM, 2)]),
        ])
        graph = build_graph(universe, [log])
        ids, __w, __t = graph.neighbors(NodeType.QUERY, 0,
                                        edge_type=EdgeType.CO_CLICK,
                                        dst_type=NodeType.QUERY)
        assert ids.tolist() == [5]

    def test_same_query_sessions_do_not_self_link(self, universe):
        log = BehaviorLog(day=0, sessions=[
            Session(user=0, query=3, clicks=[NodeRef(NodeType.ITEM, 1)]),
            Session(user=0, query=3, clicks=[NodeRef(NodeType.ITEM, 2)]),
        ])
        graph = build_graph(universe, [log])
        ids, __w, __t = graph.neighbors(NodeType.QUERY, 3,
                                        edge_type=EdgeType.CO_CLICK,
                                        dst_type=NodeType.QUERY)
        assert 3 not in ids.tolist()


class TestSemanticEdges:
    def test_semantic_pairs_share_terms(self, universe, train_graph):
        terms = universe.queries.terms
        checked = 0
        for (s, e, d), csr in train_graph._adj.items():
            if e != EdgeType.SEMANTIC:
                continue
            src = np.repeat(np.arange(train_graph.num_nodes[s]),
                            np.diff(csr.indptr))
            for a, b in zip(src[:50], csr.indices[:50]):
                set_a = set(terms[a]) - {-1}
                set_b = set(terms[b]) - {-1}
                assert set_a & set_b, "semantic edge with no shared terms"
                checked += 1
        assert checked > 0

    def test_threshold_controls_density(self, universe, daily_logs):
        loose = GraphBuilder(universe, semantic_threshold=0.2)
        strict = GraphBuilder(universe, semantic_threshold=0.9)
        loose.add_log(daily_logs[0])
        strict.add_log(daily_logs[0])
        g_loose = loose.build()
        g_strict = strict.build()
        assert (g_loose.num_edges(edge_type=EdgeType.SEMANTIC)
                >= g_strict.num_edges(edge_type=EdgeType.SEMANTIC))


class TestCoBidEdges:
    def test_co_bid_pairs_share_keywords(self, universe, train_graph):
        bid_words = universe.ads.bid_words
        found = 0
        for (s, e, d), csr in train_graph._adj.items():
            if e != EdgeType.CO_BID:
                continue
            src = np.repeat(np.arange(train_graph.num_nodes[s]),
                            np.diff(csr.indptr))
            for a, b in zip(src[:50], csr.indices[:50]):
                shared = (set(bid_words[a]) - {-1}) & (set(bid_words[b]) - {-1})
                assert shared, "co-bid edge with no shared keyword"
                found += 1
        assert found > 0


class TestBuilderAccumulation:
    def test_multi_day_graph_has_more_edges(self, universe, daily_logs):
        one = build_graph(universe, daily_logs[:1])
        three = build_graph(universe, daily_logs[:3])
        assert three.num_edges() > one.num_edges()

    def test_builder_is_chainable(self, universe, daily_logs):
        graph = (GraphBuilder(universe).add_log(daily_logs[0])
                 .add_log(daily_logs[1]).build())
        assert graph.num_edges() > 0


def _triples(pairs):
    src, dst, weight = pairs
    return sorted(zip(src.tolist(), dst.tolist(), weight.tolist()))


@pytest.fixture(scope="module")
def dense_universe():
    """Default-size universe: term lists long enough to cross the
    200-holder cut-off and Jaccard ties under the degree cap."""
    from repro.data import SimulatorConfig, SponsoredSearchSimulator
    return SponsoredSearchSimulator(SimulatorConfig(seed=7)).universe


class TestArrayPairsMatchDictLoops:
    """The array-built semantic/co-bid pairs equal the dict-loop reference
    edge for edge, and the graphs built from them are CSR-identical."""

    @pytest.mark.parametrize("threshold,degree",
                             [(0.4, 20), (0.2, 3), (0.0, 5), (1.0, 1)])
    def test_semantic_pairs(self, universe, dense_universe, threshold,
                            degree):
        from reference.graph_pairs import semantic_pairs
        for uni in (universe, dense_universe):
            builder = GraphBuilder(uni, semantic_threshold=threshold,
                                   max_semantic_degree=degree)
            got = builder._semantic_pairs()
            want = semantic_pairs(uni.queries.terms, threshold, degree)
            assert _triples(got) == _triples(want)
            assert [a.dtype for a in got] == [a.dtype for a in want]

    def test_co_bid_pairs(self, universe, dense_universe):
        from reference.graph_pairs import co_bid_pairs
        for uni in (universe, dense_universe):
            got = GraphBuilder(uni)._co_bid_pairs()
            want = co_bid_pairs(uni.ads.bid_words)
            assert _triples(got) == _triples(want)
            assert [a.dtype for a in got] == [a.dtype for a in want]

    def test_degree_cap_tie_order(self):
        # query 0 matches 1..4 at equal Jaccard; a cap of 2 keeps the
        # two highest partner ids, as ``sort(reverse=True)`` does
        from types import SimpleNamespace
        from reference.graph_pairs import semantic_pairs
        terms = np.array([[5, 6, -1], [5, 6, 7], [5, 6, 8], [5, 6, 9],
                          [5, 6, 10]])
        uni = SimpleNamespace(queries=SimpleNamespace(terms=terms))
        got = GraphBuilder(uni, semantic_threshold=0.5,
                           max_semantic_degree=2)._semantic_pairs()
        assert _triples(got) == _triples(semantic_pairs(terms, 0.5, 2))
        assert sorted(got[1][got[0] == 0].tolist()) == [3, 4]

    def test_graphs_are_csr_identical(self, dense_universe, monkeypatch):
        from repro.data import SimulatorConfig, SponsoredSearchSimulator
        from reference import graph_pairs
        logs = SponsoredSearchSimulator(SimulatorConfig(
            seed=7, num_users=100)).simulate_days(1)
        fast = GraphBuilder(dense_universe).add_logs(logs).build()
        monkeypatch.setattr(
            GraphBuilder, "_semantic_pairs",
            lambda self: graph_pairs.semantic_pairs(
                self.universe.queries.terms, self.semantic_threshold,
                self.max_semantic_degree))
        monkeypatch.setattr(
            GraphBuilder, "_co_bid_pairs",
            lambda self: graph_pairs.co_bid_pairs(
                self.universe.ads.bid_words))
        slow = GraphBuilder(dense_universe).add_logs(logs).build()
        assert fast.adjacency_keys == slow.adjacency_keys
        for key in fast.adjacency_keys:
            a, b = fast._adj[key], slow._adj[key]
            for field in ("indptr", "indices", "weights"):
                assert np.array_equal(getattr(a, field), getattr(b, field))
                assert getattr(a, field).dtype == getattr(b, field).dtype
