"""Tests for the behaviour-log simulator and entity universe."""

import numpy as np
import pytest

from repro.common import PAD
from repro.data import SimulatorConfig, SponsoredSearchSimulator
from repro.data.logs import merge_logs
from repro.graph.schema import NodeType


class TestUniverse:
    def test_entity_counts_match_config(self, simulator, universe):
        cfg = simulator.config
        assert len(universe.queries) == cfg.num_queries
        assert len(universe.items) == cfg.num_items
        assert len(universe.ads) == cfg.num_ads

    def test_item_ad_categories_are_leaves(self, universe):
        tree = universe.category_tree
        assert all(tree.is_leaf(c) for c in universe.items.category)
        assert all(tree.is_leaf(c) for c in universe.ads.category)

    def test_queries_span_multiple_depths(self, universe):
        tree = universe.category_tree
        depths = {tree.depth[c] for c in universe.queries.category}
        assert len(depths) >= 2, "queries should include broad and specific"

    def test_terms_lie_on_category_path(self, universe):
        tree = universe.category_tree
        per_cat = (universe.vocab_size // len(tree))
        for q in range(0, len(universe.queries), 37):
            cat = int(universe.queries.category[q])
            allowed = set()
            for node in tree.path(cat):
                allowed.update(range(node * per_cat, (node + 1) * per_cat))
            terms = [t for t in universe.queries.terms[q] if t != PAD]
            assert terms, "queries must have at least one term"
            assert set(terms) <= allowed

    def test_feature_tables_shapes(self, universe):
        feats = universe.features()
        assert feats[NodeType.QUERY]["terms"].shape[0] == len(universe.queries)
        assert feats[NodeType.AD]["bid_words"].shape[0] == len(universe.ads)

    def test_vocab_sizes_cover_feature_values(self, universe):
        feats = universe.features()
        sizes = universe.feature_vocab_sizes()
        for node_type, fields in feats.items():
            for field, values in fields.items():
                assert values.max() < sizes[node_type][field]

    def test_ads_have_positive_prices(self, universe):
        assert np.all(universe.ads.price_per_click > 0)


class TestLogs:
    def test_reproducible_from_seed(self):
        cfg = SimulatorConfig(num_queries=50, num_items=80, num_ads=20,
                              num_users=30, seed=5)
        log_a = SponsoredSearchSimulator(cfg).simulate_day(0)
        log_b = SponsoredSearchSimulator(cfg).simulate_day(0)
        assert len(log_a) == len(log_b)
        for sa, sb in zip(log_a, log_b):
            assert sa.query == sb.query
            assert sa.clicks == sb.clicks

    def test_sessions_reference_valid_entities(self, simulator, daily_logs):
        cfg = simulator.config
        for session in daily_logs[0]:
            assert 0 <= session.query < cfg.num_queries
            for ref in session.clicks:
                bound = {NodeType.ITEM: cfg.num_items,
                         NodeType.AD: cfg.num_ads}[ref.node_type]
                assert 0 <= ref.index < bound

    def test_sessions_grouped_by_user(self, daily_logs):
        users = [s.user for s in daily_logs[0]]
        # each user appears in one contiguous run
        seen = set()
        previous = None
        for user in users:
            if user != previous:
                assert user not in seen
                seen.add(user)
            previous = user

    def test_clicks_obey_locality(self, simulator, daily_logs):
        """Most clicks land in or near the query's category subtree."""
        universe = simulator.universe
        tree = universe.category_tree
        near, total = 0, 0
        for session in daily_logs[0]:
            q_cat = int(universe.queries.category[session.query])
            for ref in session.clicks:
                cat = {NodeType.ITEM: universe.items.category,
                       NodeType.AD: universe.ads.category}[ref.node_type]
                leaf = int(cat[ref.index])
                lca = tree.lowest_common_ancestor(q_cat, leaf)
                if lca != 0:  # share a non-root ancestor
                    near += 1
                total += 1
        assert near / total > 0.5

    def test_user_session_runs(self, daily_logs):
        runs = list(daily_logs[0].user_session_runs())
        assert sum(len(r) for r in runs) == len(daily_logs[0])
        for run in runs:
            assert len({s.user for s in run}) == 1

    def test_click_counts(self, daily_logs):
        counts = daily_logs[0].click_counts()
        assert counts
        assert all(v >= 1 for v in counts.values())
        total_clicks = sum(len(s.clicks) for s in daily_logs[0])
        assert sum(counts.values()) == total_clicks

    def test_merge_logs(self, daily_logs):
        merged = merge_logs(daily_logs[:2])
        assert len(merged) == len(daily_logs[0]) + len(daily_logs[1])
        assert merged.day == daily_logs[1].day

    def test_different_days_differ(self, daily_logs):
        q0 = [s.query for s in daily_logs[0]]
        q1 = [s.query for s in daily_logs[1]]
        assert q0 != q1


#: (key, invalid value) pairs; each must fail at config load, before any
#: simulation, with an error naming ``data.simulator.<key>``
_BAD_SIMULATOR_VALUES = [
    ("bid_word_slots", 0), ("query_term_slots", 0), ("title_term_slots", 0),
    ("num_users", -3), ("num_queries", 0), ("num_brands", 0),
    ("tree_depth", 0), ("tree_branching", 0), ("terms_per_category", 0),
    ("num_items", 2.5), ("num_ads", True), ("num_shops", "many"),
    ("ad_click_share", 1.5), ("broad_query_share", -0.1),
    ("tree_locality", 2.0), ("sessions_per_user_day", 0.0),
    ("clicks_per_session", -1.0), ("price_scale", 0),
    ("ring_concentration", -1.0), ("sessions_per_user_day", float("nan")),
    ("clicks_per_session", float("inf")),
]


class TestSimulatorConfigValidation:
    @pytest.mark.parametrize("key,value", _BAD_SIMULATOR_VALUES)
    def test_direct_construction_rejects(self, key, value):
        with pytest.raises(ValueError, match=r"^%s must be" % key):
            SimulatorConfig(**{key: value})

    @pytest.mark.parametrize("key,value", _BAD_SIMULATOR_VALUES)
    def test_from_dict_names_the_key(self, key, value):
        from repro.pipeline import PipelineConfig
        with pytest.raises(ValueError, match=r"data\.simulator\.%s" % key):
            PipelineConfig.from_dict({"data": {"simulator": {key: value}}})

    @pytest.mark.parametrize("assignment", [
        "data.simulator.bid_word_slots=0", "data.simulator.num_users=-3",
        "data.simulator.ad_click_share=1.5",
        "data.simulator.sessions_per_user_day=0"])
    def test_set_override_names_the_key(self, assignment):
        from repro.pipeline import PipelineConfig
        from repro.pipeline.cli import main
        key = assignment.split("=")[0]
        with pytest.raises(ValueError, match=key.replace(".", r"\.")):
            PipelineConfig().with_overrides([assignment])
        with pytest.raises(ValueError, match=key.replace(".", r"\.")):
            main(["run", "--quiet", "--set", assignment])

    def test_boundary_values_accepted(self):
        cfg = SimulatorConfig(num_queries=1, bid_word_slots=1,
                              ad_click_share=0.0, broad_query_share=1.0,
                              tree_locality=1.0, ring_concentration=0.0)
        assert cfg.bid_word_slots == 1
        sim = SponsoredSearchSimulator(SimulatorConfig(
            num_queries=20, num_items=30, num_ads=10, num_users=5,
            tree_depth=2, tree_branching=2, bid_word_slots=1,
            query_term_slots=1, title_term_slots=1, seed=3))
        assert (sim.universe.ads.bid_words != PAD).all()
        assert sim.simulate_days(1)[0].day == 0
