"""Generative simulator of a sponsored-search platform.

Substitutes the proprietary Taobao behaviour logs.  The simulator
plants exactly the two structures paper Fig. 1 motivates:

- **hierarchy** — queries live at *all* depths of the category tree
  ("shoes" → "canvas shoes" → "women's canvas shoes"), with broader
  queries searched more often (a power law over depth and popularity);
  this is the tree structure hyperbolic subspaces capture;
- **cycles** — users click many interchangeable items/ads of the same
  leaf category, creating dense co-click/co-bid cliques; this is the
  cyclic structure spherical subspaces capture.

Everything is driven by one :class:`numpy.random.Generator` so datasets
are exactly reproducible from a seed.
"""

from __future__ import annotations

import dataclasses
import numbers
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.data.logs import BehaviorLog, Session
from repro.data.universe import PAD, AdCatalog, ItemCatalog, QueryCatalog, Universe
from repro.graph.category import CategoryTree
from repro.graph.schema import NodeRef, NodeType


@dataclasses.dataclass
class SimulatorConfig:
    """Knobs of the synthetic platform (defaults: laptop-scale graph).

    The paper's 1-day graph has 40M/60M/6M query/item/ad nodes; the
    defaults scale this down ~30000x while keeping the q:i:a ratio and
    edge density per node comparable.
    """

    num_queries: int = 1200
    num_items: int = 1800
    num_ads: int = 400
    num_users: int = 600
    num_brands: int = 60
    num_shops: int = 120
    tree_depth: int = 4
    tree_branching: int = 3
    terms_per_category: int = 8
    query_term_slots: int = 6
    title_term_slots: int = 6
    bid_word_slots: int = 4
    sessions_per_user_day: float = 2.5
    clicks_per_session: float = 3.0
    ad_click_share: float = 0.25
    #: decay per tree hop for off-leaf clicks: a user browsing leaf L
    #: clicks products of leaf L' with weight ``tree_locality**d(L,L')``
    #: — graded hierarchical locality rather than a flat partition
    tree_locality: float = 0.35
    #: von-Mises concentration of within-leaf browsing on the style
    #: ring: each session anchors at an angle and clicks products with
    #: weight ``exp(ring_concentration · cos(θ - anchor))`` — the
    #: wrap-around (cyclic) structure of paper Fig. 1
    ring_concentration: float = 4.0
    broad_query_share: float = 0.3
    price_scale: float = 1.0
    seed: int = 7

    def __post_init__(self):
        for name in _COUNTS:
            value = getattr(self, name)
            if not _is_int(value) or value < 1:
                raise ValueError("%s must be an integer >= 1, got %r"
                                 % (name, value))
        for name, (accepts, expected) in _REALS.items():
            value = getattr(self, name)
            if not _is_real(value) or not accepts(value):
                raise ValueError("%s must be a number %s, got %r"
                                 % (name, expected, value))

    @property
    def num_leaves(self) -> int:
        return self.tree_branching ** self.tree_depth


#: entity counts, tree shape and term slots: integers >= 1 (a zero slot
#: count would make ``path[-0:]`` the whole path)
_COUNTS = ("num_queries", "num_items", "num_ads", "num_users", "num_brands",
           "num_shops", "tree_depth", "tree_branching", "terms_per_category",
           "query_term_slots", "title_term_slots", "bid_word_slots")
#: real-valued knobs: name -> (predicate, what it requires)
_REALS = {
    "sessions_per_user_day": (lambda v: 0 < v < np.inf, "> 0 and finite"),
    "clicks_per_session": (lambda v: 0 < v < np.inf, "> 0 and finite"),
    "price_scale": (lambda v: 0 < v < np.inf, "> 0 and finite"),
    "ad_click_share": (lambda v: 0 <= v <= 1, "in [0, 1]"),
    "broad_query_share": (lambda v: 0 <= v <= 1, "in [0, 1]"),
    "tree_locality": (lambda v: 0 <= v <= 1, "in [0, 1]"),
    "ring_concentration": (lambda v: 0 <= v < np.inf, ">= 0 and finite"),
}


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _choice_cdf(p: np.ndarray) -> np.ndarray:
    """The table ``Generator.choice(a, p=p)`` searches for its draw.

    ``choice`` re-validates ``p`` on every call; a caller drawing many
    times from one fixed ``p`` builds this once and calls
    :meth:`SponsoredSearchSimulator._draw` — the same single
    ``random()`` draw and the same index.
    """
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


class SponsoredSearchSimulator:
    """Builds a :class:`Universe` and samples daily behaviour logs."""

    def __init__(self, config: Optional[SimulatorConfig] = None):
        self.config = config or SimulatorConfig()
        self.rng = np.random.default_rng(self.config.seed)
        self.universe = self._build_universe()
        self._prepare_behavior_model()

    # -- universe construction ----------------------------------------------

    def _build_universe(self) -> Universe:
        cfg = self.config
        tree = CategoryTree.balanced(cfg.tree_depth, cfg.tree_branching)
        # Each tree node owns a contiguous slice of the term vocabulary;
        # an entity's terms are drawn from its category's root-to-node
        # path, giving ancestors shared terms (semantic similarity).
        vocab_size = len(tree) * cfg.terms_per_category
        #: node -> (non-root path nodes, CDF of the depth-weighted
        #: choice among them)
        self._paths: Dict[int, Tuple[List[int], np.ndarray]] = {}
        queries = self._make_queries(tree)
        items = self._make_items(tree)
        ads = self._make_ads(tree)
        return Universe(category_tree=tree, queries=queries, items=items,
                        ads=ads, vocab_size=vocab_size,
                        num_brands=cfg.num_brands, num_shops=cfg.num_shops)

    def _path_terms(self, tree: CategoryTree, node: int, count: int) -> np.ndarray:
        """Sample ``count`` terms along the root→node path, PAD-filled.

        Deeper path nodes contribute more terms so specific queries look
        specific; the root contributes none (it is a catch-all).
        """
        cached = self._paths.get(node)
        if cached is None:
            path = [n for n in tree.path(node) if n != 0] or [0]
            weights = np.arange(1, len(path) + 1, dtype=np.float64)
            weights /= weights.sum()
            cached = self._paths[node] = (path, _choice_cdf(weights))
        path, cdf = cached
        # node n's term pool is [n * per, (n + 1) * per); a uniform pick
        # from it is ``Generator.choice(pool)``'s one integers() draw
        per = self.config.terms_per_category
        slots = np.full(count, PAD, dtype=np.int64)
        # one term per path node guaranteed, remaining slots random
        take = min(count, len(path))
        for i, n in enumerate(path[-take:]):
            slots[i] = n * per + self.rng.integers(0, per)
        for i in range(take, count):
            n = path[self._draw(cdf)]
            slots[i] = n * per + self.rng.integers(0, per)
        return slots

    def _draw(self, cdf: np.ndarray) -> int:
        """``Generator.choice(len(cdf), p=p)`` for ``cdf = _choice_cdf(p)``."""
        return int(cdf.searchsorted(self.rng.random(), side="right"))

    def _make_queries(self, tree: CategoryTree) -> QueryCatalog:
        cfg = self.config
        internal = [n for n in range(1, len(tree)) if not tree.is_leaf(n)]
        leaves = tree.leaves
        categories = np.empty(cfg.num_queries, dtype=np.int64)
        terms = np.empty((cfg.num_queries, cfg.query_term_slots), dtype=np.int64)
        for q in range(cfg.num_queries):
            if internal and self.rng.random() < cfg.broad_query_share:
                cat = internal[int(self.rng.integers(len(internal)))]
            else:
                cat = leaves[int(self.rng.integers(len(leaves)))]
            categories[q] = cat
            terms[q] = self._path_terms(tree, cat, cfg.query_term_slots)
        return QueryCatalog(category=categories, terms=terms)

    def _make_items(self, tree: CategoryTree) -> ItemCatalog:
        cfg = self.config
        leaves = np.asarray(tree.leaves)
        categories = leaves[self.rng.integers(len(leaves), size=cfg.num_items)]
        terms = np.stack([self._path_terms(tree, c, cfg.title_term_slots)
                          for c in categories])
        brand = self.rng.integers(cfg.num_brands, size=cfg.num_items)
        shop = self.rng.integers(cfg.num_shops, size=cfg.num_items)
        popularity = self.rng.pareto(1.8, size=cfg.num_items) + 0.2
        style_angle = self.rng.uniform(0.0, 2 * np.pi, size=cfg.num_items)
        return ItemCatalog(category=categories, terms=terms, brand=brand,
                           shop=shop, popularity=popularity,
                           style_angle=style_angle)

    def _make_ads(self, tree: CategoryTree) -> AdCatalog:
        cfg = self.config
        leaves = np.asarray(tree.leaves)
        categories = leaves[self.rng.integers(len(leaves), size=cfg.num_ads)]
        terms = np.stack([self._path_terms(tree, c, cfg.title_term_slots)
                          for c in categories])
        # Advertisers bid on a handful of keywords from their category's
        # term pool (plus ancestors): ads of one leaf share keywords,
        # forming the co-bid rings of paper §IV-A-1.
        bid_words = np.stack([self._path_terms(tree, c, cfg.bid_word_slots)
                              for c in categories])
        brand = self.rng.integers(cfg.num_brands, size=cfg.num_ads)
        shop = self.rng.integers(cfg.num_shops, size=cfg.num_ads)
        popularity = self.rng.pareto(1.8, size=cfg.num_ads) + 0.2
        style_angle = self.rng.uniform(0.0, 2 * np.pi, size=cfg.num_ads)
        price = (self.rng.pareto(2.5, size=cfg.num_ads) + 0.5) * cfg.price_scale
        return AdCatalog(category=categories, terms=terms, bid_words=bid_words,
                         brand=brand, shop=shop, popularity=popularity,
                         style_angle=style_angle, price_per_click=price)

    # -- behaviour model -------------------------------------------------------

    def _prepare_behavior_model(self) -> None:
        tree = self.universe.category_tree
        cfg = self.config
        # user interests: a Dirichlet over leaves, concentrated on few
        leaves = tree.leaves
        alpha = np.full(len(leaves), 0.15)
        self._user_interests = self.rng.dirichlet(alpha, size=cfg.num_users)
        self._interest_cdfs = np.cumsum(self._user_interests, axis=1)
        self._interest_cdfs /= self._interest_cdfs[:, -1:]
        self._leaves = np.asarray(leaves)
        # queries grouped by compatibility with a leaf: a query matches a
        # leaf if its category is the leaf or one of its ancestors
        q_cat = self.universe.queries.category
        self._queries_for_leaf = [
            np.flatnonzero(np.isin(q_cat, list(set(tree.path(leaf)))))
            for leaf in leaves]
        # per leaf position and product kind (False = item, True = ad):
        # the leaf's products with their popularity and ring angle
        self._click_pools = {}
        for pick_ad, node_type, catalog in (
                (False, NodeType.ITEM, self.universe.items),
                (True, NodeType.AD, self.universe.ads)):
            self._click_pools[pick_ad] = []
            for leaf in leaves:
                pool = np.flatnonzero(catalog.category == leaf)
                self._click_pools[pick_ad].append(
                    (node_type, pool, catalog.popularity[pool],
                     catalog.style_angle[pool]))
        self._leaf_click_cdfs: Dict[int, np.ndarray] = {}

    def _leaf_click_cdf(self, leaf_pos: int) -> np.ndarray:
        """P(click target leaf | browsing leaf) ∝ locality^tree_distance.

        Cached as its :func:`_choice_cdf`; this graded locality is what
        plants a *hierarchical* interaction structure (nearby tree
        branches interact more) on top of the within-leaf cliques
        (cyclic structure).
        """
        cached = self._leaf_click_cdfs.get(leaf_pos)
        if cached is None:
            tree = self.universe.category_tree
            leaf = int(self._leaves[leaf_pos])
            distances = np.array([tree.tree_distance(leaf, other)
                                  for other in self._leaves], dtype=np.float64)
            weights = self.config.tree_locality ** distances
            cached = _choice_cdf(weights / weights.sum())
            self._leaf_click_cdfs[leaf_pos] = cached
        return cached

    def _pick_clicked(self, leaf_pos: int, n_clicks: int) -> List[NodeRef]:
        """Sample the click sequence for one session browsing a leaf.

        The session anchors at a style angle; click probability combines
        popularity with a von-Mises ring kernel around the anchor, so
        co-clicked products are ring neighbours (cyclic structure) while
        the leaf choice follows tree locality (hierarchical structure).
        """
        cfg = self.config
        clicks: List[NodeRef] = []
        leaf_cdf = self._leaf_click_cdf(leaf_pos)
        anchor = self.rng.uniform(0.0, 2 * np.pi)
        for _ in range(n_clicks):
            target = self._draw(leaf_cdf)
            pick_ad = self.rng.random() < cfg.ad_click_share
            node_type, pool, popularity, angles = \
                self._click_pools[pick_ad][target]
            if pool.size == 0:
                continue
            ring = np.exp(cfg.ring_concentration
                          * (np.cos(angles - anchor) - 1.0))
            probs = popularity * ring
            chosen = int(pool[self._draw(_choice_cdf(probs / probs.sum()))])
            clicks.append(NodeRef(node_type, chosen))
        return clicks

    def simulate_day(self, day: int) -> BehaviorLog:
        """Generate one day of sessions, grouped per user."""
        cfg = self.config
        sessions: List[Session] = []
        for user in range(cfg.num_users):
            n_sessions = self.rng.poisson(cfg.sessions_per_user_day)
            if n_sessions == 0:
                continue
            interest_cdf = self._interest_cdfs[user]
            for _ in range(n_sessions):
                leaf_pos = self._draw(interest_cdf)
                candidates = self._queries_for_leaf[leaf_pos]
                if candidates.size == 0:
                    continue
                query = int(candidates[self.rng.integers(candidates.size)])
                n_clicks = max(1, self.rng.poisson(cfg.clicks_per_session))
                clicks = self._pick_clicked(leaf_pos, n_clicks)
                if not clicks:
                    continue
                sessions.append(Session(user=user, query=query, clicks=clicks))
        return BehaviorLog(day=day, sessions=sessions)

    def simulate_days(self, num_days: int, start_day: int = 0) -> List[BehaviorLog]:
        """Generate consecutive daily logs (paper uses 1-day and 7-day windows)."""
        return [self.simulate_day(day) for day in range(start_day, start_day + num_days)]
