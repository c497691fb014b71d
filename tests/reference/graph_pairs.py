"""Dict-loop semantic and co-bid pair construction.

The straightforward form of ``GraphBuilder._semantic_pairs`` and
``GraphBuilder._co_bid_pairs``: an inverted term index walked with
Python loops, pair overlaps counted in a dict.
"""

from collections import defaultdict
from typing import Dict, List, Tuple

import numpy as np

from repro.common import PAD


def semantic_pairs(terms: np.ndarray, threshold: float, max_degree: int
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Query pairs with term-Jaccard >= ``threshold``, degree-capped."""
    term_sets = [set(int(t) for t in row if t != PAD) for row in terms]
    inverted: Dict[int, List[int]] = defaultdict(list)
    for q, row in enumerate(term_sets):
        for term in row:
            inverted[term].append(q)
    overlap: Dict[Tuple[int, int], int] = defaultdict(int)
    for queries in inverted.values():
        if len(queries) < 2 or len(queries) > 200:
            continue  # skip terms too generic to be informative
        for i, a in enumerate(queries):
            for b in queries[i + 1:]:
                overlap[(a, b)] += 1
    by_query: Dict[int, List[Tuple[float, int]]] = defaultdict(list)
    for (a, b), inter in overlap.items():
        union = len(term_sets[a]) + len(term_sets[b]) - inter
        if union == 0:
            continue
        jaccard = inter / union
        if jaccard >= threshold:
            by_query[a].append((jaccard, b))
            by_query[b].append((jaccard, a))
    src, dst, weight = [], [], []
    for a, matches in by_query.items():
        matches.sort(reverse=True)
        for jaccard, b in matches[:max_degree]:
            src.append(a)
            dst.append(b)
            weight.append(jaccard)
    return (np.asarray(src, dtype=np.int64),
            np.asarray(dst, dtype=np.int64),
            np.asarray(weight, dtype=np.float64))


def co_bid_pairs(bid_words: np.ndarray
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ad pairs sharing at least one bid keyword, weighted by the count."""
    inverted: Dict[int, List[int]] = defaultdict(list)
    for ad, row in enumerate(bid_words):
        for word in set(int(w) for w in row if w != PAD):
            inverted[word].append(ad)
    pairs: Dict[Tuple[int, int], float] = defaultdict(float)
    for ads in inverted.values():
        if len(ads) < 2 or len(ads) > 200:
            continue
        for i, a in enumerate(ads):
            for b in ads[i + 1:]:
                pairs[(a, b)] += 1.0
    if not pairs:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
                np.empty(0))
    src = np.fromiter((a for a, _ in pairs), dtype=np.int64, count=len(pairs))
    dst = np.fromiter((b for _, b in pairs), dtype=np.int64, count=len(pairs))
    weight = np.fromiter(pairs.values(), dtype=np.float64, count=len(pairs))
    return src, dst, weight
