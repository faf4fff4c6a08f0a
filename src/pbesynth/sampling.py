"""Incremental sampling without replacement over per-position distributions.

A sampler state is a prefix tree of partial choices.  Every node tracks the
unsampled probability mass below it; drawing a complete tuple subtracts its
path mass from all ancestors, so no tuple is ever produced twice and the
first draw from a fresh state follows the input distribution exactly.
Exhaustion is tracked structurally (counts of exhausted children, not float
comparisons), so a support of size k yields exactly k distinct tuples.

Nodes are created only when a draw passes through them, as in
UniqueRandomizer (Shi, Bieber & Sutton, ICML 2020).  A child no draw has
visited still holds its full mass, ``parent.orig * p``, so each node keeps
one weight per child: that mass until the child is visited, then the
child's remaining mass, and 0.0 once the child is exhausted.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from itertools import accumulate
from typing import List, Optional, Sequence


class _Node:
    __slots__ = ("orig", "remaining", "exhausted", "weights", "children",
                 "spent")

    def __init__(self, orig: float):
        self.orig = orig
        self.remaining = orig
        self.exhausted = False
        self.weights: Optional[List[float]] = None  # per child, see above
        self.children: Optional[dict] = None  # child index -> visited _Node
        self.spent = 0  # exhausted children


class UniqueSampler:
    """Samples distinct tuples from a product of finite distributions.

    `position_dists` holds one ``(choices, masses)`` pair per tuple
    position.  The masses are used as given, so each position's should
    sum to 1 for a first draw to follow the product distribution.
    """

    def __init__(self, position_dists: Sequence[tuple]):
        for choices, masses in position_dists:
            if not choices or sum(masses) <= 0:
                raise ValueError("each position needs positive total mass")
        self.dists = position_dists
        self.root = _Node(1.0)

    @property
    def exhausted(self) -> bool:
        return self.root.exhausted

    def support_size(self) -> int:
        n = 1
        for choices, _ in self.dists:
            n *= len(choices)
        return n

    def sample(self, rng: random.Random) -> Optional[tuple]:
        """Draw one not-yet-seen tuple of choices, or None once spent."""
        if self.root.exhausted:
            return None
        node = self.root
        trail: List[_Node] = [node]
        picks = []
        drawn = []
        for choices, masses in self.dists:
            if node.weights is None:
                orig = node.orig
                node.weights = [orig * p for p in masses]
                node.children = {}
            idx = _pick(node, rng)
            drawn.append(choices[idx])
            picks.append(idx)
            child = node.children.get(idx)
            if child is None:
                child = node.children[idx] = _Node(node.orig * masses[idx])
            node = child
            trail.append(node)
        # `node` is now the leaf for this complete tuple
        consumed = node.remaining
        node.exhausted = True
        for anc in trail:
            anc.remaining = max(anc.remaining - consumed, 0.0)
        for depth in range(len(picks) - 1, -1, -1):
            parent, idx, child = trail[depth], picks[depth], trail[depth + 1]
            if child.exhausted:
                parent.weights[idx] = 0.0
                parent.spent += 1
                parent.exhausted = parent.spent == len(parent.weights)
            else:
                parent.weights[idx] = child.remaining
        return tuple(drawn)


def _pick(node: _Node, rng: random.Random) -> int:
    """A live child of `node`, drawn in proportion to its weight.  Exhausted
    children weigh 0.0, which leaves every running sum unchanged, so the
    draw equals one over the live children alone."""
    running = list(accumulate(node.weights))
    if running[-1] <= 0.0:
        # float cancellation: fall back to uniform over live children
        live = _live(node)
        return live[int(rng.random() * len(live)) % len(live)]
    idx = bisect_right(running, rng.random() * running[-1])
    return idx if idx < len(running) else _live(node)[-1]


def _live(node: _Node) -> List[int]:
    children = node.children
    return [i for i in range(len(node.weights))
            if i not in children or not children[i].exhausted]
