"""Sampling-without-replacement tests: exhaustion, distinctness, first-draw
distribution, and the lazy sampler against an eager reference."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from pbesynth import sampling
from pbesynth.sampling import UniqueSampler


def _uniform(n):
    return list(range(n)), [1.0 / n] * n


def test_support_size():
    s = UniqueSampler([_uniform(3), _uniform(4)])
    assert s.support_size() == 12


def test_exact_exhaustion_small():
    s = UniqueSampler([_uniform(3), _uniform(2), _uniform(2)])
    rng = random.Random(0)
    seen = set()
    while True:
        t = s.sample(rng)
        if t is None:
            break
        assert t not in seen
        seen.add(t)
    assert seen == set(itertools.product(range(3), range(2), range(2)))
    assert s.exhausted
    assert s.sample(rng) is None


def test_skewed_weights_still_exhaust():
    dist = (["a", "b", "c"], [0.9, 0.05, 0.05])
    s = UniqueSampler([dist, dist])
    rng = random.Random(7)
    out = [s.sample(rng) for _ in range(9)]
    assert len(set(out)) == 9
    assert s.sample(rng) is None


def test_first_draw_follows_weights():
    # a 3:1 weighting on a single position should show up in first draws
    dist = (["x", "y"], [0.75, 0.25])
    rng = random.Random(13)
    hits = sum(UniqueSampler([dist]).sample(rng) == ("x",)
               for _ in range(4000))
    assert 0.70 < hits / 4000 < 0.80


def test_zero_mass_rejected():
    with pytest.raises(ValueError):
        UniqueSampler([(["a"], [0.0])])
    with pytest.raises(ValueError):
        UniqueSampler([([], [])])


@settings(max_examples=40)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=4),
       st.integers(0, 2**30))
def test_exhaustion_property(sizes, seed):
    s = UniqueSampler([_uniform(n) for n in sizes])
    rng = random.Random(seed)
    k = s.support_size()
    draws = [s.sample(rng) for _ in range(k)]
    assert len(set(draws)) == k
    assert s.sample(rng) is None


# ---------------------------------------------------------------------------
# Lazy sampler vs the eager reference
# ---------------------------------------------------------------------------

class _EagerNode:
    __slots__ = ("orig", "remaining", "children", "exhausted")

    def __init__(self, orig):
        self.orig = orig
        self.remaining = orig
        self.children = None
        self.exhausted = False


class EagerUniqueSampler:
    """The sampler before nodes were made lazy: every child of a visited
    node is built at once, and a draw scans the live children.  It takes
    the same ``(choices, masses)`` per position and uses the masses as
    given."""

    def __init__(self, position_dists):
        for choices, masses in position_dists:
            if not choices or sum(masses) <= 0:
                raise ValueError("each position needs positive total mass")
        self.dists = position_dists
        self.root = _EagerNode(1.0)

    def sample(self, rng):
        if self.root.exhausted:
            return None
        node = self.root
        trail = [node]
        choices = []
        for options, masses in self.dists:
            if node.children is None:
                node.children = [_EagerNode(node.orig * p) for p in masses]
            idx = self._pick(node, rng)
            choices.append(options[idx])
            node = node.children[idx]
            trail.append(node)
        consumed = node.remaining
        node.exhausted = True
        for anc in trail:
            anc.remaining = max(anc.remaining - consumed, 0.0)
        for anc in reversed(trail[:-1]):
            if anc.children is not None and all(c.exhausted
                                                for c in anc.children):
                anc.exhausted = True
            else:
                break
        return tuple(choices)

    def _pick(self, node, rng):
        live = [i for i, c in enumerate(node.children) if not c.exhausted]
        weights = [node.children[i].remaining for i in live]
        total = 0.0
        for w in weights:  # sequentially, as the lazy sampler's prefix sums
            total += w
        if total <= 0.0:
            return live[int(rng.random() * len(live)) % len(live)]
        x = rng.random() * total
        acc = 0.0
        for i, w in zip(live, weights):
            acc += w
            if x < acc:
                return i
        return live[-1]


def _draw_all(sampler, seed):
    rng = random.Random(seed)
    out = []
    while True:
        t = sampler.sample(rng)
        if t is None:
            return out
        out.append(t)


def _fallbacks(monkeypatch):
    """Count the lazy sampler's uniform fallbacks (total live mass <= 0)."""
    calls = []
    live = sampling._live

    def counting(node):
        calls.append(sum(node.weights))
        return live(node)
    monkeypatch.setattr(sampling, "_live", counting)
    return calls


# masses from ordinary to tiny: products of tiny ones underflow to 0.0, and
# subtracting a drawn path's mass leaves residues, so some nodes' live mass
# reaches 0.0 before they are exhausted
_mass = st.one_of(st.floats(0.0, 1.0), st.sampled_from(
    [1.0, 0.9, 0.05, 1e-17, 1e-170, 1e-200, 1e-300, 3.0]))
_dists = st.lists(st.lists(_mass, min_size=1, max_size=5).filter(
    lambda ps: sum(ps) > 0), min_size=1, max_size=3).map(
    lambda ds: [(list(range(len(ps))), ps) for ps in ds])


@settings(max_examples=300, deadline=None)
@given(_dists, st.integers(0, 2**30))
def test_lazy_sampler_matches_eager_reference(dists, seed):
    got = _draw_all(UniqueSampler(dists), seed)
    assert got == _draw_all(EagerUniqueSampler(dists), seed)
    assert len(got) == len(set(got)) == UniqueSampler(dists).support_size()


@pytest.mark.parametrize("dists", [
    [(["a", "b", "c"], [0.9, 0.05, 0.05])] * 2,
    [(["a", "b"], [1.0, 1e-200])] * 2,
    [(["a", "b", "c"], [1.0, 1e-170, 1e-300])] * 3,
])
def test_lazy_sampler_matches_eager_on_skewed_and_tiny_masses(dists,
                                                              monkeypatch):
    fallbacks = _fallbacks(monkeypatch)
    for seed in range(20):
        assert _draw_all(UniqueSampler(dists), seed) == \
            _draw_all(EagerUniqueSampler(dists), seed)
    if any(p < 1e-100 for _, masses in dists for p in masses):
        # the tiny masses underflow, so the uniform fallback really ran
        assert 0.0 in fallbacks
