"""Seeded inputs for the benchmark workloads.

Everything here is plain data drawn from a numpy Generator: world-frame
segment pairs tagged with the family they were built from, and site lists
for diagrams. Random world pairs almost always classify as an irreducible
regular cubic, so the degenerate families are generated explicitly from the
public constructors in `avd.verify` and each is moved by a random similarity
(computed here, not with the program's own transform) so that canonicalize
has real work to do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from avd import CanonicalConfig, verify
from avd.classify import EdgeClassTag

Pt = tuple[float, float]
Seg = tuple[Pt, Pt]

GENERIC = "generic"

#: The node of `verify.NODE_CONFIG`, in its canonical frame.
NODE_POINT: Pt = (-1.0, 2.0)


@dataclass(frozen=True)
class Similarity:
    """Rotation, then uniform scaling, then translation."""

    rotation: float
    scale: float
    tx: float
    ty: float

    def __call__(self, p: Pt) -> Pt:
        c = self.scale * math.cos(self.rotation)
        s = self.scale * math.sin(self.rotation)
        return (c * p[0] - s * p[1] + self.tx, s * p[0] + c * p[1] + self.ty)


@dataclass(frozen=True)
class PairItem:
    """One world-frame segment pair.

    expect_tag is the edge class one of the two labeling branches must
    carry (None for generic pairs); node is the world image of the
    configuration's known node, when it has one.
    """

    family: str
    s1: Seg
    s2: Seg
    expect_tag: Optional[str]
    node: Optional[Pt] = None


@dataclass(frozen=True)
class DiagramItem:
    sites: tuple[Seg, ...]


def random_similarity(rng: np.random.Generator) -> Similarity:
    return Similarity(
        float(rng.uniform(-math.pi, math.pi)),
        float(rng.uniform(0.5, 2.0)),
        float(rng.uniform(-2.0, 2.0)),
        float(rng.uniform(-2.0, 2.0)),
    )


def random_segment(rng: np.random.Generator, span: float = 4.0) -> Seg:
    while True:
        p = rng.uniform(-span, span, 2)
        q = rng.uniform(-span, span, 2)
        if math.hypot(*(p - q)) > 1e-3:
            return (float(p[0]), float(p[1])), (float(q[0]), float(q[1]))


def _seg(s) -> Seg:
    return (s.e0.x, s.e0.y), (s.e1.x, s.e1.y)


def _canonical_pair(config) -> tuple[Seg, Seg]:
    return _seg(config.canonical_s1()), _seg(config.canonical_s2())


# Each family draws a pair in its own frame; the same parameter ranges and
# exclusions as the `avd verify` scenarios that replay it.


def _concyclic(rng):
    while True:
        theta = float(rng.uniform(-math.pi, math.pi))
        if abs(math.sin(theta) + 1.0) > 1e-2:
            break
    h = float(rng.uniform(-3.0, 3.0))
    return _canonical_pair(verify.concyclic_config(theta, h))


def _collinear(rng):
    a = float(rng.uniform(-4.0, 4.0))
    l = float(rng.uniform(0.1, 3.0))
    while abs(l - 1.0) < 0.05:
        l = float(rng.uniform(0.1, 3.0))
    return _canonical_pair(verify.collinear_config(a, l, bool(rng.random() < 0.5)))


def _shared_endpoint(rng):
    l = float(rng.uniform(0.2, 3.0))
    beta = float(rng.uniform(-math.pi, math.pi))
    while abs(l - 1.0) < 0.05 and abs(abs(beta) - math.pi) < 0.05:
        l = float(rng.uniform(0.2, 3.0))
        beta = float(rng.uniform(-math.pi, math.pi))
    return _canonical_pair(verify.shared_endpoint_config(l, beta))


def _orthocross(rng):
    t1 = float(rng.uniform(0.15, 1.35))
    t2 = float(rng.uniform(0.15, 1.35))
    while abs(t1 - t2) < 0.05:
        t2 = float(rng.uniform(0.15, 1.35))
    s1, s2 = verify.orthocross_segments(t1, t2)
    return _seg(s1), _seg(s2)


def _congruent_parallel(rng):
    # Equal-length parallel pairs make one branch a conic; keeping the
    # midpoint off the s1 axis and off the radius-2 circle makes it the
    # rectangular hyperbola rather than the orthogonal line pair.
    while True:
        a = float(rng.uniform(-3.0, 3.0))
        b = float(rng.uniform(0.05, 3.0)) * (1 if rng.random() < 0.5 else -1)
        if abs(a * a + b * b - 4.0) > 0.05:
            break
    return _canonical_pair(CanonicalConfig.from_angle(a, b, 1.0, math.pi))


def _node(rng):
    return _canonical_pair(verify.NODE_CONFIG)


FAMILIES: dict[str, tuple[Callable, str]] = {
    "concyclic": (_concyclic, EdgeClassTag.CUBIC_CIRCLE_TIMES_LINE.value),
    "collinear": (_collinear, EdgeClassTag.CUBIC_CIRCLE_TIMES_LINE.value),
    "shared-endpoint": (_shared_endpoint, EdgeClassTag.CUBIC_CIRCLE_TIMES_LINE.value),
    "orthocross": (_orthocross, EdgeClassTag.CUBIC_CIRCLE_TIMES_LINE.value),
    "congruent-parallel": (_congruent_parallel, EdgeClassTag.QUAD_IRREDUCIBLE_HYPERBOLA.value),
    "node": (_node, EdgeClassTag.CUBIC_IRREDUCIBLE_SINGULAR.value),
}


def family_pair(rng: np.random.Generator, family: str) -> PairItem:
    draw, tag = FAMILIES[family]
    s1, s2 = draw(rng)
    t = random_similarity(rng)
    node = t(NODE_POINT) if family == "node" else None
    return PairItem(family, (t(s1[0]), t(s1[1])), (t(s2[0]), t(s2[1])), tag, node)


def pair_items(rng: np.random.Generator, blocks: int, generic_per_block: int) -> list[PairItem]:
    """Blocks of one pair per family plus `generic_per_block` random pairs,
    shuffled within each block, so that every stretch of a run has the same
    family mix whatever the seed."""
    out: list[PairItem] = []
    for _ in range(blocks):
        block = [family_pair(rng, f) for f in FAMILIES]
        block += [
            PairItem(GENERIC, random_segment(rng), random_segment(rng), None)
            for _ in range(generic_per_block)
        ]
        out += [block[i] for i in rng.permutation(len(block))]
    return out


def site_counts(rng: np.random.Generator, blocks: int, per_block: int,
                lo: int = 8, hi: int = 64) -> list[int]:
    """Site counts over [lo, hi] with density proportional to 1/n^2, drawn
    stratified: each block holds one count from each of `per_block` equal
    probability slices, except that the top slice is pinned to `hi`. Every
    block therefore has the same shape whatever the seed, and every block
    holds one diagram of the largest size, which sets peak memory."""
    out: list[int] = []
    for _ in range(blocks):
        u = (np.arange(per_block) + rng.uniform(0.0, 1.0, per_block)) / per_block
        u[-1] = 1.0
        n = 1.0 / (1.0 / lo - u * (1.0 / lo - 1.0 / hi))
        counts = np.clip(np.rint(n), lo, hi).astype(int)
        out += [int(counts[i]) for i in rng.permutation(per_block)]
    return out


def diagram_items(rng: np.random.Generator, blocks: int, per_block: int) -> list[DiagramItem]:
    return [
        DiagramItem(tuple(random_segment(rng) for _ in range(n)))
        for n in site_counts(rng, blocks, per_block)
    ]
