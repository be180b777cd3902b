import numpy as np
import pytest

from avd import CanonicalConfig, Point, Segment
from avd.verify import NODE_CONFIG


def similarity(p: Point) -> list[float]:
    """Rotation by atan2(0.8, 0.6), scaling by 1.5, translation (0.25, -0.5)."""
    c, s = 0.6 * 1.5, 0.8 * 1.5
    return [c * p.x - s * p.y + 0.25, s * p.x + c * p.y - 0.5]


#: NODE_CONFIG's segment pair under `similarity`; its node maps to (-3.05, 0.1).
NODE_PAIR = [
    [similarity(p) for p in seg.endpoints]
    for seg in (NODE_CONFIG.canonical_s1(), NODE_CONFIG.canonical_s2())
]


@pytest.fixture
def node_config() -> CanonicalConfig:
    """Configuration whose edge cubic is irreducible with a node at (-1, 2)."""
    return CanonicalConfig(2.0, 4.0 / 3.0, 5.0 / 3.0, -4.0 / 5.0, 3.0 / 5.0)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def random_config(rng: np.random.Generator, *, l_min: float = 0.3) -> CanonicalConfig:
    return CanonicalConfig.from_angle(
        float(rng.uniform(-2.5, 2.5)),
        float(rng.uniform(-2.5, 2.5)),
        float(rng.uniform(l_min, 2.5)),
        float(rng.uniform(-np.pi, np.pi)),
    )


def random_segment(rng: np.random.Generator, span: float = 4.0) -> Segment:
    while True:
        p = rng.uniform(-span, span, 2)
        q = rng.uniform(-span, span, 2)
        if np.hypot(*(p - q)) > 1e-3:
            return Segment.of(tuple(p), tuple(q))
