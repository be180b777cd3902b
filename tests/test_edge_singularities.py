"""edge_singularities, the Laplacian-line search that classify_edge uses,
against the search by elimination for any cubic in tests/elimination.py.

The two searches differ in their candidates and in typing; the polish,
acceptance and merge do the same arithmetic (tests/test_singular_reference.py).
edge_singularities tags every point a node by the proof
(tests/test_classify.py::TestRightAngleNodes), while the elimination search
types each one from its Hessian, so the comparison is the check of that tag.
On every cubic that classify_edge searches (degree 3, no circle x line
split) they must find the same number of points, of the same kinds, each
within 1e-12 * max(1, |p|) of its partner.
"""

import math

import numpy as np
import pytest

from avd import (
    BivariatePoly,
    CanonicalConfig,
    EdgeClassTag,
    NotFromEdge,
    Segment,
    SharedComponent,
    SingularityKind,
    build_edge,
    canonicalize,
    classify_edge,
    edge_singularities,
    factor_circle_line,
)
import elimination
from conftest import FAMILIES, singular_locus_draws

EPSILONS = [10.0**k for k in range(-12, -3)]


def searched_branches(config):
    """The branch polynomials of config that classify_edge hands to the search."""
    curve = build_edge(config)
    return [
        branch.poly for branch in (curve, curve.mirrored())
        if branch.degree == 3 and factor_circle_line(branch.poly) is None
    ]


def same_points(want, got) -> bool:
    """The same number of points and kinds; the points are matched by
    distance, since two x that differ by an ulp can swap the (x, y) order."""
    if len(want) != len(got):
        return False
    for p in want:
        q = min(got, key=lambda q: math.dist(p.location, q.location))
        scale = max(1.0, math.hypot(*p.location))
        if q.kind.value != p.kind.value or math.dist(p.location, q.location) > 1e-12 * scale:
            return False
    return True


def agree(f) -> bool:
    return same_points(elimination.find_singularities(f), edge_singularities(f))


def family_cubics(draws: int = 30, seed: int = 99):
    rng = np.random.default_rng(seed)
    return [f for draw in FAMILIES.values() for _ in range(draws)
            for f in searched_branches(draw(rng))]


def shared_endpoint_moved(which: int, draws: int = 40, seed: int = 5):
    """(eps, P, config): a verify.shared_endpoint_config pair with endpoint
    `which` of its second segment moved by eps in a random direction; P is
    the shared endpoint (-1, 0) before the move. Endpoint 1 is the shared one."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(draws):
        config = FAMILIES["shared-endpoint"](rng)
        s1, s2 = config.canonical_s1(), config.canonical_s2()
        for eps in EPSILONS:
            phi = rng.uniform(-math.pi, math.pi)
            ends = [tuple(p) for p in s2.endpoints]
            x, y = ends[which]
            ends[which] = (x + eps * math.cos(phi), y + eps * math.sin(phi))
            out.append((eps, s1.e0, canonicalize(s1, Segment.of(*ends))))
    return out


def test_family_pairs_agree():
    cubics = family_cubics()
    assert all(agree(f) for f in cubics)
    # node, shared-endpoint and singular generic branches are among them
    assert sum(1 for f in cubics if elimination.find_singularities(f)) >= 60


def test_singular_locus_draws_agree():
    draws = singular_locus_draws()
    cubics = [f for config, _ in draws for f in searched_branches(config)]
    assert len(cubics) >= 200
    assert all(agree(f) for f in cubics)


def test_moved_far_endpoint_agrees():
    cubics = [f for _, _, config in shared_endpoint_moved(0) for f in searched_branches(config)]
    assert len(cubics) >= 300
    assert all(agree(f) for f in cubics)


def test_moved_shared_endpoint_loses_only_false_isolated_points():
    """With the shared endpoint P moved by eps > 0 no endpoint is shared, so
    every singular point is a right-angle node (TestRightAngleNodes). The
    branch that factored at eps = 0 keeps a local extremum next to P whose
    value is O(eps^2); for eps up to about 1e-7 it passes the elimination
    search's rounding acceptance as an isolated point. That point is off the
    Laplacian line, and edge_singularities does not report it. Every other
    cubic agrees."""
    lost = 0
    for eps, p, config in shared_endpoint_moved(1):
        for f in searched_branches(config):
            want, got = elimination.find_singularities(f), edge_singularities(f)
            if same_points(want, got):
                continue
            assert got == [] and [q.kind for q in want] == [elimination.Kind.ISOLATED_POINT]
            assert eps <= 1e-7 and math.dist(want[0].location, p) <= 1e-6
            lost += 1
    assert lost > 0


def test_falls_back_to_f_y_on_the_line():
    # y (x^2 + y^2 - 1): the Laplacian line is y = 0, where f_x = 2xy vanishes
    f = BivariatePoly.from_terms({(2, 1): 1.0, (0, 3): 1.0, (0, 1): -1.0})
    got = edge_singularities(f)
    assert [(p.location.x, p.location.y, p.kind) for p in got] == [
        (-1.0, 0.0, SingularityKind.NODE), (1.0, 0.0, SingularityKind.NODE)
    ]
    assert agree(f)


def test_both_partials_vanish_on_the_line():
    f = BivariatePoly.from_terms({(0, 3): 1.0})
    for search in (edge_singularities, elimination.find_singularities):
        with pytest.raises(SharedComponent):
            search(f)


def test_constant_laplacian_is_not_an_edge():
    # Re(z^3) + y is harmonic: f_xx + f_yy vanishes everywhere
    with pytest.raises(NotFromEdge):
        edge_singularities(BivariatePoly.from_terms({(3, 0): 1.0, (1, 2): -3.0, (0, 1): 1.0}))


@pytest.mark.parametrize("a", [1e85, 1e100, 1e150])
def test_far_pair_classifies(a):
    # the Laplacian line's normal (u, v) is about 1/a^2, so its squared norm
    # underflows; both labelings are regular, as they are at a = 1e80
    curve = build_edge(CanonicalConfig(a, 0.0, 1.0, 0.6, 0.8))
    for branch in (curve, curve.mirrored()):
        cls = classify_edge(branch)
        assert (cls.tag, cls.singularities) == (EdgeClassTag.CUBIC_IRREDUCIBLE_REGULAR, ())
