import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from avd import (
    CanonicalConfig,
    EndpointQuery,
    IdenticalSegments,
    Point,
    Segment,
    SimilarityTransform,
    canonicalize,
    visual_angle,
)
from conftest import random_segment

S1 = Segment.of((-1.0, 0.0), (1.0, 0.0))

finite = st.floats(min_value=-50, max_value=50, allow_nan=False)


class TestVisualAngle:
    def test_right_angle(self):
        assert visual_angle(Point(0.0, 1.0), S1) == pytest.approx(math.pi / 2)

    def test_sixty_degrees(self):
        assert visual_angle(Point(0.0, math.sqrt(3.0)), S1) == pytest.approx(math.pi / 3)

    def test_on_open_segment_is_straight(self):
        assert visual_angle(Point(0.0, 0.0), S1) == math.pi

    def test_on_carrier_outside_is_zero(self):
        assert visual_angle(Point(5.0, 0.0), S1) == 0.0
        assert visual_angle(Point(-2.5, 0.0), S1) == 0.0

    def test_endpoint_raises(self):
        with pytest.raises(EndpointQuery):
            visual_angle(Point(1.0, 0.0), S1)
        with pytest.raises(EndpointQuery):
            visual_angle(Point(-1.0, 0.0), S1)

    @settings(max_examples=200, derandomize=True)
    @given(finite, finite, finite, finite, finite, finite)
    def test_range_and_swap_symmetry(self, px, py, ax, ay, bx, by):
        if (ax, ay) == (bx, by) or (px, py) in ((ax, ay), (bx, by)):
            return
        s = Segment.of((ax, ay), (bx, by))
        theta = visual_angle(Point(px, py), s)
        assert 0.0 <= theta <= math.pi
        assert visual_angle(Point(px, py), Segment(s.e1, s.e0)) == theta

    @settings(max_examples=150, derandomize=True)
    @given(
        finite, finite, finite, finite, finite, finite,
        st.floats(min_value=-math.pi, max_value=math.pi),
        st.floats(min_value=0.05, max_value=20.0),
        finite, finite,
    )
    def test_similarity_invariance(self, px, py, ax, ay, bx, by, rot, scale, tx, ty):
        # well-conditioned inputs only: the query point must stay clearly off
        # both endpoints, or the angle is undefined on one side of the map
        if math.hypot(bx - ax, by - ay) < 1e-6:
            return
        if min(math.hypot(px - ax, py - ay), math.hypot(px - bx, py - by)) < 1e-6:
            return
        s = Segment.of((ax, ay), (bx, by))
        p = Point(px, py)
        t = SimilarityTransform(rot, scale, (tx, ty))
        before = visual_angle(p, s)
        after = visual_angle(t(p), t.apply_segment(s))
        assert abs(before - after) <= 1e-9


class TestSimilarityTransform:
    def test_identity(self):
        t = SimilarityTransform.identity()
        assert t(Point(3.0, 4.0)) == Point(3.0, 4.0)

    def test_quarter_turn(self):
        t = SimilarityTransform(math.pi / 2, 1.0, (0.0, 0.0))
        p = t(Point(1.0, 0.0))
        assert p.x == pytest.approx(0.0, abs=1e-15)
        assert p.y == pytest.approx(1.0)

    def test_scale_and_translate(self):
        t = SimilarityTransform(0.0, 2.0, (1.0, 1.0))
        assert t(Point(1.0, 1.0)) == Point(3.0, 3.0)

    def test_inverse_round_trip(self, rng):
        for _ in range(50):
            t = SimilarityTransform(
                float(rng.uniform(-math.pi, math.pi)),
                float(rng.uniform(0.1, 10.0)),
                tuple(rng.uniform(-5, 5, 2)),
            )
            inv = t.inverse()
            p = Point(*rng.uniform(-10, 10, 2))
            q = inv(t(p))
            assert math.hypot(q.x - p.x, q.y - p.y) <= 1e-12 * (1 + math.hypot(p.x, p.y))

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            SimilarityTransform(0.0, 0.0, (0.0, 0.0))


class TestCanonicalize:
    def test_already_canonical(self):
        cfg = canonicalize(S1, Segment.of((1.0, 1.0), (3.0, 1.0)))
        assert (cfg.a, cfg.b, cfg.l) == pytest.approx((2.0, 1.0, 1.0))
        assert cfg.alpha == pytest.approx(0.0)
        assert cfg.to_world == SimilarityTransform.identity()

    def test_translation_and_vertical_partner(self):
        cfg = canonicalize(
            Segment.of((0.0, 0.0), (2.0, 0.0)), Segment.of((3.0, 1.0), (3.0, 3.0))
        )
        assert (cfg.a, cfg.b, cfg.l) == pytest.approx((2.0, 2.0, 1.0))
        assert cfg.alpha == pytest.approx(math.pi / 2)

    def test_vertical_pair(self):
        # Both segments vertical; the offset lands perpendicular to the
        # canonical first segment, i.e. in b, not a.
        s1 = Segment.of((0.0, 0.0), (0.0, 4.0))
        s2 = Segment.of((2.0, 0.0), (2.0, 4.0))
        cfg = canonicalize(s1, s2)
        assert (cfg.a, cfg.b, cfg.l) == pytest.approx((0.0, -1.0, 1.0))
        assert abs(cfg.alpha) in (pytest.approx(0.0), pytest.approx(math.pi))
        # visual-angle invariance spot checks pin the transform
        for p_world, s_world in (((1.0, 2.0), s1), ((5.0, -1.0), s2)):
            p = Point(*p_world)
            pc = cfg.to_world.inverse()(p)
            sc = cfg.canonical_s1() if s_world is s1 else cfg.canonical_s2()
            assert visual_angle(p, s_world) == pytest.approx(
                visual_angle(pc, sc), abs=1e-9
            )

    def test_s1_endpoint_mapping(self, rng):
        for _ in range(50):
            s1 = random_segment(rng)
            s2 = random_segment(rng)
            cfg = canonicalize(s1, s2)
            lo = cfg.to_world(Point(-1.0, 0.0))
            hi = cfg.to_world(Point(1.0, 0.0))
            scale = max(1.0, math.hypot(s1.e1.x - s1.e0.x, s1.e1.y - s1.e0.y))
            assert math.hypot(lo.x - s1.e0.x, lo.y - s1.e0.y) <= 1e-12 * scale
            assert math.hypot(hi.x - s1.e1.x, hi.y - s1.e1.y) <= 1e-12 * scale

    def test_s2_round_trip(self, rng):
        for _ in range(50):
            s1 = random_segment(rng)
            s2 = random_segment(rng)
            cfg = canonicalize(s1, s2)
            back = cfg.world_s2()
            want = sorted([(p.x, p.y) for p in s2.endpoints])
            got = sorted([(p.x, p.y) for p in back.endpoints])
            scale = max(1.0, *(abs(c) for pair in want for c in pair))
            for (wx, wy), (gx, gy) in zip(want, got):
                assert math.hypot(wx - gx, wy - gy) <= 1e-10 * scale

    def test_identical_segments_rejected(self):
        with pytest.raises(IdenticalSegments):
            canonicalize(S1, Segment.of((-1.0, 0.0), (1.0, 0.0)))
        with pytest.raises(IdenticalSegments):
            canonicalize(S1, Segment.of((1.0, 0.0), (-1.0, 0.0)))

    @pytest.mark.parametrize("s2", [
        # s2's canonical endpoints round together (s1 maps by 2e-308)
        Segment.of((0.0, 1.0), (1.0, 1.0)),
        # the pair's diameter overflows
        Segment.of((1e308, 1.0), (0.0, 1.0)),
    ])
    def test_out_of_range_pair_is_a_value_error(self, s2):
        with pytest.raises(ValueError) as info:
            canonicalize(Segment.of((-1e308, 0.0), (0.0, 0.0)), s2)
        assert not isinstance(info.value, IdenticalSegments)

    def test_mirrored_same_point_set(self):
        cfg = canonicalize(S1, Segment.of((0.5, 1.0), (2.0, 2.0)))
        m = cfg.mirrored()
        a = sorted((p.x, p.y) for p in cfg.canonical_s2().endpoints)
        bpts = sorted((p.x, p.y) for p in m.canonical_s2().endpoints)
        assert a == pytest.approx(bpts)


class TestConfigValidation:
    def test_l_positive(self):
        with pytest.raises(ValueError):
            CanonicalConfig.from_angle(0.0, 1.0, 0.0, 0.0)

    def test_unit_trig(self):
        with pytest.raises(ValueError):
            CanonicalConfig(0.0, 1.0, 1.0, 0.5, 0.5)

    @pytest.mark.parametrize(
        "sin_alpha, cos_alpha",
        [(math.nan, 1.0), (0.0, math.nan), (math.inf, 0.0), (0.0, -math.inf)],
    )
    def test_trig_requires_finite(self, sin_alpha, cos_alpha):
        with pytest.raises(ValueError):
            CanonicalConfig(0.0, 1.0, 1.0, sin_alpha, cos_alpha)

    def test_alpha_is_derived_from_the_angle(self):
        for theta in [*np.linspace(-3 * math.pi, 3 * math.pi, 97), -math.pi, math.pi]:
            alpha = CanonicalConfig.from_angle(0.5, 1.0, 1.0, theta).alpha
            assert -math.pi <= alpha <= math.pi
            assert abs(math.remainder(alpha - theta, 2 * math.pi)) <= 1e-12

    def test_mirrored_twice_is_identity(self, rng):
        for _ in range(20):
            cfg = canonicalize(random_segment(rng), random_segment(rng))
            assert cfg.mirrored().mirrored() == cfg
            assert cfg.mirrored() != cfg

    def test_point_requires_finite(self):
        with pytest.raises(ValueError):
            Point(float("nan"), 0.0)

    def test_segment_requires_distinct(self):
        with pytest.raises(ValueError):
            Segment.of((1.0, 2.0), (1.0, 2.0))
