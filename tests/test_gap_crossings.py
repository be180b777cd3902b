"""The oracle's gap bisection (_refine_crossings) against the fn-generic
bisection it replaced (bisection.bisect_crossings), which evaluates the gap
field at every midpoint, on both labelings of each pair.

The kernel computes the same element-wise arithmetic in another order of
calls: the fixed coordinate's differences once per bracket, both sites in
one pass, the endpoint test only where an endpoint lies on a bracket's line.
Every vertex must therefore be the reference's bit for bit, on every
bracket the gap march refines, including midpoints that land exactly on a
segment endpoint, where both see a NaN angle, and on a segment's interior,
where the signed angle is +-pi by the sign of a zero cross product.
"""

import json

import numpy as np
import pytest

from avd import CanonicalConfig, GridSpec, Segment, canonicalize
from avd.cli import EXIT_BAD_CONFIG, main
from avd.oracle import _endpoint_cells, _gap_field, _march, _refine_crossings, _segment_angles
from avd.tolerances import GAP_VERTEX_TOL
from bisection import bisect_crossings
from conftest import FAMILIES, random_config, random_segment

OVERFLOW = CanonicalConfig(1e154, 0.0, 1e154, 0.6, 0.8)


def march_brackets(s1, s2, grid):
    """(p0, p1, s0) of the crossings the gap march refines, found with the
    floating-point errors ignored; None when the gap never changes sign."""
    found = []

    def refine(p0, p1, s0):
        found.append((p0, p1, s0))
        return _refine_crossings(p0, p1, s0, s1, s2)

    with np.errstate(all="ignore"):
        _march(_gap_field(s1, s2), grid, refine, _endpoint_cells(grid, (s1, s2)), GAP_VERTEX_TOL)
    return found[0] if found else None


def check_kernel(s1, s2, grid):
    """Assert the kernel's vertices are the reference's bytes; return the
    number of brackets, whether a midpoint landed on an endpoint and whether
    one landed on a segment's interior, where its angle is +-pi."""
    brackets = march_brackets(s1, s2, grid)
    if brackets is None:
        return 0, False, False
    fn = _gap_field(s1, s2)
    nan_seen, pi_seen = [], []

    def recording(X, Y):
        values = fn(X, Y)
        nan_seen.append(bool(np.isnan(values).any()))
        pi_seen.append(any((np.abs(_segment_angles(X, Y, s)) == np.pi).any() for s in (s1, s2)))
        return values

    got = _refine_crossings(*brackets, s1, s2)
    want = bisect_crossings(*brackets, recording)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    return len(got), any(nan_seen), any(pi_seen)


def labelings(config):
    """The canonical pair under both labelings of s2."""
    return [(c.canonical_s1(), c.canonical_s2()) for c in (config, config.mirrored())]


def reversed_segment(s):
    return Segment(s.e1, s.e0)


@pytest.mark.parametrize("seed", range(6))
def test_bench_like_pairs(seed):
    rng = np.random.default_rng(seed)
    pairs = [canonicalize(random_segment(rng), random_segment(rng)), random_config(rng)]
    for config in pairs:
        for s1, s2 in labelings(config):
            assert check_kernel(s1, s2, GridSpec.canonical_window(config, 256))[0] > 0


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_family_draws(family):
    rng = np.random.default_rng(3)
    for _ in range(3):
        config = FAMILIES[family](rng)
        for s1, s2 in labelings(config):
            assert check_kernel(s1, s2, GridSpec.canonical_window(config, 256))[0] > 0


def test_midpoints_on_endpoints():
    # endpoints at multiples of 0.25 on a grid of step 0.5: an endpoint on a
    # grid line halves its cell edge, and bisection reaches it at step 1
    rng = np.random.default_rng(5)
    grid = GridSpec.square(4.0, 17)
    draws = hits = 0
    while draws < 60:
        ends = np.round(rng.uniform(-3.0, 3.0, (4, 2)) * 4.0) / 4.0
        if (ends[0] == ends[1]).all() or (ends[2] == ends[3]).all():
            continue
        draws += 1
        s1, s2 = Segment.of(*ends[:2]), Segment.of(*ends[2:])
        for s in (s2, reversed_segment(s2)):
            hits += check_kernel(s1, s, grid)[1]
    assert hits >= draws // 2


@pytest.mark.parametrize("vertical", [False, True])
def test_midpoints_on_segment_interiors(vertical):
    # segments lying on grid lines of step 0.5, on one line or on two
    # neighbouring ones: brackets along those lines put bisection midpoints
    # on the segments' interiors, where the cross product is a signed zero
    def point(t, line):
        return (line, t) if vertical else (t, line)

    grid = GridSpec.square(4.0, 17)
    rng = np.random.default_rng(9)
    hits = 0
    for _ in range(12):
        line, a, b, c, d = (np.round(rng.uniform(-3.0, 3.0, 5) * 2.0) / 2.0).tolist()
        if a == b or c == d:
            continue
        s1 = Segment.of(point(a, line), point(b, line))
        s2_line = line + float(rng.choice([0.0, 0.5]))
        s2 = Segment.of(point(c, s2_line), point(d, s2_line))
        for s in (s2, reversed_segment(s2)):
            hits += check_kernel(s1, s, grid)[2]
    assert hits > 0


def test_grid_lines_at_negative_zero():
    # linspace ends an axis exactly on its bound, here -0.0, so the top row
    # and the right column lie on -0.0; the reference's point there is
    # -0.0 + mid * 0.0 = +0.0
    grid = GridSpec(-4.0, -0.0, -4.0, -0.0, 17, 17)
    rng = np.random.default_rng(1)
    on_negative_zero = 0
    for _ in range(6):
        s1, s2 = random_segment(rng), random_segment(rng)
        for s in (s2, reversed_segment(s2)):
            brackets = march_brackets(s1, s, grid)
            if brackets is None:
                continue
            p0, p1, _ = brackets
            on_line = (p0 == p1) & (p0 == 0.0) & np.signbit(p0)
            on_negative_zero += int(on_line.any(axis=1).sum())
            check_kernel(s1, s, grid)
    assert on_negative_zero > 0


def test_overflow_is_raised_as_by_the_reference(tmp_path, capsys):
    for s1, s2 in labelings(OVERFLOW):
        brackets = march_brackets(s1, s2, GridSpec.canonical_window(OVERFLOW, 256))
        assert brackets is not None
        with np.errstate(over="raise"):
            for refine in (lambda: _refine_crossings(*brackets, s1, s2),
                           lambda: bisect_crossings(*brackets, _gap_field(s1, s2))):
                with pytest.raises(FloatingPointError):
                    refine()
    path = tmp_path / "overflow.json"
    keys = ("a", "b", "l", "sin_alpha", "cos_alpha")
    path.write_text(json.dumps({"canonical": {k: getattr(OVERFLOW, k) for k in keys}}))
    assert main(["edge", str(path), "--out", str(tmp_path / "r.json")]) == EXIT_BAD_CONFIG
    assert capsys.readouterr().err.startswith("error: edge is out of range: overflow")
