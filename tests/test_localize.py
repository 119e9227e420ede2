import numpy as np
import pytest
from numpy.testing import assert_allclose

from rssfield.localize import CentroidState, NoFixError, centroid_update
from rssfield.model import D_MIN, MeasurementSnapshot, Position, clamped_distances


def snap(positions, rss, t=0):
    positions = np.asarray(positions, dtype=float).reshape(-1, 2)
    return MeasurementSnapshot(
        t=t, sensor_ids=tuple(range(len(positions))), positions=positions, rss=np.asarray(rss, dtype=float)
    )


def test_centroid_single_sensor():
    state = centroid_update(CentroidState.empty(), snap([[3.0, 4.0]], [-55.0]))
    assert_allclose([state.estimate.x, state.estimate.y], [3.0, 4.0])


def test_centroid_raises_no_fix_error_when_the_weights_overflow():
    # 10^(z/10) overflows above about 3083 dBm; numpy's overflow warning would
    # be an error here, so the update must not emit one either
    with pytest.raises(NoFixError, match="overflow"):
        centroid_update(CentroidState.empty(), snap([[3.0, 4.0], [5.0, 6.0]], [-55.0, 4000.0]))
    # finite weights whose weighted sum overflows
    with pytest.raises(NoFixError, match="overflow"):
        centroid_update(CentroidState.empty(), snap([[1e300, 0.0], [1e300, 1.0]], [3000.0, 3000.0]))
    # finite weights whose running total overflows
    state = centroid_update(CentroidState.empty(), snap([[0.5, 0.5]], [3080.0]))
    with pytest.raises(NoFixError, match="overflow"):
        centroid_update(state, snap([[0.5, 0.5]], [3080.0], t=1))


def test_centroid_symmetry():
    state = centroid_update(CentroidState.empty(), snap([[0.0, 0.0], [2.0, 0.0]], [-40.0, -40.0]))
    assert_allclose([state.estimate.x, state.estimate.y], [1.0, 0.0], atol=1e-12)


def test_centroid_two_snapshot_recursion_hand_unrolled():
    # z = 0 dBm gives weight 1 per sensor; two sequential single-sensor
    # snapshots at (0,0) then (4,0) average to (2,0)
    s1 = centroid_update(CentroidState.empty(), snap([[0.0, 0.0]], [0.0]))
    s2 = centroid_update(s1, snap([[4.0, 0.0]], [0.0], t=1))
    assert_allclose([s2.estimate.x, s2.estimate.y], [2.0, 0.0], atol=1e-12)
    assert_allclose(s2.total_weight, 2.0)


def test_centroid_permutation_invariance():
    rng = np.random.default_rng(0)
    pos = rng.uniform(0, 100, (6, 2))
    rss = rng.uniform(-90, -40, 6)
    a = centroid_update(CentroidState.empty(), snap(pos, rss))
    perm = rng.permutation(6)
    b = centroid_update(CentroidState.empty(), snap(pos[perm], rss[perm]))
    assert_allclose([a.estimate.x, a.estimate.y], [b.estimate.x, b.estimate.y], rtol=1e-12)


def test_centroid_stays_in_convex_hull():
    rng = np.random.default_rng(1)
    state = CentroidState.empty()
    all_pos = []
    for t in range(5):
        pos = rng.uniform(-50, 50, (4, 2))
        all_pos.append(pos)
        state = centroid_update(state, snap(pos, rng.uniform(-80, -30, 4), t=t))
    pts = np.vstack(all_pos)
    est = np.array([state.estimate.x, state.estimate.y])
    # inside the bounding box is implied by inside the hull; check the box
    # plus support-function dominance along random directions
    for _ in range(50):
        u = rng.normal(size=2)
        u /= np.hypot(*u)
        assert est @ u <= np.max(pts @ u) + 1e-9


def test_centroid_empty_snapshot_no_fix():
    state = centroid_update(CentroidState.empty(), snap(np.zeros((0, 2)), []))
    assert not state.has_fix


def test_distances_to_fix_values_and_clamp():
    state = centroid_update(CentroidState.empty(), snap([[0.0, 0.0]], [0.0]))
    d = clamped_distances([[3.0, 4.0], [0.0, 0.0]], state.estimate)
    assert_allclose(d, [5.0, D_MIN])


def test_distances_batch_matches_elementwise():
    fix = Position(10.0, -3.0)
    rng = np.random.default_rng(2)
    pts = rng.uniform(-100, 100, (10, 2))
    batch = clamped_distances(pts, fix)
    single = [clamped_distances(p.reshape(1, 2), fix)[0] for p in pts]
    assert_allclose(batch, single, rtol=1e-15)
