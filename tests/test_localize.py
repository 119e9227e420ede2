import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from rssfield.localize import CentroidState, NoFixError, centroid_update
from rssfield.model import D_MIN, MeasurementSnapshot, Position, clamped_distances


def snap(positions, rss, t=0):
    positions = np.asarray(positions, dtype=float).reshape(-1, 2)
    return MeasurementSnapshot(
        t=t, positions=positions, rss=np.asarray(rss, dtype=float)
    )


def test_centroid_single_sensor():
    state = centroid_update(CentroidState(), snap([[3.0, 4.0]], [-55.0]))
    assert_allclose([state.estimate.x, state.estimate.y], [3.0, 4.0])


def test_centroid_raises_no_fix_error_when_the_weights_overflow():
    # 10^(z/10) overflows above about 3083 dBm; numpy's overflow warning would
    # be an error here, so the update must not emit one either
    with pytest.raises(NoFixError, match="overflow"):
        centroid_update(CentroidState(), snap([[3.0, 4.0], [5.0, 6.0]], [-55.0, 4000.0]))
    # finite weights whose weighted sum overflows
    with pytest.raises(NoFixError, match="overflow"):
        centroid_update(CentroidState(), snap([[1e300, 0.0], [1e300, 1.0]], [3000.0, 3000.0]))
    # finite weights whose running total overflows
    state = centroid_update(CentroidState(), snap([[0.5, 0.5]], [3080.0]))
    with pytest.raises(NoFixError, match="overflow"):
        centroid_update(state, snap([[0.5, 0.5]], [3080.0], t=1))


@pytest.mark.parametrize("weight", [0.0, 1e-7, 2.5])
def test_centroid_update_is_the_weighted_mean_of_the_fix_and_the_reports(weight):
    # the carried fix enters as one more point, weighted by the carried weight W:
    # (fix * W + sum w_i x_i) / (W + sum w_i), bit for bit
    rng = np.random.default_rng(3)
    pos = rng.uniform(0, 200, (7, 2))
    rss = rng.uniform(-80, -40, 7)
    fix = Position(120.0, 35.0)
    state = centroid_update(CentroidState(fix, weight), snap(pos, rss, t=1))
    w = np.power(10.0, rss / 10.0)
    total = weight + float(np.sum(w))
    assert_array_equal(state.estimate.as_array(), (fix.as_array() * weight + w @ pos) / total)
    assert state.total_weight == total


def test_centroid_symmetry():
    state = centroid_update(CentroidState(), snap([[0.0, 0.0], [2.0, 0.0]], [-40.0, -40.0]))
    assert_allclose([state.estimate.x, state.estimate.y], [1.0, 0.0], atol=1e-12)


def test_centroid_two_snapshot_recursion_hand_unrolled():
    # z = 0 dBm gives weight 1 per sensor; two sequential single-sensor
    # snapshots at (0,0) then (4,0) average to (2,0)
    s1 = centroid_update(CentroidState(), snap([[0.0, 0.0]], [0.0]))
    s2 = centroid_update(s1, snap([[4.0, 0.0]], [0.0], t=1))
    assert_allclose([s2.estimate.x, s2.estimate.y], [2.0, 0.0], atol=1e-12)
    assert_allclose(s2.total_weight, 2.0)


def test_centroid_permutation_invariance():
    rng = np.random.default_rng(0)
    pos = rng.uniform(0, 100, (6, 2))
    rss = rng.uniform(-90, -40, 6)
    a = centroid_update(CentroidState(), snap(pos, rss))
    perm = rng.permutation(6)
    b = centroid_update(CentroidState(), snap(pos[perm], rss[perm]))
    assert_allclose([a.estimate.x, a.estimate.y], [b.estimate.x, b.estimate.y], rtol=1e-12)


def test_centroid_stays_in_convex_hull():
    rng = np.random.default_rng(1)
    state = CentroidState()
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


def test_distances_to_fix_values_and_clamp():
    state = centroid_update(CentroidState(), snap([[0.0, 0.0]], [0.0]))
    d = clamped_distances([[3.0, 4.0], [0.0, 0.0]], state.estimate)
    assert_allclose(d, [5.0, D_MIN])


def test_distances_batch_matches_elementwise():
    fix = Position(10.0, -3.0)
    rng = np.random.default_rng(2)
    pts = rng.uniform(-100, 100, (10, 2))
    batch = clamped_distances(pts, fix)
    single = [clamped_distances(p.reshape(1, 2), fix)[0] for p in pts]
    assert_allclose(batch, single, rtol=1e-15)
