"""Tests for the evaluation battery, checked against brute-force loops."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from swarmflow import metrics
from swarmflow.metrics import (
    MetricsReport,
    chamfer,
    collision_rates,
    coverage_and_mmd,
    distance_traveled,
    evaluate_logs,
    report_keyvalues,
    report_text,
    smoothness,
)
from swarmflow.sampling import TrajectoryLog


def _log_from_positions(positions):
    positions = np.asarray(positions, dtype=np.float64)
    steps = positions.shape[0] - 1
    times = 1.0 - np.arange(steps + 1) / steps
    dt = float(times[0] - times[1])
    velocities = np.diff(positions, axis=0) / dt
    return TrajectoryLog(times=times, positions=positions,
                         applied_velocities=velocities)


def _log_from_velocities(velocities, x0=None):
    velocities = np.asarray(velocities, dtype=np.float64)
    steps, agents = velocities.shape[0], velocities.shape[1]
    times = 1.0 - np.arange(steps + 1) / steps
    dt = float(times[0] - times[1])
    x = np.zeros((agents, 3)) if x0 is None else np.asarray(x0, dtype=np.float64)
    positions = [x]
    for k in range(steps):
        positions.append(positions[-1] + dt * velocities[k])
    return TrajectoryLog(times=times, positions=np.asarray(positions),
                         applied_velocities=velocities)


def _chamfer_loops(a, b):
    total_ab = 0.0
    for p in a:
        total_ab += min(float(np.dot(p - q, p - q)) for q in b)
    total_ba = 0.0
    for q in b:
        total_ba += min(float(np.dot(p - q, p - q)) for p in a)
    return total_ab / len(a) + total_ba / len(b)


def test_chamfer_hand_values():
    origin = np.zeros((1, 3))
    unit_x = np.array([[1.0, 0.0, 0.0]])
    assert chamfer(origin, unit_x) == pytest.approx(2.0, abs=1e-15)
    cloud = np.random.default_rng(0).standard_normal((20, 3))
    assert chamfer(cloud, cloud) == 0.0
    other = np.random.default_rng(1).standard_normal((9, 3))
    assert chamfer(cloud, other) == chamfer(other, cloud)


def test_chamfer_brute_force_oracle():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((17, 3))
    b = rng.standard_normal((23, 3))
    assert chamfer(a, b) == pytest.approx(_chamfer_loops(a, b), abs=1e-10)


def test_chamfer_validation():
    with pytest.raises(ValueError):
        chamfer(np.zeros((0, 3)), np.zeros((4, 3)))
    with pytest.raises(ValueError):
        chamfer(np.zeros((4, 2)), np.zeros((4, 3)))
    with pytest.raises(ValueError):
        chamfer(np.zeros(3), np.zeros((4, 3)))
    for bad in (np.nan, np.inf, -np.inf):
        cloud = np.zeros((4, 3))
        cloud[2, 1] = bad
        with pytest.raises(ValueError, match="cloud a "):
            chamfer(cloud, np.zeros((5, 3)))
        with pytest.raises(ValueError, match="cloud b "):
            chamfer(np.zeros((5, 3)), cloud)


def _dense_chamfer(a, b):
    # the whole (N, M) matrix at once: the reference the blocks must equal
    sq = cdist(a, b, metric="sqeuclidean")
    return float(sq.min(axis=1).mean() + sq.min(axis=0).mean())


def test_chamfer_blocks_equal_the_dense_matrix():
    # small blocks give ragged last blocks and, where len(b) > _BLOCK,
    # blocks of one row; lattice clouds tie distances and repeat points
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def clouds(draw):
        n = draw(st.integers(1, 40))
        seed = draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        kind = draw(st.sampled_from(["normal", "lattice", "repeats"]))
        if kind == "lattice":
            return rng.integers(-2, 3, size=(n, 3)) * 0.5
        cloud = rng.standard_normal((n, 3))
        if kind == "repeats":
            cloud = cloud[rng.integers(0, max(1, n // 4), size=n)]
        return cloud

    seen = set()

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(clouds(), clouds(), st.integers(1, 64))
    def check(a, b, block):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "_BLOCK", block)
            got = chamfer(a, b)
        assert got == _dense_chamfer(a, b)
        rows = max(1, block // len(b))
        if len(b) > block:
            seen.add("one row")
        elif rows >= len(a):
            seen.add("one block")
        else:
            seen.add("ragged" if len(a) % rows else "even")

    check()
    assert seen == {"one row", "one block", "ragged", "even"}, seen


def test_chamfer_memory_is_bounded_at_2048_points():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((2048, 3))
    b = rng.standard_normal((2048, 3))
    tracemalloc.start()
    try:
        chamfer(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the dense (2048, 2048) matrix alone is 32 MiB, one block 2 MiB
    assert peak < 3 * 2**20, peak


def test_coverage_mmd_identical_sets():
    rng = np.random.default_rng(3)
    clouds = [rng.standard_normal((10, 3)) for _ in range(3)]
    cov, mmd = coverage_and_mmd(clouds, clouds)
    assert cov == 1.0
    assert mmd == 0.0


def test_coverage_single_generated_cloud():
    rng = np.random.default_rng(4)
    refs = [rng.standard_normal((8, 3)) for _ in range(3)]
    gen = [rng.standard_normal((8, 3))]
    cov, mmd = coverage_and_mmd(gen, refs)
    assert cov == pytest.approx(1.0 / 3.0)
    expected = np.mean([chamfer(gen[0], r) for r in refs])
    assert mmd == pytest.approx(expected, abs=1e-12)


def test_coverage_two_generated_share_one_reference():
    rng = np.random.default_rng(5)
    refs = [rng.standard_normal((8, 3)) + offset
            for offset in (0.0, 10.0, 20.0)]
    # two generated clouds hug reference 0, one hugs reference 2
    gens = [refs[0] + 1e-3, refs[0] - 1e-3, refs[2] + 1e-3]
    cov, mmd = coverage_and_mmd(gens, refs)
    assert cov == pytest.approx(2.0 / 3.0)
    brute = np.mean([min(chamfer(g, r) for g in gens) for r in refs])
    assert mmd == pytest.approx(brute, abs=1e-12)


def test_coverage_mmd_brute_force_oracle():
    rng = np.random.default_rng(6)
    gens = [rng.standard_normal((7, 3)) for _ in range(4)]
    refs = [rng.standard_normal((9, 3)) for _ in range(5)]
    cov, mmd = coverage_and_mmd(gens, refs)
    matched = {int(np.argmin([chamfer(g, r) for r in refs])) for g in gens}
    assert cov == len(matched) / len(refs)
    brute = np.mean([min(chamfer(g, r) for g in gens) for r in refs])
    assert mmd == pytest.approx(brute, abs=1e-12)


def test_coverage_improves_with_more_generated_clouds():
    rng = np.random.default_rng(7)
    refs = [rng.standard_normal((8, 3)) + 5.0 * k for k in range(4)]
    partial = [refs[0] + 1e-2]
    fuller = partial + [refs[k] + 1e-2 for k in (1, 2, 3)]
    cov_partial, mmd_partial = coverage_and_mmd(partial, refs)
    cov_fuller, mmd_fuller = coverage_and_mmd(fuller, refs)
    assert cov_fuller >= cov_partial
    assert mmd_fuller <= mmd_partial


def test_coverage_mmd_validation():
    with pytest.raises(ValueError):
        coverage_and_mmd([], [np.zeros((3, 3))])
    with pytest.raises(ValueError):
        coverage_and_mmd([np.zeros((3, 3))], [])


def test_collision_rates_hand_values():
    kappa = 0.06
    far = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                    [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    near = far.copy()
    near[1] = near[0] + np.array([0.5 * kappa, 0.0, 0.0])
    log = _log_from_positions([far, near, far])
    traj, fin = collision_rates(log, kappa)
    assert traj == pytest.approx(100.0 / 6.0)  # frames: 0%, 50%, 0%
    assert fin == 0.0


def test_collision_rates_boundary_is_safe():
    kappa = 0.06
    pair = np.array([[0.0, 0.0, 0.0], [kappa, 0.0, 0.0]])
    log = _log_from_positions([pair, pair + 1.0])
    traj, fin = collision_rates(log, kappa)
    assert traj == 0.0
    assert fin == 0.0


def test_collision_rates_permanent_pair():
    kappa = 0.06
    pair = np.array([[0.0, 0.0, 0.0], [0.5 * kappa, 0.0, 0.0]])
    log = _log_from_positions([pair, pair + 2.0, pair + 4.0])
    traj, fin = collision_rates(log, kappa)
    assert traj == 100.0
    assert fin == 100.0


def test_collision_rates_single_agent_and_validation():
    log = _log_from_positions(np.zeros((3, 1, 3)) +
                              np.arange(3)[:, None, None])
    assert collision_rates(log, 0.06) == (0.0, 0.0)
    for bad in (0.0, 0, -1.0, np.inf, np.nan, "0.1", None, True):
        with pytest.raises(ValueError, match="^kappa must be finite and "
                           f"positive, got {re.escape(repr(bad))}$"):
            collision_rates(log, bad)


def test_collision_rates_brute_force_oracle():
    rng = np.random.default_rng(8)
    kappa = 0.4
    log = _log_from_positions(rng.standard_normal((6, 10, 3)))
    traj, fin = collision_rates(log, kappa)
    per_frame = []
    for frame in log.positions:
        count = 0
        for i in range(10):
            hit = False
            for j in range(10):
                if j != i and np.linalg.norm(frame[i] - frame[j]) < kappa:
                    hit = True
            count += hit
        per_frame.append(100.0 * count / 10)
    assert traj == pytest.approx(np.mean(per_frame), abs=1e-12)
    assert fin == pytest.approx(per_frame[-1], abs=1e-12)


def _reference_collision_rates(log, kappa):
    """Dense per-frame distance matrix, as collision_rates used to work."""
    per_frame = []
    for frame in log.positions:
        d = cdist(frame, frame)
        np.fill_diagonal(d, np.inf)
        per_frame.append(100.0 * float(np.count_nonzero(
            np.any(d < kappa, axis=1))) / frame.shape[0])
    return float(np.mean(per_frame)), per_frame[-1]


def test_collision_rates_match_dense_reference_bitwise():
    kappa = 0.06
    for seed in range(5):
        rng = np.random.default_rng(300 + seed)
        frames = rng.uniform(-0.4, 0.4, size=(7, 200, 3))
        frames[1, 5] = frames[1, 4]  # coincident agents
        frames[2, 9] = frames[2, 8] + np.array([0.0, kappa, 0.0])
        frames[3, 11] = frames[3, 10] + np.array([0.999999 * kappa, 0.0, 0.0])
        log = _log_from_positions(frames)
        assert collision_rates(log, kappa) == _reference_collision_rates(
            log, kappa)


def test_smoothness_constant_velocity_is_perfectly_smooth():
    v = np.tile(np.array([0.3, -0.2, 0.1]), (6, 4, 1))
    acc, jerk, dirchange = smoothness(_log_from_velocities(v))
    assert acc == 0.0
    assert jerk == 0.0
    assert dirchange == 0.0


def test_smoothness_hand_values():
    v = np.array([[[1.0, 0.0, 0.0]], [[0.0, 2.0, 0.0]], [[-3.0, 0.0, 0.0]]])
    log = _log_from_velocities(v)
    acc, jerk, dirchange = smoothness(log)
    assert acc == pytest.approx(1.0)  # speeds 1, 2, 3
    assert jerk == pytest.approx(math.sqrt(20.0))  # (-2, -4, 0)
    assert dirchange == pytest.approx(math.pi / 2.0)


def test_smoothness_skips_zero_velocity_directions():
    v = np.array([[[1.0, 0.0, 0.0]], [[0.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]]])
    acc, jerk, dirchange = smoothness(_log_from_velocities(v))
    assert dirchange == 0.0
    assert acc == pytest.approx(1.0)
    assert jerk == pytest.approx(math.sqrt(2.0))


def test_smoothness_of_short_runs():
    assert smoothness(_log_from_velocities(np.ones((1, 2, 3)))) == \
        (0.0, 0.0, 0.0)
    # two steps have a speed change and a heading change but no jerk
    v = np.array([[[1.0, 0.0, 0.0]], [[0.0, 2.0, 0.0]]])
    assert smoothness(_log_from_velocities(v)) == \
        (1.0, 0.0, pytest.approx(math.pi / 2.0))


def test_smoothness_brute_force_oracle():
    rng = np.random.default_rng(9)
    v = rng.standard_normal((12, 5, 3))
    acc, jerk, dirchange = smoothness(_log_from_velocities(v))
    acc_sum = []
    dir_sum = []
    jerk_sum = []
    for m in range(5):
        for k in range(11):
            s0 = np.linalg.norm(v[k, m])
            s1 = np.linalg.norm(v[k + 1, m])
            acc_sum.append(abs(s1 - s0))
            cosine = np.dot(v[k, m], v[k + 1, m]) / (s0 * s1)
            dir_sum.append(math.acos(max(-1.0, min(1.0, cosine))))
        for k in range(10):
            second = v[k + 2, m] - 2.0 * v[k + 1, m] + v[k, m]
            jerk_sum.append(np.linalg.norm(second))
    assert acc == pytest.approx(np.mean(acc_sum), abs=1e-12)
    assert jerk == pytest.approx(np.mean(jerk_sum), abs=1e-12)
    assert dirchange == pytest.approx(np.mean(dir_sum), abs=1e-12)


def test_distance_traveled_straight_line():
    a = np.array([[0.0, 0.0, 0.0]])
    b = np.array([[3.0, 4.0, 0.0]])
    frames = [a + (b - a) * k / 10.0 for k in range(11)]
    assert distance_traveled(_log_from_positions(frames)) == \
        pytest.approx(5.0, abs=1e-12)


def test_distance_traveled_brute_force_oracle_and_lower_bound():
    rng = np.random.default_rng(10)
    positions = rng.standard_normal((8, 6, 3))
    log = _log_from_positions(positions)
    total = 0.0
    for m in range(6):
        for k in range(7):
            total += np.linalg.norm(positions[k + 1, m] - positions[k, m])
    assert distance_traveled(log) == pytest.approx(total / 6.0, abs=1e-12)
    displacement = np.mean(np.linalg.norm(positions[-1] - positions[0], axis=1))
    assert distance_traveled(log) >= displacement - 1e-12


def test_evaluate_logs_pools_over_runs():
    rng = np.random.default_rng(11)
    logs = [_log_from_positions(rng.standard_normal((5, 4, 3)))
            for _ in range(3)]
    kappa = 0.5
    report = evaluate_logs(logs, kappa=kappa)
    assert math.isnan(report.cov) and math.isnan(report.mmd)
    traj = [collision_rates(lg, kappa)[0] for lg in logs]
    fin = [collision_rates(lg, kappa)[1] for lg in logs]
    smooth = [smoothness(lg) for lg in logs]
    assert report.traj_collision_pct == pytest.approx(np.mean(traj), abs=1e-12)
    assert report.final_collision_pct == pytest.approx(np.mean(fin), abs=1e-12)
    assert report.acc == pytest.approx(np.mean([s[0] for s in smooth]), abs=1e-12)
    assert report.jerk == pytest.approx(np.mean([s[1] for s in smooth]), abs=1e-12)
    assert report.dirchange == pytest.approx(np.mean([s[2] for s in smooth]),
                                             abs=1e-12)
    assert report.dist == pytest.approx(
        np.mean([distance_traveled(lg) for lg in logs]), abs=1e-12)


def test_evaluate_logs_scores_final_clouds_against_reference():
    rng = np.random.default_rng(12)
    logs = [_log_from_positions(rng.standard_normal((4, 6, 3)))
            for _ in range(2)]
    reference = [rng.standard_normal((6, 3)) for _ in range(3)]
    report = evaluate_logs(logs, kappa=0.1, reference=reference)
    cov, mmd = coverage_and_mmd([lg.final_cloud() for lg in logs], reference)
    assert report.cov == cov
    assert report.mmd == mmd
    with pytest.raises(ValueError):
        evaluate_logs([], kappa=0.1)


def test_report_text_and_keyvalues():
    report = MetricsReport(cov=0.75, mmd=0.00123456, traj_collision_pct=1.5,
                           final_collision_pct=0.0, acc=0.25, jerk=0.125,
                           dirchange=0.5, dist=2.0)
    text = report_text(report)
    assert "MMD" in text and "1.23456" in text and "(x1e3)" in text
    keyvalues = report_keyvalues(report)
    parsed = {}
    for line in keyvalues.strip().splitlines():
        key, _, value = line.partition(" = ")
        parsed[key] = float(value)
    assert parsed == report.as_dict()
    # quality rows disappear when there was no reference set
    no_ref = MetricsReport(cov=float("nan"), mmd=float("nan"),
                           traj_collision_pct=0.0, final_collision_pct=0.0,
                           acc=0.0, jerk=0.0, dirchange=0.0, dist=0.0)
    assert "COV" not in report_text(no_ref)
    assert "MMD" not in report_text(no_ref)
