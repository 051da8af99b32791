import numpy as np
import pytest

from upcr import geom
from upcr.geom import PointCloud, RigidTransform
from upcr.rng import Rng

from conftest import (_select_k_oracle, canonicalize, chamfer, decode_rotation,
                      inverse_transform, neighbor_table_oracle, random_cloud, random_transform,
                      sqdist_oracle, traced_peak)


# ---------------------------------------------------------------------------
# containers


def test_point_cloud_validation():
    with pytest.raises(ValueError):
        PointCloud(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        PointCloud(np.array([[np.inf, 0, 0]]))


def test_rigid_transform_validation():
    with pytest.raises(ValueError):
        RigidTransform(np.diag([1.0, 1.0, -1.0]), np.zeros(3))  # reflection
    with pytest.raises(ValueError):
        RigidTransform(2 * np.eye(3), np.zeros(3))
    # NaN fails no comparison, so the orthonormality and determinant checks pass it
    with pytest.raises(ValueError, match="rotation and translation must be finite"):
        RigidTransform(np.full((3, 3), np.nan), np.zeros(3))
    with pytest.raises(ValueError, match="rotation and translation must be finite"):
        RigidTransform(np.eye(3), [0.0, np.nan, 0.0])


# ---------------------------------------------------------------------------
# knn


def test_knn_axis_points():
    cloud = PointCloud([[0.0, 0, 0], [1.0, 0, 0], [3.0, 0, 0]])
    np.testing.assert_array_equal(geom.knn(cloud, 1), [[1], [0], [1]])


def test_knn_full_neighborhood_is_permutation():
    rng = Rng(2)
    cloud = random_cloud(rng, 12)
    table = geom.knn(cloud, 11)
    for i, row in enumerate(table):
        assert i not in row
        assert sorted(row) == sorted(set(range(12)) - {i})


# both entry points to the one neighbor rule, on an [N, 3] array
TABLES = {
    "knn": lambda p, k: geom.knn(PointCloud(p), k),
    "graph_knn": geom.graph_knn,
}


def test_knn_matches_brute_force_oracle():
    rng = Rng(7)
    pts = rng.uniform(-1, 1, (100, 3))
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
    np.fill_diagonal(d2, np.inf)
    oracle = np.argsort(d2, axis=1, kind="stable")[:, :24]
    for name, table in TABLES.items():
        np.testing.assert_array_equal(table(pts, 24), oracle, err_msg=name)


def test_knn_tie_rule_on_grid():
    g = np.stack(np.meshgrid(*[np.arange(5.0)] * 3, indexing="ij"), -1).reshape(-1, 3)
    d2 = ((g[:, None, :] - g[None, :, :]) ** 2).sum(-1)
    np.fill_diagonal(d2, np.inf)
    oracle = np.argsort(d2, axis=1, kind="stable")[:, :6]
    for name, table in TABLES.items():
        np.testing.assert_array_equal(table(g, 6), oracle, err_msg=name)


@pytest.mark.parametrize("name", TABLES)
def test_knn_coincident_rows_collapse(name):
    pts = Rng(8).uniform(-1, 1, (30, 3))
    single = TABLES[name](pts, 5)
    doubled = TABLES[name](np.concatenate([pts, pts]), 5)
    # row i and its twin i +- 30 are the same location: neither is listed
    assert not np.any(doubled % 30 == np.arange(60)[:, None] % 30)
    # both copies get the single cloud's table, in first-copy indices
    np.testing.assert_array_equal(doubled[:30], single)
    np.testing.assert_array_equal(doubled[30:], single)


def test_knn_k_bounds():
    cloud = random_cloud(Rng(1), 10)
    with pytest.raises(ValueError):
        geom.knn(cloud, 10)
    with pytest.raises(ValueError):
        geom.knn(cloud, 0)


def test_knn_order_independence_up_to_tie_rule():
    rng = Rng(9)
    pts = rng.uniform(-1, 1, (80, 3))
    perm = list(range(80))
    rng.shuffle(perm)
    perm = np.array(perm)
    inv = np.empty(80, dtype=int)
    inv[perm] = np.arange(80)
    table = geom.knn(PointCloud(pts), 5)
    table_p = geom.knn(PointCloud(pts[perm]), 5)
    # new index i holds old point perm[i]; its neighbors map through inv
    np.testing.assert_array_equal(table_p, inv[table[perm]])


# ---------------------------------------------------------------------------
# the row-blocked scan against the full-matrix oracle


@pytest.fixture(params=[None, 64, 128])
def block_rows(request, monkeypatch):
    """Run a test at the default block size and at 64- and 128-row blocks;
    the fixture returns a function that sets the size for N rows."""
    def set_for(n: int) -> None:
        if request.param is not None:
            monkeypatch.setattr(geom, "_SCAN_BLOCK_BYTES", request.param * 8 * n)
    return set_for


def assert_matches_oracle(data: np.ndarray, k: int) -> None:
    want = neighbor_table_oracle(data, k)
    got = geom.graph_knn(data, k)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [26, 127, 128, 129, 1024])
@pytest.mark.parametrize("c", [3, 64, 512])
def test_scan_matches_oracle_on_random_rows(n, c, block_rows):
    block_rows(n)
    data = np.random.default_rng(n * 1000 + c).normal(size=(n, c))
    assert_matches_oracle(data, min(24, n - 1))


def test_scan_matches_oracle_on_grid_ties(block_rows):
    g = np.stack(np.meshgrid(*[np.arange(5.0)] * 3, indexing="ij"), -1).reshape(-1, 3)
    block_rows(len(g))
    for k in (1, 6, 26):
        assert_matches_oracle(g, k)


def test_scan_matches_oracle_on_twins_and_triplets(block_rows):
    rng = np.random.default_rng(3)
    base = rng.normal(size=(40, 8))
    data = np.concatenate([base, base[:10], base[5:15]])  # twins and triplets
    data = data[rng.permutation(len(data))]
    block_rows(len(data))
    for k in (1, 5, 38):
        assert_matches_oracle(data, k)


def test_scan_matches_oracle_on_identical_rows(block_rows):
    same = np.ones((20, 3))
    block_rows(len(same))
    assert_matches_oracle(same, 5)
    # fewer than k+1 distinct locations: the plain scan, twins included
    few = np.concatenate([same, np.zeros((3, 3))])
    block_rows(len(few))
    assert_matches_oracle(few, 5)


def test_scan_matches_oracle_on_near_twins(block_rows):
    rng = np.random.default_rng(4)
    data = rng.normal(size=(60, 16))
    near = data[:20].copy()
    near[:, 3] = np.nextafter(near[:, 3], np.inf)  # distinct rows, one ulp apart
    data = np.concatenate([data, near])
    _, twin = geom._scan(data, np.arange(len(data)), 5)
    assert twin  # inside the rounding bound, so the exact collapse runs
    block_rows(len(data))
    assert_matches_oracle(data, 5)


def test_scan_matches_oracle_far_from_the_origin(block_rows):
    data = 1e6 + np.random.default_rng(5).normal(size=(150, 3))
    block_rows(len(data))
    assert_matches_oracle(data, 10)
    assert_matches_oracle(np.concatenate([data, data[:7]]), 10)


def test_scan_matches_oracle_on_signed_zeros(block_rows):
    rng = np.random.default_rng(6)
    rows = rng.normal(size=(30, 3))
    rows[:10, 0] = 0.0
    flipped = rows[:10].copy()
    flipped[:, 0] = -0.0
    data = np.concatenate([rows, flipped])
    block_rows(len(data))
    assert_matches_oracle(data, 4)


def test_scan_matches_oracle_at_k_n_minus_one(block_rows):
    rng = np.random.default_rng(7)
    data = rng.normal(size=(33, 5))
    block_rows(len(data))
    assert_matches_oracle(data, 32)
    assert_matches_oracle(np.concatenate([data, data[:4]]), 36)


@pytest.mark.parametrize("scale", [1e-160, 1e-5, 1.0, 1e6, 1e150, 1e154])
@pytest.mark.parametrize("c", [1, 3, 64, 512])
def test_scan_flags_exact_twins_at_any_magnitude_and_width(scale, c):
    rng = np.random.default_rng(c)
    data = scale * rng.normal(size=(24, c))
    data[17] = data[4]
    with np.errstate(over="ignore", invalid="ignore"):  # 1e154 squares overflow
        _, twin = geom._scan(data, np.arange(24), 3)
        assert twin
        assert_matches_oracle(data, 3)


def test_scan_matches_oracle_on_nan_distances(block_rows):
    # rows at +inf in one column meet at inf - inf = NaN, and at inf with others
    data = np.random.default_rng(0).normal(size=(40, 4))
    data[:30, 0] = np.inf
    block_rows(len(data))
    with np.errstate(all="ignore"):
        assert_matches_oracle(data, 8)


def _distance_row(at: dict) -> np.ndarray:
    """40 distinct distances above 1, in descending column order, with the
    columns of ``at`` overwritten."""
    row = 2.0 + np.arange(40.0)[::-1]
    row[list(at)] = list(at.values())
    return row


ONE_ULP = np.nextafter(1.0, 2.0)
MINUS_NAN = np.copysign(np.nan, -1.0)
PAYLOAD_NAN = np.array([0x7FF8000000100000]).view(np.float64)[0]  # above the rank bits
# each way a packed key can order apart from (distance, tie key)
SELECT_CASES = {
    # one ulp apart, below the rank bits, the larger at the lower column
    "below-rank-bits": [_distance_row({9: 1.0, 2: ONE_ULP, 0: np.nextafter(ONE_ULP, 2.0),
                                       12: 0.5}),
                        _distance_row({**dict.fromkeys(range(4), ONE_ULP),
                                       **dict.fromkeys(range(4, 34), 1.0)})],
    "exact-ties": [_distance_row({3: 1.0, 7: 1.0, 8: 1.0, 14: 1.0, 10: 0.5}),
                   np.full(40, 0.25), 0.5 * np.random.default_rng(2).integers(0, 3, 40)],
    "minus-zero": [_distance_row({6: -0.0, 2: 0.0, 9: 0.0, 13: -0.0})],
    "minus-nan": [_distance_row({4: MINUS_NAN, 11: 1.0, 1: 1.0}),
                  _distance_row({0: MINUS_NAN, 5: MINUS_NAN})],
    "nan": [_distance_row({6: np.nan, 1: np.nan, 13: 0.5}), np.full(40, np.nan),
            _distance_row({1: PAYLOAD_NAN, 6: np.nan, 20: np.nan})],
    "inf": [_distance_row({0: np.inf, 5: np.inf, 15: np.inf, 9: 0.5}), np.full(40, np.inf)],
}
TIE_KEYS = {"identity": np.arange(40),
            # distinct, unsorted and sparse, like the twin path's lowest rows
            "twin-reps": np.random.default_rng(1).permutation(100)[:40]}


@pytest.mark.parametrize("tie", TIE_KEYS)
@pytest.mark.parametrize("case", SELECT_CASES)
def test_select_k_matches_oracle_where_packed_keys_mislead(case, tie):
    d2, tie_key = np.stack(SELECT_CASES[case]), TIE_KEYS[tie]
    for k in range(1, 40):
        want = _select_k_oracle(d2, tie_key, k)
        assert geom._select_k(d2, tie_key, k).tobytes() == want.tobytes(), f"k={k}"


@pytest.mark.parametrize("n, c", [(1024, 64), (256, 16)])
def test_random_rows_take_no_exact_sort(n, c, monkeypatch):
    data = np.random.default_rng(n + c).normal(size=(n, c))
    want = neighbor_table_oracle(data, 24)
    sorts, lexsort = [], np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda *a, **kw: sorts.append(a) or lexsort(*a, **kw))
    assert geom.graph_knn(data, 24).tobytes() == want.tobytes()
    assert not sorts, f"{len(sorts)} rows took the exact sort"


def _sqdist_cases() -> dict:
    rng = np.random.default_rng(10)
    a = rng.normal(size=(40, 3))
    wide = rng.normal(size=(33, 125))
    grid = np.stack(np.meshgrid(np.arange(4.0), np.arange(4.0), [0.0]), axis=-1).reshape(-1, 3)
    return {
        "random": (a, rng.normal(size=(25, 3)) * 3.0),
        "random-wide": (wide, rng.normal(size=(17, 125))),
        "tied": (grid, grid[::-1] + 0.5),
        "duplicated": (np.concatenate([a, a[:7], a[:3]]), np.concatenate([a[5:], a[:9]])),
        "far-from-origin": (a + 1e4, a[::-1] + 1e4),
    }


@pytest.mark.parametrize("case", sorted(_sqdist_cases()))
def test_sqdist_matrix_equals_the_unfused_expression(case):
    a, b = _sqdist_cases()[case]
    got = geom.sqdist_matrix(a, b)
    assert got.tobytes() == sqdist_oracle(a, b).tobytes()
    assert got.shape == (len(a), len(b)) and not np.signbit(got).any()


@pytest.mark.parametrize("shape", [(37, 5), (300, 33)])
def test_sqdist_matrix_of_rows_with_themselves_rounds_as_with_their_copy(shape):
    # NumPy sends a @ a.T on one buffer to BLAS syrk, which rounds unlike gemm
    a = np.random.default_rng(shape[0]).normal(size=shape)
    assert geom.sqdist_matrix(a, a).tobytes() == geom.sqdist_matrix(a, a.copy()).tobytes()


def test_twin_free_scan_skips_unique_and_the_full_matrix(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("called on a twin-free input")

    data = np.random.default_rng(8).normal(size=(300, 32))
    want = neighbor_table_oracle(data, 12)
    monkeypatch.setattr(np, "unique", boom)
    monkeypatch.setattr(geom, "sqdist_matrix", boom)
    assert geom.graph_knn(data, 12).tobytes() == want.tobytes()


def test_scan_never_holds_an_n_by_n_matrix():
    n = 2048
    data = np.random.default_rng(9).normal(size=(n, 3))
    peak = traced_peak(lambda: geom.graph_knn(data, 24))
    assert peak < (n * n * 8) // 4, f"peak {peak / 2**20:.1f} MiB"


# ---------------------------------------------------------------------------
# rotations


def test_decode_euler_identity():
    np.testing.assert_allclose(decode_rotation(np.zeros(3)), np.eye(3))


def test_decode_euler_quarter_turn():
    rot = decode_rotation([0.0, 0.0, np.pi / 2])
    np.testing.assert_allclose(rot, [[0, -1, 0], [1, 0, 0], [0, 0, 1]], atol=1e-15)


def test_decode_euler_against_axis_composition_oracle():
    a, b, g = np.deg2rad([10.0, 20.0, 30.0])
    ca, sa, cb, sb, cg, sg = np.cos(a), np.sin(a), np.cos(b), np.sin(b), np.cos(g), np.sin(g)
    rx = np.array([[1, 0, 0], [0, ca, -sa], [0, sa, ca]])
    ry = np.array([[cb, 0, sb], [0, 1, 0], [-sb, 0, cb]])
    rz = np.array([[cg, -sg, 0], [sg, cg, 0], [0, 0, 1]])
    rot = decode_rotation([a, b, g])
    np.testing.assert_allclose(rot, rz @ ry @ rx, atol=1e-12)


def test_euler_round_trip():
    rng = Rng(21)
    for _ in range(200):
        angles = rng.uniform(-np.pi / 2 + 0.05, np.pi / 2 - 0.05, 3)
        rot = geom.euler_to_matrix(angles)
        np.testing.assert_allclose(geom.euler_from_matrix(rot), angles, atol=1e-10)


def test_decode_rotation_always_in_so3():
    rng = Rng(31)
    for _ in range(1000):
        rot = decode_rotation(rng.uniform(-2.0, 2.0, 3))
        assert np.abs(rot.T @ rot - np.eye(3)).max() < 1e-8
        assert abs(np.linalg.det(rot) - 1.0) < 1e-8


# ---------------------------------------------------------------------------
# rigid motion


def test_apply_identity_and_translation():
    cloud = PointCloud([[0.0, 0.0, 0.0]])
    out = geom.apply_transform(RigidTransform.identity(), cloud)
    np.testing.assert_array_equal(out.points, cloud.points)
    out = geom.apply_transform(RigidTransform(np.eye(3), [0, 0, 1.0]), cloud)
    np.testing.assert_array_equal(out.points, [[0.0, 0.0, 1.0]])


def test_apply_inverse_round_trip():
    rng = Rng(3)
    cloud = random_cloud(rng, 40)
    t = random_transform(rng)
    out = geom.apply_transform(t, geom.apply_transform(inverse_transform(t), cloud))
    np.testing.assert_allclose(out.points, cloud.points, atol=1e-10)


def test_canonicalize_identity():
    cloud = random_cloud(Rng(8), 10)
    out = canonicalize(cloud, RigidTransform.identity())
    np.testing.assert_array_equal(out.points, cloud.points)


def test_canonicalize_inverts_apply():
    rng = Rng(12)
    cloud = random_cloud(rng, 30)
    t = random_transform(rng)
    out = canonicalize(geom.apply_transform(t, cloud), t)
    np.testing.assert_allclose(out.points, cloud.points, atol=1e-10)


def test_canonicalize_matches_matrix_inverse_oracle():
    rng = Rng(13)
    cloud = random_cloud(rng, 25)
    t = random_transform(rng)
    out = canonicalize(cloud, t)
    # independent oracle: apply the explicitly inverted 4x4 matrix
    m = np.eye(4)
    m[:3, :3] = t.rotation
    m[:3, 3] = t.translation
    minv = np.linalg.inv(m)
    expected = cloud.points @ minv[:3, :3].T + minv[:3, 3]
    np.testing.assert_allclose(out.points, expected, atol=1e-12)
    rot90 = RigidTransform(geom.euler_to_matrix([0, 0, np.pi / 2]), np.zeros(3))
    single = canonicalize(PointCloud([[0.0, 1.0, 0.0]]), rot90)
    np.testing.assert_allclose(single.points, [[1.0, 0.0, 0.0]], atol=1e-12)


def test_compose_relative_identities():
    rng = Rng(14)
    t = random_transform(rng)
    out = geom.compose_relative(t, t)
    np.testing.assert_allclose(out.rotation, np.eye(3), atol=1e-14)
    np.testing.assert_allclose(out.translation, np.zeros(3), atol=1e-14)
    t2 = random_transform(rng)
    out = geom.compose_relative(RigidTransform.identity(), t2)
    np.testing.assert_allclose(out.rotation, t2.rotation)
    np.testing.assert_allclose(out.translation, t2.translation)


def test_compose_relative_alignment_guarantee():
    rng = Rng(15)
    for _ in range(100):
        shape = random_cloud(rng, 20)
        t_x, t_y = random_transform(rng), random_transform(rng)
        x = geom.apply_transform(t_x, shape)
        y = geom.apply_transform(t_y, shape)
        moved = geom.apply_transform(geom.compose_relative(t_x, t_y), x)
        np.testing.assert_allclose(moved.points, y.points, atol=1e-9)


# ---------------------------------------------------------------------------
# chamfer, the training loss


def test_chamfer_identical_is_zero():
    cloud = random_cloud(Rng(16), 50)
    assert chamfer(cloud, cloud) == 0.0


def test_chamfer_hand_values():
    a = PointCloud([[0.0, 0, 0]])
    b = PointCloud([[1.0, 0, 0]])
    assert chamfer(a, b) == pytest.approx(2.0)
    a = PointCloud([[0.0, 0, 0], [2.0, 0, 0]])
    assert chamfer(a, b) == pytest.approx(2.0)


def test_chamfer_symmetry_exact():
    rng = Rng(17)
    a = random_cloud(rng, 33)
    b = random_cloud(rng, 21)
    assert chamfer(a, b) == chamfer(b, a)


def test_chamfer_rigid_invariance():
    rng = Rng(18)
    a = random_cloud(rng, 30)
    b = random_cloud(rng, 28)
    base = chamfer(a, b)
    for _ in range(20):
        t = random_transform(rng)
        moved = chamfer(geom.apply_transform(t, a), geom.apply_transform(t, b))
        assert moved == pytest.approx(base, abs=1e-9)


def test_fit_rigid_recovers_transform():
    rng = Rng(19)
    cloud = random_cloud(rng, 15)
    t = random_transform(rng)
    moved = geom.apply_transform(t, cloud)
    fit = geom.fit_rigid(cloud.points, moved.points)
    np.testing.assert_allclose(fit.rotation, t.rotation, atol=1e-10)
    np.testing.assert_allclose(fit.translation, t.translation, atol=1e-10)


@pytest.mark.parametrize("shape, width", [((7, 9), 4), ((5, 3), 6), ((1, 1), 1)])
def test_take_rows_is_take_along_axis(shape, width):
    rng = np.random.default_rng(width)
    for a in (rng.normal(size=shape), rng.normal(size=shape[::-1]).T,
              rng.integers(0, 99, size=shape)):
        idx = rng.integers(0, a.shape[1], size=(a.shape[0], width))
        assert geom.take_rows(a, idx).tobytes() == np.take_along_axis(a, idx, axis=1).tobytes()
