import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from apsabench.echo_path import EchoPath, PathSchedule, make_block_sparse, path_at, phases
from apsabench.signals import SeededStream


def test_support_is_exactly_the_clusters():
    path = make_block_sparse(8, [(2, 3)], SeededStream(1), normalize=False)
    support = np.nonzero(path.taps)[0]
    assert set(support) == {2, 3, 4}
    outside = np.delete(path.taps, [2, 3, 4])
    assert np.all(outside == 0.0)


def test_normalized_path_has_unit_norm():
    path = make_block_sparse(64, [(10, 16)], SeededStream(2), normalize=True)
    assert np.linalg.norm(path.taps) == pytest.approx(1.0, abs=1e-12)


def test_default_standin_geometries():
    # The documented defaults: one 64-tap cluster, and two 32-tap clusters.
    one = make_block_sparse(512, [(100, 64)], SeededStream(3))
    two = make_block_sparse(512, [(60, 32), (300, 32)], SeededStream(4))
    assert np.count_nonzero(one.taps) == 64
    assert np.count_nonzero(two.taps) == 64
    assert np.all(two.taps[92:300] == 0.0)


def test_same_stream_reproduces_identical_path():
    a = make_block_sparse(32, [(4, 8)], SeededStream(5, 7))
    b = make_block_sparse(32, [(4, 8)], SeededStream(5, 7))
    assert np.array_equal(a.taps, b.taps)


@pytest.mark.parametrize(
    "clusters",
    [[], [(30, 4)], [(-1, 4)], [(0, 0)], [(0, 4), (2, 4)]],
)
def test_invalid_clusters_rejected(clusters):
    with pytest.raises(ValueError):
        make_block_sparse(32, clusters, SeededStream(1))


def test_echo_path_rejects_energy_outside_clusters():
    taps = np.zeros(8)
    taps[0] = 1.0
    with pytest.raises(ValueError, match="outside"):
        EchoPath(taps=taps, clusters=((2, 3),))


def test_echo_path_rejects_all_zero_taps():
    with pytest.raises(ValueError, match="nonzero"):
        EchoPath(taps=np.zeros(8), clusters=((2, 3),))


def _schedule(switch):
    initial = make_block_sparse(16, [(0, 4)], SeededStream(1))
    switched = make_block_sparse(16, [(8, 4)], SeededStream(2))
    return PathSchedule(initial=initial, switched=switched, switch_iteration=switch)


def test_path_at_without_switch():
    initial = make_block_sparse(16, [(0, 4)], SeededStream(1))
    schedule = PathSchedule(initial=initial)
    assert path_at(schedule, 0) is initial
    assert path_at(schedule, 10**6) is initial


def test_path_at_switch_from_iteration_zero():
    schedule = _schedule(0)
    assert path_at(schedule, 0) is schedule.switched


def test_path_at_switch_boundary():
    schedule = _schedule(100)
    assert path_at(schedule, 99) is schedule.initial
    assert path_at(schedule, 100) is schedule.switched


def test_path_at_rejects_negative_iteration():
    with pytest.raises(ValueError):
        path_at(_schedule(5), -1)


def test_schedule_requires_matching_lengths():
    a = make_block_sparse(16, [(0, 4)], SeededStream(1))
    b = make_block_sparse(32, [(0, 4)], SeededStream(2))
    with pytest.raises(ValueError, match="length"):
        PathSchedule(initial=a, switched=b, switch_iteration=5)


def test_schedule_requires_switch_fields_together():
    a = make_block_sparse(16, [(0, 4)], SeededStream(1))
    b = make_block_sparse(16, [(8, 4)], SeededStream(2))
    with pytest.raises(ValueError):
        PathSchedule(initial=a, switched=b)
    with pytest.raises(ValueError):
        PathSchedule(initial=a, switch_iteration=5)


def test_schedule_rejects_negative_switch():
    a = make_block_sparse(16, [(0, 4)], SeededStream(1))
    b = make_block_sparse(16, [(8, 4)], SeededStream(2))
    with pytest.raises(ValueError, match="switch_iteration"):
        PathSchedule(initial=a, switched=b, switch_iteration=-1)


@given(switch=st.one_of(st.none(), st.integers(0, 50)), n=st.integers(0, 40))
def test_phases_tile_the_run_and_agree_with_path_at(switch, n):
    initial = make_block_sparse(16, [(0, 4)], SeededStream(1))
    schedule = PathSchedule(initial) if switch is None else _schedule(switch)
    stretches = phases(schedule, n)
    # Nonempty stretches, in order, that cover [0, n) without gaps.
    bounds = [0] + [end for _, _, end in stretches]
    assert [first for _, first, _ in stretches] == bounds[:-1]
    assert bounds[-1] == n
    assert all(first < end for _, first, end in stretches)
    for taps, first, end in stretches:
        for i in (first, end - 1):
            assert taps is path_at(schedule, i).taps
