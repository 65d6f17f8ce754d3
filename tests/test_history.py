import numpy as np
import pytest

from fedunlearn.history import TrainingHistory


def vec(x):
    return np.array([float(x), float(x) + 1.0])


def linear_history(n):
    return TrainingHistory.from_models([vec(k) for k in range(n + 1)])


def test_append_and_lookup():
    hist = linear_history(5)
    assert hist.end_position == 5
    np.testing.assert_array_equal(hist.final_model, vec(5))
    for k in range(6):
        np.testing.assert_array_equal(hist.model_at(k), vec(k))


def test_append_returns_new_position():
    hist = TrainingHistory(vec(0))
    assert hist.extend([vec(1)]) == 1
    assert hist.extend([vec(2)]) == 2


def test_stored_models_are_copies():
    theta = vec(0)
    hist = TrainingHistory(theta)
    theta[:] = -1.0
    np.testing.assert_array_equal(hist.model_at(0), vec(0))


def test_position_bounds_checked():
    hist = linear_history(3)
    with pytest.raises(IndexError):
        hist.model_at(4)
    with pytest.raises(IndexError):
        hist.model_at(-1)
    with pytest.raises(IndexError):
        hist.truncate(9)


def test_truncate_within_first_segment():
    hist = linear_history(5)
    hist.truncate(2)
    assert hist.end_position == 2
    np.testing.assert_array_equal(hist.final_model, vec(2))
    with pytest.raises(IndexError):
        hist.model_at(3)


def test_truncate_at_end_is_noop():
    hist = linear_history(4)
    hist.truncate(4)
    assert hist.end_position == 4
    np.testing.assert_array_equal(hist.final_model, vec(4))


def test_new_segment_overlays_the_boundary_position():
    hist = linear_history(6)
    hist.truncate(3)
    hist.restart(vec(100))
    # position 3 is shared; the restart's model replaces training's there
    assert hist.end_position == 3
    np.testing.assert_array_equal(hist.model_at(3), vec(100))
    np.testing.assert_array_equal(hist.model_at(2), vec(2))
    assert hist.extend([vec(200)]) == 4
    np.testing.assert_array_equal(hist.model_at(4), vec(200))


def test_truncate_across_segments_drops_whole_suffix():
    hist = linear_history(4)
    hist.truncate(2)
    hist.restart(vec(50))
    hist.extend([vec(51)])
    hist.extend([vec(52)])
    assert hist.end_position == 4
    hist.truncate(1)
    assert hist.end_position == 1
    np.testing.assert_array_equal(hist.final_model, vec(1))
    hist.restart(vec(60))
    np.testing.assert_array_equal(hist.model_at(0), vec(0))
    np.testing.assert_array_equal(hist.model_at(1), vec(60))


def test_truncate_to_segment_boundary_keeps_newer_owner():
    hist = linear_history(3)
    hist.truncate(2)
    hist.restart(vec(70))
    hist.extend([vec(71)])
    hist.truncate(2)
    # the restart's model, not training's, stays at the boundary
    np.testing.assert_array_equal(hist.model_at(2), vec(70))


def test_from_models_round_trip():
    hist = TrainingHistory.from_models(np.array([vec(k) for k in range(4)]))
    assert hist.end_position == 3
    for k in range(4):
        np.testing.assert_array_equal(hist.model_at(k), vec(k))
