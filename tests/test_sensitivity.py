import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SQ, client_increments_direct, round_increments
from fedunlearn import runner
from fedunlearn.config import parse_config
from fedunlearn.engine import Cohort, _accumulate, read_checkpoint, renormalized_weights, write_checkpoint
from fedunlearn.errors import (
    ConfigError,
    DimensionMismatchError,
    MissingArtifactsError,
    SingularRemovalError,
    StepSizeError,
)
from fedunlearn.models import Regime, RegimeConstants
from fedunlearn.sensitivity import (
    NoiseBudget,
    SensitivityLedger,
    contraction_factor,
    noise_std,
    psi_star,
)

CONVEX_1 = RegimeConstants(Regime.CONVEX, 1.0, 0.0, 0.0)
SC_UNIT = RegimeConstants(Regime.STRONGLY_CONVEX, 1.0, 1.0, 0.0)
SMOOTH_2 = RegimeConstants(Regime.SMOOTH, 2.0, 0.0, 0.0)


def toy_round(client_models, weights, active=None):
    """(cohort, client models, aggregate) of one round of these models."""
    models = np.asarray(client_models, dtype=np.float64)
    active = tuple(range(len(models))) if active is None else tuple(active)
    weights = np.asarray(weights, dtype=np.float64)
    # a cohort of weights alone: the increments read nothing else
    cohort = Cohort(active, weights, None, None)
    return cohort, models, _accumulate(models, cohort.active_weights)


# ---------------------------------------------------------------------------
# contraction factors
# ---------------------------------------------------------------------------


def test_contraction_convex_is_one_up_to_the_bound():
    assert contraction_factor(CONVEX_1, 2.0) == 1.0
    assert contraction_factor(CONVEX_1, 0.01) == 1.0
    with pytest.raises(StepSizeError):
        contraction_factor(CONVEX_1, 2.0 + 1e-9)


def test_contraction_strongly_convex_hand_value():
    assert contraction_factor(SC_UNIT, 1.0) == 0.5
    with pytest.raises(StepSizeError):
        contraction_factor(SC_UNIT, 1.0 + 1e-9)


def test_contraction_smooth_is_unbounded():
    assert contraction_factor(SMOOTH_2, 0.1) == pytest.approx(1.2, rel=1e-15)
    assert contraction_factor(SMOOTH_2, 50.0) == pytest.approx(101.0, rel=1e-15)


def test_contraction_rejects_nonpositive_eta():
    with pytest.raises(StepSizeError):
        contraction_factor(CONVEX_1, 0.0)
    with pytest.raises(StepSizeError):
        contraction_factor(SC_UNIT, -0.5)


def test_step_size_error_names_the_bound():
    with pytest.raises(StepSizeError, match="2/beta"):
        contraction_factor(CONVEX_1, 3.0)
    with pytest.raises(StepSizeError, match=r"2/\(beta\+mu\)"):
        contraction_factor(SC_UNIT, 1.5)


@settings(max_examples=60, deadline=None)
@given(
    beta=st.floats(0.1, 10.0),
    ratio=st.floats(1e-3, 1.0),
    frac=st.floats(0.01, 1.0),
)
def test_contraction_strongly_convex_stays_in_unit_interval(beta, ratio, frac):
    mu = beta * ratio
    constants = RegimeConstants(Regime.STRONGLY_CONVEX, beta, mu, 0.0)
    eta = frac * 2.0 / (beta + mu)
    factor = contraction_factor(constants, eta)
    assert 0.0 <= factor < 1.0


# ---------------------------------------------------------------------------
# per-round increments
# ---------------------------------------------------------------------------


def test_increment_two_uniform_clients_by_hand():
    record = toy_round([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])
    want = math.sqrt(0.5)
    assert round_increments(*record)[1] == pytest.approx(want, rel=1e-15)
    assert client_increments_direct(*record)[1] == pytest.approx(want, rel=1e-15)


def test_increment_zero_weight_and_absent_client():
    # a vector over every client: the zero-weight client 1 needs company
    # that does not carry the full weight
    weights = [0.5, 0.0, 0.5]
    record = toy_round([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], weights)
    assert round_increments(*record)[1] == 0.0
    absent = toy_round([[1.0, 0.0], [1.0, 1.0]], weights, active=(0, 2))
    assert round_increments(*absent)[1] == 0.0
    assert client_increments_direct(*absent)[1] == 0.0


def test_increment_full_weight_client_is_singular():
    record = toy_round([[1.0, 0.0]], [1.0])
    with pytest.raises(SingularRemovalError):
        round_increments(*record)
    with pytest.raises(SingularRemovalError):
        client_increments_direct(*record)


def test_uniform_weights_reduce_to_one_over_m_minus_one():
    rng = np.random.default_rng(31)
    for m in (3, 4, 10):
        models = rng.standard_normal((m, 5))
        weights = np.full(m, 1.0 / m)
        record = toy_round(models, weights)
        for c in range(m):
            gap = np.linalg.norm(models[c] - record[2])
            got = round_increments(*record)[c]
            assert got == pytest.approx(gap / (m - 1), rel=1e-15)


def test_uniform_factor_is_exact_for_dyadic_counts():
    rng = np.random.default_rng(32)
    models = rng.standard_normal((4, 3))
    record = toy_round(models, np.full(4, 0.25))
    gap = float(np.linalg.norm(models[2] - record[2]))
    assert round_increments(*record)[2] == gap / 3.0


@settings(max_examples=80, deadline=None)
@given(
    values=st.lists(st.floats(-5, 5, allow_nan=False), min_size=12, max_size=12),
    raw=st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4),
    client=st.integers(0, 3),
)
def test_fast_increment_equals_direct_recomputation(values, raw, client):
    models = np.asarray(values).reshape(4, 3)
    weights = np.asarray(raw) / np.sum(raw)
    record = toy_round(models, weights)
    fast = round_increments(*record)[client]
    direct = client_increments_direct(*record)[client]
    assert fast == pytest.approx(direct, rel=1e-10, abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(
    values=st.lists(st.integers(-5000, 5000), min_size=12, max_size=12),
    raw=st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3),
    rest=st.integers(1, 12),
    heavy=st.integers(0, 3),
)
def test_increments_agree_near_full_weight_within_the_cancellation(values, raw, rest, heavy):
    # client `heavy` carries weight 1 - 10^-rest: theta_c - theta_agg then
    # loses digits to cancellation that p/(1 - p) magnifies, so the two
    # formulas agree within eps * max||theta|| / (1 - p_c) and no closer
    models = np.asarray(values, dtype=np.float64).reshape(4, 3) / 1000.0
    weights = np.insert(10.0**-rest * np.asarray(raw) / np.sum(raw), heavy, 1.0 - 10.0**-rest)
    record = toy_round(models, weights)
    gap = np.abs(round_increments(*record) - client_increments_direct(*record))
    scale = np.finfo(np.float64).eps * np.linalg.norm(models, axis=1).max()
    assert (gap <= 8.0 * scale / (1.0 - weights)).all()


@pytest.mark.parametrize("active", [(0, 1, 2, 3, 4, 5, 6, 7, 8), (1, 2, 4, 7)])
@pytest.mark.parametrize("dim", [1, 6])
def test_stacked_increments_match_a_per_client_reference_bitwise(active, dim):
    rng = np.random.default_rng(33)
    raw = np.zeros(9)
    raw[list(active)] = rng.random(len(active)) + 0.05
    weights = raw / raw.sum()
    record = toy_round(rng.standard_normal((len(active), dim)), weights, active=active)
    _, client_models, after = record
    fast, direct = np.zeros(9), np.zeros(9)
    for row, c in enumerate(active):
        p = float(weights[c])
        gap = float(np.linalg.norm(client_models[row] - after))
        fast[c] = p / (1.0 - p) * gap
        # the direct increment as one aggregation per removed client
        q = renormalized_weights(weights, {c})
        total = np.zeros(dim)
        for other, model in zip(active, client_models):
            if other != c:
                total = total + q[other] * model
        direct[c] = float(np.linalg.norm(after - total))
    assert round_increments(*record).tobytes() == fast.tobytes()
    assert client_increments_direct(*record).tobytes() == direct.tobytes()


# ---------------------------------------------------------------------------
# noise calibration
# ---------------------------------------------------------------------------


def test_noise_std_reference_point():
    assert noise_std(1.0, 1.0, 0.05) == pytest.approx(SQ, rel=1e-12)


def test_noise_std_scaling():
    base = noise_std(1.0, 1.0, 0.05)
    assert noise_std(3.0, 1.0, 0.05) == pytest.approx(3.0 * base, rel=1e-15)
    assert noise_std(1.0, 10.0, 0.05) == pytest.approx(base / 10.0, rel=1e-15)
    assert noise_std(0.0, 1.0, 0.05) == 0.0


def test_noise_round_trip_is_exact_inverse():
    for psi in (0.3, 1.0, 7.5):
        sigma = noise_std(psi, 2.0, 0.01)
        assert psi_star(2.0, 0.01, sigma) == pytest.approx(psi, rel=1e-15)


def test_noise_parameter_validation():
    for bad in ((1.0, 0.0, 0.05), (1.0, -1.0, 0.05), (1.0, 1.0, 0.0), (1.0, 1.0, 1.0)):
        with pytest.raises(ValueError):
            noise_std(*bad)
    with pytest.raises(ValueError):
        noise_std(-0.1, 1.0, 0.05)
    with pytest.raises(ValueError):
        psi_star(1.0, 0.05, -0.5)


def test_noise_budget_round_trip():
    budget = NoiseBudget(2.0, 0.01, 1.4)
    assert noise_std(budget.psi_star, 2.0, 0.01) == pytest.approx(1.4, rel=1e-12)
    assert NoiseBudget(1.0, 0.05, 0.0).psi_star == 0.0
    with pytest.raises(ValueError):
        NoiseBudget(0.0, 0.05, 1.0)
    with pytest.raises(ValueError):
        NoiseBudget(1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        NoiseBudget(1.0, 0.05, -1.0)


# ---------------------------------------------------------------------------
# ledger bookkeeping
# ---------------------------------------------------------------------------


def ledger_from_deltas(contraction, local_steps, rows, clients=None):
    ledger = SensitivityLedger(contraction, local_steps, len(rows[0]) if clients is None else clients)
    for row in rows:
        ledger.extend([row])
    return ledger


def test_a_block_loads_as_a_loop_of_one_row_blocks_builds_it():
    rng = np.random.default_rng(41)
    block = rng.random((30, 5)) * np.logspace(-3, 2, 5)
    block[7] = 0.0
    for contraction, local_steps in ((0.93, 3), (1.0, 1), (1.07, 2)):
        looped = ledger_from_deltas(contraction, local_steps, block.tolist())
        loaded = SensitivityLedger.from_deltas(contraction, local_steps, block)
        assert loaded.psi.tobytes() == looped.psi.tobytes()
        assert loaded.deltas.tobytes() == looped.deltas.tobytes()
        assert (loaded.contraction, loaded.local_steps, loaded.client_count) == (contraction, local_steps, 5)
    block[3, 4] = 0.0  # a ledger's rows are its own: the caller's block can change
    assert loaded.deltas[3, 4] != 0.0
    empty = SensitivityLedger.from_deltas(0.9, 1, np.zeros((0, 3)))
    assert (len(empty), empty.client_count, empty.psi.tolist()) == (0, 3, [[0.0, 0.0, 0.0]])


def test_blocks_extend_psi_as_the_recurrence_written_row_by_row():
    """extend fills a preallocated Psi block in place; its rows equal the
    recurrence decay * Psi[n] + delta[n] written out one row at a time, and
    one-row blocks, bit for bit, however the rounds are split
    into blocks and after a truncation."""
    rng = np.random.default_rng(43)
    block = rng.random((40, 6)) * np.logspace(-4, 3, 6)
    block[11] = 0.0
    for contraction, local_steps in ((0.93, 3), (1.0, 1), (1.07, 2)):
        decay = contraction**local_steps
        want = [np.zeros(6)]
        for row in block:
            want.append(decay * want[-1] + row)
        split = SensitivityLedger(contraction, local_steps, 6)
        for start, stop in ((0, 1), (1, 17), (17, 18), (18, 40)):
            split.extend(block[start:stop])
        looped = ledger_from_deltas(contraction, local_steps, block.tolist())
        assert split.psi.tobytes() == np.array(want).tobytes() == looped.psi.tobytes()
        split.truncate(25)
        split.extend(block[25:])
        assert split.psi.tobytes() == np.array(want).tobytes()
    block[:] = 0.0  # the caller's block is copied, not kept
    assert split.psi.tobytes() == np.array(want).tobytes()


def test_a_block_names_the_first_round_with_a_bad_increment():
    block = np.ones((4, 3))
    block[3, 0] = np.nan
    block[1, 2] = -1.0
    block[1, 1] = np.inf
    # round 1 comes first; within it a non-finite increment before a negative one
    with pytest.raises(ValueError, match="^round 1: non-finite increment for client 1$"):
        SensitivityLedger.from_deltas(0.9, 1, block)
    block[1, 1] = 1.0
    with pytest.raises(ValueError, match="^round 1: negative increment for client 2$"):
        SensitivityLedger.from_deltas(0.9, 1, block)
    with pytest.raises(ValueError, match="2-D"):
        SensitivityLedger.from_deltas(0.9, 1, np.ones(3))


def test_two_round_recurrence_by_hand():
    ledger = ledger_from_deltas(0.5, 1, [[1.0], [1.0]])
    assert ledger.psi[-1, 0] == 1.5
    assert ledger.set_sensitivity([0], 2) == 1.5
    assert ledger.set_sensitivity([0], 1) == 1.0
    assert ledger.set_sensitivity([0], 0) == 0.0


def test_set_sensitivity_reads_the_recurrence_not_the_explicit_sum():
    # the explicit sum 0.81*0.1 + 0.9*0.2 + 0.3 rounds to 0.5609999999999999
    ledger = ledger_from_deltas(0.9, 1, [[0.1], [0.2], [0.3]])
    assert ledger.set_sensitivity({0}, 3) == ledger.psi[3, 0] == 0.561


def test_no_decay_ledger_is_a_cumulative_sum():
    ledger = ledger_from_deltas(1.0, 3, [[0.4], [0.4], [0.4]])
    np.testing.assert_allclose(ledger.psi[:, 0], [0.0, 0.4, 0.8, 1.2], rtol=1e-15)


def test_decay_uses_contraction_to_the_local_steps():
    ledger = ledger_from_deltas(0.5, 2, [[1.0], [0.0]])
    assert ledger.round_decay == 0.25
    assert ledger.psi[-1, 0] == 0.25


def test_untracked_client_reads_zero():
    # client 1 never contributed an increment
    ledger = ledger_from_deltas(0.5, 1, [[1.0, 0.0]])
    assert ledger.psi[-1, 1] == 0.0
    assert ledger.set_sensitivity([1], 1) == 0.0
    for outside in ([2], [-1], [0, 5]):
        with pytest.raises(IndexError):
            ledger.set_sensitivity(outside, 1)
        with pytest.raises(IndexError):
            ledger.rollback_index(outside, 1.0)


def test_negative_increment_rejected():
    ledger = SensitivityLedger(1.0, 1, 2)
    with pytest.raises(ValueError, match="client 1"):
        ledger.extend([[0.0, -0.1]])
    with pytest.raises(ValueError, match="shape"):
        ledger.extend([[0.1]])
    assert len(ledger) == 0


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_increment_rejected(value):
    ledger = SensitivityLedger(1.0, 1, 3)
    with pytest.raises(ValueError, match="non-finite increment for client 2"):
        ledger.extend([[0.0, 0.1, value]])
    assert len(ledger) == 0


@settings(max_examples=60, deadline=None)
@given(
    deltas=st.lists(st.floats(0, 2.0), min_size=1, max_size=12),
    contraction=st.floats(0.3, 1.5),
    local_steps=st.integers(1, 3),
)
def test_series_matches_explicit_decayed_sum(deltas, contraction, local_steps):
    ledger = ledger_from_deltas(contraction, local_steps, [[d] for d in deltas])
    ref = ScalarLedger(contraction, local_steps, 1)
    ref.rounds = [[d] for d in deltas]
    series = ledger.psi[:, 0]
    assert series.shape == (len(deltas) + 1,)
    for n in range(len(deltas) + 1):
        explicit = ref.bound(n, 0)
        assert series[n] == pytest.approx(explicit, rel=1e-12, abs=1e-15)


@settings(max_examples=40, deadline=None)
@given(
    deltas=st.lists(st.floats(0, 2.0), min_size=1, max_size=10),
    contraction=st.floats(1.0, 2.0),
)
def test_series_is_monotone_without_contraction(deltas, contraction):
    ledger = ledger_from_deltas(contraction, 1, [[d] for d in deltas])
    assert np.all(np.diff(ledger.psi[:, 0]) >= 0.0)


def test_prefix_bounds_checked():
    ledger = ledger_from_deltas(1.0, 1, [[1.0]])
    with pytest.raises(IndexError):
        ledger.set_sensitivity([0], 2)
    with pytest.raises(IndexError):
        ledger.truncate(5)


def test_set_sensitivity_takes_the_worst_client():
    ledger = ledger_from_deltas(1.0, 1, [[1.5, 0.7]])
    assert ledger.set_sensitivity({0, 1}, 1) == 1.5
    assert ledger.set_sensitivity({1}, 1) == 0.7
    with pytest.raises(ValueError):
        ledger.set_sensitivity(set(), 1)


def test_rollback_index_hand_example():
    ledger = ledger_from_deltas(1.0, 1, [[0.4], [0.4], [0.4]])
    assert ledger.rollback_index({0}, 0.9) == 2
    assert ledger.rollback_index({0}, 1.21) == 3
    assert ledger.rollback_index({0}, 0.0) == 0


def test_rollback_index_validation():
    ledger = ledger_from_deltas(1.0, 1, [[0.4]])
    with pytest.raises(ValueError):
        ledger.rollback_index(set(), 1.0)
    with pytest.raises(ValueError):
        ledger.rollback_index({0}, -0.1)


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.floats(0, 1.0), st.floats(0, 1.0)), min_size=1, max_size=10
    ),
    contraction=st.floats(0.4, 1.3),
    threshold=st.floats(0, 3.0),
)
def test_rollback_index_matches_brute_force(rows, contraction, threshold):
    ledger = ledger_from_deltas(contraction, 1, [list(row) for row in rows])
    series = np.maximum(ledger.psi[:, 0], ledger.psi[:, 1])
    want = max(n for n in range(len(series)) if series[n] <= threshold)
    assert ledger.rollback_index({0, 1}, threshold) == want


def test_truncate_refolds_online_state():
    deltas = [0.3, 0.5, 0.2, 0.7, 0.1]
    ledger = ledger_from_deltas(0.8, 2, [[d] for d in deltas])
    ledger.truncate(3)
    assert len(ledger) == 3
    fresh = ledger_from_deltas(0.8, 2, [[d] for d in deltas[:3]])
    np.testing.assert_array_equal(ledger.psi, fresh.psi)
    np.testing.assert_array_equal(ledger.deltas, fresh.deltas)


def test_truncate_keeps_a_prefix_and_recording_resumes_from_it():
    ledger = ledger_from_deltas(0.8, 2, [[0.3, 0.1], [0.5, 0.0], [0.2, 0.4]])
    psi, deltas = ledger.psi, ledger.deltas
    ledger.truncate(len(ledger))
    np.testing.assert_array_equal(ledger.psi, psi)
    ledger.truncate(1)
    np.testing.assert_array_equal(ledger.psi, psi[:2])
    np.testing.assert_array_equal(ledger.deltas, deltas[:1])
    ledger.extend([[0.0, 0.6]])
    np.testing.assert_array_equal(ledger.psi[2], ledger.round_decay * psi[1] + [0.0, 0.6])
    ledger.truncate(0)
    assert len(ledger) == 0
    assert ledger.psi.shape == (1, 2) and not ledger.psi.any()


class ScalarLedger:
    """Naive reference: per-client scalar folds over a list of rounds."""

    def __init__(self, contraction, local_steps, client_count):
        self.contraction, self.local_steps, self.client_count = contraction, local_steps, client_count
        self.rounds = []  # [delta of client 0, client 1, ...] per round

    def series(self, client):
        decay = self.contraction**self.local_steps
        out = [0.0]
        for deltas in self.rounds:
            out.append(decay * out[-1] + deltas[client])
        return out

    def bound(self, n, client):
        """Psi(n, c) by its definition, the explicit decayed sum."""
        total = 0.0
        for s in range(n):
            total += self.contraction ** ((n - s - 1) * self.local_steps) * self.rounds[s][client]
        return total

    def rollback_index(self, clients, threshold):
        series = [self.series(c) for c in clients]
        return max(n for n in range(len(self.rounds) + 1) if max(x[n] for x in series) <= threshold)


@st.composite
def ledger_scripts(draw):
    clients = draw(st.integers(1, 4))
    row = st.lists(st.floats(0, 2.0), min_size=clients, max_size=clients)
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("record"), row),
                st.tuples(st.just("truncate"), st.floats(0, 1)),
            ),
            min_size=1,
            max_size=25,
        )
    )
    targets = draw(st.sets(st.integers(0, clients - 1), min_size=1))
    return clients, ops, sorted(targets)


@settings(max_examples=80, deadline=None)
@given(
    script=ledger_scripts(),
    contraction=st.floats(0.3, 1.5),
    local_steps=st.integers(1, 3),
    threshold=st.floats(0, 3.0),
)
def test_dense_ledger_matches_a_scalar_reference_bitwise(script, contraction, local_steps, threshold):
    clients, ops, targets = script
    ledger = SensitivityLedger(contraction, local_steps, clients)
    ref = ScalarLedger(contraction, local_steps, clients)
    for op in ops:
        if op[0] == "record":
            ledger.extend([op[1]])
            ref.rounds.append(list(op[1]))
        else:
            position = int(op[1] * len(ref.rounds))
            ledger.truncate(position)
            del ref.rounds[position:]

    n = len(ref.rounds)
    assert len(ledger) == n
    for client in range(clients):
        assert ledger.psi[:, client].tolist() == ref.series(client)
    assert ledger.rollback_index(targets, threshold) == ref.rollback_index(targets, threshold)
    for m in range(n + 1):
        assert ledger.set_sensitivity(targets, m) == max(ref.series(c)[m] for c in targets)


def test_ledger_constructor_validation():
    with pytest.raises(ValueError):
        SensitivityLedger(0.0, 1, 1)
    with pytest.raises(ValueError):
        SensitivityLedger(1.0, 0, 1)
    with pytest.raises(ValueError):
        SensitivityLedger(1.0, 1, 0)


def test_prefix_is_a_separate_ledger():
    ledger = ledger_from_deltas(0.9, 1, [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
    head = ledger.prefix(2)
    head.extend([[1.0, 1.0]])
    assert len(ledger) == 3 and len(head) == 3
    np.testing.assert_array_equal(ledger.deltas[2], [0.5, 0.6])
    np.testing.assert_array_equal(head.psi[:3], ledger.psi[:3])
    with pytest.raises(IndexError):
        ledger.prefix(4)


# ---------------------------------------------------------------------------
# the ledger file train writes and reads back
# ---------------------------------------------------------------------------

# The test_csv_* tests keep the names they had while the ledger file was CSV
# text; each now checks the same property of train's binary ledger.ckpt, read
# back by runner._load_train.


def trained(root, rounds, clients, sigma=0.4):
    """The train directory of a small ridge federation and its prepared config."""
    doc = {
        "name": "ledger_file",
        "model": {"kind": "ridge", "dims": [3], "l2": 0.1},
        "data": {
            "clients": clients,
            "samples_per_client": 4,
            "features": 3,
            "heterogeneity": 0.5,
            "seed": 7,
            "noise": 0.1,
        },
        "federation": {"eta": "2/(beta+mu)", "local_steps": 1, "rounds": rounds, "seed": 3, "init": "normal"},
        "budget": {"epsilon": 1.0, "delta": 0.05, "sigma": sigma},
        "checkpoint_interval": 1,
        "requests": [[0]],
        "stopping": {"loss_threshold": "inf", "min_rounds": 2, "max_rounds": 10},
    }
    config = parse_config(json.dumps(doc))
    return runner.cmd_train(config, root), runner.prepare(config)


def load_ledger(train_dir, prepared):
    return runner._load_train(train_dir, prepared, with_ledger=True)[1]


def test_csv_round_trip_is_exact(tmp_path):
    train_dir, prepared = trained(tmp_path, 7, 2)
    rng = np.random.default_rng(40)
    ledger = ledger_from_deltas(prepared.contraction, 1, rng.random((7, 2)).tolist())
    path = train_dir / "ledger.ckpt"
    write_checkpoint(path, 7, ledger.deltas, prepared.digest)
    assert path.stat().st_size == 52 + 8 * 7 * 2  # two deltas per round, no Psi
    loaded = load_ledger(train_dir, prepared)
    np.testing.assert_array_equal(loaded.deltas, ledger.deltas)
    np.testing.assert_array_equal(loaded.psi, ledger.psi)


def test_csv_export_matches_the_csv_writer_reference_at_size(tmp_path):
    """The block train writes is bit for bit the delta rows packed as
    little-endian float64, and a block of extreme values at 360 rounds x 100
    clients reads back exactly."""
    rounds, clients = 360, 100
    train_dir, prepared = trained(tmp_path, rounds, clients)
    path = train_dir / "ledger.ckpt"
    assert path.read_bytes()[52:] == load_ledger(train_dir, prepared).deltas.astype("<f8").tobytes()
    rng = np.random.default_rng(60)
    tiny = np.finfo(np.float64).smallest_subnormal
    ledger = SensitivityLedger(prepared.contraction, 1, clients)
    for position in range(rounds):
        row = rng.random(clients) * 10.0 ** rng.integers(-320, 300, clients)
        row[rng.random(clients) < 0.2] = 0.0
        row[position % clients] = tiny * (position + 1)  # subnormal
        row[(position + 1) % clients] = 1e300 * (1 + rng.random())
        ledger.extend([row])
    assert np.isfinite(ledger.psi).all()
    write_checkpoint(path, rounds, ledger.deltas, prepared.digest)
    assert path.read_bytes()[52:] == ledger.deltas.astype("<f8").tobytes()
    loaded = load_ledger(train_dir, prepared)
    assert loaded.deltas.tobytes() == ledger.deltas.tobytes()
    assert loaded.psi.tobytes() == ledger.psi.tobytes()


def test_csv_header_and_gap_detection(tmp_path):
    train_dir, prepared = trained(tmp_path, 3, 2)
    path = train_dir / "ledger.ckpt"
    _, block, _ = read_checkpoint(path)
    path.write_bytes(b"CSV," + path.read_bytes()[4:])
    with pytest.raises(MissingArtifactsError, match="not a checkpoint file"):
        load_ledger(train_dir, prepared)
    # without round 1 the block ends at round 3 one row short
    write_checkpoint(path, 3, block[[0, 2]], prepared.digest)
    message = "holds a 2x2 block ending at round 3, expected 3x2 ending at round 3"
    with pytest.raises(MissingArtifactsError, match=message):
        load_ledger(train_dir, prepared)


def test_csv_must_be_a_complete_grid(tmp_path):
    train_dir, prepared = trained(tmp_path, 2, 3)
    path = train_dir / "ledger.ckpt"
    block = ledger_from_deltas(prepared.contraction, 1, [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]]).deltas
    broken = {
        "holds a 2x2 block ending at round 2, expected 2x3": (2, block[:, :2]),
        "holds a 2x4 block ending at round 2, expected 2x3": (2, np.column_stack((block, block[:, 0]))),
        "holds a 1x3 block ending at round 2, expected 2x3": (2, block[1:]),
        "holds a 1x3 block ending at round 1, expected 2x3 ending at round 2": (1, block[:1]),
        "holds a 2x3 block ending at round 3, expected 2x3 ending at round 2": (3, block),
    }
    for message, (end, body) in broken.items():
        write_checkpoint(path, end, body, prepared.digest)
        with pytest.raises(MissingArtifactsError, match=message):
            load_ledger(train_dir, prepared)
    write_checkpoint(path, 2, block, prepared.digest)
    assert load_ledger(train_dir, prepared).deltas.tolist() == block.tolist()
    # the file holds clients 0..2 only; a four-client federation misses client 3
    wider_dir, wider = trained(tmp_path / "wider", 2, 4)
    write_checkpoint(wider_dir / "ledger.ckpt", 2, block, wider.digest)
    with pytest.raises(MissingArtifactsError, match="holds a 2x3 block ending at round 2, expected 2x4"):
        load_ledger(wider_dir, wider)


@pytest.mark.parametrize("row", ["1,0,0,0.1"], ids=["1,0,0,0.1-4 were found"])
def test_csv_refuses_a_malformed_row(tmp_path, row):
    """Round 1 of a five-client ledger: one delta per client.  Rows share
    one width, so a short row makes the whole block narrow."""
    train_dir, prepared = trained(tmp_path, 2, 5)
    cells = [float(cell) for cell in row.split(",")]
    first = [0.0, 0.0, 0.1, 0.1, 0.0][: len(cells)]
    write_checkpoint(train_dir / "ledger.ckpt", 2, np.array([first, cells]), prepared.digest)
    with pytest.raises(MissingArtifactsError, match=r"ledger\.ckpt holds a 2x4 block ending at round 2, expected 2x5"):
        load_ledger(train_dir, prepared)


def test_csv_far_round_is_refused_without_a_grid_to_match(tmp_path):
    """A header naming a far end position is refused by its position,
    before any ledger of that many rounds is built."""
    train_dir, prepared = trained(tmp_path, 2, 2)
    path = train_dir / "ledger.ckpt"
    _, block, _ = read_checkpoint(path)
    write_checkpoint(path, 10**15, block, prepared.digest)
    message = f"holds a 2x2 block ending at round {10**15}, expected 2x2 ending at round 2"
    with pytest.raises(MissingArtifactsError, match=message):
        load_ledger(train_dir, prepared)


@pytest.mark.parametrize("column", ["delta"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_csv_refuses_a_non_finite_cell(tmp_path, column, value):
    train_dir, prepared = trained(tmp_path, 2, 2)
    block = ledger_from_deltas(prepared.contraction, 1, [[0.1, 0.2], [0.3, 0.4]]).deltas
    block[1, 1] = float(value)  # round 1: client 1's delta
    write_checkpoint(train_dir / "ledger.ckpt", 2, block, prepared.digest)
    with pytest.raises(MissingArtifactsError, match="ledger.ckpt round 1: non-finite increment for client 1"):
        load_ledger(train_dir, prepared)


def damage(block: np.ndarray, cell, value) -> np.ndarray:
    block = block.copy()
    block[cell] = value
    return block


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda b: damage(b, (2, 0), -0.5), "round 2: negative increment for client 0"),
    ],
    ids=["negative-delta"],
)
def test_read_refuses_a_damaged_block(tmp_path, edit, message):
    train_dir, prepared = trained(tmp_path, 4, 3)
    path = train_dir / "ledger.ckpt"
    _, block, _ = read_checkpoint(path)
    write_checkpoint(path, 4, edit(block), prepared.digest)
    with pytest.raises(MissingArtifactsError, match=message):
        load_ledger(train_dir, prepared)


def test_read_refuses_another_config_and_a_cut_file(tmp_path):
    train_dir, prepared = trained(tmp_path, 2, 2)
    path = train_dir / "ledger.ckpt"
    own = path.read_bytes()
    other_dir, _ = trained(tmp_path / "other", 2, 2, sigma=0.2)
    path.write_bytes((other_dir / "ledger.ckpt").read_bytes())
    with pytest.raises(ConfigError, match="ledger.ckpt was produced by a different config"):
        load_ledger(train_dir, prepared)
    path.write_bytes(own[:-4])
    with pytest.raises(MissingArtifactsError, match="truncated checkpoint"):
        load_ledger(train_dir, prepared)
    path.unlink()
    with pytest.raises(MissingArtifactsError, match="No such file"):
        load_ledger(train_dir, prepared)


def test_an_empty_suffix_cannot_be_written(tmp_path):
    """The checkpoint format holds no empty block, so a 0-round train writes
    no ledger file and reads back an empty ledger."""
    train_dir, prepared = trained(tmp_path, 0, 2)
    assert not (train_dir / "ledger.ckpt").exists()
    assert len(load_ledger(train_dir, prepared)) == 0
    with pytest.raises(DimensionMismatchError):
        write_checkpoint(tmp_path / "ledger.ckpt", 0, np.zeros((0, 2)), prepared.digest)
    assert not (tmp_path / "ledger.ckpt").exists()
