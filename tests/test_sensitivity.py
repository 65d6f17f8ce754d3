import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SQ
from fedunlearn.engine import RoundRecord, aggregate, renormalized_weights
from fedunlearn.errors import SingularRemovalError, StepSizeError
from fedunlearn.models import Regime, RegimeConstants
from fedunlearn.sensitivity import (
    CSV_HEADER,
    NoiseBudget,
    SensitivityLedger,
    client_increments_direct,
    client_increments_fast,
    contraction_factor,
    noise_std,
    psi_star,
)

CONVEX_1 = RegimeConstants(Regime.CONVEX, 1.0, 0.0, 0.0)
SC_UNIT = RegimeConstants(Regime.STRONGLY_CONVEX, 1.0, 1.0, 0.0)
SMOOTH_2 = RegimeConstants(Regime.SMOOTH, 2.0, 0.0, 0.0)


def toy_record(client_models, weights, round_index=0, active=None):
    models = np.asarray(client_models, dtype=np.float64)
    active = tuple(range(len(models))) if active is None else tuple(active)
    agg = aggregate(models, np.asarray(weights)[list(active)])
    return RoundRecord(round_index, np.zeros_like(agg), active, models, agg)


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
    record = toy_record([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])
    want = math.sqrt(0.5)
    assert client_increments_fast(record, [0.5, 0.5])[1] == pytest.approx(want, rel=1e-15)
    assert client_increments_direct(record, [0.5, 0.5])[1] == pytest.approx(want, rel=1e-15)


def test_increment_zero_weight_and_absent_client():
    # a vector over every client: the zero-weight client 1 needs company
    # that does not carry the full weight
    weights = [0.5, 0.0, 0.5]
    record = toy_record([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], weights)
    assert client_increments_fast(record, weights)[1] == 0.0
    absent = toy_record([[1.0, 0.0], [1.0, 1.0]], weights, active=(0, 2))
    assert client_increments_fast(absent, weights)[1] == 0.0
    assert client_increments_direct(absent, weights)[1] == 0.0


def test_increment_full_weight_client_is_singular():
    record = toy_record([[1.0, 0.0]], [1.0])
    with pytest.raises(SingularRemovalError):
        client_increments_fast(record, [1.0])
    with pytest.raises(SingularRemovalError):
        client_increments_direct(record, [1.0])


def test_uniform_weights_reduce_to_one_over_m_minus_one():
    rng = np.random.default_rng(31)
    for m in (3, 4, 10):
        models = rng.standard_normal((m, 5))
        weights = np.full(m, 1.0 / m)
        record = toy_record(models, weights)
        for c in range(m):
            gap = np.linalg.norm(models[c] - record.global_after)
            got = client_increments_fast(record, weights)[c]
            assert got == pytest.approx(gap / (m - 1), rel=1e-15)


def test_uniform_factor_is_exact_for_dyadic_counts():
    rng = np.random.default_rng(32)
    models = rng.standard_normal((4, 3))
    record = toy_record(models, np.full(4, 0.25))
    gap = float(np.linalg.norm(models[2] - record.global_after))
    assert client_increments_fast(record, np.full(4, 0.25))[2] == gap / 3.0


@settings(max_examples=80, deadline=None)
@given(
    values=st.lists(st.floats(-5, 5, allow_nan=False), min_size=12, max_size=12),
    raw=st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4),
    client=st.integers(0, 3),
)
def test_fast_increment_equals_direct_recomputation(values, raw, client):
    models = np.asarray(values).reshape(4, 3)
    weights = np.asarray(raw) / np.sum(raw)
    record = toy_record(models, weights)
    fast = client_increments_fast(record, weights)[client]
    direct = client_increments_direct(record, weights)[client]
    assert fast == pytest.approx(direct, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("active", [(0, 1, 2, 3, 4, 5, 6, 7, 8), (1, 2, 4, 7)])
@pytest.mark.parametrize("dim", [1, 6])
def test_stacked_increments_match_a_per_client_reference_bitwise(active, dim):
    rng = np.random.default_rng(33)
    raw = np.zeros(9)
    raw[list(active)] = rng.random(len(active)) + 0.05
    weights = raw / raw.sum()
    record = toy_record(rng.standard_normal((len(active), dim)), weights, active=active)
    fast, direct = np.zeros(9), np.zeros(9)
    for row, c in enumerate(active):
        p = float(weights[c])
        gap = float(np.linalg.norm(record.client_models[row] - record.global_after))
        fast[c] = p / (1.0 - p) * gap
        # the direct increment as one aggregation per removed client
        q = renormalized_weights(weights, {c})
        total = np.zeros(dim)
        for other, model in zip(active, record.client_models):
            if other != c:
                total = total + q[other] * model
        direct[c] = float(np.linalg.norm(record.global_after - total))
    assert client_increments_fast(record, weights).tobytes() == fast.tobytes()
    assert client_increments_direct(record, weights).tobytes() == direct.tobytes()


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


def ledger_from_deltas(contraction, local_steps, rows):
    ledger = SensitivityLedger(contraction, local_steps, len(rows[0]))
    for row in rows:
        ledger.record_round(row, 0)
    return ledger


def test_two_round_recurrence_by_hand():
    ledger = ledger_from_deltas(0.5, 1, [[1.0], [1.0]])
    assert ledger.psi[-1, 0] == 1.5
    assert ledger.bounded_sensitivity(2, [0])[0] == 1.5
    assert ledger.bounded_sensitivity(1, [0])[0] == 1.0
    assert ledger.bounded_sensitivity(0, [0])[0] == 0.0


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
    assert ledger.bounded_sensitivity(1, [1])[0] == 0.0
    for outside in ([2], [-1], [0, 5]):
        with pytest.raises(IndexError):
            ledger.bounded_sensitivity(1, outside)
        with pytest.raises(IndexError):
            ledger.rollback_index(outside, 1.0)


def test_negative_increment_rejected():
    ledger = SensitivityLedger(1.0, 1, 2)
    with pytest.raises(ValueError, match="client 1"):
        ledger.record_round([0.0, -0.1], 0)
    with pytest.raises(ValueError, match="shape"):
        ledger.record_round([0.1], 0)
    assert len(ledger) == 0


@settings(max_examples=60, deadline=None)
@given(
    deltas=st.lists(st.floats(0, 2.0), min_size=1, max_size=12),
    contraction=st.floats(0.3, 1.5),
    local_steps=st.integers(1, 3),
)
def test_series_matches_explicit_decayed_sum(deltas, contraction, local_steps):
    ledger = ledger_from_deltas(contraction, local_steps, [[d] for d in deltas])
    series = ledger.psi[:, 0]
    assert series.shape == (len(deltas) + 1,)
    for n in range(len(deltas) + 1):
        explicit = ledger.bounded_sensitivity(n, [0])[0]
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
        ledger.bounded_sensitivity(2, [0])
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
    ledger = SensitivityLedger(0.8, 2, 2)
    for k, row in enumerate([[0.3, 0.1], [0.5, 0.0], [0.2, 0.4]]):
        ledger.record_round(row, k)
    psi, deltas = ledger.psi, ledger.deltas
    ledger.truncate(len(ledger))
    np.testing.assert_array_equal(ledger.psi, psi)
    ledger.truncate(1)
    np.testing.assert_array_equal(ledger.psi, psi[:2])
    np.testing.assert_array_equal(ledger.deltas, deltas[:1])
    np.testing.assert_array_equal(ledger.segments, [0])
    ledger.record_round([0.0, 0.6], 7)
    np.testing.assert_array_equal(ledger.psi[2], ledger.round_decay * psi[1] + [0.0, 0.6])
    np.testing.assert_array_equal(ledger.segments, [0, 7])
    ledger.truncate(0)
    assert len(ledger) == 0
    assert ledger.psi.shape == (1, 2) and not ledger.psi.any()


class ScalarLedger:
    """Naive reference: per-client scalar folds over a list of rounds."""

    def __init__(self, contraction, local_steps, client_count):
        self.contraction, self.local_steps, self.client_count = contraction, local_steps, client_count
        self.rounds = []  # (segment, [delta of client 0, client 1, ...])

    def series(self, client):
        decay = self.contraction**self.local_steps
        out = [0.0]
        for _, deltas in self.rounds:
            out.append(decay * out[-1] + deltas[client])
        return out

    def bound(self, n, client):
        total = 0.0
        for s in range(n):
            total += self.contraction ** ((n - s - 1) * self.local_steps) * self.rounds[s][1][client]
        return total

    def rollback_index(self, clients, threshold):
        series = [self.series(c) for c in clients]
        return max(n for n in range(len(self.rounds) + 1) if max(x[n] for x in series) <= threshold)

    def csv_bytes(self):
        series = [self.series(c) for c in range(self.client_count)]
        lines = [",".join(CSV_HEADER)]
        for position, (segment, deltas) in enumerate(self.rounds):
            for client in range(self.client_count):
                delta, psi = format(deltas[client], ".17g"), format(series[client][position + 1], ".17g")
                lines.append(f"{position},{segment},{client},{delta},{psi}")
        return "".join(line + "\r\n" for line in lines).encode()


@st.composite
def ledger_scripts(draw):
    clients = draw(st.integers(1, 4))
    row = st.lists(st.floats(0, 2.0), min_size=clients, max_size=clients)
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("record"), row, st.integers(0, 5)),
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
    dropped=st.integers(0, 10**6),
)
def test_dense_ledger_matches_a_scalar_reference_bitwise(
    tmp_path_factory, script, contraction, local_steps, threshold, dropped
):
    clients, ops, targets = script
    ledger = SensitivityLedger(contraction, local_steps, clients)
    ref = ScalarLedger(contraction, local_steps, clients)
    for op in ops:
        if op[0] == "record":
            ledger.record_round(op[1], op[2])
            ref.rounds.append((op[2], list(op[1])))
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
        assert ledger.set_sensitivity(targets, m) == max(ref.bound(m, c) for c in targets)
    path = tmp_path_factory.mktemp("ledger") / "ledger.csv"
    ledger.export_csv(path)
    assert path.read_bytes() == ref.csv_bytes()
    loaded, recorded = SensitivityLedger.from_csv(path, contraction, local_steps, clients)
    np.testing.assert_array_equal(loaded.deltas, ledger.deltas)
    np.testing.assert_array_equal(loaded.segments, ledger.segments)
    np.testing.assert_array_equal(loaded.psi, ledger.psi)
    np.testing.assert_array_equal(recorded, ledger.psi[1:])
    cell = dropped % max(1, n * clients)
    # with one client, dropping the last round's only cell leaves a valid shorter ledger
    if n and not (clients == 1 and cell == n - 1):
        lines = path.read_bytes().splitlines(keepends=True)
        del lines[1 + cell]
        path.write_bytes(b"".join(lines))
        with pytest.raises(ValueError, match="missing round"):
            SensitivityLedger.from_csv(path, contraction, local_steps, clients)


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------


def test_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(40)
    ledger = SensitivityLedger(0.93, 2, 2)
    for k in range(7):
        ledger.record_round([float(rng.random()), float(rng.random())], k % 2)
    path = tmp_path / "ledger.csv"
    ledger.export_csv(path)
    loaded, recorded = SensitivityLedger.from_csv(path, 0.93, 2, 2)
    assert len(loaded) == 7
    np.testing.assert_array_equal(loaded.segments, [k % 2 for k in range(7)])
    np.testing.assert_array_equal(loaded.deltas, ledger.deltas)
    np.testing.assert_array_equal(loaded.psi, ledger.psi)
    assert recorded.shape == (7, 2)
    np.testing.assert_array_equal(recorded, ledger.psi[1:])


def test_csv_header_and_gap_detection(tmp_path):
    path = tmp_path / "ledger.csv"
    path.write_text("wrong,header,entirely,now,here\n")
    with pytest.raises(ValueError, match="header"):
        SensitivityLedger.from_csv(path, 1.0, 1, 1)
    rows = [",".join(CSV_HEADER), "0,0,0,0.5,0.5", "2,0,0,0.5,1.5"]
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError, match="missing round 1"):
        SensitivityLedger.from_csv(path, 1.0, 1, 1)


def test_csv_must_be_a_complete_grid(tmp_path):
    ledger = ledger_from_deltas(0.9, 1, [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
    path = tmp_path / "ledger.csv"
    ledger.export_csv(path)
    header, *rows = path.read_text().splitlines()
    assert SensitivityLedger.from_csv(path, 0.9, 1, 3)[0].deltas.tolist() == ledger.deltas.tolist()
    broken = {
        "missing round 1 for client 2": rows[:-1],
        "missing round 0 for client 1": rows[:1] + rows[2:],
        "repeats": rows + rows[-1:],
        "outside": rows + ["2,0,3,0.1,0.1"],
    }
    for message, body in broken.items():
        path.write_text("\n".join([header, *body]) + "\n")
        with pytest.raises(ValueError, match=message):
            SensitivityLedger.from_csv(path, 0.9, 1, 3)
    # the file names clients 0..2 only; a four-client federation misses client 3
    path.write_text("\n".join([header, *rows]) + "\n")
    with pytest.raises(ValueError, match="missing round 0 for client 3"):
        SensitivityLedger.from_csv(path, 0.9, 1, 4)


def test_ledger_constructor_validation():
    with pytest.raises(ValueError):
        SensitivityLedger(0.0, 1, 1)
    with pytest.raises(ValueError):
        SensitivityLedger(1.0, 0, 1)
    with pytest.raises(ValueError):
        SensitivityLedger(1.0, 1, 0)
