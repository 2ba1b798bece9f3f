"""Tests for the parallel machine (repro.machine.distributed + counters)."""

import numpy as np
import pytest

from repro.machine.counters import CommLog
from repro.machine.distributed import Machine
from repro.topology import Topology


def _one(m, rank, key):
    """Rank ``rank``'s ``key`` array."""
    return m.get_rows([rank], key)[0]


def _ragged(*arrays):
    """An object array of per-row arrays (rows of different sizes)."""
    rows = np.empty(len(arrays), dtype=object)
    rows[:] = list(arrays)
    return rows


def _log(p, *rounds):
    """A :class:`CommLog` of the given rounds, each a list of
    ``(src, dst, words)`` messages between distinct ranks."""
    log = CommLog(p)
    for msgs in rounds:
        src, dst, words = (np.array(col) for col in zip(*msgs))
        log.record(
            np.bincount(src, weights=words, minlength=p).astype(np.int64),
            np.bincount(dst, weights=words, minlength=p).astype(np.int64),
            np.bincount(src, minlength=p),
            np.bincount(dst, minlength=p),
        )
    return log


def _time(log, alpha, beta):
    return Topology.uniform(alpha, beta).time_from_steps(log.step_msgs, log.step_words)


class TestStorage:
    def test_put_get_roundtrip(self):
        m = Machine(2)
        m.put_rows([0], "x", np.arange(5.0)[None])
        assert np.array_equal(_one(m, 0, "x"), np.arange(5.0))

    def test_get_missing_raises(self):
        m = Machine(2)
        with pytest.raises(KeyError):
            m.get_rows([0], "nope")

    def test_memory_accounting(self):
        m = Machine(2)
        m.put_rows([0], "x", np.zeros((1, 10)))
        m.put_rows([0], "y", np.zeros((1, 5)))
        assert m.mem_used(0) == 15
        m.delete_rows([0], "x")
        assert m.mem_used(0) == 5
        assert m.mem_peak[0] == 15

    def test_replace_updates_usage(self):
        m = Machine(1)
        m.put_rows([0], "x", np.zeros((1, 10)))
        m.put_rows([0], "x", np.zeros((1, 3)))
        assert m.mem_used(0) == 3

    def test_memory_limit_enforced(self):
        m = Machine(1, memory_limit=8)
        m.put_rows([0], "x", np.zeros((1, 5)))
        with pytest.raises(MemoryError, match="exceeded"):
            m.put_rows([0], "y", np.zeros((1, 5)))

    def test_memory_limit_exceed_on_put_names_key_and_rank(self):
        m = Machine(3, memory_limit=4)
        with pytest.raises(MemoryError, match=r"rank 2.*'huge'"):
            m.put_rows([2], "huge", np.zeros((1, 5)))

    def test_memory_limit_exceeded_mid_superstep(self):
        # delivery is a store: an incoming payload that would overflow the
        # receiver's memory raises during the exchange
        m = Machine(2, memory_limit=8)
        m.put_rows([1], "x", np.zeros((1, 6)))
        with pytest.raises(MemoryError, match="rank 1"):
            m.exchange_rows([0], [1], "incoming", np.zeros((1, 6)))

    def test_memory_limit_replace_within_budget_ok_mid_superstep(self):
        # replacing an existing key with an equal-size payload is delta 0
        m = Machine(2, memory_limit=8)
        m.put_rows([1], "x", np.zeros((1, 8)))
        m.exchange_rows([0], [1], "x", np.ones((1, 8)), stacked=False)
        assert np.array_equal(_one(m, 1, "x"), np.ones(8))

    def test_memory_limit_none_tracks_peaks_without_raising(self):
        m = Machine(1, memory_limit=None)
        m.put_rows([0], "a", np.zeros((1, 1000)))
        m.put_rows([0], "b", np.zeros((1, 500)))
        m.delete_rows([0], "a")
        assert m.mem_used(0) == 500
        assert m.mem_peak[0] == 1500
        assert m.max_mem_peak == 1500

    def test_rank_bounds_checked(self):
        m = Machine(2)
        with pytest.raises(ValueError, match="out of range"):
            m.put_rows([5], "x", np.zeros((1, 1)))


class TestExchange:
    def test_message_delivery(self):
        m = Machine(2)
        m.exchange_rows([0], [1], "data", np.arange(4.0)[None], stacked=False)
        assert np.array_equal(_one(m, 1, "data"), np.arange(4.0))

    def test_self_send_free(self):
        m = Machine(2)
        m.exchange_rows([0], [0], "data", np.arange(4.0)[None], stacked=False)
        assert m.critical_words == 0
        assert np.array_equal(_one(m, 0, "data"), np.arange(4.0))

    def test_critical_words_max_over_ranks(self):
        m = Machine(4)
        # two disjoint simultaneous transfers count once (paper's example);
        # each rank only sends or only receives, so the round costs 10
        m.exchange_rows([0, 2], [1, 3], "a", np.zeros((2, 10)))
        assert m.critical_words == 10

    def test_fan_in_serializes(self):
        m = Machine(3)
        # two messages into rank 2 serialize (paper's §1.1 example)
        m.exchange_rows([0, 1], [2, 2], "a", np.zeros((2, 10)))
        assert m.critical_words == 20

    def test_message_counts(self):
        m = Machine(3)
        m.exchange_rows([0, 1], [2, 2], "a", np.zeros((2, 10)))
        assert m.critical_messages == 2  # rank 2 handles two messages

    def test_payload_snapshot(self):
        # delivery copies: later mutation of the source must not leak
        m = Machine(2)
        buf = np.zeros((1, 3))
        m.exchange_rows([0], [1], "a", buf, stacked=False)
        buf[:] = 9.0
        assert np.array_equal(_one(m, 1, "a"), np.zeros(3))

    def test_words_conservation(self):
        m = Machine(4)
        m.exchange_rows([0, 2], [1, 3], "a", _ragged(np.zeros(7), np.zeros(9)), stacked=False)
        step = m.log.steps[-1]
        assert sum(step.sent.values()) == sum(step.recv.values()) == 16


class TestRowPrimitives:
    def _messages(self):
        # fan-in at rank 2, a self-send at rank 3, a two-way swap of 0 and 1
        src = [0, 1, 3, 1, 0, 3]
        dst = [2, 2, 3, 0, 1, 2]
        payload = np.arange(6 * 4, dtype=np.float64).reshape(6, 4)
        return src, dst, payload

    def test_exchange_rows_tallies_equal_exchange(self):
        # the five cross messages of 4 words: ranks 0 and 1 each send two
        # and receive one, rank 2 receives three, rank 3 sends one
        src, dst, payload = self._messages()
        m = Machine(5)
        m.exchange_rows(src, dst, "x", payload, label="step")
        [step] = m.log.steps
        assert step.sent == {0: 8, 1: 8, 3: 4}
        assert step.recv == {0: 4, 1: 4, 2: 12}
        assert step.msgs == {0: 3, 1: 3, 2: 3, 3: 1}
        assert step.label == "step"
        assert m.critical_words == 12
        assert m.critical_messages == 3

    def test_destination_receives_rows_stacked_in_message_order(self):
        src, dst, payload = self._messages()
        m = Machine(5)
        m.exchange_rows(src, dst, "x", payload)
        assert np.array_equal(_one(m, 2, "x"), payload[[0, 1, 5]])
        assert np.array_equal(_one(m, 3, "x"), payload[[2]])
        assert m.mem_used(2) == 12 and not m.has(4, "x")

    def test_exchange_rows_snapshots_payload(self):
        m = Machine(2)
        buf = np.zeros((1, 3))
        m.exchange_rows([0], [1], "a", buf)
        buf[:] = 9.0
        assert np.array_equal(_one(m, 1, "a"), np.zeros((1, 3)))

    def test_exchange_rows_self_sends_are_free(self):
        m = Machine(3)
        m.exchange_rows([0, 1, 2], [0, 1, 2], "x", np.ones((3, 5)))
        assert m.log.n_supersteps == 0 and m.critical_words == 0
        assert np.array_equal(_one(m, 1, "x"), np.ones((1, 5)))

    @pytest.mark.parametrize("src,dst", [([0, 4], [1, 1]), ([0, 1], [1, -1])])
    def test_exchange_rows_rejects_out_of_range_ranks(self, src, dst):
        m = Machine(4)
        with pytest.raises(ValueError, match="out of range"):
            m.exchange_rows(src, dst, "x", np.zeros((2, 3)))
        assert m.log.n_supersteps == 0

    def test_row_storage_matches_per_rank_calls(self):
        # rank ranks[i] holds rows[i]; each rank's 2 words are charged and
        # released on that rank alone
        m = Machine(3)
        rows = np.arange(6.0).reshape(3, 2)
        m.put_rows([2, 0, 1], "x", rows)
        assert [m.mem_used(r) for r in range(3)] == [2, 2, 2]
        assert np.array_equal(m.get_rows([0, 1, 2], "x"), rows[[1, 2, 0]])
        assert np.array_equal(m.pop_rows([2], "x"), rows[[0]])
        assert [m.mem_used(r) for r in range(3)] == [2, 2, 0]
        m.delete_rows([0, 1], "x")
        assert [m.mem_used(r) for r in range(3)] == [0, 0, 0]
        assert list(m.mem_peak) == [2, 2, 2]
        m.flop_rows([0, 2], 5)
        assert list(m.flops) == [5, 0, 5]
        with pytest.raises(ValueError, match="out of range"):
            m.put_rows([0, 3], "y", np.zeros((2, 1)))

    def test_put_rows_memory_error_matches_repeated_put(self):
        # rank 1 is the first whose running total passes the limit (3 + 4 >
        # 6): the call raises there, naming it and the key, after storing
        # rank 0 and before touching rank 2
        m = Machine(3, memory_limit=6)
        m.put_rows([1], "old", np.zeros((1, 3)))
        m.put_rows([2], "old", np.zeros((1, 4)))
        with pytest.raises(MemoryError, match=r"rank 1 .*'new'"):
            m.put_rows([0, 1, 2], "new", np.zeros((3, 4)))
        assert m.has(0, "new") and not m.has(1, "new") and not m.has(2, "new")
        assert [m.mem_used(r) for r in range(3)] == [4, 3, 4]


class TestFlops:
    def test_compute_phase_takes_max(self):
        m = Machine(2)
        m.flop_rows([0, 1], [100, 40])
        m.end_compute_phase()
        assert m.critical_flops == 100
        m.flop_rows([1], 60)
        m.end_compute_phase()
        assert m.critical_flops == 160

    def test_negative_flops_rejected(self):
        m = Machine(1)
        with pytest.raises(ValueError):
            m.flop_rows([0], -1)


class TestAlphaBetaTime:
    """``Topology.uniform(α, β).time_from_steps`` on a log's tallies."""

    def test_hand_computed_two_supersteps(self):
        # step 1: fan-in at rank 1 (10 + 5 words, 2 msgs); step 2: one reply
        log = _log(3, [(0, 1, 10), (2, 1, 5)], [(1, 0, 3)])
        # step 1: max(α·1 + β·10, α·2 + β·15, α·1 + β·5) = 2·2 + 0.5·15 = 11.5
        # step 2: α·1 + β·3 = 3.5
        assert _time(log, 2.0, 0.5) == 11.5 + 3.5

    def test_couples_per_rank_below_separable_estimate(self):
        # msg-heavy rank (3 tiny messages) != word-heavy rank (one big one):
        # the coupled time is strictly below α·crit_msgs + β·crit_words
        log = _log(6, [(0, 1, 100), (2, 3, 1), (4, 3, 1), (5, 3, 1)])
        alpha, beta = 10.0, 1.0
        assert log.critical_messages == 3 and log.critical_words == 100
        # coupled: max(10·1 + 1·100, 10·3 + 1·3) = 110 < 10·3 + 1·100 = 130
        assert _time(log, alpha, beta) == 110.0
        assert _time(log, alpha, beta) < alpha * log.critical_messages + beta * log.critical_words

    def test_non_dyadic_alpha_beta(self):
        # a machine run: ranks 0 and 1 each send rank 2 one 3-word row,
        # then rank 2 sends rank 3 six words
        m = Machine(4)
        m.exchange_rows([0, 1], [2, 2], "a", np.zeros((2, 3)))
        m.exchange_rows([2], [3], "b", np.zeros((1, 6)))
        # step 1: rank 2 handles 2 msgs, 6 words: 0.1·2 + 0.3·6 = 2.0
        # step 2: ranks 2 and 3 each handle 1 msg, 6 words: 0.1 + 1.8 = 1.9
        assert _time(m.log, 0.1, 0.3) == pytest.approx(3.9, rel=1e-12)

    def test_empty_log_is_zero(self):
        assert _time(Machine(2).log, 5.0, 7.0) == 0.0

    def test_superstep_record_time(self):
        # one round: rank 0 sends 1 word to each of ranks 1-3 (3 msgs, 3
        # words); rank 2 sends rank 3 six words (ranks 2, 3: 2 msgs, 7 words)
        log = _log(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1), (2, 3, 6)])
        # α=2, β=1: max(2·3 + 3, 2·2 + 7) = 11 (rank 2 or 3)
        assert _time(log, 2.0, 1.0) == 11.0
        # α=10, β=1: max(10·3 + 3, 10·2 + 7) = 33 (rank 0)
        assert _time(log, 10.0, 1.0) == 33.0


class TestCounters:
    def test_superstep_critical(self):
        # a swap in one round: each rank sends one message and receives one
        log = _log(2, [(0, 1, 5), (1, 0, 3)])
        assert log.steps[0].sent == {0: 5, 1: 3} and log.steps[0].recv == {0: 3, 1: 5}
        assert log.critical_words == 8
        assert log.critical_messages == 2

    def test_commlog_accumulates(self):
        log = _log(2, [(0, 1, 5)], [(1, 0, 7)])
        assert log.critical_words == 12
        assert log.total_words == 12
        assert log.n_supersteps == 2


class TestRankArrays:
    """Row calls take integer rank arrays; the row stores take each rank once."""

    @pytest.mark.parametrize("ranks", [[1.9], [1.0], np.array([0.0, 1.0]), [True]])
    def test_put_rows_rejects_non_integer_ranks(self, ranks):
        m = Machine(3)
        with pytest.raises(ValueError, match="integers"):
            m.put_rows(ranks, "x", np.zeros((len(ranks), 2)))
        assert not any(m.has(r, "x") for r in range(3))

    @pytest.mark.parametrize("src,dst", [([0], [True]), ([0.0], [1]), ([0], [1.5])])
    def test_exchange_rows_rejects_non_integer_ranks(self, src, dst):
        m = Machine(3)
        with pytest.raises(ValueError, match="integers"):
            m.exchange_rows(src, dst, "x", np.zeros((1, 2)))
        assert m.log.n_supersteps == 0 and not m.has(1, "x")

    def test_single_rank_calls_still_need_an_integer(self):
        m = Machine(3)
        m.put_rows([1], "x", np.zeros((1, 2)))
        for call in (lambda: m.has(1.0, "x"), lambda: m.keys(1.0), lambda: m.mem_used(1.0)):
            with pytest.raises(TypeError):
                call()

    def test_numpy_integer_ranks_accepted(self):
        m = Machine(4)
        m.put_rows(np.array([3, 1], dtype=np.int32), "x", np.ones((2, 2)))
        m.put_rows(np.array([0], dtype=np.uint8), "x", np.ones((1, 2)))
        assert [m.has(r, "x") for r in range(4)] == [True, True, False, True]

    def test_put_rows_rejects_repeated_ranks(self):
        m = Machine(3)
        with pytest.raises(ValueError, match="rank 0 repeated"):
            m.put_rows([0, 2, 0], "x", np.arange(6.0).reshape(3, 2))
        assert not m.has(0, "x") and not m.has(2, "x")
        assert m.mem_used(0) == 0 and m.max_mem_peak == 0

    @pytest.mark.parametrize("call", ["pop_rows", "delete_rows"])
    def test_release_rows_reject_repeated_ranks(self, call):
        m = Machine(3)
        m.put_rows([0, 1], "x", np.ones((2, 4)))
        with pytest.raises(ValueError, match="rank 1 repeated"):
            getattr(m, call)([1, 1], "x")
        assert m.has(1, "x") and m.mem_used(1) == 4

    def test_as_sent_exchange_rejects_repeated_destinations(self):
        m = Machine(3)
        with pytest.raises(ValueError, match="repeated"):
            m.exchange_rows([0, 1], [2, 2], "x", np.ones((2, 1)), stacked=False)

    def test_flop_rows_charges_each_occurrence(self):
        m = Machine(3)
        m.flop_rows([1, 1, 2], 5)
        assert list(m.flops) == [0, 10, 5]


class TestSlabStore:
    def test_get_result_never_changes_under_later_puts(self):
        m = Machine(3)
        m.put_rows([0, 1, 2], "x", np.arange(6.0).reshape(3, 2))
        got = _one(m, 1, "x")
        m.put_rows([1], "x", np.full((1, 2), 9.0))
        m.put_rows([0, 1, 2], "x", np.zeros((3, 2)))
        m.exchange_rows([0], [1], "x", np.ones((1, 2)), stacked=False)
        assert np.array_equal(got, [2.0, 3.0])
        assert np.array_equal(_one(m, 1, "x"), [1.0, 1.0])

    def test_exchange_reads_payloads_taken_before_earlier_deliveries(self):
        # a 3-cycle on one key: every payload row was read from the slab
        # that the round's own deliveries overwrite
        m = Machine(3)
        m.put_rows([0, 1, 2], "x", np.arange(3.0)[:, None])
        m.exchange_rows([0, 1, 2], [1, 2, 0], "x", m.get_rows([0, 1, 2], "x"), stacked=False)
        assert m.get_rows([0, 1, 2], "x")[:, 0].tolist() == [2.0, 0.0, 1.0]

    def test_holders_may_disagree_on_shape(self):
        m = Machine(3)
        m.put_rows([0, 1], "x", np.ones((2, 4)))
        m.put_rows([2], "x", np.zeros((1, 2)))
        m.put_rows([0], "x", np.zeros((1, 2, 2), dtype=np.int64))
        assert _one(m, 0, "x").dtype == np.int64 and _one(m, 0, "x").shape == (2, 2)
        assert np.array_equal(_one(m, 1, "x"), np.ones(4))
        assert [m.mem_used(r) for r in range(3)] == [4, 4, 2]
        rows = m.get_rows([1, 2], "x")
        assert rows.dtype == object and [a.size for a in rows] == [4, 2]
        assert [a.size for a in m.pop_rows([2, 1], "x")] == [2, 4]
        assert m.keys(1) == [] and m.keys(0) == ["x"]

    def test_ragged_rows_round_trip(self):
        m = Machine(4, memory_limit=5)
        rows = np.empty(3, dtype=object)
        rows[:] = [np.ones(2), np.ones(5), np.ones(1)]
        m.put_rows([3, 0, 1], "x", rows)
        assert [m.mem_used(r) for r in range(4)] == [5, 1, 0, 2]
        big = np.empty(2, dtype=object)
        big[:] = [np.ones(3), np.ones(6)]
        with pytest.raises(MemoryError, match=r"rank 2 .*6 > 5"):
            m.put_rows([1, 2], "y", big)
        assert m.has(1, "y") and not m.has(2, "y")

    def test_key_released_everywhere_takes_a_new_shape(self):
        m = Machine(2)
        m.put_rows([0, 1], "x", np.zeros((2, 3)))
        m.delete_rows([0, 1], "x")
        m.put_rows([0, 1], "x", np.ones((2, 2, 2)))
        assert m.get_rows([0, 1], "x").shape == (2, 2, 2)
        assert m.mem_used(0) == 4

    def test_empty_rounds_are_not_logged(self):
        m = Machine(3)
        m.exchange_rows([], [], "x", np.zeros((0, 2)))
        m.exchange_rows([], [], "x", np.zeros((0, 2)), stacked=False)
        assert m.log.n_supersteps == 0 and m.log.step_words.shape == (0, 3)

    def test_log_arrays_match_records(self):
        m = Machine(4)
        m.exchange_rows([0, 1, 3], [2, 2, 3], "a", np.zeros((3, 4)))
        m.exchange_rows([2, 0], [1, 3], "d", np.zeros((2, 4)))
        assert m.log.step_words.tolist() == [[4, 4, 8, 0], [4, 4, 4, 4]]
        assert m.log.step_msgs.tolist() == [[1, 1, 2, 0], [1, 1, 1, 1]]
        assert [s.msgs for s in m.log.steps] == [{0: 1, 1: 1, 2: 2}, {0: 1, 1: 1, 2: 1, 3: 1}]
        assert m.log.total_words == 16 and m.critical_words == 12
