"""Tests for the parallel machine (repro.machine.distributed + counters)."""

import numpy as np
import pytest

from repro.machine.counters import CommLog, SuperstepRecord
from repro.machine.distributed import Machine


class TestStorage:
    def test_put_get_roundtrip(self):
        m = Machine(2)
        m.put(0, "x", np.arange(5.0))
        assert np.array_equal(m.get(0, "x"), np.arange(5.0))

    def test_get_missing_raises(self):
        m = Machine(2)
        with pytest.raises(KeyError):
            m.get(0, "nope")

    def test_memory_accounting(self):
        m = Machine(2)
        m.put(0, "x", np.zeros(10))
        m.put(0, "y", np.zeros(5))
        assert m.mem_used(0) == 15
        m.delete(0, "x")
        assert m.mem_used(0) == 5
        assert m.mem_peak[0] == 15

    def test_replace_updates_usage(self):
        m = Machine(1)
        m.put(0, "x", np.zeros(10))
        m.put(0, "x", np.zeros(3))
        assert m.mem_used(0) == 3

    def test_memory_limit_enforced(self):
        m = Machine(1, memory_limit=8)
        m.put(0, "x", np.zeros(5))
        with pytest.raises(MemoryError, match="exceeded"):
            m.put(0, "y", np.zeros(5))

    def test_memory_limit_exceed_on_put_names_key_and_rank(self):
        m = Machine(3, memory_limit=4)
        with pytest.raises(MemoryError, match=r"rank 2.*'huge'"):
            m.put(2, "huge", np.zeros(5))

    def test_memory_limit_exceeded_mid_superstep(self):
        # delivery happens through put(): an incoming payload that would
        # overflow the receiver's memory raises during the exchange
        m = Machine(2, memory_limit=8)
        m.put(1, "x", np.zeros(6))
        with pytest.raises(MemoryError, match="rank 1"):
            m.exchange([(0, 1, "incoming", np.zeros(6))])

    def test_memory_limit_replace_within_budget_ok_mid_superstep(self):
        # replacing an existing key with an equal-size payload is delta 0
        m = Machine(2, memory_limit=8)
        m.put(1, "x", np.zeros(8))
        m.exchange([(0, 1, "x", np.ones(8))])
        assert np.array_equal(m.get(1, "x"), np.ones(8))

    def test_memory_limit_none_tracks_peaks_without_raising(self):
        m = Machine(1, memory_limit=None)
        m.put(0, "a", np.zeros(1000))
        m.put(0, "b", np.zeros(500))
        m.delete(0, "a")
        assert m.mem_used(0) == 500
        assert m.mem_peak[0] == 1500
        assert m.max_mem_peak == 1500

    def test_rank_bounds_checked(self):
        m = Machine(2)
        with pytest.raises(ValueError, match="out of range"):
            m.put(5, "x", np.zeros(1))


class TestExchange:
    def test_message_delivery(self):
        m = Machine(2)
        m.exchange([(0, 1, "data", np.arange(4.0))])
        assert np.array_equal(m.get(1, "data"), np.arange(4.0))

    def test_self_send_free(self):
        m = Machine(2)
        m.exchange([(0, 0, "data", np.arange(4.0))])
        assert m.critical_words == 0
        assert np.array_equal(m.get(0, "data"), np.arange(4.0))

    def test_critical_words_max_over_ranks(self):
        m = Machine(4)
        # two disjoint simultaneous transfers count once (paper's example);
        # each rank only sends or only receives, so the round costs 10
        m.exchange([(0, 1, "a", np.zeros(10)), (2, 3, "b", np.zeros(10))])
        assert m.critical_words == 10

    def test_fan_in_serializes(self):
        m = Machine(3)
        # two messages into rank 2 serialize (paper's §1.1 example)
        m.exchange([(0, 2, "a", np.zeros(10)), (1, 2, "b", np.zeros(10))])
        assert m.critical_words == 20

    def test_message_counts(self):
        m = Machine(3)
        m.exchange([(0, 2, "a", np.zeros(10)), (1, 2, "b", np.zeros(10))])
        assert m.critical_messages == 2  # rank 2 handles two messages

    def test_payload_snapshot(self):
        # delivery copies: later mutation of the source must not leak
        m = Machine(2)
        buf = np.zeros(3)
        m.exchange([(0, 1, "a", buf)])
        buf[:] = 9.0
        assert np.array_equal(m.get(1, "a"), np.zeros(3))

    def test_words_conservation(self):
        m = Machine(4)
        m.exchange([(0, 1, "a", np.zeros(7)), (2, 3, "b", np.zeros(9))])
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
        src, dst, payload = self._messages()
        by_rows, by_msgs = Machine(5), Machine(5)
        by_rows.exchange_rows(src, dst, "x", payload, label="step")
        by_msgs.exchange(
            [(s, d, f"x{i}", payload[i]) for i, (s, d) in enumerate(zip(src, dst))],
            label="step",
        )
        assert by_rows.log.steps == by_msgs.log.steps
        assert by_rows.critical_words == by_msgs.critical_words == 12
        assert by_rows.critical_messages == by_msgs.critical_messages == 3

    def test_destination_receives_rows_stacked_in_message_order(self):
        src, dst, payload = self._messages()
        m = Machine(5)
        m.exchange_rows(src, dst, "x", payload)
        assert np.array_equal(m.get(2, "x"), payload[[0, 1, 5]])
        assert np.array_equal(m.get(3, "x"), payload[[2]])
        assert m.mem_used(2) == 12 and not m.has(4, "x")

    def test_exchange_rows_snapshots_payload(self):
        m = Machine(2)
        buf = np.zeros((1, 3))
        m.exchange_rows([0], [1], "a", buf)
        buf[:] = 9.0
        assert np.array_equal(m.get(1, "a"), np.zeros((1, 3)))

    def test_exchange_rows_self_sends_are_free(self):
        m = Machine(3)
        m.exchange_rows([0, 1, 2], [0, 1, 2], "x", np.ones((3, 5)))
        assert m.log.n_supersteps == 0 and m.critical_words == 0
        assert np.array_equal(m.get(1, "x"), np.ones((1, 5)))

    @pytest.mark.parametrize("src,dst", [([0, 4], [1, 1]), ([0, 1], [1, -1])])
    def test_exchange_rows_rejects_out_of_range_ranks(self, src, dst):
        m = Machine(4)
        with pytest.raises(ValueError, match="out of range"):
            m.exchange_rows(src, dst, "x", np.zeros((2, 3)))
        assert m.log.n_supersteps == 0

    def test_row_storage_matches_per_rank_calls(self):
        rows_m, rank_m = Machine(3), Machine(3)
        rows = np.arange(6.0).reshape(3, 2)
        rows_m.put_rows([2, 0, 1], "x", rows)
        for r, row in zip([2, 0, 1], rows):
            rank_m.put(r, "x", row)
        assert np.array_equal(rows_m.get_rows([0, 1, 2], "x"), rows[[1, 2, 0]])
        assert np.array_equal(rows_m.pop_rows([2], "x"), rows[[0]])
        rows_m.delete_rows([0, 1], "x")
        rank_m.delete(2, "x")
        rank_m.delete(0, "x")
        rank_m.delete(1, "x")
        assert [rows_m.mem_used(r) for r in range(3)] == [0, 0, 0]
        assert np.array_equal(rows_m.mem_peak, rank_m.mem_peak)
        rows_m.flop_rows([0, 2], 5)
        assert list(rows_m.flops) == [5, 0, 5]
        with pytest.raises(ValueError, match="out of range"):
            rows_m.put_rows([0, 3], "y", np.zeros((2, 1)))

    def test_put_rows_memory_error_matches_repeated_put(self):
        # rank 1 is the first whose running total passes the limit; both
        # paths raise there, naming it and the key, after storing rank 0
        def prepare():
            m = Machine(3, memory_limit=6)
            m.put(1, "old", np.zeros(3))
            m.put(2, "old", np.zeros(4))
            return m

        rows = np.zeros((3, 4))
        by_rows, by_put = prepare(), prepare()
        with pytest.raises(MemoryError, match=r"rank 1 .*'new'"):
            by_rows.put_rows([0, 1, 2], "new", rows)
        with pytest.raises(MemoryError, match=r"rank 1 .*'new'"):
            for r in range(3):
                by_put.put(r, "new", rows[r])
        for m in (by_rows, by_put):
            assert m.has(0, "new") and not m.has(1, "new") and not m.has(2, "new")
            assert [m.mem_used(r) for r in range(3)] == [4, 3, 4]


class TestFlops:
    def test_compute_phase_takes_max(self):
        m = Machine(2)
        m.flop(0, 100)
        m.flop(1, 40)
        m.end_compute_phase()
        assert m.critical_flops == 100
        m.flop(1, 60)
        m.end_compute_phase()
        assert m.critical_flops == 160

    def test_negative_flops_rejected(self):
        m = Machine(1)
        with pytest.raises(ValueError):
            m.flop(0, -1)


class TestAlphaBetaTime:
    def test_hand_computed_two_supersteps(self):
        # step 1: fan-in at rank 1 (10 + 5 words, 2 msgs); step 2: one reply
        m = Machine(3)
        m.exchange([(0, 1, "a", np.zeros(10)), (2, 1, "b", np.zeros(5))])
        m.exchange([(1, 0, "c", np.zeros(3))])
        alpha, beta = 2.0, 0.5
        # step 1: max(α·1 + β·10, α·2 + β·15, α·1 + β·5) = 2·2 + 0.5·15 = 11.5
        # step 2: α·1 + β·3 = 3.5
        assert m.time(alpha, beta) == pytest.approx(11.5 + 3.5)

    def test_couples_per_rank_below_separable_estimate(self):
        # msg-heavy rank (3 tiny messages) != word-heavy rank (one big one):
        # the coupled time is strictly below α·crit_msgs + β·crit_words
        m = Machine(6)
        m.exchange([
            (0, 1, "big", np.zeros(100)),
            (2, 3, "t1", np.zeros(1)),
            (4, 3, "t2", np.zeros(1)),
            (5, 3, "t3", np.zeros(1)),
        ])
        alpha, beta = 10.0, 1.0
        assert m.critical_messages == 3 and m.critical_words == 100
        # coupled: max(10·1 + 1·100, 10·3 + 1·3) = 110 < 10·3 + 1·100 = 130
        assert m.time(alpha, beta) == pytest.approx(110.0)
        assert m.time(alpha, beta) < alpha * m.critical_messages + beta * m.critical_words

    def test_defaults_to_machine_alpha_beta(self):
        m = Machine(2, alpha=3.0, beta=2.0)
        m.exchange([(0, 1, "a", np.zeros(4))])
        assert m.time() == pytest.approx(3.0 * 1 + 2.0 * 4)
        assert m.time(0.0, 1.0) == pytest.approx(4.0)

    def test_empty_log_is_zero(self):
        assert Machine(2).time(5.0, 7.0) == 0.0

    def test_superstep_record_time(self):
        s = SuperstepRecord(sent={0: 5, 1: 3}, recv={1: 5, 0: 3}, msgs={0: 4, 1: 1})
        # rank 0: α·4 + β·8; rank 1: α·1 + β·8
        assert s.time(2.0, 1.0) == pytest.approx(16.0)
        assert s.time(0.0, 1.0) == pytest.approx(8.0)
        assert SuperstepRecord().time(1.0, 1.0) == 0.0


class TestCounters:
    def test_superstep_critical(self):
        s = SuperstepRecord(sent={0: 5, 1: 3}, recv={1: 5, 0: 3}, msgs={0: 1, 1: 1})
        assert s.critical_words() == 8
        assert s.critical_messages() == 1

    def test_commlog_accumulates(self):
        log = CommLog()
        log.add(SuperstepRecord(sent={0: 5}, recv={1: 5}, msgs={0: 1, 1: 1}))
        log.add(SuperstepRecord(sent={1: 7}, recv={0: 7}, msgs={0: 1, 1: 1}))
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
        with pytest.raises(TypeError):
            Machine(3).put(1.0, "x", np.zeros(2))

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
        got = m.get(1, "x")
        m.put(1, "x", np.full(2, 9.0))
        m.put_rows([0, 1, 2], "x", np.zeros((3, 2)))
        m.exchange_rows([0], [1], "x", np.ones((1, 2)), stacked=False)
        assert np.array_equal(got, [2.0, 3.0])
        assert np.array_equal(m.get(1, "x"), [1.0, 1.0])

    def test_get_result_is_read_only(self):
        m = Machine(2)
        m.put(0, "x", np.zeros(3))
        with pytest.raises(ValueError):
            m.get(0, "x")[0] = 1.0

    def test_exchange_reads_payloads_taken_before_earlier_deliveries(self):
        # a 3-cycle on one key: every payload is a get() view of the slab
        # that the round's own deliveries overwrite
        m = Machine(3)
        m.put_rows([0, 1, 2], "x", np.arange(3.0)[:, None])
        m.exchange([(r, (r + 1) % 3, "x", m.get(r, "x")) for r in range(3)])
        assert [float(m.get(r, "x")[0]) for r in range(3)] == [2.0, 0.0, 1.0]

    def test_holders_may_disagree_on_shape(self):
        m = Machine(3)
        m.put_rows([0, 1], "x", np.ones((2, 4)))
        m.put(2, "x", np.zeros(2))
        m.put(0, "x", np.zeros((2, 2), dtype=np.int64))
        assert m.get(0, "x").dtype == np.int64 and m.get(0, "x").shape == (2, 2)
        assert np.array_equal(m.get(1, "x"), np.ones(4))
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
        m.exchange([])
        m.exchange_rows([], [], "x", np.zeros((0, 2)))
        m.exchange_rows([], [], "x", np.zeros((0, 2)), stacked=False)
        assert m.log.n_supersteps == 0 and m.log.step_words.shape == (0, 3)

    def test_log_arrays_match_records(self):
        m = Machine(4)
        m.exchange([(0, 2, "a", np.zeros(3)), (1, 2, "b", np.zeros(5)), (3, 3, "c", np.zeros(1))])
        m.exchange_rows([2, 0], [1, 3], "d", np.zeros((2, 4)))
        assert m.log.step_words.tolist() == [[3, 5, 8, 0], [4, 4, 4, 4]]
        assert m.log.step_msgs.tolist() == [[1, 1, 2, 0], [1, 1, 1, 1]]
        assert [s.msgs for s in m.log.steps] == [{0: 1, 1: 1, 2: 2}, {0: 1, 1: 1, 2: 1, 3: 1}]
        assert m.log.total_words == 16 and m.critical_words == 12
