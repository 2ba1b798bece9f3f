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


class TestParallelRegions:
    def test_branches_merge_positionally(self):
        m = Machine(4)
        with m.parallel() as par:
            with par.branch():
                m.exchange([(0, 1, "a", np.zeros(10))])
            with par.branch():
                m.exchange([(2, 3, "b", np.zeros(10))])
        # one merged superstep, not two
        assert m.log.n_supersteps == 1
        assert m.critical_words == 10

    def test_uneven_branches(self):
        m = Machine(4)
        with m.parallel() as par:
            with par.branch():
                m.exchange([(0, 1, "a", np.zeros(5))])
                m.exchange([(0, 1, "a2", np.zeros(5))])
            with par.branch():
                m.exchange([(2, 3, "b", np.zeros(5))])
        assert m.log.n_supersteps == 2

    def test_overlapping_ranks_rejected(self):
        m = Machine(4)
        with pytest.raises(ValueError, match="disjoint"):
            with m.parallel() as par:
                with par.branch():
                    m.exchange([(0, 1, "a", np.zeros(5))])
                with par.branch():
                    m.exchange([(0, 2, "b", np.zeros(5))])

    def test_nested_regions(self):
        m = Machine(8)
        with m.parallel() as par:
            with par.branch():
                with m.parallel() as inner:
                    with inner.branch():
                        m.exchange([(0, 1, "a", np.zeros(4))])
                    with inner.branch():
                        m.exchange([(2, 3, "b", np.zeros(4))])
            with par.branch():
                m.exchange([(4, 5, "c", np.zeros(4))])
        assert m.log.n_supersteps == 1
        assert m.critical_words == 4


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
