"""Tests for the machine-topology cost model (devices, links, tiers)."""

import math

import numpy as np
import pytest

from repro.topology import TOPOLOGY_FAMILIES, CommTier, Device, Topology


class TestUniform:
    def test_unbounded_fleet(self):
        t = Topology.uniform()
        assert t.is_uniform
        assert t.capacity is None
        t.validate_p(10**6)  # never rejects

    def test_bounded_fleet(self):
        t = Topology.uniform(p=8)
        assert t.capacity == 8
        assert len(t.devices) == 8
        t.validate_p(8)
        with pytest.raises(ValueError, match="exceeds the topology"):
            t.validate_p(9)

    def test_flat_alpha_beta(self):
        t = Topology.uniform(2.0, 0.5)
        assert t.effective_alpha_beta(64) == (2.0, 0.5)
        assert t.predict_time(100.0, 10.0, p=64) == 2.0 * 10 + 0.5 * 100

    def test_flops_free_on_cpu_builders(self):
        t = Topology.uniform()
        assert t.slowest_flop_rate(16) == math.inf
        # infinite rate: the flop term contributes nothing
        assert t.predict_time(0.0, 0.0, p=4, flops=1e12) == 0.0

    def test_time_from_steps_matches_flat_expression(self):
        # the golden-pinned identity: exactly (α·msgs + β·words).max(1).sum()
        rng = np.random.default_rng(7)
        step_msgs = rng.integers(0, 9, size=(5, 16)).astype(np.int64)
        step_words = rng.integers(0, 900, size=(5, 16)).astype(np.int64)
        alpha, beta = 1.5, 0.25
        t = Topology.uniform(alpha, beta)
        expected = float((alpha * step_msgs + beta * step_words).max(axis=1).sum())
        assert t.time_from_steps(step_msgs, step_words) == expected

    def test_time_from_steps_empty(self):
        t = Topology.uniform()
        assert t.time_from_steps(np.zeros((0, 4)), np.zeros((0, 4))) == 0.0

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ValueError, match="must be > 0"):
            Topology.uniform(alpha=0.0)
        with pytest.raises(ValueError, match="must be > 0"):
            Topology.uniform(beta=-1.0)


class TestFatTree:
    def test_tier_selection(self):
        t = Topology.fat_tree(16, 4)
        assert t.capacity == 64
        # p <= hosts_per_switch stays in-switch: 2 hops, uncontended
        assert t.effective_alpha_beta(4) == (2.0, 1.0)
        # crossing the core: 4 hops, oversubscribed bandwidth
        assert t.effective_alpha_beta(5) == (4.0, 2.0)

    def test_oversubscription_scales_beta(self):
        t = Topology.fat_tree(4, 4, oversubscription=3.0)
        assert t.effective_alpha_beta(16) == (4.0, 3.0)

    def test_capacity_enforced(self):
        t = Topology.fat_tree(2, 2)
        with pytest.raises(ValueError, match="exceeds the topology"):
            t.validate_p(5)

    def test_links_cover_hosts_and_switches(self):
        t = Topology.fat_tree(3, 2)
        assert len(t.devices) == 6
        assert len(t.links) == 6 + 3  # host->edge + edge->core


class TestTorus:
    def test_tiers_grow_with_subblock(self):
        t = Topology.torus((4, 4))
        assert t.capacity == 16
        caps = [tier.capacity for tier in t.tiers]
        assert caps == sorted(caps)
        assert caps[0] == 1 and caps[-1] == 16

    def test_single_node_job_pays_no_hops(self):
        t = Topology.torus((4, 4))
        alpha, beta = t.effective_alpha_beta(1)
        assert alpha == 1.0 and beta == 1.0

    def test_full_machine_pays_diameter_and_bisection(self):
        t = Topology.torus((8, 8))
        alpha, beta = t.effective_alpha_beta(64)
        assert alpha == 1.0 * (7 + 7)  # sub-block diameter in hops
        assert beta == 1.0 * (8 / 4.0)  # side/4 bisection contention

    def test_wraparound_link_count(self):
        # a d-dim torus with all sides > 1 has one +1 link per node per axis
        t = Topology.torus((3, 3))
        assert len(t.links) == 9 * 2

    def test_rejects_empty_dims(self):
        with pytest.raises(ValueError, match="at least one dimension"):
            Topology.torus(())


class TestGpuCluster:
    def test_nvlink_vs_network_tiers(self):
        t = Topology.gpu_cluster(2, 8)
        assert t.effective_alpha_beta(8) == (pytest.approx(0.1), pytest.approx(0.1))
        assert t.effective_alpha_beta(9) == (4.0, 1.0)

    def test_finite_flop_rate_prices_compute(self):
        t = Topology.gpu_cluster(2, 4, gpu_flop_rate=8.0)
        assert t.slowest_flop_rate(8) == 8.0
        assert t.predict_time(0.0, 0.0, p=4, flops=80.0) == pytest.approx(10.0)

    def test_devices_are_gpus(self):
        t = Topology.gpu_cluster(2, 2)
        assert all(d.kind == "gpu" for d in t.devices)


class TestParse:
    @pytest.mark.parametrize(
        "spec,kind,capacity",
        [
            ("uniform", "uniform", None),
            ("uniform:32", "uniform", 32),
            ("fat-tree:16x4", "fat-tree", 64),
            ("torus:4x4x4", "torus", 64),
            ("gpu:2x8", "gpu", 16),
            ("gpu-cluster:2x8", "gpu", 16),
        ],
    )
    def test_grammar(self, spec, kind, capacity):
        t = Topology.parse(spec)
        assert t.kind == kind
        assert t.capacity == capacity

    def test_alpha_beta_forwarded(self):
        t = Topology.parse("fat-tree:2x4", alpha=3.0, beta=0.5)
        assert t.effective_alpha_beta(2) == (6.0, 0.5)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown topology family"):
            Topology.parse("hypercube:8")
        assert "fat-tree" in TOPOLOGY_FAMILIES

    @pytest.mark.parametrize("spec", ["fat-tree:16", "fat-tree:axb", "torus:0x4", "gpu:2"])
    def test_malformed_specs(self, spec):
        with pytest.raises(ValueError, match="malformed topology spec"):
            Topology.parse(spec)


class TestInvariants:
    def test_tier_ordering_enforced(self):
        with pytest.raises(ValueError, match="ordered innermost"):
            Topology(
                kind="x",
                name="x",
                tiers=(CommTier("outer", 64, 1, 1), CommTier("inner", 4, 1, 1)),
            )

    def test_device_count_must_match_outer_capacity(self):
        with pytest.raises(ValueError, match="device count"):
            Topology(
                kind="x",
                name="x",
                tiers=(CommTier("all", 4, 1, 1),),
                devices=(Device(0),),
            )

    def test_needs_a_tier(self):
        with pytest.raises(ValueError, match="at least one communication tier"):
            Topology(kind="x", name="x", tiers=())

    def test_cache_token_distinguishes_parameters(self):
        a = Topology.fat_tree(4, 4)
        b = Topology.fat_tree(4, 4, oversubscription=3.0)
        c = Topology.fat_tree(4, 4)
        assert a.cache_token() != b.cache_token()
        assert a.cache_token() == c.cache_token()

    def test_describe_is_json_ready(self):
        import json

        doc = Topology.parse("torus:4x4").describe()
        text = json.dumps(doc, allow_nan=False)
        assert "torus:4x4" in text


class TestScalingIdentity:
    def test_uniform_topology_reproduces_machine_time(self):
        """On a real measured run, ``Topology.uniform``'s time is the flat
        α-β time ``Σ_steps max_r (α·msgs_r + β·words_r)``, summed here by a
        plain loop over the log's superstep records."""
        from repro.parallel import ParallelConfig, get_parallel
        from repro.util.matgen import integer_matrix

        A = integer_matrix(32, seed=1)
        B = integer_matrix(32, seed=2)
        r = get_parallel("cannon").execute(A, B, ParallelConfig(n=32, p=16))
        alpha, beta = 1.25, 0.75
        log = r.machine.log
        expected = 0.0
        for s in log.steps:
            ranks = set(s.sent) | set(s.recv) | set(s.msgs)
            expected += max(
                alpha * s.msgs.get(rk, 0) + beta * (s.sent.get(rk, 0) + s.recv.get(rk, 0))
                for rk in ranks
            )
        assert log.n_supersteps > 0
        topo = Topology.uniform(alpha, beta)
        assert topo.time_from_steps(log.step_msgs, log.step_words) == pytest.approx(
            expected, rel=1e-12
        )
