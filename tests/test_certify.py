"""Certified expansion intervals: invariants, provenance, end-to-end carry.

The contract under test (ISSUE 8): every ``auto``-policy expansion result —
engine rows, serve payloads, CLI JSON — carries an ``ExpansionInterval``
whose ``lower <= upper`` always holds, whose endpoints collapse to the exact
``h`` whenever enumeration ran, and whose provenance tag names the proof
path actually taken.
"""

import math

import pytest

from repro.cdag.strassen_cdag import dec_graph
from repro.core.certify import METHOD_PROVENANCE, PROVENANCES, ExpansionInterval
from repro.core.expansion import POLICIES, ExpansionEstimate, estimate_expansion
from repro.engine.builders import cached_estimate
from repro.engine.cache import EngineCache
from repro.engine.grid import GridPoint, evaluate_point


class TestIntervalInvariants:
    def test_valid_interval_accepts_and_reports(self):
        iv = ExpansionInterval(lower=0.25, upper=0.5, provenance="cheeger+sweep")
        assert iv.width == pytest.approx(0.25)
        assert not iv.is_exact
        assert iv.as_dict() == {"lower": 0.25, "upper": 0.5, "provenance": "cheeger+sweep"}

    def test_point_interval_is_exact(self):
        iv = ExpansionInterval(lower=0.15, upper=0.15, provenance="exact")
        assert iv.is_exact and iv.width == 0.0

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ExpansionInterval(lower=0.5, upper=0.25, provenance="exact")

    def test_non_finite_endpoints_rejected(self):
        for lo, hi in ((math.nan, 1.0), (0.0, math.inf), (math.nan, math.nan)):
            with pytest.raises(ValueError, match="finite"):
                ExpansionInterval(lower=lo, upper=hi, provenance="cone")

    def test_negative_lower_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ExpansionInterval(lower=-0.1, upper=0.5, provenance="cone")

    def test_unknown_provenance_rejected(self):
        with pytest.raises(ValueError, match="provenance"):
            ExpansionInterval(lower=0.0, upper=1.0, provenance="vibes")


def _estimate(method, lower=0.25, upper=0.5):
    return ExpansionEstimate(
        lower=lower, upper=upper, witness_size=2, witness_boundary=3, degree=6, method=method
    )


class TestProvenanceMapping:
    @pytest.mark.parametrize(
        ("method", "tag"),
        [
            ("exact", "exact"),
            ("spectral+sweep", "cheeger+sweep"),
            ("spectral+cone", "cheeger+cone"),
            ("cone-only", "cone"),
        ],
    )
    def test_method_maps_to_provenance(self, method, tag):
        assert _estimate(method).interval().provenance == tag
        assert tag in PROVENANCES

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="method"):
            _estimate("oracle").interval()

    def test_cone_only_nan_lower_becomes_trivial_zero(self):
        est = ExpansionEstimate(
            lower=math.nan, upper=0.25, witness_size=2,
            witness_boundary=3, degree=6, method="cone-only",
        )
        iv = est.interval()
        assert iv.lower == 0.0 and iv.upper == 0.25 and iv.provenance == "cone"


    def test_zero_upper_certifies_zero_despite_float_residue(self):
        # a zero-boundary witness proves h = 0; the Cheeger lower carries
        # eigensolver residue (~1e-17) that must not empty the interval
        est = ExpansionEstimate(
            lower=2.15e-17, upper=0.0, witness_size=4,
            witness_boundary=0, degree=6, method="spectral+sweep",
        )
        iv = est.interval()
        assert (iv.lower, iv.upper) == (0.0, 0.0)
        assert iv.provenance == "cheeger+sweep"

    def test_positive_upper_keeps_the_invariant_check(self):
        est = ExpansionEstimate(
            lower=0.5, upper=0.25, witness_size=4,
            witness_boundary=1, degree=6, method="spectral+sweep",
        )
        with pytest.raises(ValueError, match="empty"):
            est.interval()


ZERO_EXPANSION_CASES = [
    ("classical2", 3, "auto"),
    ("classical2", 4, "auto"),
    ("classical2", 1, "spectral"),
    ("classical2", 3, "spectral"),
    ("classical122", 1, "spectral"),
    ("classical122", 2, "spectral"),
    ("classical221", 1, "spectral"),
    ("classical221", 2, "spectral"),
]


@pytest.mark.parametrize(("scheme", "k", "policy"), ZERO_EXPANSION_CASES)
def test_zero_boundary_witness_gives_zero_interval(scheme, k, policy):
    est = cached_estimate(scheme, k, policy=policy, cache=EngineCache(disk=False))
    assert est.witness_boundary == 0 and est.upper == 0.0
    iv = est.interval()
    assert (iv.lower, iv.upper) == (0.0, 0.0)


class TestEstimatorIntervals:
    def test_exact_interval_pins_h(self):
        g = dec_graph("strassen", 1)
        est = estimate_expansion(g)
        iv = est.interval()
        assert est.method == "exact"
        assert iv.is_exact and iv.lower == iv.upper == est.lower == est.upper
        assert iv.provenance == "exact"

    def test_certified_interval_facade(self):
        g = dec_graph("strassen", 1)
        iv = estimate_expansion(g, "strassen", 1).interval()
        assert iv.is_exact and iv.provenance == "exact"

    def test_spectral_interval_sandwiches(self):
        g = dec_graph("strassen", 2)  # 105 vertices: beyond exact, spectral runs
        iv = estimate_expansion(g, "strassen", 2).interval()
        assert iv.provenance in ("cheeger+sweep", "cheeger+cone")
        assert 0.0 < iv.lower <= iv.upper

    @pytest.mark.parametrize(
        ("k", "provenance", "lower", "upper"),
        [
            (1, "exact", 0.15, 0.15),
            (2, "cheeger+sweep", 0.015842411463947905, 0.05405405405405406),
        ],
    )
    def test_auto_interval_values(self, k, provenance, lower, upper):
        est = cached_estimate("strassen", k, policy="auto", cache=EngineCache(disk=False))
        iv = est.interval()
        assert iv.provenance == provenance
        assert (iv.lower, iv.upper) == pytest.approx((lower, upper), rel=1e-4)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_cached_estimate_interval_invariants_per_policy(self, policy):
        cache = EngineCache(disk=False)
        k = 1 if policy == "exact" else 3
        est = cached_estimate("strassen", k, policy=policy, cache=cache)
        iv = est.interval()
        assert iv.lower <= iv.upper
        assert iv.provenance == METHOD_PROVENANCE[est.method]
        if est.method == "exact":
            assert iv.is_exact
        if est.method == "cone-only":
            assert math.isnan(est.lower) and iv.lower == 0.0
        # warm decode path yields the same certificate
        iv2 = cached_estimate("strassen", k, policy=policy, cache=cache).interval()
        assert iv2 == iv

    def test_cached_arrays_carry_the_certificate(self, tmp_path):
        from repro.cdag.schemes import get_scheme
        from repro.core.exact import effective_exact_limit
        from repro.engine.cache import cache_key

        cache = EngineCache(tmp_path / "cache")
        est = cached_estimate("strassen", 1, policy="auto", cache=cache)
        key = cache_key(
            "estimate",
            get_scheme("strassen"),
            k=1,
            policy="auto",
            exact_limit=effective_exact_limit(),
        )
        data = cache.get_arrays(key)
        assert data is not None
        assert str(data["provenance"]) == est.interval().provenance
        assert float(data["interval_lower"]) == est.interval().lower


class TestGridRowsCarryIntervals:
    def test_auto_rows_expose_certified_fields(self):
        cache = EngineCache(disk=False)
        for k, want in ((1, "exact"), (2, "cheeger+sweep")):
            row = evaluate_point(GridPoint("strassen", k, 48, "auto"), cache=cache)
            assert row["provenance"] == want
            assert row["h_lower_cert"] <= row["h_upper"]
            if want == "exact":
                assert row["h_lower_cert"] == row["h_upper"] == row["h_lower"]

    def test_cone_row_has_zero_certified_lower(self):
        cache = EngineCache(disk=False)
        row = evaluate_point(GridPoint("strassen", 5, 48, "cone"), cache=cache)
        assert math.isnan(row["h_lower"])
        assert row["h_lower_cert"] == 0.0
        assert row["provenance"] == "cone"
