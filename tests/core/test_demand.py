"""Tests for the demand-side feasibility extension."""

import pytest

from repro.core import (
    DecentralizationOverhead,
    SERVICES,
    demand_table,
    paper_model,
    serveable_users,
)
from repro.core.demand import ServiceDemand, service
from repro.errors import FeasibilityError


class TestServiceProfiles:
    def test_known_services(self):
        names = {s.name for s in SERVICES}
        assert {"email", "social_feed", "photo_sharing",
                "video_streaming", "web_hosting"} == names

    def test_lookup(self):
        assert service("email").name == "email"
        with pytest.raises(FeasibilityError):
            service("metaverse")

    def test_negative_demand_rejected(self):
        with pytest.raises(FeasibilityError):
            ServiceDemand("bad", -1, 0, 0)

    def test_overhead_validation(self):
        with pytest.raises(FeasibilityError):
            DecentralizationOverhead(storage_replication=0.5)


class TestServeableUsers:
    def test_binding_resource_is_minimum(self):
        result = serveable_users(service("video_streaming"))
        binding = result["binding_resource"]
        assert result["overall"] == result[binding]
        assert all(result[r] >= result["overall"]
                   for r in ("storage", "bandwidth", "cores"))

    def test_video_is_bandwidth_bound(self):
        result = serveable_users(service("video_streaming"))
        assert result["binding_resource"] == "bandwidth"

    def test_email_is_storage_bound(self):
        result = serveable_users(service("email"))
        assert result["binding_resource"] == "storage"

    def test_higher_overhead_fewer_users(self):
        cheap = serveable_users(
            service("photo_sharing"),
            overhead=DecentralizationOverhead(1.0, 1.0, 1.0),
        )
        costly = serveable_users(
            service("photo_sharing"),
            overhead=DecentralizationOverhead(4.0, 4.0, 4.0),
        )
        assert costly["overall"] < cheap["overall"]

    def test_zero_demand_is_unbounded(self):
        demand = ServiceDemand("free", 0, 0, 0)
        result = serveable_users(demand)
        assert result["overall"] == float("inf")


class TestDemandTable:
    def test_headline_narrative(self):
        # The fleet can host everyone's email/photos/feeds/sites, but
        # global video streaming is bandwidth-infeasible on 1 Mbps uplinks.
        rows = {row["service"]: row for row in demand_table()}
        assert rows["email"]["covers_internet"] is True
        assert rows["social_feed"]["covers_internet"] is True
        assert rows["web_hosting"]["covers_internet"] is True
        assert rows["photo_sharing"]["covers_internet"] is True
        assert rows["video_streaming"]["covers_internet"] is False
        assert rows["video_streaming"]["binding_resource"] == "bandwidth"

    def test_table_uses_supplied_model(self):
        shrunk = paper_model().with_populations_scaled(0.01)
        rows = {row["service"]: row for row in demand_table(model=shrunk)}
        # With 1% of devices, even photo sharing stops covering everyone.
        assert rows["photo_sharing"]["covers_internet"] is False

    def test_row_shape(self):
        for row in demand_table():
            assert set(row) == {
                "service", "serveable_users_billions",
                "binding_resource", "covers_internet",
            }
