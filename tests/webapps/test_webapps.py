"""Tests for hostless sites, trackers, and visitor-seeded swarms."""

import pytest

from repro.errors import WebAppError
from repro.net import ConstantLatency, Network
from repro.sim import RngStreams, Simulator
from repro.webapps import (
    HostlessSite,
    SiteBundle,
    SiteSwarm,
    Tracker,
    VisitorProcess,
)


def make_env(seed=1):
    sim = Simulator()
    streams = RngStreams(seed)
    network = Network(sim, streams, latency=ConstantLatency(0.01))
    tracker = Tracker(network)
    swarm = SiteSwarm(network, tracker)
    return sim, streams, network, tracker, swarm


def make_site(seed="blog"):
    site = HostlessSite(seed)
    site.write_file("index.html", b"<h1>hello</h1>")
    site.write_file("app.js", b"console.log('hostless')")
    return site


class TestHostlessSite:
    def test_publish_produces_verified_bundle(self):
        bundle = make_site().publish()
        assert bundle.verify()
        assert bundle.size_bytes > 0

    def test_versions_increment(self):
        site = make_site()
        b1 = site.publish()
        site.write_file("index.html", b"<h1>v2</h1>")
        b2 = site.publish()
        assert b2.manifest.version == b1.manifest.version + 1

    def test_tampered_file_fails_verification(self):
        bundle = make_site().publish()
        tampered = SiteBundle(
            manifest=bundle.manifest,
            files={**bundle.files, "index.html": b"<h1>evil</h1>"},
        )
        assert not tampered.verify()

    def test_extra_file_fails_verification(self):
        bundle = make_site().publish()
        bloated = SiteBundle(
            manifest=bundle.manifest,
            files={**bundle.files, "malware.js": b"bad()"},
        )
        assert not bloated.verify()

    def test_forged_manifest_fails(self):
        site_a, site_b = make_site("a"), make_site("b")
        bundle_a, bundle_b = site_a.publish(), site_b.publish()
        # Graft b's signature onto a's manifest body.
        from repro.webapps.site import SiteManifest

        forged = SiteManifest(
            site_address=bundle_a.manifest.site_address,
            version=bundle_a.manifest.version,
            file_hashes=bundle_a.manifest.file_hashes,
            parent_address=None,
            signature=bundle_b.manifest.signature,
        )
        assert not forged.verify()

    def test_fork_records_parent_and_copies_files(self):
        parent = make_site("origin")
        child = parent.fork("fork-1")
        assert child.address != parent.address
        assert child.files() == parent.files()
        bundle = child.publish()
        assert bundle.manifest.parent_address == parent.address
        assert bundle.verify()

    def test_empty_site_cannot_publish(self):
        with pytest.raises(WebAppError):
            HostlessSite("empty").publish()

    def test_delete_file(self):
        site = make_site()
        site.delete_file("app.js")
        assert site.files() == ["index.html"]
        with pytest.raises(WebAppError):
            site.delete_file("app.js")


class TestSwarm:
    def test_author_seeds_then_visitor_fetches(self):
        sim, streams, network, tracker, swarm = make_env()
        bundle = make_site().publish()
        address = bundle.manifest.site_address

        def scenario():
            yield from swarm.seed("author", bundle)
            fetched = yield from swarm.visit("visitor1", address)
            return fetched

        fetched = sim.run_process(scenario())
        assert fetched.verify()
        assert fetched.files == bundle.files

    def test_visitor_becomes_seeder(self):
        sim, streams, network, tracker, swarm = make_env(seed=2)
        bundle = make_site().publish()
        address = bundle.manifest.site_address

        def scenario():
            yield from swarm.seed("author", bundle)
            fetched = yield from swarm.visit("v1", address)
            yield from swarm.seed("v1", fetched)
            # Author leaves; site must survive on the visitor's seed.
            network.node("author").set_online(False, sim.now)
            return (yield from swarm.visit("v2", address))

        assert sim.run_process(scenario()).verify()

    def test_no_seeders_means_site_down(self):
        sim, streams, network, tracker, swarm = make_env(seed=3)
        bundle = make_site().publish()
        address = bundle.manifest.site_address

        def scenario():
            yield from swarm.seed("author", bundle)
            network.node("author").set_online(False, sim.now)
            try:
                yield from swarm.visit("v1", address)
            except WebAppError:
                return "down"

        assert sim.run_process(scenario()) == "down"

    def test_tracker_down_blocks_discovery(self):
        sim, streams, network, tracker, swarm = make_env(seed=4)
        bundle = make_site().publish()
        address = bundle.manifest.site_address

        def scenario():
            yield from swarm.seed("author", bundle)
            network.node(tracker.tracker_id).set_online(False, sim.now)
            try:
                yield from swarm.visit("v1", address)
            except WebAppError:
                return "tracker-spof"

        # The centralized tracker is a single point of failure.
        assert sim.run_process(scenario()) == "tracker-spof"

    def test_stop_seeding_departs_tracker(self):
        sim, streams, network, tracker, swarm = make_env(seed=5)
        bundle = make_site().publish()
        address = bundle.manifest.site_address

        def scenario():
            yield from swarm.seed("author", bundle)
            yield from swarm.stop_seeding("author", address)
            peers = yield from tracker.get_peers("author", address)
            return peers

        assert sim.run_process(scenario()) == []

    def test_updated_version_propagates(self):
        sim, streams, network, tracker, swarm = make_env(seed=6)
        site = make_site()
        v1 = site.publish()
        address = v1.manifest.site_address

        def scenario():
            yield from swarm.seed("author", v1)
            site.write_file("index.html", b"<h1>v2</h1>")
            v2 = site.publish()
            yield from swarm.seed("author", v2)
            fetched = yield from swarm.visit("v1", address)
            return fetched.manifest.version

        assert sim.run_process(scenario()) == 2


class TestVisitorPopulation:
    def run_population(self, seed, arrival_rate, mean_seed_time, horizon=2000.0):
        sim, streams, network, tracker, swarm = make_env(seed=seed)
        bundle = make_site().publish()
        address = bundle.manifest.site_address

        def bootstrap():
            yield from swarm.seed("author", bundle)
            # The author leaves early: the swarm must self-sustain.
            yield 50.0
            yield from swarm.stop_seeding("author", address)

        population = VisitorProcess(
            swarm, address, streams,
            arrival_rate=arrival_rate, mean_seed_time=mean_seed_time,
        )
        population.start()
        sim.spawn(bootstrap())
        sim.run(until=horizon)
        population.stop()
        return population.stats

    def test_popular_site_self_sustains(self):
        # arrival_rate x seed_time = 0.5 x 120 = 60 >> 1: swarm survives.
        stats = self.run_population(7, arrival_rate=0.5, mean_seed_time=120.0)
        assert stats.arrivals > 100
        assert stats.availability > 0.9

    def test_unpopular_site_dies(self):
        # arrival_rate x seed_time = 0.005 x 20 = 0.1 << 1: swarm dies.
        stats = self.run_population(8, arrival_rate=0.005, mean_seed_time=20.0)
        assert stats.availability < 0.5

    def test_invalid_parameters_rejected(self):
        sim, streams, network, tracker, swarm = make_env()
        with pytest.raises(WebAppError):
            VisitorProcess(swarm, "x", streams, arrival_rate=0.0, mean_seed_time=1.0)


class TestSwarmEdges:
    def test_register_peer_idempotent(self):
        sim, streams, network, tracker, swarm = make_env(44)
        swarm.register_peer("p")
        swarm.register_peer("p")  # no duplicate-node error
        assert network.has_node("p")

    def test_refusing_unverifiable_bundle(self):
        sim, streams, network, tracker, swarm = make_env(45)
        site = HostlessSite("gap-site")
        site.write_file("a", b"data")
        bundle = site.publish()
        bad = SiteBundle(manifest=bundle.manifest, files={"a": b"tampered"})

        def scenario():
            yield from swarm.seed("peer", bad)

        with pytest.raises(WebAppError):
            sim.run_process(scenario())


class TestMaliciousSeeder:
    def test_visitor_rejects_tampered_bundle_and_finds_honest_peer(self):
        sim, streams, network, tracker, swarm = make_env(61)
        site = HostlessSite("attacked-site")
        site.write_file("index.html", b"<h1>real</h1>")
        bundle = site.publish()
        address = bundle.manifest.site_address
        forged = SiteBundle(
            manifest=bundle.manifest,
            files={"index.html": b"<h1>malware</h1>"},
        )

        def scenario():
            # The honest author seeds normally.
            yield from swarm.seed("author", bundle)
            # A malicious peer bypasses seed() verification and announces.
            swarm.register_peer("mallory")
            swarm._seeding["mallory"][address] = forged
            yield from tracker.announce("mallory", address)
            fetched = yield from swarm.visit("visitor", address)
            return fetched

        fetched = sim.run_process(scenario())
        # The signed manifest defeats the tampered copy: the visitor ends
        # up with the authentic files, whichever peer order was tried.
        assert fetched.files["index.html"] == b"<h1>real</h1>"
        assert fetched.verify()

    def test_all_seeders_malicious_means_unavailable(self):
        sim, streams, network, tracker, swarm = make_env(62)
        site = HostlessSite("attacked-site-2")
        site.write_file("index.html", b"<h1>real</h1>")
        bundle = site.publish()
        address = bundle.manifest.site_address
        forged = SiteBundle(
            manifest=bundle.manifest, files={"index.html": b"<h1>bad</h1>"}
        )

        def scenario():
            swarm.register_peer("mallory")
            swarm._seeding["mallory"][address] = forged
            yield from tracker.announce("mallory", address)
            try:
                yield from swarm.visit("visitor", address)
            except WebAppError:
                return "unavailable-but-never-fooled"

        assert sim.run_process(scenario()) == "unavailable-but-never-fooled"
        assert swarm.counters.get("bad_bundles_rejected") >= 1
