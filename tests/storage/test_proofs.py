"""Tests for providers, the four proof games, and attacker detection."""

import pytest

from repro.errors import StorageError
from repro.net import ConstantLatency, Network
from repro.sim import RngStreams, Simulator
from repro.storage import (
    Commitment,
    StorageProvider,
    StorageVerifier,
    make_random_blob,
    seal_blob,
)


def setup(seed=1, latency=0.01, deadline=0.5):
    sim = Simulator()
    streams = RngStreams(seed)
    network = Network(sim, streams, latency=ConstantLatency(latency))
    verifier = StorageVerifier(
        network, "auditor", streams, response_deadline=deadline
    )
    return sim, streams, network, verifier


def commit(blob):
    return Commitment(blob.merkle_root, len(blob.chunks))


class TestHonestProvider:
    def test_challenge_passes(self):
        sim, streams, network, verifier = setup()
        provider = StorageProvider(network, "p1")
        blob = make_random_blob(streams, 8192, chunk_size=512)
        provider.accept_blob(blob)

        def scenario():
            return (yield from verifier.proof_of_storage("p1", commit(blob), rounds=5))

        report = sim.run_process(scenario())
        assert report.passed
        assert provider.challenges_answered == 5

    def test_honest_answers_within_deadline(self):
        sim, streams, network, verifier = setup(deadline=0.5)
        provider = StorageProvider(network, "p1", read_time=0.005)
        blob = make_random_blob(streams, 4096, chunk_size=512)
        provider.accept_blob(blob)

        def scenario():
            return (yield from verifier.challenge_once("p1", commit(blob)))

        outcome = sim.run_process(scenario())
        assert outcome.ok and outcome.deadline_met

    def test_retrieve_all_reassembles(self):
        sim, streams, network, verifier = setup()
        provider = StorageProvider(network, "p1")
        blob = make_random_blob(streams, 3000, chunk_size=512)
        provider.accept_blob(blob)

        def scenario():
            chunks = yield from verifier.retrieve_all("p1", commit(blob))
            return b"".join(chunks)

        assert sim.run_process(scenario()) == blob.to_bytes()

    def test_unknown_commitment_fails_challenge(self):
        sim, streams, network, verifier = setup()
        StorageProvider(network, "p1")
        blob = make_random_blob(streams, 1024, chunk_size=512)

        def scenario():
            return (yield from verifier.challenge_once("p1", commit(blob)))

        outcome = sim.run_process(scenario())
        assert not outcome.ok

    def test_capacity_enforced(self):
        sim, streams, network, verifier = setup()
        provider = StorageProvider(network, "tiny", capacity_bytes=1000)
        blob = make_random_blob(streams, 5000, chunk_size=512)
        with pytest.raises(StorageError):
            provider.accept_blob(blob)


class TestDroppingProvider:
    def test_detection_probability_tracks_dropped_fraction(self):
        sim, streams, network, verifier = setup(seed=5)
        provider = StorageProvider(network, "p1")
        blob = make_random_blob(streams, 64 * 512, chunk_size=512)  # 64 chunks
        provider.accept_blob(blob)
        provider.drop_chunks(blob.merkle_root, 0.25, streams.stream("analysis.drop"))

        def scenario():
            failures = 0
            for _ in range(200):
                outcome = yield from verifier.challenge_once("p1", commit(blob))
                if not outcome.ok:
                    failures += 1
            return failures

        failures = sim.run_process(scenario())
        assert 25 < failures < 80  # expected ~50 (25% of 200)

    def test_challenge_failure_rate_tracks_every_dropped_fraction(self):
        # Soundness: a single challenge fails with probability equal to
        # the dropped fraction, so multi-round detection is exponential.
        for fraction in (0.1, 0.25, 0.5, 0.75):
            sim, streams, network, verifier = setup(seed=13)
            provider = StorageProvider(network, "prov")
            blob = make_random_blob(streams, 200 * 512, chunk_size=512)
            provider.accept_blob(blob)
            provider.drop_chunks(blob.merkle_root, fraction,
                                 streams.stream("d"))

            def scenario():
                failures = 0
                for _ in range(200):
                    outcome = yield from verifier.challenge_once(
                        "prov", commit(blob)
                    )
                    if not outcome.ok:
                        failures += 1
                return failures

            rate = sim.run_process(scenario()) / 200
            assert rate == pytest.approx(fraction, abs=0.12)

    def test_multi_round_audit_catches_small_drops(self):
        sim, streams, network, verifier = setup(seed=6)
        provider = StorageProvider(network, "p1")
        blob = make_random_blob(streams, 100 * 512, chunk_size=512)
        provider.accept_blob(blob)
        provider.drop_chunks(blob.merkle_root, 0.1, streams.stream("analysis.drop"))

        def scenario():
            report = yield from verifier.proof_of_storage(
                "p1", commit(blob), rounds=50
            )
            return report

        report = sim.run_process(scenario())
        assert not report.passed  # 1 - 0.9^50 ≈ 0.995 detection

    def test_retrievability_sampling_detects(self):
        sim, streams, network, verifier = setup(seed=7)
        provider = StorageProvider(network, "p1")
        blob = make_random_blob(streams, 40 * 512, chunk_size=512)
        provider.accept_blob(blob)
        provider.drop_chunks(blob.merkle_root, 0.5, streams.stream("analysis.drop"))

        def scenario():
            report = yield from verifier.proof_of_retrievability(
                "p1", commit(blob), sample_size=8
            )
            return report

        assert not sim.run_process(scenario()).passed


class TestReplicationProofs:
    def test_honest_sealed_replicas_pass(self):
        sim, streams, network, verifier = setup(seed=8)
        provider = StorageProvider(network, "p1")
        blob = make_random_blob(streams, 16 * 512, chunk_size=512)
        sealed1, sealed2 = seal_blob(blob, "r1"), seal_blob(blob, "r2")
        provider.accept_blob(sealed1)
        provider.accept_blob(sealed2)

        def scenario():
            reports = yield from verifier.proof_of_replication(
                "p1", [commit(sealed1), commit(sealed2)]
            )
            return reports

        reports = sim.run_process(scenario())
        assert all(r.passed for r in reports.values())

    def test_dedup_cheater_busts_deadline(self):
        sim, streams, network, verifier = setup(seed=9, deadline=0.1)
        provider = StorageProvider(network, "p1", seal_time=0.5)
        blob = make_random_blob(streams, 16 * 512, chunk_size=512)
        sealed1, sealed2 = seal_blob(blob, "r1"), seal_blob(blob, "r2")
        provider.accept_blob(sealed1)  # one real sealed copy
        # Claims the second replica but keeps only the unsealed backing.
        provider.claim_sealed_without_storing(sealed2, blob, "r2")

        def scenario():
            reports = yield from verifier.proof_of_replication(
                "p1", [commit(sealed1), commit(sealed2)]
            )
            return reports

        reports = sim.run_process(scenario())
        assert reports[sealed1.merkle_root].passed
        cheat = reports[sealed2.merkle_root]
        # Answers are byte-correct but too slow: timing detection.
        assert cheat.correctness_failures == 0
        assert cheat.deadline_violations > 0
        assert not cheat.passed

    def test_physical_storage_savings_of_cheater(self):
        sim, streams, network, verifier = setup(seed=10)
        honest = StorageProvider(network, "honest")
        cheater = StorageProvider(network, "cheater")
        blob = make_random_blob(streams, 16 * 512, chunk_size=512)
        sealed1, sealed2 = seal_blob(blob, "r1"), seal_blob(blob, "r2")
        honest.accept_blob(sealed1)
        honest.accept_blob(sealed2)
        cheater.accept_blob(sealed1)
        cheater.claim_sealed_without_storing(sealed2, blob, "r2")
        assert cheater.used_bytes < honest.used_bytes


class TestOutsourcingAttack:
    def test_outsourcer_correct_but_slow(self):
        sim, streams, network, verifier = setup(seed=11, latency=0.08, deadline=0.15)
        backend = StorageProvider(network, "backend", read_time=0.005)
        front = StorageProvider(network, "front", read_time=0.005)
        blob = make_random_blob(streams, 8 * 512, chunk_size=512)
        backend.accept_blob(blob)
        front.claim_outsourced(blob, "backend")

        def scenario():
            return (yield from verifier.challenge_once("front", commit(blob)))

        outcome = sim.run_process(scenario())
        # Byte-correct answer, but the extra hop breaks the deadline.
        assert outcome.ok
        assert not outcome.deadline_met

    def test_outsourcer_fast_network_evades_timing(self):
        # With tight colocation the outsourcing attack IS hard to catch —
        # the honest negative result the deadline mechanism implies.
        sim, streams, network, verifier = setup(seed=12, latency=0.001, deadline=0.5)
        backend = StorageProvider(network, "backend")
        front = StorageProvider(network, "front")
        blob = make_random_blob(streams, 8 * 512, chunk_size=512)
        backend.accept_blob(blob)
        front.claim_outsourced(blob, "backend")

        def scenario():
            return (yield from verifier.challenge_once("front", commit(blob)))

        outcome = sim.run_process(scenario())
        assert outcome.ok and outcome.deadline_met

    def test_outsourcer_fails_when_backend_dies(self):
        sim, streams, network, verifier = setup(seed=13)
        backend = StorageProvider(network, "backend")
        front = StorageProvider(network, "front")
        blob = make_random_blob(streams, 8 * 512, chunk_size=512)
        backend.accept_blob(blob)
        front.claim_outsourced(blob, "backend")
        network.node("backend").set_online(False, 0.0)

        def scenario():
            return (yield from verifier.challenge_once("front", commit(blob)))

        outcome = sim.run_process(scenario())
        assert not outcome.ok


class TestSpacetime:
    def test_uptime_record_over_epochs(self):
        sim, streams, network, verifier = setup(seed=14)
        provider = StorageProvider(network, "p1")
        blob = make_random_blob(streams, 8 * 512, chunk_size=512)
        provider.accept_blob(blob)

        def scenario():
            record = yield from verifier.proof_of_spacetime(
                "p1", commit(blob), epochs=10, epoch_length=10.0
            )
            return record

        record = sim.run_process(scenario())
        assert record.uptime_fraction == 1.0
        assert len(record.epochs_proved) == 10

    def test_offline_epochs_recorded_as_failures(self):
        sim, streams, network, verifier = setup(seed=15)
        provider = StorageProvider(network, "p1")
        blob = make_random_blob(streams, 8 * 512, chunk_size=512)
        provider.accept_blob(blob)
        # Take the provider down partway through.
        sim.schedule(45.0, network.node("p1").set_online, False, 45.0)

        def scenario():
            record = yield from verifier.proof_of_spacetime(
                "p1", commit(blob), epochs=10, epoch_length=10.0
            )
            return record

        record = sim.run_process(scenario())
        assert 0.0 < record.uptime_fraction < 1.0
        assert len(record.epochs_failed) > 0


class TestProviderInternals:
    def test_incremental_put_accumulates(self):
        sim = Simulator()
        streams = RngStreams(59)
        network = Network(sim, streams, latency=ConstantLatency(0.01))
        provider = StorageProvider(network, "p")
        network.create_node("client")
        blob = make_random_blob(streams, 4 * 512, chunk_size=512)

        def scenario():
            # Upload chunk by chunk (resumable transfer).
            for index, chunk in enumerate(blob.chunks):
                yield from network.rpc(
                    "client", "p", "store.put",
                    {
                        "commitment_id": blob.merkle_root,
                        "chunk_count": len(blob.chunks),
                        "entries": [(index, chunk, blob.proof_for(index))],
                    },
                )
            return provider.commitments[blob.merkle_root]

        stored = sim.run_process(scenario())
        assert len(stored.payloads) == 4
        assert stored.physically_stored_bytes == blob.size_bytes

    def test_drop_chunks_validation(self):
        sim = Simulator()
        streams = RngStreams(60)
        network = Network(sim, streams)
        provider = StorageProvider(network, "p")
        blob = make_random_blob(streams, 1024, chunk_size=512)
        provider.accept_blob(blob)
        with pytest.raises(StorageError):
            provider.drop_chunks(blob.merkle_root, 1.5, streams.stream("x"))
        with pytest.raises(StorageError):
            provider.drop_chunks("unknown", 0.5, streams.stream("x"))
