"""Tests for the centralized, federated, and social-P2P platforms."""

import pytest

from repro.errors import (
    AccessDeniedError,
    GroupCommError,
    RpcTimeoutError,
)
from repro.groupcomm import (
    CentralizedPlatform,
    ReplicatedFederation,
    Room,
    SingleHomeFederation,
    SocialP2PNetwork,
    audit_centralized,
    audit_replicated_federation,
    audit_social_p2p,
    exposure_score,
)
from repro.net import ConstantLatency, Network
from repro.net.topology import small_world
from repro.sim import RngStreams, Simulator


def make_network(seed=1):
    sim = Simulator()
    streams = RngStreams(seed)
    network = Network(sim, streams, latency=ConstantLatency(0.02))
    return sim, streams, network


class TestCentralized:
    def setup_platform(self, seed=1):
        sim, streams, network = make_network(seed)
        platform = CentralizedPlatform(network)
        for user in ("alice", "bob", "eve"):
            network.create_node(user)
        platform.create_room("general", ["alice", "bob"])
        return sim, network, platform

    def test_post_and_fetch(self):
        sim, network, platform = self.setup_platform()

        def scenario():
            yield from platform.post("alice", "general", "hi bob")
            messages = yield from platform.fetch("bob", "general")
            return messages

        messages = sim.run_process(scenario())
        assert [m.body for m in messages] == ["hi bob"]

    def test_non_member_rejected(self):
        sim, network, platform = self.setup_platform()

        def scenario():
            try:
                yield from platform.post("eve", "general", "spam")
            except GroupCommError:
                return "denied"

        assert sim.run_process(scenario()) == "denied"

    def test_ban_revokes_access_and_data(self):
        sim, network, platform = self.setup_platform()

        def scenario():
            yield from platform.post("alice", "general", "my data")
            platform.ban("alice")
            try:
                yield from platform.fetch("alice", "general")
            except AccessDeniedError:
                return "locked-out"

        # The feudal failure: her own data is now inaccessible to her.
        assert sim.run_process(scenario()) == "locked-out"

    def test_operator_deletion_is_global(self):
        sim, network, platform = self.setup_platform()

        def scenario():
            msg_id = yield from platform.post("alice", "general", "controversial")
            platform.delete_message(msg_id)
            return (yield from platform.fetch("bob", "general"))

        assert sim.run_process(scenario()) == []

    def test_operator_sees_everything(self):
        sim, network, platform = self.setup_platform()

        def scenario():
            yield from platform.post("alice", "general", "private thought")

        sim.run_process(scenario())
        report = audit_centralized(platform, "general")
        assert report.content_exposure == 1.0
        assert report.metadata_exposure == 1.0
        assert exposure_score(report) == 1.0

    def test_server_down_means_total_outage(self):
        sim, network, platform = self.setup_platform()
        network.node(platform.server_id).set_online(False, 0.0)

        def scenario():
            try:
                yield from platform.post("alice", "general", "hello?")
            except RpcTimeoutError:
                return "outage"

        assert sim.run_process(scenario()) == "outage"


class TestSingleHomeFederation:
    def setup_federation(self, seed=2, n_servers=3, n_users=6):
        sim, streams, network = make_network(seed)
        servers = [f"srv{i}" for i in range(n_servers)]
        fed = SingleHomeFederation(network, servers)
        users = [f"u{i}" for i in range(n_users)]
        for i, user in enumerate(users):
            fed.add_user(user, home=servers[i % n_servers])
        fed.create_room("room", users)
        return sim, network, fed, users, servers

    def test_cross_server_delivery(self):
        sim, network, fed, users, servers = self.setup_federation()

        def scenario():
            yield from fed.post("u0", "room", "hello federation")
            yield 5.0  # let pushes land
            return (yield from fed.fetch("u1", "room"))  # u1 on srv1

        messages = sim.run_process(scenario())
        assert [m.body for m in messages] == ["hello federation"]

    def test_home_server_failure_cuts_off_its_users(self):
        sim, network, fed, users, servers = self.setup_federation()

        def scenario():
            yield from fed.post("u0", "room", "before failure")
            yield 5.0
            network.node("srv1").set_online(False, sim.now)
            try:
                yield from fed.fetch("u1", "room")  # homed on srv1
            except RpcTimeoutError:
                return "instance-down"

        assert sim.run_process(scenario()) == "instance-down"

    def test_other_instances_unaffected_by_one_failure(self):
        sim, network, fed, users, servers = self.setup_federation()

        def scenario():
            yield from fed.post("u0", "room", "m1")
            yield 5.0
            network.node("srv1").set_online(False, sim.now)
            return (yield from fed.fetch("u2", "room"))  # homed on srv2

        messages = sim.run_process(scenario())
        assert [m.body for m in messages] == ["m1"]

    def test_push_lost_if_destination_down_no_repair(self):
        sim, network, fed, users, servers = self.setup_federation()

        def scenario():
            network.node("srv1").set_online(False, sim.now)
            yield from fed.post("u0", "room", "missed")
            yield 5.0
            network.node("srv1").set_online(True, sim.now)
            yield 60.0  # plenty of time: still no repair mechanism
            return (yield from fed.fetch("u1", "room"))

        # The defining OStatus weakness: the message never arrives.
        assert sim.run_process(scenario()) == []

    def test_user_must_use_home(self):
        sim, network, fed, users, servers = self.setup_federation()
        assert fed.home_of("u0") == "srv0"
        with pytest.raises(GroupCommError):
            fed.add_user("u0")  # duplicate registration


class TestReplicatedFederation:
    def setup_federation(self, seed=3, allow_failover=False):
        sim, streams, network = make_network(seed)
        servers = [f"srv{i}" for i in range(3)]
        fed = ReplicatedFederation(
            network, servers, streams, gossip_interval=2.0,
            allow_failover=allow_failover,
        )
        users = [f"u{i}" for i in range(6)]
        for i, user in enumerate(users):
            fed.add_user(user, home=servers[i % 3])
        fed.create_room("room", users)
        fed.start_replication()
        return sim, network, fed, users, servers

    def test_replication_spreads_to_all_servers(self):
        sim, network, fed, users, servers = self.setup_federation()

        def scenario():
            yield from fed.post("u0", "room", "replicate me")
            yield 60.0  # several gossip rounds
            fed.stop_replication()

        sim.run_process(scenario(), until=200.0)
        for server in servers:
            assert len(fed._room_messages(server, "room")) == 1

    def test_origin_server_death_does_not_lose_history(self):
        sim, network, fed, users, servers = self.setup_federation(seed=4)

        def scenario():
            yield from fed.post("u0", "room", "survives")
            yield 60.0
            network.node("srv0").set_online(False, sim.now)  # origin dies
            messages = yield from fed.fetch("u1", "room")  # u1 on srv1
            fed.stop_replication()
            return messages

        messages = sim.run_process(scenario(), until=300.0)
        assert [m.body for m in messages] == ["survives"]

    def test_late_server_catches_up(self):
        sim, network, fed, users, servers = self.setup_federation(seed=5)

        def scenario():
            network.node("srv2").set_online(False, sim.now)
            yield from fed.post("u0", "room", "missed then repaired")
            yield 30.0
            network.node("srv2").set_online(True, sim.now)
            yield 120.0  # anti-entropy repairs
            fed.stop_replication()

        sim.run_process(scenario(), until=400.0)
        assert len(fed._room_messages("srv2", "room")) == 1

    def test_failover_fetch_when_home_down(self):
        sim, network, fed, users, servers = self.setup_federation(
            seed=6, allow_failover=True
        )

        def scenario():
            yield from fed.post("u0", "room", "m")
            yield 60.0
            network.node("srv0").set_online(False, sim.now)  # u0's home
            messages = yield from fed.fetch("u0", "room")
            fed.stop_replication()
            return messages

        messages = sim.run_process(scenario(), until=300.0)
        assert [m.body for m in messages] == ["m"]

    def test_no_failover_means_home_down_is_outage(self):
        sim, network, fed, users, servers = self.setup_federation(seed=7)

        def scenario():
            yield from fed.post("u0", "room", "m")
            yield 30.0
            network.node("srv0").set_online(False, sim.now)
            try:
                yield from fed.fetch("u0", "room")
            except RpcTimeoutError:
                fed.stop_replication()
                return "outage"

        assert sim.run_process(scenario(), until=300.0) == "outage"

    def test_e2e_encryption_hides_content_from_servers(self):
        sim, network, fed, users, servers = self.setup_federation(seed=8)

        def scenario():
            yield from fed.post("u0", "room", "ciphertext-blob", encrypted=True)
            yield from fed.post("u1", "room", "plaintext", encrypted=False)
            yield 60.0
            fed.stop_replication()

        sim.run_process(scenario(), until=300.0)
        report = audit_replicated_federation(fed, "room")
        assert report.total_messages == 2
        assert report.content_visible_to_operators == 1  # only the plaintext
        assert report.metadata_visible_to_operators == 2  # both leak metadata
        assert 0 < exposure_score(report) < 1


class TestSocialP2P:
    def setup_p2p(self, seed=9, size=12):
        sim, streams, network = make_network(seed)
        graph = small_world(size, k=4, rewire_prob=0.2, seed=seed, prefix="u")
        p2p = SocialP2PNetwork(network, graph, replicate_to_friends=2)
        return sim, network, p2p, graph

    def test_friend_can_fetch(self):
        sim, network, p2p, graph = self.setup_p2p()
        author = "u0"
        friend = p2p.friends_of(author)[0]

        def scenario():
            yield from p2p.post(author, "my post")
            return (yield from p2p.fetch(friend, author))

        messages = sim.run_process(scenario())
        assert [m.body for m in messages] == ["my post"]

    def test_stranger_denied(self):
        sim, network, p2p, graph = self.setup_p2p()
        author = "u0"
        stranger = next(
            u for u in graph
            if u != author and not p2p.are_friends(author, u)
        )

        def scenario():
            yield from p2p.post(author, "private")
            try:
                yield from p2p.fetch(stranger, author)
            except AccessDeniedError:
                return "denied"

        assert sim.run_process(scenario()) == "denied"

    def test_replicas_serve_when_author_offline(self):
        sim, network, p2p, graph = self.setup_p2p()
        author = "u0"
        friend = p2p.friends_of(author)[0]

        def scenario():
            msg_id = yield from p2p.post(author, "resilient post")
            assert p2p.replica_count(author, msg_id) >= 2
            network.node(author).set_online(False, sim.now)
            return (yield from p2p.fetch(friend, author))

        messages = sim.run_process(scenario())
        assert [m.body for m in messages] == ["resilient post"]

    def test_unavailable_when_author_and_replicas_offline(self):
        sim, network, p2p, graph = self.setup_p2p()
        author = "u0"
        friends = p2p.friends_of(author)
        reader = friends[-1]

        def scenario():
            yield from p2p.post(author, "gone post")
            network.node(author).set_online(False, sim.now)
            for holder in friends:
                if holder != reader:
                    network.node(holder).set_online(False, sim.now)
            # Reader holds no replica in the worst case; expect failure
            # unless the post replicated to the reader itself.
            try:
                messages = yield from p2p.fetch(reader, author)
                return "available" if messages else "empty"
            except GroupCommError:
                return "unavailable"

        result = sim.run_process(scenario())
        assert result in ("unavailable", "available")

    def test_offline_author_cannot_post(self):
        sim, network, p2p, graph = self.setup_p2p()
        network.node("u0").set_online(False, 0.0)

        def scenario():
            try:
                yield from p2p.post("u0", "x")
            except GroupCommError:
                return "offline"
            yield 0  # pragma: no cover

        assert sim.run_process(scenario()) == "offline"

    def test_privacy_audit_zero_operator_exposure(self):
        sim, network, p2p, graph = self.setup_p2p()

        def scenario():
            yield from p2p.post("u0", "a")
            yield from p2p.post("u1", "b")

        sim.run_process(scenario())
        report = audit_social_p2p(p2p, ["u0", "u1"])
        assert report.total_messages == 2
        assert report.content_exposure == 0.0
        assert exposure_score(report) == 0.0


class TestAccessLevels:
    """Persona/Lockr-style audience policies on the social P2P layer."""

    def setup_p2p(self, seed=20):
        sim = Simulator()
        streams = RngStreams(seed)
        network = Network(sim, streams, latency=ConstantLatency(0.02))
        graph = small_world(10, k=4, rewire_prob=0.2, seed=seed, prefix="u")
        from repro.groupcomm import SocialP2PNetwork as Net

        p2p = Net(network, graph, replicate_to_friends=2)
        return sim, network, p2p, graph

    def test_public_post_readable_by_stranger(self):
        from repro.groupcomm import Audience

        sim, network, p2p, graph = self.setup_p2p()
        author = "u0"
        stranger = next(
            u for u in graph
            if u != author and not p2p.are_friends(author, u)
        )

        def scenario():
            yield from p2p.post(author, "open post", audience=Audience.PUBLIC)
            return (yield from p2p.fetch(stranger, author))

        messages = sim.run_process(scenario())
        assert [m.body for m in messages] == ["open post"]

    def test_friends_post_hidden_from_stranger(self):
        from repro.groupcomm import Audience

        sim, network, p2p, graph = self.setup_p2p(seed=21)
        author = "u0"
        stranger = next(
            u for u in graph
            if u != author and not p2p.are_friends(author, u)
        )

        def scenario():
            yield from p2p.post(author, "public", audience=Audience.PUBLIC)
            yield from p2p.post(author, "for friends", audience=Audience.FRIENDS)
            return (yield from p2p.fetch(stranger, author))

        messages = sim.run_process(scenario())
        # The stranger sees only the public post.
        assert [m.body for m in messages] == ["public"]

    def test_close_friends_post_excludes_ordinary_friends(self):
        from repro.groupcomm import Audience

        sim, network, p2p, graph = self.setup_p2p(seed=22)
        author = "u0"
        friends = p2p.friends_of(author)
        confidant, acquaintance = friends[0], friends[1]
        p2p.designate_close_friends(author, [confidant])

        def scenario():
            yield from p2p.post(
                author, "inner circle", audience=Audience.CLOSE_FRIENDS
            )
            inner = yield from p2p.fetch(confidant, author)
            outer = yield from p2p.fetch(acquaintance, author)
            return inner, outer

        inner, outer = sim.run_process(scenario())
        assert [m.body for m in inner] == ["inner circle"]
        assert outer == []

    def test_close_friend_must_be_friend(self):
        sim, network, p2p, graph = self.setup_p2p(seed=23)
        author = "u0"
        stranger = next(
            u for u in graph
            if u != author and not p2p.are_friends(author, u)
        )
        with pytest.raises(GroupCommError):
            p2p.designate_close_friends(author, [stranger])

    def test_author_reads_everything(self):
        from repro.groupcomm import Audience

        sim, network, p2p, graph = self.setup_p2p(seed=24)
        author = "u0"
        p2p.designate_close_friends(author, [p2p.friends_of(author)[0]])

        def scenario():
            for audience in Audience.ALL:
                yield from p2p.post(author, f"post-{audience}", audience=audience)
            return (yield from p2p.fetch(author, author))

        messages = sim.run_process(scenario())
        assert len(messages) == 3

    def test_unknown_audience_rejected(self):
        sim, network, p2p, graph = self.setup_p2p(seed=25)

        def scenario():
            yield from p2p.post("u0", "x", audience="enemies")

        with pytest.raises(GroupCommError):
            sim.run_process(scenario())

    def test_replicas_enforce_policy_too(self):
        # "Relationships are not exploited": a friend's replica won't leak
        # a close-friends post to an ordinary friend.
        from repro.groupcomm import Audience

        sim, network, p2p, graph = self.setup_p2p(seed=26)
        author = "u0"
        friends = p2p.friends_of(author)
        confidant = friends[0]
        p2p.designate_close_friends(author, [confidant])

        def scenario():
            yield from p2p.post(
                author, "secret", audience=Audience.CLOSE_FRIENDS
            )
            network.node(author).set_online(False, sim.now)  # replicas only
            try:
                leaked = yield from p2p.fetch(friends[1], author)
            except GroupCommError:
                return []
            return leaked

        assert sim.run_process(scenario()) == []


class TestInstanceModeration:
    """Mastodon-style per-instance rules wired into the federation."""

    def setup_fed(self, seed=30):
        sim, streams, network = make_network(seed)
        fed = SingleHomeFederation(network, ["strict.social", "lax.social"])
        fed.add_user("poster", home="lax.social")
        fed.add_user("strict-user", home="strict.social")
        fed.add_user("lax-user", home="lax.social")
        fed.create_room("town", ["poster", "strict-user", "lax-user"])
        from repro.groupcomm import KeywordPolicy

        fed.set_instance_policy("strict.social", KeywordPolicy(["politics"]))
        return sim, network, fed

    def test_strict_instance_filters_incoming(self):
        sim, network, fed = self.setup_fed()

        def scenario():
            yield from fed.post("poster", "town", "hot politics take")
            yield from fed.post("poster", "town", "nice weather today")
            yield 5.0
            strict_view = yield from fed.fetch("strict-user", "town")
            lax_view = yield from fed.fetch("lax-user", "town")
            return strict_view, lax_view

        strict_view, lax_view = sim.run_process(scenario())
        assert [m.body for m in strict_view] == ["nice weather today"]
        assert len(lax_view) == 2  # no global censorship

    def test_policy_applies_to_local_posts_at_fetch(self):
        sim, network, fed = self.setup_fed(seed=31)

        def scenario():
            # strict-user posts content their own instance bans.
            yield from fed.post("strict-user", "town", "my politics essay")
            yield 5.0
            own_view = yield from fed.fetch("strict-user", "town")
            lax_view = yield from fed.fetch("lax-user", "town")
            return own_view, lax_view

        own_view, lax_view = sim.run_process(scenario())
        assert own_view == []  # hidden at home...
        assert [m.body for m in lax_view] == ["my politics essay"]  # ...not abroad

    def test_unknown_instance_rejected(self):
        sim, network, fed = self.setup_fed(seed=32)
        from repro.groupcomm import NoModeration

        with pytest.raises(GroupCommError):
            fed.set_instance_policy("ghost.social", NoModeration())


class TestFederationHelpers:
    def test_add_users_bulk_assignment(self):
        from collections import Counter

        sim, streams, network = make_network(55)
        fed = SingleHomeFederation(network, ["s0", "s1"])
        users = [f"u{i}" for i in range(10)]
        fed.add_users(users, seed=3)
        homes = {fed.home_of(u) for u in users}
        assert homes == {"s0", "s1"}
        # Balanced: 5 per server.
        counts = Counter(fed.home_of(u) for u in users)
        assert set(counts.values()) == {5}

    def test_unknown_server_rejected(self):
        sim, streams, network = make_network(56)
        fed = SingleHomeFederation(network, ["s0"])
        with pytest.raises(GroupCommError):
            fed.add_user("u", home="mystery")

    def test_room_membership_check_before_creation(self):
        sim, streams, network = make_network(57)
        fed = SingleHomeFederation(network, ["s0"])
        with pytest.raises(GroupCommError):
            fed.create_room("r", ["homeless-user"])

    def test_servers_for_room(self):
        sim, streams, network = make_network(58)
        fed = SingleHomeFederation(network, ["s0", "s1", "s2"])
        fed.add_user("a", home="s0")
        fed.add_user("b", home="s1")
        fed.create_room("r", ["a", "b"])
        assert fed.servers_for_room("r") == {"s0", "s1"}


class TestRoomSemantics:
    def test_public_room_admits_anyone(self):
        room = Room("plaza", set(), public=True)
        room.require_member("stranger")  # no exception

    def test_private_room_rejects_non_member(self):
        room = Room("private", {"alice"})
        with pytest.raises(GroupCommError):
            room.require_member("stranger")

    def test_membership_management(self):
        room = Room("r", set())
        room.add_member("alice")
        room.require_member("alice")
        room.remove_member("alice")
        with pytest.raises(GroupCommError):
            room.require_member("alice")


class TestFederationBugRegressions:
    """Pin the fan-out-order, tie-break, and re-homing fixes."""

    def test_push_fanout_order_is_sorted_not_hash_order(self):
        # servers_for_room returns a set; fan-out must iterate it in
        # sorted order or delivery order depends on PYTHONHASHSEED.
        sim, streams, network = make_network(70)
        servers = [f"srv{i}" for i in range(7)]
        fed = SingleHomeFederation(network, servers)
        users = [f"u{i}" for i in range(7)]
        for user, server in zip(users, servers):
            fed.add_user(user, home=server)
        fed.create_room("room", users)

        sent_to = []
        original_send = network.send

        def spying_send(src, dst, method, *rest):
            if method == "fed.push":
                sent_to.append(dst)
            return original_send(src, dst, method, *rest)

        network.send = spying_send
        try:
            sim.run_process(fed.post("u3", "room", "hi"), until=50.0)
        finally:
            network.send = original_send
        expected = sorted(s for s in servers if s != "srv3")
        assert sent_to == expected

    def test_fetch_breaks_same_timestamp_ties_by_msg_id(self):
        # Two messages can share sent_at (e.g. replayed from a trace);
        # both federation flavours must then order by msg_id, so a
        # SingleHome and a Replicated deployment show the same timeline.
        from repro.groupcomm.messages import Message

        sim, streams, network = make_network(71)
        fed = SingleHomeFederation(network, ["s0"])
        fed.add_user("u0", home="s0")
        fed.create_room("r", ["u0"])
        batch = [
            Message(author="u0", room="r", body=f"m{i}", sent_at=5.0, seq=i)
            for i in range(6)
        ]
        # Guard: the injected order must differ from msg_id order, or
        # this test cannot catch an insertion-ordered regression.
        worst_case = sorted(batch, key=lambda m: m.msg_id, reverse=True)
        assert [m.msg_id for m in worst_case] != sorted(m.msg_id for m in batch)
        fed._timelines["s0"]["r"].extend(worst_case)

        messages = sim.run_process(fed.fetch("u0", "r"), until=50.0)
        assert [m.msg_id for m in messages] == sorted(m.msg_id for m in batch)
        assert all(m.sent_at == 5.0 for m in messages)

    def test_add_user_rejects_rehoming(self):
        sim, streams, network = make_network(72)
        fed = SingleHomeFederation(network, ["s0", "s1"])
        fed.add_user("alice", home="s0")
        with pytest.raises(GroupCommError, match="already registered"):
            fed.add_user("alice", home="s1")
        assert fed.home_of("alice") == "s0"

    def test_add_users_rejects_rehoming_atomically(self):
        # Same contract as add_user, and no partial assignment: a
        # duplicate anywhere in the batch leaves the table untouched.
        sim, streams, network = make_network(73)
        fed = SingleHomeFederation(network, ["s0", "s1"])
        fed.add_user("dup", home="s0")
        with pytest.raises(GroupCommError, match="already registered"):
            fed.add_users(["fresh1", "fresh2", "dup", "fresh3"])
        assert fed.home_of("dup") == "s0"
        for user in ("fresh1", "fresh2", "fresh3"):
            with pytest.raises(GroupCommError):
                fed.home_of(user)

    def test_replicated_fetch_all_servers_down_reraises_timeout(self):
        sim, streams, network = make_network(74)
        servers = ["srv0", "srv1", "srv2"]
        fed = ReplicatedFederation(
            network, servers, streams, gossip_interval=2.0,
            allow_failover=True,
        )
        fed.add_user("u0", home="srv0")
        fed.create_room("room", ["u0"])
        for server in servers:
            network.node(server).set_online(False, sim.now)

        def scenario():
            try:
                yield from fed.fetch("u0", "room")
            except RpcTimeoutError as exc:
                return exc
            return None

        # Every target times out; the last timeout must surface rather
        # than a swallowed error or an empty result.
        error = sim.run_process(scenario(), until=1000.0)
        assert isinstance(error, RpcTimeoutError)

    def test_replicated_fetch_recovers_mid_failover_list(self):
        sim, streams, network = make_network(75)
        servers = ["srv0", "srv1", "srv2"]
        fed = ReplicatedFederation(
            network, servers, streams, gossip_interval=2.0,
            allow_failover=True,
        )
        users = [f"u{i}" for i in range(3)]
        for user, server in zip(users, servers):
            fed.add_user(user, home=server)
        fed.create_room("room", users)
        fed.start_replication()

        def scenario():
            yield from fed.post("u0", "room", "survives failover")
            yield 60.0  # replicate everywhere
            # Home and first fallback both dead; srv2 must answer.
            network.node("srv0").set_online(False, sim.now)
            network.node("srv1").set_online(False, sim.now)
            messages = yield from fed.fetch("u0", "room")
            fed.stop_replication()
            return messages

        messages = sim.run_process(scenario(), until=500.0)
        assert [m.body for m in messages] == ["survives failover"]
