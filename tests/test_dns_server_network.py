"""Unit tests for the authoritative server and network fabric."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dnssim.errors import ServerUnavailableError
from repro.dnssim.message import DnsMessage, RCode
from repro.dnssim.network import DnsNetwork
from repro.dnssim.records import (
    ARecord,
    CNAMERecord,
    NSRecord,
    RRType,
    SOARecord,
)
from repro.dnssim.server import AuthoritativeServer
from repro.dnssim.zone import Zone
from repro.names import is_subdomain_of, normalize


@pytest.fixture
def server() -> AuthoritativeServer:
    srv = AuthoritativeServer("ns1.example.com", ["10.0.0.1"], operator="example")
    zone = Zone("example.com", SOARecord("ns1.example.com", "admin.example.com"))
    zone.add("example.com", NSRecord("ns1.example.com"))
    zone.add("ns1.example.com", ARecord("10.0.0.1"))
    zone.add("example.com", ARecord("93.184.216.34"))
    zone.add("www.example.com", CNAMERecord("apex.example.com"))
    zone.add("apex.example.com", ARecord("93.184.216.34"))
    srv.serve_zone(zone)
    return srv


class TestServer:
    def test_requires_an_ip(self):
        with pytest.raises(ValueError):
            AuthoritativeServer("x", [])

    def test_answers_authoritatively(self, server):
        response = server.handle(DnsMessage.query("example.com", RRType.A))
        assert response.aa
        assert response.rcode == RCode.NOERROR
        assert response.answers[0].rdata.address == "93.184.216.34"

    def test_refuses_foreign_names(self, server):
        response = server.handle(DnsMessage.query("other.org", RRType.A))
        assert response.rcode == RCode.REFUSED
        assert not response.aa

    def test_nxdomain(self, server):
        response = server.handle(DnsMessage.query("no.example.com", RRType.A))
        assert response.rcode == RCode.NXDOMAIN
        assert response.authorities[0].rrtype == RRType.SOA

    def test_chases_in_zone_cnames(self, server):
        response = server.handle(DnsMessage.query("www.example.com", RRType.A))
        types = [rr.rrtype for rr in response.answers]
        assert RRType.CNAME in types and RRType.A in types

    def test_ns_answer_includes_glue(self, server):
        response = server.handle(DnsMessage.query("example.com", RRType.NS))
        assert any(rr.rrtype == RRType.A for rr in response.additionals)

    def test_empty_question_is_formerr(self, server):
        response = server.handle(DnsMessage())
        assert response.rcode == RCode.FORMERR

    def test_wire_roundtrip_path(self, server):
        query = DnsMessage.query("example.com", RRType.A, msg_id=9)
        wire = server.handle_wire(query.to_wire())
        response = DnsMessage.from_wire(wire)
        assert response.id == 9 and response.answers

    def test_most_specific_zone_wins(self, server):
        sub = Zone("sub.example.com", SOARecord("ns1.sub.example.com", "a.b"))
        sub.add("sub.example.com", ARecord("10.5.5.5"))
        server.serve_zone(sub)
        response = server.handle(DnsMessage.query("sub.example.com", RRType.A))
        assert response.answers[0].rdata.address == "10.5.5.5"

    def test_query_counter(self, server):
        before = server.queries_handled
        server.handle(DnsMessage.query("example.com", RRType.A))
        assert server.queries_handled == before + 1


def _zone(origin: str) -> Zone:
    return Zone(origin, SOARecord(f"ns.{origin}".rstrip("."), "admin.example"))


def _longest_enclosing_origin(origins: list[str], qname: str):
    """Brute-force reference: scan every origin, keep the longest one
    that encloses the name (the root zone encloses everything)."""
    qname = normalize(qname)
    enclosing = [o for o in origins if o == "" or is_subdomain_of(qname, o)]
    return max(enclosing, key=len) if enclosing else None


_label = st.sampled_from(["a", "b", "com", "net", "x-1"])
_name = st.lists(_label, min_size=0, max_size=4).map(".".join)


class _CountingZones(dict):
    """Zones by origin that count keyed probes and forbid scanning."""

    probes = 0

    def get(self, key, default=None):
        self.probes += 1
        return super().get(key, default)

    def __getitem__(self, key):
        self.probes += 1
        return super().__getitem__(key)

    def __contains__(self, key):
        self.probes += 1
        return super().__contains__(key)

    def _scan(self, *args):
        raise AssertionError("zone_for scanned every zone")

    __iter__ = keys = values = items = _scan


class TestZoneFor:
    @given(
        origins=st.lists(_name, unique=True, max_size=8),
        qname=_name,
        upper=st.booleans(),
        trailing_dot=st.booleans(),
    )
    @settings(max_examples=200)
    def test_matches_brute_force_longest_origin(
        self, origins, qname, upper, trailing_dot
    ):
        srv = AuthoritativeServer("ns.example", ["10.0.0.1"])
        for origin in origins:
            srv.serve_zone(_zone(origin))
        asked = (qname.upper() if upper else qname) + ("." if trailing_dot else "")
        found = srv.zone_for(asked)
        expected = _longest_enclosing_origin(origins, qname)
        assert (found.origin if found is not None else None) == expected

    def test_nested_origins_pick_the_deepest(self):
        srv = AuthoritativeServer("ns.example", ["10.0.0.1"])
        for origin in ("com", "example.com", "a.b.example.com"):
            srv.serve_zone(_zone(origin))
        assert srv.zone_for("x.a.b.example.com").origin == "a.b.example.com"
        assert srv.zone_for("b.example.com").origin == "example.com"
        assert srv.zone_for("other.com").origin == "com"
        assert srv.zone_for("example.net") is None

    def test_root_zone_is_the_fallback(self):
        srv = AuthoritativeServer("ns.example", ["10.0.0.1"])
        srv.serve_zone(_zone(""))
        srv.serve_zone(_zone("example.com"))
        assert srv.zone_for("www.example.com").origin == "example.com"
        assert srv.zone_for("example.org").origin == ""
        assert srv.zone_for(".").origin == ""

    def test_mixed_case_and_trailing_dot(self, server):
        assert server.zone_for("WWW.Example.COM.").origin == "example.com"

    def test_no_enclosing_zone_is_refused(self, server):
        assert server.zone_for("example.org") is None
        assert server.zone_for("badexample.com") is None
        response = server.handle(DnsMessage.query("badexample.com", RRType.A))
        assert response.rcode == RCode.REFUSED

    def test_probes_labels_plus_one_origins_among_10000_zones(self):
        srv = AuthoritativeServer("ns.big-provider.net", ["10.0.0.1"])
        for i in range(10_000):
            srv.serve_zone(_zone(f"site{i}.com"))
        counting = _CountingZones(srv._zones)
        srv._zones = counting
        for qname, origin in (
            ("a.b.c.site7777.com", "site7777.com"),
            ("site42.com", "site42.com"),
            ("x.y.unserved.org", None),
        ):
            counting.probes = 0
            found = srv.zone_for(qname)
            assert (found.origin if found is not None else None) == origin
            assert counting.probes <= qname.count(".") + 2  # labels + 1
        counting.probes = 0
        response = srv.handle(DnsMessage.query("www.site9999.com", RRType.A))
        assert response.rcode == RCode.NXDOMAIN
        assert counting.probes <= 3 + 1


class TestNetwork:
    def test_routing(self, server):
        net = DnsNetwork()
        net.register_server(server)
        wire = net.send("10.0.0.1", DnsMessage.query("example.com", RRType.A).to_wire())
        assert DnsMessage.from_wire(wire).answers

    def test_unknown_ip_times_out(self):
        net = DnsNetwork()
        with pytest.raises(ServerUnavailableError):
            net.send("10.9.9.9", b"\x00" * 12)

    def test_down_server_times_out(self, server):
        net = DnsNetwork()
        net.register_server(server)
        net.set_server_available(server, False)
        assert not net.is_available("10.0.0.1")
        with pytest.raises(ServerUnavailableError):
            net.send("10.0.0.1", b"\x00" * 12)
        net.set_server_available(server, True)
        assert net.is_available("10.0.0.1")

    def test_ip_conflict_rejected(self, server):
        net = DnsNetwork()
        net.register_server(server)
        other = AuthoritativeServer("ns2.other.net", ["10.0.0.1"])
        with pytest.raises(ValueError):
            net.register_server(other)

    def test_reregistering_same_server_ok(self, server):
        net = DnsNetwork()
        net.register_server(server)
        net.register_server(server)
        assert len(net.servers()) == 1

    def test_counters(self, server):
        net = DnsNetwork()
        net.register_server(server)
        net.send("10.0.0.1", DnsMessage.query("example.com", RRType.A).to_wire())
        net.set_server_available(server, False)
        with pytest.raises(ServerUnavailableError):
            net.send("10.0.0.1", b"")
        assert net.queries_sent == 2
        assert net.timeouts == 1
