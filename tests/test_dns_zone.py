"""Unit tests for authoritative zones."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dnssim.records import (
    ARecord,
    CNAMERecord,
    NSRecord,
    RRType,
    SOARecord,
    TXTRecord,
)
from repro.dnssim.zone import LookupKind, Zone, ZoneError


@pytest.fixture
def zone() -> Zone:
    z = Zone("example.com", SOARecord("ns1.example.com", "admin.example.com"))
    z.add("example.com", NSRecord("ns1.example.com"))
    z.add("example.com", ARecord("93.184.216.34"))
    z.add("www.example.com", CNAMERecord("cdn.example.net"))
    z.add("mail.example.com", ARecord("10.0.0.9"))
    return z


class TestConstruction:
    def test_soa_property(self, zone):
        assert zone.soa.mname == "ns1.example.com"

    def test_set_soa_replaces(self, zone):
        zone.set_soa(SOARecord("ns1.provider.net", "admin.provider.net"))
        assert zone.soa.mname == "ns1.provider.net"

    def test_out_of_zone_add_rejected(self, zone):
        with pytest.raises(ZoneError):
            zone.add("other.org", ARecord("1.2.3.4"))

    def test_cname_exclusivity(self, zone):
        with pytest.raises(ZoneError):
            zone.add("www.example.com", ARecord("1.2.3.4"))
        with pytest.raises(ZoneError):
            zone.add("mail.example.com", CNAMERecord("x.example.com"))

    def test_duplicate_records_dedupe(self, zone):
        before = len(zone.records_at("mail.example.com", RRType.A))
        zone.add("mail.example.com", ARecord("10.0.0.9"))
        assert len(zone.records_at("mail.example.com", RRType.A)) == before

    def test_delete(self, zone):
        assert zone.delete("mail.example.com", RRType.A) == 1
        assert zone.lookup("mail.example.com", RRType.A).kind == LookupKind.NXDOMAIN

    def test_contains(self, zone):
        assert "www.example.com" in zone
        assert "nope.example.com" not in zone


class TestLookup:
    def test_answer(self, zone):
        result = zone.lookup("example.com", RRType.A)
        assert result.kind == LookupKind.ANSWER
        assert result.records[0].rdata.address == "93.184.216.34"

    def test_cname(self, zone):
        result = zone.lookup("www.example.com", RRType.A)
        assert result.kind == LookupKind.CNAME
        assert result.records[0].rdata.target == "cdn.example.net"

    def test_cname_query_for_cname_type(self, zone):
        result = zone.lookup("www.example.com", RRType.CNAME)
        assert result.kind == LookupKind.ANSWER

    def test_nxdomain_carries_soa(self, zone):
        result = zone.lookup("nope.example.com", RRType.A)
        assert result.kind == LookupKind.NXDOMAIN
        assert result.authority[0].rrtype == RRType.SOA

    def test_nodata_for_existing_name_wrong_type(self, zone):
        result = zone.lookup("mail.example.com", RRType.TXT)
        assert result.kind == LookupKind.NODATA

    def test_empty_non_terminal_is_nodata(self, zone):
        zone.add("a.b.example.com", ARecord("10.1.1.1"))
        result = zone.lookup("b.example.com", RRType.A)
        assert result.kind == LookupKind.NODATA

    def test_out_of_zone_lookup_rejected(self, zone):
        with pytest.raises(ZoneError):
            zone.lookup("other.org", RRType.A)


class TestDelegation:
    def test_referral_below_cut(self, zone):
        zone.add("sub.example.com", NSRecord("ns1.sub.example.com"))
        zone.add("ns1.sub.example.com", ARecord("10.2.2.2"))
        result = zone.lookup("deep.sub.example.com", RRType.A)
        assert result.kind == LookupKind.DELEGATION
        assert result.authority[0].rdata.nsdname == "ns1.sub.example.com"
        assert result.glue[0].rdata.address == "10.2.2.2"

    def test_referral_at_cut_even_for_soa(self, zone):
        zone.add("sub.example.com", NSRecord("ns1.other.net"))
        result = zone.lookup("sub.example.com", RRType.SOA)
        assert result.kind == LookupKind.DELEGATION

    def test_apex_ns_is_answer_not_referral(self, zone):
        result = zone.lookup("example.com", RRType.NS)
        assert result.kind == LookupKind.ANSWER

    def test_topmost_cut_wins(self, zone):
        zone.add("sub.example.com", NSRecord("ns1.other.net"))
        zone.add("a.sub.example.com", NSRecord("ns1.deeper.net"))
        result = zone.lookup("x.a.sub.example.com", RRType.A)
        assert result.authority[0].name == "sub.example.com"


class TestWildcards:
    def test_wildcard_a(self, zone):
        zone.add("*.edge.example.com", ARecord("10.9.9.9"))
        result = zone.lookup("cust1.edge.example.com", RRType.A)
        assert result.kind == LookupKind.ANSWER
        assert result.records[0].name == "cust1.edge.example.com"

    def test_wildcard_cname(self, zone):
        zone.add("*.alias.example.com", CNAMERecord("target.example.com"))
        result = zone.lookup("x.alias.example.com", RRType.A)
        assert result.kind == LookupKind.CNAME

    def test_explicit_name_blocks_wildcard(self, zone):
        zone.add("*.edge.example.com", ARecord("10.9.9.9"))
        zone.add("special.edge.example.com", TXTRecord("explicit"))
        result = zone.lookup("special.edge.example.com", RRType.A)
        assert result.kind == LookupKind.NODATA


_label = st.sampled_from(["a", "b", "*", "c-1"])
_owner = st.lists(_label, min_size=0, max_size=3).map(
    lambda labels: ".".join(labels + ["example.com"])
).filter(lambda name: "*" not in name[1:])


def _exists_by_scan(zone: Zone, qname: str) -> bool:
    """Reference: scan every owner name for qname itself, a name below it
    (an empty non-terminal) or a wildcard above it."""
    names = zone.names()
    return (
        qname in names
        or any(n.endswith("." + qname) for n in names)
        or any(n.startswith("*.") and qname.endswith(n[1:]) for n in names)
    )


class TestNameExistence:
    @given(
        added=st.lists(_owner, max_size=8),
        # The origin keeps its SOA: every negative answer carries it.
        deleted=st.lists(_owner.filter(lambda n: n != "example.com"), max_size=4),
        qname=_owner,
    )
    @settings(max_examples=200)
    def test_nodata_vs_nxdomain_matches_a_scan_of_the_zone(
        self, added, deleted, qname
    ):
        zone = Zone("example.com", SOARecord("ns1.example.com", "a.example.com"))
        for name in added:
            zone.add(name, ARecord("10.0.0.1"))
        for name in deleted:
            zone.delete(name)
        # No TXT data anywhere: the answer is NODATA or NXDOMAIN only.
        kind = zone.lookup(qname, RRType.TXT).kind
        expected = _exists_by_scan(zone, qname)
        assert kind == (LookupKind.NODATA if expected else LookupKind.NXDOMAIN)

    def test_empty_non_terminal_disappears_with_its_last_child(self):
        zone = Zone("example.com", SOARecord("ns1.example.com", "a.example.com"))
        zone.add("x.y.example.com", ARecord("10.0.0.1"))
        assert zone.lookup("y.example.com", RRType.A).kind == LookupKind.NODATA
        zone.delete("x.y.example.com")
        assert zone.lookup("y.example.com", RRType.A).kind == LookupKind.NXDOMAIN
