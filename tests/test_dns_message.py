"""Unit + property tests for the DNS wire format."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dnssim.errors import MessageFormatError
from repro.dnssim.message import DnsMessage, Question, RCode
from repro.dnssim.records import (
    ARecord,
    CNAMERecord,
    MXRecord,
    NSRecord,
    RRType,
    ResourceRecord,
    SOARecord,
    TXTRecord,
)


def roundtrip(message: DnsMessage) -> DnsMessage:
    return DnsMessage.from_wire(message.to_wire())


class TestQueryRoundtrip:
    def test_simple_query(self):
        msg = DnsMessage.query("www.example.com", RRType.A, msg_id=42, rd=True)
        out = roundtrip(msg)
        assert out.id == 42
        assert out.rd is True
        assert out.question.qname == "www.example.com"
        assert out.question.qtype == RRType.A

    def test_root_query(self):
        out = roundtrip(DnsMessage.query("", RRType.NS))
        assert out.question.qname == ""

    def test_flags_roundtrip(self):
        msg = DnsMessage.query("x.com", RRType.A)
        response = msg.response(rcode=RCode.NXDOMAIN)
        response.ra = True
        out = roundtrip(response)
        assert out.qr and out.aa and out.ra
        assert out.rcode == RCode.NXDOMAIN


class TestAnswerRoundtrip:
    def test_all_rdata_types(self):
        msg = DnsMessage.query("example.com", RRType.A).response()
        msg.answers = [
            ResourceRecord("example.com", 300, ARecord("93.184.216.34")),
            ResourceRecord("example.com", 300, NSRecord("ns1.example.com")),
            ResourceRecord("www.example.com", 60, CNAMERecord("example.com")),
            ResourceRecord("example.com", 600, MXRecord(10, "mail.example.com")),
            ResourceRecord("example.com", 120, TXTRecord("v=spf1 -all")),
        ]
        msg.authorities = [
            ResourceRecord(
                "example.com",
                3600,
                SOARecord("ns1.example.com", "admin.example.com", 7, 1, 2, 3, 4),
            )
        ]
        msg.additionals = [
            ResourceRecord("ns1.example.com", 300, ARecord("10.0.0.1")),
        ]
        out = roundtrip(msg)
        assert out.answers == msg.answers
        assert out.authorities == msg.authorities
        assert out.additionals == msg.additionals

    def test_compression_shrinks_message(self):
        msg = DnsMessage.query("a.very.long.label.example.com", RRType.NS).response()
        msg.answers = [
            ResourceRecord(
                "a.very.long.label.example.com",
                300,
                NSRecord(f"ns{i}.a.very.long.label.example.com"),
            )
            for i in range(4)
        ]
        wire = msg.to_wire()
        uncompressed_estimate = sum(
            len(rr.name) + len(rr.rdata.nsdname) + 16 for rr in msg.answers
        )
        assert len(wire) < uncompressed_estimate
        assert roundtrip(msg).answers == msg.answers

    def test_soa_second_name_compression_is_correct(self):
        # Regression: SOA carries two names back to back; offsets for the
        # second must account for the first.
        msg = DnsMessage.query("zone.example", RRType.SOA).response()
        msg.answers = [
            ResourceRecord(
                "zone.example",
                300,
                SOARecord("primary.zone.example", "admin.zone.example"),
            ),
            ResourceRecord(
                "sub.zone.example",
                300,
                SOARecord("primary.zone.example", "admin.zone.example"),
            ),
        ]
        assert roundtrip(msg).answers == msg.answers

    def test_mx_name_offset_padding(self):
        # Regression: the MX preference word precedes the exchange name.
        msg = DnsMessage.query("x.com", RRType.MX).response()
        msg.answers = [
            ResourceRecord("x.com", 10, MXRecord(5, "mail.x.com")),
            ResourceRecord("x.com", 10, MXRecord(10, "mail.x.com")),
        ]
        assert roundtrip(msg).answers == msg.answers

    def test_txt_longer_than_255_bytes(self):
        text = "x" * 700
        msg = DnsMessage.query("x.com", RRType.TXT).response()
        msg.answers = [ResourceRecord("x.com", 10, TXTRecord(text))]
        assert roundtrip(msg).answers[0].rdata.text == text


class TestCanonicalNames:
    def test_decoded_names_are_lowercased_once(self):
        msg = DnsMessage.query("www.example.com", RRType.CNAME).response()
        msg.answers = [
            ResourceRecord("www.example.com", 60, CNAMERecord("cdn.example.net")),
        ]
        wire = msg.to_wire().replace(b"www", b"WwW").replace(b"cdn", b"CDN")
        out = DnsMessage.from_wire(wire)
        assert out.question.qname == "www.example.com"
        assert out.answers == msg.answers

    def test_decode_then_encode_is_byte_identical(self):
        msg = DnsMessage.query("zone.example", RRType.SOA, msg_id=7).response()
        msg.answers = [
            ResourceRecord(
                "zone.example", 300,
                SOARecord("primary.zone.example", "admin.zone.example"),
            ),
            ResourceRecord("zone.example", 10, MXRecord(5, "mail.zone.example")),
        ]
        msg.additionals = [
            ResourceRecord("mail.zone.example", 10, ARecord("10.0.0.2")),
        ]
        wire = msg.to_wire()
        assert DnsMessage.from_wire(wire).to_wire() == wire


class TestMalformedInput:
    def test_truncated_header(self):
        with pytest.raises(MessageFormatError):
            DnsMessage.from_wire(b"\x00\x01\x02")

    def test_name_past_end(self):
        wire = bytearray(DnsMessage.query("example.com", RRType.A).to_wire())
        with pytest.raises(MessageFormatError):
            DnsMessage.from_wire(bytes(wire[:14]))

    @staticmethod
    def _patched(wire: bytes, offset: int, value: int) -> bytes:
        return wire[:offset] + value.to_bytes(2, "big") + wire[offset + 2:]

    def test_unknown_opcode(self):
        wire = DnsMessage.query("example.com", RRType.A).to_wire()
        flags = int.from_bytes(wire[2:4], "big") | (2 << 11)  # STATUS
        with pytest.raises(MessageFormatError, match="opcode"):
            DnsMessage.from_wire(self._patched(wire, 2, flags))

    def test_unknown_rcode(self):
        wire = DnsMessage.query("example.com", RRType.A).response().to_wire()
        flags = (int.from_bytes(wire[2:4], "big") & ~0xF) | 9  # NOTAUTH
        with pytest.raises(MessageFormatError, match="rcode"):
            DnsMessage.from_wire(self._patched(wire, 2, flags))

    def test_unknown_rr_type(self):
        query = DnsMessage.query("example.com", RRType.A).to_wire()
        with pytest.raises(MessageFormatError, match="RR type"):
            DnsMessage.from_wire(self._patched(query, len(query) - 4, 99))
        msg = DnsMessage.query("example.com", RRType.A).response()
        msg.answers = [ResourceRecord("example.com", 60, ARecord("10.0.0.1"))]
        wire = msg.to_wire()
        rr_type_at = len(wire) - 4 - 10  # A rdata, then the RR's fixed part
        with pytest.raises(MessageFormatError, match="RR type"):
            DnsMessage.from_wire(self._patched(wire, rr_type_at, 99))

    def test_unknown_rr_class(self):
        query = DnsMessage.query("example.com", RRType.A).to_wire()
        with pytest.raises(MessageFormatError, match="RR class"):
            DnsMessage.from_wire(self._patched(query, len(query) - 2, 3))  # CH
        msg = DnsMessage.query("example.com", RRType.A).response()
        msg.answers = [ResourceRecord("example.com", 60, ARecord("10.0.0.1"))]
        wire = msg.to_wire()
        rr_class_at = len(wire) - 4 - 8
        with pytest.raises(MessageFormatError, match="RR class"):
            DnsMessage.from_wire(self._patched(wire, rr_class_at, 3))

    def test_pointer_loop(self):
        # Header + a question whose name is a self-referencing pointer.
        header = (0).to_bytes(2, "big") + (0).to_bytes(2, "big")
        header += (1).to_bytes(2, "big") + b"\x00\x00" * 3
        pointer = b"\xc0\x0c"  # points at itself (offset 12)
        question = pointer + (1).to_bytes(2, "big") + (1).to_bytes(2, "big")
        with pytest.raises(MessageFormatError):
            DnsMessage.from_wire(header + question)


_label = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=12)
_names = st.lists(_label, min_size=1, max_size=5).map(".".join)


class TestPropertyRoundtrip:
    @given(name=_names, msg_id=st.integers(0, 0xFFFF))
    @settings(max_examples=60)
    def test_query_roundtrip(self, name, msg_id):
        msg = DnsMessage.query(name, RRType.A, msg_id=msg_id)
        out = roundtrip(msg)
        assert out.question.qname == name
        assert out.id == msg_id

    @given(
        names=st.lists(_names, min_size=1, max_size=6),
        ttl=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=60)
    def test_answer_roundtrip_arbitrary_names(self, names, ttl):
        msg = DnsMessage.query(names[0], RRType.NS).response()
        msg.answers = [
            ResourceRecord(name, ttl, NSRecord(f"ns.{name}")) for name in names
        ]
        assert roundtrip(msg).answers == msg.answers

    @given(names=st.lists(_names, min_size=1, max_size=6))
    @settings(max_examples=60)
    def test_reencoding_a_decoded_message_is_byte_identical(self, names):
        msg = DnsMessage.query(names[0], RRType.SOA).response()
        msg.answers = [
            ResourceRecord(name, 60, SOARecord(f"ns.{name}", names[-1]))
            for name in names
        ]
        wire = msg.to_wire()
        assert DnsMessage.from_wire(wire).to_wire() == wire
