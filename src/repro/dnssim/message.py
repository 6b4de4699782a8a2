"""RFC 1035 message framing: header, question, sections, name compression.

The resolver and servers exchange real wire-format packets so the codec is
exercised on every simulated query — exactly the byte-level surface a
``dig``-based measurement pipeline rides on.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.dnssim.errors import MessageFormatError
from repro.dnssim.records import (
    RRClass,
    RRType,
    ResourceRecord,
    decode_rdata,
    encode_rdata,
    from_canonical,
)
from repro.names.normalize import MAX_LABEL_LENGTH, normalize

_HEADER = struct.Struct("!HHHHHH")
_U16 = struct.Struct("!H")
_QUESTION_FIXED = struct.Struct("!HH")  # type, class
_RR_FIXED = struct.Struct("!HHIH")  # type, class, ttl, rdlength
_POINTER_MASK = 0xC0
_MAX_POINTER_CHASES = 64


class RCode(enum.IntEnum):
    """Response codes used by the simulation."""

    NOERROR = 0
    FORMERR = 1
    SERVFAIL = 2
    NXDOMAIN = 3
    NOTIMP = 4
    REFUSED = 5


class Opcode(enum.IntEnum):
    QUERY = 0


def _by_value(enum_cls: type[enum.IntEnum]) -> dict[int, Any]:
    return {member.value: member for member in enum_cls}


# Wire value -> enum member. A dict lookup, where ``RRType(value)`` would go
# through ``EnumMeta.__call__`` on every decoded field.
_OPCODES = _by_value(Opcode)
_RCODES = _by_value(RCode)
_RRTYPES = _by_value(RRType)
_RRCLASSES = _by_value(RRClass)


def _member(table: dict[int, Any], value: int, what: str) -> Any:
    """The enum member for a wire value; unknown values are damage."""
    member = table.get(value)
    if member is None:
        raise MessageFormatError(f"unknown {what} {value}")
    return member


@dataclass(frozen=True)
class Question:
    """A question-section entry."""

    qname: str
    qtype: RRType
    qclass: RRClass = RRClass.IN

    def __post_init__(self) -> None:
        object.__setattr__(self, "qname", normalize(self.qname))
        object.__setattr__(self, "qtype", RRType.parse(self.qtype))

    def __str__(self) -> str:
        return f"{self.qname or '.'} {self.qclass.name} {self.qtype.name}"


@dataclass
class DnsMessage:
    """A DNS query or response.

    Flags follow RFC 1035: ``qr`` response, ``aa`` authoritative answer,
    ``tc`` truncation, ``rd``/``ra`` recursion desired/available.
    """

    id: int = 0
    qr: bool = False
    opcode: Opcode = Opcode.QUERY
    aa: bool = False
    tc: bool = False
    rd: bool = False
    ra: bool = False
    rcode: RCode = RCode.NOERROR
    questions: list[Question] = field(default_factory=list)
    answers: list[ResourceRecord] = field(default_factory=list)
    authorities: list[ResourceRecord] = field(default_factory=list)
    additionals: list[ResourceRecord] = field(default_factory=list)

    @classmethod
    def query(cls, qname: str, qtype: RRType, msg_id: int = 0, rd: bool = False) -> "DnsMessage":
        """Build a standard query message."""
        return cls(id=msg_id, rd=rd, questions=[Question(qname, RRType.parse(qtype))])

    def response(self, rcode: RCode = RCode.NOERROR, aa: bool = True) -> "DnsMessage":
        """Build an empty response to this query (copies id/question/rd)."""
        return DnsMessage(
            id=self.id,
            qr=True,
            aa=aa,
            rd=self.rd,
            rcode=rcode,
            questions=list(self.questions),
        )

    @property
    def question(self) -> Optional[Question]:
        """The first (and in practice only) question."""
        return self.questions[0] if self.questions else None

    def records(self, rrtype: Optional[RRType] = None, section: str = "answers") -> list[ResourceRecord]:
        """Records from a section, optionally filtered by type."""
        recs = getattr(self, section)
        if rrtype is None:
            return list(recs)
        return [r for r in recs if r.rrtype == rrtype]

    # -- wire format ------------------------------------------------------

    def _flags_word(self) -> int:
        word = 0
        if self.qr:
            word |= 0x8000
        word |= (int(self.opcode) & 0xF) << 11
        if self.aa:
            word |= 0x0400
        if self.tc:
            word |= 0x0200
        if self.rd:
            word |= 0x0100
        if self.ra:
            word |= 0x0080
        word |= int(self.rcode) & 0xF
        return word

    def to_wire(self) -> bytes:
        """Encode to wire format with name compression.

        Every name in a message is canonical (the record and question
        constructors normalize), so names are encoded as they are.
        """
        out = bytearray(
            _HEADER.pack(
                self.id,
                self._flags_word(),
                len(self.questions),
                len(self.answers),
                len(self.authorities),
                len(self.additionals),
            )
        )
        offsets: dict[str, int] = {}

        def write_name(name: str) -> None:
            """Append ``name``, ending in a pointer to the longest suffix
            already written (RFC 1035 §4.1.4)."""
            nonlocal out
            here = len(out)
            remaining = name
            while remaining:
                pointer = offsets.get(remaining)
                if pointer is not None:
                    out += _U16.pack(0xC000 | pointer)
                    return
                if here < 0x3FFF:
                    offsets[remaining] = here
                label, _, remaining = remaining.partition(".")
                raw = label.encode("ascii")
                if len(raw) > MAX_LABEL_LENGTH:
                    raise MessageFormatError(f"label too long: {label!r}")
                out.append(len(raw))
                out += raw
                here += 1 + len(raw)
            out.append(0)

        for q in self.questions:
            write_name(q.qname)
            out += _QUESTION_FIXED.pack(q.qtype, q.qclass)
        for section in (self.answers, self.authorities, self.additionals):
            for rr in section:
                write_name(rr.name)
                fixed_at = len(out)
                out += _RR_FIXED.pack(rr.rdata.rrtype, rr.rrclass, rr.ttl, 0)
                encode_rdata(rr.rdata, out, write_name)
                # Backfill RDLENGTH now that the rdata's size is known.
                _U16.pack_into(
                    out, fixed_at + 8, len(out) - fixed_at - _RR_FIXED.size
                )
        return bytes(out)

    @classmethod
    def from_wire(cls, data: bytes) -> "DnsMessage":
        """Decode a wire-format message; raises MessageFormatError on damage.

        Every decoded name is lowercased once here and is canonical from
        then on: the question and records are built without normalizing
        it again.
        """
        size = len(data)
        if size < _HEADER.size:
            raise MessageFormatError("message shorter than header")
        msg_id, flags, qdcount, ancount, nscount, arcount = _HEADER.unpack_from(data, 0)
        msg = cls(
            id=msg_id,
            qr=bool(flags & 0x8000),
            opcode=_member(_OPCODES, (flags >> 11) & 0xF, "opcode"),
            aa=bool(flags & 0x0400),
            tc=bool(flags & 0x0200),
            rd=bool(flags & 0x0100),
            ra=bool(flags & 0x0080),
            rcode=_member(_RCODES, flags & 0xF, "rcode"),
        )

        def decode_name(offset: int) -> tuple[str, int]:
            labels: list[bytes] = []
            jumps = 0
            pos = offset
            end_pos: Optional[int] = None
            while True:
                if pos >= size:
                    raise MessageFormatError("name runs past end of message")
                length = data[pos]
                if length & _POINTER_MASK == _POINTER_MASK:
                    if pos + 1 >= size:
                        raise MessageFormatError("truncated compression pointer")
                    if end_pos is None:
                        end_pos = pos + 2
                    jumps += 1
                    if jumps > _MAX_POINTER_CHASES:
                        raise MessageFormatError("compression pointer loop")
                    pos = (length & 0x3F) << 8 | data[pos + 1]
                    continue
                if length & _POINTER_MASK:
                    raise MessageFormatError("reserved label type")
                if length == 0:
                    pos += 1
                    break
                if pos + 1 + length > size:
                    raise MessageFormatError("label runs past end of message")
                labels.append(data[pos + 1:pos + 1 + length])
                pos += 1 + length
            name = b".".join(labels).decode("ascii").lower()
            return name, (end_pos if end_pos is not None else pos)

        pos = _HEADER.size
        try:
            for _ in range(qdcount):
                qname, pos = decode_name(pos)
                qtype, qclass = _QUESTION_FIXED.unpack_from(data, pos)
                pos += 4
                msg.questions.append(from_canonical(
                    Question,
                    qname,
                    _member(_RRTYPES, qtype, "RR type"),
                    _member(_RRCLASSES, qclass, "RR class"),
                ))
            for section, count in (
                (msg.answers, ancount),
                (msg.authorities, nscount),
                (msg.additionals, arcount),
            ):
                for _ in range(count):
                    name, pos = decode_name(pos)
                    rrtype, rrclass, ttl, rdlength = _RR_FIXED.unpack_from(data, pos)
                    pos += 10
                    if pos + rdlength > size:
                        raise MessageFormatError("rdata runs past end of message")
                    rdata = decode_rdata(
                        _member(_RRTYPES, rrtype, "RR type"),
                        data, pos, rdlength, decode_name,
                    )
                    pos += rdlength
                    section.append(from_canonical(
                        ResourceRecord,
                        name,
                        ttl,
                        rdata,
                        _member(_RRCLASSES, rrclass, "RR class"),
                    ))
        except (struct.error, ValueError) as exc:
            raise MessageFormatError(str(exc)) from exc
        return msg

    def __str__(self) -> str:
        lines = [
            f";; id={self.id} {'response' if self.qr else 'query'} "
            f"rcode={self.rcode.name} aa={int(self.aa)}"
        ]
        for q in self.questions:
            lines.append(f";; QUESTION: {q}")
        for label, section in (
            ("ANSWER", self.answers),
            ("AUTHORITY", self.authorities),
            ("ADDITIONAL", self.additionals),
        ):
            for rr in section:
                lines.append(f";; {label}: {rr}")
        return "\n".join(lines)
