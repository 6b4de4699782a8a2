"""DNS resource records.

Record data (rdata) classes are immutable and hashable so RRsets can be
deduplicated and compared. Wire encoding of rdata lives here; message-level
framing and name compression live in :mod:`repro.dnssim.message`.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import TypeVar, Union

from repro.names.normalize import normalize

_R = TypeVar("_R")

_U16 = struct.Struct("!H")
_SOA_TIMERS = struct.Struct("!IIIII")


class RRType(enum.IntEnum):
    """Record types used in this study (values per IANA registry)."""

    A = 1
    NS = 2
    CNAME = 5
    SOA = 6
    MX = 15
    TXT = 16
    AAAA = 28

    @classmethod
    def parse(cls, value: Union[str, int, "RRType"]) -> "RRType":
        """Accept an RRType, its name ("NS"), or its numeric value."""
        if isinstance(value, cls):
            return value
        if isinstance(value, int):
            return cls(value)
        try:
            return cls[value.upper()]
        except KeyError:
            raise ValueError(f"unknown RR type: {value!r}") from None


class RRClass(enum.IntEnum):
    """Record classes; only IN is used."""

    IN = 1


def _encode_ipv4(address: str) -> bytes:
    parts = address.split(".")
    if len(parts) != 4:
        raise ValueError(f"invalid IPv4 address: {address!r}")
    try:
        octets = [int(p) for p in parts]
    except ValueError:
        raise ValueError(f"invalid IPv4 address: {address!r}") from None
    if any(o < 0 or o > 255 for o in octets):
        raise ValueError(f"invalid IPv4 address: {address!r}")
    return bytes(octets)


def _decode_ipv4(data: bytes) -> str:
    if len(data) != 4:
        raise ValueError("IPv4 rdata must be 4 bytes")
    return ".".join(str(b) for b in data)


@dataclass(frozen=True)
class ARecord:
    """IPv4 address record."""

    address: str

    def __post_init__(self) -> None:
        _encode_ipv4(self.address)  # validate eagerly

    rrtype = RRType.A

    def __str__(self) -> str:
        return self.address


@dataclass(frozen=True)
class AAAARecord:
    """IPv6 address record (stored in presentation form, not validated
    beyond basic shape — the simulation routes on opaque address strings)."""

    address: str

    rrtype = RRType.AAAA

    def __str__(self) -> str:
        return self.address


@dataclass(frozen=True)
class NSRecord:
    """Authoritative nameserver record."""

    nsdname: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "nsdname", normalize(self.nsdname))

    rrtype = RRType.NS

    def __str__(self) -> str:
        return self.nsdname


@dataclass(frozen=True)
class CNAMERecord:
    """Canonical-name alias record."""

    target: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "target", normalize(self.target))

    rrtype = RRType.CNAME

    def __str__(self) -> str:
        return self.target


@dataclass(frozen=True)
class SOARecord:
    """Start-of-authority record.

    ``mname`` (primary master) and ``rname`` (administrator mailbox) are the
    two fields the paper's redundancy heuristic compares to decide whether
    two nameservers belong to the same operating entity (Section 3.1).
    """

    mname: str
    rname: str
    serial: int = 1
    refresh: int = 7200
    retry: int = 900
    expire: int = 1209600
    minimum: int = 300

    def __post_init__(self) -> None:
        object.__setattr__(self, "mname", normalize(self.mname))
        object.__setattr__(self, "rname", normalize(self.rname))

    rrtype = RRType.SOA

    def __str__(self) -> str:
        return (
            f"{self.mname} {self.rname} {self.serial} {self.refresh} "
            f"{self.retry} {self.expire} {self.minimum}"
        )


@dataclass(frozen=True)
class MXRecord:
    """Mail-exchange record (present for zone realism; unused by heuristics)."""

    preference: int
    exchange: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "exchange", normalize(self.exchange))

    rrtype = RRType.MX

    def __str__(self) -> str:
        return f"{self.preference} {self.exchange}"


@dataclass(frozen=True)
class TXTRecord:
    """Text record."""

    text: str

    rrtype = RRType.TXT

    def __str__(self) -> str:
        return f'"{self.text}"'


RData = Union[ARecord, AAAARecord, NSRecord, CNAMERecord, SOARecord, MXRecord, TXTRecord]

_RDATA_BY_TYPE = {
    RRType.A: ARecord,
    RRType.AAAA: AAAARecord,
    RRType.NS: NSRecord,
    RRType.CNAME: CNAMERecord,
    RRType.SOA: SOARecord,
    RRType.MX: MXRecord,
    RRType.TXT: TXTRecord,
}


@dataclass(frozen=True)
class ResourceRecord:
    """A complete resource record: owner name, TTL, and typed rdata."""

    name: str
    ttl: int
    rdata: RData
    rrclass: RRClass = RRClass.IN

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", normalize(self.name))
        if self.ttl < 0:
            raise ValueError("TTL must be non-negative")

    @property
    def rrtype(self) -> RRType:
        return self.rdata.rrtype

    def __str__(self) -> str:
        return f"{self.name or '.'} {self.ttl} IN {self.rrtype.name} {self.rdata}"


def rdata_class_for(rrtype: RRType) -> type:
    """The rdata dataclass for a given record type."""
    try:
        return _RDATA_BY_TYPE[rrtype]
    except KeyError:
        raise ValueError(f"unsupported RR type: {rrtype}") from None


def from_canonical(cls: type[_R], *values: object) -> _R:
    """Build the frozen record ``cls`` from field values already in
    canonical form, in field order, without running ``__post_init__``.

    For the wire decoder only: a decoded name is lowercased once where it
    is read, so normalizing it again in every constructor would redo the
    same work; other values come from fixed-width wire fields that are
    valid by construction.
    """
    record = object.__new__(cls)
    record.__dict__.update(zip(cls.__dataclass_fields__, values))  # type: ignore[attr-defined]
    return record


def encode_rdata(rdata: RData, out: bytearray, write_name) -> None:
    """Append the wire encoding of ``rdata`` to ``out``.

    ``write_name(name)`` is supplied by the message encoder: it appends a
    name at the end of ``out``, so domain names inside rdata participate in
    message-level name compression.
    """
    if isinstance(rdata, ARecord):
        out += _encode_ipv4(rdata.address)
    elif isinstance(rdata, AAAARecord):
        out += rdata.address.encode("ascii").ljust(16, b"\x00")[:16]
    elif isinstance(rdata, NSRecord):
        write_name(rdata.nsdname)
    elif isinstance(rdata, CNAMERecord):
        write_name(rdata.target)
    elif isinstance(rdata, SOARecord):
        write_name(rdata.mname)
        write_name(rdata.rname)
        out += _SOA_TIMERS.pack(
            rdata.serial,
            rdata.refresh,
            rdata.retry,
            rdata.expire,
            rdata.minimum,
        )
    elif isinstance(rdata, MXRecord):
        out += _U16.pack(rdata.preference)
        write_name(rdata.exchange)
    elif isinstance(rdata, TXTRecord):
        raw = rdata.text.encode("utf-8")
        chunks = [raw[i:i + 255] for i in range(0, len(raw), 255)] or [b""]
        out += b"".join(bytes([len(c)]) + c for c in chunks)
    else:
        raise ValueError(f"cannot encode rdata of type {type(rdata).__name__}")


def decode_rdata(rrtype: RRType, data: bytes, offset: int, length: int, decode_name) -> RData:
    """Decode rdata from wire bytes.

    ``decode_name`` is ``(offset) -> (name, next_offset)`` provided by the
    message decoder, so compression pointers resolve against the full
    message buffer; the names it returns are canonical.
    """
    end = offset + length
    if rrtype == RRType.A:
        return from_canonical(ARecord, _decode_ipv4(data[offset:end]))
    if rrtype == RRType.AAAA:
        return AAAARecord(data[offset:end].rstrip(b"\x00").decode("ascii"))
    if rrtype == RRType.NS:
        name, _ = decode_name(offset)
        return from_canonical(NSRecord, name)
    if rrtype == RRType.CNAME:
        name, _ = decode_name(offset)
        return from_canonical(CNAMERecord, name)
    if rrtype == RRType.SOA:
        mname, pos = decode_name(offset)
        rname, pos = decode_name(pos)
        return from_canonical(
            SOARecord, mname, rname, *_SOA_TIMERS.unpack_from(data, pos)
        )
    if rrtype == RRType.MX:
        (preference,) = _U16.unpack_from(data, offset)
        exchange, _ = decode_name(offset + 2)
        return from_canonical(MXRecord, preference, exchange)
    if rrtype == RRType.TXT:
        parts = []
        pos = offset
        while pos < end:
            n = data[pos]
            parts.append(data[pos + 1:pos + 1 + n])
            pos += 1 + n
        return TXTRecord(b"".join(parts).decode("utf-8"))
    raise ValueError(f"cannot decode rdata of type {rrtype}")
