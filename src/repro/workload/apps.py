"""Per-application connection models.

Each model produces :class:`ConnectionSpec` objects — a declarative
description of one connection (who initiates, ports, payload prefixes,
byte volumes, pacing) — and :func:`connection_packets` expands a spec into
a time-ordered packet schedule.

A spec expands to rows in one of two ways that give the same rows.
:func:`connection_rows` draws from a ``random.Random`` and returns
sorted tuples; every per-packet caller uses it.  :func:`tcp_columns`
builds a large TCP connection's rows as numpy columns from numpy's
legacy MT19937, seeded so that it returns the same doubles; the trace
materializer (:mod:`repro.workload.parallel`) takes it for connections
expected to send more than :data:`COLUMN_ROWS` rows.

Payload prefixes are crafted to match the Table 1 identification patterns,
so the section-3 traffic analyzer classifies the synthetic trace the same
way the paper's analyzer classified the campus trace.  The *unknown* model
emits high-entropy payloads on random high ports — the paper's
protocol-encrypted P2P traffic that defeats payload inspection and
motivates the bitmap filter in the first place.
"""

from __future__ import annotations

import enum
import random
import threading
from dataclasses import dataclass, field
from itertools import repeat
from typing import Any, Callable, Dict, List, NamedTuple, Sequence, Tuple

from repro.net import table as _table
from repro.net.headers import TCPFlags
from repro.net.inet import IPPROTO_TCP, IPPROTO_UDP
from repro.net.packet import Direction, Packet, SocketPair

#: One packet of a connection schedule, before socket pairs are attached:
#: ``(timestamp, from_client, size, flags, payload)``.  The columnar
#: generator consumes rows directly; :func:`connection_packets` wraps them
#: into :class:`Packet` objects.
ConnectionRow = Tuple[float, bool, int, int, bytes]
from repro.workload.distributions import (
    connection_lifetime,
    out_in_delay,
    p2p_listen_port,
    split_bytes,
)
from repro.workload.topology import AddressSpace, HostModel

# Application labels — ground truth carried on specs, and the vocabulary
# the analyzer's classifier reports.
APP_HTTP = "http"
APP_FTP = "ftp"
APP_FTP_DATA = "ftp-data"
APP_DNS = "dns"
APP_SMTP = "smtp"
APP_SSH = "ssh"
APP_IMAP = "imap"
APP_BITTORRENT = "bittorrent"
APP_EDONKEY = "edonkey"
APP_GNUTELLA = "gnutella"
APP_FASTTRACK = "fasttrack"
APP_UNKNOWN = "unknown"
APP_OTHER = "other"

#: The paper's P2P category (Table 2 rows bittorrent/gnutella/edonkey).
P2P_APPS = frozenset({APP_BITTORRENT, APP_EDONKEY, APP_GNUTELLA, APP_FASTTRACK})

IP_HEADER = 20
TCP_HEADER = 20
UDP_HEADER = 8


class Initiator(enum.Enum):
    """Who opens the connection, seen from the client network."""

    CLIENT = "client"  # outbound-initiated
    REMOTE = "remote"  # inbound-initiated (what the bitmap filter refuses)


@dataclass
class ScriptedMessage:
    """A protocol message at a fixed offset into the data phase."""

    offset: float
    from_initiator: bool
    payload: bytes


@dataclass
class ConnectionSpec:
    """Declarative description of one connection."""

    app: str
    start: float
    protocol: int
    client_addr: int
    client_port: int
    remote_addr: int
    remote_port: int
    initiator: Initiator
    #: First data payload sent by the initiator / responder (drives the
    #: analyzer's pattern matching; empty means no distinguishing payload).
    request_payload: bytes = b""
    response_payload: bytes = b""
    #: Bulk payload bytes beyond the scripted/first messages.
    bytes_client_to_remote: int = 0
    bytes_remote_to_client: int = 0
    duration: float = 1.0
    rtt: float = 0.05
    mean_packet: int = 1200
    #: Extra protocol messages (e.g. FTP control dialogue).
    script: List[ScriptedMessage] = field(default_factory=list)
    #: UDP only: request/response rounds.
    udp_exchanges: int = 1
    #: Close with RST instead of a FIN handshake.
    abortive_close: bool = False

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError(f"duration must be positive: {self.duration}")
        if self.bytes_client_to_remote < 0 or self.bytes_remote_to_client < 0:
            raise ValueError("byte volumes must be non-negative")
        if self.rtt <= 0:
            raise ValueError(f"rtt must be positive: {self.rtt}")

    @property
    def pair_from_client(self) -> SocketPair:
        return SocketPair(
            self.protocol,
            self.client_addr,
            self.client_port,
            self.remote_addr,
            self.remote_port,
        )

    @property
    def is_p2p(self) -> bool:
        return self.app in P2P_APPS

    @property
    def end(self) -> float:
        return self.start + self.duration


def _row(
    spec: ConnectionSpec,
    timestamp: float,
    from_client: bool,
    payload_len: int,
    flags: int = 0,
    payload: bytes = b"",
) -> ConnectionRow:
    """Build one schedule row of a connection with a correct wire size."""
    transport = TCP_HEADER if spec.protocol == IPPROTO_TCP else UDP_HEADER
    size = IP_HEADER + transport + max(payload_len, len(payload))
    return (timestamp, from_client, size, flags, payload)


def _tcp_rows(spec: ConnectionSpec, rng: random.Random) -> List[ConnectionRow]:
    """Expand a TCP spec: handshake, scripted dialogue, bulk data with
    delayed ACKs, and a FIN/RST close — all inside ``spec.duration`` so the
    SYN-to-FIN lifetime matches the drawn value.

    :func:`tcp_columns` builds the same rows as numpy columns; a change
    to the draws or the arithmetic here must be made there too."""
    rows: List[ConnectionRow] = []
    append = rows.append
    initiator_is_client = spec.initiator is Initiator.CLIENT
    rtt = spec.rtt
    syn = TCPFlags.SYN
    synack = TCPFlags.SYN | TCPFlags.ACK
    ack = TCPFlags.ACK
    psh_ack = TCPFlags.PSH | TCPFlags.ACK
    # Every _tcp_rows row is TCP, so the _row() helper's per-call header
    # arithmetic collapses to one hoisted constant (this function builds
    # every data packet and ACK of every trace).
    bare = IP_HEADER + TCP_HEADER

    t0 = spec.start
    append((t0, initiator_is_client, bare, syn, b""))
    append((t0 + rtt, not initiator_is_client, bare, synack, b""))
    append((t0 + rtt + rtt * 0.1, initiator_is_client, bare, ack, b""))

    data_start = t0 + rtt * 1.2
    close_start = max(data_start + rtt, spec.end - 2.2 * rtt)

    # First payloads: initiator's request, responder's reply one RTT later.
    cursor = data_start
    if spec.request_payload:
        payload = spec.request_payload
        append((cursor, initiator_is_client, bare + len(payload), psh_ack, payload))
        cursor += rtt
    if spec.response_payload:
        payload = spec.response_payload
        append((cursor, not initiator_is_client, bare + len(payload), psh_ack, payload))
        cursor += rtt * 0.5

    # Scripted dialogue (offsets relative to the data phase).
    for message in spec.script:
        when = min(data_start + message.offset, close_start - rtt * 0.5)
        from_client = initiator_is_client == message.from_initiator
        payload = message.payload
        append((when, from_client, bare + len(payload), psh_ack, payload))

    # Bulk data, paced across the remaining window, with stretch ACKs from
    # the receiving side (bidirectionality matters for the filters).
    bulk_start = max(cursor, data_start)
    span = max(close_start - bulk_start, rtt)
    random = rng.random
    for from_client, total in (
        (True, spec.bytes_client_to_remote),
        (False, spec.bytes_remote_to_client),
    ):
        if total <= 0:
            continue
        not_from_client = not from_client
        chunks = split_bytes(rng, total, spec.mean_packet)
        gap = span / (len(chunks) + 1)
        for index, chunk in enumerate(chunks, start=1):
            when = bulk_start + index * gap * (1.0 + 0.1 * (random() - 0.5))
            append((when, from_client, bare + chunk, psh_ack, b""))
            if index % 2 == 0:  # delayed ACK from the receiver (RFC 1122)
                ack_delay = min(out_in_delay(rng), gap * 1.8, 1.0)
                append((when + ack_delay, not_from_client, bare, ack, b""))

    # Close.
    if spec.abortive_close:
        closer_is_client = initiator_is_client if rng.random() < 0.5 else not initiator_is_client
        append((spec.end, closer_is_client, bare, TCPFlags.RST, b""))
    else:
        fin_ack = TCPFlags.FIN | TCPFlags.ACK
        append((spec.end, initiator_is_client, bare, fin_ack, b""))
        append((spec.end + rtt, not initiator_is_client, bare, fin_ack, b""))
        append((spec.end + 1.1 * rtt, initiator_is_client, bare, ack, b""))

    rows.sort(key=_row_time)
    return rows


#: A TCP connection expected to send more than this many rows takes
#: :func:`tcp_columns` in the trace materializer.  On a 2-vCPU host one
#: numpy pass cost about 105 µs plus 0.05 µs per row, and the stdlib rows
#: about 0.7 µs per row with their transposition: the two meet near 150
#: rows (``docs/architecture.md``, *Workload plane*).
COLUMN_ROWS = 150

_TCP_BARE = IP_HEADER + TCP_HEADER
_SYN = int(TCPFlags.SYN)
_SYN_ACK = int(TCPFlags.SYN | TCPFlags.ACK)
_ACK = int(TCPFlags.ACK)
_PSH_ACK = int(TCPFlags.PSH | TCPFlags.ACK)
_FIN_ACK = int(TCPFlags.FIN | TCPFlags.ACK)
_RST = int(TCPFlags.RST)
#: The smallest factor ``split_bytes`` scales ``mean_packet`` by (a draw
#: of 0.0), in the same float arithmetic.
_SHRINK = 1.0 + 0.3 * (0.0 * 2.0 - 1.0)
_mt_cache = threading.local()


def expected_rows(spec: ConnectionSpec) -> int:
    """A TCP connection's bulk rows as its byte volumes predict them:
    one per ``mean_packet`` bytes and a delayed ACK for every second."""
    chunks = (spec.bytes_client_to_remote + spec.bytes_remote_to_client) // max(
        1, min(spec.mean_packet, 1460))
    return chunks + chunks // 2


class TcpColumns(NamedTuple):
    """A TCP connection's rows as columns, in the order :func:`_tcp_rows`
    appends them (before its sort)."""

    timestamps: Any  # float64
    from_client: Any  # bool
    sizes: Any  # int64
    flags: Any  # uint32
    #: ``(row, payload)`` for every row with a payload, in the order the
    #: sorted rows present them (time, then append order).
    payloads: List[Tuple[int, bytes]]


def _mt19937(np, seed: int):
    """numpy's legacy MT19937 in the state ``random.Random(seed)`` starts
    in, so that ``random_sample`` returns ``random()``'s doubles.

    ``random.Random`` seeds with ``init_by_array`` over the 32-bit words
    of ``abs(seed)``; ``RandomState.seed`` runs the same routine on an
    array of two or more words, but takes a one-word key as a scalar
    seed (``init_genrand``), so a seed below 2**32 copies the stdlib
    state in instead.  One generator per thread is reseeded per call:
    building one costs about ten reseeds.
    """
    generator = getattr(_mt_cache, "generator", None)
    if generator is None:
        generator = _mt_cache.generator = np.random.RandomState()
    key = []
    rest = abs(seed)
    while rest:
        key.append(rest & 0xFFFFFFFF)
        rest >>= 32
    if len(key) > 1:
        generator.seed(np.array(key, dtype=np.uint32))
    else:
        state = random.Random(seed).getstate()[1]
        generator.set_state(
            ("MT19937", np.array(state[:-1], dtype=np.uint32), state[-1]))
    return generator


def tcp_columns(spec: ConnectionSpec, seed: int) -> TcpColumns:
    """``_tcp_rows(spec, random.Random(seed))`` as numpy columns.

    Every draw of :func:`_tcp_rows` is a ``random()`` double, so the
    connection draws them all at once from :func:`_mt19937` and reads
    them in the stdlib layout: per direction with bytes (client→remote
    first), one per chunk for ``split_bytes`` until the bytes are
    covered, then per chunk one jitter and, for every second chunk, the
    delayed ACK's branch and ``uniform`` draws; an abortive close draws
    one more.  Each float expression keeps :func:`_tcp_rows`' operation
    order, so every value is the same double.

    The rows stay in append order: a stable timestamp sort of them gives
    :func:`_tcp_rows`' rows exactly, and the trace merge is one.  Needs
    numpy (``repro.net.table._numpy()``).
    """
    np = _table._numpy()
    initiator_is_client = spec.initiator is Initiator.CLIENT
    rtt = spec.rtt
    bare = _TCP_BARE
    t0 = spec.start
    ts = [t0, t0 + rtt, t0 + rtt + rtt * 0.1]
    ob = [initiator_is_client, not initiator_is_client, initiator_is_client]
    sz = [bare, bare, bare]
    fl = [_SYN, _SYN_ACK, _ACK]
    carried: List[Tuple[float, int, bytes]] = []

    def message(when: float, from_client: bool, payload: bytes) -> None:
        if payload:
            carried.append((when, len(ts), payload))
        ts.append(when)
        ob.append(from_client)
        sz.append(bare + len(payload))
        fl.append(_PSH_ACK)

    data_start = t0 + rtt * 1.2
    close_start = max(data_start + rtt, spec.end - 2.2 * rtt)
    cursor = data_start
    if spec.request_payload:
        message(cursor, initiator_is_client, spec.request_payload)
        cursor += rtt
    if spec.response_payload:
        message(cursor, not initiator_is_client, spec.response_payload)
        cursor += rtt * 0.5
    for scripted in spec.script:
        message(min(data_start + scripted.offset, close_start - rtt * 0.5),
                initiator_is_client == scripted.from_initiator, scripted.payload)

    bulk_start = max(cursor, data_start)
    span = max(close_start - bulk_start, rtt)
    directions = [(from_client, total) for from_client, total in (
        (True, spec.bytes_client_to_remote),
        (False, spec.bytes_remote_to_client),
    ) if total > 0]
    mean = min(spec.mean_packet, 1460)
    # Every chunk but the last is at least ``least`` bytes, so a direction
    # draws at most ``-(-total // least)`` sizes and twice that after.
    least = max(1, int(mean * _SHRINK))
    bounds = [-(-total // least) for _, total in directions]
    budget = 3 * sum(bounds) + spec.abortive_close
    draws = _mt19937(np, seed).random_sample(budget) if budget else None
    at = 0
    parts = [(ts, ob, sz, fl)]
    for (from_client, total), bound in zip(directions, bounds):
        sizes = np.clip(
            mean * (1.0 + 0.3 * (draws[at:at + bound] * 2.0 - 1.0)), 1.0, 1460.0
        ).astype(np.int64)
        ends = np.cumsum(sizes)
        n = int(np.searchsorted(ends, total)) + 1
        chunks = sizes[:n]
        chunks[-1] = total - (int(ends[n - 2]) if n > 1 else 0)
        at += n
        gap = span / (n + 1)
        index = np.arange(n)
        jitter_at = at + index + (index >> 1) * 2
        when = bulk_start + (index + 1) * gap * (1.0 + 0.1 * (draws[jitter_at] - 0.5))
        acked = jitter_at[1::2]
        branch = draws[acked + 1]
        low = np.where(branch < 0.90, 0.005, np.where(branch < 0.99, 0.45, 2.8))
        high = np.where(branch < 0.90, 0.45, np.where(branch < 0.99, 2.8, 12.0))
        delay = np.minimum(np.minimum(low + (high - low) * draws[acked + 2], gap * 1.8), 1.0)
        at += n + 2 * len(acked)
        # Append order: data rows, each second one followed by its ACK.
        data_at = index + (index >> 1)
        ack_at = data_at[1::2] + 1
        rows = n + len(acked)
        t = np.empty(rows)
        t[data_at] = when
        t[ack_at] = when[1::2] + delay
        o = np.full(rows, from_client)
        o[ack_at] = not from_client
        s = np.full(rows, bare, dtype=np.int64)
        s[data_at] += chunks
        f = np.full(rows, _PSH_ACK, dtype=np.uint32)
        f[ack_at] = _ACK
        parts.append((t, o, s, f))

    if spec.abortive_close:
        closer = initiator_is_client if draws[at] < 0.5 else not initiator_is_client
        parts.append(([spec.end], [closer], [bare], [_RST]))
    else:
        parts.append((
            [spec.end, spec.end + rtt, spec.end + 1.1 * rtt],
            [initiator_is_client, not initiator_is_client, initiator_is_client],
            [bare, bare, bare],
            [_FIN_ACK, _FIN_ACK, _ACK],
        ))
    columns = [
        np.concatenate(column, dtype=dtype, casting="unsafe")
        for column, dtype in zip(zip(*parts), (np.float64, np.bool_, np.int64, np.uint32))
    ]
    carried.sort()
    return TcpColumns(*columns, [(row, payload) for _, row, payload in carried])


def _udp_rows(spec: ConnectionSpec, rng: random.Random) -> List[ConnectionRow]:
    """Expand a UDP spec into request/response datagram rounds."""
    rows: List[ConnectionRow] = []
    initiator_is_client = spec.initiator is Initiator.CLIENT
    rounds = max(1, spec.udp_exchanges)
    gap = spec.duration / rounds
    request_extra = _chunked(spec.bytes_client_to_remote if initiator_is_client
                             else spec.bytes_remote_to_client, rounds)
    response_extra = _chunked(spec.bytes_remote_to_client if initiator_is_client
                              else spec.bytes_client_to_remote, rounds)
    for index in range(rounds):
        when = spec.start + index * gap * (1.0 + 0.05 * (rng.random() - 0.5))
        request_payload = spec.request_payload if index == 0 else b""
        response_payload = spec.response_payload if index == 0 else b""
        rows.append(
            _row(
                spec,
                when,
                initiator_is_client,
                request_extra[index],
                payload=request_payload,
            )
        )
        delay = min(out_in_delay(rng), gap if gap > 0 else spec.rtt)
        rows.append(
            _row(
                spec,
                when + max(delay, spec.rtt * 0.5),
                not initiator_is_client,
                response_extra[index],
                payload=response_payload,
            )
        )
    rows.sort(key=_row_time)
    return rows


def _row_time(row: ConnectionRow) -> float:
    return row[0]


def _chunked(total: int, rounds: int) -> List[int]:
    """Spread ``total`` bytes across ``rounds`` datagrams (UDP stays small:
    the paper's trace carries 99.5 % of bytes over TCP)."""
    base = total // rounds
    sizes = [min(base, 1400)] * rounds
    sizes[0] += min(total - base * rounds, 1400 - sizes[0]) if rounds else 0
    return sizes


def connection_rows(spec: ConnectionSpec, rng: random.Random) -> List[ConnectionRow]:
    """All schedule rows of a connection, in timestamp order.

    A row is ``(timestamp, from_client, size, flags, payload)`` — the
    connection's two socket pairs (client→remote and its inverse) are
    attached by the consumer, so columnar trace assembly interns each
    pair once per connection instead of constructing one per packet.
    """
    if spec.protocol == IPPROTO_TCP:
        return _tcp_rows(spec, rng)
    return _udp_rows(spec, rng)


def connection_packets(spec: ConnectionSpec, rng: random.Random) -> List[Packet]:
    """All packets of a connection, in timestamp order."""
    pair = spec.pair_from_client
    inverse = pair.inverse
    outbound, inbound = Direction.OUTBOUND, Direction.INBOUND
    return [
        Packet(
            timestamp,
            pair if from_client else inverse,
            size=size,
            flags=flags,
            payload=payload,
            direction=outbound if from_client else inbound,
        )
        for timestamp, from_client, size, flags, payload in connection_rows(spec, rng)
    ]


# ---------------------------------------------------------------------------
# Payload builders matching the Table 1 patterns
# ---------------------------------------------------------------------------


def bittorrent_handshake(rng: random.Random) -> bytes:
    """``\\x13BitTorrent protocol`` + reserved + info-hash + peer-id."""
    return (
        b"\x13BitTorrent protocol"
        + bytes(8)
        + _random_bytes(rng, 20)
        + b"-AZ2504-"
        + _random_bytes(rng, 12)
    )


def bittorrent_dht_query(rng: random.Random) -> bytes:
    """A bencoded DHT ping: ``d1:ad2:id20:...``."""
    return b"d1:ad2:id20:" + _random_bytes(rng, 20) + b"e1:q4:ping1:t2:aa1:y1:qe"


def edonkey_hello(rng: random.Random) -> bytes:
    """eMule TCP hello: ``\\xe3`` + little-endian length + opcode 0x01."""
    body = b"\x01" + _random_bytes(rng, 40)
    return b"\xe3" + len(body).to_bytes(4, "little") + body


def edonkey_udp_ping(rng: random.Random) -> bytes:
    """eMule UDP: protocol byte 0xe5 + a server-status opcode."""
    return b"\xe5\x96" + _random_bytes(rng, 6)


def gnutella_connect() -> bytes:
    return b"GNUTELLA CONNECT/0.6\r\nUser-Agent: LimeWire/4.12\r\n\r\n"

def gnutella_ok() -> bytes:
    return b"GNUTELLA/0.6 200 OK\r\n\r\n"


def gnutella_udp(rng: random.Random) -> bytes:
    """Gnutella2-style UDP: ``GND`` + flags."""
    return b"GND\x02" + _random_bytes(rng, 12)


def fasttrack_get(rng: random.Random) -> bytes:
    return b"GET /.hash=" + _random_hex(rng, 32) + b" HTTP/1.1\r\n\r\n"


def http_get(rng: random.Random, host: str = "www.example.com") -> bytes:
    path = "/" + _random_hex(rng, 6).decode()
    return (
        f"GET {path} HTTP/1.1\r\nHost: {host}\r\n"
        "User-Agent: Mozilla/5.0\r\nAccept: */*\r\n\r\n"
    ).encode()


def http_response() -> bytes:
    return (
        b"HTTP/1.1 200 OK\r\nServer: Apache/2.0\r\n"
        b"Content-Type: text/html\r\nContent-Length: 12345\r\n\r\n<html>"
    )


def ftp_banner() -> bytes:
    return b"220 ProFTPD 1.3.0 FTP Server ready.\r\n"


def dns_query(rng: random.Random) -> bytes:
    """A plausible DNS query packet (header + one QNAME)."""
    header = _random_bytes(rng, 2) + b"\x01\x00\x00\x01\x00\x00\x00\x00\x00\x00"
    qname = b"\x03www" + bytes([7]) + _random_hex(rng, 7)[:7] + b"\x03com\x00"
    return header + qname + b"\x00\x01\x00\x01"


def random_encrypted(rng: random.Random, length: int = 96) -> bytes:
    """High-entropy bytes — protocol-encrypted P2P (MSE/PE) payloads that
    defeat every Table 1 pattern."""
    return _random_bytes(rng, length)


def _random_bytes(rng: random.Random, length: int) -> bytes:
    return bytes(map(rng.getrandbits, repeat(8, length)))


def _random_hex(rng: random.Random, length: int) -> bytes:
    return bytes(map(rng.choice, repeat(b"0123456789abcdef", length)))


# ---------------------------------------------------------------------------
# Application factories
# ---------------------------------------------------------------------------

#: Factory signature: (rng, host, address space, start time) -> specs.
AppFactory = Callable[[random.Random, HostModel, AddressSpace, float], List[ConnectionSpec]]

EDONKEY_TCP_PORT = 4662
EDONKEY_UDP_PORTS = (4661, 4665, 4672)
BITTORRENT_PORTS = tuple(range(6881, 6890))
GNUTELLA_PORTS = (6346, 6347)


def _listen_port(host: HostModel, rng: random.Random, app: str, well_known: Sequence[int]) -> int:
    """The host's stable P2P listen port (random high port usually)."""
    port = host.listen_ports.get(app)
    if port is None:
        port = p2p_listen_port(rng, well_known, well_known_weight=0.25)
        host.listen_ports[app] = port
    return port


def _short_duration(rng: random.Random, cap: float = 44.0) -> float:
    return min(connection_lifetime(rng), cap)


def make_http(
    rng: random.Random, host: HostModel, addresses: AddressSpace, start: float
) -> List[ConnectionSpec]:
    """A client-initiated web fetch — download-heavy, short-lived."""
    server = rng.choice(addresses.sticky_peers("web", 40))
    port = rng.choices([80, 8080, 3128, 443], weights=[80, 6, 4, 10], k=1)[0]
    payload = random_encrypted(rng, 80) if port == 443 else http_get(rng)
    response = b"" if port == 443 else http_response()
    return [
        ConnectionSpec(
            app=APP_HTTP,
            start=start,
            protocol=IPPROTO_TCP,
            client_addr=host.addr,
            client_port=host.ports.allocate(start),
            remote_addr=server,
            remote_port=port,
            initiator=Initiator.CLIENT,
            request_payload=payload,
            response_payload=response,
            bytes_client_to_remote=rng.randint(200, 2000),
            bytes_remote_to_client=int(connection_lifetime(rng) * 2400) + rng.randint(2000, 40000),
            duration=connection_lifetime(rng),
            rtt=out_in_delay(rng) * 0.5 + 0.01,
        )
    ]


def make_ftp(
    rng: random.Random, host: HostModel, addresses: AddressSpace, start: float
) -> List[ConnectionSpec]:
    """An FTP session: a control connection whose dialogue names the data
    connection (active PORT or passive PASV), plus that data connection —
    the paper's second identification strategy exercises exactly this."""
    server = rng.choice(addresses.sticky_peers("ftp", 6))
    control_port = host.ports.allocate(start)
    duration = max(8.0, _short_duration(rng, cap=120.0))
    passive = rng.random() < 0.6
    data_start = start + 3.0

    if passive:
        data_port = rng.randint(20000, 50000)
        data_spec = ConnectionSpec(
            app=APP_FTP_DATA,
            start=data_start,
            protocol=IPPROTO_TCP,
            client_addr=host.addr,
            client_port=host.ports.allocate(data_start),
            remote_addr=server,
            remote_port=data_port,
            initiator=Initiator.CLIENT,
            bytes_remote_to_client=rng.randint(30_000, 700_000),
            duration=max(4.0, duration - 4.0),
            rtt=out_in_delay(rng) * 0.5 + 0.01,
        )
        pasv_reply = _ftp_endpoint_line(b"227 Entering Passive Mode (", server, data_port)
        script = [
            ScriptedMessage(0.5, True, b"USER anonymous\r\n"),
            ScriptedMessage(1.0, False, b"331 Anonymous login ok\r\n"),
            ScriptedMessage(1.5, True, b"PASV\r\n"),
            ScriptedMessage(2.0, False, pasv_reply),
            ScriptedMessage(2.5, True, b"RETR somefile.iso\r\n"),
            ScriptedMessage(3.0, False, b"150 Opening BINARY mode data connection\r\n"),
        ]
    else:
        data_port = rng.randint(1024, 5000)
        data_spec = ConnectionSpec(
            app=APP_FTP_DATA,
            start=data_start,
            protocol=IPPROTO_TCP,
            client_addr=host.addr,
            client_port=data_port,
            remote_addr=server,
            remote_port=20,
            initiator=Initiator.REMOTE,
            bytes_remote_to_client=rng.randint(30_000, 700_000),
            duration=max(4.0, duration - 4.0),
            rtt=out_in_delay(rng) * 0.5 + 0.01,
        )
        port_cmd = _ftp_endpoint_line(b"PORT ", host.addr, data_port, trailing=b"\r\n")
        script = [
            ScriptedMessage(0.5, True, b"USER anonymous\r\n"),
            ScriptedMessage(1.0, False, b"331 Anonymous login ok\r\n"),
            ScriptedMessage(1.5, True, port_cmd),
            ScriptedMessage(2.0, False, b"200 PORT command successful\r\n"),
            ScriptedMessage(2.5, True, b"RETR somefile.iso\r\n"),
            ScriptedMessage(3.0, False, b"150 Opening BINARY mode data connection\r\n"),
        ]

    control = ConnectionSpec(
        app=APP_FTP,
        start=start,
        protocol=IPPROTO_TCP,
        client_addr=host.addr,
        client_port=control_port,
        remote_addr=server,
        remote_port=21,
        initiator=Initiator.CLIENT,
        response_payload=ftp_banner(),
        script=script,
        duration=duration,
        rtt=out_in_delay(rng) * 0.5 + 0.01,
    )
    return [control, data_spec]


def _ftp_endpoint_line(prefix: bytes, addr: int, port: int, trailing: bytes = b")\r\n") -> bytes:
    octets = ",".join(str((addr >> shift) & 0xFF) for shift in (24, 16, 8, 0))
    return prefix + f"{octets},{port >> 8},{port & 0xFF}".encode() + trailing


def make_dns(
    rng: random.Random, host: HostModel, addresses: AddressSpace, start: float
) -> List[ConnectionSpec]:
    resolver = addresses.sticky_peers("dns", 2)[0]
    return [
        ConnectionSpec(
            app=APP_DNS,
            start=start,
            protocol=IPPROTO_UDP,
            client_addr=host.addr,
            client_port=rng.randint(1024, 65000),
            remote_addr=resolver,
            remote_port=53,
            initiator=Initiator.CLIENT,
            request_payload=dns_query(rng),
            bytes_remote_to_client=rng.randint(60, 400),
            duration=0.2,
            rtt=0.02,
            udp_exchanges=1,
        )
    ]


def make_other(
    rng: random.Random, host: HostModel, addresses: AddressSpace, start: float
) -> List[ConnectionSpec]:
    """Miscellaneous traditional services (SMTP/SSH/IMAP) on their ports."""
    app, port, request, response = rng.choice(
        [
            (APP_SMTP, 25, b"EHLO client.example\r\n", b"220 mail.example.com ESMTP Postfix\r\n"),
            (APP_SSH, 22, b"SSH-2.0-OpenSSH_4.3\r\n", b"SSH-2.0-OpenSSH_4.2\r\n"),
            (APP_IMAP, 143, b"a001 LOGIN user pass\r\n", b"* OK IMAP4rev1 ready\r\n"),
        ]
    )
    return [
        ConnectionSpec(
            app=app,
            start=start,
            protocol=IPPROTO_TCP,
            client_addr=host.addr,
            client_port=host.ports.allocate(start),
            remote_addr=addresses.random_remote(rng),
            remote_port=port,
            initiator=Initiator.CLIENT,
            request_payload=request,
            response_payload=response,
            bytes_client_to_remote=rng.randint(500, 20_000),
            bytes_remote_to_client=rng.randint(500, 20_000),
            duration=connection_lifetime(rng),
            rtt=out_in_delay(rng) * 0.5 + 0.01,
        )
    ]


def _p2p_transfer_spec(
    rng: random.Random,
    host: HostModel,
    addresses: AddressSpace,
    start: float,
    app: str,
    peer_pool: str,
    listen_ports: Sequence[int],
    request_payload: bytes,
    response_payload: bytes,
    serving_probability: float,
    upload_scale: int,
) -> ConnectionSpec:
    """A P2P TCP transfer: with ``serving_probability`` the remote peer
    initiates and our client *uploads* (the traffic the paper bounds);
    otherwise the client leeches."""
    peer = rng.choice(addresses.sticky_peers(peer_pool, 120))
    duration = connection_lifetime(rng)
    serving = rng.random() < serving_probability
    # Transfers are rate-bound (an upload slot) but go idle on long-lived
    # connections, so bytes scale with lifetime only up to a few minutes —
    # this also keeps the lifetime tail from producing monster flows.
    transfer_bytes = int(min(duration, 240.0) * upload_scale)
    if serving:
        return ConnectionSpec(
            app=app,
            start=start,
            protocol=IPPROTO_TCP,
            client_addr=host.addr,
            client_port=_listen_port(host, rng, app, listen_ports),
            remote_addr=peer,
            remote_port=rng.randint(1024, 65000),
            initiator=Initiator.REMOTE,
            request_payload=request_payload,
            response_payload=response_payload,
            bytes_client_to_remote=int(transfer_bytes * rng.uniform(0.5, 1.5)),
            bytes_remote_to_client=rng.randint(500, 5_000),
            duration=duration,
            rtt=out_in_delay(rng) * 0.5 + 0.01,
            abortive_close=rng.random() < 0.15,
        )
    return ConnectionSpec(
        app=app,
        start=start,
        protocol=IPPROTO_TCP,
        client_addr=host.addr,
        client_port=host.ports.allocate(start),
        remote_addr=peer,
        remote_port=p2p_listen_port(rng, listen_ports, well_known_weight=0.25),
        initiator=Initiator.CLIENT,
        request_payload=request_payload,
        response_payload=response_payload,
        # Leeching peers still upload pieces in return (tit-for-tat), which
        # is the 20 % of upload bytes the paper sees on *outbound*
        # connections.
        bytes_client_to_remote=int(transfer_bytes * rng.uniform(0.3, 0.5)),
        bytes_remote_to_client=int(transfer_bytes * rng.uniform(0.05, 0.2)),
        duration=duration,
        rtt=out_in_delay(rng) * 0.5 + 0.01,
        abortive_close=rng.random() < 0.15,
    )


def make_bittorrent(
    rng: random.Random, host: HostModel, addresses: AddressSpace, start: float
) -> List[ConnectionSpec]:
    """BitTorrent: mostly tiny UDP DHT chatter, some TCP peer transfers."""
    if rng.random() < 0.80:  # DHT ping/query — the UDP connection flood
        remote_first = rng.random() < 0.35
        return [
            ConnectionSpec(
                app=APP_BITTORRENT,
                start=start,
                protocol=IPPROTO_UDP,
                client_addr=host.addr,
                client_port=_listen_port(host, rng, APP_BITTORRENT + "-udp", BITTORRENT_PORTS),
                remote_addr=addresses.random_remote(rng),
                remote_port=rng.randint(1024, 65000),
                initiator=Initiator.REMOTE if remote_first else Initiator.CLIENT,
                request_payload=bittorrent_dht_query(rng),
                response_payload=bittorrent_dht_query(rng),
                bytes_client_to_remote=rng.randint(0, 300),
                bytes_remote_to_client=rng.randint(0, 300),
                duration=rng.uniform(0.2, 3.0),
                rtt=0.05,
                udp_exchanges=rng.randint(1, 3),
            )
        ]
    handshake = bittorrent_handshake(rng)
    return [
        _p2p_transfer_spec(
            rng,
            host,
            addresses,
            start,
            app=APP_BITTORRENT,
            peer_pool="bt-swarm",
            listen_ports=BITTORRENT_PORTS,
            request_payload=handshake,
            response_payload=bittorrent_handshake(rng),
            serving_probability=0.70,
            upload_scale=3_100,  # bytes of upload per second of lifetime
        )
    ]


def make_edonkey(
    rng: random.Random, host: HostModel, addresses: AddressSpace, start: float
) -> List[ConnectionSpec]:
    if rng.random() < 0.72:  # KAD / server-status UDP
        remote_first = rng.random() < 0.35
        return [
            ConnectionSpec(
                app=APP_EDONKEY,
                start=start,
                protocol=IPPROTO_UDP,
                client_addr=host.addr,
                client_port=rng.choice(EDONKEY_UDP_PORTS)
                if rng.random() < 0.5
                else rng.randint(1024, 65000),
                remote_addr=addresses.random_remote(rng),
                remote_port=rng.choice(EDONKEY_UDP_PORTS),
                initiator=Initiator.REMOTE if remote_first else Initiator.CLIENT,
                request_payload=edonkey_udp_ping(rng),
                response_payload=edonkey_udp_ping(rng),
                duration=rng.uniform(0.1, 2.0),
                rtt=0.06,
                udp_exchanges=rng.randint(1, 2),
            )
        ]
    return [
        _p2p_transfer_spec(
            rng,
            host,
            addresses,
            start,
            app=APP_EDONKEY,
            peer_pool="ed2k-peers",
            listen_ports=(EDONKEY_TCP_PORT,),
            request_payload=edonkey_hello(rng),
            response_payload=edonkey_hello(rng),
            serving_probability=0.70,
            upload_scale=7_100,
        )
    ]


def make_gnutella(
    rng: random.Random, host: HostModel, addresses: AddressSpace, start: float
) -> List[ConnectionSpec]:
    if rng.random() < 0.45:  # Gnutella UDP pings
        return [
            ConnectionSpec(
                app=APP_GNUTELLA,
                start=start,
                protocol=IPPROTO_UDP,
                client_addr=host.addr,
                client_port=_listen_port(host, rng, APP_GNUTELLA + "-udp", GNUTELLA_PORTS),
                remote_addr=addresses.random_remote(rng),
                remote_port=rng.randint(1024, 65000),
                initiator=Initiator.CLIENT if rng.random() < 0.6 else Initiator.REMOTE,
                request_payload=gnutella_udp(rng),
                response_payload=gnutella_udp(rng),
                duration=rng.uniform(0.1, 1.5),
                rtt=0.05,
                udp_exchanges=1,
            )
        ]
    return [
        _p2p_transfer_spec(
            rng,
            host,
            addresses,
            start,
            app=APP_GNUTELLA,
            peer_pool="gnutella-peers",
            listen_ports=GNUTELLA_PORTS,
            request_payload=gnutella_connect(),
            response_payload=gnutella_ok(),
            serving_probability=0.70,
            upload_scale=7_400,
        )
    ]


def make_unknown(
    rng: random.Random, host: HostModel, addresses: AddressSpace, start: float
) -> List[ConnectionSpec]:
    """Protocol-encrypted P2P: P2P traffic shape, unidentifiable payloads.

    The paper: "we believe that many of those unidentified connections have
    a high probability to also be peer-to-peer traffic" — port distribution
    close to P2P, heavy upload.
    """
    if rng.random() < 0.55:  # encrypted UDP chatter
        return [
            ConnectionSpec(
                app=APP_UNKNOWN,
                start=start,
                protocol=IPPROTO_UDP,
                client_addr=host.addr,
                client_port=_listen_port(host, rng, APP_UNKNOWN + "-udp", ()),
                remote_addr=addresses.random_remote(rng),
                remote_port=rng.randint(10000, 40000),
                initiator=Initiator.CLIENT if rng.random() < 0.6 else Initiator.REMOTE,
                request_payload=random_encrypted(rng, rng.randint(30, 120)),
                response_payload=random_encrypted(rng, rng.randint(30, 120)),
                duration=rng.uniform(0.2, 2.5),
                rtt=0.05,
                udp_exchanges=rng.randint(1, 3),
            )
        ]
    return [
        _p2p_transfer_spec(
            rng,
            host,
            addresses,
            start,
            app=APP_UNKNOWN,
            peer_pool="mse-peers",
            listen_ports=(),
            request_payload=random_encrypted(rng, 96),
            response_payload=random_encrypted(rng, 96),
            serving_probability=0.72,
            upload_scale=9_800,
        )
    ]


#: The default application factory registry.
APP_FACTORIES: Dict[str, AppFactory] = {
    APP_HTTP: make_http,
    APP_FTP: make_ftp,
    APP_DNS: make_dns,
    APP_OTHER: make_other,
    APP_BITTORRENT: make_bittorrent,
    APP_EDONKEY: make_edonkey,
    APP_GNUTELLA: make_gnutella,
    APP_UNKNOWN: make_unknown,
}
