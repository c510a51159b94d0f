"""A large TCP connection's numpy columns against the stdlib rows.

``tcp_columns(spec, seed)`` must give, after a stable timestamp sort,
exactly ``connection_rows(spec, random.Random(seed))``, with payloads in
the order the sorted rows present them.  One level up, a materialized
batch must hold the same rows, in the same merge order, with the same
payload list, whichever builder each connection took and with numpy on
or off.  Without numpy only the stdlib batch check runs.
"""

import random
from contextlib import contextmanager
from itertools import chain

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.net.table as table_mod
import repro.workload.parallel as parallel_mod
from repro.net.inet import IPPROTO_TCP, IPPROTO_UDP
from repro.workload.apps import (
    ConnectionSpec,
    Initiator,
    ScriptedMessage,
    connection_rows,
    tcp_columns,
)
from repro.workload.parallel import _materialize_batch

needs_numpy = pytest.mark.skipif(not table_mod.HAVE_NUMPY,
                                 reason="numpy not installed")

payloads = st.binary(min_size=0, max_size=12)
#: Seeds of one 32-bit word take the state copy, larger ones the array seed.
seeds = st.one_of(st.integers(0, 2 ** 32 - 1), st.integers(2 ** 32, 2 ** 64 - 1),
                  st.integers(2 ** 64, 2 ** 80))


@st.composite
def volumes(draw, mean):
    chunk = max(1, min(mean, 1460))
    return draw(st.one_of(
        st.just(0),
        st.integers(1, 4000),
        # Just above and below a multiple of the chunk size.
        st.builds(lambda k, d: max(0, k * chunk + d),
                  st.integers(1, 300), st.sampled_from([-1, 0, 1])),
        st.integers(0, 400_000),
    ))


@st.composite
def tcp_specs(draw, protocol=IPPROTO_TCP):
    rtt = draw(st.floats(0.001, 0.5))
    # Durations shorter than one RTT push close_start past the data start.
    duration = draw(st.one_of(st.floats(0.0005, rtt), st.floats(0.01, 900.0)))
    mean = draw(st.one_of(st.integers(1, 2), st.integers(3, 1460),
                          st.integers(1461, 5000)))
    script = draw(st.lists(st.builds(
        ScriptedMessage,
        # Offsets past the close clamp to close_start - rtt / 2.
        offset=st.floats(0.0, 2 * duration + 5.0),
        from_initiator=st.booleans(),
        payload=payloads,
    ), max_size=4))
    return ConnectionSpec(
        app="unknown",
        start=draw(st.floats(0.0, 1000.0)),
        protocol=protocol,
        client_addr=0x0A010001,
        client_port=draw(st.integers(1024, 65535)),
        remote_addr=0x08080808,
        remote_port=draw(st.integers(1, 65535)),
        initiator=draw(st.sampled_from(list(Initiator))),
        request_payload=draw(payloads),
        response_payload=draw(payloads),
        bytes_client_to_remote=draw(volumes(mean)),
        bytes_remote_to_client=draw(volumes(mean)),
        duration=duration,
        rtt=rtt,
        mean_packet=mean,
        script=script,
        udp_exchanges=draw(st.integers(1, 3)),
        abortive_close=draw(st.booleans()),
    )


def spec(**fields):
    base = dict(app="unknown", start=10.0, protocol=IPPROTO_TCP,
                client_addr=0x0A010001, client_port=40000,
                remote_addr=0x08080808, remote_port=6881,
                initiator=Initiator.CLIENT)
    base.update(fields)
    return ConnectionSpec(**base)


#: Two rows on one timestamp: the request and a message at offset 0.
SAME_TIME = spec(request_payload=b"req", script=[ScriptedMessage(0.0, False, b"zero")],
                 bytes_remote_to_client=30_000, duration=20.0, rtt=0.1)
#: A message due before the response: payloads in time, not append, order.
EARLY_MESSAGE = spec(request_payload=b"req", response_payload=b"resp",
                     script=[ScriptedMessage(0.01, True, b"early")],
                     bytes_client_to_remote=200_000, duration=60.0, rtt=0.2)
#: Many chunks in a short span: the ``gap * 1.8`` cap binds.
DENSE = spec(bytes_client_to_remote=150_000, bytes_remote_to_client=90_000,
             duration=1.0, rtt=0.01, abortive_close=True)


def rows_of(columns):
    """The columns as rows, stable-sorted by timestamp."""
    payload_at = dict(columns.payloads)
    ts = columns.timestamps.tolist()
    order = sorted(range(len(ts)), key=ts.__getitem__)
    return [
        (ts[row], bool(columns.from_client[row]), int(columns.sizes[row]),
         int(columns.flags[row]), payload_at.get(row, b""))
        for row in order
    ]


def stdlib_rows(connection, seed):
    return [(ts, from_client, size, int(flags), payload)
            for ts, from_client, size, flags, payload
            in connection_rows(connection, random.Random(seed))]


@needs_numpy
class TestTcpColumns:
    @settings(max_examples=300, deadline=None)
    @given(connection=tcp_specs(), seed=seeds)
    @example(connection=SAME_TIME, seed=2 ** 40 + 3)
    @example(connection=EARLY_MESSAGE, seed=2 ** 33)
    @example(connection=DENSE, seed=2 ** 50 + 11)
    @example(connection=DENSE, seed=5)
    @example(connection=DENSE, seed=2 ** 32 - 1)
    def test_columns_equal_stdlib_rows(self, connection, seed):
        columns = tcp_columns(connection, seed)
        expected = stdlib_rows(connection, seed)
        assert rows_of(columns) == expected
        assert [payload for _, payload in columns.payloads] == [
            row[4] for row in expected if row[4]]

    def test_examples_reach_their_cases(self):
        same = stdlib_rows(SAME_TIME, 2 ** 40 + 3)
        times = [row[0] for row in same if row[4]]
        assert len(times) == 2 and times[0] == times[1]
        early = [row[4] for row in stdlib_rows(EARLY_MESSAGE, 2 ** 33) if row[4]]
        assert early == [b"req", b"early", b"resp"]


@contextmanager
def materializer(use_numpy, column_rows):
    saved = table_mod._use_numpy, parallel_mod.COLUMN_ROWS
    table_mod._use_numpy = use_numpy
    parallel_mod.COLUMN_ROWS = column_rows
    try:
        yield
    finally:
        table_mod._use_numpy, parallel_mod.COLUMN_ROWS = saved


def merged(batch):
    """A batch as the merge sees it: rows stable-sorted by timestamp, each
    with its payload, plus the payload list and the per-spec counts."""
    def flat(column):
        if isinstance(column, list):
            return list(chain.from_iterable(column))
        return column.tolist()

    ts, ob, sz, fl = (flat(column) for column in (batch.ts, batch.ob, batch.sz, batch.fl))
    assert len(ts) == len(ob) == len(sz) == len(fl) == sum(batch.counts)
    payload_at = dict(zip(batch.payload_rows, batch.payloads))
    order = sorted(range(len(ts)), key=ts.__getitem__)
    rows = [(ts[row], bool(ob[row]), sz[row], int(fl[row]), payload_at.get(row, b""))
            for row in order]
    return rows, list(batch.payloads), list(batch.counts)


def reference(task):
    """The batch expanded spec by spec through the stdlib rows."""
    seed, base, specs = task
    rows = []
    counts = []
    for index, connection in enumerate(specs, base):
        spec_rows = stdlib_rows(connection, parallel_mod.derive_seed(seed, index))
        counts.append(len(spec_rows))
        rows += spec_rows
    payload_list = [row[4] for row in rows if row[4]]
    return sorted(rows, key=lambda row: row[0]), payload_list, counts


batches = st.tuples(
    st.integers(0, 2 ** 64 - 1),
    st.integers(0, 10_000),
    st.lists(st.one_of(tcp_specs(), tcp_specs(protocol=IPPROTO_UDP)),
             min_size=1, max_size=4),
)
#: Two connections starting together: rows of both on one timestamp.
TWIN_START = (7, 3, [
    spec(request_payload=b"a", bytes_client_to_remote=120_000, duration=30.0),
    spec(client_port=40001, request_payload=b"b",
         bytes_remote_to_client=90_000, duration=30.0),
])


class TestBatch:
    @settings(max_examples=60, deadline=None)
    @given(task=batches)
    @example(task=TWIN_START)
    def test_stdlib_batch_matches_spec_by_spec(self, task):
        with materializer(False, parallel_mod.COLUMN_ROWS):
            assert merged(_materialize_batch(*task)) == reference(task)

    @needs_numpy
    @settings(max_examples=60, deadline=None)
    @given(task=batches, column_rows=st.sampled_from([0, parallel_mod.COLUMN_ROWS]))
    @example(task=TWIN_START, column_rows=0)
    def test_numpy_batch_matches_stdlib_batch(self, task, column_rows):
        with materializer(False, column_rows):
            stdlib = merged(_materialize_batch(*task))
        with materializer(True, column_rows):
            columnar = merged(_materialize_batch(*task))
        assert columnar == stdlib == reference(task)

    def test_twin_start_shares_a_timestamp(self):
        first, second = TWIN_START[2]
        assert first.start == second.start
