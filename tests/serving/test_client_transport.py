"""Client transports: every request byte leaves, nothing leaks in flight.

The request API is written once over an I/O-free response accumulator;
what remains per client is the transport.  These tests pin the two
transport duties that are easy to get subtly wrong:

* the blocking client must send *every* byte of a large request — one
  ``sendmsg`` only sends what fits the kernel buffer — without copying
  the caller's bitset;
* the async client must not leave a request the encoder rejected
  registered in flight, where a later ``aclose()`` would fail a future
  nobody awaits ("Future exception was never retrieved").
"""

import asyncio
import gc

import numpy as np
import pytest

from repro.backend.batch import SpikeTrainBatch
from repro.errors import ProtocolError
from repro.logic.correlator import CoincidenceCorrelator
from repro.serving.client import AsyncServingClient, ServingClient
from repro.serving.server import (
    ServerConfig,
    ServerThread,
    build_serving_basis,
)

SMALL = dict(n_samples=4096, basis_size=8, source_isi_samples=16, seed=7)


@pytest.fixture(scope="module")
def basis():
    return build_serving_basis(ServerConfig(**SMALL))


@pytest.fixture(scope="module")
def server():
    with ServerThread(ServerConfig(jobs=1, **SMALL)) as handle:
        yield handle


def _packed_wires(basis, n_wires, seed):
    """A raw packed bitset of basis rows plus its local identify answer."""
    elements = np.random.default_rng(seed).integers(basis.size, size=n_wires)
    packed = basis.as_batch().select_rows(elements).packbits()
    local = CoincidenceCorrelator(basis).identify_batch(
        SpikeTrainBatch.from_packed(packed, basis.grid), missing="none"
    )
    return packed, local


def _assert_identical(reply, local):
    np.testing.assert_array_equal(reply.elements, local.elements)
    np.testing.assert_array_equal(reply.decision_slots, local.decision_slots)
    np.testing.assert_array_equal(
        reply.spikes_inspected, local.spikes_inspected
    )


class _TrickleSocket:
    """A socket whose ``sendmsg`` accepts at most 64 KiB per call.

    Records every buffer it is handed, so the test can check that the
    payload parts are views of the caller's own array (no copy).
    """

    LIMIT = 64 * 1024

    def __init__(self, sock):
        self._sock = sock
        self.calls = 0
        self.buffers = []

    def sendmsg(self, buffers):
        self.calls += 1
        room, accepted = self.LIMIT, []
        for buffer in buffers:
            view = memoryview(buffer)
            self.buffers.append(view)
            accepted.append(view[:room])
            room -= accepted[-1].nbytes
            if not room:
                break
        return self._sock.sendmsg(accepted)

    def __getattr__(self, name):
        return getattr(self._sock, name)


class TestBlockingSend:
    def test_partial_sendmsg_still_sends_the_whole_request(
        self, server, basis
    ):
        packed, local = _packed_wires(basis, 2048, seed=3)  # 1 MiB payload
        with ServingClient(server.host, server.port, timeout=10.0) as client:
            trickle = _TrickleSocket(client._sock)
            client._sock = trickle
            reply = client.identify(packed, basis.grid)
        _assert_identical(reply, local)
        assert trickle.calls >= packed.nbytes // _TrickleSocket.LIMIT
        # Every payload slice handed to the socket views the caller's
        # array itself: resuming a partial send copies nothing.
        payload_views = [
            view for view in trickle.buffers
            if isinstance(view.obj, np.ndarray)
        ]
        assert payload_views
        assert all(view.obj is packed for view in payload_views)

    def test_request_over_16_mib_is_served_bit_identically(
        self, server, basis
    ):
        """Well under the 64 MiB frame cap, far over one kernel send
        buffer: the whole frame must reach the server."""
        packed, local = _packed_wires(basis, 48 * 1024, seed=5)
        assert packed.nbytes > 16 * 1024 * 1024
        with ServingClient(server.host, server.port, timeout=30.0) as client:
            reply = client.identify(packed, basis.grid)
        _assert_identical(reply, local)


class TestAsyncInflight:
    def test_rejected_request_leaves_nothing_to_fail(self, server, basis):
        wires = basis.as_batch().select_rows([0, 1, 2])

        async def run():
            loop = asyncio.get_running_loop()
            recorded = []
            loop.set_exception_handler(
                lambda _loop, context: recorded.append(context)
            )
            client = await AsyncServingClient.open(server.host, server.port)
            try:
                await client.identify(
                    wires, start_slot=basis.grid.n_samples + 1
                )
            except ProtocolError:
                pass
            else:  # pragma: no cover - the encoder must reject it
                raise AssertionError("start_slot past the grid was sent")
            reply = await client.identify(wires)
            await client.aclose()
            del client
            gc.collect()
            await asyncio.sleep(0)
            return recorded, reply

        recorded, reply = asyncio.run(run())
        assert recorded == []
        assert reply.elements.tolist() == [0, 1, 2]

    def test_cancelled_request_does_not_break_its_siblings(self, basis):
        """A caller abandoning its request mid-flight: the request's late
        frames are absorbed and every other request on the connection
        still completes."""
        wires = basis.as_batch().select_rows([0, 1, 2])
        config = ServerConfig(jobs=1, coalesce_window=0.2, **SMALL)
        with ServerThread(config) as handle:

            async def run():
                client = await AsyncServingClient.open(
                    handle.host, handle.port
                )
                try:
                    doomed = asyncio.create_task(client.identify(wires))
                    sibling = asyncio.create_task(client.identify(wires))
                    # Both requests are sent and held in the coalescing
                    # window when the first caller gives up.
                    await asyncio.sleep(0.05)
                    doomed.cancel()
                    reply = await sibling
                    after = await client.identify(wires)
                    return doomed, reply, after
                finally:
                    await client.aclose()

            doomed, reply, after = asyncio.run(run())
        assert doomed.cancelled()
        assert reply.elements.tolist() == [0, 1, 2]
        assert after.elements.tolist() == [0, 1, 2]
