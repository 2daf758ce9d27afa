"""Pipelined async clients against a coalescing ``repro serve`` process.

Three :class:`~repro.serving.client.AsyncServingClient` connections
carry twelve streams of five identify requests to a ``repro serve``
subprocess started with a 2 ms coalescing window, so pipelined frames
from several connections arrive through the server's receive path at
once.  Every reply must name its own wires' basis elements with no
raster resident, the coalescer must merge the requests into fewer
batches than requests, and the server must exit 0 on SIGTERM.  The
in-process equivalents (``test_concurrent.py``) run a ``ServerThread``;
this one runs the CLI with its own flags, as CI's concurrent smoke
does.
"""

import asyncio
import os

import numpy as np
import pytest

from repro.serving.client import AsyncServingClient
from repro.serving.server import ServerConfig, build_serving_basis

from .live_server import LiveServer

COALESCING = ("--coalesce-window-ms", "2", "--coalesce-max-wires", "64")

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/proc"), reason="needs /proc"
)


def test_pipelined_clients_coalesce_on_a_live_server(tmp_path):
    batch = build_serving_basis(
        ServerConfig(n_samples=4096, basis_size=8)
    ).as_batch()
    rng = np.random.default_rng(7)
    streams = [rng.integers(0, 8, size=4) for _ in range(12)]

    async def stream(client, rows):
        wires = batch.select_rows(rows)
        for _ in range(5):
            reply = await client.identify(wires)
            assert reply.elements.tolist() == rows.tolist(), (
                reply.elements, rows
            )
            assert reply.summary["server_residency"]["raster"] is False

    async def main(port):
        clients = [
            await AsyncServingClient.open("127.0.0.1", port)
            for _ in range(3)
        ]
        try:
            await asyncio.gather(*[
                stream(clients[i % 3], rows)
                for i, rows in enumerate(streams)
            ])
            return await clients[0].stats()
        finally:
            for client in clients:
                await client.aclose()

    with LiveServer(tmp_path, *COALESCING) as server:
        stats = asyncio.run(main(server.port))
        assert stats["coalesced_batches"] > 0, stats
        assert stats["coalesced_batches"] < stats["coalesced_requests"], stats
        assert server.stop() == 0, server.stderr()
