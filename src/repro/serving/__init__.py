"""Serving layer: the packed-bitset RPC boundary over the shard pool.

The top of the stack documented in ``docs/architecture.md``:
:mod:`~repro.serving.protocol` defines the binary frame format
(protocol version 5, the only one served) whose request payload is
the ``np.packbits`` bitset itself,
:mod:`~repro.serving.server` accepts those frames over asyncio TCP and
dispatches per-request ``(handle, row_range)`` shards over itself and
the :class:`~repro.pipeline.runner.Runner`'s persistent pool through
per-request :class:`~repro.backend.shared.SharedArena` exports,
:mod:`~repro.serving.dispatch` executes each shard on the mapped
bitset with the packed kernels, and :mod:`~repro.serving.client` is
the reference consumer.  End to end, a request's spike data exists
only in packed form — wire, arena and compute are the same bytes.

``repro serve`` (the CLI) runs :func:`~repro.serving.server.serve_forever`.
"""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "server": (
            "ServerConfig",
            "SpikeServer",
            "ServerThread",
            "build_serving_basis",
            "serve_forever",
        ),
        "client": ("ServingClient", "IdentifyReply", "MembershipReply"),
        "protocol": ("PROTOCOL_VERSION", "FrameReader"),
    },
)
