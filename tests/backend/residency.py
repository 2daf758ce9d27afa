"""The same wires rebuilt in each residency a batch can hold.

A :class:`~repro.backend.SpikeTrainBatch` routes each operation by
which representations it holds, so the backend tests drive every path
by rebuilding one batch in each residency rather than by pinning a
backend.
"""

from repro.backend import SpikeTrainBatch


def csr_only(batch):
    """The same rows holding only their CSR (no raster, no words)."""
    values, ptr = batch.csr()
    return SpikeTrainBatch(values, ptr, batch.grid)


def raster_resident(batch):
    """The same rows built dense: raster plus the CSR it implies."""
    return SpikeTrainBatch.from_raster(batch.raster, batch.grid)


def packed_primary(batch):
    """The same rows holding only their packed words."""
    return SpikeTrainBatch.from_packed(batch.packbits(), batch.grid)


RESIDENCIES = {
    "csr": csr_only,
    "raster": raster_resident,
    "packed": packed_primary,
}
