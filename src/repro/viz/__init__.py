"""Text visualisation (ASCII rasters) for the figure reproductions."""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "raster": ("render_raster", "render_labelled_rasters"),
    },
)
