"""Multisets without consecutive values, DUD-free grand-Dyck paths, and
directed lattice animals seen as heaps of dimers: bijections between the
three pictures, their statistics, and exact generating series.

The modules are the API (`heapdyck.bijections`, `heapdyck.heaps`, ...);
the package root exports only the base error and the version.
"""

from .errors import HeapdyckError

__version__ = "0.1.0"

__all__ = ["HeapdyckError", "__version__"]
