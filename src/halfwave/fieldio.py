"""Binary container for lattice fields and spectra.

Layout, all little-endian: 8-byte magic, uint64 version, int64 N,
float64 L, int64 M, float64 T, one representation flag byte, then the
complex samples as interleaved float64 pairs in row-major lattice order.
M = 0 marks a spatial-only object (no time axis).
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import FieldLoadError, ParameterError
from .grid import Field, SpacetimeField, SpacetimeGrid, SpatialGrid, Spectrum, SpacetimeSpectrum

__all__ = ["write_field", "read_field", "MAGIC", "VERSION"]

MAGIC = b"HWLATT\x00\x00"
VERSION = 1

_HEADER = struct.Struct("<8sQqdqdB")

_FLAGS = {
    (False, False): 0,  # Field
    (False, True): 1,   # Spectrum
    (True, False): 2,   # SpacetimeField
    (True, True): 3,    # SpacetimeSpectrum
}
_CLASSES = {0: Field, 1: Spectrum, 2: SpacetimeField, 3: SpacetimeSpectrum}


def write_field(path, obj) -> None:
    """Serialize a lattice object; the grid travels in the header."""
    spacetime = bool(getattr(obj, "is_spacetime", False))
    if spacetime:
        g = obj.grid
        n, L, m, T = g.spatial.n, g.spatial.half_length, g.m, g.half_time
    else:
        sg = obj.grid
        n, L, m, T = sg.n, sg.half_length, 0, 0.0
    flag = _FLAGS[(spacetime, obj.is_frequency)]
    payload = np.ascontiguousarray(obj.data, dtype="<c16")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, n, L, m, T, flag))
        fh.write(payload.tobytes())


def read_field(path):
    """Load a lattice object, validating magic, version, lattice and sample count."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise FieldLoadError(
                f"truncated header: got {len(header)} bytes, need {_HEADER.size}"
            )
        magic, version, n, L, m, T, flag = _HEADER.unpack(header)
        if magic != MAGIC:
            raise FieldLoadError(f"bad magic {magic!r}")
        if version != VERSION:
            raise FieldLoadError(f"unsupported container version {version}")
        if flag not in _CLASSES:
            raise FieldLoadError(f"unknown representation flag {flag}")
        if flag < 2 and m != 0:
            raise FieldLoadError(f"spatial-only flag {flag} with M={m}")
        try:
            grid = SpatialGrid(n, L)
            if flag >= 2:
                grid = SpacetimeGrid(grid, m, T)
        except ParameterError as e:
            raise FieldLoadError(f"invalid lattice descriptor N={n}, L={L}, M={m}, T={T}: {e}")
        shape = grid.shape
        count = math.prod(shape)    # exact: an int64 product wraps for a huge N
        raw = fh.read()
        expected = 16 * count
        if len(raw) != expected:
            raise FieldLoadError(
                f"payload has {len(raw)} bytes, expected {expected} "
                f"({count} complex samples)"
            )
        data = np.frombuffer(raw, dtype="<c16").reshape(shape)
        return _CLASSES[flag](grid, data.astype(np.complex128))
