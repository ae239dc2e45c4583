"""Binary field container: roundtrips and corruption handling."""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from halfwave.errors import FieldLoadError
from halfwave.fieldio import MAGIC, read_field, write_field
from halfwave.grid import (
    Field,
    SpacetimeField,
    SpacetimeGrid,
    SpacetimeSpectrum,
    SpatialGrid,
    Spectrum,
)


@pytest.fixture
def sg():
    return SpatialGrid(8, np.pi)


@pytest.fixture
def stg(sg):
    return SpacetimeGrid(sg, 4, 2.0)


def _rand(shape, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("cls", [Field, Spectrum])
def test_spatial_roundtrip_bit_exact(tmp_path, sg, cls):
    obj = cls(sg, _rand(sg.shape))
    path = tmp_path / "field.hw"
    write_field(path, obj)
    back = read_field(path)
    assert type(back) is cls
    assert back.grid == sg
    assert np.array_equal(back.data, obj.data)


@pytest.mark.parametrize("cls", [SpacetimeField, SpacetimeSpectrum])
def test_spacetime_roundtrip_bit_exact(tmp_path, stg, cls):
    obj = cls(stg, _rand((stg.m,) + stg.spatial.shape))
    path = tmp_path / "field.hw"
    write_field(path, obj)
    back = read_field(path)
    assert type(back) is cls
    assert back.grid == stg
    assert np.array_equal(back.data, obj.data)


def test_wrong_magic(tmp_path, sg):
    path = tmp_path / "field.hw"
    write_field(path, Field(sg, _rand(sg.shape)))
    raw = bytearray(path.read_bytes())
    raw[:2] = b"ZZ"
    path.write_bytes(bytes(raw))
    with pytest.raises(FieldLoadError, match="magic"):
        read_field(path)


def test_wrong_version(tmp_path, sg):
    path = tmp_path / "field.hw"
    write_field(path, Field(sg, _rand(sg.shape)))
    raw = bytearray(path.read_bytes())
    raw[8:16] = struct.pack("<Q", 99)
    path.write_bytes(bytes(raw))
    with pytest.raises(FieldLoadError, match="version"):
        read_field(path)


def test_truncated_header(tmp_path):
    path = tmp_path / "field.hw"
    path.write_bytes(MAGIC)
    with pytest.raises(FieldLoadError, match="truncated header"):
        read_field(path)


def test_truncated_payload_reports_bytes(tmp_path, sg):
    path = tmp_path / "field.hw"
    write_field(path, Field(sg, _rand(sg.shape)))
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 128])
    with pytest.raises(FieldLoadError, match="bytes"):
        read_field(path)


def test_bad_grid_descriptor(tmp_path, sg):
    path = tmp_path / "field.hw"
    write_field(path, Field(sg, _rand(sg.shape)))
    raw = bytearray(path.read_bytes())
    raw[16:24] = struct.pack("<q", -4)  # negative N
    path.write_bytes(bytes(raw))
    with pytest.raises(FieldLoadError, match="descriptor"):
        read_field(path)


def _set(path, offset, fmt, value):
    raw = bytearray(path.read_bytes())
    raw[offset:offset + struct.calcsize(fmt)] = struct.pack(fmt, value)
    path.write_bytes(bytes(raw))


@pytest.mark.parametrize("offset, fmt, value", [
    (24, "<d", np.nan), (24, "<d", np.inf), (24, "<d", -np.inf), (16, "<q", 2),
    (40, "<d", np.nan), (40, "<d", np.inf), (32, "<q", 2),
])
def test_non_finite_or_small_lattice_rejected(tmp_path, stg, offset, fmt, value):
    """A NaN or infinite L or T, or N = 2 or M = 2, is a load error, not a
    grid with a NaN step or a parameter error."""
    path = tmp_path / "field.hw"
    write_field(path, SpacetimeSpectrum(stg, _rand(stg.shape)))
    _set(path, offset, fmt, value)
    with pytest.raises(FieldLoadError, match="descriptor"):
        read_field(path)


def test_huge_lattice_is_a_payload_error(tmp_path, sg):
    """N^3 for N = 2^62 wraps to 0 in int64; the sample count must not."""
    path = tmp_path / "field.hw"
    write_field(path, Spectrum(sg, _rand(sg.shape)))
    path.write_bytes(path.read_bytes()[:49])
    _set(path, 16, "<q", 2**62)
    with pytest.raises(FieldLoadError, match="bytes"):
        read_field(path)


_CONTAINERS = st.tuples(
    st.integers(2, 4).map(lambda k: 2 * k),
    st.floats(0.1, 100.0),
    st.one_of(st.just(0), st.integers(2, 4).map(lambda k: 2 * k)),
    st.floats(0.1, 100.0),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)


def _container(n, L, m, T, frequency, seed):
    sg = SpatialGrid(n, L)
    if m == 0:
        cls = Spectrum if frequency else Field
        return cls(sg, _rand(sg.shape, seed))
    g = SpacetimeGrid(sg, m, T)
    cls = SpacetimeSpectrum if frequency else SpacetimeField
    return cls(g, _rand(g.shape, seed))


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(spec=_CONTAINERS)
def test_roundtrip_random_lattices(tmp_path, spec):
    obj = _container(*spec)
    path = tmp_path / "field.hw"
    write_field(path, obj)
    back = read_field(path)
    assert type(back) is type(obj) and back.grid == obj.grid
    assert np.array_equal(back.data, obj.data)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(spec=_CONTAINERS, cut=st.floats(0.0, 1.0, exclude_max=True))
def test_truncation_at_random_byte_counts(tmp_path, spec, cut):
    """Every proper prefix of a container is a load error."""
    path = tmp_path / "field.hw"
    write_field(path, _container(*spec))
    raw = path.read_bytes()
    path.write_bytes(raw[: int(cut * len(raw))])
    with pytest.raises(FieldLoadError, match="truncated header|bytes"):
        read_field(path)
