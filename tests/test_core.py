import math
import struct

import numpy as np
import pytest

from katolab.core import (Annulus, Ball, Field, FieldFormatError, GaussianRecipe,
                          Grid, KnappRecipe, RandomBandlimited, Sector,
                          SpacetimeField, dft, dft_batch, idft, make_field,
                          read_field, read_packets, read_spacetime, stack_rows,
                          write_field, write_packets, write_spacetime)


def parseval_defect(f):
    return abs(f.l2() - dft(f).l2_freq()) / f.l2()


def random_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    return Field(grid, rng.standard_normal(grid.shape)
                 + 1j * rng.standard_normal(grid.shape))


def test_grid_invariants():
    with pytest.raises(ValueError):
        Grid(1, 7, 10.0)  # odd
    with pytest.raises(ValueError):
        Grid(1, 4, 10.0)  # too small
    with pytest.raises(ValueError):
        Grid(1, 64, -1.0)
    for L in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            Grid(1, 64, L)
    g = Grid(2, 16, 8.0)
    xi = g.xi_axis()
    # symmetric about zero except the lone Nyquist node
    assert np.isclose(xi.min(), -g.nyquist)
    pos = np.sort(xi[xi > 0])
    neg = np.sort(-xi[xi < -pos.max() - 1e-12])
    assert len(xi[xi < 0]) == len(xi[xi > 0]) + 1


def test_roundtrip_and_parseval():
    g = Grid(1, 256, 64.0)
    for seed in range(5):
        f = random_field(g, seed)
        rt = idft(dft(f))
        assert np.max(np.abs(rt.values - f.values)) <= 1e-12 * np.max(np.abs(f.values))
        assert parseval_defect(f) <= 1e-12


@pytest.mark.parametrize("g", [Grid(1, 1024, 128.0), Grid(2, 32, 16.0)], ids=["1d", "2d"])
def test_dft_batch_rows_match_single_transforms(g):
    # one full stack and a short one, and a stack with two leading axes:
    # each row bit for bit as one dft of its own field
    rng = np.random.default_rng(2)
    for lead in ((stack_rows(g),), (5,), (3, 4)):
        values = (rng.standard_normal(lead + g.shape)
                  + 1j * rng.standard_normal(lead + g.shape))
        batched = dft_batch(g, values)
        assert batched.shape == values.shape
        for row, field in zip(batched.reshape((-1,) + g.shape),
                              values.reshape((-1,) + g.shape)):
            assert row.tobytes() == dft(Field(g, field)).values.tobytes()


def test_parseval_many_random():
    g = Grid(1, 128, 32.0)
    worst = max(parseval_defect(random_field(g, s)) for s in range(100))
    assert worst <= 1e-12


def test_constant_field_mass_at_zero():
    g = Grid(1, 64, 16.0)
    fhat = dft(Field(g, np.ones(g.shape, dtype=complex)))
    mags = np.abs(fhat.values)
    assert np.argmax(mags) == 0  # zero node first in fft order
    assert np.sum(mags > 1e-9 * mags.max()) == 1


def test_plane_wave_single_node():
    g = Grid(1, 128, 32.0)
    k0 = 9
    xi0 = g.xi_axis()[k0]
    fhat = dft(Field(g, np.exp(1j * g.x_axis() * xi0)))
    mags = np.abs(fhat.values)
    assert np.argmax(mags) == k0
    others = np.delete(mags, k0)
    assert np.max(others) <= 1e-10 * mags[k0]


def test_translation_is_phase():
    g = Grid(1, 128, 32.0)
    f = random_field(g, 3)
    shift = 5
    rolled = Field(g, np.roll(f.values, shift))
    a = g.dx * shift
    lhs = dft(rolled).values
    rhs = np.exp(-1j * a * g.xi_axis()) * dft(f).values
    assert np.max(np.abs(lhs - rhs)) <= 1e-10 * np.max(np.abs(rhs))


def test_gaussian_recipe():
    g = Grid(1, 256, 32.0)
    f = make_field(g, GaussianRecipe(center=(0.0,), width=1.0))
    assert np.all(f.values.real > 0)
    assert np.max(np.abs(f.values.imag)) == 0
    assert abs(g.x_axis()[np.argmax(f.values.real)]) <= g.dx


@pytest.mark.parametrize("n, center", [(1, (0.0, 1.0)), (2, (0.0,))])
def test_gaussian_centre_of_another_dimension_is_refused(n, center):
    # zip would drop a coordinate, or broadcast one axis against the grid
    with pytest.raises(ValueError, match=f"key 'center': a centre of dimension {len(center)} "
                                         f"on a grid of dimension {n}"):
        make_field(Grid(n, 64, 32.0), GaussianRecipe(center=center))


def test_random_bandlimited_deterministic():
    g = Grid(1, 256, 64.0)
    a = make_field(g, RandomBandlimited(Sector(), seed=7))
    b = make_field(g, RandomBandlimited(Sector(), seed=7))
    assert np.array_equal(a.values, b.values)
    c = make_field(g, RandomBandlimited(Sector(), seed=8))
    assert not np.array_equal(a.values, c.values)


def test_knapp_mass_inside_sector():
    g = Grid(1, 1024, 128.0)
    f = make_field(g, KnappRecipe(R=16))
    fhat = dft(f)
    mask = Sector().contains(g.xi_mesh())
    total = np.sum(np.abs(fhat.values) ** 2)
    inside = np.sum(np.abs(fhat.values) ** 2 * mask)
    assert inside / total >= 0.999


def test_annulus_region():
    g = Grid(1, 256, 64.0)
    f = make_field(g, RandomBandlimited(Annulus(0.5, 2.0), seed=1))
    fhat = dft(f)
    rho = np.abs(g.xi_axis())
    outside = (rho < 0.5) | (rho > 2.0)
    assert np.max(np.abs(fhat.values[outside])) <= 1e-10


def test_ball_centre_must_match_the_grid_dimension():
    # zip would cut a longer centre or leave axes out of a shorter one (a
    # 1-D centre on a 2-D grid bounds one axis: a slab, not a disc)
    g = Grid(2, 32, 16.0)
    for center in ((0.0,), (0.0, 0.0, 0.0)):
        with pytest.raises(ValueError, match=f"dimension {len(center)} on a grid of dimension 2"):
            Ball(center=center, radius=2.0).contains(g.x_mesh())
    # the random recipe's region (random:region=ball;c;r) has a 1-D centre
    with pytest.raises(ValueError, match="dimension 1 on a grid of dimension 2"):
        make_field(g, RandomBandlimited(Ball(center=(1.0,), radius=0.5), seed=0))
    x, y = g.x_mesh()
    disc = Ball(center=(0.0, 1.0), radius=2.0).contains([x, y])
    assert np.array_equal(disc, x**2 + (y - 1.0) ** 2 < 4.0) and 0 < disc.sum() < 32**2


def test_field_file_roundtrip_bit_exact(tmp_path):
    g = Grid(1, 64, 16.0)
    f = random_field(g, 11)
    p = tmp_path / "f.kslf"
    write_field(f, str(p))
    f2 = read_field(str(p))
    assert f2.grid == g
    assert np.array_equal(f.values, f2.values)
    # bit-exact: a second write produces identical bytes
    p2 = tmp_path / "g.kslf"
    write_field(f2, str(p2))
    assert p.read_bytes() == p2.read_bytes()


def test_spacetime_file_roundtrip_bit_exact(tmp_path):
    g = Grid(2, 8, 4.0)
    times = 0.25 + 0.5 * np.arange(3)
    rng = np.random.default_rng(9)
    slab = rng.standard_normal((3, 8, 8)) + 1j * rng.standard_normal((3, 8, 8))
    p = tmp_path / "u.kslt"
    write_spacetime(SpacetimeField(g, times, slab), str(p))
    inter = np.stack([slab.real.ravel(), slab.imag.ravel()], axis=1)
    assert p.read_bytes() == (b"KSLT" + struct.pack("<I", 1)
                              + struct.pack("<dddd", 2.0, 8.0, 4.0, 3.0)
                              + times.astype("<f8").tobytes()
                              + inter.astype("<f8").tobytes())
    u = read_spacetime(str(p))
    assert u.grid == g
    assert np.array_equal(u.times, times) and np.array_equal(u.slices, slab)
    p2 = tmp_path / "v.kslt"
    write_spacetime(u, str(p2))
    assert p.read_bytes() == p2.read_bytes()


def test_files_keep_signed_zeros_and_non_finite_parts(tmp_path):
    # every sample comes back with the bits it was written with
    g = Grid(1, 8, 4.0)
    special = np.array([complex(-0.0, 1.0), complex(1.0, math.inf), complex(-math.inf, -0.0),
                        complex(math.nan, 2.0), complex(0.0, -0.0), complex(3.0, math.nan),
                        complex(-0.0, -0.0), complex(math.inf, math.inf)])
    p = tmp_path / "s.kslf"
    write_field(Field(g, special), str(p))
    assert read_field(str(p)).values.tobytes() == special.astype("<c16").tobytes()
    slab = np.stack([special, special[::-1]])
    p = tmp_path / "s.kslt"
    write_spacetime(SpacetimeField(g, np.array([0.0, 1.0]), slab), str(p))
    assert read_spacetime(str(p)).slices.tobytes() == slab.astype("<c16").tobytes()


def test_field_file_errors(tmp_path):
    p = tmp_path / "bad.kslf"
    p.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(FieldFormatError) as exc:
        read_field(str(p))
    assert exc.value.offset == 0

    g = Grid(1, 16, 4.0)
    good = tmp_path / "ok.kslf"
    write_field(random_field(g), str(good))
    raw = good.read_bytes()
    trunc = tmp_path / "trunc.kslf"
    for end in range(len(raw)):
        trunc.write_bytes(raw[:end])
        with pytest.raises(FieldFormatError) as exc:
            read_field(str(trunc))
        assert 0 <= exc.value.offset <= end


def _written_spacetime(tmp_path) -> bytes:
    g = Grid(1, 8, 4.0)
    times = np.linspace(0.0, 1.0, 3)
    rng = np.random.default_rng(5)
    slab = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
    p = tmp_path / "u.kslt"
    write_spacetime(SpacetimeField(g, times, slab), str(p))
    return p.read_bytes()


def test_spacetime_file_truncated_anywhere_in_header(tmp_path):
    raw = _written_spacetime(tmp_path)
    p = tmp_path / "trunc.kslt"
    for end in range(0, 40 + 8 * 3 + 1):  # magic .. slice count, then times
        p.write_bytes(raw[:end])
        with pytest.raises(FieldFormatError) as exc:
            read_spacetime(str(p))
        assert 0 <= exc.value.offset <= end, (end, exc.value)


@pytest.mark.parametrize("count", [-3.0, 2.5, 0.0, float("nan"), float("inf")])
def test_spacetime_file_bad_slice_count(tmp_path, count):
    raw = bytearray(_written_spacetime(tmp_path))
    raw[32:40] = struct.pack("<d", count)
    p = tmp_path / "bad.kslt"
    p.write_bytes(bytes(raw))
    with pytest.raises(FieldFormatError) as exc:
        read_spacetime(str(p))
    assert exc.value.offset == 32


def test_spacetime_file_bad_time_axis(tmp_path):
    raw = bytearray(_written_spacetime(tmp_path))
    raw[48:56] = struct.pack("<d", 5.0)  # second time after the third
    p = tmp_path / "bad.kslt"
    p.write_bytes(bytes(raw))
    with pytest.raises(FieldFormatError) as exc:
        read_spacetime(str(p))
    assert exc.value.offset == 40


@pytest.mark.parametrize("pos,value", [(0, -math.inf), (1, math.nan), (2, math.inf)])
def test_spacetime_file_non_finite_times(tmp_path, pos, value):
    raw = bytearray(_written_spacetime(tmp_path))
    raw[40 + 8 * pos:48 + 8 * pos] = struct.pack("<d", value)
    p = tmp_path / "bad.kslt"
    p.write_bytes(bytes(raw))
    with pytest.raises(FieldFormatError) as exc:
        read_spacetime(str(p))
    assert exc.value.offset == 40


# L = 65536 is 0x40F0000000000000: writing 0x7F over its top byte makes it inf
CORRUPT_L = 65536.0
CORRUPT_BYTES = (0x00, 0x01, 0x40, 0x7F, 0x80, 0xF0, 0xFF)


def _corrupt_header(tmp_path, raw: bytes, header: int, read) -> list:
    """Overwrite each header byte with each of CORRUPT_BYTES and read back.
    Each case raises FieldFormatError with an offset inside the file or
    reads back a well-formed grid; returns the grids read back."""
    p = tmp_path / "corrupt"
    grids = []
    for pos in range(header):
        for byte in CORRUPT_BYTES:
            bad = bytearray(raw)
            bad[pos] = byte
            p.write_bytes(bytes(bad))
            try:
                g = read(str(p))
            except FieldFormatError as exc:
                assert 0 <= exc.offset <= len(bad), (pos, byte, exc)
                continue
            assert math.isfinite(g.L) and g.L > 0 and math.isfinite(g.dx), (pos, byte, g)
            grids.append(g)
    return grids


def test_field_file_header_corruption(tmp_path):
    g = Grid(1, 16, CORRUPT_L)
    p = tmp_path / "f.kslf"
    write_field(random_field(g, 3), str(p))

    def read(path):
        f = read_field(path)
        assert f.values.shape == f.grid.shape
        return f.grid

    assert g in _corrupt_header(tmp_path, p.read_bytes(), 32, read)


def test_spacetime_file_header_corruption(tmp_path):
    g = Grid(1, 8, CORRUPT_L)
    times = np.linspace(0.0, 1.0, 3)
    slab = np.random.default_rng(4).standard_normal((3, 8)) + 0j
    p = tmp_path / "u.kslt"
    write_spacetime(SpacetimeField(g, times, slab), str(p))

    def read(path):
        u = read_spacetime(path)
        assert np.all(np.isfinite(u.times)) and np.all(np.diff(u.times) > 0)
        assert u.slices.shape == (len(u.times),) + u.grid.shape
        return u.grid

    # the header runs through the slice count and the three times
    assert g in _corrupt_header(tmp_path, p.read_bytes(), 40 + 8 * 3, read)


def _packet_rows(g, count, seed=2):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
            for _ in range(count)]


def _written_packets(tmp_path, g=None, count=3) -> bytes:
    g = g or Grid(1, 8, 4.0)
    p = tmp_path / "p.kslp"
    write_packets(g, count, iter(_packet_rows(g, count)), str(p))
    return p.read_bytes()


def test_packet_stack_roundtrip_bit_exact(tmp_path):
    # the rows are streamed from a generator, one packet per row
    g = Grid(2, 8, 4.0)
    rows = _packet_rows(g, 5)
    rows[1] = np.full(g.shape, complex(-0.0, math.nan))
    p = tmp_path / "p.kslp"
    write_packets(g, 5, (r for r in rows), str(p))
    assert p.read_bytes() == (b"KSLP" + struct.pack("<I", 1)
                              + struct.pack("<dddd", 2.0, 8.0, 4.0, 5.0)
                              + np.stack(rows).astype("<c16").tobytes())
    grid, values = read_packets(str(p))
    assert grid == g and values.shape == (5, 8, 8)
    assert values.tobytes() == np.stack(rows).astype("<c16").tobytes()
    p2 = tmp_path / "q.kslp"
    write_packets(grid, len(values), values, str(p2))
    assert p.read_bytes() == p2.read_bytes()


def test_packet_stack_writer_checks_its_count(tmp_path):
    g = Grid(1, 8, 4.0)
    p = str(tmp_path / "p.kslp")
    with pytest.raises(ValueError, match="3 packets declared, 2 written"):
        write_packets(g, 3, _packet_rows(g, 2), p)
    with pytest.raises(ValueError, match="at least 1"):
        write_packets(g, 0, [], p)


@pytest.mark.parametrize("count", [-3.0, 2.5, 0.0, float("nan"), float("inf")])
def test_packet_stack_bad_count(tmp_path, count):
    raw = bytearray(_written_packets(tmp_path))
    raw[32:40] = struct.pack("<d", count)
    p = tmp_path / "bad.kslp"
    p.write_bytes(bytes(raw))
    with pytest.raises(FieldFormatError) as exc:
        read_packets(str(p))
    assert exc.value.offset == 32


def test_packet_stack_truncated_anywhere(tmp_path):
    raw = _written_packets(tmp_path)
    p = tmp_path / "trunc.kslp"
    for end in range(len(raw)):
        p.write_bytes(raw[:end])
        with pytest.raises(FieldFormatError) as exc:
            read_packets(str(p))
        assert 0 <= exc.value.offset <= end, (end, exc.value)


def test_packet_stack_header_corruption(tmp_path):
    g = Grid(1, 8, CORRUPT_L)

    def read(path):
        grid, values = read_packets(path)
        assert values.shape[1:] == grid.shape and len(values) >= 1
        return grid

    # the header runs through the packet count
    assert g in _corrupt_header(tmp_path, _written_packets(tmp_path, g), 40, read)


def _sample_files(tmp_path):
    """(name, file bytes, reader returning the samples, sample offset) of
    one small file of each format."""
    g = Grid(1, 8, 4.0)
    f = tmp_path / "f.kslf"
    write_field(random_field(g, 6), str(f))
    return [("kslf", f.read_bytes(), lambda path: read_field(path).values, 32),
            ("kslt", _written_spacetime(tmp_path), lambda path: read_spacetime(path).slices,
             40 + 8 * 3),
            ("kslp", _written_packets(tmp_path), lambda path: read_packets(path)[1], 40)]


def test_sample_region_of_the_wrong_size(tmp_path):
    # one byte too many or one too few: the error names a byte in the file
    for name, raw, read, _ in _sample_files(tmp_path):
        p = tmp_path / f"bad.{name}"
        for bad in (raw + b"\x00", raw[:-1]):
            p.write_bytes(bad)
            with pytest.raises(FieldFormatError) as exc:
                read(str(p))
            assert 0 <= exc.value.offset < len(bad), (name, len(bad), exc.value)


# a signalling NaN with a payload, a quiet negative NaN and an infinity
SAMPLE_PATTERNS = (0x7FF0_0000_DEAD_BEEF, 0xFFF8_0000_0000_0001, 0x7FF0_0000_0000_0000)


def test_overwritten_sample_bytes_read_back_as_written(tmp_path):
    # samples are not validated: any bit pattern, NaN included, comes back
    for name, raw, read, start in _sample_files(tmp_path):
        p = tmp_path / f"bad.{name}"
        cases = [(pos, bytes([byte])) for pos in range(start, start + 16)
                 for byte in CORRUPT_BYTES]
        cases += [(start + 8 * k, struct.pack("<Q", bits))
                  for k in (0, 3) for bits in SAMPLE_PATTERNS]
        cases += [(len(raw) - 8, struct.pack("<Q", SAMPLE_PATTERNS[0]))]
        for pos, patch in cases:
            bad = bytearray(raw)
            bad[pos:pos + len(patch)] = patch
            p.write_bytes(bytes(bad))
            assert read(str(p)).tobytes() == bytes(bad[start:]), (name, pos, patch)
