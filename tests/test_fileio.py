import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchkit import CorrespondenceSet
from matchkit.fileio import (
    DESC_MAGIC,
    GRID_MAGIC,
    MAX_GRID_RANK,
    STEER_MAGIC,
    read_correspondences_csv,
    read_csv,
    read_descriptors,
    read_grid,
    read_steering,
    warp_to_rgb,
    write_correspondences_csv,
    write_csv,
    write_descriptors,
    write_grid,
    write_pgm,
    write_ppm,
    write_steering,
)


def test_grid_round_trip_various_ranks(tmp_path):
    rng = np.random.default_rng(90)
    for shape in ((7,), (3, 5), (2, 3, 4), (2, 2, 2, 2)):
        arr = rng.normal(size=shape).astype(np.float32)
        path = tmp_path / "t.rmgrid"
        write_grid(path, arr)
        back = read_grid(path)
        assert back.shape == shape
        assert np.array_equal(back.astype(np.float32), arr)


def test_grid_layout_bytes(tmp_path):
    path = tmp_path / "g.rmgrid"
    write_grid(path, np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32))
    raw = path.read_bytes()
    assert raw[:7] == GRID_MAGIC
    assert raw[7:11] == (2).to_bytes(4, "little")  # rank
    assert raw[11:15] == (2).to_bytes(4, "little")  # dims
    assert raw[15:19] == (2).to_bytes(4, "little")
    assert np.frombuffer(raw[19:], dtype="<f4").tolist() == [1.0, 2.0, 3.0, 4.0]


def test_grid_bad_magic(tmp_path):
    path = tmp_path / "bad.rmgrid"
    path.write_bytes(b"NOTGRID" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        read_grid(path)


def test_grid_truncated(tmp_path):
    path = tmp_path / "g.rmgrid"
    write_grid(path, np.ones((4, 4), dtype=np.float32))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError, match="truncated"):
        read_grid(path)


def test_descriptor_round_trip(tmp_path):
    rng = np.random.default_rng(91)
    coords = rng.uniform(-1, 1, (9, 2)).astype(np.float32)
    descs = rng.normal(size=(9, 16)).astype(np.float32)
    path = tmp_path / "d.rmdesc"
    write_descriptors(path, coords, descs)
    raw = path.read_bytes()
    assert raw[:7] == DESC_MAGIC
    assert raw[7:11] == (9).to_bytes(4, "little")
    assert raw[11:15] == (16).to_bytes(4, "little")
    c, d = read_descriptors(path)
    assert np.array_equal(c.astype(np.float32), coords)
    assert np.array_equal(d.astype(np.float32), descs)


def test_steering_round_trip(tmp_path):
    rng = np.random.default_rng(92)
    w = rng.normal(size=(12, 12)).astype(np.float32)
    path = tmp_path / "w.rmsteer"
    write_steering(path, w)
    assert np.array_equal(read_steering(path).astype(np.float32), w)
    with pytest.raises(ValueError):
        write_steering(path, np.ones((3, 4)))


def read_support_set(prefix):
    """The two RMGRID1 tensors ``write_support_set`` writes, read back."""
    return read_grid(f"{prefix}.features.rmgrid"), read_grid(f"{prefix}.embeddings.rmgrid")


def test_support_set_round_trip(tmp_path):
    from matchkit.fileio import write_support_set

    rng = np.random.default_rng(94)
    feats = rng.normal(size=(12, 6)).astype(np.float32)
    emb = rng.normal(size=(12, 2)).astype(np.float32)
    write_support_set(tmp_path / "sup", feats, emb)
    f, e = read_support_set(tmp_path / "sup")
    assert np.array_equal(f.astype(np.float32), feats)
    assert np.array_equal(e.astype(np.float32), emb)


def test_correspondence_csv_round_trip(tmp_path):
    rng = np.random.default_rng(93)
    cs = CorrespondenceSet(
        rng.uniform(-1, 1, (20, 2)), rng.uniform(-1, 1, (20, 2)), rng.uniform(0, 2, 20)
    )
    path = tmp_path / "m.csv"
    write_correspondences_csv(path, cs)
    assert path.read_text().splitlines()[0] == "xa,ya,xb,yb,weight"
    back = read_correspondences_csv(path)
    assert np.array_equal(back.xa, cs.xa)
    assert np.array_equal(back.xb, cs.xb)
    assert np.array_equal(back.weights, cs.weights)


def test_correspondence_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="header"):
        read_correspondences_csv(path)


def loop_correspondences_csv(cs):
    """The text write_correspondences_csv produced before it used write_csv."""
    lines = ["xa,ya,xb,yb,weight"]
    for i in range(len(cs)):
        vals = (cs.xa[i, 0], cs.xa[i, 1], cs.xb[i, 0], cs.xb[i, 1], cs.weights[i])
        lines.append(",".join(repr(float(v)) for v in vals))
    return "\n".join(lines) + "\n"


def test_correspondence_csv_bytes_match_loop_oracle(tmp_path):
    rng = np.random.default_rng(94)
    for n in (1, 7, 300):
        cs = CorrespondenceSet(
            rng.uniform(-1, 1, (n, 2)), rng.uniform(-1, 1, (n, 2)), rng.uniform(0, 2, n)
        )
        path = tmp_path / "m.csv"
        write_correspondences_csv(path, cs)
        assert path.read_text() == loop_correspondences_csv(cs)


def test_write_csv_formats_floats_by_repr_and_others_by_str(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, "s,bin,frac", [(0.1, 3, 1 / 3), (np.float64(2.0), np.int64(0), 0.0)])
    assert path.read_text() == "s,bin,frac\n0.1,3,0.3333333333333333\n2.0,0,0.0\n"
    assert np.array_equal(read_csv(path, "s,bin,frac"), [[0.1, 3, 1 / 3], [2.0, 0, 0.0]])


def test_read_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n\n1,2\n  \n3,4\n\n")
    assert np.array_equal(read_csv(path, "a,b"), [[1.0, 2.0], [3.0, 4.0]])


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "expected header 'a,b'"),
        ("1.0,0.5\n12.0,0.1\n", "expected header 'a,b'"),  # no header: not a silent row loss
        ("a,c\n1,2\n", "expected header 'a,b'"),
        ("a,b,c\n1,2,3\n", "expected header 'a,b'"),
        ("a,b\n", "no rows after the header"),
        ("a,b\n\n\n", "no rows after the header"),
        ("a,b\n1,2\n3\n", "every row must hold 2 finite numbers"),  # ragged
        ("a,b\n1,2,3\n4,5,6\n", "every row must hold 2 finite numbers"),
        ("a,b\n1,x\n", "every row must hold 2 finite numbers"),
        ("a,b\n1,\n", "every row must hold 2 finite numbers"),
        ("a,b\n1,nan\n", "every row must hold 2 finite numbers"),
        ("a,b\n-inf,2\n", "every row must hold 2 finite numbers"),
    ],
)
def test_read_csv_rejects_bad_tables_naming_the_file(tmp_path, text, message):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        read_csv(path, "a,b")
    assert str(info.value) == f"{path}: {message}"


def test_pgm_ppm_headers(tmp_path):
    pgm = tmp_path / "im.pgm"
    write_pgm(pgm, np.linspace(0, 1, 12).reshape(3, 4))
    raw = pgm.read_bytes()
    assert raw.startswith(b"P5\n4 3\n255\n")
    assert len(raw) == len(b"P5\n4 3\n255\n") + 12

    ppm = tmp_path / "im.ppm"
    write_ppm(ppm, np.zeros((2, 2, 3)))
    raw = ppm.read_bytes()
    assert raw.startswith(b"P6\n2 2\n255\n")
    assert len(raw) == len(b"P6\n2 2\n255\n") + 12


@pytest.mark.parametrize(
    "writer, shape, message",
    [
        (write_pgm, (4,), "PGM payload must be 2D"),
        (write_pgm, (2, 2, 1), "PGM payload must be 2D"),
        (write_ppm, (4,), r"PPM payload must have shape \(H, W, 3\)"),
        (write_ppm, (2, 2), r"PPM payload must have shape \(H, W, 3\)"),
        (write_ppm, (2, 2, 4), r"PPM payload must have shape \(H, W, 3\)"),
        (write_ppm, (2, 2, 3, 1), r"PPM payload must have shape \(H, W, 3\)"),
    ],
)
def test_pgm_ppm_refuse_other_shapes_before_writing(tmp_path, writer, shape, message):
    path = tmp_path / "im"
    with pytest.raises(ValueError, match=f"^{message}$"):
        writer(path, np.zeros(shape))
    assert not path.exists()


def test_warp_to_rgb_ranges():
    coords = np.array([[[-1.0, -1.0], [1.0, 1.0]]])
    cert = np.array([[0.0, 1.0]])
    rgb = warp_to_rgb(coords, cert)
    assert rgb.shape == (1, 2, 3)
    assert rgb.min() >= 0.0 and rgb.max() <= 1.0
    assert np.allclose(rgb[0, 0], [0, 0, 0])
    assert np.allclose(rgb[0, 1], [1, 1, 1])


# --- header codec: round trips and hostile headers ---------------------------

# Payload values at least 0.5 in magnitude: their float32 bit patterns read
# as u32 are all >= 0x3F000000, so a flipped rank that pulls payload words
# into the dims always declares a payload the file cannot hold.
VALUES = st.floats(0.5, 1000.0, width=32) | st.floats(-1000.0, -0.5, width=32)
CODEC = settings(deadline=None, derandomize=True, database=None, max_examples=40)


@st.composite
def records(draw):
    """(kind, float32 payload) for one of the three binary formats."""
    kind = draw(st.sampled_from(["grid", "desc", "steer"]))
    if kind == "grid":
        shape = tuple(draw(st.lists(st.integers(1, 3), max_size=3)))
    elif kind == "desc":
        shape = (draw(st.integers(1, 4)), 2 + draw(st.integers(0, 3)))
    else:
        d = draw(st.integers(1, 4))
        shape = (d, d)
    count = int(np.prod(shape))
    values = draw(st.lists(VALUES, min_size=count, max_size=count))
    return kind, np.array(values, dtype=np.float32).reshape(shape)


def _write(kind, path, data):
    if kind == "grid":
        write_grid(path, data)
    elif kind == "desc":
        write_descriptors(path, data[:, :2], data[:, 2:])
    else:
        write_steering(path, data)


def _read(kind, path):
    if kind == "grid":
        return read_grid(path)
    if kind == "desc":
        return np.concatenate(read_descriptors(path), axis=1)
    return read_steering(path)


def _header_fields(kind, data):
    """Byte offset of each u32 header field."""
    if kind == "grid":
        return [7 + 4 * i for i in range(1 + data.ndim)]
    if kind == "desc":
        return [7, 11]
    return [8]


def _read_error(kind, path, raw):
    """Read ``raw`` back as ``kind``; return the one-line error it must raise."""
    path.write_bytes(raw)
    with pytest.raises(ValueError) as exc:
        _read(kind, path)
    message = str(exc.value)
    assert message.startswith(f"{path}: ") and "\n" not in message
    return message


@CODEC
@given(records())
def test_codec_round_trip_and_layout(rec):
    kind, data = rec
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "r.bin"
        _write(kind, path, data)
        raw = path.read_bytes()
        header = _header_fields(kind, data)[-1] + 4
        assert len(raw) == header + 4 * data.size
        assert raw[header:] == data.astype("<f4").tobytes()
        back = _read(kind, path)
        assert back.dtype == np.float64 and back.shape == data.shape
        assert np.array_equal(back.astype(np.float32), data)


@CODEC
@given(records())
def test_codec_rejects_every_truncation_and_trailing_bytes(rec):
    kind, data = rec
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "r.bin"
        _write(kind, path, data)
        raw = path.read_bytes()
        header = _header_fields(kind, data)[-1] + 4
        magic_len = 7 if kind != "steer" else 8
        for cut in range(len(raw)):
            message = _read_error(kind, path, raw[:cut])
            if cut < magic_len:
                assert "bad magic" in message
            elif cut < header:
                assert "truncated header" in message
            else:
                assert "truncated payload" in message
        for extra in (b"\x00", b"\x00" * 4, raw[-4:]):
            assert "trailing bytes" in _read_error(kind, path, raw + extra)


@CODEC
@given(records(), st.data())
def test_codec_rejects_flipped_header_field(rec, data):
    kind, payload = rec
    offset = data.draw(st.sampled_from(_header_fields(kind, payload)))
    bit = data.draw(st.integers(0, 31))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "r.bin"
        _write(kind, path, payload)
        raw = bytearray(path.read_bytes())
        field = int.from_bytes(raw[offset : offset + 4], "little") ^ (1 << bit)
        raw[offset : offset + 4] = field.to_bytes(4, "little")
        _read_error(kind, path, bytes(raw))


def _u32(*values):
    return b"".join(v.to_bytes(4, "little") for v in values)


HOSTILE_HEADERS = [
    ("grid", GRID_MAGIC, "truncated header"),
    ("grid", GRID_MAGIC + _u32(3), "truncated header"),
    ("grid", GRID_MAGIC + _u32(2**32 - 1), "exceeds the limit"),
    ("grid", GRID_MAGIC + _u32(MAX_GRID_RANK + 1), "exceeds the limit"),
    ("grid", GRID_MAGIC + _u32(3, 2**31, 2**31, 2**31), "truncated payload"),
    ("grid", GRID_MAGIC + _u32(2, 2**32 - 1, 2**32 - 1) + b"\x00" * 64, "truncated payload"),
    ("grid", GRID_MAGIC + _u32(1, 4) + b"\x00" * 15, "truncated payload"),
    ("grid", GRID_MAGIC + _u32(1, 4) + b"\x00" * 17, "trailing bytes"),
    ("grid", GRID_MAGIC + _u32(0) + b"\x00" * 5, "trailing bytes"),
    ("desc", DESC_MAGIC + _u32(7), "truncated header"),
    ("desc", DESC_MAGIC + _u32(2**32 - 1, 2**32 - 1), "truncated payload"),
    ("desc", DESC_MAGIC + _u32(1, 1) + b"\x00" * 11, "truncated payload"),
    ("desc", DESC_MAGIC + _u32(1, 1) + b"\x00" * 13, "trailing bytes"),
    ("steer", STEER_MAGIC, "truncated header"),
    ("steer", STEER_MAGIC + _u32(2**32 - 1), "truncated payload"),
    ("steer", STEER_MAGIC + _u32(2) + b"\x00" * 15, "truncated payload"),
    ("steer", STEER_MAGIC + _u32(2) + b"\x00" * 17, "trailing bytes"),
]


@pytest.mark.parametrize("kind,raw,expected", HOSTILE_HEADERS)
def test_codec_hostile_headers_allocate_nothing(tmp_path, kind, raw, expected):
    # Headers that claim up to 2**93 bytes: the reader must refuse them from
    # the file length alone, without a buffer sized by the header.
    tracemalloc.start()
    try:
        message = _read_error(kind, tmp_path / "h.bin", raw)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert expected in message
    assert peak < 1 << 20


def test_write_grid_refuses_rank_the_reader_would_refuse(tmp_path):
    with pytest.raises(ValueError, match="exceeds the limit"):
        write_grid(tmp_path / "g.rmgrid", np.zeros((1,) * (MAX_GRID_RANK + 1)))
    write_grid(tmp_path / "g.rmgrid", np.zeros((1,) * MAX_GRID_RANK))
    assert read_grid(tmp_path / "g.rmgrid").shape == (1,) * MAX_GRID_RANK


@pytest.mark.parametrize("bad", [1e300, -3.5e38, np.inf, np.nan])
def test_writers_refuse_values_that_do_not_fit_in_float32_naming_the_file(tmp_path, bad):
    grid = np.zeros((2, 3))
    grid[1, 2] = bad
    writers = [
        ("g.rmgrid", lambda path: write_grid(path, grid)),
        ("d.rmdesc", lambda path: write_descriptors(path, np.zeros((2, 2)), grid)),
        ("w.rmsteer", lambda path: write_steering(path, grid[:, 1:])),
    ]
    for name, write in writers:
        path = tmp_path / name
        with pytest.raises(ValueError) as info:
            write(path)  # a RuntimeWarning from the cast would fail the suite
        assert str(info.value) == f"{name}: values must be finite and fit in float32"
        assert not path.exists()
    write_grid(tmp_path / "max.rmgrid", np.float32(3.4e38) * np.ones(2))  # the float32 range fits
    assert read_grid(tmp_path / "max.rmgrid").tolist() == [float(np.float32(3.4e38))] * 2
