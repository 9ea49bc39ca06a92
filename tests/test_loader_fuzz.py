"""Seeded fuzzing of the two file loaders: every truncation and single-byte
flip of a valid file either loads or raises a ValueError naming the file.
The .npy headers of a prepared corpus are also swept bit by bit, and
crafted, behind valid CRC-32s."""

import io
import itertools
import os
import re
import struct
import zipfile
import zlib
from dataclasses import fields

import numpy as np
import pytest
from numpy.lib import format as npformat

from a2cf.cli import cli_dispatch
from a2cf.config import TrainConfig
from a2cf.data import (RATING_MAX, SplitTriplets, load_prepared,
                       save_prepared)
from a2cf.network import init_params
from a2cf.training import load_checkpoint, save_checkpoint

FLIPS = 500


def damaged_copies(raw: bytes, prefixes, seed: int, start: int = 0):
    """(label, bytes): `raw` cut at each of `prefixes`, then FLIPS copies
    with one seeded byte at or after `start` XORed by a seeded nonzero
    value."""
    for n in prefixes:
        yield f"prefix {n}", raw[:n]
    rng = np.random.default_rng(seed)
    for pos, mask in zip(rng.integers(start, len(raw), size=FLIPS),
                         rng.integers(1, 256, size=FLIPS)):
        flipped = bytearray(raw)
        flipped[pos] ^= mask
        yield f"byte {pos} ^ {mask:#04x}", bytes(flipped)


def assert_loads_or_names_path(loader, path, cases):
    for label, data in cases:
        path.write_bytes(data)
        try:
            loader(str(path))
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: "), (label, str(exc))
        except Exception as exc:
            pytest.fail(f"{label}: {type(exc).__name__}: {exc}")


def test_damaged_checkpoints_load_or_name_the_file(tmp_path):
    cfg = TrainConfig(embed_dim=4)
    good = tmp_path / "good.ckpt"
    save_checkpoint(str(good), init_params(5, 6, 4, cfg, 0), cfg)
    raw = good.read_bytes()
    assert_loads_or_names_path(load_checkpoint, tmp_path / "bad.ckpt",
                               damaged_copies(raw, range(len(raw)), seed=1))


def format3_checkpoint(path):
    """Write a format-3 checkpoint of a 5 x 6 x 4 model to `path`; returns
    (its bytes, the offset of its item section)."""
    cfg = TrainConfig(embed_dim=4)
    item_attr = np.random.default_rng(4).uniform(1.0, RATING_MAX, (6, 4))
    save_checkpoint(str(path), init_params(5, 6, 4, cfg, 0), cfg, item_attr)
    raw = path.read_bytes()
    return raw, len(raw) - item_attr.nbytes


def test_damaged_format3_checkpoints_load_or_name_the_file(tmp_path):
    """Every truncation and FLIPS flips anywhere, then FLIPS flips that
    land inside the item section."""
    raw, start = format3_checkpoint(tmp_path / "good.ckpt")
    assert_loads_or_names_path(load_checkpoint, tmp_path / "bad.ckpt",
                               itertools.chain(
                                   damaged_copies(raw, range(len(raw)), seed=5),
                                   damaged_copies(raw, (), seed=6,
                                                  start=start)))


@pytest.mark.parametrize("value", [np.nan, 0.5, 6.0],
                         ids=["nan", "below_one", "above_rating_max"])
def test_item_value_outside_the_rating_scale_names_the_file(tmp_path, value):
    """RATING_MAX is 5, so 6.0 is RATING_MAX + 1."""
    path = tmp_path / "m.ckpt"
    raw, start = format3_checkpoint(path)
    cell = start + 8 * 13                   # item 3, attribute 1
    path.write_bytes(raw[:cell] + np.float64(value).tobytes()
                     + raw[cell + 8:])
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: checkpoint item completion holds a value that is "
            f"non-finite or outside [1, 5]")):
        load_checkpoint(str(path))


@pytest.fixture
def small_prepared(tmp_path, grid_corpus):
    """The bytes of the grid corpus's prepared.npz."""
    triplets = np.array([(0, 1, 2), (1, 2, 3), (2, 0, 1)], dtype=np.int64)
    good = tmp_path / "good.npz"
    save_prepared(str(good), grid_corpus,
                  SplitTriplets(triplets, triplets[:1], triplets[:0]))
    return good.read_bytes()


def test_damaged_prepared_files_load_or_name_the_file(tmp_path,
                                                      small_prepared):
    raw = small_prepared
    prefixes = np.random.default_rng(2).choice(len(raw), size=300,
                                               replace=False)
    assert_loads_or_names_path(load_prepared, tmp_path / "bad.npz",
                               damaged_copies(raw, prefixes, seed=3))


def member_offsets(raw: bytes) -> dict:
    """Member name -> (offset of its data, offsets of its CRC-32 in its
    local header and in its central directory entry), read from the zip
    records: the end of central directory, then each entry in turn."""
    eocd = raw.rindex(b"PK\x05\x06")
    count, _, entry = struct.unpack_from("<HII", raw, eocd + 10)
    offsets = {}
    for _ in range(count):
        n, m, k = struct.unpack_from("<HHH", raw, entry + 28)
        local, = struct.unpack_from("<I", raw, entry + 42)
        local_n, local_m = struct.unpack_from("<HH", raw, local + 26)
        name = raw[entry + 46:entry + 46 + n].decode()
        offsets[name] = (local + 30 + local_n + local_m,
                         (local + 14, entry + 16))
        entry += 46 + n + m + k
    return offsets


def assert_same_prepared(got, want, label):
    """Every field of the (Corpus, SplitTriplets) pair `got` equals
    `want`'s, in value and dtype."""
    for g, w in zip(got, want):
        for field in fields(w):
            a, b = getattr(g, field.name), getattr(w, field.name)
            if isinstance(b, list):
                assert a == b, (label, field.name)
            else:
                assert a.dtype == b.dtype and np.array_equal(a, b), \
                    (label, field.name)


def test_every_npy_header_bit_loads_or_names_the_file(tmp_path,
                                                      small_prepared):
    """Each single-bit flip of each member's .npy header, with the CRC-32
    rewritten to match so that the flip reaches the header parser. A flip
    that loads must give the arrays of the intact file: a byte-order flip
    such as '<U' to '>U' would read other tokens. Only the member's header
    and its two CRC fields are rewritten in place, which keeps the
    9 x 128 x 8 loads within a few seconds."""
    path = tmp_path / "bad.npz"
    path.write_bytes(small_prepared)
    intact = load_prepared(str(path))
    with zipfile.ZipFile(io.BytesIO(small_prepared)) as archive:
        members = {name: archive.read(name) for name in archive.namelist()}
    offsets = member_offsets(small_prepared)
    assert sorted(offsets) == sorted(members)
    flips = 0
    with open(path, "r+b") as fh:
        for name, member in members.items():
            start, crc_at = offsets[name]
            end = 10 + int.from_bytes(member[8:10], "little")
            for pos, bit in itertools.product(range(end), range(8)):
                header = bytearray(member[:end])
                header[pos] ^= 1 << bit
                crc = zlib.crc32(member[end:], zlib.crc32(header))
                os.pwrite(fh.fileno(), header, start)
                for at in crc_at:
                    os.pwrite(fh.fileno(), struct.pack("<I", crc), at)
                try:
                    loaded = load_prepared(str(path))
                except ValueError as exc:
                    assert str(exc).startswith(f"{path}: "), \
                        (name, pos, bit, str(exc))
                except Exception as exc:
                    pytest.fail(f"{name} byte {pos} bit {bit}: "
                                f"{type(exc).__name__}: {exc}")
                else:
                    assert_same_prepared(loaded, intact, (name, pos, bit))
                flips += 1
            os.pwrite(fh.fileno(), member[:end], start)
            for at in crc_at:
                os.pwrite(fh.fileno(), small_prepared[at:at + 4], at)
    assert flips == 9 * 128 * 8
    load_prepared(str(path))           # every byte put back


def edit_header(old: bytes, new: bytes):
    """A member edit: `old` replaced by `new` in the header, whose padding
    absorbs the change of length."""
    def edit(member: bytes) -> bytes:
        end = 10 + int.from_bytes(member[8:10], "little")
        header = member[10:end].replace(old, new, 1).rstrip(b" \n")
        return member[:10] + header.ljust(end - 11) + b"\n" + member[end:]
    return edit


def version_2_0(member: bytes) -> bytes:
    """The same array as a .npy 2.0 file, which np.load reads."""
    buf = io.BytesIO()
    npformat.write_array_header_2_0(
        buf, npformat.header_data_from_array_1_0(np.load(io.BytesIO(member))))
    end = 10 + int.from_bytes(member[8:10], "little")
    return buf.getvalue() + member[end:]


def header_past_the_end(member: bytes) -> bytes:
    """The header length one byte longer than the member's remainder."""
    return member[:8] + (len(member) - 9).to_bytes(2, "little") + member[10:]


@pytest.mark.parametrize("name, edit, message", [
    ("lexicon", edit_header(b", 4)", b", 4!"), "malformed .npy header"),
    ("interactions", edit_header(b"'<i8'", b"'|O'"),
     "unsupported dtype '|O'"),
    ("train", edit_header(b"False", b"True"), "malformed .npy header"),
    ("test", version_2_0, "not a .npy 1.0 file"),
    ("test", header_past_the_end, "header runs past the end of the member"),
    ("item_tokens", edit_header(b"'<U", b"'>U"), "malformed .npy header"),
    ("valid", edit_header(b"'<i8'", b"'|i8'"), "unsupported dtype '|i8'"),
], ids=["shape_bang", "object_descr", "fortran_order", "version_2_0",
        "header_past_member", "big_endian_descr", "one_byte_order_on_int64"])
def test_crafted_npy_member_is_named_and_one_line(tmp_path, small_prepared,
                                                  capsys, name, edit,
                                                  message):
    """A member rewritten through zipfile, so its CRC-32 is valid: the
    loader refuses the header with a ValueError naming the file, and the
    CLI prints it as one error line."""
    path = tmp_path / "bad.npz"
    out = io.BytesIO()
    with zipfile.ZipFile(io.BytesIO(small_prepared)) as src, \
            zipfile.ZipFile(out, "w") as dst:
        for info in src.infolist():
            member = src.read(info)
            dst.writestr(info, edit(member) if info.filename == f"{name}.npy"
                         else member)
    path.write_bytes(out.getvalue())
    with pytest.raises(ValueError) as exc:
        load_prepared(str(path))
    assert str(exc.value) == f"{path}: {name}.npy: {message}"
    model = tmp_path / "model"
    assert cli_dispatch(["train", "--data", str(path),
                         "--out-dir", str(model)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {exc.value}"]
    assert not model.exists()
