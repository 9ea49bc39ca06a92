"""Seeded fuzzing of the two file loaders: every truncation and single-byte
flip of a valid file either loads or raises a ValueError naming the file."""

import itertools
import re

import numpy as np
import pytest

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


def test_damaged_prepared_files_load_or_name_the_file(tmp_path, grid_corpus):
    triplets = np.array([(0, 1, 2), (1, 2, 3), (2, 0, 1)], dtype=np.int64)
    good = tmp_path / "good.npz"
    save_prepared(str(good), grid_corpus,
                  SplitTriplets(triplets, triplets[:1], triplets[:0]))
    raw = good.read_bytes()
    prefixes = np.random.default_rng(2).choice(len(raw), size=300,
                                               replace=False)
    assert_loads_or_names_path(load_prepared, tmp_path / "bad.npz",
                               damaged_copies(raw, prefixes, seed=3))
