"""Corpus loading, activity filtering, and triplet ground-truth construction.

File formats (UTF-8 tab-separated text, no empty fields, '#' starts a
comment line, blank lines ignored):
  reviews:      user_id  item_id  rating  [timestamp]
  lexicon:      user_id  item_id  attribute  {+1|-1}
  substitutes:  item_id  item_id            (unordered pair, no self-pairs)
"""

import lzma
import math
import re
import zipfile
import zlib
from dataclasses import dataclass, fields
from functools import cached_property
from typing import NamedTuple

import numpy as np

QUERY_POP_EXPONENT = 0.75
RATING_MAX = 5      # reviews and both attribute matrices lie on [1, RATING_MAX]
# the activity thresholds `filter_corpus` and `prepare` default to, which
# every synthetic corpus is generated to pass
MIN_USER_ITEMS = 5          # distinct items per user
MIN_ITEM_USERS = 5          # distinct users per item
MIN_ATTR_MENTIONS = 2       # surviving lexicon lines per attribute


class ReviewRecord(NamedTuple):
    user_id: str
    item_id: str
    rating: int
    timestamp: int | None = None


class LexiconEntry(NamedTuple):
    user_id: str
    item_id: str
    attribute: str
    sentiment: int  # +1 or -1


def _records(path: str, widths: tuple):
    """(line number, fields) for each data line of the UTF-8 TSV `path`.

    A leading byte-order mark is dropped. Blank lines and '#' comments are
    skipped. Only the line ending and surrounding spaces are stripped, so a
    leading or trailing tab makes an empty field. A line whose field count
    is not in `widths`, a line with an empty field, and a file that is not
    UTF-8 raise ValueError naming `path`.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, start=1):
                stripped = line.strip("\r\n ")
                if not stripped or stripped.startswith("#"):
                    continue
                parts = stripped.split("\t")
                if len(parts) not in widths:
                    expected = " or ".join(map(str, widths))
                    raise ValueError(f"{path}:{lineno}: expected {expected} fields, got {len(parts)}")
                if "" in parts:
                    raise ValueError(f"{path}:{lineno}: empty field")
                yield lineno, parts
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8: {exc}") from None


def load_reviews(path: str) -> list[ReviewRecord]:
    """Parse a review file; ratings must be integers in [1, RATING_MAX]."""
    records = []
    for lineno, parts in _records(path, (3, 4)):
        user, item, rating_raw = parts[0], parts[1], parts[2]
        try:
            rating = int(rating_raw)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: rating {rating_raw!r} is not an integer") from None
        if not 1 <= rating <= RATING_MAX:
            raise ValueError(f"{path}:{lineno}: rating {rating} outside [1, {RATING_MAX}]")
        timestamp = None
        if len(parts) == 4:
            try:
                timestamp = int(parts[3])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: timestamp {parts[3]!r} is not an integer") from None
        records.append(ReviewRecord(user, item, rating, timestamp))
    return records


def load_lexicon(path: str) -> list[LexiconEntry]:
    """Parse sentiment-lexicon lines; the sentiment field is '+1' or '-1'."""
    entries = []
    for lineno, (user, item, attr, sent) in _records(path, (4,)):
        if sent == "+1":
            sentiment = 1
        elif sent == "-1":
            sentiment = -1
        else:
            raise ValueError(f"{path}:{lineno}: sentiment must be '+1' or '-1', got {sent!r}")
        entries.append(LexiconEntry(user, item, attr, sentiment))
    return entries


def load_substitutes(path: str) -> list[tuple[str, str]]:
    """Parse substitute pairs; self-pairs are rejected, duplicates collapsed
    (the first occurrence keeps its place)."""
    pairs = {}
    for lineno, (a, b) in _records(path, (2,)):
        if a == b:
            raise ValueError(f"{path}:{lineno}: item {a!r} listed as its own substitute")
        pairs[(a, b) if a <= b else (b, a)] = None
    return list(pairs)


@dataclass
class Corpus:
    """Filtered corpus with dense integer ids.

    Tokens are sorted lexicographically; index arrays refer into the token
    lists. Derived structures (`sampling_tables`, `query_weights`) are
    built on first use.
    """

    user_tokens: list[str]
    item_tokens: list[str]
    attr_tokens: list[str]
    interactions: np.ndarray        # (n_inter, 2) int64: user, item
    lexicon: np.ndarray             # (n_lex, 4) int64: user, item, attr, sentiment
    substitute_pairs: np.ndarray    # (n_pairs, 2) int64, first < second

    @cached_property
    def sampling_tables(self) -> tuple:
        """(bought, substitute): boolean matrices of shape (n_users, n_items)
        and (n_items, n_items), the corpus's two relations as lookup tables.

        Built on first use, which only triplet building and training make,
        and kept with the corpus: n_users*n_items + n_items**2 bytes.
        """
        bought = np.zeros((self.n_users, self.n_items), dtype=bool)
        users, items = np.reshape(self.interactions, (-1, 2)).T
        bought[users, items] = True
        subst = np.zeros((self.n_items, self.n_items), dtype=bool)
        a, b = np.reshape(self.substitute_pairs, (-1, 2)).T
        subst[a, b] = True
        subst[b, a] = True
        return bought, subst

    @cached_property
    def query_weights(self) -> np.ndarray:
        """popularity**0.75 per item, (n_items,) float64, popularity being
        the item's distinct users: the weights of the query draw."""
        popularity = self.sampling_tables[0].sum(axis=0, dtype=np.int64)
        return popularity.astype(np.float64) ** QUERY_POP_EXPONENT

    @property
    def n_users(self) -> int:
        return len(self.user_tokens)

    @property
    def n_items(self) -> int:
        return len(self.item_tokens)

    @property
    def n_attrs(self) -> int:
        return len(self.attr_tokens)


def _codes(*columns: list[str]) -> tuple[list[str], list[np.ndarray]]:
    """The sorted distinct tokens of all `columns`, and each column as an
    int64 array of indices into them."""
    vocab = sorted(set().union(*columns))
    index = dict(zip(vocab, range(len(vocab))))
    return vocab, [np.fromiter(map(index.__getitem__, col), np.int64, len(col))
                   for col in columns]


def _keep_ids(vocab: list[str], alive: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The tokens of `vocab` where `alive`, and every old id's new dense id
    (-1 where not alive)."""
    new_id = np.where(alive, np.cumsum(alive) - 1, -1)
    return [vocab[i] for i in np.flatnonzero(alive)], new_id


def filter_corpus(reviews: list[ReviewRecord],
                  lexicon: list[LexiconEntry],
                  substitutes: list[tuple[str, str]],
                  min_user_items: int = MIN_USER_ITEMS,
                  min_item_users: int = MIN_ITEM_USERS,
                  min_attr_mentions: int = MIN_ATTR_MENTIONS) -> Corpus:
    """Apply activity thresholds and assign dense ids.

    Users with fewer than min_user_items distinct items and items with fewer
    than min_item_users distinct users are removed iteratively until a fixed
    point; afterwards attributes mentioned fewer than min_attr_mentions times
    (counting surviving lexicon lines, duplicates included) are dropped.
    Every threshold must be >= 1.

    Tokens become integer codes once (`_codes`); the distinct review pairs,
    the degree pruning, the mention counts and the row orders are then
    passes over int64 arrays (`np.unique`, `np.bincount`, `np.lexsort`).
    """
    if min(min_user_items, min_item_users, min_attr_mentions) < 1:
        raise ValueError("activity thresholds must be >= 1, got "
                         f"min_user_items={min_user_items}, min_item_users="
                         f"{min_item_users}, min_attr_mentions={min_attr_mentions}")
    users, (rev_u, lex_u) = _codes([r.user_id for r in reviews],
                                   [e.user_id for e in lexicon])
    items, (rev_v, lex_v, sub_a, sub_b) = _codes(
        [r.item_id for r in reviews], [e.item_id for e in lexicon],
        [a for a, _ in substitutes], [b for _, b in substitutes])
    # distinct (user, item) pairs in (user, item) order, pruned by degree
    # until a round removes none
    u, v = np.divmod(np.unique(rev_u * len(items) + rev_v), len(items))
    while True:
        user_deg = np.bincount(u, minlength=len(users))
        item_deg = np.bincount(v, minlength=len(items))
        keep = (user_deg[u] >= min_user_items) & (item_deg[v] >= min_item_users)
        if keep.all():
            break
        u, v = u[keep], v[keep]
    if not len(u):
        raise ValueError("corpus is empty after activity filtering")
    user_tokens, uid = _keep_ids(users, user_deg > 0)
    item_tokens, vid = _keep_ids(items, item_deg > 0)

    attrs, (lex_a,) = _codes([e.attribute for e in lexicon])
    lex_u, lex_v = uid[lex_u], vid[lex_v]
    on_corpus = (lex_u >= 0) & (lex_v >= 0)
    mentions = np.bincount(lex_a[on_corpus], minlength=len(attrs))
    attr_tokens, aid = _keep_ids(attrs, mentions >= min_attr_mentions)
    if not attr_tokens:
        raise ValueError("no attribute survives the mention threshold")
    lex_a = aid[lex_a]
    sentiment = np.array([e.sentiment for e in lexicon], dtype=np.int64)
    lex = np.column_stack([lex_u, lex_v, lex_a, sentiment])
    lex = lex[on_corpus & (lex_a >= 0)]
    # rows in (user, item, attr, sentiment) order
    lex = lex[np.lexsort(lex.T[::-1])]

    sub_a, sub_b = vid[sub_a], vid[sub_b]
    both = (sub_a >= 0) & (sub_b >= 0)
    lo = np.minimum(sub_a, sub_b)[both]
    hi = np.maximum(sub_a, sub_b)[both]
    subs = np.column_stack(np.divmod(np.unique(lo * len(item_tokens) + hi),
                                     len(item_tokens)))
    inter = np.column_stack([uid[u], vid[v]])
    return Corpus(user_tokens, item_tokens, attr_tokens, inter,
                  lex.reshape(-1, 4), subs.reshape(-1, 2))


def _draw_queries(pools: np.ndarray, weights: np.ndarray,
                  draws: np.ndarray) -> np.ndarray:
    """For each row of the (k, n) item stack `pools`, the item that the
    uniform draw `draws[i]` selects when the row is weighted by `weights`
    (uniform when the row's weights sum to zero): the item
    rng.choice(n, p=...) gives when its draw is `draws[i]`.

    Every step is the 1-D draw's, row by row: the row sum is numpy's
    pairwise sum along a contiguous row, the cumulative sum runs left to
    right, and counting the CDF values <= the draw is
    searchsorted(side="right").
    """
    w = weights[pools]
    total = w.sum(axis=1)
    flat = total <= 0.0
    probs = w / np.where(flat, 1.0, total)[:, None]
    probs[flat] = 1.0 / pools.shape[1]
    cdf = probs.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    picked = (cdf <= draws[:, None]).sum(axis=1)
    return pools[np.arange(len(pools)), picked]


def sample_query_item(user: int, positive: int, corpus: Corpus,
                      rng: np.random.Generator) -> int:
    """Draw a query item from the substitutes of `positive` that `user` has
    not interacted with, weighted by popularity**0.75.

    Raises ValueError when no such item exists (callers are expected to skip
    those pairs).
    """
    bought, subst = corpus.sampling_tables
    pool = np.flatnonzero(subst[positive] & ~bought[user])
    if not len(pool):
        raise ValueError(f"no query candidate for user {user}, item {positive}")
    return int(_draw_queries(pool[None], corpus.query_weights,
                             rng.random(1))[0])


def build_triplets(corpus: Corpus, rng: np.random.Generator) -> np.ndarray:
    """Emit one (user, query, positive) triplet per interaction, its query
    drawn as by `sample_query_item`.

    Interactions whose substitute pool is exhausted by the user's own history
    (or empty) are skipped; `prepare` counts them in corpus.manifest. Every
    pool comes from one (n_interactions, n_items) boolean pass over the
    sampling tables, and every draw from one rng.random call. Pools of equal
    length are stacked and drawn from together, one `_draw_queries` call per
    distinct length.
    """
    bought, subst = corpus.sampling_tables
    users, items = np.reshape(corpus.interactions, (-1, 2)).T
    rows, pool_items = np.nonzero(subst[items] & ~bought[users])
    eligible, starts, lengths = np.unique(rows, return_index=True,
                                          return_counts=True)
    if not len(eligible):
        raise ValueError("no triplet could be formed from the corpus")
    draws = rng.random(len(eligible))
    queries = np.empty(len(eligible), dtype=np.int64)
    for n in np.unique(lengths):
        group = np.flatnonzero(lengths == n)
        stack = pool_items[starts[group, None] + np.arange(n)]
        queries[group] = _draw_queries(stack, corpus.query_weights, draws[group])
    return np.column_stack([users[eligible], queries, items[eligible]])


@dataclass
class SplitTriplets:
    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray


def split_triplets(triplets: np.ndarray, seed: int,
                   ratios: tuple = (0.8, 0.1, 0.1)) -> SplitTriplets:
    """Shuffle and split triplets into train/valid/test.

    Valid and test sizes are floored, the remainder goes to train. Test
    triplets whose (user, positive) or (query, positive) pair also occurs in
    training are discarded to prevent leakage. The check is one `np.isin`
    per pair kind, on int64 keys `first * base + positive` with `base` one
    above the largest id.
    """
    if len(ratios) != 3 or abs(sum(ratios) - 1.0) > 1e-9 or min(ratios) < 0:
        raise ValueError(f"ratios must be 3 nonnegative values summing to 1, got {ratios}")
    n = len(triplets)
    order = np.random.default_rng(seed).permutation(n)
    shuffled = triplets[order]
    n_valid = int(n * ratios[1])
    n_test = int(n * ratios[2])
    n_train = n - n_valid - n_test
    train = shuffled[:n_train]
    valid = shuffled[n_train:n_train + n_valid]
    test = shuffled[n_train + n_valid:]

    base = int(triplets.max()) + 1 if n else 1

    def keys(rows, col):
        return rows[:, col].astype(np.int64) * base + rows[:, 2]

    leaked = (np.isin(keys(test, 0), keys(train, 0))
              | np.isin(keys(test, 1), keys(train, 1)))
    return SplitTriplets(train=train, valid=valid, test=test[~leaked])


_TOKEN_ARRAYS = ("user_tokens", "item_tokens", "attr_tokens")
# id array -> the token array each of its columns indexes (None: sentiment)
_ID_ARRAYS = {
    "interactions": ("user_tokens", "item_tokens"),
    "lexicon": ("user_tokens", "item_tokens", "attr_tokens", None),
    "substitute_pairs": ("item_tokens", "item_tokens"),
    "train": ("user_tokens", "item_tokens", "item_tokens"),
    "valid": ("user_tokens", "item_tokens", "item_tokens"),
    "test": ("user_tokens", "item_tokens", "item_tokens"),
}


def save_prepared(path: str, corpus: Corpus, splits: SplitTriplets) -> None:
    """Serialize a filtered corpus plus its splits to one .npz file, the
    members of `_TOKEN_ARRAYS` then `_ID_ARRAYS` in order.

    Identical inputs give identical bytes: np.savez opens each member by
    name, and zipfile dates such a member 1980-01-01.
    """
    arrays = {name: np.array(getattr(corpus, name), dtype=np.str_)
              for name in _TOKEN_ARRAYS}
    for name in _ID_ARRAYS:
        owner = corpus if hasattr(corpus, name) else splits
        arrays[name] = np.ascontiguousarray(getattr(owner, name))
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


# what zipfile raises on a damaged archive or member, a bad CRC-32 included
_NPZ_ERRORS = (EOFError, KeyError, NotImplementedError, OSError, RuntimeError,
               zipfile.BadZipFile, zlib.error, lzma.LZMAError)
_NPY_MAGIC = b"\x93NUMPY\x01\x00"
# the .npy 1.0 header np.save writes for a C-order array of a plain dtype
_NPY_HEADER = re.compile(
    rb"\{'descr': '([<>|][biufcSUVO]\d*)', 'fortran_order': False, "
    rb"'shape': \((|\d+,|\d+(?:, \d+)+)\), \} *\n")


def _parse_npy(raw: bytes) -> np.ndarray:
    """The array a .npy 1.0 member holds, a read-only view of `raw`;
    ValueError on any other bytes."""
    if raw[:8] != _NPY_MAGIC or len(raw) < 10:
        raise ValueError("not a .npy 1.0 file")
    end = 10 + int.from_bytes(raw[8:10], "little")
    if len(raw) < end:
        raise ValueError("header runs past the end of the member")
    header = _NPY_HEADER.fullmatch(raw, 10, end)
    if header is None:
        raise ValueError("malformed .npy header")
    descr = header[1].decode()
    try:
        dtype = np.dtype(descr)
    except TypeError:
        raise ValueError(f"unsupported dtype {descr!r}") from None
    if dtype.hasobject or not dtype.itemsize:
        raise ValueError(f"unsupported dtype {descr!r}")
    shape = tuple(int(n) for n in header[2].split(b",") if n)
    nbytes = math.prod(shape) * dtype.itemsize
    if len(raw) - end != nbytes:
        raise ValueError(f"{len(raw) - end} data bytes where the header "
                         f"declares {nbytes}")
    return np.frombuffer(raw, dtype, offset=end).reshape(shape)


def load_prepared(path: str) -> tuple[Corpus, SplitTriplets]:
    """Read a `save_prepared` file back.

    The archive is read with zipfile, so each member's CRC-32 is checked
    before its bytes are parsed. A member must be a .npy 1.0 file whose
    header is exactly what np.save writes for a C-order array of a dtype
    other than object: `{'descr': ..., 'fortran_order': False, 'shape':
    (...), }`, space padding and a newline, then the data bytes the header
    declares and no others. The id arrays of a file `save_prepared` wrote
    are read-only views of those bytes.

    Every malformed file raises ValueError naming `path`: an unreadable
    archive or member, a member that is not such a .npy file, a token array
    that is not 1-D strings, an id array of the wrong type or width, an id
    out of range for its column, or a sentiment other than +1/-1.
    """
    arrays = {}
    with open(path, "rb") as fh:
        try:
            with zipfile.ZipFile(fh) as archive:
                stored = set(archive.namelist())
                for name in _TOKEN_ARRAYS + tuple(_ID_ARRAYS):
                    if f"{name}.npy" not in stored:
                        raise KeyError(f"{name} is not a file in the archive")
                    arrays[name] = archive.read(f"{name}.npy")
        except _NPZ_ERRORS as exc:
            raise ValueError(f"{path}: unreadable prepared corpus: {exc}") from None
    for name, raw in arrays.items():
        try:
            arrays[name] = _parse_npy(raw)
        except ValueError as exc:
            raise ValueError(f"{path}: {name}.npy: {exc}") from None
    for name in _TOKEN_ARRAYS:
        arr = arrays[name]
        if not (arr.ndim == 1 and arr.dtype.kind == "U"):
            raise ValueError(f"{path}: {name} is not a 1-D string array")
        arrays[name] = arr.tolist()
    for name, columns in _ID_ARRAYS.items():
        arr = arrays[name]
        if not (arr.dtype.kind in "iu" and arr.ndim == 2
                and arr.shape[1] == len(columns)):
            raise ValueError(f"{path}: {name} is not an integer array of "
                             f"width {len(columns)}")
        for col, tokens in enumerate(columns):
            ids = arr[:, col]
            if tokens is None:
                if np.any((ids != 1) & (ids != -1)):
                    raise ValueError(f"{path}: {name} has a sentiment other "
                                     f"than +1/-1")
            elif len(ids) and (ids.min() < 0
                               or ids.max() >= len(arrays[tokens])):
                raise ValueError(f"{path}: {name} column {col} has ids outside "
                                 f"[0, {len(arrays[tokens])})")
        arrays[name] = arr.astype(np.int64, copy=False)
    return tuple(cls(**{f.name: arrays[f.name] for f in fields(cls)})
                 for cls in (Corpus, SplitTriplets))


def write_corpus_manifest(path: str, corpus: Corpus, splits: SplitTriplets,
                          dropped: dict) -> None:
    """Write corpus and split counts as key=value lines, then the `dropped`
    row counts in their order."""
    lines = [f"users={corpus.n_users}",
             f"items={corpus.n_items}",
             f"attributes={corpus.n_attrs}",
             f"interactions={len(corpus.interactions)}",
             f"lexicon_entries={len(corpus.lexicon)}",
             f"substitute_pairs={len(corpus.substitute_pairs)}",
             f"train_triplets={len(splits.train)}",
             f"valid_triplets={len(splits.valid)}",
             f"test_triplets={len(splits.test)}"]
    lines += [f"{name}={count}" for name, count in dropped.items()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
