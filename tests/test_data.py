"""Corpus loading, activity filtering, query sampling, and splits."""

import re

import numpy as np
import pytest

from a2cf.data import (QUERY_POP_EXPONENT, Corpus, SplitTriplets,
                       _draw_queries, build_triplets, filter_corpus,
                       load_lexicon, load_prepared, load_reviews,
                       load_substitutes, sample_query_item, save_prepared,
                       split_triplets, write_corpus_manifest)
from conftest import (LEXICON_ROWS, SUB_PAIRS, columns, grid_lexicon,
                      grid_reviews, grid_substitutes, relation_sets,
                      write_corpus_files)


# ---------------------------------------------------------------- loaders

def test_load_reviews_keeps_file_order(tmp_path):
    path = tmp_path / "r.tsv"
    path.write_text("# header\n"
                    "u1\ti1\t4\n"
                    "u2\ti2\t1\t1600000000\n"
                    "\n"
                    "u3\ti1\t5\n")
    assert load_reviews(str(path)) == (["u1", "u2", "u3"], ["i1", "i2", "i1"])


def test_load_reviews_empty_file(tmp_path):
    path = tmp_path / "r.tsv"
    path.write_text("# only a comment\n\n")
    assert load_reviews(str(path)) == ([], [])


def test_load_reviews_rating_out_of_range_names_line(tmp_path):
    path = tmp_path / "r.tsv"
    path.write_text("u1\ti1\t4\nu2\ti2\t7\n")
    with pytest.raises(ValueError, match=r"r\.tsv:2: rating 7 outside \[1, 5\]"):
        load_reviews(str(path))


def test_load_reviews_field_count_error(tmp_path):
    path = tmp_path / "r.tsv"
    path.write_text("u1\ti1\n")
    with pytest.raises(ValueError, match="expected 3 or 4 fields"):
        load_reviews(str(path))


def test_load_reviews_non_integer_rating(tmp_path):
    path = tmp_path / "r.tsv"
    path.write_text("u1\ti1\tgreat\n")
    with pytest.raises(ValueError, match="not an integer"):
        load_reviews(str(path))


def test_load_reviews_non_integer_timestamp_names_line(tmp_path):
    path = tmp_path / "r.tsv"
    path.write_text("u1\ti1\t4\tyesterday\n")
    with pytest.raises(ValueError, match=r"r\.tsv:1: timestamp 'yesterday' "
                                         r"is not an integer"):
        load_reviews(str(path))


def test_load_lexicon_parses_both_sentiments(tmp_path):
    path = tmp_path / "l.tsv"
    path.write_text("u1\ti1\tbattery\t+1\nu2\ti1\tprice\t-1\n")
    assert load_lexicon(str(path)) == (["u1", "u2"], ["i1", "i1"],
                                       ["battery", "price"], [1, -1])


def test_load_lexicon_rejects_zero_sentiment(tmp_path):
    path = tmp_path / "l.tsv"
    path.write_text("u1\ti1\tbattery\t0\n")
    with pytest.raises(ValueError, match="sentiment"):
        load_lexicon(str(path))


def test_load_substitutes_keeps_pairs_as_listed(tmp_path):
    path = tmp_path / "s.tsv"
    path.write_text("i1\ti2\ni2\ti1\ni3\ti1\ni3\ti1\n")
    assert load_substitutes(str(path)) == (["i1", "i2", "i3", "i3"],
                                           ["i2", "i1", "i1", "i1"])


def test_load_substitutes_rejects_self_pair(tmp_path):
    path = tmp_path / "s.tsv"
    path.write_text("i1\ti1\n")
    with pytest.raises(ValueError, match="own substitute"):
        load_substitutes(str(path))


# A line loses only its terminator and surrounding spaces before it is
# split, never a tab, so an empty first or last field keeps its place; an
# extra inner tab on a two-field substitutes line adds a field.
@pytest.mark.parametrize("loader, line, message", [
    (load_reviews, "u1\t\t4", "empty field"),
    (load_reviews, "u1\ti1\t\t1600000000", "empty field"),
    (load_reviews, "\tu2\ti2\t4", "empty field"),
    (load_reviews, "u1\ti1\t5\t", "empty field"),
    (load_lexicon, "u1\t\tbattery\t+1", "empty field"),
    (load_lexicon, "u1\ti1\t\t+1", "empty field"),
    (load_lexicon, "u1\ti1\tbattery\t+1\t", "expected 4 fields, got 5"),
    (load_lexicon, "u1\ti1\tbattery\t", "empty field"),
    (load_substitutes, "i1\t\ti2", "expected 2 fields, got 3"),
    (load_substitutes, "\ti2", "empty field"),
    (load_substitutes, "i1\t", "empty field"),
], ids=["review_item", "review_rating", "review_first", "review_last",
        "lexicon_item", "lexicon_attr", "lexicon_fifth", "lexicon_last",
        "substitute_inner", "substitute_first", "substitute_last"])
def test_loaders_reject_an_empty_field(tmp_path, loader, line, message):
    path = tmp_path / "in.tsv"
    path.write_text(f"# header\n{line}\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: {message}")):
        loader(str(path))


@pytest.mark.parametrize("loader", [load_reviews, load_lexicon,
                                    load_substitutes])
def test_loaders_name_the_file_on_undecodable_bytes(tmp_path, loader):
    path = tmp_path / "in.tsv"
    path.write_bytes(b"# header\nu1\ti\xff1\t4\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: not UTF-8: ")):
        loader(str(path))


# A byte-order mark, as some editors save UTF-8, must not become part of the
# first token or turn a header into a data line.
@pytest.mark.parametrize("loader, line", [
    (load_reviews, "u1\ti1\t4"),
    (load_lexicon, "u1\ti1\tbattery\t+1"),
    (load_substitutes, "i1\ti2"),
], ids=["reviews", "lexicon", "substitutes"])
@pytest.mark.parametrize("text", ["{line}\n", "# header\n{line}\n"],
                         ids=["data_first", "header_first"])
def test_loaders_drop_a_leading_byte_order_mark(tmp_path, loader, line, text):
    plain, bom = tmp_path / "plain.tsv", tmp_path / "bom.tsv"
    plain.write_text(text.format(line=line), encoding="utf-8")
    bom.write_text(text.format(line=line), encoding="utf-8-sig")
    assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
    got = loader(str(bom))
    assert got == loader(str(plain))
    assert got[0] == [line.split("\t")[0]]


# ------------------------------------------------------------- filtering

def assert_same_corpus(got, want):
    assert got.user_tokens == want.user_tokens
    assert got.item_tokens == want.item_tokens
    assert got.attr_tokens == want.attr_tokens
    for name in ("interactions", "lexicon", "substitute_pairs"):
        got_arr, want_arr = getattr(got, name), getattr(want, name)
        assert got_arr.dtype == want_arr.dtype
        np.testing.assert_array_equal(got_arr, want_arr)


def test_filter_removes_user_with_four_interactions():
    users, items = grid_reviews()
    users += ["uX"] * 4
    items += ["p0", "p1", "p2", "p3"]
    corpus = filter_corpus((users, items), grid_lexicon(), grid_substitutes())
    assert "uX" not in corpus.user_tokens
    assert corpus.n_users == 6 and corpus.n_items == 6


def test_filter_attr_mention_threshold_boundary():
    # price has exactly two mentions (kept); weight has one (dropped)
    lex = columns(LEXICON_ROWS + [("uA", "p2", "weight", 1)], 4)
    corpus = filter_corpus(grid_reviews(), lex, grid_substitutes())
    assert "price" in corpus.attr_tokens
    assert "weight" not in corpus.attr_tokens


def test_filter_chain_removal_reaches_fixed_point():
    # core users c0..c4 x items i0..i4 all have degree 5; item "j" has only
    # 4 raters, and user "w" needs j to stay at 5 interactions
    reviews = []
    core_users = [f"c{k}" for k in range(5)]
    core_items = [f"i{k}" for k in range(5)]
    for u in core_users:
        for v in core_items:
            reviews.append((u, v))
    for u in core_users[:3]:
        reviews.append((u, "j"))
    reviews.append(("w", "j"))
    for v in core_items[:4]:
        reviews.append(("w", v))
    lex = (["c0", "c1"], ["i0", "i0"], ["battery", "battery"], [1, -1])
    corpus = filter_corpus(columns(reviews, 2), lex, (["i0"], ["i1"]))
    assert "j" not in corpus.item_tokens
    assert "w" not in corpus.user_tokens
    assert sorted(corpus.user_tokens) == core_users
    assert sorted(corpus.item_tokens) == core_items


def test_filter_is_idempotent(grid_corpus):
    users, items, attrs = (grid_corpus.user_tokens, grid_corpus.item_tokens,
                           grid_corpus.attr_tokens)
    reviews = columns([(users[u], items[v])
                       for u, v in grid_corpus.interactions], 2)
    lex = columns([(users[u], items[v], attrs[a], int(s))
                   for u, v, a, s in grid_corpus.lexicon], 4)
    subs = columns([(items[a], items[b])
                    for a, b in grid_corpus.substitute_pairs], 2)
    assert_same_corpus(filter_corpus(reviews, lex, subs), grid_corpus)


def test_filter_dedupes_repeated_and_reversed_substitute_pairs(grid_corpus):
    """Each pair listed once as is, once more, and once reversed gives the
    corpus of the pairs listed once: the loader keeps repeats, and the
    filter orders and deduplicates the pairs by id."""
    pairs = SUB_PAIRS + SUB_PAIRS + [(b, a) for a, b in SUB_PAIRS]
    got = filter_corpus(grid_reviews(), grid_lexicon(), columns(pairs, 2))
    assert_same_corpus(got, grid_corpus)
    assert len(got.substitute_pairs) == len(SUB_PAIRS)


def test_filter_degree_floors_hold(synth_corpus):
    user_deg = np.zeros(synth_corpus.n_users, dtype=int)
    item_deg = np.zeros(synth_corpus.n_items, dtype=int)
    for u, v in synth_corpus.interactions:
        user_deg[u] += 1
        item_deg[v] += 1
    assert user_deg.min() >= 5
    assert item_deg.min() >= 5
    attr_mentions = np.bincount(synth_corpus.lexicon[:, 2],
                                minlength=synth_corpus.n_attrs)
    assert attr_mentions.min() >= 2


def test_filter_empty_corpus_error():
    reviews = (["u1", "u2"], ["i1", "i1"])
    lex = (["u1"], ["i1"], ["battery"], [1])
    with pytest.raises(ValueError, match="empty after activity filtering"):
        filter_corpus(reviews, lex, ([], []))


def test_filter_no_surviving_attribute_error():
    lex = (["uA"], ["p0"], ["battery"], [1])
    with pytest.raises(ValueError, match="no attribute survives"):
        filter_corpus(grid_reviews(), lex, grid_substitutes())


@pytest.mark.parametrize("thresholds", [(0, 5, 2), (5, 0, 2), (5, 5, 0),
                                        (-1, 1, 1)])
def test_filter_rejects_thresholds_below_one(thresholds):
    with pytest.raises(ValueError, match="activity thresholds must be >= 1"):
        filter_corpus(grid_reviews(), grid_lexicon(), grid_substitutes(),
                      *thresholds)


def set_based_filter(reviews, lexicon, substitutes, min_user_items,
                     min_item_users, min_attr_mentions):
    """Reference: the activity filter as user and item sets beside the pair
    set, pruned by hand-counted degrees until neither set shrinks. Returns
    (corpus, rounds)."""
    pairs = set(zip(*reviews))
    users = {u for u, _ in pairs}
    items = {v for _, v in pairs}
    rounds = 0
    while True:
        rounds += 1
        user_deg: dict = {}
        item_deg: dict = {}
        for u, v in pairs:
            if u in users and v in items:
                user_deg[u] = user_deg.get(u, 0) + 1
                item_deg[v] = item_deg.get(v, 0) + 1
        bad_users = {u for u in users if user_deg.get(u, 0) < min_user_items}
        bad_items = {v for v in items if item_deg.get(v, 0) < min_item_users}
        if not bad_users and not bad_items:
            break
        users -= bad_users
        items -= bad_items
    pairs = {(u, v) for u, v in pairs if u in users and v in items}
    if not pairs:
        raise ValueError("corpus is empty after activity filtering")
    kept_lex = [e for e in zip(*lexicon) if e[0] in users and e[1] in items]
    attr_counts: dict = {}
    for e in kept_lex:
        attr_counts[e[2]] = attr_counts.get(e[2], 0) + 1
    attrs = {a for a, c in attr_counts.items() if c >= min_attr_mentions}
    kept_lex = [e for e in kept_lex if e[2] in attrs]
    if not attrs:
        raise ValueError("no attribute survives the mention threshold")
    uid = {t: i for i, t in enumerate(sorted(users))}
    vid = {t: i for i, t in enumerate(sorted(items))}
    aid = {t: i for i, t in enumerate(sorted(attrs))}
    lex = sorted((uid[u], vid[v], aid[a], s) for u, v, a, s in kept_lex)
    subs = sorted({tuple(sorted((vid[a], vid[b]))) for a, b in zip(*substitutes)
                   if a in vid and b in vid})
    corpus = Corpus(sorted(users), sorted(items), sorted(attrs),
                    np.array(sorted((uid[u], vid[v]) for u, v in pairs),
                             dtype=np.int64),
                    np.array(lex, dtype=np.int64).reshape(-1, 4),
                    np.array(subs, dtype=np.int64).reshape(-1, 2))
    return corpus, rounds


# token prefixes from several scripts, so ids follow code-point order across
# ASCII case, Latin-1, a combining accent and CJK
TOKEN_PREFIXES = ("u", "U", "\u00fc", "\u00e9", "e\u0301", "\u00df", "\u4e2d")


def random_activity_input(rng):
    """Reviews with repeated pairs, a lexicon that also names unreviewed
    and unknown pairs and repeats some rows, substitutes with unknown items
    and repeated or reversed pairs, non-ASCII tokens, and thresholds in
    [1, 4]."""
    def tokens(n):
        return [f"{rng.choice(TOKEN_PREFIXES)}{k}" for k in range(n)]
    users = tokens(int(rng.integers(1, 12)))
    items = tokens(int(rng.integers(1, 12)))
    density = rng.uniform(0.2, 0.95)
    reviews = [(u, v) for u in users for v in items
               if rng.random() < density]
    reviews += reviews[:int(rng.integers(0, 4))]
    reviews = [reviews[k] for k in rng.permutation(len(reviews))]
    names = users + ["ghost"], items + ["void"]
    attrs = tokens(4)
    lexicon = [(str(rng.choice(names[0])), str(rng.choice(names[1])),
                str(rng.choice(attrs)), int(rng.choice([1, -1])))
               for _ in range(int(rng.integers(0, 80)))]
    lexicon += lexicon[:int(rng.integers(0, 6))]
    substitutes = [(str(a), str(b)) for a, b in
                   rng.choice(names[1], size=(int(rng.integers(0, 15)), 2))
                   if a != b]
    substitutes += [(b, a) for a, b in substitutes[:int(rng.integers(0, 3))]]
    thresholds = tuple(int(t) for t in rng.integers(1, 5, size=3))
    return (columns(reviews, 2), columns(lexicon, 4),
            columns(substitutes, 2)) + thresholds


def test_filter_equals_set_based_reference():
    outcomes = []
    for seed in range(120):
        args = random_activity_input(np.random.default_rng(seed))
        try:
            want, rounds = set_based_filter(*args)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                filter_corpus(*args)
            outcomes.append("error")
            continue
        assert_same_corpus(filter_corpus(*args), want)
        outcomes.append(rounds)
    rounds = [o for o in outcomes if o != "error"]
    assert len(rounds) >= 40 and "error" in outcomes
    assert 1 in rounds and max(rounds) >= 3


# ----------------------------------------------------------------- splits

def _distinct_triplets(n):
    idx = np.arange(n, dtype=np.int64)
    return np.stack([idx, idx, idx], axis=1)


def test_split_sizes_floor_then_remainder_to_train():
    splits = split_triplets(_distinct_triplets(1000), seed=5)
    assert len(splits.train) == 800
    assert len(splits.valid) == 100
    assert len(splits.test) == 100


def test_split_same_seed_identical():
    a = split_triplets(_distinct_triplets(500), seed=9)
    b = split_triplets(_distinct_triplets(500), seed=9)
    np.testing.assert_array_equal(a.train, b.train)
    np.testing.assert_array_equal(a.valid, b.valid)
    np.testing.assert_array_equal(a.test, b.test)
    c = split_triplets(_distinct_triplets(500), seed=10)
    assert not np.array_equal(a.train, c.train)


def test_split_drops_test_rows_sharing_query_positive_with_train():
    # every row shares (query, positive) = (1, 2), so whatever lands in the
    # test slice collides with training and is discarded
    rows = np.array([(u, 1, 2) for u in range(10)], dtype=np.int64)
    splits = split_triplets(rows, seed=3)
    assert len(splits.train) == 8
    assert len(splits.valid) == 1
    assert len(splits.test) == 0


def test_split_drops_test_rows_sharing_user_positive_with_train():
    rows = np.array([(0, q, 2) for q in range(10)], dtype=np.int64)
    splits = split_triplets(rows, seed=3)
    assert len(splits.test) == 0


def set_based_split(triplets, seed, ratios):
    """Reference: the split with its leak check as Python sets of the
    training (user, positive) and (query, positive) pairs."""
    n = len(triplets)
    shuffled = triplets[np.random.default_rng(seed).permutation(n)]
    n_valid, n_test = int(n * ratios[1]), int(n * ratios[2])
    n_train = n - n_valid - n_test
    train, valid, test = np.split(shuffled, [n_train, n_train + n_valid])
    train_up = {(int(u), int(p)) for u, _, p in train}
    train_qp = {(int(q), int(p)) for _, q, p in train}
    keep = np.array([(int(u), int(p)) not in train_up
                     and (int(q), int(p)) not in train_qp
                     for u, q, p in test], dtype=bool)
    return train, valid, test[keep]


def test_split_equals_set_based_reference():
    ratio_choices = [(0.8, 0.1, 0.1), (0.0, 0.5, 0.5), (0.0, 0.0, 1.0),
                     (0.5, 0.0, 0.5), (0.3, 0.3, 0.4), (1.0, 0.0, 0.0)]
    outcomes = set()
    for seed in range(150):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 120))
        high = int(rng.choice([2, 8, 50, 10**6 + 1]))
        triplets = rng.integers(0, high, size=(n, 3), dtype=np.int64)
        ratios = ratio_choices[seed % len(ratio_choices)]
        got = split_triplets(triplets, seed, ratios)
        want = set_based_split(triplets, seed, ratios)
        for part, want_part in zip((got.train, got.valid, got.test), want):
            assert part.dtype == want_part.dtype
            np.testing.assert_array_equal(part, want_part)
        n_test = n - len(got.train) - len(got.valid)
        if not len(got.train):
            outcomes.add("train empty")
        if n_test and not len(got.test):
            outcomes.add("all leaked")
        if n_test and len(got.test) == n_test:
            outcomes.add("none leaked")
        if 0 < len(got.test) < n_test:
            outcomes.add("some leaked")
        if len(got.test) and triplets.max() > 10**5:
            outcomes.add("large ids")
    assert outcomes == {"train empty", "all leaked", "none leaked",
                        "some leaked", "large ids"}


def test_split_bad_ratios_error():
    with pytest.raises(ValueError, match="ratios"):
        split_triplets(_distinct_triplets(10), seed=1, ratios=(0.5, 0.3, 0.3))


# -------------------------------------------------------- query sampling

def _sampling_corpus(pop_a, pop_b, extra=()):
    """Items a=0, b=1, pos=2; user 0 owns only pos; a and b get the given
    distinct-user popularity counts; `extra` adds (user, item) rows."""
    n_users = 1 + pop_a + pop_b
    inter = [(0, 2)]
    inter += [(1 + k, 0) for k in range(pop_a)]
    inter += [(1 + pop_a + k, 1) for k in range(pop_b)]
    inter += list(extra)
    return Corpus(user_tokens=[f"u{k:02d}" for k in range(n_users)],
                  item_tokens=["a", "b", "pos"],
                  attr_tokens=["x"],
                  interactions=np.array(inter, dtype=np.int64),
                  lexicon=np.empty((0, 4), dtype=np.int64),
                  substitute_pairs=np.array([(0, 2), (1, 2)], dtype=np.int64))


def test_query_sampling_popularity_exponent():
    # pop 16 vs 1 gives weights 8 vs 1, so P(a) = 8/9
    corpus = _sampling_corpus(16, 1)
    rng = np.random.default_rng(0)
    n = 100_000
    hits = sum(sample_query_item(0, 2, corpus, rng) == 0 for _ in range(n))
    p = 8.0 / 9.0
    sigma = (p * (1 - p) / n) ** 0.5
    assert abs(hits / n - p) < 3 * sigma


def test_query_sampling_singleton_pool():
    # user 1 interacted with a (and pos), so only b remains in the pool
    corpus = _sampling_corpus(3, 2, extra=[(1, 2)])
    rng = np.random.default_rng(1)
    pool_draws = {sample_query_item(1, 2, corpus, rng) for _ in range(20)}
    assert pool_draws == {1}


def test_query_sampling_uniform_when_popularity_equal():
    n_users = 4
    inter = [(0, 3), (1, 0), (2, 1), (3, 2)]
    corpus = Corpus(user_tokens=[f"u{k}" for k in range(n_users)],
                    item_tokens=["a", "b", "c", "pos"],
                    attr_tokens=["x"],
                    interactions=np.array(inter, dtype=np.int64),
                    lexicon=np.empty((0, 4), dtype=np.int64),
                    substitute_pairs=np.array([(0, 3), (1, 3), (2, 3)],
                                              dtype=np.int64))
    rng = np.random.default_rng(2)
    n = 100_000
    counts = np.zeros(3, dtype=int)
    for _ in range(n):
        counts[sample_query_item(0, 3, corpus, rng)] += 1
    np.testing.assert_allclose(counts / n, 1.0 / 3.0, atol=0.01)


def test_query_sampling_zero_popularity_fallback_uniform():
    # neither candidate was ever interacted with: weights are all zero and
    # the sampler falls back to a uniform draw
    corpus = Corpus(user_tokens=["u0"], item_tokens=["a", "b", "pos"],
                    attr_tokens=["x"],
                    interactions=np.array([(0, 2)], dtype=np.int64),
                    lexicon=np.empty((0, 4), dtype=np.int64),
                    substitute_pairs=np.array([(0, 2), (1, 2)], dtype=np.int64))
    rng = np.random.default_rng(3)
    counts = np.zeros(2, dtype=int)
    for _ in range(1000):
        counts[sample_query_item(0, 2, corpus, rng)] += 1
    assert counts.min() > 400


def test_query_sampling_empty_pool_error():
    corpus = _sampling_corpus(2, 2, extra=[(0, 0), (0, 1)])
    with pytest.raises(ValueError, match="no query candidate"):
        sample_query_item(0, 2, corpus, np.random.default_rng(0))


def test_query_sampling_invariants_on_synthetic(synth_corpus):
    user_items, substitutes = relation_sets(synth_corpus)
    rng = np.random.default_rng(4)
    for u, v in synth_corpus.interactions[:200]:
        u, v = int(u), int(v)
        pool = substitutes[v] - user_items[u]
        if not pool:
            continue
        q = sample_query_item(u, v, synth_corpus, rng)
        assert q in substitutes[v]
        assert q not in user_items[u]


# --------------------------------------------------------------- triplets

def test_build_triplets_one_per_eligible_interaction(synth_corpus):
    user_items, substitutes = relation_sets(synth_corpus)
    triplets = build_triplets(synth_corpus, np.random.default_rng(5))
    assert 0 < len(triplets) <= len(synth_corpus.interactions)
    for u, q, p in triplets:
        u, q, p = int(u), int(q), int(p)
        assert p in user_items[u]
        assert q in substitutes[p]
        assert q not in user_items[u]
    again = build_triplets(synth_corpus, np.random.default_rng(5))
    np.testing.assert_array_equal(triplets, again)


def test_build_triplets_error_when_all_pools_exhausted(grid_corpus):
    # grid users interacted with every item, so no query candidate exists
    with pytest.raises(ValueError, match="no triplet"):
        build_triplets(grid_corpus, np.random.default_rng(6))


def set_based_popularity(corpus):
    """Distinct users per item, counted from the Python sets."""
    popularity = np.zeros(corpus.n_items, dtype=np.int64)
    for items in relation_sets(corpus)[0]:
        for v in items:
            popularity[v] += 1
    return popularity


def pool_probs(pool, popularity):
    """The query probabilities of one pool, from its own weights."""
    weights = popularity[pool].astype(np.float64) ** QUERY_POP_EXPONENT
    total = weights.sum()
    if total <= 0.0:
        return np.full(len(pool), 1.0 / len(pool))
    return weights / total


def set_based_triplets(corpus, rng):
    """Reference: one query per interaction drawn from the Python-set
    difference substitutes - user items, weighted by popularity**0.75."""
    user_items, substitutes = relation_sets(corpus)
    popularity = set_based_popularity(corpus)
    rows = []
    for u, v in corpus.interactions:
        u, v = int(u), int(v)
        pool = sorted(substitutes[v] - user_items[u])
        if not pool:
            continue
        probs = pool_probs(pool, popularity)
        rows.append((u, int(pool[rng.choice(len(pool), p=probs)]), v))
    if not rows:
        raise ValueError("no triplet could be formed from the corpus")
    return np.array(rows, dtype=np.int64)


def random_corpus(rng):
    """A small corpus with empty pools, items without substitutes, items
    nobody bought, and one interaction row repeated."""
    n_users, n_items = int(rng.integers(1, 7)), int(rng.integers(2, 13))
    inter = [(u, v) for u in range(n_users) for v in range(n_items)
             if rng.random() < rng.uniform(0.1, 0.9)]
    pairs = [(a, b) for a in range(n_items) for b in range(a + 1, n_items)
             if rng.random() < 0.3]
    if inter:
        inter.insert(int(rng.integers(len(inter))), inter[0])
    return Corpus(user_tokens=[f"u{u}" for u in range(n_users)],
                  item_tokens=[f"i{v}" for v in range(n_items)],
                  attr_tokens=["x"],
                  interactions=np.array(inter, dtype=np.int64).reshape(-1, 2),
                  lexicon=np.empty((0, 4), dtype=np.int64),
                  substitute_pairs=np.array(pairs, dtype=np.int64).reshape(-1, 2))


def triplet_outcome(builder, corpus, seed):
    rng = np.random.default_rng(seed)
    try:
        result = builder(corpus, rng)
    except ValueError as exc:
        result = str(exc)
    return result, rng.bit_generator.state


@pytest.mark.parametrize("seed", range(12))
def test_build_triplets_equals_set_based_reference(seed):
    corpus = random_corpus(np.random.default_rng(seed))
    np.testing.assert_array_equal(
        corpus.query_weights,
        set_based_popularity(corpus).astype(np.float64) ** QUERY_POP_EXPONENT)
    got, got_state = triplet_outcome(build_triplets, corpus, seed + 100)
    want, want_state = triplet_outcome(set_based_triplets, corpus, seed + 100)
    if isinstance(want, str):
        assert got == want
    else:
        np.testing.assert_array_equal(got, want)
    assert got_state == want_state


def pool_corpus(rng):
    """A corpus whose pools include singletons, pools of items nobody bought
    (popularity 0, so the draw falls back to uniform), and, around a few
    hub items with many substitutes, pools of up to 20 items."""
    n_users, n_items = int(rng.integers(2, 9)), int(rng.integers(6, 49))
    unsold = rng.random(n_items) < 0.4
    inter = [(u, v) for u in range(n_users) for v in range(n_items)
             if not unsold[v] and rng.random() < 0.5]
    pairs = {tuple(sorted((a, int(b)))) for a in range(n_items)
             for b in rng.choice(n_items, size=int(
                 rng.integers(0, 4 if rng.random() < 0.9 else 40)))
             if a != b}
    return Corpus(user_tokens=[f"u{u}" for u in range(n_users)],
                  item_tokens=[f"i{v}" for v in range(n_items)],
                  attr_tokens=["x"],
                  interactions=np.array(inter, dtype=np.int64).reshape(-1, 2),
                  lexicon=np.empty((0, 4), dtype=np.int64),
                  substitute_pairs=np.array(sorted(pairs),
                                            dtype=np.int64).reshape(-1, 2))


def test_build_triplets_batched_draws_equal_per_pool_choice():
    # build_triplets stacks pools of one length and draws them together;
    # each draw must be the one rng.choice makes on the pool alone. Pools
    # of 8 to 20 weighted items put numpy's 8-accumulator pairwise row sum,
    # with and without a remainder, against the 1-D sum, and one length
    # holds both an unsold (uniform) pool and a weighted one.
    # A draw that lands on a CDF value, or just below it, tells the two
    # CDFs apart by one ulp, which random draws almost never do.
    weighted, unsold = set(), set()
    for seed in range(40):
        corpus = pool_corpus(np.random.default_rng(seed))
        user_items, substitutes = relation_sets(corpus)
        popularity = set_based_popularity(corpus)
        by_length = {}
        for u, v in corpus.interactions:
            pool = sorted(substitutes[v] - user_items[u])
            if pool:
                sizes = weighted if popularity[pool].any() else unsold
                sizes.add(len(pool))
                by_length.setdefault(len(pool), []).append(pool)
        for pools in by_length.values():
            stack = np.array(pools, dtype=np.int64)
            # rng.choice's CDF of each pool
            cdf = np.array([pool_probs(pool, popularity).cumsum()
                            for pool in pools])
            cdf /= cdf[:, -1:]
            # draws lie in [0, 1): a CDF value of 1 is replaced by 0
            for draws in (*np.where(cdf < 1.0, cdf, 0.0).T,
                          *np.nextafter(cdf, 0.0).T):
                want = [pool[np.searchsorted(row, u, side="right")]
                        for pool, row, u in zip(pools, cdf, draws)]
                np.testing.assert_array_equal(
                    _draw_queries(stack, corpus.query_weights, draws), want)
        got, got_state = triplet_outcome(build_triplets, corpus, seed + 500)
        want, want_state = triplet_outcome(set_based_triplets, corpus,
                                           seed + 500)
        if isinstance(want, str):
            assert got == want
        else:
            np.testing.assert_array_equal(got, want)
        assert got_state == want_state
    assert 1 in weighted and set(range(8, 21)) <= weighted
    assert weighted & unsold


def test_query_weight_table_equals_per_pool_power():
    # build_triplets takes popularity**0.75 once over the whole item vector
    # and indexes it; the draw it must match raises each pool on its own.
    # A weight's bits must therefore not depend on where its value sits in
    # the array (a SIMD lane, an unaligned view, a remainder loop).
    values = np.arange(5001, dtype=np.float64)
    want = np.concatenate([np.array([x]) ** QUERY_POP_EXPONENT
                           for x in values]).view(np.uint64)
    np.testing.assert_array_equal(
        (values ** QUERY_POP_EXPONENT).view(np.uint64), want)
    for length in range(1, 41):
        pad = -len(values) % length
        index = np.concatenate([np.arange(len(values)), np.arange(pad)])
        for shift in range(length):
            rows = np.roll(index.reshape(-1, length), shift, axis=1)
            stack = values[rows]
            got = np.concatenate([row ** QUERY_POP_EXPONENT for row in stack])
            np.testing.assert_array_equal(got.view(np.uint64),
                                          want[rows.ravel()])


# ------------------------------------------------------------ persistence

def test_prepared_roundtrip_and_byte_determinism(tmp_path, synth_corpus,
                                                 synth_splits):
    p1 = tmp_path / "one.npz"
    p2 = tmp_path / "two.npz"
    save_prepared(str(p1), synth_corpus, synth_splits)
    save_prepared(str(p2), synth_corpus, synth_splits)
    assert p1.read_bytes() == p2.read_bytes()
    corpus, splits = load_prepared(str(p1))
    # derived structures are built on first use, never by loading
    assert set(vars(corpus)) == {"user_tokens", "item_tokens", "attr_tokens",
                                 "interactions", "lexicon", "substitute_pairs"}
    assert corpus.user_tokens == synth_corpus.user_tokens
    assert corpus.item_tokens == synth_corpus.item_tokens
    assert corpus.attr_tokens == synth_corpus.attr_tokens
    np.testing.assert_array_equal(corpus.interactions, synth_corpus.interactions)
    np.testing.assert_array_equal(corpus.lexicon, synth_corpus.lexicon)
    np.testing.assert_array_equal(splits.train, synth_splits.train)
    np.testing.assert_array_equal(splits.test, synth_splits.test)


def test_loaded_members_equal_np_load(tmp_path, synth_corpus, synth_splits):
    """np.load, which parses any .npy header, is the reference for the
    loader's own parser: each of the nine members comes back equal, with
    np.load's dtype and shape, and each id array is a read-only view."""
    path = tmp_path / "prepared.npz"
    save_prepared(str(path), synth_corpus, synth_splits)
    corpus, splits = load_prepared(str(path))
    with np.load(path, allow_pickle=False) as blob:
        assert len(blob.files) == 9
        for name in blob.files:
            want = blob[name]
            got = getattr(corpus if hasattr(corpus, name) else splits, name)
            if want.dtype.kind == "U":
                got = np.array(got)
            else:
                assert not got.flags.writeable
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            np.testing.assert_array_equal(got, want)


def test_corpus_manifest_contents(tmp_path, grid_corpus):
    path = tmp_path / "corpus.manifest"
    rows = np.zeros((3, 3), dtype=np.int64)
    splits = SplitTriplets(train=rows[:2], valid=rows[:1], test=rows[:0])
    write_corpus_manifest(str(path), grid_corpus, splits,
                          {"leaked_test_triplets": 4})
    text = path.read_text()
    assert text.splitlines()[-4:] == [
        "train_triplets=2", "valid_triplets=1", "test_triplets=0",
        "leaked_test_triplets=4"]
    assert "users=6" in text
    assert "items=6" in text
    assert "attributes=3" in text
    assert "interactions=36" in text
