"""Synthetic corpus generator: determinism, structure, recoverability."""

import collections

import numpy as np
import pytest

from a2cf.synthetic import (TIMESTAMP_BASE, TIMESTAMP_STEP, SyntheticSpec,
                            generate_synthetic)

SMALL = dict(users=30, items=24, attributes=12, clusters=8,
             functional_attrs=6)


@pytest.mark.parametrize("kwargs,match", [
    (dict(users=0), "users and items"),
    (dict(items=0), "users and items"),
    (dict(interactions_per_user=4), "activity filter"),
    (dict(items=10, clusters=20), "one item per cluster"),
    (dict(items=20, clusters=15), "2 items to form"),
    (dict(taste_profiles=0), "taste_profiles"),
    (dict(attributes=17), "vocabulary too small"),
    (dict(salient_attrs=16), "salient_attrs exceeds"),
    (dict(cared_attrs=16), "cared_attrs exceeds"),
    (dict(home_clusters=21), "home_clusters exceeds"),
    (dict(users=5), "enough coverage"),
    (dict(noise=0.6), "noise"),
])
def test_spec_validation(kwargs, match):
    with pytest.raises(ValueError, match=match):
        SyntheticSpec(**kwargs)


def test_output_paths_and_headers(synth_paths):
    assert set(synth_paths) == {"reviews", "lexicon", "substitutes", "planted"}
    with open(synth_paths["reviews"]) as fh:
        assert fh.readline() == "# user\titem\trating\ttimestamp\n"
    with open(synth_paths["lexicon"]) as fh:
        assert fh.readline() == "# user\titem\tattribute\tsentiment\n"
    with open(synth_paths["substitutes"]) as fh:
        assert fh.readline() == "# item\titem\n"


def test_same_seed_reproduces_identical_files(tmp_path):
    spec = SyntheticSpec(**SMALL)
    a = generate_synthetic(spec, 5, str(tmp_path / "a"))
    b = generate_synthetic(spec, 5, str(tmp_path / "b"))
    for name in ("reviews", "lexicon", "substitutes"):
        with open(a[name], "rb") as fa, open(b[name], "rb") as fb:
            assert fa.read() == fb.read()
    pa, pb = np.load(a["planted"]), np.load(b["planted"])
    assert set(pa.files) == set(pb.files)
    for key in pa.files:
        np.testing.assert_array_equal(pa[key], pb[key])


def test_different_seed_differs(tmp_path):
    spec = SyntheticSpec(**SMALL)
    a = generate_synthetic(spec, 5, str(tmp_path / "a"))
    b = generate_synthetic(spec, 6, str(tmp_path / "b"))
    with open(a["reviews"], "rb") as fa, open(b["reviews"], "rb") as fb:
        assert fa.read() != fb.read()


def test_corpus_survives_activity_filter(synth_corpus):
    assert synth_corpus.n_users == 50
    assert synth_corpus.n_items == 60
    assert synth_corpus.n_attrs == 20


def test_review_rows_well_formed(synth_paths):
    with open(synth_paths["reviews"]) as fh:
        rows = [ln.rstrip("\n").split("\t") for ln in fh if not ln.startswith("#")]
    timestamps = []
    for user, item, rating, ts in rows:
        assert user.startswith("u") and len(user) == 4
        assert item.startswith("i") and len(item) == 4
        assert 1 <= int(rating) <= 5
        timestamps.append(int(ts))
    assert timestamps[0] == TIMESTAMP_BASE
    diffs = np.diff(timestamps)
    assert (diffs == TIMESTAMP_STEP).all()


def test_substitutes_are_exactly_within_cluster_pairs(synth_paths):
    planted = np.load(synth_paths["planted"])
    cluster_of = planted["cluster_of"]
    expected = set()
    for c in np.unique(cluster_of):
        members = np.nonzero(cluster_of == c)[0]
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                expected.add((int(members[i]), int(members[j])))
    with open(synth_paths["substitutes"]) as fh:
        got = {tuple(int(tok[1:]) for tok in ln.split())
               for ln in fh if not ln.startswith("#")}
    assert got == expected
    assert len(got) == 10 * (6 * 5 // 2)


def test_planted_structure(synth_paths):
    planted = np.load(synth_paths["planted"])
    assert set(planted.files) == {"preferences", "quality", "salient",
                                  "cluster_of", "cared", "home",
                                  "archetype_of", "style_of", "block_of"}
    prefs = planted["preferences"]
    assert prefs.shape == (50, 20)
    np.testing.assert_allclose(prefs.sum(axis=1), 1.0, atol=1e-12)
    assert (prefs > 0).all()
    assert (planted["cared"].sum(axis=1) == 2).all()
    assert (planted["home"].sum(axis=1) == 3).all()
    salient = planted["salient"]
    assert (salient.sum(axis=1) == 3).all()
    block_of = planted["block_of"]
    assert (block_of[:15] == -1).all()          # functional pool is unstyled
    assert set(block_of[15:].tolist()) == {0, 1, 2}
    assert not salient[:, 15:].any()            # salient sets stay functional
    np.testing.assert_array_equal(planted["style_of"], np.arange(60) % 3)
    cluster_of = planted["cluster_of"]
    assert (np.diff(cluster_of) >= 0).all()
    assert collections.Counter(cluster_of.tolist()) == {c: 6 for c in range(10)}
    assert planted["archetype_of"].min() >= 0
    assert planted["archetype_of"].max() < 3


def test_degree_and_mention_floors(synth_corpus):
    per_item = collections.defaultdict(set)
    per_user = collections.defaultdict(set)
    for u, v in synth_corpus.interactions:
        per_item[int(v)].add(int(u))
        per_user[int(u)].add(int(v))
    assert min(len(s) for s in per_item.values()) >= 5
    assert min(len(s) for s in per_user.values()) >= 10
    mentions = collections.Counter(int(a) for _, _, a, _ in synth_corpus.lexicon)
    assert set(mentions) == set(range(20))
    assert min(mentions.values()) >= 2


def test_lexicon_sentiments_and_density(synth_corpus):
    sentiments = synth_corpus.lexicon[:, 3]
    assert set(np.unique(sentiments).tolist()) <= {-1, 1}
    per_interaction = len(synth_corpus.lexicon) / len(synth_corpus.interactions)
    assert 2.0 <= per_interaction <= 3.2


def test_modal_mentioned_attribute_tracks_planted_preferences(synth_paths,
                                                              synth_corpus):
    prefs = np.load(synth_paths["planted"])["preferences"]
    per_user = collections.defaultdict(collections.Counter)
    for u, _, a, _ in synth_corpus.lexicon:
        per_user[int(u)][int(a)] += 1
    hits = 0
    for u in range(synth_corpus.n_users):
        modal = per_user[u].most_common(1)[0][0]
        top3 = set(np.argsort(-prefs[u], kind="stable")[:3].tolist())
        hits += modal in top3
    # chance rate would be 3/20; the planted taste dominates mention choice
    assert hits / synth_corpus.n_users >= 0.8


def test_exhausted_home_clusters_fall_back_to_other_home_items(tmp_path):
    """Two items per cluster and three home clusters give each user six home
    items, fewer than its eight draws: it buys every home item once, then
    stops. With one buyer required per item, coverage repair is the only
    purchase outside a user's home clusters, of an item nobody else bought."""
    spec = SyntheticSpec(users=30, items=40, attributes=20, clusters=20,
                         interactions_per_user=8, min_item_users=1)
    paths = generate_synthetic(spec, 3, str(tmp_path))
    with np.load(paths["planted"]) as planted:
        home, cluster_of = planted["home"], planted["cluster_of"]
    with open(paths["reviews"]) as fh:
        bought = [(int(line[1:4]), int(line[6:9])) for line in fh
                  if not line.startswith("#")]
    assert len(set(bought)) == len(bought)
    buyers = collections.Counter(v for _, v in bought)
    for u in range(spec.users):
        items = {v for w, v in bought if w == u}
        home_items = set(np.flatnonzero(home[u, cluster_of]).tolist())
        assert home_items <= items
        assert all(buyers[v] == 1 for v in items - home_items)
