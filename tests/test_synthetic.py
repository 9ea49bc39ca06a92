"""Synthetic corpus generator: determinism, structure, recoverability."""

import collections
import os

import numpy as np
import pytest

import a2cf.synthetic as synthetic
from a2cf.data import (MIN_ATTR_MENTIONS, MIN_ITEM_USERS, filter_corpus,
                       load_lexicon, load_reviews, load_substitutes)
from a2cf.synthetic import (TIMESTAMP_BASE, TIMESTAMP_STEP, SyntheticSpec,
                            _inverse_cdf, _tokens, generate_synthetic)

SMALL = dict(users=30, items=24, attributes=12, clusters=8,
             functional_attrs=6)
# the corpora of the bench workloads, as bench/run.py's WORKLOADS spell them
PLANTED = dict(interactions_per_user=22, home_clusters=5)
CATALOG = dict(users=300, items=1010, attributes=100, clusters=101,
               functional_attrs=40, interactions_per_user=22, home_clusters=5)
# every user exhausts its home items; run with MIN_ITEM_USERS at 1
EXHAUSTED = dict(users=30, items=40, attributes=20, clusters=20,
                 interactions_per_user=8)
# 60 attributes over a few dozen reviews: some get fewer than two mentions
SPARSE_MENTIONS = dict(users=8, items=16, attributes=60, clusters=4,
                       functional_attrs=6, interactions_per_user=5,
                       home_clusters=2)


@pytest.mark.parametrize("kwargs,match", [
    (dict(users=0), "users and items"),
    (dict(items=0), "users and items"),
    (dict(interactions_per_user=4), "activity filter"),
    (dict(items=10, clusters=20), "one item per cluster"),
    (dict(items=20, clusters=15), "2 items to form"),
    (dict(functional_attrs=2), "functional_attrs must be >= 3"),
    (dict(attributes=17), "vocabulary too small"),
    (dict(functional_attrs=28), "vocabulary too small"),
    (dict(noise=-0.1), "noise"),
    (dict(home_clusters=21), "home_clusters exceeds"),
    (dict(users=5), "enough coverage"),
    (dict(noise=0.6), "noise"),
    (dict(home_clusters=0), "home_clusters must be >= 1"),
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
    for name in ("reviews", "lexicon", "substitutes", "planted"):
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


def test_corpus_survives_activity_filter(synth_corpus, tmp_path):
    """The default activity filter keeps every user, item and attribute of
    the conftest corpus and of the bench corpora at seeds 1 and 2."""
    assert synth_corpus.n_users == 50
    assert synth_corpus.n_items == 60
    assert synth_corpus.n_attrs == 20
    for name, kwargs in (("planted", PLANTED), ("catalog", CATALOG)):
        for seed in (1, 2):
            spec = SyntheticSpec(**kwargs)
            paths = generate_synthetic(spec, seed,
                                       str(tmp_path / f"{name}{seed}"))
            corpus = filter_corpus(load_reviews(paths["reviews"]),
                                   load_lexicon(paths["lexicon"]),
                                   load_substitutes(paths["substitutes"]))
            assert (corpus.n_users, corpus.n_items, corpus.n_attrs) == (
                spec.users, spec.items, spec.attributes), (name, seed)


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
    assert min(len(s) for s in per_item.values()) >= MIN_ITEM_USERS
    # each user keeps every one of its draws through the filter
    assert min(len(s) for s in per_user.values()) >= (
        SyntheticSpec.interactions_per_user)
    mentions = collections.Counter(int(a) for _, _, a, _ in synth_corpus.lexicon)
    assert set(mentions) == set(range(20))
    assert min(mentions.values()) >= MIN_ATTR_MENTIONS


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


def test_exhausted_home_clusters_fall_back_to_other_home_items(tmp_path,
                                                               monkeypatch):
    """Two items per cluster and three home clusters give each user six home
    items, fewer than its eight draws: it buys every home item once, then
    stops. With one buyer required per item, coverage repair is the only
    purchase outside a user's home clusters, of an item nobody else bought."""
    monkeypatch.setattr(synthetic, "MIN_ITEM_USERS", 1)
    spec = SyntheticSpec(**EXHAUSTED)
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


def test_non_finite_choice_weights_raise(tmp_path, monkeypatch):
    monkeypatch.setattr(synthetic, "POP_SPREAD", np.inf)
    with pytest.raises(ValueError, match="non-finite value in pop_boost"):
        generate_synthetic(SyntheticSpec(**SMALL), 1, str(tmp_path))


def choice_based_synthetic(spec, seed, out_dir):
    """Reference: the generator with every weighted draw made by
    `rng.choice(..., p=probs)` and the rating clipped by a scalar `np.clip`.
    The module's constants are read when it runs, so a test may patch them.
    Returns (paths, fired), `fired` naming the fallback and repair branches
    the run took."""
    fired = set()
    rng = np.random.default_rng(seed)
    os.makedirs(out_dir, exist_ok=True)
    U, V, A, C = spec.users, spec.items, spec.attributes, spec.clusters
    T, F = synthetic.TASTE_PROFILES, spec.functional_attrs
    salient_attrs, cared_attrs = synthetic.SALIENT_ATTRS, synthetic.CARED_ATTRS
    block_of = np.full(A, -1, dtype=np.int64)
    for t, blk in enumerate(np.array_split(np.arange(F, A), T)):
        block_of[blk] = t
    cluster_of = np.repeat(np.arange(C), -(-V // C))[:V]
    style_of = np.arange(V) % T
    salient = np.zeros((C, A), dtype=bool)
    for c in range(C):
        salient[c, rng.choice(F, size=salient_attrs, replace=False)] = True
    quality = rng.uniform(-0.2, 0.2, size=(V, A))
    for v in range(V):
        own = block_of == style_of[v]
        other = (block_of >= 0) & ~own
        quality[v, own] = rng.uniform(0.4, 1.0, size=int(own.sum()))
        quality[v, other] = rng.uniform(-0.9, -0.4, size=int(other.sum()))
        sal = salient[cluster_of[v]]
        quality[v, sal] = rng.uniform(0.3, 1.0, size=int(sal.sum()))
    gate = np.where(salient[cluster_of] | (block_of >= 0)[None, :], 1.0, 0.08)
    item_signal = quality * gate
    archetype_of = rng.integers(0, T, size=U)
    prefs = np.full((U, A), 0.02)
    cared = np.zeros((U, A), dtype=bool)
    home = np.zeros((U, C), dtype=bool)
    for u in range(U):
        pick = rng.choice(F, size=cared_attrs, replace=False)
        cared[u, pick] = True
        prefs[u, pick] += rng.uniform(0.5, 1.0, size=cared_attrs)
        own = block_of == archetype_of[u]
        prefs[u, own] += rng.uniform(0.5, 1.0, size=int(own.sum()))
        overlap = salient @ prefs[u] + 1e-6 * rng.random(C)
        home[u, np.argsort(-overlap)[:spec.home_clusters]] = True
    prefs /= prefs.sum(axis=1, keepdims=True)
    affinity = prefs @ item_signal.T
    pop_boost = rng.normal(0.0, synthetic.POP_SPREAD, size=V)
    cluster_items = [np.nonzero(cluster_of == c)[0] for c in range(C)]
    interactions = []
    bought = np.zeros((U, V), dtype=bool)
    for u in range(U):
        homes = np.nonzero(home[u])[0]
        for _ in range(spec.interactions_per_user):
            c = int(homes[rng.integers(len(homes))])
            avail = cluster_items[c][~bought[u, cluster_items[c]]]
            if len(avail) == 0:
                fired.add("home fallback")
                avail = np.flatnonzero(home[u, cluster_of] & ~bought[u])
                if len(avail) == 0:
                    fired.add("home items exhausted")
                    break
            logits = ((affinity[u, avail] + pop_boost[avail])
                      / synthetic.CHOICE_TEMP)
            probs = np.exp(logits - logits.max())
            probs /= probs.sum()
            v = int(avail[rng.choice(len(avail), p=probs)])
            bought[u, v] = True
            interactions.append((u, v))
    deficits = synthetic.MIN_ITEM_USERS - bought.sum(axis=0)
    for v in np.flatnonzero(deficits > 0):
        fired.add("coverage repair")
        outsiders = np.flatnonzero(~bought[:, v])
        order = outsiders[np.argsort(-affinity[outsiders, v], kind="stable")]
        interactions += [(int(u), int(v)) for u in order[:deficits[v]]]
    aff_scale = float(np.std(affinity)) + 1e-12
    mention_gate = 0.08 + 0.92 * (salient[cluster_of]
                                  | (block_of[None, :] == style_of[:, None]))
    reviews, lexicon = [], []
    attr_count = np.zeros(A, dtype=np.int64)
    for idx, (u, v) in enumerate(interactions):
        z = affinity[u, v] / aff_scale
        rating = int(np.clip(np.rint(3.0 + 1.5 * np.tanh(z)
                                     + 0.5 * rng.standard_normal()), 1,
                             synthetic.RATING_MAX))
        reviews.append((u, v, rating, TIMESTAMP_BASE + idx * TIMESTAMP_STEP))
        n_mentions = 2 + int(rng.random() < 0.5)
        weights = (0.02 + prefs[u]) * mention_gate[v]
        probs = weights / weights.sum()
        for a in rng.choice(A, size=n_mentions, p=probs):
            a = int(a)
            sentiment = 1 if quality[v, a] >= 0 else -1
            if rng.random() < spec.noise:
                sentiment = -sentiment
            lexicon.append((u, v, a, sentiment))
            attr_count[a] += 1
    for a in range(A):
        need = 2 - int(attr_count[a])
        for k in range(max(0, need)):
            fired.add("mention repair")
            u, v = interactions[k % len(interactions)]
            lexicon.append((u, v, a, 1))
            attr_count[a] += 1
    user_tok, item_tok, attr_tok = _tokens("u", U), _tokens("i", V), _tokens("a", A)
    paths = {name: os.path.join(out_dir, fname) for name, fname in (
        ("reviews", "reviews.tsv"), ("lexicon", "lexicon.tsv"),
        ("substitutes", "substitutes.tsv"), ("planted", "planted.npz"))}
    with open(paths["reviews"], "w", encoding="utf-8") as fh:
        fh.write("# user\titem\trating\ttimestamp\n")
        for u, v, r, ts in reviews:
            fh.write(f"{user_tok[u]}\t{item_tok[v]}\t{r}\t{ts}\n")
    with open(paths["lexicon"], "w", encoding="utf-8") as fh:
        fh.write("# user\titem\tattribute\tsentiment\n")
        for u, v, a, s in lexicon:
            fh.write(f"{user_tok[u]}\t{item_tok[v]}\t{attr_tok[a]}\t{'+1' if s > 0 else '-1'}\n")
    with open(paths["substitutes"], "w", encoding="utf-8") as fh:
        fh.write("# item\titem\n")
        for c in range(C):
            members = cluster_items[c]
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    fh.write(f"{item_tok[members[i]]}\t{item_tok[members[j]]}\n")
    np.savez(paths["planted"], preferences=prefs, quality=quality,
             salient=salient, cluster_of=cluster_of, cared=cared, home=home,
             archetype_of=archetype_of, style_of=style_of, block_of=block_of)
    return paths, fired


def test_inverse_cdf_breaks_ties_as_choice_does():
    """A uniform double that lands on a CDF value, or one double beside it,
    draws the index rng.choice draws from the same state. The file grid
    below cannot see this: a drawn double meets a CDF value with
    probability about 2**-53."""
    rng = np.random.default_rng(9)
    checked = 0
    while checked < 20:
        state = rng.bit_generator.state
        u = rng.random()
        # rng.random() draws multiples of 2**-53; on [0.5, 1) those are the
        # neighbouring doubles, and 1 - b is exact, so the CDF is (b, 1.0)
        if u < 0.5:
            continue
        for b in (np.nextafter(u, 0.0), u, np.nextafter(u, 1.0)):
            probs = np.array([b, 1.0 - b])
            rng.bit_generator.state = state
            want = rng.choice(2, p=probs)
            rng.bit_generator.state = state
            assert _inverse_cdf(probs, rng.random()) == want
            rng.bit_generator.state = state
            want = rng.choice(2, size=3, p=probs)
            rng.bit_generator.state = state
            np.testing.assert_array_equal(_inverse_cdf(probs, rng.random(3)),
                                          want)
        checked += 1


def test_files_match_the_choice_based_reference(tmp_path, monkeypatch):
    """The generator's draws are the stream of per-draw rng.choice(p=): all
    four files keep their bytes over a grid in which every fallback and
    repair branch fires."""
    grid = [(PLANTED, seed) for seed in (1, 2, 3)]
    grid += [(CATALOG, seed) for seed in (1, 2, 3)]
    grid += [(SMALL, seed) for seed in range(1, 11)]
    grid += [(dict(SMALL, noise=noise), 4) for noise in (0.0, 0.5)]
    # EXHAUSTED comes last: its patch holds to the end of the test
    grid += [(SPARSE_MENTIONS, 1), (EXHAUSTED, 3)]
    all_fired = set()
    for case, (kwargs, seed) in enumerate(grid):
        if kwargs is EXHAUSTED:
            monkeypatch.setattr(synthetic, "MIN_ITEM_USERS", 1)
        spec = SyntheticSpec(**kwargs)
        got = generate_synthetic(spec, seed, str(tmp_path / f"{case}_got"))
        want, fired = choice_based_synthetic(spec, seed,
                                             str(tmp_path / f"{case}_want"))
        for name in ("reviews", "lexicon", "substitutes", "planted"):
            with open(got[name], "rb") as fg, open(want[name], "rb") as fw:
                assert fg.read() == fw.read(), (kwargs, seed, name)
        all_fired |= fired
    assert all_fired == {"home fallback", "home items exhausted",
                         "coverage repair", "mention repair"}
