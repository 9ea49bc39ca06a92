"""Synthetic corpus generator with planted, recoverable structure.

Items live in clusters sharing salient functional attributes; substitute
pairs are exactly the within-cluster pairs, so cluster identity is the
substitution signal. On top of that, users belong to one of a few taste
profiles and every item expresses one style: the attribute vocabulary is
split into a functional pool (salient sets are drawn from it) and one
taste block per profile. An item is good at its own block and bad at the
others, and users buy style-matching items inside a few "home" clusters,
which makes within-cluster choice a low-rank, learnable preference signal
rather than per-user noise.

Outputs are plain corpus files (reviews/lexicon/substitutes) plus a
planted.npz holding the ground-truth preference and quality vectors.

Stream contract: every value the generator draws comes from the same
positions of the `Generator` stream, through the same numpy routine, as in
a version that drew each item's quality cells with three `rng.uniform`
calls and every weighted choice with `rng.choice(..., p=probs)`, and every
weight is computed with the same float operations, so its files match that
version's byte for byte. A weighted choice here is `choice`'s own
inverse-CDF search run on `rng.random` doubles, without `choice`'s per-call
check of `p`.

What is drawn per row and what per block:
- The item quality cells are one `rng.uniform` call with per-cell bounds.
- Each user's cared attributes, taste weights and home clusters are drawn
  user by user.
- Each purchase is one `rng.integers` call for the home cluster and one
  `rng.random()` for the item, in turn, as the items a user may still buy
  depend on those already bought.
- Each review row makes three calls: `standard_normal()` for its rating
  noise, `random()` for the coin that gives it a third mention, then
  `random(2 * n)` for its n mention doubles and one sentiment-flip double
  per mention, drawn into one buffer reused from block to block. For
  REVIEW_BLOCK rows at once the generator then computes the ratings, the
  mention weights and their CDFs, the inverse-CDF search, the quality
  lookups and the flips, and writes the block's review and lexicon lines.
"""

import os
from dataclasses import dataclass

import numpy as np

from .data import (MIN_ATTR_MENTIONS, MIN_ITEM_USERS, MIN_USER_ITEMS,
                   RATING_MAX, inverse_cdf_rows)

TIMESTAMP_BASE = 1_600_000_000
TIMESTAMP_STEP = 86_400
CHOICE_TEMP = 0.12          # softmax temperature for item choice
POP_SPREAD = 0.08           # item-level popularity spread at choice time
TASTE_PROFILES = 3          # user archetypes / item styles
CARED_ATTRS = 2             # functional attributes each user cares about
SALIENT_ATTRS = 3           # salient attributes per cluster
REVIEW_BLOCK = 512          # reviews whose mentions are drawn in one pass


@dataclass
class SyntheticSpec:
    """A synthetic corpus's shape. The counts all corpora share are module
    constants: TASTE_PROFILES, CARED_ATTRS and SALIENT_ATTRS; every corpus
    rates on the scale `data.RATING_MAX` and passes the activity thresholds
    of `data`."""

    users: int = 200
    items: int = 300
    attributes: int = 30
    clusters: int = 20
    interactions_per_user: int = 10
    functional_attrs: int = 15      # pool that cluster-salient sets draw from
    home_clusters: int = 3          # clusters a user shops in
    noise: float = 0.1              # sentiment flip probability

    def __post_init__(self):
        if self.users < 1 or self.items < 1:
            raise ValueError("users and items must be >= 1")
        if self.interactions_per_user < MIN_USER_ITEMS:
            raise ValueError("interactions_per_user must be >= "
                             f"{MIN_USER_ITEMS} so users survive the "
                             "activity filter")
        if self.clusters < 1 or self.items < self.clusters:
            raise ValueError("need at least one item per cluster")
        if self.items // self.clusters < 2:
            raise ValueError("clusters need >= 2 items to form substitute pairs")
        if self.functional_attrs + TASTE_PROFILES > self.attributes:
            raise ValueError("attribute vocabulary too small for the "
                             "functional pool plus one block per profile")
        if self.functional_attrs < max(SALIENT_ATTRS, CARED_ATTRS):
            raise ValueError("functional_attrs must be >= "
                             f"{max(SALIENT_ATTRS, CARED_ATTRS)}")
        if self.home_clusters < 1:
            raise ValueError("home_clusters must be >= 1")
        if self.home_clusters > self.clusters:
            raise ValueError("home_clusters exceeds cluster count")
        if self.users <= MIN_ITEM_USERS:
            raise ValueError("too few users to give every item enough coverage")
        if not 0.0 <= self.noise <= 0.5:
            raise ValueError("noise must be in [0, 0.5]")


def _tokens(prefix: str, n: int) -> list:
    width = max(3, len(str(n - 1)))
    return [f"{prefix}{i:0{width}d}" for i in range(n)]


def _inverse_cdf(probs: np.ndarray, uniform):
    """Indices drawn from `probs` (finite, non-negative, summing to 1) for
    the `rng.random` doubles `uniform`: the search that
    `Generator.choice(len(probs), size, p=probs)` runs on the doubles it
    draws, so it returns what `choice` would."""
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf.searchsorted(uniform, side="right")


def _ratings(noisy_mean: np.ndarray) -> np.ndarray:
    """`min(max(round(x), 1), RATING_MAX)` for each x: np.rint takes a tie
    to the even integer, as round() does."""
    return np.clip(np.rint(noisy_mean), 1, RATING_MAX).astype(np.int64)


def generate_synthetic(spec: SyntheticSpec, seed: int, out_dir: str) -> dict:
    """Write reviews.tsv / lexicon.tsv / substitutes.tsv / planted.npz under
    out_dir and return their paths. Fully deterministic in (spec, seed).

    The draws follow the stream contract in the module docstring: the
    stream positions of the per-draw `rng.choice(p=)` version, so the four
    files match its files byte for byte. Raises ValueError if a choice or
    mention weight is not finite."""
    rng = np.random.default_rng(seed)
    os.makedirs(out_dir, exist_ok=True)
    U, V, A, C = spec.users, spec.items, spec.attributes, spec.clusters
    T, F = TASTE_PROFILES, spec.functional_attrs

    # attribute roles: [0, F) functional, the rest split into taste blocks
    block_of = np.full(A, -1, dtype=np.int64)
    for t, blk in enumerate(np.array_split(np.arange(F, A), T)):
        block_of[blk] = t

    # planted item structure; consecutive items cycle through styles so every
    # cluster carries a balanced style mix
    cluster_of = np.repeat(np.arange(C), -(-V // C))[:V]
    style_of = np.arange(V) % T
    own_block = block_of[None, :] == np.arange(T)[:, None]     # (T, A)
    other_block = (block_of >= 0)[None, :] & ~own_block
    own_size = own_block.sum(axis=1)
    salient = np.zeros((C, A), dtype=bool)
    for c in range(C):
        salient[c, rng.choice(F, size=SALIENT_ATTRS, replace=False)] = True
    quality = rng.uniform(-0.2, 0.2, size=(V, A))
    # then, item by item in one call, each part in attribute order: its own
    # taste block in [0.4, 1), the other blocks in [-0.9, -0.4) and its
    # cluster's salient attributes in [0.3, 1)
    taste_cols = np.array([np.r_[np.flatnonzero(own_block[t]),
                                 np.flatnonzero(other_block[t])]
                           for t in range(T)])                # (T, A - F)
    salient_cols = np.nonzero(salient)[1].reshape(C, SALIENT_ATTRS)
    own = np.arange(A - F) < own_size[:, None]                # (T, A - F)
    low = np.hstack([np.where(own, 0.4, -0.9),
                     np.full((T, SALIENT_ATTRS), 0.3)])
    high = np.hstack([np.where(own, 1.0, -0.4),
                      np.full((T, SALIENT_ATTRS), 1.0)])
    np.put_along_axis(
        quality, np.hstack([taste_cols[style_of], salient_cols[cluster_of]]),
        rng.uniform(low[style_of], high[style_of]), axis=1)
    # mute functional attributes that are not salient for the item's cluster;
    # taste blocks always count so style mismatch is felt at choice time
    gate = np.where(salient[cluster_of] | (block_of >= 0)[None, :], 1.0, 0.08)
    item_signal = quality * gate                          # (V, A)

    # planted user structure
    archetype_of = rng.integers(0, T, size=U)
    prefs = np.full((U, A), 0.02)
    cared = np.zeros((U, A), dtype=bool)
    home = np.zeros((U, C), dtype=bool)
    for u in range(U):
        pick = rng.choice(F, size=CARED_ATTRS, replace=False)
        cared[u, pick] = True
        prefs[u, pick] += rng.uniform(0.5, 1.0, size=CARED_ATTRS)
        t = archetype_of[u]
        prefs[u, own_block[t]] += rng.uniform(0.5, 1.0, size=own_size[t])
        overlap = salient @ prefs[u] + 1e-6 * rng.random(C)
        home[u, np.argsort(-overlap)[:spec.home_clusters]] = True
    prefs /= prefs.sum(axis=1, keepdims=True)

    # interactions: users sample high-affinity items inside home clusters;
    # a fixed per-item boost skews choices so item degrees spread out
    affinity = prefs @ item_signal.T                      # (U, V)
    pop_boost = rng.normal(0.0, POP_SPREAD, size=V)
    # the weighted draws below do not check their weights per call, as
    # rng.choice did, so the arrays they come from are checked once here
    for name, weights in (("affinity", affinity), ("pop_boost", pop_boost),
                          ("mention weights", prefs)):
        if not np.isfinite(weights).all():
            raise ValueError(f"non-finite value in {name}")
    cluster_items = [np.nonzero(cluster_of == c)[0] for c in range(C)]
    interactions: list = []
    bought = np.zeros((U, V), dtype=bool)
    for u in range(U):
        homes = np.flatnonzero(home[u]).tolist()
        owned = bought[u]
        scores = (affinity[u] + pop_boost) / CHOICE_TEMP
        for _ in range(spec.interactions_per_user):
            members = cluster_items[homes[rng.integers(len(homes))]]
            avail = members[~owned[members]]
            if len(avail) == 0:
                avail = np.flatnonzero(home[u, cluster_of] & ~owned)
                if len(avail) == 0:
                    break
            logits = scores[avail]
            # Python's max finds numpy's maximum without a ufunc reduction
            probs = np.exp(logits - max(logits.tolist()))
            probs /= probs.sum()
            v = int(avail[_inverse_cdf(probs, rng.random())])
            owned[v] = True
            interactions.append((u, v))

    # coverage repair: every item needs MIN_ITEM_USERS distinct users
    # (a repair adds users to its own item only, so the deficits hold)
    deficits = MIN_ITEM_USERS - bought.sum(axis=0)
    for v in np.flatnonzero(deficits > 0):
        outsiders = np.flatnonzero(~bought[:, v])
        order = outsiders[np.argsort(-affinity[outsiders, v], kind="stable")]
        interactions += [(int(u), int(v)) for u in order[:deficits[v]]]

    # ratings from affinity; mentions land on attributes the user weights
    # among those the item actually exposes (cluster salient + its block)
    interactions = np.array(interactions)                 # (n, 2)
    aff_scale = float(np.std(affinity)) + 1e-12
    mention_gate = 0.08 + 0.92 * (salient[cluster_of] | own_block[style_of])
    z = affinity[interactions[:, 0], interactions[:, 1]] / aff_scale
    mean_rating = 3.0 + 1.5 * np.tanh(z)
    attr_count = np.zeros(A, dtype=np.int64)
    user_tok = _tokens("u", U)
    item_tok = _tokens("i", V)
    attr_tok = _tokens("a", A)
    paths = {name: os.path.join(out_dir, fname) for name, fname in (
        ("reviews", "reviews.tsv"), ("lexicon", "lexicon.tsv"),
        ("substitutes", "substitutes.tsv"), ("planted", "planted.npz"))}
    slot = np.arange(3)                   # a review mentions 2 or 3 attributes
    # a block row's n mention doubles, then its n flip doubles; the cells
    # past 2n keep an earlier row's doubles
    draws = np.zeros((REVIEW_BLOCK, 2 * len(slot)))
    with open(paths["reviews"], "w", encoding="utf-8") as reviews, \
            open(paths["lexicon"], "w", encoding="utf-8") as lexicon:
        reviews.write("# user\titem\trating\ttimestamp\n")
        lexicon.write("# user\titem\tattribute\tsentiment\n")
        for start in range(0, len(interactions), REVIEW_BLOCK):
            block = interactions[start:start + REVIEW_BLOCK]
            rows = draws[:len(block)]
            # per row, in stream order: the rating noise, the coin for a
            # third mention, then the row's doubles (those choice(p=) and
            # the per-mention rng.random() drew)
            normals, mentions = [], []
            for row in rows:
                normals.append(rng.standard_normal())
                n = 3 if rng.random() < 0.5 else 2
                mentions.append(n)
                rng.random(out=row[:2 * n])
            ratings = _ratings(mean_rating[start:start + len(block)]
                               + 0.5 * np.array(normals))
            users, items = block[:, 0], block[:, 1]
            stamps = TIMESTAMP_BASE + TIMESTAMP_STEP * np.arange(
                start, start + len(block))
            reviews.write("".join(
                f"{user_tok[u]}\t{item_tok[v]}\t{r}\t{ts}\n"
                for u, v, r, ts in zip(users.tolist(), items.tolist(),
                                       ratings.tolist(), stamps.tolist())))
            mentions = np.array(mentions)
            # the slots past a row's mentions are dropped by `used`
            used = slot < mentions[:, None]
            weights = (0.02 + prefs[users]) * mention_gate[items]
            attrs = inverse_cdf_rows(
                weights / weights.sum(axis=1, keepdims=True),
                rows[:, :len(slot)])[used]
            flips = np.take_along_axis(rows, mentions[:, None] + slot,
                                       axis=1)[used]
            users, items = (np.repeat(users, mentions),
                            np.repeat(items, mentions))
            signs = np.where((quality[items, attrs] >= 0)
                             != (flips < spec.noise), "+1", "-1")
            lexicon.write("".join(
                f"{user_tok[u]}\t{item_tok[v]}\t{attr_tok[a]}\t{s}\n"
                for u, v, a, s in zip(users.tolist(), items.tolist(),
                                      attrs.tolist(), signs.tolist())))
            attr_count += np.bincount(attrs, minlength=A)
        # mention repair: every attribute needs MIN_ATTR_MENTIONS mentions
        # to survive filtering
        for a in range(A):
            for k in range(MIN_ATTR_MENTIONS - int(attr_count[a])):
                u, v = interactions[k % len(interactions)].tolist()
                lexicon.write(
                    f"{user_tok[u]}\t{item_tok[v]}\t{attr_tok[a]}\t+1\n")
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
    return paths
