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

Stream contract: the generator makes the same `Generator` calls in the same
order as a version that drew every weighted choice with
`rng.choice(..., p=probs)`, and computes every weight with the same float
operations, so its files match that version's byte for byte. A weighted
choice here is `choice`'s own inverse-CDF search run on `rng.random`
doubles, without `choice`'s per-call check of `p`.
"""

import os
from dataclasses import dataclass

import numpy as np

from .data import (MIN_ATTR_MENTIONS, MIN_ITEM_USERS, MIN_USER_ITEMS,
                   RATING_MAX)

TIMESTAMP_BASE = 1_600_000_000
TIMESTAMP_STEP = 86_400
CHOICE_TEMP = 0.12          # softmax temperature for item choice
POP_SPREAD = 0.08           # item-level popularity spread at choice time
TASTE_PROFILES = 3          # user archetypes / item styles
CARED_ATTRS = 2             # functional attributes each user cares about
SALIENT_ATTRS = 3           # salient attributes per cluster


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


def generate_synthetic(spec: SyntheticSpec, seed: int, out_dir: str) -> dict:
    """Write reviews.tsv / lexicon.tsv / substitutes.tsv / planted.npz under
    out_dir and return their paths. Fully deterministic in (spec, seed).

    The draws follow the stream contract in the module docstring: the same
    `Generator` calls in the same order as the per-draw `rng.choice(p=)`
    version, so the four files match its files byte for byte. Raises
    ValueError if a choice or mention weight is not finite."""
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
    own_size, other_size = own_block.sum(axis=1), other_block.sum(axis=1)
    salient = np.zeros((C, A), dtype=bool)
    for c in range(C):
        salient[c, rng.choice(F, size=SALIENT_ATTRS, replace=False)] = True
    quality = rng.uniform(-0.2, 0.2, size=(V, A))
    for v in range(V):
        t = style_of[v]
        quality[v, own_block[t]] = rng.uniform(0.4, 1.0, size=own_size[t])
        quality[v, other_block[t]] = rng.uniform(-0.9, -0.4,
                                                 size=other_size[t])
        quality[v, salient[cluster_of[v]]] = rng.uniform(
            0.3, 1.0, size=SALIENT_ATTRS)
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
    aff_scale = float(np.std(affinity)) + 1e-12
    mention_gate = 0.08 + 0.92 * (salient[cluster_of] | own_block[style_of])
    z = affinity[tuple(np.array(interactions).T)] / aff_scale
    mean_rating = 3.0 + 1.5 * np.tanh(z)
    reviews = []
    lexicon = []
    for idx, (u, v) in enumerate(interactions):
        # round() takes a tie to the even integer, as np.rint does
        rating = round(mean_rating[idx] + 0.5 * rng.standard_normal())
        rating = min(max(rating, 1), RATING_MAX)
        reviews.append((u, v, rating, TIMESTAMP_BASE + idx * TIMESTAMP_STEP))
        n_mentions = 2 + int(rng.random() < 0.5)
        weights = (0.02 + prefs[u]) * mention_gate[v]
        # the n_mentions choice doubles, then one noise double per mention:
        # the doubles choice(p=) and the per-mention rng.random() drew
        draws = rng.random(2 * n_mentions)
        attrs = _inverse_cdf(weights / weights.sum(), draws[:n_mentions])
        good = (quality[v, attrs] >= 0).tolist()
        flips = (draws[n_mentions:] < spec.noise).tolist()
        for a, g, flip in zip(attrs.tolist(), good, flips):
            lexicon.append((u, v, a, 1 if g != flip else -1))

    # mention repair: every attribute needs MIN_ATTR_MENTIONS mentions to
    # survive filtering
    attr_count = np.bincount([a for _, _, a, _ in lexicon], minlength=A)
    for a in range(A):
        need = MIN_ATTR_MENTIONS - int(attr_count[a])
        for k in range(max(0, need)):
            u, v = interactions[k % len(interactions)]
            lexicon.append((u, v, a, 1))
            attr_count[a] += 1

    user_tok = _tokens("u", U)
    item_tok = _tokens("i", V)
    attr_tok = _tokens("a", A)
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
    return paths
