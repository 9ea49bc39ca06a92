"""Shared fixtures: a small fully-connected corpus, finite-difference
gradient tools, and a session-scoped trained model on a synthetic corpus."""

import math

import numpy as np
import pytest

from a2cf.config import RunConfig, TrainConfig
from a2cf.data import (build_triplets, filter_corpus, load_lexicon,
                       load_reviews, load_substitutes, split_triplets)
from a2cf.network import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, ModelParams
from a2cf.synthetic import SyntheticSpec, generate_synthetic
from a2cf.training import train_pipeline

USERS = ["uA", "uB", "uC", "uD", "uE", "uF"]
ITEMS = ["p0", "p1", "p2", "p3", "p4", "p5"]

# (user, item, attribute, sentiment); attribute mention totals: battery 3,
# price 2, screen 2 -- all clear the >=2 mention threshold
LEXICON_ROWS = [
    ("uA", "p0", "battery", 1),
    ("uA", "p1", "battery", -1),
    ("uB", "p0", "battery", 1),
    ("uA", "p0", "price", 1),
    ("uC", "p2", "price", -1),
    ("uD", "p3", "screen", 1),
    ("uE", "p3", "screen", 1),
]

# two substitute clusters: {p0, p1, p2} and {p3, p4, p5}
SUB_PAIRS = [("p0", "p1"), ("p0", "p2"), ("p1", "p2"),
             ("p3", "p4"), ("p3", "p5"), ("p4", "p5")]


def columns(rows, width):
    """The `width` columns of `rows` as lists, the form the corpus loaders
    return."""
    return tuple([row[k] for row in rows] for k in range(width))


def grid_reviews():
    """(users, items) of the complete 6x6 interaction grid; every user and
    item has degree 6."""
    return columns([(u, v) for u in USERS for v in ITEMS], 2)


def grid_lexicon():
    return columns(LEXICON_ROWS, 4)


def grid_substitutes():
    return columns(SUB_PAIRS, 2)


@pytest.fixture
def grid_corpus():
    return filter_corpus(grid_reviews(), grid_lexicon(), grid_substitutes())


def write_corpus_files(dirpath, reviews=None, lexicon=None, subs=None):
    """Write the grid corpus (or overrides) as tab-separated files."""
    r_path = dirpath / "reviews.tsv"
    l_path = dirpath / "lexicon.tsv"
    s_path = dirpath / "substitutes.tsv"
    if reviews is None:
        reviews = [(u, v, str((ui + vi) % 5 + 1))
                   for ui, u in enumerate(USERS) for vi, v in enumerate(ITEMS)]
    if lexicon is None:
        lexicon = [(u, v, a, "+1" if s > 0 else "-1") for u, v, a, s in LEXICON_ROWS]
    if subs is None:
        subs = SUB_PAIRS
    r_path.write_text("# reviews\n" + "".join("\t".join(row) + "\n" for row in reviews))
    l_path.write_text("".join("\t".join(row) + "\n" for row in lexicon))
    s_path.write_text("".join(f"{a}\t{b}\n" for a, b in subs))
    return str(r_path), str(l_path), str(s_path)


def relation_sets(corpus):
    """(user_items, substitutes): a corpus's purchases and substitute pairs
    as one Python set per user and per item, built from its arrays alone so
    that tests can check the sampling tables against them."""
    user_items = [set() for _ in range(corpus.n_users)]
    for u, v in corpus.interactions:
        user_items[u].add(int(v))
    substitutes = [set() for _ in range(corpus.n_items)]
    for a, b in corpus.substitute_pairs:
        substitutes[a].add(int(b))
        substitutes[b].add(int(a))
    return user_items, substitutes


def central_diff_grads(params, loss_fn, step=1e-5):
    """Finite-difference gradient of loss_fn() w.r.t. every parameter entry.

    Perturbs the tensors of `params` in place (restoring each entry), so
    loss_fn should close over `params`.
    """
    grads = ModelParams.zeros_like(params)
    for tensor, out in zip(params.tensors().values(), grads.tensors().values()):
        flat, gout = tensor.ravel(), out.ravel()
        for k in range(flat.size):
            keep = flat[k]
            flat[k] = keep + step
            hi = loss_fn()
            flat[k] = keep - step
            lo = loss_fn()
            flat[k] = keep
            gout[k] = (hi - lo) / (2.0 * step)
    return grads


def assert_flat_layout(params, shapes):
    """Every tensor of `params` is a C-contiguous view of `params.flat` at
    its field-order offset, with the shape `shapes` (param_shapes) gives,
    and the vector holds nothing else."""
    flat = params.flat
    assert flat.ndim == 1 and flat.dtype == np.float64
    assert flat.flags.c_contiguous and flat.flags.owndata
    assert list(params.tensors()) == list(shapes)
    start = flat.__array_interface__["data"][0]
    offset = 0
    for name, t in params.tensors().items():
        assert t.shape == shapes[name], name
        assert t.base is flat and t.flags.c_contiguous, name
        assert t.__array_interface__["data"][0] - start == 8 * offset, name
        offset += math.prod(shapes[name])
    assert offset == flat.size


def written_out_adam(params, grads, state, lr, skip=None):
    """Adam with bias correction, tensor by tensor, each line as the
    formula reads; like adam_step it skips a step with a non-finite
    gradient and returns `params`. It updates every tensor whatever
    `skip` says: the full pass is what adam_step's skip must match."""
    if not all(np.isfinite(g).all() for g in grads.tensors().values()):
        return params
    state.step += 1
    correct1 = 1.0 - ADAM_BETA1 ** state.step
    correct2 = 1.0 - ADAM_BETA2 ** state.step
    moments = zip(state.m.tensors().values(), state.v.tensors().values())
    for (name, g), (m, v) in zip(grads.tensors().items(), moments):
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        update = (m / correct1) / (np.sqrt(v / correct2) + ADAM_EPS)
        getattr(params, name)[...] -= lr * update
    return params


def worst_relative_gap(analytic, numeric, floor=1e-4):
    """Max relative disagreement between two gradient buffers.

    The floor keeps finite-difference noise on near-zero entries from
    registering as relative error.
    """
    worst = 0.0
    for a, n in zip(analytic.tensors().values(), numeric.tensors().values()):
        if a.size == 0:
            continue
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        worst = max(worst, float((np.abs(a - n) / denom).max()))
    return worst


@pytest.fixture(scope="session")
def synth_paths(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth_corpus")
    spec = SyntheticSpec(users=50, items=60, attributes=20, clusters=10)
    return generate_synthetic(spec, seed=2024, out_dir=str(out))


@pytest.fixture(scope="session")
def synth_corpus(synth_paths):
    return filter_corpus(load_reviews(synth_paths["reviews"]),
                         load_lexicon(synth_paths["lexicon"]),
                         load_substitutes(synth_paths["substitutes"]))


@pytest.fixture(scope="session")
def synth_splits(synth_corpus):
    triplets = build_triplets(synth_corpus, np.random.default_rng(7))
    return split_triplets(triplets, seed=8)


@pytest.fixture(scope="session")
def small_run_config():
    train = TrainConfig(embed_dim=8, learning_rate=1e-3, dropout=0.2)
    return RunConfig(train=train, seed=11, rounds_max=1, phase1_steps=150,
                     phase2_steps=100, convergence_tol=0.0)


@pytest.fixture(scope="session")
def small_trained(synth_corpus, synth_splits, small_run_config):
    result = train_pipeline(synth_corpus, synth_splits, small_run_config)
    return synth_corpus, synth_splits, small_run_config, result
