"""Walk through the sentiment-lexicon aggregation on a tiny camera shop.

Shows how mention counts turn into user-attribute concern scores, how
signed sentiment turns into item-attribute quality scores, and how the
trained towers fill in the unobserved cells.
"""

import numpy as np

from a2cf.config import TrainConfig
from a2cf.data import filter_corpus
from a2cf.matrices import build_matrices, item_attr_value, user_attr_value
from a2cf.network import init_params
from a2cf.ranking import estimate_matrices

REVIEWS = [
    ("alice", "camA", 5), ("alice", "camB", 3), ("alice", "camC", 4),
    ("bob", "camA", 2), ("bob", "camB", 4), ("bob", "camC", 3),
    ("cara", "camA", 4), ("cara", "camB", 5), ("cara", "camC", 2),
]

# (user, item, attribute, sentiment): who praised or panned what
LEXICON = [
    ("alice", "camA", "battery", "+1"),
    ("alice", "camA", "screen", "+1"),
    ("alice", "camB", "battery", "-1"),
    ("alice", "camC", "battery", "+1"),
    ("bob", "camA", "price", "-1"),
    ("bob", "camB", "price", "+1"),
    ("bob", "camB", "screen", "+1"),
    ("cara", "camB", "screen", "+1"),
    ("cara", "camC", "screen", "-1"),
    ("cara", "camA", "battery", "+1"),
]

SUBSTITUTES = [("camA", "camB"), ("camA", "camC"), ("camB", "camC")]


def show(matrix, corpus, row_tokens, title):
    print(f"\n{title}")
    header = "".join(f"{a:>10}" for a in corpus.attr_tokens)
    print(f"{'':>8}{header}")
    for r, tok in enumerate(row_tokens):
        cells = "".join(f"{v:>10.4f}" if v else f"{'.':>10}"
                        for v in matrix[r])
        print(f"{tok:>8}{cells}")


def main():
    print("concern score by mention count (5-point scale):")
    for t in range(1, 7):
        print(f"  {t} mention(s) -> {user_attr_value(t, 5.0):.4f}")
    print("\nquality score by mean sentiment at 2 mentions:")
    for s in (-1.0, -0.5, 0.0, 0.5, 1.0):
        print(f"  mean sentiment {s:+.1f} -> {item_attr_value(2, s, 5.0):.4f}")

    # the columns the corpus loaders return; the ratings are not kept
    users, items, _ = zip(*REVIEWS)
    *mentions, signs = zip(*LEXICON)
    lexicon = (*mentions, [int(s) for s in signs])
    corpus = filter_corpus((users, items), lexicon, tuple(zip(*SUBSTITUTES)),
                           min_user_items=1, min_item_users=1,
                           min_attr_mentions=1)
    user_mat, item_mat = build_matrices(corpus)
    show(user_mat, corpus, corpus.user_tokens,
         "user-attribute concern matrix ('.' marks a 0, never mentioned):")
    show(item_mat, corpus, corpus.item_tokens,
         "item-attribute quality matrix ('.' marks a 0, never mentioned):")

    # an untrained model already completes the matrices; training just makes
    # the filled-in cells meaningful
    params = init_params(corpus.n_users, corpus.n_items, corpus.n_attrs,
                         TrainConfig(embed_dim=8), seed=0)
    est = estimate_matrices(user_mat, item_mat, params)
    print("\ncompleted user matrix (observed cells kept verbatim, "
          "the 0 cells regressed):")
    for r, tok in enumerate(corpus.user_tokens):
        cells = "".join(f"{est.user_attr[r, c]:>10.4f}"
                        for c in range(corpus.n_attrs))
        print(f"{tok:>8}{cells}")


if __name__ == "__main__":
    main()
