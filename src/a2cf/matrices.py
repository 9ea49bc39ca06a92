"""Observed user-attribute and item-attribute matrices from the lexicon.

Each matrix is a dense float64 array. A mentioned cell lies on the rating
scale [1, RATING_MAX] of `data`; a cell never mentioned is exactly 0.0, and
those are the cells the towers regress. Both matrices are counted over their
full (n_rows, n_attrs) cell grid, whose flat id for a mention is
row * n_attrs + attr: no sort, and no array larger than the matrix itself.
"""

import numpy as np

from .data import RATING_MAX, Corpus
from .network import _expit


def user_attr_value(count: int, rating_max: float = RATING_MAX) -> float:
    """Map a mention count t >= 1 to 1 + (rating_max - 1) * tanh(t / 2).

    Monotone in the count, 1 at t -> 0+, saturating at rating_max.
    """
    if count < 1:
        raise ValueError(f"mention count must be >= 1, got {count}")
    return 1.0 + (rating_max - 1.0) * float(np.tanh(count / 2.0))


def item_attr_value(count: int, mean_sentiment: float,
                    rating_max: float = RATING_MAX) -> float:
    """Map mention count t >= 1 and mean sentiment in [-1, 1] to
    1 + (rating_max - 1) * sigmoid(t * mean_sentiment).

    Neutral sentiment gives the scale midpoint regardless of count; strong
    consistent sentiment saturates toward 1 or rating_max.
    """
    if count < 1:
        raise ValueError(f"mention count must be >= 1, got {count}")
    if not -1.0 <= mean_sentiment <= 1.0:
        raise ValueError(f"mean sentiment must be in [-1, 1], got {mean_sentiment}")
    return 1.0 + (rating_max - 1.0) * float(_expit(count * mean_sentiment))


def build_matrices(corpus: Corpus) -> tuple[np.ndarray, np.ndarray]:
    """The observed user-attribute and item-attribute matrices, float64
    arrays of shape (n_users, n_attrs) and (n_items, n_attrs).

    Mentions are counted over each cell grid by a bincount of their flat
    cell ids, with no sort; an item cell's sentiments are summed, in input
    order, by a weighted bincount of the same ids. A user cell maps its
    mention count through user_attr_value, an item cell its mention count
    and mean sentiment through item_attr_value; both are evaluated here over
    all mentioned cells at once with the same formulas.
    """
    users, items, attrs, sentiment = np.reshape(corpus.lexicon, (-1, 4)).T
    n_attrs = corpus.n_attrs
    u_counts = np.bincount(users * n_attrs + attrs,
                           minlength=corpus.n_users * n_attrs)
    u_cells = np.flatnonzero(u_counts > 0)
    user_mat = np.zeros(len(u_counts))
    user_mat[u_cells] = 1.0 + (RATING_MAX - 1.0) * np.tanh(
        u_counts[u_cells] / 2.0)
    i_ids = items * n_attrs + attrs
    i_counts = np.bincount(i_ids, minlength=corpus.n_items * n_attrs)
    i_cells = np.flatnonzero(i_counts > 0)
    i_counts = i_counts[i_cells]
    # the sentiment sums become the item matrix: an unmentioned cell's sum
    # is already 0.0 (and the sums of no mention at all come back int64)
    item_mat = np.bincount(i_ids, weights=sentiment,
                           minlength=corpus.n_items * n_attrs
                           ).astype(np.float64, copy=False)
    item_mat[i_cells] = 1.0 + (RATING_MAX - 1.0) * _expit(
        i_counts * (item_mat[i_cells] / i_counts))
    return (user_mat.reshape(corpus.n_users, n_attrs),
            item_mat.reshape(corpus.n_items, n_attrs))
