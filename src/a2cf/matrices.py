"""Sparse user-attribute and item-attribute matrices from the lexicon.

Observed cells live on the rating scale [1, rating_max]; absent cells are
exactly 0 and mark "never mentioned". Both matrices are counted over their
full (n_rows, n_attrs) cell grid, whose flat id for a mention is
row * n_attrs + attr: no sort, and no array larger than the dense matrix.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .data import Corpus


@dataclass
class SparseAttributeMatrix:
    """Observed cells as COO arrays sorted by (row, col); every other cell is
    a structural zero."""

    shape: tuple                         # (n_rows, n_cols)
    scale_cap: float                     # rating_max the values were built with
    rows: np.ndarray                     # int64 row index per observed cell
    cols: np.ndarray                     # int64 column index per observed cell
    vals: np.ndarray                     # float64 values in [1, scale_cap]

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=np.float64)
        dense[self.rows, self.cols] = self.vals
        return dense

    def observed_mask(self) -> np.ndarray:
        mask = np.zeros(self.shape, dtype=bool)
        mask[self.rows, self.cols] = True
        return mask


def user_attr_value(count: int, rating_max: float = 5.0) -> float:
    """Map a mention count t >= 1 to 1 + (rating_max - 1) * tanh(t / 2).

    Monotone in the count, 1 at t -> 0+, saturating at rating_max.
    """
    if count < 1:
        raise ValueError(f"mention count must be >= 1, got {count}")
    return 1.0 + (rating_max - 1.0) * float(np.tanh(count / 2.0))


def item_attr_value(count: int, mean_sentiment: float,
                    rating_max: float = 5.0) -> float:
    """Map mention count t >= 1 and mean sentiment in [-1, 1] to
    1 + (rating_max - 1) * sigmoid(t * mean_sentiment).

    Neutral sentiment gives the scale midpoint regardless of count; strong
    consistent sentiment saturates toward 1 or rating_max.
    """
    if count < 1:
        raise ValueError(f"mention count must be >= 1, got {count}")
    if not -1.0 <= mean_sentiment <= 1.0:
        raise ValueError(f"mean sentiment must be in [-1, 1], got {mean_sentiment}")
    return 1.0 + (rating_max - 1.0) * float(expit(count * mean_sentiment))


def _grid_cells(rows: np.ndarray, attrs: np.ndarray, n_rows: int,
                n_attrs: int):
    """Each mention's flat cell id row * n_attrs + attr, the mentioned cells
    of the (n_rows, n_attrs) grid in row-major order, and the mention count
    per mentioned cell, from one bincount over the grid."""
    ids = rows * n_attrs + attrs
    counts = np.bincount(ids, minlength=n_rows * n_attrs)
    cells = np.flatnonzero(counts > 0)
    return ids, cells, counts[cells]


def build_matrices(corpus: Corpus, rating_max: float = 5.0
                   ) -> tuple[SparseAttributeMatrix, SparseAttributeMatrix]:
    """Build the observed user-attribute and item-attribute matrices.

    Mentions are counted over each cell grid by a bincount of their flat
    cell ids, with no sort; an item cell's sentiments are summed, in input
    order, by a weighted bincount of the same ids. A user cell maps its
    mention count through user_attr_value, an item cell its mention count
    and mean sentiment through item_attr_value; both are evaluated here over
    all cells at once with the same formulas.
    """
    users, items, attrs, sentiment = np.reshape(corpus.lexicon, (-1, 4)).T
    n_attrs = corpus.n_attrs
    _, u_cells, u_counts = _grid_cells(users, attrs, corpus.n_users, n_attrs)
    user_vals = 1.0 + (rating_max - 1.0) * np.tanh(u_counts / 2.0)
    i_ids, i_cells, i_counts = _grid_cells(items, attrs, corpus.n_items,
                                           n_attrs)
    sentiment_sums = np.bincount(i_ids, weights=sentiment,
                                 minlength=corpus.n_items * n_attrs)
    mean_sentiment = sentiment_sums[i_cells] / i_counts
    item_vals = 1.0 + (rating_max - 1.0) * expit(i_counts * mean_sentiment)
    user_mat = SparseAttributeMatrix((corpus.n_users, n_attrs), rating_max,
                                     *np.divmod(u_cells, n_attrs), user_vals)
    item_mat = SparseAttributeMatrix((corpus.n_items, n_attrs), rating_max,
                                     *np.divmod(i_cells, n_attrs), item_vals)
    return user_mat, item_mat


def dump_matrix(matrix: SparseAttributeMatrix, path: str) -> None:
    """Write observed cells as 'row<TAB>col<TAB>value' with %.9g values,
    sorted by (row, col)."""
    np.savetxt(path, np.column_stack((matrix.rows, matrix.cols, matrix.vals)),
               fmt=("%d", "%d", "%.9g"), delimiter="\t")
