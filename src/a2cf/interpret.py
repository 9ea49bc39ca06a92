"""Attribute-level comparison of a recommended item against the query item,
rendered as a templated sentence."""

from dataclasses import dataclass

import numpy as np

from .ranking import rank_order


@dataclass
class AttributeAdvantage:
    """Preference-weighted attribute gaps for one (user, query, item) case,
    or one row per case when the rows are stacked as (cases, attrs).

    deltas[..., n] = user_row[..., n] * (item_row[..., n] - query_row[..., n]);
    ranking holds attribute indices sorted by delta descending, ties toward
    the smaller attribute index.
    """

    deltas: np.ndarray
    ranking: np.ndarray


def attribute_advantage(user_row: np.ndarray, query_row: np.ndarray,
                        item_row: np.ndarray) -> AttributeAdvantage:
    """Score each attribute by how much the candidate improves on the query,
    weighted by how much the user cares."""
    user_row = np.asarray(user_row, dtype=np.float64)
    query_row = np.asarray(query_row, dtype=np.float64)
    item_row = np.asarray(item_row, dtype=np.float64)
    if not user_row.shape == query_row.shape == item_row.shape:
        raise ValueError("attribute rows must share one shape, got "
                         f"{user_row.shape}/{query_row.shape}/{item_row.shape}")
    deltas = user_row * (item_row - query_row)
    ranking = rank_order(deltas, np.arange(deltas.shape[-1]))
    return AttributeAdvantage(deltas=deltas, ranking=ranking)


@dataclass
class InterpretationReport:
    top_attributes: list            # (token, delta, adjective) tuples
    text: str


def render_interpretation(advantage: AttributeAdvantage, top_n: int,
                          attr_tokens: list, query_token: str,
                          item_token: str) -> InterpretationReport:
    """Render the top attributes into the recommendation sentence.

    Attributes with positive delta read "better", the rest "comparable".
    A top_n outside [1, attribute count] raises ValueError.
    """
    n_attrs = len(advantage.deltas)
    if not 1 <= top_n <= n_attrs:
        raise ValueError(f"top_n must be in [1, {n_attrs}], got {top_n}")
    chosen = []
    for idx in advantage.ranking[:top_n]:
        delta = float(advantage.deltas[idx])
        adjective = "better" if delta > 0.0 else "comparable"
        chosen.append((attr_tokens[idx], delta, adjective))
    parts = [f"{adj} {tok}" for tok, _, adj in chosen]
    if len(parts) == 1:
        listing = parts[0]
    else:
        listing = ", ".join(parts[:-1]) + ", and " + parts[-1]
    text = (f"Based on the item {query_token} you are currently browsing, "
            f"we recommend you to try {item_token} instead because it comes "
            f"with: {listing}.")
    return InterpretationReport(top_attributes=chosen, text=text)
