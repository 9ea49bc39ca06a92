"""Attribute advantages and templated recommendation sentences."""

import numpy as np
import pytest

from a2cf.interpret import attribute_advantage, render_interpretation


def test_advantage_zero_when_items_identical():
    row = np.array([2.0, 3.5, 4.0])
    adv = attribute_advantage(np.array([1.5, 2.0, 4.5]), row, row.copy())
    np.testing.assert_array_equal(adv.deltas, np.zeros(3))


def test_advantage_passthrough_for_unit_preferences():
    q = np.array([3.0, 2.0, 4.0])
    j = np.array([4.5, 1.0, 4.0])
    adv = attribute_advantage(np.ones(3), q, j)
    np.testing.assert_allclose(adv.deltas, j - q, atol=1e-12)


def test_advantage_hand_case_with_ranking():
    adv = attribute_advantage(np.array([2.0, 4.0]), np.array([3.0, 3.0]),
                              np.array([4.0, 2.0]))
    np.testing.assert_allclose(adv.deltas, [2.0, -4.0], atol=1e-12)
    assert list(adv.ranking) == [0, 1]


def test_advantage_rows_equal_one_call_per_row():
    # small integer values make ties within a row common; a zero preference
    # ties the whole row at delta 0
    rng = np.random.default_rng(5)
    x, yq, yj = (rng.integers(0, 3, size=(40, 7)).astype(np.float64)
                 for _ in range(3))
    x[3] = 0.0
    rows = attribute_advantage(x, yq, yj)
    assert rows.deltas.shape == rows.ranking.shape == (40, 7)
    for c in range(40):
        one = attribute_advantage(x[c], yq[c], yj[c])
        assert np.array_equal(rows.deltas[c].view(np.uint64),
                              one.deltas.view(np.uint64))
        np.testing.assert_array_equal(rows.ranking[c], one.ranking)
    np.testing.assert_array_equal(rows.ranking[3], np.arange(7))


def test_advantage_shape_mismatch_error():
    with pytest.raises(ValueError, match="share one shape"):
        attribute_advantage(np.ones(3), np.ones(4), np.ones(4))


def test_advantage_antisymmetric_in_items():
    rng = np.random.default_rng(0)
    x = rng.uniform(1, 5, size=6)
    yq = rng.uniform(1, 5, size=6)
    yj = rng.uniform(1, 5, size=6)
    fwd = attribute_advantage(x, yq, yj)
    rev = attribute_advantage(x, yj, yq)
    np.testing.assert_allclose(fwd.deltas, -rev.deltas, atol=1e-12)


def test_advantage_ranking_invariant_under_positive_scaling():
    rng = np.random.default_rng(1)
    x = rng.uniform(1, 5, size=8)
    yq = rng.uniform(1, 5, size=8)
    yj = rng.uniform(1, 5, size=8)
    base = attribute_advantage(x, yq, yj)
    scaled = attribute_advantage(3.7 * x, yq, yj)
    np.testing.assert_array_equal(base.ranking, scaled.ranking)
    np.testing.assert_allclose(scaled.deltas, 3.7 * base.deltas, atol=1e-12)


def test_advantage_ties_break_toward_lower_attribute_index():
    adv = attribute_advantage(np.array([1.0, 1.0, 1.0]),
                              np.array([1.0, 1.0, 3.0]),
                              np.array([3.0, 3.0, 2.0]))
    np.testing.assert_array_equal(adv.deltas, [2.0, 2.0, -1.0])
    assert list(adv.ranking) == [0, 1, 2]


def test_render_single_better_attribute():
    adv = attribute_advantage(np.array([1.0]), np.array([3.0]),
                              np.array([3.5]))
    report = render_interpretation(adv, 1, ["screensize"], "camA", "camB")
    assert report.top_attributes == [("screensize", pytest.approx(0.5), "better")]
    assert report.text == ("Based on the item camA you are currently browsing, "
                           "we recommend you to try camB instead because it "
                           "comes with: better screensize.")


def test_render_zero_delta_reads_comparable():
    adv = attribute_advantage(np.array([2.0]), np.array([3.0]), np.array([3.0]))
    report = render_interpretation(adv, 1, ["battery"], "a", "b")
    assert report.top_attributes[0][2] == "comparable"
    assert "comparable battery" in report.text


def test_render_three_attributes_in_rank_order():
    adv = attribute_advantage(np.array([1.0, 1.0, 1.0]),
                              np.array([2.0, 2.0, 3.0]),
                              np.array([4.0, 3.0, 2.5]))
    # deltas (2, 1, -0.5) -> ranked attr0, attr1, attr2
    report = render_interpretation(adv, 3, ["zoom", "flash", "weight"],
                                   "q", "j")
    adjectives = [adj for _, _, adj in report.top_attributes]
    assert adjectives == ["better", "better", "comparable"]
    assert report.text.endswith(
        "because it comes with: better zoom, better flash, "
        "and comparable weight.")


def test_render_rejects_oversized_top_n():
    """The command line clamps and reports --top-attrs before it renders,
    so nothing is clamped here: a top_n past the attributes raises."""
    adv = attribute_advantage(np.array([1.0, 1.0]), np.array([1.0, 2.0]),
                              np.array([2.0, 1.0]))
    for top_n in (3, 5):
        with pytest.raises(ValueError,
                           match=rf"top_n must be in \[1, 2\], got {top_n}"):
            render_interpretation(adv, top_n, ["a", "b"], "q", "j")
    report = render_interpretation(adv, 2, ["a", "b"], "q", "j")
    assert len(report.top_attributes) == 2


def test_render_rejects_nonpositive_top_n():
    adv = attribute_advantage(np.ones(2), np.ones(2), np.ones(2))
    for top_n in (0, -1):
        with pytest.raises(ValueError,
                           match=rf"top_n must be in \[1, 2\], got {top_n}"):
            render_interpretation(adv, top_n, ["a", "b"], "q", "j")


def test_render_is_pure():
    adv = attribute_advantage(np.array([1.0, 2.0]), np.array([2.0, 3.0]),
                              np.array([3.0, 1.0]))
    one = render_interpretation(adv, 2, ["a", "b"], "q", "j")
    two = render_interpretation(adv, 2, ["a", "b"], "q", "j")
    assert one.text == two.text
    assert one.top_attributes == two.top_attributes
