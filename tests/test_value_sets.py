"""The elementwise value-set tests decide as np.unique-based rules would.

Three places ask what values a column takes: whether an inferred ordering
is binary (`cli._ordering_kind`), whether a binary_group ordering holds only
0 and 1 (`OrderingVariable`), and whether a battery regressor takes a third
distinct value, so that its square is probed (`misspec._regressor_terms`).
Each is checked here against the rule written with np.unique.
"""

import numpy as np
import pytest

from revcheck import cli, misspec
from revcheck.errors import InvalidSpec
from revcheck.regression import Dataset, OrderingVariable

_rng = np.random.default_rng(23)
_bits = _rng.integers(0, 2, 5000).astype(float)

COLUMNS = {
    "zero and one": [0.0, 1.0, 1.0, 0.0, 1.0],
    "signed zeros and one": [-0.0, 0.0, 1.0, -0.0, 1.0],
    "signed zeros alone": [-0.0, 0.0, -0.0, 0.0, 0.0],
    "zero and two": [0.0, 2.0, 0.0, 2.0, 2.0],
    "minus one and one": [-1.0, 1.0, 1.0, -1.0, 1.0],
    "zero, a half and one": [0.0, 0.5, 1.0, 0.5, 0.0],
    "constant one": [1.0] * 5,
    "constant three": [3.0] * 5,
    "two values": [-1.5, 4.0, 4.0, -1.5, 4.0],
    "three values": [0.0, 1.0, 2.0, 1.0, 0.0],
    "three values, middle last": [5.0, -5.0, 5.0, -5.0, 0.0],
    "increasing": [1.0, 2.0, 3.0, 4.0, 5.0],
    "5,000 rows of 0 and 1": _bits,
    "5,000 rows of 0 and 1 and one 2": np.where(np.arange(5000) == 4321, 2.0, _bits),
    "5,000 rows of two values": np.where(_bits == 1.0, 7.25, -3.5),
    "5,000 rows, continuous": _rng.standard_normal(5000),
    "NaN": [0.0, 1.0, np.nan, 1.0, 0.0],
    "only NaN": [np.nan] * 5,
    "inf": [0.0, 1.0, np.inf, 1.0, 0.0],
    "-inf": [0.0, 1.0, -np.inf, 1.0, 0.0],
    "NaN in an increasing column": [1.0, 2.0, np.nan, 4.0, 5.0],
}
# A Dataset holds finite values.
FINITE = [name for name, values in COLUMNS.items() if np.all(np.isfinite(values))]


def _column(name):
    return np.array(COLUMNS[name], dtype=float)


def _binary_by_unique(values):
    return set(np.unique(values)) <= {0.0, 1.0}


@pytest.mark.parametrize("name", list(COLUMNS))
def test_inferred_ordering_kind_matches_the_unique_rule(name):
    values = _column(name)
    if _binary_by_unique(values):
        expected = "binary_group"
    elif np.all(np.diff(values) > 0):
        expected = "time"
    else:
        expected = "categorical"
    assert cli._ordering_kind("", values) == expected


@pytest.mark.parametrize("name", list(COLUMNS))
def test_binary_group_ordering_accepts_what_the_unique_rule_accepts(name):
    values = _column(name)
    if _binary_by_unique(values):
        assert np.array_equal(OrderingVariable("g", "binary_group", values).values, values)
    else:
        with pytest.raises(InvalidSpec, match="must contain only 0 and 1"):
            OrderingVariable("g", "binary_group", values)


@pytest.mark.parametrize("name", FINITE)
def test_regressor_square_is_probed_when_unique_finds_a_third_value(name):
    x = _column(name)
    data = Dataset(columns={"x": x})
    terms = [term for term, _, _ in misspec._regressor_terms(data, ("x",))]
    third_value = len(np.unique(x)) > 2
    assert terms == (["x", "x^2"] if third_value else ["x"])
