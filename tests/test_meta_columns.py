"""The metadata columns, encoded one field at a time, against the
matches() reference of test_filter_mask: values of a subclass of str or
float, a field that first appears after the columns have grown, and a
re-encoded slot that has lost a field it held."""

from __future__ import annotations

import numpy as np
import pytest

from contextdb import Document, Vector, parse_filter
from test_filter_mask import DIM, build, check

KINDS = ["flat", "hnsw", "ivf"]


class Label(str):
    """A str subclass, which metadata accepts as a string."""


def insert(index, rng, doc_id: str, meta: dict) -> None:
    index.insert(Document(doc_id, "", meta, Vector(rng.standard_normal(DIM))))


@pytest.mark.parametrize("kind", KINDS)
def test_subclass_values_filter_as_their_base_kind(rng, kind):
    index = build(kind, rng)
    values = [(Label("a"), np.float64(1.5)), ("a", 2), (Label("b"), 1.5),
              ("b", np.float64(-3.0)), (Label(""), np.float64(2))]
    for i, (label, price) in enumerate(values):
        insert(index, rng, f"d{i}", {"label": label, "price": price})
    q = rng.standard_normal(DIM)
    for text in ['label="a"', 'label in ("b", "")', 'label!="a"', "price<2",
                 "price=1.5", "price in (2, -3)", 'price="a"', "label=1"]:
        check(index, q, parse_filter(text))
    got, err = check(index, q, parse_filter('label="a" && price>=1.5'))
    assert err is None and sorted(got) == ["d0", "d1"]


@pytest.mark.parametrize("kind", KINDS)
def test_a_field_that_appears_after_the_columns_grew(rng, kind):
    index = build(kind, rng)
    q = rng.standard_normal(DIM)
    for i in range(70):
        insert(index, rng, f"d{i}", {"n": i})
    check(index, q, parse_filter("n<35"))        # columns cover 70 slots
    for i in range(70, 250):                     # grow, then grow again
        insert(index, rng, f"d{i}", {"n": i, "late": i % 3 == 0}
               if i >= 100 else {"n": i})
        if i in (100, 180):
            check(index, q, parse_filter("late=true"))
    for text in ["late!=true", "late=true && n<200", "n>=100", "late=1"]:
        check(index, q, parse_filter(text))
    got, err = check(index, q, parse_filter("late=true"))
    assert err is None and got and all(int(d[1:]) % 3 == 0 for d in got)


@pytest.mark.parametrize("kind", KINDS)
def test_a_re_encoded_slot_loses_the_field_it_held(rng, kind):
    index = build(kind, rng)
    q = rng.standard_normal(DIM)
    insert(index, rng, "d0", {"b": "x", "a": 1})
    insert(index, rng, "d1", {"a": 2})
    insert(index, rng, "d2", {"a": 3})
    assert check(index, q, parse_filter('b="x"'))[0] == ["d0"]
    index.remove("d0")          # flat and ivf move d2 into d0's slot
    for text in ['b="x"', 'b!="y"', "a>0"]:
        check(index, q, parse_filter(text))
    insert(index, rng, "d0", {"a": 4})
    insert(index, rng, "d1", {"a": 5})          # a replace
    for text in ['b!="y"', "a>0", "a=5"]:
        check(index, q, parse_filter(text))
    assert check(index, q, parse_filter('b="x"'))[0] == []
