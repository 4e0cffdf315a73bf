import numpy as np
import pytest

from contextdb import (Clause, Document, FilterExpr, FilterParseError,
                       FilterTypeMismatchError, Op, Vector, evaluate_filter,
                       parse_filter)


def doc(**metadata) -> Document:
    return Document(id="d", text="", metadata=metadata, embedding=Vector([0.0]))


class TestParse:
    def test_empty_is_match_all(self):
        assert parse_filter("") == FilterExpr.match_all()
        assert parse_filter("   ") == FilterExpr.match_all()
        assert not parse_filter("")

    @pytest.mark.parametrize("text,op", [
        ("price=90", Op.EQ), ("price!=90", Op.NE), ("price<90", Op.LT),
        ("price<=90", Op.LE), ("price>90", Op.GT), ("price>=90", Op.GE),
    ])
    def test_numeric_ops(self, text, op):
        expr = parse_filter(text)
        assert expr.clauses == (Clause("price", op, 90),)

    def test_literals(self):
        assert parse_filter('brand="Reebok"').clauses[0].value == "Reebok"
        assert parse_filter("price=90.5").clauses[0].value == 90.5
        assert parse_filter("price=-3").clauses[0].value == -3
        assert parse_filter("price=1e3").clauses[0].value == 1000.0
        assert parse_filter("sale=true").clauses[0].value is True
        assert parse_filter("sale=FALSE").clauses[0].value is False

    def test_string_escapes(self):
        assert parse_filter(r'name="a\"b\\c"').clauses[0].value == 'a"b\\c'

    def test_in_lists(self):
        expr = parse_filter('size in (9, 10, 10.5)')
        assert expr.clauses[0].op is Op.IN
        assert expr.clauses[0].value == (9, 10, 10.5)
        expr = parse_filter('brand in ("Nike","Reebok")')
        assert expr.clauses[0].value == ("Nike", "Reebok")

    def test_conjunction(self):
        expr = parse_filter('price<100 && brand="Reebok" && size in (9,10)')
        assert len(expr.clauses) == 3
        assert [c.field for c in expr.clauses] == ["price", "brand", "size"]

    def test_whitespace_insensitive(self):
        assert parse_filter("price < 100") == parse_filter("price<100")

    def test_field_named_like_keyword(self):
        # "inventory" starts with "in"; must parse as a field, not the operator
        expr = parse_filter("inventory=3")
        assert expr.clauses[0].field == "inventory"

    @pytest.mark.parametrize("text,column", [
        ("price<<100", 7),       # second '<' is not a literal
        ("=90", 1),              # missing field
        ('brand="Reeb', 12),     # unterminated string
        ("price<100 &&", 13),    # dangling conjunction
        ("price<100 brand=1", 11),  # missing &&
        ("size in 9", 9),        # missing parenthesis
        ("size in (9", 11),      # unterminated list
        ("price<", 7),           # missing literal
        ("x=1.", 3),             # no digits after the point
        ("x=-", 3),              # sign without digits
        ("x in (1,)", 9),        # trailing comma
        (r'x="a\q"', 5),         # invalid escape
        ("x=\u00b2", 3),         # isdigit() but not a decimal digit
        pytest.param("x=" + "9" * 5000, 3, id="x=9*5000"),  # int() limit
    ])
    def test_errors_carry_1based_column(self, text, column):
        with pytest.raises(FilterParseError) as exc_info:
            parse_filter(text)
        assert exc_info.value.column == column
        assert f"column {column}" in str(exc_info.value)

    def test_ordering_op_rejects_non_number(self):
        with pytest.raises(FilterParseError):
            parse_filter('brand<"Reebok"')
        with pytest.raises(FilterParseError):
            parse_filter("sale>=true")


class TestClauseValidation:
    def test_direct_construction_mirrors_grammar(self):
        with pytest.raises(ValueError):
            Clause("price", Op.LT, "cheap")
        with pytest.raises(ValueError):
            Clause("size", Op.IN, ())
        with pytest.raises(ValueError):
            Clause("", Op.EQ, 1)


class TestEvaluate:
    def test_match_all_matches_everything(self):
        assert evaluate_filter(FilterExpr.match_all(), doc())
        assert evaluate_filter(FilterExpr.match_all(), doc(price=1))

    def test_numeric_comparisons(self):
        d = doc(price=90)
        assert evaluate_filter(parse_filter("price<100"), d)
        assert evaluate_filter(parse_filter("price<=90"), d)
        assert not evaluate_filter(parse_filter("price<90"), d)
        assert evaluate_filter(parse_filter("price>=90"), d)
        assert evaluate_filter(parse_filter("price!=91"), d)

    def test_int_float_equality(self):
        assert evaluate_filter(parse_filter("price=90.0"), doc(price=90))
        assert evaluate_filter(parse_filter("price=90"), doc(price=90.0))

    def test_string_and_bool_equality(self):
        assert evaluate_filter(parse_filter('brand="Reebok"'), doc(brand="Reebok"))
        assert not evaluate_filter(parse_filter('brand="reebok"'), doc(brand="Reebok"))
        assert evaluate_filter(parse_filter("sale=true"), doc(sale=True))
        assert not evaluate_filter(parse_filter("sale=true"), doc(sale=False))

    def test_in_membership(self):
        d = doc(size=10)
        assert evaluate_filter(parse_filter("size in (9, 10)"), d)
        assert not evaluate_filter(parse_filter("size in (8, 9)"), d)

    def test_missing_field_is_no_match_not_error(self):
        assert not evaluate_filter(parse_filter("price<100"), doc(brand="x"))
        # NE of a missing field is also no-match: the clause never holds
        assert not evaluate_filter(parse_filter("price!=5"), doc(brand="x"))

    def test_kind_mismatch_raises(self):
        with pytest.raises(FilterTypeMismatchError):
            evaluate_filter(parse_filter('price="90"'), doc(price=90))
        with pytest.raises(FilterTypeMismatchError):
            evaluate_filter(parse_filter("price<100"), doc(price="ninety"))
        with pytest.raises(FilterTypeMismatchError):
            evaluate_filter(parse_filter("price=1"), doc(price=True))

    def test_conjunction_requires_all(self):
        d = doc(price=90, brand="Reebok")
        assert evaluate_filter(parse_filter('price<100 && brand="Reebok"'), d)
        assert not evaluate_filter(parse_filter('price<100 && brand="Nike"'), d)


class TestEvaluateAgainstOracle:
    def test_randomized_docs_match_plain_python_predicates(self, rng):
        """Property check against hand-written predicates over 300 documents."""
        brands = ["Nike", "Adidas", "Reebok", "ASICS", "Puma"]
        docs = [doc(price=int(rng.integers(0, 200)),
                    brand=brands[int(rng.integers(0, 5))],
                    sale=bool(rng.integers(0, 2)))
                for _ in range(300)]
        cases = [
            ("price<50", lambda m: m["price"] < 50),
            ("price>=150", lambda m: m["price"] >= 150),
            ('brand="Reebok"', lambda m: m["brand"] == "Reebok"),
            ('brand!="Nike"', lambda m: m["brand"] != "Nike"),
            ("sale=true", lambda m: m["sale"] is True),
            ('price<100 && brand in ("Reebok","Puma")',
             lambda m: m["price"] < 100 and m["brand"] in ("Reebok", "Puma")),
            ("price>25 && price<=75 && sale=false",
             lambda m: 25 < m["price"] <= 75 and m["sale"] is False),
        ]
        for text, want in cases:
            expr = parse_filter(text)
            for d in docs:
                assert evaluate_filter(expr, d) == want(d.metadata), (text, dict(d.metadata))
