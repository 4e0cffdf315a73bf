import math

import numpy as np
import pytest

from contextdb import (DimensionMismatchError, Document, FixtureEmbedder,
                       HashEmbedder, InvalidVectorError, UnknownFixtureKeyError,
                       Vector, euclidean_distance, fixture_embed, hash_embed,
                       meta_kind)
from contextdb.core import FIXTURE_EMBEDDINGS


class TestVector:
    def test_round_trips_values(self):
        v = Vector([1.0, 2.5, -3.0])
        assert v.tolist() == [1.0, 2.5, -3.0]
        assert v.dim == 3
        assert len(v) == 3

    def test_accepts_ints_and_numpy(self):
        assert Vector([1, 2]).values.dtype == np.float64
        assert Vector(np.array([1.5, 2.5], dtype=np.float32)).tolist() == [1.5, 2.5]

    def test_copies_and_freezes_input(self):
        src = np.array([1.0, 2.0])
        v = Vector(src)
        src[0] = 99.0
        assert v.tolist() == [1.0, 2.0]
        with pytest.raises(ValueError):
            v.values[0] = 5.0

    @pytest.mark.parametrize("bad", [[], [float("nan")], [1.0, float("inf")],
                                     [-float("inf"), 0.0]])
    def test_rejects_empty_and_nonfinite(self, bad):
        with pytest.raises(InvalidVectorError):
            Vector(bad)

    def test_rejects_2d(self):
        with pytest.raises(InvalidVectorError):
            Vector(np.zeros((2, 2)))

    def test_equality_and_hash(self):
        assert Vector([1.0, 2.0]) == Vector([1, 2])
        assert Vector([1.0, 2.0]) != Vector([2.0, 1.0])
        assert hash(Vector([1.0, 2.0])) == hash(Vector([1.0, 2.0]))


class TestEuclideanDistance:
    def test_hand_computed(self):
        # 3-4-5 triangle
        assert euclidean_distance(Vector([0, 0]), Vector([3, 4])) == 5.0

    def test_matches_math_dist(self, rng):
        for _ in range(50):
            a, b = rng.standard_normal(6), rng.standard_normal(6)
            want = math.dist(a.tolist(), b.tolist())
            assert euclidean_distance(Vector(a), Vector(b)) == pytest.approx(want, abs=1e-12)

    def test_symmetric_bitwise(self, rng):
        a, b = Vector(rng.standard_normal(9)), Vector(rng.standard_normal(9))
        assert euclidean_distance(a, b) == euclidean_distance(b, a)

    def test_identity(self):
        v = Vector([1.5, -2.0, 0.25])
        assert euclidean_distance(v, v) == 0.0

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            euclidean_distance(Vector([1.0]), Vector([1.0, 2.0]))

    def test_worked_example_distances(self):
        # query (3.0, 2.7) against the four catalog embeddings
        q = Vector([3.0, 2.7])
        cases = [((1.2, 3.5), 1.97), ((2.0, 3.2), 1.12),
                 ((3.1, 2.9), 0.22), ((2.5, 3.0), 0.58)]
        for coords, want in cases:
            assert euclidean_distance(Vector(coords), q) == pytest.approx(want, abs=0.005)


class TestMetaKind:
    def test_kinds(self):
        assert meta_kind(True) == "boolean"
        assert meta_kind(3) == "number"
        assert meta_kind(3.5) == "number"
        assert meta_kind("x") == "string"

    def test_bool_is_not_number(self):
        # bool subclasses int; the kind system must still keep them apart
        assert meta_kind(True) != meta_kind(1)

    def test_unsupported(self):
        with pytest.raises(TypeError):
            meta_kind([1, 2])
        with pytest.raises(TypeError):
            meta_kind(None)


class TestDocument:
    def test_basic(self):
        d = Document(id="a", text="hello", metadata={"price": 90},
                     embedding=Vector([1.0, 2.0]))
        assert d.metadata["price"] == 90

    def test_metadata_is_read_only(self):
        d = Document(id="a", text="", metadata={"x": 1}, embedding=Vector([0.0]))
        with pytest.raises(TypeError):
            d.metadata["x"] = 2  # type: ignore[index]

    def test_rejects_empty_id(self):
        with pytest.raises(ValueError):
            Document(id="", text="", metadata={}, embedding=Vector([1.0]))

    def test_rejects_non_vector_embedding(self):
        with pytest.raises(TypeError):
            Document(id="a", text="", metadata={}, embedding=[1.0, 2.0])  # type: ignore[arg-type]

    def test_rejects_bad_metadata(self):
        with pytest.raises(ValueError):
            Document(id="a", text="", metadata={"bad key": 1},
                     embedding=Vector([1.0]))
        with pytest.raises(TypeError):
            Document(id="a", text="", metadata={"k": [1]},  # type: ignore[dict-item]
                     embedding=Vector([1.0]))

    @pytest.mark.parametrize("space", [" ", "\t", "\x1c", "\x85", "\xa0",
                                       "\u2028", "\u3000"])
    def test_rejects_a_key_holding_any_whitespace(self, space):
        for key in (space, "a" + space, space + "a", "a" + space + "b"):
            with pytest.raises(ValueError, match="whitespace"):
                Document(id="a", text="", metadata={key: 1},
                         embedding=Vector([1.0]))

    def test_accepts_subclasses_of_the_value_types(self):
        class Tag(str):
            pass

        d = Document(id="a", text="", embedding=Vector([1.0]),
                     metadata={"k\u200b": Tag("x"), "f": np.float64(0.5)})
        assert dict(d.metadata) == {"k\u200b": "x", "f": 0.5}
        with pytest.raises(TypeError):
            Document(id="a", text="", metadata={"k": np.int64(1)},
                     embedding=Vector([1.0]))

    @pytest.mark.parametrize("text", [5, None, b"bytes"])
    def test_rejects_non_string_text(self, text):
        with pytest.raises(TypeError, match="text must be a string"):
            Document(id="a", text=text, metadata={}, embedding=Vector([1.0]))


class TestHashEmbedder:
    def test_deterministic_across_instances(self):
        a = HashEmbedder(dim=32, seed=1).embed("running shoes")
        b = HashEmbedder(dim=32, seed=1).embed("running shoes")
        assert a == b

    def test_seed_and_text_sensitivity(self):
        base = hash_embed("running shoes", 32, seed=0)
        assert hash_embed("running shoes", 32, seed=1) != base
        assert hash_embed("running shoe", 32, seed=0) != base

    def test_unit_norm(self):
        for text in ("", "a", "the quick brown fox"):
            v = hash_embed(text, 48)
            assert np.linalg.norm(v.values) == pytest.approx(1.0, abs=1e-12)

    def test_dim_contract(self):
        assert HashEmbedder(dim=7).dim == 7
        assert HashEmbedder(dim=7).embed("x").dim == 7
        with pytest.raises(ValueError):
            HashEmbedder(dim=0)
        with pytest.raises(ValueError):
            hash_embed("x", 0)


class TestFixtureEmbedder:
    def test_known_keys(self):
        emb = FixtureEmbedder()
        assert emb.dim == 2
        assert emb.embed("Reebok Floatride").tolist() == [3.1, 2.9]
        assert fixture_embed(
            "I need comfortable running shoes under $100").tolist() == [3.0, 2.7]

    def test_table_is_exactly_the_demo_set(self):
        assert set(FIXTURE_EMBEDDINGS) == {
            "Nike ZoomX Infinity Run", "Adidas UltraBoost",
            "Reebok Floatride", "ASICS Gel-Kayano",
            "I need comfortable running shoes under $100"}

    def test_unknown_key(self):
        with pytest.raises(UnknownFixtureKeyError) as exc_info:
            fixture_embed("Converse Chuck Taylor")
        assert "Converse Chuck Taylor" in str(exc_info.value)
