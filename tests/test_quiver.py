import copy
import pickle

import pytest

from quivermotive.quiver import (
    A2,
    JORDAN,
    SINGLE_VERTEX,
    Quiver,
    QuiverFormatError,
    d_shift,
    dim_group,
    dim_rep_space,
    parse_quiver,
    serialize_quiver,
)


class TestQuiver:
    def test_validation(self):
        with pytest.raises(ValueError):
            Quiver(0)
        with pytest.raises(ValueError):
            Quiver(2, ((0, 5),))

    def test_loops_and_multiedges_allowed(self):
        q = Quiver(1, ((0, 0), (0, 0)))
        assert len(q.arrows) == 2

    def test_hashable(self):
        assert hash(JORDAN) == hash(Quiver(1, ((0, 0),)))

    def test_value_semantics(self):
        # what a frozen dataclass gave: equality and hash by field values,
        # the field=value repr, no assignment, copies through the constructor
        fresh = Quiver(1, [[0, 0]])
        assert fresh == JORDAN and hash(fresh) == hash(JORDAN)
        assert fresh != Quiver(1, ((0, 0), (0, 0))) and fresh != SINGLE_VERTEX
        assert fresh != (1, ((0, 0),))
        assert repr(A2) == "Quiver(vertex_count=2, arrows=((0, 1),))"
        with pytest.raises(AttributeError, match="cannot assign to field 'arrows'"):
            fresh.arrows = ()
        with pytest.raises(AttributeError):
            fresh.extra = 1
        with pytest.raises(AttributeError):
            del fresh.vertex_count
        assert copy.deepcopy(A2) == pickle.loads(pickle.dumps(A2)) == A2
        with pytest.raises(ValueError, match="at least one vertex"):
            Quiver(0, ())
        with pytest.raises(ValueError, match=r"arrow \(1, -1\) out of range for 2 vertices"):
            Quiver(2, ((0, 1), (1, -1)))


class TestDimensions:
    def test_rep_space(self):
        assert dim_rep_space(JORDAN, (1,), (1,)) == 2
        assert dim_rep_space(SINGLE_VERTEX, (1,), (2,)) == 2
        assert dim_rep_space(JORDAN, (2,), (1,)) == 6

    def test_group(self):
        assert dim_group((1,)) == 1
        assert dim_group((2, 1)) == 5
        assert dim_group((0,)) == 0

    def test_d_shift(self):
        assert d_shift(JORDAN, (1,), (1,)) == -1
        assert d_shift(SINGLE_VERTEX, (1,), (2,)) == -1
        for q, w in ((JORDAN, (3,)), (A2, (1, 2)), (SINGLE_VERTEX, (0,))):
            zero = (0,) * q.vertex_count
            assert d_shift(q, zero, w) == 0

    def test_mismatched_vector_rejected(self):
        with pytest.raises(ValueError, match="entries"):
            dim_rep_space(A2, (1,), (1, 1))
        with pytest.raises(ValueError, match="nonnegative"):
            dim_rep_space(JORDAN, (-1,), (1,))

    def test_rep_space_additive_over_disjoint_union(self):
        # two copies of the Jordan quiver side by side
        union = Quiver(2, ((0, 0), (1, 1)))
        for v0, w0, v1, w1 in ((1, 1, 2, 0), (2, 2, 1, 1), (0, 1, 3, 2)):
            combined = dim_rep_space(union, (v0, v1), (w0, w1))
            separate = dim_rep_space(JORDAN, (v0,), (w0,)) + dim_rep_space(
                JORDAN, (v1,), (w1,)
            )
            assert combined == separate


class TestParsing:
    def test_jordan_spec(self):
        q, named = parse_quiver('{"vertices": 1, "edges": [[0, 0]], "w": [1]}')
        assert q == JORDAN
        assert named == {"w": (1,)}

    def test_a2_spec(self):
        q, named = parse_quiver('{"vertices": 2, "edges": [[0, 1]], "v": [1, 1], "max_degree": 3}')
        assert q == A2
        assert named["v"] == (1, 1)
        assert named["max_degree"] == 3

    def test_out_of_range_arrow(self):
        with pytest.raises(QuiverFormatError, match=r"edges\[0\]"):
            parse_quiver('{"vertices": 2, "edges": [[0, 5]]}')

    def test_unknown_field(self):
        with pytest.raises(QuiverFormatError, match="unknown field"):
            parse_quiver('{"vertices": 1, "edges": [], "extra": 1}')

    def test_missing_fields(self):
        with pytest.raises(QuiverFormatError, match="vertices"):
            parse_quiver('{"edges": []}')
        with pytest.raises(QuiverFormatError, match="edges"):
            parse_quiver('{"vertices": 1}')

    def test_bad_json_has_position(self):
        with pytest.raises(QuiverFormatError, match="line 1"):
            parse_quiver("{nope}")

    def test_negative_vector_entry(self):
        with pytest.raises(QuiverFormatError, match="nonnegative"):
            parse_quiver('{"vertices": 1, "edges": [], "w": [-1]}')

    def test_wrong_vector_length(self):
        with pytest.raises(QuiverFormatError, match="'w' has 2 entries"):
            parse_quiver('{"vertices": 1, "edges": [], "w": [1, 2]}')

    def test_bool_is_not_an_integer(self):
        with pytest.raises(QuiverFormatError):
            parse_quiver('{"vertices": true, "edges": []}')

    def test_round_trip(self):
        documents = (
            '{"vertices": 1, "edges": [[0, 0]]}',
            '{"vertices": 2, "edges": [[0, 1], [0, 1]], "w": [1, 2], "v": [0, 1]}',
            '{"vertices": 3, "edges": [[0, 1], [0, 2]], "max_degree": 4}',
        )
        for text in documents:
            q, named = parse_quiver(text)
            again, named_again = parse_quiver(serialize_quiver(q, named))
            assert q == again
            assert named == named_again
