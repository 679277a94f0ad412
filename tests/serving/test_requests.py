"""Tests for the serving wire types."""

import json

import numpy as np
import pytest

from repro.data.attributes import OrdinalAttribute
from repro.data.schema import Schema
from repro.errors import QueryError, ServingError
from repro.queries.engine import BatchQueryAnswers
from repro.serving.requests import (
    BatchQueryResponse,
    ErrorResponse,
    QueryBatchRequest,
    QueryRequest,
    QueryResponse,
    parse_request_line,
)


@pytest.fixture
def schema():
    return Schema([OrdinalAttribute("X", 8), OrdinalAttribute("Y", 4)])


class TestQueryRequest:
    def test_ranges_normalize_from_dict_and_triples(self):
        from_dict = QueryRequest("r", {"Y": (0, 2), "X": (1, 3)})
        from_triples = QueryRequest("r", [("X", 1, 3), ("Y", 0, 2)])
        assert from_dict == from_triples
        assert from_dict.ranges == (("X", 1, 3), ("Y", 0, 2))
        assert hash(from_dict) == hash(from_triples)

    def test_defaults(self):
        request = QueryRequest("r")
        assert request.ranges == ()
        assert request.confidence == 0.95
        assert request.request_id is None

    def test_rejects_bad_release(self):
        with pytest.raises(ServingError, match="release name"):
            QueryRequest("")
        with pytest.raises(ServingError, match="release name"):
            QueryRequest(7)

    def test_rejects_bad_confidence(self):
        with pytest.raises(ServingError, match="confidence"):
            QueryRequest("r", confidence=1.0)
        with pytest.raises(ServingError, match="confidence"):
            QueryRequest("r", confidence="high")

    def test_rejects_bad_ranges(self):
        with pytest.raises(ServingError, match="range"):
            QueryRequest("r", [("X", 1)])
        with pytest.raises(ServingError, match="range"):
            QueryRequest("r", {"X": (1, "wide")})

    def test_to_query_binds_predicates(self, schema):
        query = QueryRequest("r", {"X": (2, 5)}).to_query(schema)
        assert query.box() == ((2, 5), (0, 4))

    def test_to_query_unknown_attribute(self, schema):
        with pytest.raises(QueryError, match="no attribute"):
            QueryRequest("r", {"Bogus": (0, 1)}).to_query(schema)

    def test_to_query_out_of_bounds(self, schema):
        with pytest.raises(QueryError):
            QueryRequest("r", {"X": (0, 100)}).to_query(schema)

    def test_dict_round_trip(self):
        request = QueryRequest("r", {"X": (1, 3)}, confidence=0.9, request_id=42)
        assert QueryRequest.from_dict(request.to_dict()) == request

    def test_from_dict_requires_release(self):
        with pytest.raises(ServingError, match="release"):
            QueryRequest.from_dict({"ranges": {}})

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ServingError, match="unknown request fields"):
            QueryRequest.from_dict({"release": "r", "rangez": {}})

    def test_from_dict_rejects_non_object(self):
        with pytest.raises(ServingError, match="JSON object"):
            QueryRequest.from_dict([1, 2, 3])
        with pytest.raises(ServingError, match="ranges"):
            QueryRequest.from_dict({"release": "r", "ranges": [1]})

    def test_rejects_non_integral_float_bounds(self):
        # Regression: int(3.7) used to truncate a malformed bound to 3,
        # silently answering a different box than the client sent.
        with pytest.raises(ServingError, match="must be an integer"):
            QueryRequest("r", {"X": (1, 3.7)})
        with pytest.raises(ServingError, match="must be an integer"):
            QueryRequest("r", {"X": (0.5, 3)})
        with pytest.raises(ServingError, match="must be an integer"):
            QueryRequest("r", {"X": (True, 3)})
        with pytest.raises(ServingError, match="must be an integer"):
            QueryRequest("r", time_range=(0.5, 2))

    def test_integral_floats_still_accepted(self):
        # JSON clients may well send 3.0 for 3; that is not malformed.
        request = QueryRequest("r", {"X": (1.0, 3.0)}, time_range=(0.0, 2.0))
        assert request.ranges == (("X", 1, 3),)
        assert request.time_range == (0, 2)
        assert all(isinstance(b, int) for b in request.ranges[0][1:])


class TestQueryBatchRequest:
    def _ranges(self):
        return {"X": {"lo": [0, 2], "hi": [4, 2]}, "Y": {"lo": [1, 0], "hi": [3, 4]}}

    def test_columns_decode_to_int64_arrays(self):
        request = QueryBatchRequest("r", self._ranges())
        assert len(request) == 2
        assert request.names == ("X", "Y")
        assert request.lows.dtype == np.int64 and request.lows.shape == (2, 2)
        assert request.highs.tolist() == [[4, 3], [2, 4]]
        assert not request.lows.flags.writeable

    def test_names_sorted_for_plan_key(self):
        request = QueryBatchRequest(
            "r", {"Y": {"lo": [0], "hi": [1]}, "X": {"lo": [0], "hi": [1]}}
        )
        assert request.names == ("X", "Y")
        assert request.plan_key == ("r", ("X", "Y"), None)

    def test_accepts_pair_form_and_float_integral(self):
        request = QueryBatchRequest("r", {"X": ([0.0, 1.0], [2.0, 3.0])})
        assert request.lows.tolist() == [[0], [1]]

    def test_rejects_non_integral_columns(self):
        with pytest.raises(ServingError, match="integer"):
            QueryBatchRequest("r", {"X": {"lo": [0.5], "hi": [2]}})
        with pytest.raises(ServingError, match="integer|finite"):
            QueryBatchRequest("r", {"X": {"lo": [float("nan")], "hi": [2]}})
        with pytest.raises(ServingError, match="integer"):
            QueryBatchRequest("r", {"X": {"lo": ["a"], "hi": [2]}})
        # An inferred dtype reads [0, True] as the integers [0, 1]: a
        # bool anywhere in a list is refused, in one conversion per side
        # or column by column (the pair form, or a float column beside).
        for ranges in (
            {"X": {"lo": [0, True], "hi": [1, 2]}},
            {"X": ([0, True], [1, 2])},
            {"X": {"lo": [0.0, 1.0], "hi": [1, 2]}, "Y": {"lo": [0, 1], "hi": [True, 2]}},
        ):
            with pytest.raises(ServingError, match="integers, got bool values"):
                QueryBatchRequest("r", ranges)

    def test_every_bound_form_decodes_alike(self):
        lows, highs = [[0, 2, 5], [1, 0, 3]], [[4, 2, 8], [3, 4, 4]]
        forms = [
            {name: {"lo": lo, "hi": hi} for name, lo, hi in zip("XY", lows, highs)},
            {
                name: {"lo": np.asarray(lo), "hi": np.asarray(hi, dtype=np.int32)}
                for name, lo, hi in zip("XY", lows, highs)
            },
            {name: (lo, hi) for name, lo, hi in zip("XY", lows, highs)},
            {name: {"lo": lo, "hi": [float(v) for v in hi]}
             for name, lo, hi in zip("XY", lows, highs)},
        ]
        for ranges in forms:
            request = QueryBatchRequest("r", ranges)
            assert request.lows.dtype == request.highs.dtype == np.int64
            assert request.lows.T.tolist() == lows
            assert request.highs.T.tolist() == highs

    def test_rejects_mismatched_and_empty_columns(self):
        with pytest.raises(ServingError, match="length"):
            QueryBatchRequest("r", {"X": {"lo": [0, 1], "hi": [2]}})
        with pytest.raises(ServingError, match="at least one query row"):
            QueryBatchRequest("r", {"X": {"lo": [], "hi": []}})
        with pytest.raises(ServingError, match="ranges"):
            QueryBatchRequest("r", {})

    def test_rejects_bad_bounds_vectorized(self):
        with pytest.raises(ServingError, match=r"invalid range \[-1, 2\).*row 0"):
            QueryBatchRequest("r", {"X": {"lo": [-1], "hi": [2]}})
        with pytest.raises(ServingError, match=r"invalid range \[3, 2\).*row 1"):
            QueryBatchRequest("r", {"X": {"lo": [0, 3], "hi": [2, 2]}})

    def test_rejects_bad_range_spec_shape(self):
        with pytest.raises(ServingError, match="lo.*hi|hi.*lo"):
            QueryBatchRequest("r", {"X": {"lo": [0]}})
        with pytest.raises(ServingError, match="lo"):
            QueryBatchRequest("r", {"X": [0, 1, 2]})

    def test_bind_scatters_into_full_domain(self, schema):
        request = QueryBatchRequest("r", {"Y": {"lo": [1], "hi": [3]}})
        lows, highs = request.bind(schema)
        assert lows.tolist() == [[0, 1]]
        assert highs.tolist() == [[8, 3]]

    def test_bind_rejects_out_of_domain(self, schema):
        request = QueryBatchRequest("r", {"Y": {"lo": [0], "hi": [5]}})
        with pytest.raises(ServingError, match="exceeds the domain"):
            request.bind(schema)

    def test_dict_round_trip(self):
        request = QueryBatchRequest(
            "r", self._ranges(), confidence=0.9, request_id=7
        )
        payload = json.loads(json.dumps(request.to_dict()))
        again = QueryBatchRequest.from_dict(payload)
        assert again.plan_key == request.plan_key
        assert np.array_equal(again.lows, request.lows)
        assert np.array_equal(again.highs, request.highs)
        assert again.confidence == 0.9 and again.request_id == 7

    def test_from_dict_rejects_unknown_fields_and_op(self):
        with pytest.raises(ServingError, match="unknown"):
            QueryBatchRequest.from_dict(
                {"release": "r", "ranges": self._ranges(), "bogus": 1}
            )
        with pytest.raises(ServingError, match="op"):
            QueryBatchRequest.from_dict(
                {"release": "r", "ranges": self._ranges(), "op": "query"}
            )

    def test_parse_request_line_dispatches_on_op(self):
        line = json.dumps(
            {"op": "query_batch", "release": "r", "ranges": self._ranges()}
        )
        assert isinstance(parse_request_line(line), QueryBatchRequest)
        assert isinstance(
            parse_request_line('{"release": "r"}'), QueryRequest
        )


class TestBatchQueryResponse:
    def _response(self):
        answers = BatchQueryAnswers(
            estimates=np.array([1.0, 2.0]),
            noise_stds=np.array([0.5, 0.25]),
            lowers=np.array([0.0, 1.5]),
            uppers=np.array([2.0, 2.5]),
            confidence=0.9,
        )
        return BatchQueryResponse.from_answers("r", answers, request_id=5)

    def test_adopts_arrays_zero_copy(self):
        answers = BatchQueryAnswers(
            estimates=np.array([1.0]),
            noise_stds=np.array([0.5]),
            lowers=np.array([0.0]),
            uppers=np.array([2.0]),
            confidence=0.9,
        )
        response = BatchQueryResponse.from_answers("r", answers)
        assert response.estimates is answers.estimates

    def test_wire_shape_single_dump(self):
        response = self._response()
        payload = json.loads(response.to_json())
        assert payload["ok"] is True and payload["id"] == 5
        assert payload["count"] == 2
        assert payload["estimates"] == [1.0, 2.0]
        assert payload["noise_stds"] == [0.5, 0.25]

    def test_indexing_yields_scalar_responses(self):
        response = self._response()
        assert len(response) == 2
        first = response[0]
        assert isinstance(first, QueryResponse)
        assert first.estimate == 1.0 and first.confidence == 0.9
        assert [r.estimate for r in response] == [1.0, 2.0]


class TestResponses:
    def test_query_response_wire_shape(self):
        response = QueryResponse("r", 10.0, 2.0, 6.0, 14.0, 0.95, request_id=3)
        payload = response.to_dict()
        assert payload["ok"] is True
        assert payload["id"] == 3
        assert payload["estimate"] == 10.0
        json.dumps(payload)  # wire-serializable

    def test_error_response_code_mapping(self):
        serving = ServingError("gone", code="unknown-release")
        assert ErrorResponse.from_exception(serving, 1).code == "unknown-release"
        assert ErrorResponse.from_exception(QueryError("bad"), 1).code == "bad-request"
        assert ErrorResponse.from_exception(ValueError("boom")).code == "internal"
        payload = ErrorResponse.from_exception(serving, 1).to_dict()
        assert payload["ok"] is False and payload["error"] == "gone"


class TestParseRequestLine:
    def test_parses_valid_line(self):
        request = parse_request_line(
            '{"release": "r", "ranges": {"X": [1, 3]}, "id": 9}'
        )
        assert request.release == "r"
        assert request.request_id == 9

    def test_malformed_json_is_serving_error(self):
        with pytest.raises(ServingError, match="malformed JSON"):
            parse_request_line("{nope")

    @pytest.mark.parametrize(
        "line",
        [
            '{"release": "r", "confidence": "0.9"}',
            '{"op": "query_batch", "release": "r", "confidence": "0.9", '
            '"ranges": {"X": {"lo": [0], "hi": [2]}}}',
        ],
        ids=["query", "query_batch"],
    )
    def test_string_confidence_rejected(self, line):
        # Regression: float("0.9") used to accept a string confidence on
        # the wire while string range bounds were already rejected.
        with pytest.raises(ServingError, match="confidence must be a number"):
            parse_request_line(line)


class TestSharedValidation:
    """Both request types share one confidence and one time-range check."""

    @staticmethod
    def _build(kind, **kwargs):
        if kind == "query":
            return QueryRequest("r", {"X": (0, 2)}, **kwargs)
        return QueryBatchRequest("r", {"X": {"lo": [0], "hi": [2]}}, **kwargs)

    @pytest.mark.parametrize("kind", ["query", "query_batch"])
    @pytest.mark.parametrize("confidence", ["0.9", True, None, float("nan"), 0.0])
    def test_bad_confidence_rejected(self, kind, confidence):
        with pytest.raises(ServingError, match="confidence"):
            self._build(kind, confidence=confidence)

    @pytest.mark.parametrize("kind", ["query", "query_batch"])
    def test_numpy_confidence_accepted(self, kind):
        request = self._build(kind, confidence=np.float64(0.9))
        assert request.confidence == 0.9 and type(request.confidence) is float

    @pytest.mark.parametrize("kind", ["query", "query_batch"])
    @pytest.mark.parametrize(
        "time_range", [(3, 1), (-1, 2), (0.5, 2), ("0", 2), (1,), 5, "01"]
    )
    def test_bad_time_range_rejected(self, kind, time_range):
        with pytest.raises(ServingError, match="time_range"):
            self._build(kind, time_range=time_range)

    @pytest.mark.parametrize("kind", ["query", "query_batch"])
    def test_time_range_normalized(self, kind):
        assert self._build(kind, time_range=[1.0, None]).time_range == (1, None)
        assert self._build(kind, time_range=(0, 3)).time_range == (0, 3)
