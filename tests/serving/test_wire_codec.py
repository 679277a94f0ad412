"""The one wire codec: strict JSON in, compact shortest-repr JSON out.

Every line the serving layer reads or writes goes through
:func:`~repro.serving.requests.decode_line` and
:func:`~repro.serving.requests.encode_line` (orjson).  A client reading
replies with Python's ``json`` must get back the exact doubles the
server computed, even where the two encoders spell a number
differently; and the three inputs the stricter decoder rejects must be
answered as malformed, in place, by the JSONL ``serve`` loop.
"""

import io
import json
import struct

import numpy as np
import pytest

import repro.cli as cli
from repro.core.publish import publish
from repro.errors import ServingError
from repro.serving.requests import (
    BatchQueryResponse,
    decode_line,
    encode_line,
    request_from_dict,
)
from repro.serving.server import ReleaseServer

#: Doubles whose text differs between ``json.dumps`` and orjson.
RESPELLED = (2.2022371805842638e-8, 5e-324, -0.0, 1e16)
#: Lines stdlib ``json`` accepted that are not strict JSON.
LENIENT = {
    "NaN": '{"id": 1, "release": "r", "confidence": NaN}',
    "Infinity": '{"id": Infinity, "release": "r"}',
    "lone-surrogate": '{"id": "\\ud800", "release": "r"}',
}


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


@pytest.fixture()
def server():
    with ReleaseServer() as server:
        server.register(
            "r", publish(np.arange(32, dtype=float), 1.0, mechanism="privelet", seed=0)
        )
        yield server


def _serve(server, lines) -> list:
    stream = io.StringIO()
    cli._serve_loop(server, [line + "\n" for line in lines], stream)
    return [json.loads(line) for line in stream.getvalue().splitlines()]


class TestEncodeLine:
    @pytest.mark.parametrize("value", RESPELLED, ids=repr)
    def test_respelled_numbers_read_back_with_the_same_bits(self, value):
        line = encode_line({"estimate": value})
        assert line.endswith(b"\n")
        assert line.decode() != json.dumps({"estimate": value}) + "\n"
        assert _bits(json.loads(line)["estimate"]) == _bits(value)

    def test_numpy_scalars_and_arrays_encode_compactly(self):
        line = encode_line(
            {"a": np.float64(0.1), "b": np.int64(3), "c": np.arange(2.0), "d": (1, 2)}
        )
        assert line == b'{"a":0.1,"b":3,"c":[0.0,1.0],"d":[1,2]}\n'


class TestBatchReplyFromArrays:
    """A batch reply is encoded from its float64 arrays, never their lists."""

    def test_special_doubles_encode_as_their_list_form(self):
        rng = np.random.default_rng(0)
        special = [
            0.0, -0.0, 1e16, 5e-324, np.finfo(float).max, np.finfo(float).tiny / 3,
            *RESPELLED,
        ]
        values = np.concatenate([rng.standard_normal(256 - len(special)) * 1e3, special])
        response = BatchQueryResponse(
            "r", values, np.abs(values), values - 1.0, values[::-1], 0.9, request_id=2
        )
        assert response.to_line() == encode_line(response.to_dict())

    def test_served_256_row_reply_is_byte_identical(self, server):
        rng = np.random.default_rng(1)
        lows = rng.integers(0, 32, 256)
        highs = np.minimum(lows + rng.integers(0, 32, 256), 32)
        payload = {
            "op": "query_batch", "id": 9, "release": "r",
            "ranges": {"value": {"lo": lows.tolist(), "hi": highs.tolist()}},
        }
        [line] = server.answer_payloads([payload])
        response = server.query_columnar(request_from_dict(payload))
        assert len(response) == 256
        assert line == encode_line(response.to_dict())


class TestDecodeLine:
    @pytest.mark.parametrize("line", LENIENT.values(), ids=LENIENT.keys())
    def test_lenient_json_is_malformed(self, line):
        json.loads(line)  # the stdlib decoder takes it
        with pytest.raises(ServingError, match="malformed JSON request") as error:
            decode_line(line)
        assert error.value.code == "bad-request"

    def test_bytes_and_trailing_newline(self):
        assert decode_line(b'{"id": 7}\n') == {"id": 7}

    def test_integer_beyond_64_bits_decodes_as_float(self):
        assert decode_line('{"id": 18446744073709551616}') == {"id": 2.0**64}
        assert decode_line('{"id": 18446744073709551615}') == {"id": 2**64 - 1}


class TestServeLoop:
    def test_lenient_lines_answer_in_place(self, server):
        good = '{"id": 4, "release": "r", "ranges": {"value": [0, 8]}}'
        responses = _serve(server, [*LENIENT.values(), good])
        for response in responses[:-1]:
            assert response["ok"] is False and response["code"] == "bad-request"
            assert "malformed JSON" in response["error"]
            assert response["id"] is None
        assert responses[-1]["ok"] is True and responses[-1]["id"] == 4

    @pytest.mark.parametrize("value", RESPELLED, ids=repr)
    def test_float_ids_echo_with_the_same_bits(self, server, value):
        line = json.dumps({"id": value, "release": "r", "ranges": {"value": [0, 8]}})
        [response] = _serve(server, [line])
        assert response["ok"] is True
        assert _bits(response["id"]) == _bits(value)

    def test_out_of_range_integer_id_echoes_as_float(self, server):
        [response] = _serve(
            server, ['{"id": 18446744073709551616, "release": "r", "ranges": {}}']
        )
        assert response["ok"] is True and response["id"] == 2.0**64

    def test_stats_and_list_encode_in_request_order(self, server):
        query = '{{"id": {}, "release": "r", "ranges": {{"value": [1, 9]}}}}'
        batch = json.dumps({
            "op": "query_batch", "id": 3, "release": "r",
            "ranges": {"value": {"lo": [0, 2], "hi": [4, 6]}},
        })
        lines = [
            query.format(0),
            '{"op": "stats", "id": "s"}',
            query.format(1),
            '{"op": "list", "id": "l"}',
            batch,
            query.format(2),
        ]
        responses = _serve(server, lines)
        assert [r["id"] for r in responses] == [0, "s", 1, "l", 3, 2]
        assert all(r["ok"] for r in responses)
        assert responses[1]["stats"]["releases"] == ["r"]
        assert responses[3]["releases"][0]["name"] == "r"
        assert responses[4]["count"] == 2
