"""Every JSON input boundary reads its good value and refuses a bad one
with its own error class.

Each refusal row puts one bad value at one path of the boundary's good
value: a bool or a numeric string where a number is due, null where a
value is required, a missing required key, or a list element of the
wrong type. JSON-lines files carry the value on line 2, after a good line.
Where the value is read as a dataclass, the refusal names the key of each
field it is under.
"""

import copy
import datetime
import json

import pytest

from tracer.alignment import AlignmentLabel, _read_label
from tracer.che import NliVerdict, nli_check
from tracer.config import config_from_dict
from tracer.corpus import Label, load_corpus
from tracer.decoding import DecodeError, decode
from tracer.errors import BackendError, ConfigError, ParseError
from tracer.fixtures import SCENARIO_MOCK, data_path
from tracer.gateway import Endpoint, LiveBackend, MockScript
from tracer.verdict import load_base_verdicts, load_reports

from conftest import SCENARIO_EXPECTED

MISSING = object()


def _lines(load):
    def read(tmp_path, boundary, value):
        path = tmp_path / "input.jsonl"
        first = {**_good(boundary), "id": "first"}
        path.write_text(json.dumps(first) + "\n" + json.dumps(value) + "\n", encoding="utf-8")
        return load(path)

    return read


def _mock(tmp_path, boundary, value):
    path = tmp_path / "mock.json"
    path.write_text(json.dumps(value), encoding="utf-8")
    return MockScript.from_file(path)


def _live(value):
    return LiveBackend("m", api_key="k", post=lambda url, payload: value)


def _chat(tmp_path, boundary, value):
    [outcome] = _live(value).complete([("t", "p")])
    if isinstance(outcome, BaseException):  # a failed completion is returned, not raised
        raise outcome
    return outcome


def _classifier(read):
    def ask(tmp_path, boundary, value):
        return read(Endpoint(f"http://host/{boundary}", post=lambda url, payload: value))

    return ask


# boundary -> (its reader of one value, the error class it refuses a bad one with)
BOUNDARIES = {
    "corpus": (_lines(load_corpus), ParseError),
    "base_verdicts": (_lines(load_base_verdicts), ParseError),
    "reports": (_lines(load_reports), ParseError),
    "mock": (_mock, ConfigError),
    "chat": (_chat, BackendError),
    "embedding": (lambda tmp_path, boundary, value: _live(value).embed(["t"]), BackendError),
    "alignment": (_classifier(lambda c: c.ask({"claim": "c", "sentence": "s"}, _read_label)),
                  BackendError),
    "nli": (_classifier(lambda c: nli_check(None, "p", "h", c)), BackendError),
    "config": (lambda tmp_path, boundary, value: config_from_dict(value), ConfigError),
}


# the boundaries that decode a dataclass, whose refusals name the keys
NAMED = {"corpus", "base_verdicts", "reports", "mock"}


def _good(boundary):
    """A value the boundary accepts."""
    return {
        "corpus": {
            "id": "b", "claim": "c", "date": "2020-05-09", "raw_rating": "True",
            "gold_label": "True", "evidence": ["e1", "e2"], "ruling": ["r"],
        },
        "base_verdicts": {"id": "b", "label": "True", "justification": "j"},
        "reports": json.loads(data_path(SCENARIO_EXPECTED).read_text(encoding="utf-8")),
        "mock": {
            "rules": [{"template": "t", "response": "A"}],
            "embeddings": [{"text": "x", "vector": [1, 0.5]}],
            "default_embedding": {"dim": 4},
        },
        "chat": {"choices": [{"message": {"content": "A"}}]},
        "embedding": {"data": [{"index": 0, "embedding": [0.5, 1]}]},
        "alignment": {"label": "Hidden", "confidence": 0.9},
        "nli": {"verdict": "Entail"},
        "config": {
            "backend": {"mode": "mock", "mock_script": str(data_path(SCENARIO_MOCK))},
            "thresholds": {"top_k": 5, "tau_che": 0.5},
        },
    }[boundary]


def _check_accepted(boundary, result):
    if boundary == "corpus":
        first, record = result
        assert (first.id, record.id, record.claim) == ("first", "b", "c")
        assert (record.date, record.raw_rating, record.gold_label) == (
            datetime.date(2020, 5, 9), "True", Label.TRUE,
        )
        assert (record.evidence, record.ruling) == (["e1", "e2"], ["r"])
    elif boundary == "base_verdicts":
        assert list(result) == ["first", "b"]
        assert (result["b"].label, result["b"].justification) == (Label.TRUE, "j")
    elif boundary == "reports":
        assert [report.id for report in result] == ["first", _good("reports")["id"]]
    elif boundary == "mock":
        assert result.complete([("t", "p")]) == ["A"]
        [vector] = result.embed(["x"])
        assert vector.tolist() == [1.0, 0.5]
        assert len(result.embed(["other"])[0]) == 4
    elif boundary == "chat":
        assert result == "A"
    elif boundary == "embedding":
        [vector] = result
        assert vector.tolist() == [0.5, 1.0]
    elif boundary == "alignment":
        assert result == (AlignmentLabel.HIDDEN, 0.9)
    elif boundary == "nli":
        assert result is NliVerdict.ENTAIL
    else:
        assert (result.thresholds.top_k, result.thresholds.tau_che) == (5, 0.5)
        assert result.backend.mock_script == str(data_path(SCENARIO_MOCK))


ROWS = [
    ("corpus", "null", ("claim",), None),
    ("corpus", "missing", ("claim",), MISSING),
    ("corpus", "element", ("evidence", 1), 5),
    ("corpus", "element", ("ruling", 0), None),
    ("base_verdicts", "null", ("justification",), None),
    ("base_verdicts", "missing", ("label",), MISSING),
    ("reports", "bool", ("aligned_evidence", 0, "similarity"), True),
    ("reports", "numeric-string", ("aligned_evidence", 0, "similarity"), "0.95"),
    ("reports", "numeric-string", ("intent", "quality", "plausibility"), "1"),
    ("reports", "null", ("id",), None),
    ("reports", "missing", ("stages",), MISSING),
    ("reports", "element", ("stages", 0), 5),
    ("mock", "bool", ("embeddings", 0, "vector", 1), True),
    ("mock", "numeric-string", ("embeddings", 0, "vector", 1), "0.5"),
    ("mock", "bool", ("default_embedding", "dim"), True),
    ("mock", "numeric-string", ("default_embedding", "dim"), "4"),
    ("mock", "null", ("default_embedding", "dim"), None),
    ("mock", "missing", ("default_embedding", "dim"), MISSING),
    ("mock", "bool", ("default_embedding",), False),
    ("mock", "null", ("rules", 0, "response"), None),
    ("mock", "missing", ("rules", 0, "template"), MISSING),
    ("mock", "element", ("rules", 0), "t"),
    ("chat", "null", ("choices", 0, "message", "content"), None),
    ("chat", "missing", ("choices", 0, "message", "content"), MISSING),
    ("chat", "element", ("choices", 0), "A"),
    ("embedding", "bool", ("data", 0, "index"), True),
    ("embedding", "numeric-string", ("data", 0, "index"), "0"),
    ("embedding", "bool", ("data", 0, "embedding", 0), True),
    ("embedding", "numeric-string", ("data", 0, "embedding", 0), "0.5"),
    ("embedding", "null", ("data", 0, "embedding"), None),
    ("embedding", "missing", ("data", 0, "embedding"), MISSING),
    ("embedding", "element", ("data", 0, "embedding", 1), [1.0]),
    ("embedding", "element", ("data", 0), "row"),
    ("alignment", "bool", ("confidence",), True),
    ("alignment", "numeric-string", ("confidence",), "0.9"),
    ("alignment", "null", ("label",), None),
    ("alignment", "missing", ("label",), MISSING),
    ("nli", "null", ("verdict",), None),
    ("nli", "missing", ("verdict",), MISSING),
    ("config", "bool", ("thresholds", "tau_che"), True),
    ("config", "numeric-string", ("thresholds", "tau_che"), "0.5"),
    ("config", "numeric-string", ("thresholds", "top_k"), "5"),
    ("config", "bool", ("backend", "concurrency"), False),
    ("config", "null", ("thresholds", "tau_che"), None),
]


def _dotted(path) -> str:
    return "".join(f"[{step}]" if isinstance(step, int) else f".{step}" for step in path)[1:]


@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_each_boundary_accepts_its_good_value(tmp_path, boundary):
    read, _ = BOUNDARIES[boundary]
    _check_accepted(boundary, read(tmp_path, boundary, _good(boundary)))


@pytest.mark.parametrize(
    "boundary, kind, path, bad",
    ROWS,
    ids=[f"{row[0]}-{row[1]}-{_dotted(row[2])}" for row in ROWS],
)
def test_each_boundary_refuses_a_bad_value_with_its_own_error(tmp_path, boundary, kind, path, bad):
    value = copy.deepcopy(_good(boundary))
    block = value
    for step in path[:-1]:
        block = block[step]
    if bad is MISSING:
        del block[path[-1]]
    else:
        block[path[-1]] = bad
    read, error = BOUNDARIES[boundary]
    with pytest.raises(error) as excinfo:
        read(tmp_path, boundary, value)
    if error is ParseError:
        assert (excinfo.value.path, excinfo.value.line_number) == (tmp_path / "input.jsonl", 2)
    if boundary in NAMED:
        # the keys of the dataclass fields the bad value is under, outermost first
        keys = [step for step in path if isinstance(step, str)]
        if bad is MISSING:
            keys[-1] = f"missing required keys {keys[-1:]}"
        else:
            keys.append("expected ")
        assert f": {': '.join(keys)}" in str(excinfo.value)
    if error is BackendError:
        assert "returned a malformed answer" in str(excinfo.value)


def test_a_null_mock_text_or_contains_is_the_same_as_none():
    script = MockScript.from_dict({
        "rules": [{"template": "t", "contains": None, "response": "A"}],
        "embeddings": [{"text": None, "contains": "needle", "vector": [1.0]}],
    })
    assert script.complete([("t", "any prompt")]) == ["A"]
    assert [v.tolist() for v in script.embed(["a needle here"])] == [[1.0]]
    assert script.embeddings[0].text is None


def test_decode_rules():
    assert decode(list[float], [1, 0.5]) == [1.0, 0.5]
    assert type(decode(float, 1)) is float
    assert decode(tuple[str, ...], ["a"]) == ("a",)
    row = [1.5, 0.5]  # nothing to convert: the JSON list itself, not a copy
    assert decode(list[float], row) is row
    assert type(decode(tuple[float, ...], row)) is tuple
    assert decode(int | None, None) is None
    assert decode(datetime.date, "2020-05-09") == datetime.date(2020, 5, 9)
    for hint, value in [
        (float, True), (int, "1"), (list[float], [1.0, "2"]), (str, None),
        (Label, "Bogus"), (datetime.date, "May 9"), (datetime.date, 9),
    ]:
        with pytest.raises(DecodeError):
            decode(hint, value)
    with pytest.raises(DecodeError, match="too large"):
        decode(float, 10**400)
    with pytest.raises(DecodeError, match="too large"):
        decode(list[float], [1.0, 10**400])
    error = DecodeError("r")
    assert isinstance(error, TypeError) and isinstance(error, ValueError)
