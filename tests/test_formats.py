"""formats is the one JSON reader: the one place that parses JSON text,
decoding its bytes as UTF-8 and nothing else."""

import ast
import pathlib
from fractions import Fraction

import numpy as np
import pytest

from wtal import formats
from wtal.config import LossConfig, ModelConfig
from wtal.formats import DataError
from wtal.synthdata import GeneratorConfig

SOURCE = pathlib.Path(__file__).resolve().parents[1] / "src" / "wtal"


def json_parse_calls(path):
    """Line numbers of the json.load and json.loads calls in a module,
    and of any name imported from json as load or loads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
                and isinstance(node.value, ast.Name)
                and node.value.id == "json"):
            yield node.lineno
        if isinstance(node, ast.ImportFrom) and node.module == "json" \
                and {a.name for a in node.names} & {"load", "loads"}:
            yield node.lineno


def test_only_formats_parses_json():
    found = {f"{path.name}:{line}" for path in sorted(SOURCE.glob("*.py"))
             if path.name != "formats.py"
             for line in json_parse_calls(path)}
    assert found == set()
    assert list(json_parse_calls(SOURCE / "formats.py"))


@pytest.mark.parametrize("data", [
    b'\xef\xbb\xbf{"a": 1}', '{"a": 1}'.encode("utf-16"),
    '{"a": 1}'.encode("utf-32")], ids=["utf-8-bom", "utf-16", "utf-32"])
def test_parse_accepts_only_utf8(data):
    with pytest.raises(DataError, match="^doc: "):
        formats.parse_json("doc", data)


def test_parse_names_where():
    assert formats.parse_json("doc", b'{"a": [1, 2.5]}') == {"a": [1, 2.5]}
    with pytest.raises(DataError) as info:
        formats.parse_json("doc", b'{"a": }')
    assert str(info.value) == \
        "doc: invalid JSON at line 1, column 7: Expecting value"


@pytest.mark.parametrize("make, message", [
    (lambda: GeneratorConfig(num_train=np.int64(0)),
     "field 'num_train' is 0, expected an integer >= 1"),
    (lambda: GeneratorConfig(flow_miss_rate=np.float32(2.0)),
     "field 'flow_miss_rate' is 2.0, expected a number in [0, 1]"),
    (lambda: ModelConfig(feature_dim=np.int64(0), num_classes=3),
     "field 'feature_dim' is 0, expected an integer >= 1"),
    (lambda: LossConfig(alpha=Fraction(-1)),
     """field 'alpha' is "Fraction(-1, 1)", expected a number >= 0""")],
    ids=["int64", "float32", "model-int64", "fraction"])
def test_shown_echoes_what_json_cannot_encode(make, message):
    with pytest.raises(DataError) as info:
        make()
    assert str(info.value) == message


def test_shown_cuts_after_60_characters():
    assert formats.shown("a" * 58) == '"' + "a" * 58 + '"'
    assert formats.shown("a" * 100) == '"' + "a" * 59 + "..."
    assert formats.shown("key", repr) == "'key'"
    assert formats.shown("b" * 100, str) == "b" * 60 + "..."
