"""Config loading: every key of the defaults takes only values of its
annotated type, and the defaults' fingerprints stay put."""

from __future__ import annotations

import ast
import dataclasses
import json
import math
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from ragner.config import MAX_WAIT_S, _defaults, fingerprint, load_config, parse_text
from ragner.errors import ConfigError


def _dotted_keys(doc: dict) -> list[str]:
    keys = []
    for name, value in doc.items():
        keys += [f"{name}.{key}" for key in value] if isinstance(value, dict) else [name]
    return keys


# read from the annotation strings, apart from the loader's own type check
_HOLDS = {
    "int": lambda v: type(v) is int,
    "float": lambda v: type(v) is int or (type(v) is float and math.isfinite(v)),
    "str": lambda v: type(v) is str,
    "bool": lambda v: type(v) is bool,
}


def _holds(value, annotation: str) -> bool:
    if annotation.endswith(" | None"):
        return value is None or _holds(value, annotation.removesuffix(" | None"))
    if annotation.startswith("tuple[") and annotation.endswith(", ...]"):
        item = annotation.removeprefix("tuple[").removesuffix(", ...]")
        return type(value) is tuple and all(_holds(v, item) for v in value)
    if annotation.startswith("Literal["):  # Literal["a", "b"]: a string, one of those named
        return type(value) is str and value in ast.literal_eval(annotation.removeprefix("Literal"))
    return _HOLDS[annotation](value)


def test_holds_reads_literal_and_tuple_annotations():
    modes = 'tuple[Literal["word-level", "sentence-level"], ...]'
    assert _holds(("sentence-level",), modes) and _holds((), modes)
    assert not _holds(("word-level", "bogus"), modes) and not _holds(["word-level"], modes)
    assert _holds("b", "Literal['a', 'b']") and not _holds("c", "Literal['a', 'b']")
    assert _holds(("x",), "tuple[str, ...]") and not _holds((1,), "tuple[str, ...]")


@pytest.mark.parametrize("key", _dotted_keys(_defaults()))
@settings(max_examples=30, deadline=None)
@given(value=st.none() | st.booleans() | st.integers() | st.floats() | st.text()
       | st.lists(st.text(), max_size=3))
def test_any_value_is_refused_or_held_as_its_annotated_type(key, value):
    try:
        cfg = load_config(None, [f"{key}={yaml.safe_dump(value)}"])
    except ConfigError:
        return
    section, _, name = key.rpartition(".")
    holder = getattr(cfg, section) if section else cfg
    [field] = [f for f in dataclasses.fields(holder) if f.name == name]
    assert _holds(getattr(holder, name), field.type), (key, value, getattr(holder, name))


_FLOAT_KEYS = [f"{name}.{key}" for name, section in _defaults().items() if isinstance(section, dict)
               for key, value in section.items() if isinstance(value, float)]


@pytest.mark.parametrize("value", [".inf", "-.inf", ".nan"])
@pytest.mark.parametrize("key", _FLOAT_KEYS)
def test_every_float_key_refuses_a_non_finite_value(key, value):
    with pytest.raises(ConfigError, match=f"{key.rpartition('.')[2]} must be finite"):
        load_config(None, [f"{key}={value}"])


def test_mock_delay_and_jitter_together_wait_at_most_the_bound():
    # a sleep can last mock_delay + mock_jitter; time.sleep refuses waits
    # ending past threading.TIMEOUT_MAX on the monotonic clock
    assert MAX_WAIT_S == 4611686018.0
    half = f"{MAX_WAIT_S / 2:.1f}"
    cfg = load_config(None, [f"generator.mock_delay={half}", f"generator.mock_jitter={half}"])
    assert cfg.generator.mock_delay + cfg.generator.mock_jitter == MAX_WAIT_S
    with pytest.raises(ConfigError, match=r"mock_delay \+ mock_jitter must be <= 4611686018.0, "
                                          r"got 6000000000.0"):
        load_config(None, ["generator.mock_delay=3.0e+9", "generator.mock_jitter=3.0e+9"])


def test_defaults_and_their_fingerprints_are_pinned():
    defaults = _defaults()
    assert fingerprint(defaults) == (
        "e4baf739849e61f569a71addf2007f31eb915e34f65bcb5be6396fee18829157"
    )
    assert load_config().store_build_key == (
        "708ee112cd60c5365614be5da46fab968551a2b45f33f88cf788832657ec0609"
    )
    # the raw document keeps YAML's lists; only the dataclass holds tuples
    assert defaults["store"]["source_splits"] == ["train", "dev"]
    assert defaults["store"]["modes"] == ["word-level", "sentence-level"]
    assert [defaults[s]["seed"] for s in ("retriever", "store", "augment")] == [None] * 3


def post_init_membership_tests(source: str) -> list[tuple[str, int]]:
    """(class, line) of each `in` / `not in` test in a `__post_init__` in
    `source` against a tuple, list or set display or a bare name."""
    found = []
    for cls in (node for node in ast.parse(source).body if isinstance(node, ast.ClassDef)):
        for method in cls.body:
            if isinstance(method, ast.FunctionDef) and method.name == "__post_init__":
                found += [(cls.name, node.lineno) for node in ast.walk(method)
                          if isinstance(node, ast.Compare) and any(
                              isinstance(op, (ast.In, ast.NotIn))
                              and isinstance(right, (ast.Tuple, ast.List, ast.Set, ast.Name))
                              for op, right in zip(node.ops, node.comparators))]
    return found


def test_allowed_values_live_in_the_annotations():
    sample = ("class A:\n    def __post_init__(self):\n        if self.m not in _MODES: pass\n"
              "        if self.g in ('off', 'strict'): pass\n"
              "        for v, allowed in ((self.a, {'x'}),):\n            assert v in allowed\n"
              "        if self.k < 1 or 'x' in self.name: pass\n"
              "    def other(self):\n        return self.m in _MODES\n")
    assert post_init_membership_tests(sample) == [("A", 3), ("A", 4), ("A", 6)]
    source = (Path(__file__).resolve().parents[1] / "src" / "ragner" / "config.py").read_text(
        encoding="utf-8")
    assert post_init_membership_tests(source) == []


def test_an_int_is_a_number_and_is_not_coerced():
    cfg = load_config(None, ["generator.timeout=3"])
    assert cfg.generator.timeout == 3 and type(cfg.raw["generator"]["timeout"]) is int


# --- JSON text is read as YAML reads it ---------------------------------------

_DIGITS = st.text("0123456789", min_size=1, max_size=4)
# every textual form of a JSON number: YAML 1.1 reads one without a '.', or
# with an unsigned exponent, as a string
_NUMBERS = st.builds(
    "{}{}{}{}".format,
    st.sampled_from(["", "-"]),
    st.just("0") | st.integers(1, 10**20).map(str),
    st.just("") | _DIGITS.map(".{}".format),
    st.just("") | st.builds("{}{}{}".format, st.sampled_from("eE"),
                            st.sampled_from(["", "+", "-"]), _DIGITS),
)
# strings raw, and escaped as json.dumps escapes them; a non-BMP character
# escaped is a surrogate pair, which YAML reads as two characters
_STRINGS = (st.text().map(lambda s: json.dumps(s, ensure_ascii=False))
            | st.text(st.characters(max_codepoint=0xFFFF)).map(json.dumps))
_SCALARS = (_NUMBERS | _STRINGS
            | st.sampled_from(["true", "false", "null", "NaN", "Infinity", "-Infinity"]))
_COMMAS = st.sampled_from([",", ", ", ",\n  "])
_JSON_TEXTS = st.recursive(
    _SCALARS,
    lambda inner: (
        st.builds(lambda items, comma: "[" + comma.join(items) + "]",
                  st.lists(inner, max_size=4), _COMMAS)
        | st.builds(lambda items, comma, colon: "{" + comma.join(
                        f"{key}{colon}{value}" for key, value in items) + "}",
                    st.lists(st.tuples(_STRINGS, inner), max_size=4), _COMMAS,
                    st.sampled_from([": ", ":"]))
    ),
    max_leaves=12,
)


def _typed(value):
    """`value` with every scalar paired with its type, and floats by their bits."""
    if isinstance(value, dict):
        return {_typed(key): _typed(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_typed(item) for item in value]
    return type(value).__name__, value.hex() if isinstance(value, float) else value


@settings(max_examples=400, deadline=None)
@given(text=_JSON_TEXTS)
def test_json_text_reads_as_pyyaml_reads_it(text):
    json.loads(text)  # the text is JSON, and takes the reader's JSON path
    try:
        expected = yaml.safe_load(text)
    except (yaml.YAMLError, ValueError, RecursionError):
        return  # JSON that PyYAML refuses is read all the same
    assert _typed(parse_text(text, "text")) == _typed(expected)


@pytest.mark.parametrize("text, value", [
    ("1e5", "1e5"), ("1.0e5", "1.0e5"), ("1E+5", "1E+5"), ("1.5e+3", 1500.0), ("-0.0", -0.0),
    ("NaN", "NaN"), ("Infinity", "Infinity"), ("-Infinity", "-Infinity"),
    ('{"a": [1, 2.5, 3e2]}', {"a": [1, 2.5, "3e2"]}),
    # YAML folds a line break inside a quoted string, with the spaces around it
    ('"a \x85 b"', "a b"), ('"a \u2028 b"', "a\u2028b"),
    ("{a: [x, 'y']}", {"a": ["x", "y"]}),  # not JSON: read by PyYAML
])
def test_config_text_keeps_its_yaml_reading(text, value):
    assert _typed(parse_text(text, "text")) == _typed(value) == _typed(yaml.safe_load(text))


def test_json_that_pyyaml_refuses_is_read():
    text = '{\n\t"retriever": {"k": 3}\n}'
    with pytest.raises(yaml.YAMLError):
        yaml.safe_load(text)
    assert parse_text(text, "text") == {"retriever": {"k": 3}}


def test_a_surrogate_pair_escape_reads_as_one_character():
    text = '"\\ud83d\\ude00"'
    assert yaml.safe_load(text) == "\ud83d\ude00"  # two lone surrogates
    assert parse_text(text, "text") == "\U0001F600"


def test_a_json_config_and_its_yaml_twin_have_one_fingerprint(tmp_path):
    doc = {"seed": 3, "retriever": {"k": 2, "mode": "sentence-level"},
           "generator": {"temperature": 0.5, "model_name": "1e5"}, "store": {"size": None}}
    (tmp_path / "c.json").write_text(json.dumps(doc, indent="\t"), encoding="utf-8")
    (tmp_path / "c.yaml").write_text(yaml.safe_dump(doc), encoding="utf-8")
    json_cfg, yaml_cfg = load_config(tmp_path / "c.json"), load_config(tmp_path / "c.yaml")
    assert json_cfg.raw == yaml_cfg.raw and json_cfg.fingerprint == yaml_cfg.fingerprint


@pytest.mark.parametrize("override", ["generator.temperature=1e5", "generator.temperature=NaN"])
def test_an_exponent_or_nan_yaml_reads_as_a_string_is_refused_as_a_number(override):
    with pytest.raises(ConfigError, match="temperature must be a number, got '"):
        load_config(None, [override])
