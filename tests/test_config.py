"""Config loading: every key of the defaults takes only values of its
annotated type, and the defaults' fingerprints stay put."""

from __future__ import annotations

import dataclasses
import math

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from ragner.config import MAX_WAIT_S, _defaults, fingerprint, load_config
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
    "tuple[str, ...]": lambda v: type(v) is tuple and all(type(s) is str for s in v),
}


def _holds(value, annotation: str) -> bool:
    if annotation.endswith(" | None"):
        return value is None or _holds(value, annotation.removesuffix(" | None"))
    return _HOLDS[annotation](value)


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
        "8fad1757d65b196788a7069e1f3f94760e5f61e47cf88e06208f32cdeb6b2f85"
    )
    assert load_config().store_build_key == (
        "53ca5ff16ec48b4422c8a1d4cb28460eb57e62f06c534bfd81d4a2f0b183a485"
    )
    # the raw document keeps YAML's lists; only the dataclass holds tuples
    assert defaults["store"]["source_splits"] == ["train", "dev"]
    assert defaults["store"]["modes"] == ["word-level", "sentence-level"]
    assert [defaults[s]["seed"] for s in ("retriever", "store", "augment")] == [None] * 3


def test_an_int_is_a_number_and_is_not_coerced():
    cfg = load_config(None, ["generator.timeout=3"])
    assert cfg.generator.timeout == 3 and type(cfg.raw["generator"]["timeout"]) is int
