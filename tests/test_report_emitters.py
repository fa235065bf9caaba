"""libyaml's emitter and PyYAML's pure-Python emitter write the same
report text.

`specfmt.to_text` emits through `yaml.CSafeDumper` when PyYAML has
libyaml and through `yaml.SafeDumper` otherwise, so a report's bytes
must not depend on which one runs.  The two emitters are known to
differ in these places, and the drawn payloads stay clear of them, as
every report payload does:
- a mapping key of 123 or more characters, which the pure-Python
  emitter writes as `? key`;
- a long double-quoted string holding non-ASCII or control characters,
  which the two fold at different points;
- a document that is one plain scalar, which the pure-Python emitter
  ends with a `...` line.
So keys are ints or identifiers under 64 characters, strings are
printable ASCII of at most 200 characters, and the payload is a
mapping or a list.
"""

import string

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from gbdkit import specfmt

pytestmark = pytest.mark.skipif(not yaml.__with_libyaml__,
                                reason="PyYAML built without libyaml")

PROPERTY = settings(derandomize=True, deadline=None, database=None,
                    max_examples=60)

PRINTABLE_ASCII = "".join(map(chr, range(0x20, 0x7f)))
LETTERS = string.ascii_letters + "_"

scalars = st.one_of(
    st.integers(),
    st.integers(-10 ** 80, 10 ** 80),
    st.booleans(),
    st.none(),
    st.text(PRINTABLE_ASCII, max_size=200))
identifiers = st.builds(str.__add__, st.sampled_from(LETTERS),
                        st.text(LETTERS + string.digits, max_size=62))


def containers(children):
    return st.one_of(st.lists(children, max_size=6),
                     st.dictionaries(st.integers(), children, max_size=6),
                     st.dictionaries(identifiers, children, max_size=6))


payloads = containers(st.recursive(scalars, containers, max_leaves=20))


def dump(obj, dumper) -> str:
    return yaml.dump(obj, Dumper=dumper, sort_keys=True, default_flow_style=False)


@PROPERTY
@given(payload=payloads)
def test_both_emitters_write_the_same_text(payload):
    assert dump(payload, yaml.CSafeDumper) == dump(payload, yaml.SafeDumper)


def test_to_text_uses_libyaml_when_pyyaml_has_it():
    assert specfmt._DUMPER is yaml.CSafeDumper
