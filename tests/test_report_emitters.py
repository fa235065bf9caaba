"""`specfmt.to_text` writes the bytes libyaml's emitter writes, and
PyYAML's two emitters are its oracle.

`to_text` writes a report itself, in the bytes that
`yaml.dump(obj, Dumper=yaml.CSafeDumper, sort_keys=True,
default_flow_style=False)` returns.  Its payloads here reach every rule
of that writer: empty containers at any depth, tuples, keys and values
that PyYAML's resolver reads as something other than a string, long
strings that fold at different columns, quotes, indicators, keys long
enough to be written as `? key`, root scalars and empty roots.

libyaml and the pure-Python emitter write the same text for a report
payload, so the one oracle stands for both.  The two are known to
differ in these places, and `test_both_emitters_write_the_same_text`
stays clear of them, as every report payload does:
- a mapping key of 123 or more characters, which the pure-Python
  emitter writes as `? key`;
- a long double-quoted string holding non-ASCII or control characters,
  which the two fold at different points;
- a document that is one plain scalar, which the pure-Python emitter
  ends with a `...` line.

Real reports at scale, a dense matrix of 401 x 401 cells among them,
equal libyaml's text for their own loaded bodies.
"""

import contextlib
import io
import shlex
import string

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from gbdkit import specfmt
from gbdkit.cli import main

pytestmark = pytest.mark.skipif(not yaml.__with_libyaml__,
                                reason="PyYAML built without libyaml")

PROPERTY = settings(derandomize=True, deadline=None, database=None,
                    max_examples=60)
WIDE = settings(PROPERTY, max_examples=300)

PRINTABLE_ASCII = "".join(map(chr, range(0x20, 0x7f)))
LETTERS = string.ascii_letters + "_"
# plain-looking strings that PyYAML's resolver reads as null, bool, int,
# float, timestamp, value or merge
RESOLVED = ["yes", "No", "null", "~", "", "007", "0o7", "1_0", "12:30",
            "2001-01-01", ".5", "=", "<<"]
# a string that starts with one of these is never plain
LEADS = ["", " ", "'", "- ", "-", "? ", "?", ": ", ":", "#", ",", "[", "]",
         "{", "}", "&", "*", "!", "|", ">", '"', "%", "@", "`", "---", "..."]
# strings on either side of each rule that keeps a string plain
EDGES = ["-", "?", ":", "-x", "- x", "?x", "? x", ":x", ": x", "a:", "a:b",
         "a: b", "a#b", "a #b", "#a", "---", "--x", "---x", "...", "..x",
         "'a", "a'", "a'b", " a", "a ", "a  b", "a,b", "a[b]", '"a', 'a"b']

scalars = st.one_of(
    st.integers(),
    st.integers(-10 ** 80, 10 ** 80),
    st.booleans(),
    st.none(),
    st.text(PRINTABLE_ASCII, max_size=200))
identifiers = st.builds(str.__add__, st.sampled_from(LETTERS),
                        st.text(LETTERS + string.digits, max_size=62))
letters = st.text(string.ascii_letters, min_size=1, max_size=12)
# mostly plain words, so that a sentence often holds one rule's edge only
words = st.one_of(letters, letters, letters, st.sampled_from(RESOLVED + EDGES))


@st.composite
def sentences(draw):
    """60-200 characters of words joined by single and double spaces,
    after a leading indicator or space or none."""
    size = draw(st.integers(60, 200))
    text = draw(st.one_of(st.just(""), st.sampled_from(LEADS)))
    while len(text) < size:
        text += draw(words) + draw(st.sampled_from([" ", " ", " ", "  "]))
    return text[:size - 1] + draw(st.sampled_from(["x", "x", " ", ":", "'"]))


def containers(children, keys=st.one_of(st.integers(), identifiers)):
    return st.one_of(st.lists(children, max_size=6),
                     st.lists(children, max_size=6).map(tuple),
                     st.dictionaries(st.integers(), children, max_size=6),
                     st.dictionaries(identifiers, children, max_size=6),
                     # ints and strings do not sort: insertion order
                     st.dictionaries(keys, children, max_size=6))


payloads = containers(st.recursive(scalars, containers, max_leaves=20))

report_scalars = st.one_of(scalars, st.sampled_from(RESOLVED + EDGES), sentences())
report_keys = st.one_of(st.integers(), identifiers, st.booleans(),
                        st.sampled_from(RESOLVED + EDGES), sentences())
report_payloads = st.recursive(
    report_scalars, lambda c: containers(c, report_keys), max_leaves=20)


def dump(obj, dumper=yaml.CSafeDumper) -> str:
    return yaml.dump(obj, Dumper=dumper, sort_keys=True, default_flow_style=False)


@PROPERTY
@given(payload=payloads)
def test_both_emitters_write_the_same_text(payload):
    assert dump(payload, yaml.CSafeDumper) == dump(payload, yaml.SafeDumper)


@WIDE
@given(payload=report_payloads)
def test_to_text_writes_what_libyaml_writes(payload):
    assert specfmt.to_text(payload) == dump(payload)


@pytest.mark.parametrize("text", RESOLVED + EDGES)
def test_each_plain_rule_at_its_edge(text):
    for payload in (text, [text], {text: text}, {"k": [{"k": text}]}):
        assert specfmt.to_text(payload) == dump(payload)


@pytest.mark.parametrize("key", ["k", "k" * 76, "k" * 77, "k" * 78, "k" * 79,
                                 "k" * 80])
def test_a_value_folds_past_column_80(key):
    for text in ["x" * 78 + " y z", " y", "y ", "a " * 45, "x" * 82 + "  y",
                 "'" + "x " * 45]:
        for payload in ({key: text}, [{key: text}], {key: [text]}):
            assert specfmt.to_text(payload) == dump(payload)


# libyaml writes a key of more than 128 characters as `? key`
@pytest.mark.parametrize("key", ["k" * 128, "k" * 129, "'" * 128, "a " * 64,
                                 "a " * 65, 10 ** 127, 10 ** 128])
def test_a_long_key(key):
    for payload in ({key: 1}, {key: {"a": [1]}}, [{key: [1]}], {key: {}}):
        assert specfmt.to_text(payload) == dump(payload)


@pytest.mark.parametrize("root", [[], {}, (), "", "x", "a " * 60, 7, None,
                                  True, "yes", [[[]], {0: {}}]])
def test_roots(root):
    assert specfmt.to_text(root) == dump(root)


# what no report holds: a float, a set, other objects, and text outside
# printable ASCII or holding a line break
REFUSED = [1.5, frozenset(), object(), b"x", "café", "a\nb", "tab\there", "\x7f"]


@pytest.mark.parametrize("value", REFUSED + [{1}])
def test_a_refused_value_raises(value):
    with pytest.raises((TypeError, ValueError)):
        specfmt.to_text({"result": [value]})


@pytest.mark.parametrize("key", REFUSED + [(1, 2)])
def test_a_refused_key_raises(key):
    with pytest.raises((TypeError, ValueError)):
        specfmt.to_text({key: 0})


# commands whose reports run to thousands of lines; the specs are filled
# in from the fixture
SCALE = {
    "matrix": "export matrix --spec td --rows=-200:200 --cols=-200:200",
    "relabel": "iso relabel --spec td --bijection '{kind: level_shift, step: 1}' "
               "--window=-40:40 --levels 8",
    "toeplitz": "construct toeplitz --spec td --generator "
                "'{kind: vertical, vertex: 0}' --generator "
                "'{kind: vertical, vertex: 1}'",
    "search": "iso search --spec td --spec-b bp --levels 3 --out witness",
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("scale")
    (root / "td.yaml").write_text("family: tridiag_B\n")
    (root / "bp.yaml").write_text("family: interleaved_Bprime\n")
    return {"td": str(root / "td.yaml"), "bp": str(root / "bp.yaml"),
            "witness": str(root / "witness.yaml")}


def load(text: str):
    return yaml.load(text, Loader=yaml.CSafeLoader)


@pytest.mark.parametrize("case", sorted(SCALE))
def test_reports_at_scale_equal_libyaml(case, files):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([files.get(a, a) for a in shlex.split(SCALE[case])]) == 0
    body, _ = out.getvalue().rsplit("# wall_time_s", 1)
    assert body == dump(load(body))
    assert len(body.splitlines()) > 50
    if case == "search":
        with open(files["witness"]) as fh:
            artifact = fh.read()
        table = load(artifact)
        assert table and all(isinstance(n, int) for n in table)
        assert artifact == dump(table)
