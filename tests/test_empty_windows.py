"""A window that holds no vertex never answers Yes: every windowed reader
takes its interval through `windows.clamped_interval`, which raises
`EmptyWindowError`, and the CLI exits 2."""

import pytest

from gbdkit import (
    connected_probe,
    cylinders_ending_in,
    iso_search,
    make_diagram,
    render_dot,
    trace_trisection,
    transitivity_probe,
    vertical_from,
)
from gbdkit.cli import main
from gbdkit.errors import EmptyWindowError
from gbdkit.specfmt import explicit_spec_of_window
from gbdkit.windows import LevelWindow

# renewal_shift's vertices start at 1, so -5:-1 holds none of them
SPAN = (-5, -1)
W = LevelWindow({n: SPAN for n in range(4)})


@pytest.fixture()
def rs():
    return make_diagram("renewal_shift")


def test_transitivity_probe(rs):
    with pytest.raises(EmptyWindowError, match=r"empty interval \[-5,-1\]"):
        transitivity_probe(rs, vertical_from(rs, 1), 2, SPAN)


@pytest.mark.parametrize("window", [SPAN, (5, 1)], ids=["below base", "inverted"])
def test_cylinders_ending_in(rs, window):
    with pytest.raises(EmptyWindowError, match="empty interval"):
        cylinders_ending_in(rs, 1, window)


def test_trace_trisection(rs):
    with pytest.raises(EmptyWindowError, match=r"empty interval \[-5,-1\]"):
        trace_trisection(vertical_from(rs, 1), 3, SPAN)


def test_iso_search(rs):
    with pytest.raises(EmptyWindowError):
        iso_search(rs, make_diagram("star_odometer"), 2, W, W)


def test_connected_probe(rs):
    with pytest.raises(EmptyWindowError):
        connected_probe(rs, 3, W)


def test_render_dot(rs):
    with pytest.raises(EmptyWindowError):
        render_dot(rs, 3, W)


def test_explicit_spec_of_window(rs):
    with pytest.raises(EmptyWindowError):
        explicit_spec_of_window(rs, 3, SPAN)


@pytest.mark.parametrize("argv", [
    ["orbit", "transitive", "--generator", "{kind: vertical, vertex: 1}"],
    ["iso", "search", "--spec-b", "so"],
    ["export", "dot"],
    ["iso", "relabel", "--bijection", "{kind: identity, mode: one_sided, base: 1}"],
    ["probe", "connected"],
], ids=["orbit transitive", "iso search", "export dot", "iso relabel",
        "probe connected"])
def test_cli_exits_2(argv, tmp_path, capsys):
    specs = {}
    for name, family in (("rs", "renewal_shift"), ("so", "star_odometer")):
        specs[name] = tmp_path / f"{name}.yaml"
        specs[name].write_text(f"family: {family}\n")
    argv = argv[:2] + ["--spec", str(specs["rs"])] + \
        [str(specs.get(a, a)) for a in argv[2:]] + ["--window=-5:-1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "empty interval [-5,-1]" in captured.err
