"""Each CLI command's report equals its golden copy under tests/golden/cli/.

The cases cover every row of `cli.COMMANDS` and the report runner, with
a Yes, a No and an Unknown wherever a command has them, and one explicit
spec read past its declared levels.  A golden file holds the exit code,
then stdout without its wall-time footer (the one line that varies from
run to run), then stderr.  A change that alters a report on purpose
rewrites the golden files with
`PYTHONPATH=src python tests/test_cli_golden.py`.

`specfmt.to_text` writes each report itself.  Every case that prints a
report is also checked against libyaml's emitter: PyYAML dumping the
report's own loaded body through `yaml.CSafeDumper` writes the golden
report again (skipped where PyYAML was built without libyaml).  The two
commands that print raw text, `export dot` and `report`, are checked
against their golden copies only.
"""

import contextlib
import io
import pathlib
import shlex
import sys
import tempfile

import pytest
import yaml

from gbdkit.cli import COMMANDS, main

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "cli"

SPECS = {
    "rs": "family: renewal_shift\n",
    "td": "family: tridiag_B\n",
    "bi": "family: b_infinity\n",
    "bp": "family: interleaved_Bprime\n",
    "o2": "family: odometer_two_sided\n",
    "p1": "family: parity_1\n",
    # rows for 0, 1 and 2 only, and no flag backs a global No
    "und": "indexing: {mode: one_sided, base: 0}\n"
           "levels: [{0: {0: 1}, 1: {1: 1, 2: 1}, 2: {2: 1}}]\n"
           "extension: repeat_last\n",
    # vertex 1 feeds nothing: every declared row has source 0 only
    "hole": "indexing: {mode: one_sided, base: 0}\n"
            "levels: [{0: {0: 1}, 1: {0: 1}, 2: {0: 1}}]\n"
            "extension: repeat_last\n",
    "short": "levels: [{0: {0: 1, 1: 1}, 1: {0: 1, 1: 1}}]\n"
             "extension: error_beyond\n",
}

CASES = {
    "probe_irreducible_yes": "probe irreducible --spec rs --src 3 --dst 7",
    "probe_irreducible_no": "probe irreducible --spec bi --src 2 --dst 1",
    "probe_irreducible_unknown":
        "probe irreducible --spec und --src 0 --dst 1 --depth 4",
    "probe_irreducible_past_declared_levels":
        "probe irreducible --spec short --src 0 --dst 1 --level 1",
    "probe_connected_yes": "probe connected --spec rs",
    "probe_connected_no": "probe connected --spec p1",
    "probe_connected_unknown": "probe connected --spec und",
    "probe_period_yes": "probe period --spec p1 --index 0",
    "probe_period_unknown": "probe period --spec hole --index 1 --depth 4",
    "probe_bounded_size": "probe bounded-size --spec td",
    "probe_classify_yes": "probe classify --spec rs",
    "probe_classify_unknown": "probe classify --spec und",
    "orbit_visit_yes": "orbit visit --spec bi --generator "
                       "'{kind: climbing, vertex: 1}' --cylinder '{vertex: 4}'",
    "orbit_visit_no": "orbit visit --spec bi --generator "
                      "'{kind: vertical, vertex: 2}' --cylinder '{vertex: 5}'",
    "orbit_visit_unknown": "orbit visit --spec und --generator "
                           "'{kind: vertical, vertex: 0}' --cylinder '{vertex: 1}'",
    "orbit_transitive_yes": "orbit transitive --spec o2 --generator "
                            "'{kind: alternating, vertex: 0}' --cyl-depth 2 "
                            "--window=-4:4",
    "orbit_transitive_yes_climbing": "orbit transitive --spec bi --generator "
                                     "'{kind: climbing, vertex: 1}' --cyl-depth 2",
    "orbit_transitive_no": "orbit transitive --spec o2 --generator "
                           "'{kind: leftmost_slant, vertex: -1}' --cyl-depth 3 "
                           "--window=-3:-3",
    "orbit_transitive_unknown": "orbit transitive --spec und --generator "
                                "'{kind: vertical, vertex: 2}' --cyl-depth 1 "
                                "--window 0:2",
    "orbit_minimal_yes": "orbit minimal --spec rs",
    "orbit_minimal_no": "orbit minimal --spec td",
    "orbit_minimal_unknown": "orbit minimal --spec und",
    "iso_check_yes": "iso check --spec td --spec-b bp --bijection '{kind: interleave}'",
    "iso_check_no": "iso check --spec td --spec-b bp --bijection '{kind: identity}'",
    "iso_search_yes": "iso search --spec td --spec-b bp --levels 3",
    "iso_search_unknown": "iso search --spec rs --spec-b bi --levels 2 --window 1:9",
    "iso_relabel": "iso relabel --spec td --bijection '{kind: level_shift, step: 1}' "
                   "--levels 1 --window=-3:3",
    "construct_toeplitz": "construct toeplitz --spec td --generator "
                          "'{kind: vertical, vertex: 0}' --generator "
                          "'{kind: vertical, vertex: 1}' --depth 200",
    "construct_dense": "construct dense --spec td --generator "
                       "'{kind: vertical, vertex: 0}'",
    "construct_flatten": "construct flatten --spec td",
    "export_dot": "export dot --spec rs --levels 2 --window 1:5",
    "export_matrix": "export matrix --spec td --rows=-1:1 --cols=-1:1",
    "report_quick": "report --suite quick",
}

# cases whose command prints raw text, not a report
RAW_TEXT_CASES = ("export_dot", "report_quick")


def write_specs(directory: pathlib.Path) -> dict:
    paths = {}
    for name, text in SPECS.items():
        path = directory / f"{name}.yaml"
        path.write_text(text)
        paths[name] = str(path)
    return paths


def run(case: str, specs: dict) -> tuple:
    """The exit code, stdout without the wall-time footer, and stderr."""
    argv = [specs.get(a, a) for a in shlex.split(CASES[case])]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    kept = [line for line in out.getvalue().splitlines(keepends=True)
            if not line.startswith("# wall_time_s")]
    return code, "".join(kept), err.getvalue()


def report(case: str, specs: dict) -> str:
    """The golden text of a case: its exit code line, stdout, stderr."""
    code, out, err = run(case, specs)
    return f"# exit {code}\n" + out + err


@pytest.fixture(scope="module")
def specs(tmp_path_factory):
    return write_specs(tmp_path_factory.mktemp("specs"))


def test_cases_cover_every_command():
    asked = {" ".join(shlex.split(argv)[:2]) for argv in CASES.values()}
    assert {name for name, *_ in COMMANDS} <= asked
    assert "report --suite" in asked


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_equals_golden(case, specs):
    assert report(case, specs) == (GOLDEN / f"{case}.txt").read_text()


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
@pytest.mark.parametrize("case", sorted(c for c in CASES if c not in RAW_TEXT_CASES))
def test_libyaml_report_equals_golden(case, specs):
    """A case that exits 2 prints no report, only its stderr line."""
    code, out, err = run(case, specs)
    if out:
        out = yaml.dump(yaml.safe_load(out), Dumper=yaml.CSafeDumper,
                        sort_keys=True, default_flow_style=False)
    assert f"# exit {code}\n" + out + err == (GOLDEN / f"{case}.txt").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_specs(pathlib.Path(tmp))
        for name in sorted(CASES):
            (GOLDEN / f"{name}.txt").write_text(report(name, paths))
    sys.exit(0)
