import ast
import dataclasses
import os
import pathlib
import subprocess
import sys

import pytest
import yaml

from gbdkit import (
    cli,
    connected_probe,
    irreducible_probe,
    make_diagram,
    minimality_certificate,
    orbit_visits_cylinder,
    toeplitz_reenumeration,
    transitivity_probe,
    vertical_from,
)
from gbdkit.cli import main


@pytest.fixture()
def specs(tmp_path):
    paths = {}
    for name, text in [
        ("rs", 'family: renewal_shift\n'),
        ("td", 'family: tridiag_B\n'),
        ("bi", 'family: b_infinity\n'),
        ("o2", 'family: odometer_two_sided\n'),
        ("p1", 'family: parity_1\n'),
        ("p2", 'family: parity_2\n'),
        ("typo", 'family: odometer_one_sided\nA: 3\n'),
        # vertex 1 feeds nothing: every declared row has source 0 only
        ("hole", 'indexing: {mode: one_sided, base: 0}\n'
                 'levels: [{0: {0: 1}, 1: {0: 1}, 2: {0: 1}}]\n'
                 'extension: repeat_last\n'),
    ]:
        p = tmp_path / f"{name}.yaml"
        p.write_text(text)
        paths[name] = str(p)
    return paths


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def strip_wall_time(text: str) -> str:
    return "\n".join(l for l in text.splitlines()
                     if not l.startswith("# wall_time_s"))


def test_probe_irreducible_yes(specs, capsys):
    code, out = run_cli(["probe", "irreducible", "--spec", specs["rs"],
                         "--src", "3", "--dst", "7"], capsys)
    assert code == 0
    assert "verdict: 'yes'" in out
    assert "recheck" in out


def test_probe_irreducible_no(specs, capsys):
    code, out = run_cli(["probe", "irreducible", "--spec", specs["bi"],
                         "--src", "2", "--dst", "1"], capsys)
    assert code == 1
    assert "triangular_support" in out
    assert "recheck: 'certificate re-verified: True'" in out


def _tampered(probe, **changes):
    """The probe, with the given fields of its No certificate replaced."""
    def run(*args, **kwargs):
        v = probe(*args, **kwargs)
        return dataclasses.replace(
            v, certificate=dataclasses.replace(v.certificate, **changes))
    return run


@pytest.mark.parametrize("changes", [
    {"params": ("lower", -1)},            # a slack the rows do not admit
    {"global_via": ("BandedFlag",)},      # a flag the handle does not carry
])
def test_probe_irreducible_tampered_certificate_reads_false(
        changes, specs, capsys, monkeypatch):
    monkeypatch.setattr(cli, "irreducible_probe",
                        _tampered(irreducible_probe, **changes))
    code, out = run_cli(["probe", "irreducible", "--spec", specs["bi"],
                         "--src", "2", "--dst", "1"], capsys)
    assert code == 1
    assert "recheck: 'certificate re-verified: False'" in out


def test_probe_connected_exit_codes(specs, capsys):
    code, _ = run_cli(["probe", "connected", "--spec", specs["rs"]], capsys)
    assert code == 0
    code, out = run_cli(["probe", "connected", "--spec", specs["p1"]], capsys)
    assert code == 1
    assert "clopen_partition" in out


@pytest.mark.parametrize("command,yes_recheck", [
    ("orbit minimal", "'forced bounds re-walked: True'"),
    ("probe connected", "'window re-walked breadth first from one vertex: True'"),
])
def test_minimal_and_connected_recheck_lines(command, yes_recheck, specs, capsys):
    code, out = run_cli(command.split() + ["--spec", specs["rs"]], capsys)
    assert code == 0
    assert f"recheck: {yes_recheck}" in out
    code, out = run_cli(command.split() + ["--spec", specs["p1"]], capsys)
    assert code == 1
    assert "recheck: 'certificate re-verified: True'" in out


@pytest.mark.parametrize("command,probe,changes", [
    ("orbit minimal", minimality_certificate, {"params": (0,)}),
    ("probe connected", connected_probe, {"params": (3, 1)}),
])
def test_tampered_no_rechecks_read_false(command, probe, changes, specs, capsys,
                                         monkeypatch):
    monkeypatch.setattr(cli, probe.__name__, _tampered(probe, **changes))
    code, out = run_cli(command.split() + ["--spec", specs["p1"]], capsys)
    assert code == 1
    assert "recheck: 'certificate re-verified: False'" in out


def test_tampered_forced_bound_reads_false(specs, capsys, monkeypatch):
    def loosened(*args, **kwargs):
        v = minimality_certificate(*args, **kwargs)
        bounds = {w: b + 1 for w, b in v.witness["forced_bounds"].items()}
        return dataclasses.replace(v, witness={**v.witness, "forced_bounds": bounds})

    monkeypatch.setattr(cli, "minimality_certificate", loosened)
    code, out = run_cli(["orbit", "minimal", "--spec", specs["rs"]], capsys)
    assert code == 0
    assert "recheck: 'forced bounds re-walked: False'" in out


def test_probe_period(specs, capsys):
    code, out = run_cli(["probe", "period", "--spec", specs["p1"],
                         "--index", "0"], capsys)
    assert code == 0
    assert "period: 2" in out


def test_probe_period_doctored_result_reads_false(specs, capsys, monkeypatch):
    # 4 divides both lengths, yet parity_1 returns to 0 at every even length
    monkeypatch.setattr(cli, "period_of_index", lambda *args: (4, [4, 8]))
    code, out = run_cli(["probe", "period", "--spec", specs["p1"],
                         "--index", "0"], capsys)
    assert code == 0
    assert "recheck: 'return lengths re-swept level by level: False'" in out


def test_probe_connected_doctored_yes_reads_false(specs, capsys, monkeypatch):
    def probe(*args, **kwargs):
        v = connected_probe(*args, **kwargs)
        return dataclasses.replace(v, witness={**v.witness,
                                               "vertices": v.witness["vertices"] + 1})
    monkeypatch.setattr(cli, "connected_probe", probe)
    code, out = run_cli(["probe", "connected", "--spec", specs["rs"]], capsys)
    assert code == 0
    assert "recheck: 'window re-walked breadth first from one vertex: False'" in out


def test_yes_witness_for_another_question_exits_2(specs, capsys, monkeypatch, tmp_path):
    # a real path, but for 3 -> 8
    def probe(d, i, j, *args):
        return dataclasses.replace(irreducible_probe(d, i, j, *args),
                                   witness=irreducible_probe(d, i, 8).witness)
    monkeypatch.setattr(cli, "irreducible_probe", probe)
    assert main(["probe", "irreducible", "--spec", specs["rs"],
                 "--src=3", "--dst=7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error: path runs from" in captured.err

    # a connecting path that ends at 2, on the orbit of vertex 2, not of 5
    def visit(d, x, c, *args):
        other = orbit_visits_cylinder(d, vertical_from(d, 2), c, *args)
        return dataclasses.replace(orbit_visits_cylinder(d, x, c, *args),
                                   witness=other.witness)
    monkeypatch.setattr(cli, "orbit_visits_cylinder", visit)
    star = tmp_path / "star.yaml"
    star.write_text("family: star_odometer\n")
    assert main(["orbit", "visit", "--spec", str(star),
                 "--generator", "{kind: vertical, vertex: 5}",
                 "--cylinder", "{vertex: 1}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error: path runs from" in captured.err


def test_probe_bounded_size(specs, capsys):
    code, out = run_cli(["probe", "bounded-size", "--spec", specs["td"]], capsys)
    assert code == 0
    assert yaml.safe_load(out)["result"] == {"t_lower": 1, "L_lower": 4,
                                             "exact": True}
    # renewal_shift has no width bound: the window only gives lower bounds
    code, out = run_cli(["probe", "bounded-size", "--spec", specs["rs"]], capsys)
    assert code == 0 and yaml.safe_load(out)["result"]["exact"] is False


def test_probe_classify(specs, capsys):
    code, out = run_cli(["probe", "classify", "--spec", specs["rs"]], capsys)
    assert code == 0 and "completely_irreducible" in out


def test_orbit_visit_verdicts(specs, capsys):
    code, out = run_cli(["orbit", "visit", "--spec", specs["bi"],
                         "--generator", '{"kind":"climbing","vertex":1}',
                         "--cylinder", '{"vertex": 4}'], capsys)
    assert code == 0 and "recheck" in out
    code, out = run_cli(["orbit", "visit", "--spec", specs["bi"],
                         "--generator", '{"kind":"vertical","vertex":2}',
                         "--cylinder", '{"vertex": 5}'], capsys)
    assert code == 1
    assert "separated_from_level: 1" in out
    assert "recheck: 'certificate re-verified: True'" in out


def test_orbit_visit_tampered_certificate_reads_false(specs, capsys, monkeypatch):
    # an invariant that still verifies but separates from a later level
    # than the one reported
    def probe(*args, **kwargs):
        v = orbit_visits_cylinder(*args, **kwargs)
        return dataclasses.replace(v, detail={**v.detail,
                                              "separated_from_level": 2})
    monkeypatch.setattr(cli, "orbit_visits_cylinder", probe)
    code, out = run_cli(["orbit", "visit", "--spec", specs["bi"],
                         "--generator", '{"kind":"vertical","vertex":2}',
                         "--cylinder", '{"vertex": 5}'], capsys)
    assert code == 1
    assert "separated_from_level: 2" in out
    assert "recheck: 'certificate re-verified: False'" in out
    monkeypatch.setattr(cli, "orbit_visits_cylinder",
                        _tampered(orbit_visits_cylinder, params=("lower", -1)))
    _, out = run_cli(["orbit", "visit", "--spec", specs["bi"],
                      "--generator", '{"kind":"vertical","vertex":2}',
                      "--cylinder", '{"vertex": 5}'], capsys)
    assert "recheck: 'certificate re-verified: False'" in out


def test_orbit_minimal(specs, capsys):
    code, _ = run_cli(["orbit", "minimal", "--spec", specs["rs"]], capsys)
    assert code == 0
    code, _ = run_cli(["orbit", "minimal", "--spec", specs["td"]], capsys)
    assert code == 1


def test_orbit_transitive(specs, capsys):
    code, _ = run_cli(["orbit", "transitive", "--spec", specs["o2"],
                       "--generator", '{"kind":"alternating","vertex":0}',
                       "--cyl-depth", "2", "--window=-4:4"], capsys)
    assert code == 0


def test_orbit_transitive_recheck_lines(specs, capsys):
    code, out = run_cli(["orbit", "transitive", "--spec", specs["o2"],
                         "--generator", "{kind: alternating, vertex: 0}",
                         "--cyl-depth", "2", "--window=-4:4"], capsys)
    assert code == 0 and "cylinders_checked: 117" in out
    assert "recheck: 'cylinders re-counted from path counts: True'" in out
    # the slant falls one vertex a level: the first cylinder it misses
    # ends at -3@3
    code, out = run_cli(["orbit", "transitive", "--spec", specs["o2"],
                         "--generator", "{kind: leftmost_slant, vertex: -1}",
                         "--cyl-depth", "3", "--window=-3:-3"], capsys)
    assert code == 1 and "cylinders_checked: 14" in out
    assert "recheck: 'witness cylinder re-validated; certificate " \
        "re-verified: True'" in out


def test_orbit_transitive_doctored_yes_reads_false(specs, capsys, monkeypatch):
    def probe(*args, **kwargs):
        v = transitivity_probe(*args, **kwargs)
        return dataclasses.replace(v, witness={
            **v.witness, "cylinders_checked": v.witness["cylinders_checked"] + 1})
    monkeypatch.setattr(cli, "transitivity_probe", probe)
    code, out = run_cli(["orbit", "transitive", "--spec", specs["o2"],
                         "--generator", "{kind: alternating, vertex: 0}",
                         "--cyl-depth", "2", "--window=-4:4"], capsys)
    assert code == 0 and "cylinders_checked: 118" in out
    assert "recheck: 'cylinders re-counted from path counts: False'" in out


@pytest.mark.parametrize("changes", [
    {"params": ("lower", -2)},            # a slack the rows do not admit
    {"global_via": ("BandedFlag",)},      # a flag the handle does not carry
])
def test_orbit_transitive_tampered_certificate_reads_false(
        changes, specs, capsys, monkeypatch):
    monkeypatch.setattr(cli, "transitivity_probe",
                        _tampered(transitivity_probe, **changes))
    code, out = run_cli(["orbit", "transitive", "--spec", specs["o2"],
                         "--generator", "{kind: leftmost_slant, vertex: -1}",
                         "--cyl-depth", "3", "--window=-3:-3"], capsys)
    assert code == 1
    assert yaml.safe_load(out)["result"]["recheck"].endswith(
        "certificate re-verified: False")


def test_iso_check_and_search(specs, capsys, tmp_path):
    bp = tmp_path / "bp.yaml"
    bp.write_text("family: interleaved_Bprime\n")
    code, out = run_cli(["iso", "check", "--spec", specs["td"],
                         "--spec-b", str(bp),
                         "--bijection", '{"kind":"interleave"}'], capsys)
    assert code == 0 and "identity_holds: true" in out
    witness_file = tmp_path / "wit.yaml"
    # no --window: each side gets its own indexing-aware default
    code, out = run_cli(["iso", "search", "--spec", specs["td"],
                         "--spec-b", str(bp), "--levels", "3",
                         "--out", str(witness_file)], capsys)
    assert code == 0
    assert witness_file.exists()
    code, _ = run_cli(["iso", "search", "--spec", specs["rs"],
                       "--spec-b", specs["bi"], "--levels", "2",
                       "--window", "1:9"], capsys)
    assert code == 3  # bounded search found nothing: unknown, not no


def test_iso_relabel_export(specs, capsys):
    code, out = run_cli(["iso", "relabel", "--spec", specs["td"],
                         "--bijection", '{"kind":"level_shift","step":1}',
                         "--levels", "1", "--window=-3:3"], capsys)
    assert code == 0 and "relabeled_window_spec" in out


def test_construct_commands(specs, capsys, tmp_path):
    logf = tmp_path / "log.txt"
    code, out = run_cli(["construct", "toeplitz", "--spec", specs["td"],
                         "--generator", '{"kind":"vertical","vertex":0}',
                         "--generator", '{"kind":"vertical","vertex":1}',
                         "--depth", "200", "--out", str(logf)], capsys)
    assert code == 0 and "identity_verified: true" in out
    assert logf.read_text().startswith("# forced assignments")
    code, out = run_cli(["construct", "dense", "--spec", specs["td"],
                         "--generator", '{"kind":"vertical","vertex":0}'],
                        capsys)
    assert code == 0 and "- 0\n" in out
    code, out = run_cli(["construct", "flatten", "--spec", specs["td"]], capsys)
    assert code == 0 and "triangular_support" in out


def test_out_file_holds_the_printed_report(specs, capsys, tmp_path):
    outf = tmp_path / "report.yaml"
    code, out = run_cli(["probe", "irreducible", "--spec", specs["rs"],
                         "--src", "3", "--dst", "7", "--out", str(outf)], capsys)
    assert code == 0 and out.startswith("command: probe irreducible")
    assert outf.read_text() == out


def test_out_file_holds_the_toeplitz_log_not_the_report(specs, capsys, tmp_path):
    logf = tmp_path / "log.txt"
    code, out = run_cli(["construct", "toeplitz", "--spec", specs["td"],
                         "--generator", "{kind: vertical, vertex: 0}",
                         "--depth", "50", "--out", str(logf)], capsys)
    assert code == 0 and out.startswith("command: construct toeplitz")
    td = make_diagram("tridiag_B")
    _, _, log = toeplitz_reenumeration(td, [vertical_from(td, 0)], horizon=50)
    assert logf.read_text() == log.export_text()


def test_export_dot_deterministic(specs, capsys):
    code, out1 = run_cli(["export", "dot", "--spec", specs["rs"],
                          "--levels", "2", "--window", "1:5"], capsys)
    assert code == 0
    code, out2 = run_cli(["export", "dot", "--spec", specs["rs"],
                          "--levels", "2", "--window", "1:5"], capsys)
    assert out1 == out2
    assert out1.count('"L0_1" -> "L1_1"') == 1
    # vertex 1 fans out to every vertex of the next level
    for v in range(1, 6):
        assert f'"L0_1" -> "L1_{v}"' in out1


def test_export_matrix(specs, capsys):
    code, out = run_cli(["export", "matrix", "--spec", specs["td"],
                         "--rows=-1:1", "--cols=-1:1"], capsys)
    assert code == 0
    assert "- - 2" in out  # first row of the 1/2/1 band


def test_report_determinism(specs, capsys):
    code1, out1 = run_cli(["report", "--suite", "quick"], capsys)
    code2, out2 = run_cli(["report", "--suite", "quick"], capsys)
    assert code1 == code2 == 0
    assert strip_wall_time(out1) == strip_wall_time(out2)
    assert out1.count("PASS") == 5


def test_report_custom_suite(tmp_path, capsys):
    f = tmp_path / "suite.yaml"
    f.write_text("- 1_fold_isomorphism\n- 5_parity_bands\n")
    code, out = run_cli(["report", "--suite", "custom", "--file", str(f)],
                        capsys)
    assert code == 0 and out.count("PASS") == 2


def test_usage_errors(specs, capsys):
    assert main(["probe", "nonsense"]) == 2
    assert main([]) == 2
    code = main(["probe", "irreducible", "--spec", "/nonexistent.yaml",
                 "--src", "1", "--dst", "2"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["probe", "connected", "--spec", "td", "--window", "5"],
    ["probe", "connected", "--spec", "td", "--window", "9:1"],
    ["export", "matrix", "--spec", "td", "--rows", "a:b"],
    ["construct", "flatten", "--spec", "td", "--anchor", "3"],
    ["orbit", "visit", "--spec", "bi", "--generator", "{kind: vertical}",
     "--cylinder", "{vertex: 2}"],
    ["orbit", "visit", "--spec", "bi", "--generator", "{kind: vertical, vertex: 2}",
     "--cylinder", "{foo: 2}"],
    ["iso", "relabel", "--spec", "td", "--bijection", "{kind: level_shift, step: x}"],
    ["iso", "relabel", "--spec", "rs", "--bijection",
     "{kind: table_fill, source: {mode: bogus}}"],
    ["orbit", "visit", "--spec", "hole", "--generator",
     "{kind: leftmost_slant, vertex: 1}", "--cylinder", "{vertex: 0}"],
    ["orbit", "visit", "--spec", "rs", "--generator",
     "{kind: table_then_rule, table: [3, 2, 1], tail: {kind: vertical, vertex: 7}}",
     "--cylinder", "{vertex: 2}"],
    ["probe", "period", "--spec", "p1", "--index", "0", "--depth", "0"],
    ["probe", "irreducible", "--spec", "rs", "--src", "3", "--dst", "7",
     "--depth", "-3"],
    ["orbit", "minimal", "--spec", "rs", "--depth", "0"],
    ["orbit", "transitive", "--spec", "o2", "--generator",
     "{kind: vertical, vertex: 0}", "--cyl-depth=-1"],
    ["iso", "check", "--spec", "td", "--spec-b", "p1", "--bijection",
     "{kind: identity}", "--levels=-1"],
    ["iso", "search", "--spec", "td", "--spec-b", "p1", "--levels=-1"],
    ["iso", "search", "--spec", "td", "--spec-b", "p1", "--levels", "two"],
    ["iso", "search", "--spec", "td", "--spec-b", "td", "--budget=0"],
    ["iso", "search", "--spec", "td", "--spec-b", "td", "--budget=-5"],
    # 1 -> 1 is no edge of parity_2, so no orbit verdict speaks of this path
    ["orbit", "visit", "--spec", "p2", "--generator", "{kind: vertical, vertex: 1}",
     "--cylinder", "{vertex: 0}"],
    ["orbit", "visit", "--spec", "p2", "--generator", "{kind: vertical, vertex: 1}",
     "--cylinder", "{vertex: 3}"],
    ["probe", "connected", "--spec", "typo"],
    # keys that the document's kind does not read
    ["iso", "relabel", "--spec", "td", "--bijection",
     "{kind: level_shift, step: 2, bogus: 1}"],
    ["orbit", "visit", "--spec", "bi", "--generator",
     "{kind: vertical, vertex: 2, bogus: 1}", "--cylinder", "{vertex: 2}"],
    ["orbit", "visit", "--spec", "bi", "--generator", "{kind: vertical, vertex: 2}",
     "--cylinder", "{vertex: 2, bogus: 1}"],
], ids=lambda argv: " ".join(argv[:2] + argv[4:]))
def test_malformed_arguments_exit_2(argv, specs, capsys):
    argv = [specs.get(a, a) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


# spec documents whose values have the wrong type or are out of range
HOSTILE_SPECS = {
    "banded offsets 5": "family: banded\noffsets: 5\n",
    "banded offset a": "family: banded\noffsets: {a: 1}\n",
    "banded side three": "family: banded\noffsets: {0: 1}\nside: three\n",
    "banded flag without offsets": "levels: [{0: {0: 1}}]\nflags: [{kind: banded}]\n",
    "banded flag with empty offsets":
        "levels: [{0: {0: 1}}]\nextension: repeat_last\n"
        "flags: [{kind: banded, offsets: {}}]\n",
    "bounded_size flag without t":
        "levels: [{0: {0: 1}}]\nflags: [{kind: bounded_size}]\n",
    "flag 5": "levels: [{0: {0: 1}}]\nflags: [5]\n",
    "triangular sideways":
        "levels: [{0: {0: 1}}]\nflags: [{kind: triangular, direction: sideways}]\n",
    "base x": "levels: [{0: {0: 1}}]\nindexing: {mode: one_sided, base: x}\n",
    "explicit body 5": "explicit: 5\n",
    "multiplicity x": "levels: [{0: {0: x}}]\n",
    "row as a list": "levels: [{0: [1, 2]}]\n",
    "a-rule slope x": "family: odometer_one_sided\na: {slope: x}\n",
    "explicit spec key bogus": "levels: [{0: {0: 1}}]\nbogus: 3\n",
}


def _hostile_inputs(tmp_path):
    deep = tmp_path / "deep.yaml"
    deep.write_text("a: " + "[" * 3000 + "]" * 3000 + "\n")
    latin1 = tmp_path / "latin1.yaml"
    latin1.write_bytes(b"family: tridiag_B # \xe9\n")
    suite = tmp_path / "suite.yaml"
    suite.write_text("[1_fold_isomorphism, 'unclosed\n")
    files = {"deep": str(deep), "latin1": str(latin1), "dir": str(tmp_path),
             "suite": str(suite), "missing_dir": str(tmp_path / "no" / "out.txt")}
    for i, (name, text) in enumerate(HOSTILE_SPECS.items()):
        path = tmp_path / f"hostile{i}.yaml"
        path.write_text(text)
        files[name] = str(path)
    return files


@pytest.mark.parametrize("argv", [
    ["probe", "connected", "--spec", "deep"],
    ["probe", "connected", "--spec", "dir"],
    ["probe", "connected", "--spec", "latin1"],
    ["report", "--suite", "custom", "--file", "suite"],
    ["probe", "connected", "--spec", "td", "--out", "missing_dir"],
] + [["probe", "connected", "--spec", name] for name in HOSTILE_SPECS],
    ids=["nested 3000 deep", "directory", "not UTF-8", "unparseable suite",
         "unwritable out"] + list(HOSTILE_SPECS))
def test_hostile_input_files_exit_2(argv, specs, tmp_path, capsys):
    # exit 1 means No to a script, so a file that cannot be read or
    # written, or a spec value of the wrong kind, must never end in a
    # traceback or be taken for something else
    files = {**specs, **_hostile_inputs(tmp_path)}
    assert main([files.get(a, a) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("command", ["probe classify", "probe bounded-size",
                                     "orbit minimal"])
def test_window_below_the_base_exits_2(command, specs, capsys):
    # renewal_shift's vertices start at 1, so -5:-1 holds none of them
    assert main(command.split() + ["--spec", specs["rs"], "--window=-5:-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "empty interval [-5,-1]" in captured.err


def test_module_entrypoint_runs():
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "gbdkit.cli", "report", "--suite", "custom",
         "--file", "/dev/null"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 2  # empty custom suite file is a usage error


def test_unknown_suite_is_usage_error():
    assert main(["report", "--suite", "bogus"]) == 2


def test_render_dot_empty_window():
    from gbdkit import make_diagram, render_dot
    rs = make_diagram("renewal_shift")
    text = render_dot(rs, -1)
    assert text.startswith("digraph") and "->" not in text


def test_consecutive_calls_share_no_parser_state(specs, capsys, tmp_path):
    from gbdkit.cli import build_parser

    assert build_parser() is build_parser()
    first, second = tmp_path / "first.txt", tmp_path / "second.txt"
    code, _ = run_cli(["construct", "toeplitz", "--spec", specs["td"],
                       "--generator", "{kind: vertical, vertex: 0}",
                       "--generator", "{kind: vertical, vertex: 1}",
                       "--depth", "50", "--out", str(first)], capsys)
    assert code == 0
    code, _ = run_cli(["construct", "toeplitz", "--spec", specs["td"],
                       "--generator", "{kind: vertical, vertex: 0}",
                       "--depth", "50", "--out", str(second)], capsys)
    assert code == 0
    td = make_diagram("tridiag_B")
    _, _, log = toeplitz_reenumeration(td, [vertical_from(td, 0)], horizon=50)
    assert second.read_text() == log.export_text()  # one generator, not three
    first.unlink()
    code, out = run_cli(["probe", "irreducible", "--spec", specs["rs"],
                         "--src", "3", "--dst", "7"], capsys)
    assert code == 0 and not first.exists()
    parse = build_parser().parse_args
    assert parse(["probe", "irreducible", "--spec", "s", "--src", "1",
                  "--dst", "2", "--depth", "5"]).depth == 5
    assert parse(["probe", "period", "--spec", "s", "--index", "0"]).depth == 8
    assert parse(["probe", "irreducible", "--spec", "s", "--src", "1",
                  "--dst", "2"]).depth == 24
    assert parse(["orbit", "minimal", "--spec", "s"]).depth is None


# the common flags each command reads, with their defaults
COMMON_FLAGS = {
    "probe irreducible": {"depth": 24},
    "probe connected": {"window": None, "levels": 4},
    "probe period": {"depth": 8},
    "probe bounded-size": {"window": None},
    "probe classify": {"depth": 64, "window": None},
    "orbit visit": {"depth": 24},
    "orbit transitive": {"depth": 24, "window": None},
    "orbit minimal": {"depth": None, "window": None},
    "iso check": {"levels": 4},
    "iso search": {"window": None, "levels": 4},
    "iso relabel": {"window": None, "levels": 4},
    "construct toeplitz": {"depth": 2000},
    "construct dense": {},
    "construct flatten": {"depth": 64, "window": None},
    "export dot": {"window": None, "levels": 4},
    "export matrix": {},
}


@pytest.mark.parametrize("row", cli.COMMANDS, ids=lambda row: row[0])
def test_each_command_takes_only_the_common_flags_it_reads(row, capsys):
    name, _, _, flags = row
    argv = name.split() + ["--spec", "s"]
    for flag, kwargs in flags.items():
        if kwargs.get("required"):
            argv += [flag, "1"]
    given = {"depth": ("5", 5), "window": ("1:5", (1, 5)), "levels": ("3", 3)}
    reads = COMMON_FLAGS[name]
    parse = cli.build_parser().parse_args
    for flag, (text, value) in given.items():
        if flag in reads:
            assert getattr(parse(argv), flag) == reads[flag]
            assert getattr(parse(argv + [f"--{flag}", text]), flag) == value
        else:
            assert main(argv + [f"--{flag}", text]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"unrecognized arguments: --{flag} {text}" in captured.err


def test_cli_imports_no_private_helper():
    # every recheck lives in the library beside its probe, so the CLI
    # needs no underscore-prefixed name from another gbdkit module
    tree = ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))
    private = [(node.module, alias.name)
               for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               if node.level > 0 or (node.module or "").startswith("gbdkit")
               for alias in node.names if alias.name.startswith("_")]
    assert private == []
