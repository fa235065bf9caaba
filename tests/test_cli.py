import os
import pathlib
import subprocess
import sys

import pytest
import yaml

from gbdkit import make_diagram, toeplitz_reenumeration, vertical_from
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


def test_probe_connected_exit_codes(specs, capsys):
    code, _ = run_cli(["probe", "connected", "--spec", specs["rs"]], capsys)
    assert code == 0
    code, out = run_cli(["probe", "connected", "--spec", specs["p1"]], capsys)
    assert code == 1
    assert "clopen_partition" in out


def test_probe_period(specs, capsys):
    code, out = run_cli(["probe", "period", "--spec", specs["p1"],
                         "--index", "0"], capsys)
    assert code == 0
    assert "period: 2" in out


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
    ["probe", "period", "--spec", "p1", "--index", "0", "--depth", "0"],
    ["probe", "irreducible", "--spec", "rs", "--src", "3", "--dst", "7",
     "--depth", "-3"],
    ["orbit", "minimal", "--spec", "rs", "--depth", "0"],
], ids=lambda argv: " ".join(argv[:2] + argv[4:]))
def test_malformed_arguments_exit_2(argv, specs, capsys):
    argv = [specs.get(a, a) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


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
