"""Probe reports and the acceptance/quick/custom report runner."""

from __future__ import annotations

import time

from .errors import SchemaError
from .specfmt import load_yaml, read_input, to_text
from .verdicts import _plain


def probe_report(command: str, diagram, payload: dict, started: float) -> str:
    """Deterministic structured report; the wall time since `started` (a
    `time.perf_counter()` reading), taken once the text is written, sits
    in a footer outside the comparable payload."""
    body = {"command": command,
            "diagram": {"name": diagram.name, "params": diagram.params,
                        "fingerprint": diagram.fingerprint()},
            "result": _plain(payload)}
    text = to_text(body)
    return text + f"# wall_time_s: {time.perf_counter() - started:.3f}\n"


# gbdkit.acceptance is imported by the functions that run a suite, not
# here: no probe command reads it, so a cold probe command need not
# compile and import it.


def suite_names(suite: str):
    from .acceptance import CRITERIA, QUICK

    if suite == "acceptance":
        return [n for n, _ in CRITERIA]
    if suite == "quick":
        return list(QUICK)
    raise SchemaError(f"unknown suite {suite!r}")


def custom_suite_names(path: str):
    from .acceptance import CRITERIA

    doc = load_yaml(read_input(path))
    if not isinstance(doc, list) or not all(isinstance(x, str) for x in doc):
        raise SchemaError("custom suite file must be a list of criterion names")
    known = {n for n, _ in CRITERIA}
    bad = [x for x in doc if x not in known]
    if bad:
        raise SchemaError(f"unknown criteria {bad}; known: {sorted(known)}")
    return doc


def run_report(suite: str, custom_file: str | None = None):
    """Execute a criteria suite; returns (exit_code, text)."""
    from .acceptance import run_suite

    if suite == "custom":
        if custom_file is None:
            raise SchemaError("custom suite needs a file of criterion names")
        names = custom_suite_names(custom_file)
    else:
        names = suite_names(suite)
    start = time.perf_counter()
    results = run_suite(names)
    lines = [r.line for r in results]
    failed = [r for r in results if not r.passed]
    lines.append(f"# criteria: {len(results)} passed: {len(results) - len(failed)} "
                 f"failed: {len(failed)}")
    text = "\n".join(lines) + "\n"
    text += f"# wall_time_s: {time.perf_counter() - start:.3f}\n"
    code = 0 if not failed else 1
    return code, text
