"""The README's examples run: every yaml block under "Spec files" loads
through `load_spec`, and the "Library tour" python block runs."""

import pathlib
import re

import pytest

from gbdkit import load_spec

README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()


def blocks(section: str, lang: str) -> list:
    """The fenced `lang` blocks of the README section under `## section`."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"```{lang}\n(.*?)```", body, re.S)


SPEC_BLOCKS = blocks("Spec files", "yaml")


@pytest.mark.parametrize("text", SPEC_BLOCKS,
                         ids=[f"block {i}" for i in range(len(SPEC_BLOCKS))])
def test_spec_files_examples_load(text):
    load_spec(text)


def test_library_tour_runs():
    (code,) = blocks("Library tour", "python")
    exec(code, {})
