"""The serialized spec format and the command-line surface.

Diagram specs are line-oriented key/value text (YAML-compatible, so
inline JSON works too); integers only, no floats anywhere.  The same
documents drive the `gbdkit` command-line tool.
"""

import subprocess
import sys
import tempfile
from pathlib import Path

from gbdkit import load_spec, to_text, explicit_spec_of_window, make_diagram

# catalog families resolve by name, with parameters inline
d = load_spec('{"family": "banded", "side": "two", '
              '"offsets": {"-1": 1, "0": 2, "1": 1}}')
print("banded spec == tridiag_B catalog entry:",
      d.incidence_window(0, (-3, 3), (-3, 3))
      == make_diagram("tridiag_B").incidence_window(0, (-3, 3), (-3, 3)))

# explicit matrices with an extension policy
explicit = """
indexing: {mode: one_sided, base: 1}
levels:
  - {1: {1: 2}, 2: {1: 1, 2: 1}, 3: {2: 1, 3: 1}}
extension: repeat_last
"""
e = load_spec(explicit)
print("explicit diagram row of 2 at level 9:", list(e.in_edges(9, 2)))

# windowed export round-trips through the same format
doc = explicit_spec_of_window(make_diagram("renewal_shift"), 1, (1, 4))
print("\nwindowed export of the renewal shift:")
print(to_text(doc))

# the CLI speaks the same files
with tempfile.TemporaryDirectory() as tmp:
    spec = Path(tmp) / "rs.yaml"
    spec.write_text("family: renewal_shift\n")
    for args in (
        ["probe", "irreducible", "--spec", str(spec), "--src", "3", "--dst", "9"],
        ["orbit", "minimal", "--spec", str(spec)],
    ):
        proc = subprocess.run([sys.executable, "-m", "gbdkit.cli"] + args,
                              capture_output=True, text=True)
        print(f"$ gbdkit {' '.join(args[:2])} ...  (exit {proc.returncode})")
        print("\n".join("  " + l for l in proc.stdout.splitlines()[:6]))
        print("  ...")
