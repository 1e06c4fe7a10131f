"""The batch front end: problem files in, verified reports out.

Problems are JSON documents with keys A, b, c, d, alpha, beta.  The runner
returns the process exit code (0 = verified success, 2 = no feasible point
with a positive denominator, 3 = unbounded or bad denominator, 4 = input
error, 5 = numerical failure) and writes the report to stdout as text or
JSON.  The script exits with the first nonzero code.
"""

import pathlib
import tempfile

from lfpkit.cli import run

document = """\
{
  "A": [[2, 1], [-2, 1]],
  "b": [6, 2],
  "c": [6, 3],
  "d": [5, 2],
  "alpha": 6,
  "beta": 5
}
"""

with tempfile.TemporaryDirectory() as scratch:
    path = pathlib.Path(scratch) / "problem.json"
    path.write_text(document, encoding="utf-8")

    print("=== text report (both routes, denominator certified) ===")
    codes = [run(["--input", str(path), "--approach", "both", "--validate-denominator"])]
    print(f"=== exit code {codes[-1]} ===\n")

    print("=== same run as JSON ===")
    codes.append(run(["--input", str(path), "--format", "json"]))
    print(f"=== exit code {codes[-1]} ===")

raise SystemExit(next((code for code in codes if code), 0))
