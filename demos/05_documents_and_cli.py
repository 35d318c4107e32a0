"""System documents and the command line.

Systems travel as JSON with exact-rational coefficients: each number is a
pair of integer pairs [[re_num, re_den], [im_num, im_den]], never a float,
so a parsed document gives the exact system.  Periods are those of the
field as written; a document with a ``time_scale`` key is refused.
"""

import json
import tempfile
from pathlib import Path

from bbcenter import cli, emit_report, parse_system, report_document
from bbcenter.centers import enumerate_centers

# x' = ix + (1/4)y^2,  y' = 2iy + x^2,  z' = z
document = {
    "variables": ["x", "y", "z"],
    "equations": [
        [{"coefficient": [[0, 1], [1, 1]], "exponents": [1, 0, 0]},
         {"coefficient": [[1, 4], [0, 1]], "exponents": [0, 2, 0]}],
        [{"coefficient": [[0, 1], [2, 1]], "exponents": [0, 1, 0]},
         {"coefficient": [[1, 1], [0, 1]], "exponents": [2, 0, 0]}],
        [{"coefficient": [[1, 1], [0, 1]], "exponents": [0, 0, 1]}],
    ],
}

system = parse_system(document)
print("parsed dimension:", system.dim)
print()

# a report prints the graph series it was solved to; the CLI's classify,
# below, solves each chart only through its last resonant order and prints none
reports = enumerate_centers(system)
print("text report:")
print(emit_report(report_document(system, reports, document["variables"]), "text"))
print()

# the same pipeline through the CLI, exit codes and all
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "system.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    print("cli: bbcenter classify system.json --format text")
    code = cli.main(["classify", str(path), "--format", "text"])
    print(f"(exit code {code})")
    print()
    print("cli: bbcenter bb document interpreted as x u' = x + 2u")
    bb_doc = {"variables": ["x", "u"],
              "equations": [[{"coefficient": [[1, 1], [0, 1]], "exponents": [1, 0]},
                             {"coefficient": [[2, 1], [0, 1]], "exponents": [0, 1]}]]}
    bb_path = Path(tmp) / "bb.json"
    bb_path.write_text(json.dumps(bb_doc), encoding="utf-8")
    code = cli.main(["bb", str(bb_path), "--format", "text"])
    print(f"(exit code {code})")
