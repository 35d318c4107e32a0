"""Output checks run outside the timed region.

A document fails when its exit code, its report or its agreement with the
independent oracle in ``tests/bb_oracle.py`` is wrong.  For the default seed
the exit code and the digest of every output must also match the committed
golden table.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")
DEFAULT_SEED = 1

_INTEGER = re.compile(r"\d+")


def canonical_output(doc, stdout):
    """The output as compared between rounds and with the golden table.

    Verify reports keep every exact field and ``pass``; the float renderings
    of the return and residual errors are dropped, since their last digits
    may differ between numpy builds.
    """
    if doc.command != "verify" or not stdout:
        return stdout
    report = json.loads(stdout)
    for manifold in report["manifolds"]:
        block = manifold.get("verification")
        if block:
            del block["return_error"], block["residual_error"]
    return json.dumps(report, sort_keys=True)


def digest(doc, stdout):
    return hashlib.sha256(canonical_output(doc, stdout).encode()).hexdigest()


def output_counts(stdout):
    """Exact sizes read from one report: nonzero graph-series coefficients
    and the largest bit length of a numerator or denominator in them or in
    Briot-Bouquet solution coefficients."""
    if not stdout:
        return 0, 0
    report = json.loads(stdout)
    terms = 0
    coefficients = []
    for manifold in report.get("manifolds", []):
        for series in (manifold.get("series") or {}).values():
            nonzero = [c for c in series if c != "0"]
            terms += len(nonzero)
            coefficients.extend(nonzero)
    for row in report.get("coefficients", []):
        coefficients.extend(row)
    bits = max((int(n).bit_length() for c in coefficients
                for n in _INTEGER.findall(c)), default=0)
    return terms, bits


def check_document(doc, code, stdout, stderr):
    """Problems with one document's result; empty when it is correct."""
    expect = doc.expect
    if code != expect["exit"]:
        return [f"exit code {code}, expected {expect['exit']}: {stderr.strip()[:200]}"]
    if code != 0:
        if stdout or "error:" not in stderr:
            return ["a refused document must print only an error"]
        return []
    try:
        report = json.loads(stdout)
    except ValueError as err:
        return [f"output is not JSON: {err}"]
    problems = []
    if "pattern" in expect and report.get("pattern") != expect["pattern"]:
        problems.append(f"pattern {report.get('pattern')!r}, expected {expect['pattern']!r}")
    if "charts" in expect:
        charts = {m["chart"]: m["multiplicity"] for m in report["manifolds"]}
        if charts != expect["charts"]:
            problems.append(f"charts {charts}, expected {expect['charts']}")
    if expect.get("empty") and report.get("manifolds") != []:
        problems.append("expected an empty report")
    if doc.command == "series":
        for m in report["manifolds"]:
            series = m.get("series")
            if m["multiplicity"] != "none" and (
                    not series or any(len(c) != doc.order for c in series.values())):
                problems.append(f"chart {m['chart']}: series missing or truncated")
    if doc.command == "verify":
        blocks = [m.get("verification") for m in report["manifolds"]
                  if m["multiplicity"] != "none"]
        if not blocks or not all(b and b["pass"] is True for b in blocks):
            problems.append("a manifold failed numeric verification")
    if doc.command == "bb":
        if report.get("kind") != expect["kind"]:
            problems.append(f"verdict {report.get('kind')!r}, expected {expect['kind']!r}")
        problems.extend(check_bb(doc, report))
    return problems


def _oracle_input(doc):
    """The document read directly into the oracle's plain form."""
    from bbcenter.series import ExactComplex

    data = json.loads(doc.text)
    n = len(data["variables"]) - 1
    A = [[ExactComplex(0)] * n for _ in range(n)]
    px = [ExactComplex(0)] * n
    terms = [[] for _ in range(n)]
    for i, monomials in enumerate(data["equations"]):
        for mono in monomials:
            (rn, rd), (im_n, im_d) = mono["coefficient"]
            value = ExactComplex(Fraction(rn, rd), Fraction(im_n, im_d))
            exps = tuple(mono["exponents"])
            if sum(exps) == 1 and exps[0] == 1:
                px[i] = px[i] + value
            elif sum(exps) == 1:
                j = exps.index(1) - 1
                A[i][j] = A[i][j] + value
            else:
                terms[i].append((value, exps))
    return A, px, terms


def check_bb(doc, report):
    """The CLI report against the oracle; the package's own solution must
    leave an exactly vanishing residual."""
    from bb_oracle import oracle_classify
    from bbcenter.briot_bouquet import classify, residual
    from bbcenter.documents import parse_bb_document

    want = oracle_classify(*_oracle_input(doc), doc.order)
    problems = []
    if report["kind"] != want.kind:
        return [f"verdict {report['kind']!r}, oracle says {want.kind!r}"]
    if want.kind == "no_solution":
        if report.get("blocking_order") != want.blocking_order:
            problems.append("blocking order differs from the oracle")
        return problems
    slots = [(p["order"], p["variable"]) for p in report["free_parameters"]]
    if slots != want.free_slots:
        problems.append(f"free slots {slots}, oracle {want.free_slots}")
    expected = [[str(c) for c in row] for row in want.coefficients]
    if report["coefficients"] != expected:
        problems.append("solution coefficients differ from the oracle")
    bb = parse_bb_document(doc.text, order=doc.order)
    solution = classify(bb, doc.order).solution
    if not all(row.is_zero() for row in residual(bb, solution)):
        problems.append("residual of the solution does not vanish")
    return problems


def load_golden(workload, seed):
    """The golden entries for this workload, or None off the default seed."""
    if seed != DEFAULT_SEED or not GOLDEN_PATH.is_file():
        return None
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)["workloads"].get(workload)
