"""Input documents, report serialization, and exact-rational JSON encoding.

Numbers in system documents are integer pairs [[re_num, re_den],
[im_num, im_den]]: a floating JSON literal would silently destroy the exact
zero tests the whole classification rests on, so none is ever accepted or
emitted for coefficient data.  Floats appear in reports only as convenience
renderings next to their exact strings.
"""

from __future__ import annotations

import json
import math
import sys

from .briot_bouquet import BBSystem
from .centers import AXIS_NAMES, HoloSystem
from .errors import BBCenterError, ParseError
from .series import EC_ZERO, MultiSeries, _ec
from .spectra import SmallMatrix, classify_spectrum, normal_form_check


def _is_int(value):
    """An integer, and not JSON ``true``/``false``: ``bool`` subclasses ``int``."""
    return isinstance(value, int) and not isinstance(value, bool)


def _pair_to_ec(value, location):
    try:
        (rn, rd), (im_n, im_d) = value
    except (TypeError, ValueError):
        raise ParseError("coefficient must be [[re_num, re_den], [im_num, im_den]]",
                         location) from None
    for v in (rn, rd, im_n, im_d):
        if not _is_int(v):
            raise ParseError(f"coefficient entries must be integers, got {v!r}",
                             location)
    if rd == 0 or im_d == 0:
        raise ParseError("zero denominator", location)
    d = math.lcm(rd, im_d)  # never negative, so d // rd carries the sign of rd
    return _ec(rn * (d // rd), im_n * (d // im_d), d)


def _text(value, render=str):
    """``render(value)``, or a ``BBCenterError`` naming the digit limit when
    an integer in it is too long to print."""
    try:
        return render(value)
    except ValueError:
        raise BBCenterError(
            f"a result has an integer of more than {sys.get_int_max_str_digits()} "
            "digits, the interpreter's limit for integers printed as text") from None


def _load(document):
    if isinstance(document, (bytes, str)):
        try:
            document = json.loads(document)
        except (json.JSONDecodeError, UnicodeDecodeError) as err:
            raise ParseError(f"invalid JSON: {err}", "document") from None
        except RecursionError:
            raise ParseError("nested too deeply for the JSON reader",
                             "document") from None
        except ValueError:
            # json raises a plain ValueError for an integer literal with more
            # digits than the interpreter converts from text
            raise ParseError(
                f"an integer has more than {sys.get_int_max_str_digits()} "
                "digits, the interpreter's limit for integers read from text",
                "document") from None
    if not isinstance(document, dict):
        raise ParseError("a document must be a JSON object", "document")
    return document


def _variables(doc, low, high):
    """The document's variable names: distinct strings, from ``low`` to
    ``high`` of them."""
    variables = doc.get("variables")
    if not isinstance(variables, list) or not all(isinstance(v, str) for v in variables):
        raise ParseError("variables must be a list of names", "variables")
    if len(set(variables)) < len(variables):
        raise ParseError("variable names must be distinct", "variables")
    if not low <= len(variables) <= high:
        raise ParseError(f"need {low} to {high} variables, got {len(variables)}",
                         "variables")
    return variables


def _split_terms(doc, n, nvars, order, per, at_least=False):
    """The n equations split by degree: rows of degree-one coefficients (row
    i, column j for equation i and variable j) and one series per equation
    of every other term.  Every monomial adds into its equation's one
    {exponent: coefficient} row, so repeated monomials add up; the unit
    exponents are split off at the end.  A monomial above ``order`` is
    refused, unless ``at_least`` raises the series' order to the top
    degree."""
    equations = doc.get("equations")
    if not isinstance(equations, list) or len(equations) != n:
        raise ParseError(f"need one equation per {per}", "equations")
    rows = [{} for _ in equations]
    top = order
    for i, (row, monomials) in enumerate(zip(rows, equations)):
        loc = f"equations[{i}]"
        if not isinstance(monomials, list):
            raise ParseError("each equation is a list of monomials", loc)
        for t, mono in enumerate(monomials):
            where = f"{loc}[{t}]"
            if not isinstance(mono, dict):
                raise ParseError("monomial must be an object", where)
            exps = mono.get("exponents")
            if (not isinstance(exps, list) or len(exps) != nvars
                    or not all(_is_int(e) and e >= 0 for e in exps)):
                raise ParseError(
                    f"exponents must be {nvars} nonnegative integers", where)
            degree = sum(exps)
            if degree == 0:
                raise ParseError(
                    "constant term: the origin must be an equilibrium", where)
            if degree > order and not at_least:
                raise ParseError(
                    f"monomial degree {degree} exceeds the truncation order "
                    f"{order}; raise --order", where)
            top = max(top, degree)
            coeff = _pair_to_ec(mono.get("coefficient"), f"{where}.coefficient")
            exps = tuple(exps)
            row[exps] = row[exps] + coeff if exps in row else coeff
    units = [tuple(int(i == j) for i in range(nvars)) for j in range(nvars)]
    linear = [[row.pop(unit, EC_ZERO) for unit in units] for row in rows]
    return linear, tuple(MultiSeries(nvars, top, row) for row in rows)


def parse_system(document, order=12, at_least=False):
    """Parse a system document into a HoloSystem (dimension 2 or 3).

    Degree-one monomials populate the linear part, everything else the
    nonlinear series; constant terms are rejected at parse time.  A monomial
    above ``order`` is refused, unless ``at_least`` raises the series' order
    to the document's top degree.  Only ``variables`` (2 or 3 distinct
    names) and ``equations`` are read; a ``time_scale`` key is refused,
    since periods are those of the field as written.
    """
    doc = _load(document)
    dim = len(_variables(doc, 2, 3))
    linear, series = _split_terms(doc, dim, dim, order, "variable", at_least)
    if "time_scale" in doc:
        # refused, not ignored: a time-scaled field is never read unscaled
        raise ParseError("time_scale is not read; scale the coefficients to "
                         "rescale time", "time_scale")
    return HoloSystem(SmallMatrix(linear), series)


def parse_bb_document(document, order=12):
    """Parse a document as a Briot-Bouquet system x y' = f(x, y).

    The first of the 2 to 4 distinct variable names is the independent
    one; there is one equation per dependent variable, polynomial in all
    variables.
    """
    doc = _load(document)
    n = len(_variables(doc, 2, 4)) - 1
    linear, series = _split_terms(doc, n, n + 1, order, "dependent variable")
    return BBSystem(SmallMatrix([row[1:] for row in linear]),
                    [row[0] for row in linear], series)


# ---------------------------------------------------------------------------
# report documents

def _float_str(value):
    return float(f"{value:.15g}")


def _finite_or_null(value):
    """JSON has no infinity or NaN, so a non-finite error renders as null."""
    return _float_str(value) if math.isfinite(value) else None


def period_string(factor):
    """Exact rendering of 2*pi*factor, e.g. '2π/3' or '3·2π/2'."""
    n, d = factor.numerator, factor.denominator
    if n == 1 and d == 1:
        return "2π"
    if n == 1:
        return f"2π/{d}"
    if d == 1:
        return f"{n}·2π"
    return f"{n}·2π/{d}"


def _spectrum_block(h):
    info = classify_spectrum(h.linear)
    return {
        "eigenvalues": [
            {"value": _text(v), "multiplicity": m,
             "purely_imaginary": v.is_purely_imaginary()}
            for v, m in info.eigenvalues],
        "diagonalizable": info.diagonalizable,
        "jordan_blocks": [[_text(v), s] for v, s in info.jordan_blocks],
        "normal_form": normal_form_check(h.linear),
        "certified": True,
    }


def report_document(h, reports, variables=None, verification=None):
    """Assemble the full report document for one system.

    A manifold entry carries its series exactly when its report has graphs.
    ``verification`` maps chart index (or None) to a VerifyResult; each
    manifold entry with one carries its numeric block.
    """
    names = list(variables) if variables else list(AXIS_NAMES[:h.dim])
    doc = {
        "certified": True,
        "spectrum": _spectrum_block(h),
        "pattern": reports[0].pattern if reports else None,
        "manifolds": [],
    }
    if not reports:
        doc["note"] = "no purely imaginary eigenvalue; no center families"
    for r in reports:
        entry = {
            "chart": names[r.chart] if r.chart is not None else None,
            "tangency": r.tangency,
            "multiplicity": r.multiplicity,
            "theorem_tag": r.theorem_tag,
            "free_parameter_count": len(r.free_parameters),
            "free_parameters": [
                {"order": k, "variable": names[v], "id": pid}
                for k, v, pid in r.free_parameters],
            "period": {
                # the integers of "factor": past the digit limit, json
                # could not print them either
                "exact": _text(r.period_factor, period_string),
                "factor": [r.period_factor.numerator, r.period_factor.denominator],
                "float": _float_str(r.period),
            },
        }
        if r.obstructions:
            entry["obstructions"] = {k: _text(v) for k, v in sorted(r.obstructions.items())}
        if r.blocking_order is not None:
            entry["blocking_order"] = r.blocking_order
        if r.graphs is not None:
            entry["series"] = {
                names[k]: [_text(g.coeff((j,))) for j in range(1, r.order + 1)]
                for k, g in sorted(r.graphs.items())}
        v = (verification or {}).get(r.chart)
        if v is not None:
            entry["verification"] = {
                "return_error": _finite_or_null(v.return_error),
                "residual_error": _finite_or_null(v.residual_error),
                "predicted_period": _float_str(v.predicted_period),
                "pass": v.passed,
            }
            if v.message:
                entry["verification"]["message"] = v.message
        doc["manifolds"].append(entry)
    return doc


def bb_report_document(classification):
    """One Briot-Bouquet verdict, with coefficients through its solved order."""
    doc = {
        "kind": classification.kind,
        "obstructions": {k: _text(v) for k, v in sorted(classification.obstructions.items())},
    }
    if classification.blocking_order is not None:
        doc["blocking_order"] = classification.blocking_order
    sol = classification.solution
    if sol is not None:
        doc["free_parameters"] = [
            {"order": k, "variable": v, "id": pid}
            for k, v, pid in sol.free_parameters]
        doc["coefficients"] = [
            [_text(c) for c in row] for row in sol.coefficients]
        doc["order"] = sol.order
    return doc


def emit_report(document, fmt="json"):
    """Render a report document deterministically as JSON or plain text."""
    if fmt == "json":
        return json.dumps(document, indent=2, ensure_ascii=False)
    if fmt == "text":
        return _render_text(document)
    raise ValueError(f"unknown format {fmt!r}")


def _render_text(doc):
    lines = []
    if "kind" in doc:  # raw Briot-Bouquet verdict
        lines.append(f"classification: {doc['kind']}")
        if doc.get("blocking_order") is not None:
            lines.append(f"blocking order: {doc['blocking_order']}")
        for k, v in (doc.get("obstructions") or {}).items():
            lines.append(f"  {k} = {v}")
        for p in doc.get("free_parameters", []):
            lines.append(f"  free: order {p['order']}, variable {p['variable']}")
        if "coefficients" in doc:
            lines.append("coefficients (order: per-variable):")
            for k, row in enumerate(doc["coefficients"], start=1):
                lines.append(f"  x^{k}: " + ", ".join(row))
        return "\n".join(lines)
    spec = doc.get("spectrum") or {}
    # the numeric fallback's spectrum has no multiplicities or normal form
    eig = ", ".join(f"{e['value']} (x{e['multiplicity']})" if "multiplicity" in e
                    else e["value"] for e in spec.get("eigenvalues", []))
    lines.append(f"spectrum: {eig}")
    if "normal_form" in spec:
        lines.append(f"normal form: {spec['normal_form']}; "
                     f"diagonalizable: {spec['diagonalizable']}")
    if doc.get("pattern"):
        lines.append(f"pattern: {doc['pattern']}")
    if doc.get("note"):
        lines.append(doc["note"])
    for m in doc.get("manifolds", []):
        chart = m["chart"] if m["chart"] is not None else "origin"
        head = (f"[{chart}] {m['multiplicity']} {m['tangency']}"
                f", period {m['period']['exact']}"
                f" ({m['period']['float']});"
                f" tag {m['theorem_tag']}")
        lines.append(head)
        if m.get("obstructions"):
            parts = ", ".join(f"{k} = {v}" for k, v in m["obstructions"].items())
            lines.append(f"    obstructions: {parts}")
        if m.get("blocking_order") is not None:
            lines.append(f"    blocking order: {m['blocking_order']}")
        for p in m.get("free_parameters", []):
            lines.append(f"    free parameter: order {p['order']} in {p['variable']}")
        for var, coeffs in (m.get("series") or {}).items():
            lines.append(f"    {var}(t) = " + " , ".join(
                f"t^{k}: {c}" for k, c in enumerate(coeffs, start=1) if c != "0"))
        if m.get("verification"):
            v = m["verification"]
            if v.get("message"):
                lines.append(f"    verify: {v['message']}, pass: {v['pass']}")
            else:
                lines.append(
                    f"    verify: return error {v['return_error']:.3e}, "
                    f"residual {v['residual_error']:.3e}, "
                    f"pass: {v['pass']}")
    return "\n".join(lines)
