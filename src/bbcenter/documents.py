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
from fractions import Fraction

from .briot_bouquet import BBSystem
from .centers import AXIS_NAMES, HoloSystem
from .errors import BBCenterError, ParseError
from .series import EC_ZERO, ExactComplex, MultiSeries
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
    return ExactComplex(Fraction(rn, rd), Fraction(im_n, im_d))


def _ec_to_pair(value):
    g, h = math.gcd(value.a, value.d), math.gcd(value.b, value.d)
    return [[value.a // g, value.d // g], [value.b // h, value.d // h]]


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


def _split_terms(doc, n, nvars, order, per):
    """The n equations split by degree: rows of degree-one coefficients (row
    i, column j for equation i and variable j) and one series per equation
    of every other term.  Repeated monomials add up."""
    equations = doc.get("equations")
    if not isinstance(equations, list) or len(equations) != n:
        raise ParseError(f"need one equation per {per}", "equations")
    linear = [[EC_ZERO] * nvars for _ in equations]
    nonlinear = [{} for _ in equations]
    for i, monomials in enumerate(equations):
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
            if sum(exps) == 0:
                raise ParseError(
                    "constant term: the origin must be an equilibrium", where)
            if sum(exps) > order:
                raise ParseError(
                    f"monomial degree {sum(exps)} exceeds the truncation order "
                    f"{order}; raise --order", where)
            coeff = _pair_to_ec(mono.get("coefficient"), f"{where}.coefficient")
            if sum(exps) == 1:
                j = exps.index(1)
                linear[i][j] = linear[i][j] + coeff
            else:
                exps = tuple(exps)
                prev = nonlinear[i].get(exps)
                nonlinear[i][exps] = coeff if prev is None else prev + coeff
    return linear, tuple(MultiSeries(nvars, order, terms) for terms in nonlinear)


def parse_system(document, order=12):
    """Parse a system document into a HoloSystem (dimension 2 or 3).

    Degree-one monomials populate the linear part, everything else the
    nonlinear series; constant terms are rejected at parse time.
    """
    doc = _load(document)
    variables = doc.get("variables")
    if not isinstance(variables, list) or not all(isinstance(v, str) for v in variables):
        raise ParseError("missing variables list", "variables")
    dim = len(variables)
    if dim not in (2, 3):
        raise ParseError(f"dimension must be 2 or 3, got {dim}", "variables")
    linear, series = _split_terms(doc, dim, dim, order, "variable")
    scale = doc.get("time_scale", [1, 1])
    if (not isinstance(scale, list) or len(scale) != 2
            or not all(_is_int(v) for v in scale) or scale[1] == 0
            or Fraction(*scale) <= 0):
        raise ParseError("time_scale must be a positive rational [num, den]",
                         "time_scale")
    return HoloSystem(SmallMatrix(linear), series, Fraction(*scale))


def parse_bb_document(document, order=12):
    """Parse a document as a Briot-Bouquet system x y' = f(x, y).

    The first variable is the independent one; there is one equation per
    dependent variable, polynomial in all variables.
    """
    doc = _load(document)
    variables = doc.get("variables")
    if not isinstance(variables, list) or len(variables) < 2:
        raise ParseError("need the independent variable plus at least one "
                         "dependent variable", "variables")
    n = len(variables) - 1
    if n > 3:
        raise ParseError(f"at most 3 dependent variables, got {n}", "variables")
    linear, series = _split_terms(doc, n, n + 1, order, "dependent variable")
    return BBSystem(SmallMatrix([row[1:] for row in linear]),
                    [row[0] for row in linear], series)


def emit_system_document(h, variables=None):
    """Serialize a HoloSystem back to the document schema, losslessly."""
    dim = h.dim
    names = list(variables) if variables else list(AXIS_NAMES[:dim])
    equations = []
    for i in range(dim):
        monomials = []
        for j in range(dim):
            c = h.linear.entry(i, j)
            if not c.is_zero():
                exps = [1 if k == j else 0 for k in range(dim)]
                monomials.append({"coefficient": _ec_to_pair(c), "exponents": exps})
        for exps in sorted(h.nonlinear[i].terms, key=lambda e: (sum(e), e)):
            monomials.append({
                "coefficient": _ec_to_pair(h.nonlinear[i].terms[exps]),
                "exponents": list(exps)})
        equations.append(monomials)
    doc = {"variables": names, "equations": equations}
    if h.time_scale != 1:
        doc["time_scale"] = [h.time_scale.numerator, h.time_scale.denominator]
    return doc


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


def _series_coefficients(graph, order):
    return [_text(graph.coeff((k,))) for k in range(1, order + 1)]


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


def report_document(h, reports, variables=None, include_series=False,
                    verification=None):
    """Assemble the full report document for one system.

    ``verification`` maps chart index (or None) to a VerifyResult; when given,
    each manifold entry carries its numeric block.
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
        if include_series and r.graphs is not None:
            entry["series"] = {
                names[k]: _series_coefficients(g, r.order)
                for k, g in sorted(r.graphs.items())}
        if verification is not None and r.multiplicity != "none":
            v = verification.get(r.chart)
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


def bb_report_document(bb, classification, order):
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
        doc["order"] = order
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
    eig = ", ".join(f"{e['value']} (x{e['multiplicity']})"
                    for e in spec.get("eigenvalues", []))
    lines.append(f"spectrum: {eig}")
    lines.append(f"normal form: {spec.get('normal_form')}; "
                 f"diagonalizable: {spec.get('diagonalizable')}")
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
