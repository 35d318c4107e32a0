"""Command-line interface.

Subcommands: ``classify`` (theorem dispatch and obstructions), ``series``
(adds manifold coefficients), ``verify`` (adds the numeric block), ``bb``
(raw Briot-Bouquet classification of a document read as x y' = f).

Exit codes: 0 classified, 2 parse error (an integer with more digits than
the interpreter reads from text included), 3 uncertifiable spectrum,
unnormalized input, an ``--order`` below the one the system needs, exact
work (tracked powers x order^2 + terms x order, summed over the charts, see
``briot_bouquet.exact_work``) past ``briot_bouquet.MAX_EXACT_WORK``, a
result integer with more digits than the interpreter prints, a
period whose first two RK4 runs (at the start step and half of it) need
more than ``verify.MAX_RK4_STEPS`` steps or a coefficient that ``verify``
cannot convert to a double, 4 verification failure (a diverging or
non-finite run and step halving that reaches the cap included; a message
names the cause, and errors that are not finite print as null).
``--order`` is capped at ``MAX_ORDER`` and ``--starts`` at ``MAX_STARTS``;
a file that cannot be read or is not UTF-8 exits 2.  A reader that closes
standard output early (``bbcenter series doc.json | head``) ends the run
quietly, with the exit code of the documents processed so far.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import documents
from .briot_bouquet import MAX_EXACT_WORK
from .briot_bouquet import classify as bb_classify
from .centers import enumerate_centers
from .errors import (BBCenterError, NotNormalized, ParseError,
                     UncertifiableSpectrum)
from .spectra import numeric_spectrum
from .verify import MAX_RK4_STEPS, STEPS_PER_PERIOD, check_isochronous

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_UNCERTIFIABLE = 3
EXIT_VERIFY = 4

MAX_ORDER = 64
MAX_STARTS = 1000


def _checked(convert, accept, requirement):
    """An argparse type that converts and then rejects out-of-range values."""
    def parse(text):
        try:
            value = convert(text)
            if accept(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {requirement}")
    return parse


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="bbcenter",
        description="Exact center-manifold and isochronous-center classification "
                    "of holomorphic systems via Briot-Bouquet theory.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, verify=False):
        p.add_argument("files", nargs="+", help="system documents (JSON), or - for stdin")
        p.add_argument("--order", default=12, type=_checked(
            int, lambda v: 1 <= v <= MAX_ORDER, f"an integer from 1 to {MAX_ORDER}"),
            help=f"series truncation order, 1 to {MAX_ORDER} (default 12); a "
                 "document whose exact work (tracked powers x order^2 + terms x "
                 f"order, summed over charts) passes {MAX_EXACT_WORK} is refused")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--numeric-fallback", action="store_true",
                       help="report a flagged double-precision spectrum instead of "
                            "failing when exact certification is impossible")
        if verify:
            positive = _checked(float, lambda v: 0 < v < math.inf,
                                "a positive finite number")
            p.add_argument("--radius", default=1e-2, type=positive,
                           help="sampling radius of the RK4 starts and the "
                                "residual, positive and finite (default 1e-2)")
            p.add_argument("--tol", default=1e-6, type=positive,
                           help="bound on return error + RK4 error estimate, "
                                "positive and finite (default 1e-6)")
            p.add_argument("--starts", default=20, type=_checked(
                int, lambda v: 1 <= v <= MAX_STARTS, f"an integer from 1 to {MAX_STARTS}"),
                help=f"RK4 start points per manifold, 1 to {MAX_STARTS} (default 20)")

    common(sub.add_parser("classify", help="enumerate center manifolds"))
    common(sub.add_parser("series", help="enumerate and print series coefficients"))
    verify_description = (
        "enumerate and verify numerically: Lawson RK4 (the rotation "
        "i Im(diag A) exact) over one period from step "
        f"min(period/{STEPS_PER_PERIOD}, 2/|A|), halved until the Richardson "
        "estimate E is below tol/100 or 64 eps |z0|, or stops falling; pass iff "
        "return error + E <= tol and the residual decays at the series order; "
        f"at most {MAX_RK4_STEPS} steps per manifold")
    common(sub.add_parser(
        "verify", help="enumerate and verify numerically (RK4, step from --tol)",
        description=verify_description), verify=True)
    common(sub.add_parser("bb", help="classify a raw Briot-Bouquet system"))
    return parser


def _read(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _fallback_document(h):
    summary = numeric_spectrum(h.linear)
    return {
        "certified": False,
        "note": "spectrum not certifiable over the Gaussian rationals; "
                "double-precision summary only",
        "spectrum": {
            "eigenvalues": [
                {"value": f"{e['value']:.15g}",
                 "purely_imaginary": e["purely_imaginary"]}
                for e in summary["eigenvalues"]],
            "certified": False,
            "tolerance": summary["tolerance"],
        },
        "manifolds": [],
    }


def _process_system(text, args):
    doc = documents._load(text)
    h = documents.parse_system(doc, order=args.order)
    variables = doc.get("variables")
    try:
        reports = enumerate_centers(h, order=args.order)
    except (UncertifiableSpectrum, NotNormalized):
        if not args.numeric_fallback:
            raise  # main reports it with the file name, exit 3
        return _fallback_document(h), EXIT_OK
    include_series = args.command in ("series", "verify")
    verification = None
    code = EXIT_OK
    if args.command == "verify":
        verification = {}
        for r in reports:
            if r.multiplicity == "none":
                continue
            result = check_isochronous(
                h, r, starts=args.starts, radius=args.radius, tol=args.tol)
            verification[r.chart] = result
            if not result.passed:
                code = EXIT_VERIFY
    document = documents.report_document(
        h, reports, variables=variables, include_series=include_series,
        verification=verification)
    return document, code


def _process_bb(text, args):
    bb = documents.parse_bb_document(text, order=args.order)
    out = bb_classify(bb, order=args.order)
    return documents.bb_report_document(bb, out, args.order), EXIT_OK


def main(argv=None):
    args = _build_parser().parse_args(argv)
    worst = EXIT_OK
    try:
        for path in args.files:
            try:
                text = _read(path)
            except (OSError, UnicodeDecodeError) as err:
                print(f"error: {path}: cannot read: {err}", file=sys.stderr)
                worst = max(worst, EXIT_PARSE)
                continue
            try:
                if args.command == "bb":
                    document, code = _process_bb(text, args)
                else:
                    document, code = _process_system(text, args)
            except ParseError as err:
                print(f"error: {path}: {err}", file=sys.stderr)
                worst = max(worst, EXIT_PARSE)
                continue
            except BBCenterError as err:
                print(f"error: {path}: {err}", file=sys.stderr)
                worst = max(worst, EXIT_UNCERTIFIABLE)
                continue
            worst = max(worst, code)
            print(documents.emit_report(document, args.format))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed standard output early (``| head``): stop quietly,
        # and leave nothing for the interpreter to flush into the closed pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return worst


if __name__ == "__main__":
    sys.exit(main())
