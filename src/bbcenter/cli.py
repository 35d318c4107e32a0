"""Command-line interface.

Subcommands: ``classify`` (theorem dispatch and obstructions), ``series``
(adds manifold coefficients), ``verify`` (adds the numeric block), ``bb``
(raw Briot-Bouquet classification of a document read as x y' = f).
``classify`` prints no coefficients, so it solves each chart only through
its last resonant order (``enumerate_centers(..., verdict_only=True)``) and
reads monomials of any degree; the others solve to ``--order`` and refuse
a monomial above it.

Exit codes: 0 classified, 2 parse error (an integer with more digits than
the interpreter reads from text, a document nested too deeply for the JSON
reader and repeated variable names included), 3 uncertifiable spectrum,
unnormalized input, an ``--order`` below the one the system needs (past
``MAX_ORDER`` the message says that no ``--order`` reaches it), exact
work (tracked powers x order^2 + terms x order, summed over the charts and
counted over the orders actually solved, see ``briot_bouquet.exact_work``)
past ``briot_bouquet.MAX_EXACT_WORK``, a result integer with more digits
than the interpreter prints, a period beyond or below double range, a
period whose first RK4 sweep needs more than ``verify.MAX_RK4_STEPS``
steps even at two levels (the start step and half of it) or a
coefficient that ``verify`` cannot convert to a double, 4 verification
failure (a diverging or non-finite run and step halving that reaches the
cap included; a message names the cause, and errors that are not finite
print as null).
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
from .errors import (BBCenterError, NotNormalized, OrderTooSmall, ParseError,
                     UncertifiableSpectrum)
from .spectra import numeric_spectrum
from .verify import (MAX_RK4_STEPS, ORDER_RATIO, STEPS_PER_PERIOD,
                     check_isochronous)

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

    def common(p, verify=False, work="tracked powers x order^2 + terms x order"):
        p.add_argument("files", nargs="+", help="system documents (JSON), or - for stdin")
        p.add_argument("--order", default=12, type=_checked(
            int, lambda v: 1 <= v <= MAX_ORDER, f"an integer from 1 to {MAX_ORDER}"),
            help=f"series truncation order, 1 to {MAX_ORDER} (default 12); a "
                 f"document whose exact work ({work}, summed over charts) passes "
                 f"{MAX_EXACT_WORK} is refused")
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

    common(sub.add_parser("classify", help="enumerate center manifolds"),
           work="tracked powers x K^2 + terms x K, with K the chart's last "
                "resonant order, which --order does not change")
    common(sub.add_parser("series", help="enumerate and print series coefficients"))
    verify_description = (
        "enumerate and verify numerically: Lawson RK4 (the rotation "
        "i Im(diag A) exact) over one period, first in one sweep at steps c, "
        f"c/2 and c/4 from c = min(period/{STEPS_PER_PERIOD}, 2/|A|), then "
        "halved until the Richardson estimate E = |z_2h - z_h|/15 is below "
        "tol/100 with the order ratio |z_4h - z_2h|/|z_2h - z_h| in "
        f"[{ORDER_RATIO[0]}, {ORDER_RATIO[1]}], or below 64 eps |z0|; pass iff "
        "return error + E <= tol and the residual decays at the series order; "
        f"at most {MAX_RK4_STEPS} steps per manifold")
    common(sub.add_parser(
        "verify", help="enumerate and verify numerically (RK4, step from --tol)",
        description=verify_description), verify=True)
    common(sub.add_parser("bb", help="classify a raw Briot-Bouquet system"))
    return parser


def _read(path):
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise ParseError(f"cannot read: {err}") from None


def _fallback_document(h):
    return {
        "certified": False,
        "note": "spectrum not certifiable over the Gaussian rationals; "
                "double-precision summary only",
        "spectrum": numeric_spectrum(h.linear),
        "manifolds": [],
    }


def _process_system(text, args):
    doc = documents._load(text)
    verdict_only = args.command == "classify"
    h = documents.parse_system(doc, order=args.order, at_least=verdict_only)
    variables = doc.get("variables")
    try:
        reports = enumerate_centers(h, order=args.order, verdict_only=verdict_only)
    except (UncertifiableSpectrum, NotNormalized):
        if not args.numeric_fallback:
            raise  # main reports it with the file name, exit 3
        return _fallback_document(h), EXIT_OK
    verification = {}
    if args.command == "verify":
        verification = {r.chart: check_isochronous(
            h, r, starts=args.starts, radius=args.radius, tol=args.tol)
            for r in reports if r.multiplicity != "none"}
    code = EXIT_OK if all(v.passed for v in verification.values()) else EXIT_VERIFY
    document = documents.report_document(
        h, reports, variables=variables, verification=verification)
    return document, code


def _process_bb(text, args):
    bb = documents.parse_bb_document(text, order=args.order)
    out = bb_classify(bb, order=args.order)
    return documents.bb_report_document(out), EXIT_OK


def main(argv=None):
    args = _build_parser().parse_args(argv)
    process = _process_bb if args.command == "bb" else _process_system
    worst = EXIT_OK
    try:
        for path in args.files:
            try:
                document, code = process(_read(path), args)
            except BBCenterError as err:
                worst = max(worst, EXIT_PARSE if isinstance(err, ParseError)
                            else EXIT_UNCERTIFIABLE)
                if isinstance(err, OrderTooSmall) and err.required > MAX_ORDER:
                    # the parser refuses the --order the error would name
                    err = (f"order {err.order} cannot expose the resonance at "
                           f"order {err.resonance}, and no --order up to "
                           f"{MAX_ORDER} reaches it")
                print(f"error: {path}: {err}", file=sys.stderr)
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
