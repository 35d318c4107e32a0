"""Spans and counts recorded around the calls into each bbcenter layer.

The program itself is not instrumented: while a ``Tracer`` is installed it
replaces the public functions of each module where the caller looks them up
(``cli.enumerate_centers``, ``centers.chart_reduce``, ``MultiSeries.__mul__``
...) with wrappers that record a span (name, start, end, parent, document)
and, for some, a count read from the result.  Uninstalling restores the
originals, so untraced rounds run the program exactly as shipped.

Every ``MultiSeries`` operation that builds a new series is a span of the
``series`` layer.  Scalar (``ExactComplex``) arithmetic is not wrapped: its
time is self time of whichever layer does it.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from time import perf_counter

VERDICT_NAMES = {"no_solution": "none", "unique": "unique", "family": "family"}


class Tracer:
    """Collects spans in memory; ``write`` saves them when the run ends."""

    def __init__(self):
        self.spans = []  # (span id, name, start, end, parent id, document id)
        self.calls = Counter()  # spans per name since the last new_round()
        self.counts = Counter()  # counts read from results since new_round()
        self.doc_id = None
        self._stack = []
        self._next_id = 0
        self._patches = []

    # ---- recording -------------------------------------------------------

    def new_round(self):
        """Start counting afresh; spans are kept."""
        self.calls = Counter()
        self.counts = Counter()

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        self.calls[name] += 1
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((span_id, name, start, end, parent, self.doc_id))

    def _wrap(self, name, fn, on_result):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            return on_result(result) if on_result is not None else result
        return wrapper

    # ---- result hooks ----------------------------------------------------

    def _count_chart(self, reduction):
        self.counts["centers.charts"] += 1
        self.counts["centers.charts_excluded"] += int(reduction.excluded)
        return reduction

    def _count_verdict(self, verdict):
        self.counts[f"briot_bouquet.verdicts.{VERDICT_NAMES[verdict.kind]}"] += 1
        return verdict

    def _count_field(self, field):
        def counted(z):
            self.counts["verify.field_evals"] += 1
            return field(z)
        return counted

    # ---- installation ----------------------------------------------------

    def _targets(self):
        from bbcenter import briot_bouquet, centers, cli, documents, verify
        from bbcenter.series import MultiSeries

        return [
            (cli, "enumerate_centers", "centers.enumerate_centers", None),
            (cli, "bb_classify", "briot_bouquet.classify", self._count_verdict),
            (cli, "check_isochronous", "verify.check_isochronous", None),
            (cli, "numeric_spectrum", "spectra.numeric_spectrum", None),
            (documents, "_load", "documents.load", None),
            (documents, "parse_system", "documents.parse_system", None),
            (documents, "parse_bb_document", "documents.parse_bb_document", None),
            (documents, "report_document", "documents.report_document", None),
            (documents, "bb_report_document", "documents.bb_report_document", None),
            (documents, "emit_report", "documents.emit_report", None),
            (documents, "classify_spectrum", "spectra.classify_spectrum", None),
            (documents, "normal_form_check", "spectra.normal_form_check", None),
            (centers, "classify_spectrum", "spectra.classify_spectrum", None),
            (centers, "normal_form_check", "spectra.normal_form_check", None),
            (centers, "chart_reduce", "centers.chart_reduce", self._count_chart),
            (briot_bouquet, "classify", "briot_bouquet.classify",
             self._count_verdict),
            (briot_bouquet, "formal_solve_nonresonant", "briot_bouquet.nonresonant",
             None),
            (briot_bouquet, "reduction_step", "briot_bouquet.reduction_step", None),
            (briot_bouquet, "solve_affine", "spectra.solve_affine", None),
            (verify, "compile_field", "verify.compile_field", self._count_field),
            (verify, "_rk4_batch", "verify.rk4", None),
            (verify, "check_residual_numeric", "verify.residual", None),
            (MultiSeries, "__mul__", "series.mul", None),
            (MultiSeries, "__rmul__", "series.mul", None),
            (MultiSeries, "__add__", "series.add", None),
            (MultiSeries, "__radd__", "series.add", None),
            (MultiSeries, "__sub__", "series.sub", None),
            (MultiSeries, "__rsub__", "series.sub", None),
            (MultiSeries, "__neg__", "series.neg", None),
            (MultiSeries, "reciprocal", "series.reciprocal", None),
            (MultiSeries, "substitute", "series.substitute", None),
            (MultiSeries, "shear_substitute", "series.shear_substitute", None),
            (MultiSeries, "divide_by_x", "series.divide_by_x", None),
            (MultiSeries, "truncate", "series.truncate", None),
            (MultiSeries, "with_order", "series.with_order", None),
            (MultiSeries, "derivative", "series.derivative", None),
            (MultiSeries, "euler_derivative", "series.euler_derivative", None),
            (MultiSeries, "eval_numeric", "series.eval_numeric", None),
        ]

    def install(self):
        for owner, attr, name, on_result in self._targets():
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, on_result))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ---- analysis --------------------------------------------------------

    def self_times(self):
        """(name, duration, self time) per span: the self time is the span
        minus the time its child spans cover.  Spans on one thread nest, so
        the children's union is the sum of their durations."""
        covered = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [(name, end - start, end - start - covered[span_id])
                for span_id, name, start, end, _, _ in self.spans]

    def write(self, path):
        """JSON lines: the field names, the counts of the last round, then
        one array per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "name", "start", "end",
                                            "parent", "doc"],
                                 "counts": dict(self.counts)}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
