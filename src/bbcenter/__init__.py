"""Exact Briot-Bouquet solving and holomorphic center-manifold enumeration.

The package splits into an exact layer (series, spectra, briot_bouquet,
centers) where every branch is a decidable zero test over the Gaussian
rationals, and a floating-point layer (verify) that integrates the field and
checks the predicted periods and residuals numerically.
"""

from .briot_bouquet import (BBClassification, BBSystem, FormalSolution,
                            KIND_FAMILY, KIND_NO_SOLUTION, KIND_UNIQUE,
                            classify, formal_solve_nonresonant,
                            reduction_step, residual)
from .centers import (CenterManifoldReport, ChartReduction, HoloSystem,
                      chart_reduce, enumerate_centers, manifold_residual)
from .documents import (bb_report_document, emit_report, parse_bb_document,
                        parse_system, report_document)
from .series import EC_I, EC_ONE, EC_ZERO, ExactComplex, MultiSeries
from .spectra import (SmallMatrix, SpectrumInfo, classify_spectrum,
                      normal_form_check, solve_affine)
from .verify import (VerifyResult, check_isochronous, check_residual_numeric,
                     compile_field, integrate)

__version__ = "0.1.0"

__all__ = [
    "BBClassification", "BBSystem", "CenterManifoldReport", "ChartReduction",
    "ExactComplex", "FormalSolution", "HoloSystem", "MultiSeries",
    "SmallMatrix", "SpectrumInfo", "VerifyResult",
    "EC_I", "EC_ONE", "EC_ZERO",
    "KIND_FAMILY", "KIND_NO_SOLUTION", "KIND_UNIQUE",
    "bb_report_document", "chart_reduce", "check_isochronous",
    "check_residual_numeric", "classify", "classify_spectrum", "compile_field",
    "emit_report", "enumerate_centers",
    "formal_solve_nonresonant", "integrate",
    "manifold_residual", "normal_form_check",
    "parse_bb_document", "parse_system", "reduction_step",
    "report_document", "residual", "solve_affine",
]
