"""Smoke test of the benchmark itself: one small document per workload runs
through the client untraced and traced, passes its checks, and yields every
per-layer metric.  Outside the tier-1 suite, which collects only ``tests/``:

    python3 -m pytest -q bench/test_smoke.py
"""

import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH.parent / "tests"), str(BENCH)]

import corpus  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402


def tiny_document(workload):
    docs = corpus.build(workload, 7)
    if workload == "dense-series":
        return replace(docs[0], order=6)
    if workload == "resonant-mix":
        return next(d for d in docs if d.command == "bb")
    return next(d for d in docs if d.expect["pattern"] == "one-imaginary")


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_one_document_per_workload(workload):
    from bbcenter import centers, cli

    client = run.Client([tiny_document(workload)])
    untraced = [client.round()]
    tracer = Tracer()
    with tracer:
        attempts, wall = client.round(tracer)
    traced = [(attempts, wall, tracer.calls, tracer.counts)]
    assert cli.enumerate_centers is centers.enumerate_centers  # originals back

    all_attempts = [a for rounds in (untraced, traced)
                    for round_attempts, *_ in rounds for a in round_attempts]
    failed, reasons = client.failures(all_attempts, golden=None)
    assert failed == 0, reasons
    problems, _ = run.count_problems(client, traced, None, None)
    assert not problems

    values = run.per_layer(tracer, traced, untraced, client)
    assert values["cli.doc_s"] > 0
    layer_time = sum(values[f"{layer}.self_s"] for layer in run.LAYERS)
    assert layer_time == pytest.approx(values["cli.doc_s"])
    if workload == "verify-rk4":
        assert values["verify.field_evals"] > 0
    else:
        assert values["verify.field_evals"] == 0


@pytest.mark.parametrize("samples", [20, 30, 240])
def test_tail_leaves_ten_samples_beyond(samples):
    quantile = 1 - Fraction(10, samples)
    value, beyond = run.tail([float(x) for x in range(samples)], quantile)
    assert (value, beyond) == (samples - 11, 10)
