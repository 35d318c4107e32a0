#!/usr/bin/env python3
"""The bbcenter benchmark: one closed-loop client feeding seeded documents
through ``bbcenter.cli.main``.

    python3 bench/run.py --workload dense-series --seed 1 --seconds 35 --trace 0

A run repeats whole rounds (one pass over the workload's corpus) until the
next round would end after ``--seconds``, and always completes the
workload's minimum number of rounds.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` alternates an untraced and a traced round and prints
the per-layer metrics.  Every output is checked after the timed rounds; the
last line of standard output is the JSON result.  ``--workload all`` runs
each workload in its own process and prints one table.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from pathlib import Path
from time import perf_counter

from corpus import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
OUT_DIR = BENCH_DIR / "out"
SEARCH_PATH = [str(SRC), str(TESTS), str(BENCH_DIR)]
SPEC_PATH = ROOT / "BENCHMARK.json"

# Rounds every untraced run completes.  The tail percentile is fixed from
# them (ten samples beyond it at this count), so it does not move when a
# faster program fits more rounds into the same seconds.
MIN_ROUNDS = {"dense-series": 2, "resonant-mix": 1, "verify-rk4": 3}

# Fresh interpreters timed before and after the timed rounds, so that the
# median of all of them spans the whole run.
SETUP_BEFORE, SETUP_AFTER = 8, 7

# CPU time of the whole process (numpy's BLAS threads included): it does not
# count the time the interpreter waits for a CPU or for the disk.
SETUP_CODE = """\
import sys, time
start = time.process_time()
sys.path[:0] = {path!r}
import bbcenter, corpus
corpus.build({workload!r}, {seed!r})
print(time.process_time() - start)
"""

LAYERS = ("cli", "documents", "spectra", "centers", "briot_bouquet", "series",
          "verify")
PARSE_SPANS = ("documents.load", "documents.parse_system",
               "documents.parse_bb_document")
RENDER_SPANS = ("documents.report_document", "documents.bb_report_document",
                "documents.emit_report")


@dataclass
class Attempt:
    """One document run once: what the client saw and how long it took."""

    doc_id: str
    code: int | None
    digest: str
    seconds: float
    error: str | None


def run_document(cli, doc, tracer=None):
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(doc.text)
    code = error = None
    try:
        with redirect_stdout(out), redirect_stderr(err):
            start = perf_counter()
            try:
                if tracer is None:
                    code = cli.main(doc.argv)
                else:
                    code = tracer.call("cli.main", cli.main, doc.argv)
            except (Exception, SystemExit) as exc:  # a crash fails the document
                error = f"{type(exc).__name__}: {exc}"
            seconds = perf_counter() - start
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue(), err.getvalue(), seconds, error


class Client:
    """Runs rounds, keeps the first round's outputs for the checks and a
    digest of every later one."""

    def __init__(self, docs):
        from bbcenter import cli

        import checks

        self.cli = cli
        self.checks = checks
        self.docs = docs
        self.first = {}  # doc id -> (code, stdout, stderr, error)
        self.output_counts = []  # per round: exact sizes read from outputs
        self.bytes_out = []

    def round(self, tracer=None):
        """One pass over the corpus; returns (attempts, wall seconds)."""
        raw = []
        start = perf_counter()
        for doc in self.docs:
            if tracer is not None:
                tracer.doc_id = doc.doc_id
            raw.append(run_document(self.cli, doc, tracer))
        wall = perf_counter() - start
        attempts = []
        terms = bits = size = 0
        for doc, (code, stdout, stderr, seconds, error) in zip(self.docs, raw):
            self.first.setdefault(doc.doc_id, (code, stdout, stderr, error))
            try:
                digest = self.checks.digest(doc, stdout)
                doc_terms, doc_bits = self.checks.output_counts(stdout)
            except (ValueError, KeyError) as exc:
                digest, doc_terms, doc_bits = "", 0, 0
                error = error or f"unreadable output: {exc}"
            terms += doc_terms
            bits = max(bits, doc_bits)
            size += len(stdout.encode())
            attempts.append(Attempt(doc.doc_id, code, digest, seconds, error))
        self.output_counts.append({"series.graph_terms": terms,
                                   "series.max_coeff_bits": bits})
        self.bytes_out.append(size)
        return attempts, wall

    def failures(self, attempts, golden):
        """Failed attempts, with the reason for each failing document."""
        reasons = {}
        for doc in self.docs:
            code, stdout, stderr, error = self.first[doc.doc_id]
            if error:
                reasons[doc.doc_id] = [error]
                continue
            problems = self.checks.check_document(doc, code, stdout, stderr)
            if golden is not None and not problems:
                want = golden["documents"].get(doc.doc_id)
                if want != {"exit": code, "sha256": self.checks.digest(doc, stdout)}:
                    problems.append("differs from the golden table")
            if problems:
                reasons[doc.doc_id] = problems
        first_digest = {}
        failed = 0
        for a in attempts:
            reference = first_digest.setdefault(a.doc_id, (a.code, a.digest))
            if a.error or a.doc_id in reasons or (a.code, a.digest) != reference:
                failed += 1
                reasons.setdefault(a.doc_id, [a.error or "output changed between rounds"])
        return failed, reasons


def measure_setup(workload, seed, repeats):
    """CPU seconds of ``repeats`` fresh interpreters, each importing bbcenter
    (with numpy) and generating the corpus."""
    code = SETUP_CODE.format(path=SEARCH_PATH, workload=workload, seed=seed)
    samples = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        samples.append(float(done.stdout))
    return samples


def tail(latencies, quantile):
    """Nearest-rank value at ``quantile`` and the samples beyond it.  The
    quantile is a ``Fraction``, so that the rank is exact."""
    ordered = sorted(latencies)
    index = max(0, ceil(quantile * len(ordered)) - 1)
    return ordered[index], len(ordered) - index - 1


def timed_rounds(client, seconds, min_rounds, tracer=None):
    """Whole rounds until the next would end after ``seconds``.  With a
    tracer each untraced round is followed by the same round traced; the
    traced rounds carry that round's span calls and result counts."""
    untraced, traced = [], []
    start = perf_counter()
    while True:
        untraced.append(client.round())
        if tracer is not None:
            tracer.new_round()
            with tracer:
                attempts, wall = client.round(tracer)
            traced.append((attempts, wall, tracer.calls, tracer.counts))
        elapsed = perf_counter() - start
        if (len(untraced) >= min_rounds
                and elapsed * (len(untraced) + 1) / len(untraced) > seconds):
            return untraced, traced


def end_to_end(workload, rounds, n_docs, setup_s):
    latencies = [a.seconds for attempts, _ in rounds for a in attempts]
    quantile = 1 - Fraction(10, n_docs * MIN_ROUNDS[workload])
    tail_s, beyond = tail(latencies, quantile)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": setup_s,
        "docs_per_s": len(latencies) / sum(wall for _, wall in rounds),
        "doc_p50_s": statistics.median(latencies),
        "doc_tail_s": tail_s,
        "peak_rss_mb": rss_kb / 1024,
    }
    note = {"tail_percentile": round(float(100 * quantile), 2),
            "samples": len(latencies),
            "samples_beyond_tail": beyond}
    return values, note


def round_counts(calls, counts):
    """The exact per-round counts of one traced round."""
    return {
        "series.mul_calls": calls["series.mul"],
        "centers.charts": counts["centers.charts"],
        "centers.charts_excluded": counts["centers.charts_excluded"],
        "briot_bouquet.cascade_steps": calls["briot_bouquet.reduction_step"],
        **{f"briot_bouquet.verdicts.{v}": counts[f"briot_bouquet.verdicts.{v}"]
           for v in ("none", "unique", "family")},
        "spectra.calls": sum(c for name, c in calls.items()
                             if name.startswith("spectra.")),
        "verify.field_evals": counts["verify.field_evals"],
    }


def per_layer(tracer, traced, untraced, client):
    """Per-layer metrics from the traced rounds.  Times are seconds per
    document: ``_s`` names cover whole spans, ``self_s`` and the two named
    self times exclude child spans.  Counts are per round."""
    n_docs = len(traced) * len(client.docs)
    total, own = defaultdict(float), defaultdict(float)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, duration, self_time in tracer.self_times():
        total[name] += duration
        own[name] += self_time
        layer_self[name.split(".")[0]] += self_time
    counts = round_counts(*traced[0][2:])
    rk4_per_round = total["verify.rk4"] / len(traced)
    field_evals = counts["verify.field_evals"]
    return {
        "cli.doc_s": total["cli.main"] / n_docs,
        **{f"{layer}.self_s": t / n_docs for layer, t in layer_self.items()},
        "series.mul_s": total["series.mul"] / n_docs,
        "series.add_s": total["series.add"] / n_docs,
        "series.reciprocal_s": total["series.reciprocal"] / n_docs,
        "series.substitute_s": total["series.substitute"] / n_docs,
        "series.shear_substitute_s": total["series.shear_substitute"] / n_docs,
        **client.output_counts[0],
        **counts,
        "centers.chart_reduce_s": own["centers.chart_reduce"] / n_docs,
        "briot_bouquet.classify_s": own["briot_bouquet.classify"] / n_docs,
        "briot_bouquet.nonresonant_s": total["briot_bouquet.nonresonant"] / n_docs,
        "spectra.classify_spectrum_s": total["spectra.classify_spectrum"] / n_docs,
        "spectra.normal_form_check_s": total["spectra.normal_form_check"] / n_docs,
        "documents.parse_s": sum(own[n] for n in PARSE_SPANS) / n_docs,
        "documents.render_s": sum(own[n] for n in RENDER_SPANS) / n_docs,
        "documents.bytes_out": client.bytes_out[0],
        "verify.rk4_s": total["verify.rk4"] / n_docs,
        "verify.us_per_field_eval":
            1e6 * rk4_per_round / field_evals if field_evals else 0.0,
        "verify.residual_s": total["verify.residual"] / n_docs,
        "trace.overhead_ratio": sum(wall for _, wall, *_ in traced)
            / sum(wall for _, wall in untraced[:len(traced)]),
    }


def count_problems(client, traced, golden, previous):
    """Exact counts must repeat in every round of the run, in the last run
    of the same workload, seed and source, and, for the counts read from
    outputs on the default seed, in the golden table."""
    problems = []
    if any(c != client.output_counts[0] for c in client.output_counts):
        problems.append("output counts differ between rounds")
    per_round = [round_counts(calls, counts) for _, _, calls, counts in traced]
    if any(c != per_round[0] for c in per_round):
        problems.append("traced counts differ between rounds")
    seen = {**client.output_counts[0], **(per_round[0] if per_round else {})}
    for source, want_counts in (("golden table", golden and golden["output_counts"]),
                                ("previous run", previous)):
        for name, want in (want_counts or {}).items():
            if name in seen and seen[name] != want:
                problems.append(f"{name} is {seen[name]}, {source} has {want}")
    return problems, seen


def previous_counts(path, seed, source_digest):
    """Exact counts of the last run written to ``path``, if it ran the same
    seed on the same source."""
    try:
        with open(path, encoding="utf-8") as fh:
            last = json.load(fh)
    except (OSError, ValueError):
        return None
    if last.get("seed") != seed or last.get("src_sha256") != source_digest:
        return None
    return last.get("exact_counts")


def source_digest_and_lines():
    """The sha256 of the package source and its line count."""
    digest = hashlib.sha256()
    lines = 0
    for path in sorted((SRC / "bbcenter").glob("*.py")):
        data = path.read_bytes()
        digest.update(data)
        lines += len(data.splitlines())
    return digest.hexdigest(), lines


def machine_info():
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh
                      if line.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    import numpy

    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__}


def run_workload(workload, seed, seconds, trace):
    sys.path[:0] = SEARCH_PATH
    import checks
    import corpus
    from tracing import Tracer

    setup = [] if trace else measure_setup(workload, seed, SETUP_BEFORE)
    client = Client(corpus.build(workload, seed))
    tracer = Tracer() if trace else None
    min_rounds = 1 if trace else MIN_ROUNDS[workload]
    untraced, traced = timed_rounds(client, seconds, min_rounds, tracer)
    if not trace:
        setup += measure_setup(workload, seed, SETUP_AFTER)

    attempts = [a for rounds in (untraced, traced)
                for round_attempts, *_ in rounds for a in round_attempts]
    golden = checks.load_golden(workload, seed)
    failed, reasons = client.failures(attempts, golden)
    result_path = OUT_DIR / f"result-{workload}-seed{seed}-trace{trace}.json"
    digest, src_lines = source_digest_and_lines()
    mismatched, exact = count_problems(client, traced, golden,
                                       previous_counts(result_path, seed, digest))

    info = {**machine_info(), "src_lines": src_lines}
    summary = {"workload": workload, "seed": seed, "trace": trace,
               "rounds": len(untraced), "documents_per_round": len(client.docs),
               "attempted": len(attempts), "failed": failed,
               "fail_ratio": failed / len(attempts), "machine": info,
               "src_sha256": digest, "exact_counts": exact,
               "failures": reasons, "count_problems": mismatched}
    OUT_DIR.mkdir(exist_ok=True)
    if trace:
        values = per_layer(tracer, traced, untraced, client)
        tracer.write(OUT_DIR / f"spans-{workload}-seed{seed}.jsonl")
    else:
        values, note = end_to_end(workload, untraced, len(client.docs),
                                  statistics.median(setup))
        summary.update(note, setup_samples_s=setup)
    units = declared_units("per_layer" if trace else "end_to_end")
    if set(values) != set(units):
        raise SystemExit("metrics differ from BENCHMARK.json: "
                         f"{sorted(set(values) ^ set(units))}")
    summary["metrics"] = values
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)

    traced_note = f" + {len(traced)} traced" if trace else ""
    print(f"workload {workload}  seed {seed}  rounds {len(untraced)}{traced_note}"
          f"  documents/round {len(client.docs)}  (closed loop, one client)")
    print("machine " + "  ".join(f"{k}={v}" for k, v in info.items()))
    for name, value in values.items():
        print(f"  {name:32s} {value:.6g} {units[name]}")
    print(f"  {'fail_ratio':32s} {failed / len(attempts):.6g} ratio"
          f"  ({failed} of {len(attempts)} attempted)")
    if not trace:
        print(f"  doc_tail_s is p{note['tail_percentile']} of {note['samples']}"
              f" samples, {note['samples_beyond_tail']} beyond it")
    for doc_id, problems in sorted(reasons.items()):
        print(f"  FAILED {doc_id}: {'; '.join(problems)}")
    for problem in mismatched:
        print(f"  COUNT CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": failed == 0 and not mismatched, "attempted": len(attempts),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()}}))


def spec():
    """``BENCHMARK.json``: the run length and every metric with its unit."""
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def declared_units(kind):
    """Unit of every ``kind`` metric (``end_to_end`` or ``per_layer``)."""
    return {m["name"]: m["unit"] for m in spec()[kind]}


def run_all(seed, seconds, trace):
    """Each workload in its own process (so peak memory is its own), then
    one table of every metric."""
    table = []
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        print(done.stdout, end="")
        print(done.stderr, end="", file=sys.stderr)
        if done.returncode != 0:
            return done.returncode
        result = json.loads(done.stdout.splitlines()[-1])
        fail_ratio = result["failed"] / result["attempted"]
        table.append((workload, "fail_ratio", fail_ratio, "ratio"))
        table.extend((workload, name, m["value"], m["unit"])
                     for name, m in result["metrics"].items())
    print()
    for workload, name, value, unit in table:
        print(f"{workload:14s} {name:32s} {value:.6g} {unit}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in (SRC / "bbcenter" / "cli.py", TESTS / "bb_oracle.py")
               if not p.is_file()]
    if missing:
        print("error: run from a bbcenter checkout; missing "
              + ", ".join(str(p.relative_to(ROOT)) for p in missing), file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    run_workload(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
