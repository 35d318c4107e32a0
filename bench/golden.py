#!/usr/bin/env python3
"""Regenerate ``golden.json`` for the default seed: the exit code and output
digest of every document of every workload, and the exact sizes read from
the outputs of one round.

    python3 bench/golden.py

The table pins outputs bit for bit, so regenerate it only with a change that
is meant to alter them, and say so in that change.
"""

from __future__ import annotations

import json
import sys

import run


def main():
    sys.path[:0] = run.SEARCH_PATH
    import checks
    import corpus

    table = {"seed": checks.DEFAULT_SEED, "workloads": {}}
    for workload in run.WORKLOADS:
        client = run.Client(corpus.build(workload, checks.DEFAULT_SEED))
        client.round()
        documents = {}
        for doc in client.docs:
            code, stdout, stderr, error = client.first[doc.doc_id]
            problems = [error] if error else checks.check_document(
                doc, code, stdout, stderr)
            if problems:
                sys.exit(f"{doc.doc_id} fails its checks: {problems}")
            documents[doc.doc_id] = {"exit": code, "sha256": checks.digest(doc, stdout)}
        table["workloads"][workload] = {
            "documents": documents,
            "output_counts": client.output_counts[0],
        }
    with open(checks.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
