"""Verification reports: one entry per (suite, algebra) unit.

Every check function in the package folds its comparisons with `tally`
into a plain dict with the keys max_error, samples and failures; this
module turns those into report entries, dicts with a fixed key set, and
assembles full documents.  Randomness for a unit is derived by hashing
(seed, suite, qualifier), so units are reproducible independently of
execution order.
"""

from __future__ import annotations

import hashlib
import json
from datetime import datetime, timezone

import numpy as np

REPORT_VERSION = 1

# orientation and layout choices that reports are implicitly relative to
CONVENTIONS = {
    "bracket": "bracket(X, Y) = DY.X - DX.Y",
    "second_tangent_slots": "(base, u, v, w), u the outer tangent direction",
    "tensor_layout": "left factor major: basis index i*dimB + j",
    "point_layout": "coordinate major: coefficient a of coordinate i at i*dimA + a",
    "jet_composition": "jet_compose(a, b) means a then b",
    "functional_layout": "x block, y block, then one z block per multi-index in graded order",
}


def tally(deviations, tol: float, samples: int | None = None) -> dict:
    """Fold (tag, deviation) pairs into a check dict.

    A pair fails unless deviation <= tol, so a NaN deviation fails; its
    failure entry is the tag dict plus the deviation.  A deviation of None
    marks a categorical failure (an axiom or a membership test): it fails
    with the tag alone as its entry.  max_error is the largest deviation
    seen, which a NaN never raises; samples defaults to the number of
    pairs.
    """
    worst = 0.0
    failures = []
    count = 0
    for tag, dev in deviations:
        count += 1
        if dev is None:
            failures.append(tag)
            continue
        worst = max(worst, dev)
        if not dev <= tol:
            failures.append({**tag, "deviation": dev})
    return {"max_error": worst, "samples": count if samples is None else samples, "failures": failures}


def report_from_check(suite: str, algebra: str, result: dict) -> dict:
    """The report entry of a check dict, which carries max_error, samples
    and failures; a unit passes iff it recorded no failures."""
    failures = list(result["failures"])
    return {
        "suite": suite,
        "algebra": algebra,
        "samples": int(result["samples"]),
        "max_error": float(result["max_error"]),
        "status": "pass" if not failures else "fail",
        "failures": failures,
    }


def rng_for(seed: int, *qualifiers) -> np.random.Generator:
    """Deterministic generator for one verification unit.

    The unit identity (seed plus any number of string/int qualifiers) is
    hashed, so adding or reordering other units never shifts the stream.
    """
    key = "|".join([str(int(seed))] + [str(q) for q in qualifiers])
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 20, 4)]
    return np.random.default_rng(np.random.SeedSequence(words))


def assemble_document(entries, seed: int) -> dict:
    """The report document of a list of entries, in the order given."""
    status = "pass" if all(e["status"] == "pass" for e in entries) else "fail"
    return {
        "version": REPORT_VERSION,
        "seed": int(seed),
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "status": status,
        "conventions": dict(CONVENTIONS),
        "suites": entries,
    }


def document_dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def documents_equal(a: dict, b: dict) -> bool:
    """Equality up to the timestamp, the one intentionally varying field."""
    sa = {k: v for k, v in a.items() if k != "generated_at"}
    sb = {k: v for k, v in b.items() if k != "generated_at"}
    return json.dumps(sa, sort_keys=True) == json.dumps(sb, sort_keys=True)
