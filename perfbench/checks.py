"""Correctness checks on one CLI command's exit code and JSON output.

A command fails when its exit code differs from the one documented for its
case or when its output is malformed or wrong. A simulate run that lands
outside 3 sigma (exit 1) is recorded as a miss, not as a failure: a correct
change to the sampler legitimately moves which seeds miss.
"""

from __future__ import annotations

import json

OK, FAIL, MISS_3SIGMA = "ok", "fail", "miss_3sigma"
SIGMA_SLACK = 1e-12          # the CLI's own slack for the degenerate stderr = 0 case


def check(cmd, returncode: int, output: bytes, povm_from_dict) -> tuple[str, str]:
    """Return (outcome, reason) for one finished command.

    `povm_from_dict` is `entverify.jsonio.povm_from_dict`; it rebuilds a
    POVM and so re-checks completeness.
    """
    try:
        doc = json.loads(output)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return FAIL, f"exit {returncode}, malformed JSON: {exc}"
    if not isinstance(doc, dict):
        return FAIL, "JSON output is not an object"
    try:
        if cmd.kind == "simulate":
            return _check_simulate(cmd, returncode, doc)
        if returncode != 0:
            return FAIL, f"exit {returncode}, expected 0"
        if cmd.kind == "verify":
            return (OK, "") if doc["overall"] is True else (FAIL, "overall is not true")
        if cmd.kind == "gen":
            povm = povm_from_dict(doc)
            if povm.dim != (cmd.d ** 2 if cmd.scheme == "clifford" else cmd.d):
                return FAIL, f"POVM dimension {povm.dim} does not match d={cmd.d}"
            return OK, ""
        if cmd.kind == "count":
            ok = doc["enumerated"] == doc["formula_value"]
            return (OK, "") if ok else (FAIL, "enumerated != formula_value")
    except (KeyError, TypeError, ValueError) as exc:
        return FAIL, f"bad output: {type(exc).__name__}: {exc}"
    return FAIL, f"unknown command kind {cmd.kind!r}"


def _check_simulate(cmd, returncode: int, doc: dict) -> tuple[str, str]:
    hist = doc["outcome_histogram"]
    if doc["shots"] != cmd.shots or sum(hist) != cmd.shots:
        return FAIL, f"histogram sums to {sum(hist)}, expected {cmd.shots} shots"
    dev = abs(doc["estimate"] - doc["analytic"])
    if dev > 5 * doc["stderr"] + SIGMA_SLACK:
        return FAIL, f"|estimate - analytic| = {dev:.3e} exceeds 5 stderr"
    miss = dev > 3 * doc["stderr"] + SIGMA_SLACK
    expected = 1 if miss else 0
    if returncode != expected:
        return FAIL, f"exit {returncode}, expected {expected}"
    return (MISS_3SIGMA, "outside 3 sigma") if miss else (OK, "")
