"""Correctness checks on the output directory of one condrift call.

A call passes when every number in its CSV and JSON files is finite, the
measure rows close their mass ledger, every non-INFO row of the verify
table reads PASS, and characteristics densities are nonnegative. The
accuracy readers below return the oracle errors the benchmark reports
next to its timings.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from pathlib import Path

import numpy as np

from condrift.characteristics import advance, evaluate_smooth_grid

MASS_CLOSURE_TOL = 1e-10
CSV_BATCH_LINES = 20000
SMOOTH_FEET = 200

REQUIRED_FILES = {
    "simulate": ("summary.json", "measures.csv", "pseudoinverse.csv",
                 "snapshots_left.csv", "snapshots_right.csv"),
    "verify": ("verify_report.txt",),
    "characteristics": ("characteristics.csv", "characteristics_report.json"),
}

# verify table row name -> accuracy metric parsed from its measured value
VERIFY_ROWS = {
    "L1 convergence order vs explicit u": "l1_order",
    "trace onset time vs 1/gamma": "onset",
    "condensed-mass law rel error": "mass_law_rel_err",
    "pseudo-inverse Linf vs explicit X": "x_linf_err",
}
VERIFY_METRICS = ("l1_order", "mass_law_rel_err", "x_linf_err", "onset_err")


def digests(out_dir: Path) -> dict:
    """SHA-256 of every output file, by file name."""
    out = {}
    for path in sorted(out_dir.iterdir()):
        with path.open("rb") as f:
            out[path.name] = hashlib.file_digest(f, "sha256").hexdigest()
    return out


def _csv_batches(path: Path):
    """(header, float array) batches of at most CSV_BATCH_LINES rows."""
    with path.open() as f:
        header = f.readline().rstrip("\n").split(",")
        while True:
            lines = list(itertools.islice(f, CSV_BATCH_LINES))
            if not lines:
                return
            tokens = "".join(lines).replace("\n", ",").rstrip(",").split(",")
            values = np.array(tokens, dtype=float)
            if values.size != len(lines) * len(header):
                raise ValueError(f"{path.name}: ragged rows")
            yield header, values.reshape(len(lines), len(header))


def _json_numbers(node):
    if isinstance(node, dict):
        for v in node.values():
            yield from _json_numbers(v)
    elif isinstance(node, list):
        for v in node:
            yield from _json_numbers(v)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield float(node)


def check_outputs(command: str, out_dir: Path) -> list:
    """Problems found in one call's outputs; an empty list means it passed."""
    problems = [f"missing {name}" for name in REQUIRED_FILES[command]
                if not (out_dir / name).is_file()]
    if problems:
        return problems
    total = None
    if command == "simulate":
        total = json.loads((out_dir / "summary.json").read_text())["total_mass"]
    for path in sorted(out_dir.glob("*.csv")):
        try:
            for header, rows in _csv_batches(path):
                problem = _row_problem(path.name, header, rows, total)
                if problem:
                    problems.append(f"{path.name}: {problem}")
                    break
        except ValueError as exc:
            problems.append(f"{path.name}: {exc}")
    for path in sorted(out_dir.glob("*.json")):
        try:
            numbers = list(_json_numbers(json.loads(path.read_text())))
        except ValueError as exc:
            problems.append(f"{path.name}: {exc}")
            continue
        if not all(math.isfinite(v) for v in numbers):
            problems.append(f"{path.name}: non-finite value")
    if command == "verify":
        problems += [f"verify: {name} reads {status}"
                     for name, status, _ in verify_rows(out_dir)
                     if status not in ("PASS", "INFO")]
    return problems


def _row_problem(name: str, header: list, rows: np.ndarray, total) -> str:
    if not np.all(np.isfinite(rows)):
        return "non-finite value"
    if name == "characteristics.csv" and np.any(rows[:, header.index("rho")] < 0):
        return "negative density"
    if name == "measures.csv":
        closure = np.abs(rows[:, header.index("dirac_mass")]
                         + rows[:, header.index("ac_mass")] - total)
        if float(closure.max()) > MASS_CLOSURE_TOL * max(total, 1.0):
            return f"mass closure {closure.max():.3e}"
    return ""


def verify_rows(out_dir: Path) -> list:
    """(check name, status, measured text) for each row of the verify table."""
    lines = (out_dir / "verify_report.txt").read_text().splitlines()
    col = lines[0].index("status")
    rows = []
    for line in lines[1:]:
        status, measured = (line[col:].split() + ["", ""])[:2]
        rows.append((line[:col].strip(), status, measured))
    return rows


def verify_accuracy(out_dir: Path, gamma: float) -> dict:
    """Oracle errors of the verify table, parsed from verify_report.txt."""
    found = {VERIFY_ROWS[name]: float(measured)
             for name, _, measured in verify_rows(out_dir) if name in VERIFY_ROWS}
    found["onset_err"] = abs(found.pop("onset") - 1.0 / gamma)
    return found


def smooth_error(datum, t: float, cfg) -> float:
    """Max relative error of evaluate_smooth_grid against closed-form
    characteristics, at the positions of SMOOTH_FEET feet at time t."""
    feet = np.linspace(datum.a, datum.b, SMOOTH_FEET + 2)[1:-1]
    states = [advance(float(x0), t, datum, cfg) for x0 in feet]
    positions = np.array([s.position for s in states])
    exact = np.array([s.value for s in states])
    values = evaluate_smooth_grid(positions, t, datum, cfg)
    return float(np.max(np.abs(values - exact) / exact))

