"""How far the numbers in two condrift output directories are apart.

    python3 tools/output_diff.py DIR_A DIR_B

For each file under either directory, matched by path relative to it, it
prints whether the structure is equal and how far the values moved:

- a CSV file's structure is its header, its row count and its coordinate
  columns (``t``, ``tau``, ``xi_center``, ``z`` and ``x``), compared bit
  for bit; a JSON file's is its keys and its values that are not numbers;
  a text file's is its words that are not numbers;
- the values are every number of a file whose shape matches: the largest
  difference in ulps (the count of doubles between the two values, so
  that +0.0 and -0.0 are 0 apart), as a relative value (over the larger
  magnitude of the pair), and as an absolute value, each with the column
  or key where it is largest.

A file in only one directory is reported as such.  The exit code is 0
when every file is in both directories with an equal structure, 1
otherwise; moved values alone do not fail it.  Two runs of one build
differ by nothing; the tool states how far a change or a second SIMD
dispatch (``NPY_DISABLE_CPU_FEATURES``) moved them.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np

COORDINATES = ("t", "tau", "xi_center", "z", "x")
NUMBER = re.compile(r"^[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$|^[-+]?(inf|nan)$")


def ulps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The count of doubles between a and b, elementwise, as floats; NaN
    against NaN is 0 and NaN against a number inf."""
    ordered = []
    for v in (a, b):
        bits = np.ascontiguousarray(v, dtype=np.float64).view(np.int64)
        ordered.append(np.where(bits < 0, -(bits & np.int64(0x7FFFFFFFFFFFFFFF)), bits))
    hi, lo = np.maximum(*ordered), np.minimum(*ordered)
    # the true difference is below 2**64, so the wrapped unsigned one is exact
    count = (hi.view(np.uint64) - lo.view(np.uint64)).astype(np.float64)
    nan_a, nan_b = np.isnan(a), np.isnan(b)
    return np.where(nan_a | nan_b, np.where(nan_a & nan_b, 0.0, np.inf), count)


def read_csv(path: Path) -> tuple:
    """(header, one float array per column)."""
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    table = np.array([line.split(",") for line in lines[1:]], dtype=float)
    return header, list(table.reshape(-1, len(header)).T)


def flatten(value, key="") -> tuple:
    """(numeric leaves, other leaves) of a JSON value, by key path."""
    if isinstance(value, dict):
        items = [(f"{key}.{k}" if key else k, v) for k, v in value.items()]
    elif isinstance(value, list):
        items = [(f"{key}[{i}]", v) for i, v in enumerate(value)]
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        return {key: float(value)}, {}
    else:
        return {}, {key: value}
    numbers, others = {}, {}
    for k, v in items:
        n, o = flatten(v, k)
        numbers.update(n)
        others.update(o)
    return numbers, others


def columns_of(path: Path) -> tuple:
    """(structure, numbers by name) of one file; the structure compares
    equal between two files exactly when theirs is equal."""
    if path.suffix == ".csv":
        header, columns = read_csv(path)
        coordinates = [c.tobytes() for name, c in zip(header, columns)
                       if name in COORDINATES]
        return (header, len(columns[0]), coordinates), dict(zip(header, columns))
    if path.suffix == ".json":
        numbers, others = flatten(json.loads(path.read_text()))
        return (sorted(numbers), others), {k: np.array([v]) for k, v in numbers.items()}
    words = path.read_text().split()
    numbers = [float(w) for w in words if NUMBER.match(w)]
    return [w for w in words if not NUMBER.match(w)], {"numbers": np.array(numbers)}


def compare(a: Path, b: Path) -> tuple:
    """(structure equal, the report line of one file pair)."""
    if a.read_bytes() == b.read_bytes():
        return True, "identical bytes"
    (shape_a, values_a), (shape_b, values_b) = columns_of(a), columns_of(b)
    same = shape_a == shape_b
    head = "structure equal" if same else "STRUCTURE DIFFERS"
    if a.suffix == ".csv" and not same:
        (header_a, rows_a, _), (header_b, rows_b, _) = shape_a, shape_b
        head += (f" (header {'equal' if header_a == header_b else 'differs'}, rows "
                 f"{rows_a} and {rows_b}, coordinate columns differ)")
    paired = [k for k in values_a
              if k in values_b and values_a[k].shape == values_b[k].shape]
    if not paired:
        return same, head + "; no values to compare"
    worst = {}
    for k in paired:
        x, y = values_a[k], values_b[k]
        scale = np.maximum(np.abs(x), np.abs(y))
        gap = np.abs(x - y)
        with np.errstate(invalid="ignore", divide="ignore"):
            rel = np.where(gap == 0, 0.0, gap / scale)
        for name, v in (("ulp", ulps(x, y)), ("relative", rel), ("absolute", gap)):
            v = np.nan_to_num(v, nan=np.inf)
            if v.size and (name not in worst or v.max() > worst[name][0]):
                worst[name] = (float(v.max()), k)
    return same, head + "; largest difference " + ", ".join(
        f"{value:.3g} {name} ({key})" for name, (value, key) in worst.items())


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    roots = [Path(a) for a in argv]
    paths = sorted({p.relative_to(r) for r in roots for p in r.rglob("*") if p.is_file()})
    equal = True
    for rel in paths:
        a, b = (r / rel for r in roots)
        if not (a.is_file() and b.is_file()):
            equal = False
            print(f"{rel}: only in {a.parent if a.is_file() else b.parent}")
            continue
        same, line = compare(a, b)
        equal &= same
        print(f"{rel}: {line}")
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main())
