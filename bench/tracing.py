"""Traced condrift calls: spans around each module's public functions.

The wrappers replace the functions where each caller looks them up (the
names ``cli`` imports, and the ``conslaw``, ``measure`` and ``oracle``
attributes), so the program itself is not edited. Spans are kept in
memory as ``[name, start, end, parent, count, nbytes]`` and written out
when the run ends. This module is also the entry point of the traced
child process that run.py starts, so timing runs never have the wrappers
installed; the child inherits run.py's thread pinning and core.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

SPAN_FIELDS = ("name", "start", "end", "parent", "count", "nbytes")
# every traced call of the command runs under one span of this name
ROOT = "cli.main"
# fewest calls in each half of a traced run
MIN_CALLS = 3


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list = []
        self._open: list = []

    def wrap(self, name, fn, count=None):
        """``fn`` recorded as a span; ``count(record, args, kwargs)`` may
        fill the span's count and byte fields after it ends."""
        spans, stack = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, 0, 0]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
                if count is not None:
                    count(record, args, kwargs)
        return traced

    def install(self, owner, attr, name, count=None):
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), count))

    def count_snapshots(self, run_until):
        """run_until whose observer also counts snapshots on the open span."""
        def counted(*args, observer=None, **kwargs):
            if observer is not None:
                record = self.spans[self._open[-1]]
                inner = observer

                def observer(snap):
                    record[4] += 1
                    inner(snap)
            return run_until(*args, observer=observer, **kwargs)
        return counted

    def count_rows(self, write_csv):
        """write_csv that counts the rows it writes, and their bytes, on
        the open span."""
        def counted(path, header, rows):
            record = self.spans[self._open[-1]]

            def each():
                for row in rows:
                    record[4] += 1
                    yield row
            write_csv(path, header, each())
            record[5] = os.path.getsize(path)
        return counted


def _count_cells(record, args, kwargs):
    record[4] = args[0].grid.cell_count


def _count_points(record, args, kwargs):
    record[4] = len(args[0])


def install_all(tracer: Tracer):
    """Wrap every traced function of the package."""
    from condrift import cli, conslaw, measure, oracle

    cli.run_until = tracer.count_snapshots(cli.run_until)
    tracer.install(cli, "run_until", "conslaw.run")
    tracer.install(cli, "init_from_datum", "conslaw.init")
    cli.write_csv = tracer.count_rows(cli.write_csv)
    tracer.install(cli, "write_csv", "cli.csv")
    tracer.install(cli, "evaluate_smooth_grid", "characteristics.eval", _count_points)
    tracer.install(cli, "first_shock_time", "characteristics.horizon")
    tracer.install(cli, "blow_up_time", "characteristics.horizon")
    tracer.install(cli, "example_block_datum", "datum.build")
    tracer.install(cli.RunConfig, "build_datum", "datum.build")
    tracer.install(conslaw, "step", "conslaw.step", _count_cells)
    tracer.install(conslaw, "integrate_piecewise", "datum.integrate")
    tracer.install(measure, "integrate_piecewise", "datum.integrate")
    tracer.install(measure, "assemble", "measure.assemble")
    tracer.install(measure, "pseudo_inverse", "measure.pinv")
    tracer.install(measure, "check_entropy_measure", "measure.check")
    tracer.install(measure, "original_frame_series", "measure.frame")
    for fn in ("u_explicit", "mass_explicit", "X_explicit"):
        tracer.install(oracle, fn, "oracle")
    return cli


def _per_call(spans: list, lo: int, hi: int) -> dict:
    """Inclusive time, self time, calls, counts and bytes by span name
    for the call whose spans are spans[lo:hi] (spans[lo] is its root).

    Inclusive time skips spans nested in a span of the same name, so
    recursion through two wrapped names is not counted twice."""
    child_time = defaultdict(float)
    for i in range(lo + 1, hi):
        name, start, end, parent = spans[i][:4]
        child_time[parent] += end - start
    out = {k: defaultdict(float) for k in ("incl", "self", "calls", "count", "bytes")}
    for i in range(lo, hi):
        name, start, end, parent, count, nbytes = spans[i]
        dur = end - start
        out["self"][name] += dur - child_time[i]
        out["calls"][name] += 1
        out["count"][name] += count
        out["bytes"][name] += nbytes
        p = parent
        while p >= lo and spans[p][0] != name:
            p = spans[p][3]
        if p < lo:
            out["incl"][name] += dur
    return out


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics: median over traced calls for times, exact
    per-call values for counts (which must agree across calls)."""
    roots = [i for i, s in enumerate(spans) if s[3] == -1 and s[0] == ROOT]
    calls = [_per_call(spans, lo, hi)
             for lo, hi in zip(roots, roots[1:] + [len(spans)])]
    if not calls:
        raise ValueError("no traced calls")

    def median(kind, name):
        return statistics.median(c[kind][name] for c in calls)

    def exact(kind, name):
        values = {c[kind][name] for c in calls}
        if len(values) != 1:
            raise ValueError(f"{kind} of {name} differs across calls: {sorted(values)}")
        return int(values.pop())

    def per(total, n, scale):
        return total / n * scale if n else 0.0

    step_s = median("incl", "conslaw.step")
    steps = exact("calls", "conslaw.step")
    cell_steps = exact("count", "conslaw.step")
    eval_s = median("incl", "characteristics.eval")
    points = exact("count", "characteristics.eval")
    csv_s = median("self", "cli.csv")
    csv_rows = exact("count", "cli.csv")
    return {
        "datum.build_s": median("incl", "datum.build"),
        "datum.integrate_calls": exact("calls", "datum.integrate"),
        "datum.integrate_s": median("incl", "datum.integrate"),
        "conslaw.init_s": median("incl", "conslaw.init"),
        "conslaw.run_s": median("incl", "conslaw.run"),
        "conslaw.step_s": step_s,
        "conslaw.steps": steps,
        "conslaw.cell_steps": cell_steps,
        "conslaw.step_us": per(step_s, steps, 1e6),
        "conslaw.cell_step_ns": per(step_s, cell_steps, 1e9),
        "conslaw.snapshot_s": median("self", "conslaw.run"),
        "conslaw.snapshots": exact("count", "conslaw.run"),
        "measure.assemble_s": median("incl", "measure.assemble"),
        "measure.assemble_calls": exact("calls", "measure.assemble"),
        "measure.pinv_s": median("incl", "measure.pinv"),
        "measure.pinv_calls": exact("calls", "measure.pinv"),
        "measure.check_s": median("self", "measure.check"),
        "measure.frame_s": median("incl", "measure.frame"),
        "oracle.s": median("incl", "oracle"),
        "oracle.calls": exact("calls", "oracle"),
        "characteristics.horizon_s": median("incl", "characteristics.horizon"),
        "characteristics.eval_s": eval_s,
        "characteristics.points": points,
        "characteristics.point_us": per(eval_s, points, 1e6),
        "cli.csv_s": csv_s,
        "cli.csv_rows": csv_rows,
        "cli.csv_mb": exact("bytes", "cli.csv") / 1e6,
        "cli.csv_row_ns": per(csv_s, csv_rows, 1e9),
        "cli.self_s": median("self", ROOT),
    }


def call_seconds(spans: list) -> list:
    """Wall seconds of each traced call."""
    return [s[2] - s[1] for s in spans if s[3] == -1 and s[0] == ROOT]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="traced closed loop of condrift calls")
    parser.add_argument("--src", required=True)
    parser.add_argument("--command", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--output", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)

    argv_cli = [args.command, "--config", args.config, "--output", args.output, "--quiet"]
    tracer = Tracer()
    cli = install_all(tracer)
    traced_main = tracer.wrap(ROOT, cli.main)
    codes = []
    started = time.perf_counter()
    while (time.perf_counter() - started < args.seconds
           or len(codes) < MIN_CALLS):
        try:
            codes.append(traced_main(argv_cli))
        except (Exception, SystemExit) as exc:  # a failed call, counted by the caller
            codes.append(repr(exc))
    Path(args.spans).write_text(json.dumps(
        {"fields": SPAN_FIELDS, "spans": tracer.spans, "exit_codes": codes}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
