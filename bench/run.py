"""condrift benchmark: seeded workloads, closed-loop timing, traced layers.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

One caller drives ``condrift.cli.main`` from this tree's ``src/`` in this
process: one command at a time, each call starting after the previous one
ends, on one pinned core with BLAS threads pinned to 1. The first call
warms caches and is not timed; then calls repeat for S seconds and at
least MIN_CALLS times. Every call is checked (checks.py); a call fails if
it raises, exits nonzero, fails a check or writes bytes that differ from
the first call. ``--trace 1`` times half the budget untraced and runs the
other half in a traced child process (tracing.py).

The gated times are scaled to a reference host speed: a fixed probe
(hostspeed.py) is timed right before and right after each timed call and
each set-up, and the wall time is multiplied by the probe's nominal time
over its measured time. On a shared host this cancels most of the drift
that other tenants cause; the wall times are reported next to them.

Metric lines come first, every metric goes to
``.bench_results/<run>/result.json`` next to the generated ``config.json``,
and the last line of stdout is one JSON object with the metrics that
BENCHMARK.json declares for the trace mode. See README.md.
"""

import os

# Pin BLAS and OpenMP pools before anything imports numpy.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import Probe  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"

MIN_CALLS = 30          # puts the tail, ten calls from the top, at p67 or above
MAX_MEASURE_S = 120.0   # keeps a run under the 180 s limit if calls slow down
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 170
# evaluate_smooth_grid inverts the foot map to brentq's xtol of 1e-12
SMOOTH_ERR_TOL = 1e-9

SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
from condrift.cli import load_config
load_config(sys.argv[2]).build_datum()
"""


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import condrift from this tree's src/, never from site-packages."""
    if not (SRC / "condrift" / "cli.py").is_file():
        fail(f"no condrift sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import condrift
    if Path(condrift.__file__).resolve().parent != SRC / "condrift":
        fail(f"imported condrift from {condrift.__file__}, not from {SRC}")


def pin_core() -> None:
    """Pin this process (and its children) to one core."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def provenance() -> dict:
    import numpy
    import scipy
    source = hashlib.sha256()
    for path in sorted((SRC / "condrift").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "pinned_cores": sorted(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "source_sha256": source.hexdigest(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    """HEAD commit, or None outside a git checkout."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def tail(samples: list) -> tuple:
    """(value, percentile, beyond): the highest percentile of the samples
    with at least ten samples beyond it; the maximum if there are fewer
    than eleven samples."""
    ordered = sorted(samples)
    k = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - k - 1


def measure_setup(config_path: Path, repeats: int, probe) -> dict:
    """Seconds for a fresh interpreter to import condrift.cli and load and
    validate the config, once per repeat: wall and scaled to the reference
    host speed by the probe times around each repeat."""
    wall, scaled = [], []
    before = probe()
    for _ in range(repeats):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(config_path)],
                       check=True, capture_output=True, timeout=60)
        wall.append(time.perf_counter() - started)
        after = probe()
        scaled.append(probe.scale(wall[-1], before, after))
        before = after
    return {"wall_s": wall, "scaled_s": scaled}


class CallLog:
    """Attempted and failed calls of one run, with the reasons for failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def record(self, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problems)


def checked_outputs(command: str, out_dir: Path, cache: dict) -> tuple:
    """(digests, problems) of one call's outputs; checks run once per
    distinct set of output bytes."""
    import checks
    try:
        digest = checks.digests(out_dir)
        key = json.dumps(digest, sort_keys=True)
        if key not in cache:
            cache[key] = checks.check_outputs(command, out_dir)
        return digest, cache[key]
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return None, [f"check error: {exc!r}"]


def closed_loop(command: str, config_path: Path, out_dir: Path, seconds: float,
                min_calls: int, log: CallLog, probe: Probe) -> dict:
    """Untraced closed loop: one warm-up call, then timed calls, each also
    scaled to the reference host speed by the probe times right before and
    right after it."""
    from condrift import cli
    argv = [command, "--config", str(config_path), "--output", str(out_dir), "--quiet"]
    cache: dict = {}
    first = None
    times: list = []
    scaled: list = []
    before = None
    started = None
    while started is None or (
            time.perf_counter() - started < MAX_MEASURE_S
            and (time.perf_counter() - started < seconds or len(times) < min_calls)):
        shutil.rmtree(out_dir, ignore_errors=True)
        gc.collect()
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except (Exception, SystemExit) as exc:  # a failed call, counted below
            code = repr(exc)
        elapsed = time.perf_counter() - t0
        after = probe()
        problems = [] if code == 0 else [f"exit {code}"]
        if code == 0:
            digest, found = checked_outputs(command, out_dir, cache)
            problems += found
            if first is None:
                first = digest
            elif digest != first:
                problems.append("output bytes differ from the first call")
        log.record(problems)
        if started is None:
            started = time.perf_counter()
        else:
            times.append(elapsed)
            scaled.append(probe.scale(elapsed, before, after))
        before = after
    return {"call_s": times, "scaled_s": scaled, "digests": first}


def traced_run(command: str, config_path: Path, out_dir: Path, seconds: float,
               spans_path: Path, expected: dict, log: CallLog) -> list:
    """Traced closed loop in a child process; returns its spans. The last
    traced call fails unless its outputs pass the checks and match the
    untraced ``expected`` digests."""
    shutil.rmtree(out_dir, ignore_errors=True)
    subprocess.run(
        [sys.executable, str(BENCH / "tracing.py"), "--src", str(SRC),
         "--command", command, "--config", str(config_path), "--output", str(out_dir),
         "--seconds", str(seconds), "--spans", str(spans_path)],
        check=True, timeout=CHILD_TIMEOUT_S)
    traced = json.loads(spans_path.read_text())
    digest, last_problems = checked_outputs(command, out_dir, {})
    if digest != expected:
        last_problems.append("traced outputs differ from untraced outputs")
    codes = traced["exit_codes"]
    for i, code in enumerate(codes):
        problems = [] if code == 0 else [f"traced call exit {code}"]
        log.record(problems + (last_problems if i == len(codes) - 1 else []))
    return traced["spans"]


def accuracy(workload, config: dict, out_dir: Path) -> dict:
    """Oracle errors of the run's outputs, for the workloads that have them;
    NaN where the oracle comparison itself fails."""
    import checks
    from condrift.cli import RunConfig
    if workload.command == "verify":
        try:
            return checks.verify_accuracy(out_dir, config["gamma"])
        except (OSError, ValueError, KeyError):
            return dict.fromkeys(checks.VERIFY_METRICS, math.nan)
    if workload.command == "characteristics":
        run_config = RunConfig.from_dict(config)
        try:
            err = checks.smooth_error(run_config.build_datum(), run_config.t_end,
                                      run_config.gamma_config())
        except (RuntimeError, ValueError):  # past the smooth horizon
            err = math.nan
        return {"smooth_err": err}
    return {}


def run_workload(workload, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> dict:
    """One benchmark run; returns its result record."""
    import tracing

    run_dir = RESULTS / f"{workload.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    out_dir = run_dir / "out"
    run_dir.mkdir(parents=True)
    config = workload.config(seed, tiny)
    config["output_dir"] = str(out_dir.relative_to(ROOT))
    config_path = run_dir / "config.json"
    config_path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")

    log = CallLog()
    metrics: dict = {}
    result = {"workload": workload.name, "command": workload.command, "seed": seed,
              "seconds": seconds, "trace": trace,
              "config": str(config_path.relative_to(ROOT)),
              "reproduce": f"condrift {workload.command} --config "
                           f"{config_path.relative_to(ROOT)}",
              "provenance": provenance()}
    probe = Probe()
    if not trace:
        setup = measure_setup(config_path, 1 if tiny else SETUP_REPEATS, probe)
        loop = closed_loop(workload.command, config_path, out_dir, seconds,
                           MIN_CALLS, log, probe)
        value, pct, beyond = tail(loop["scaled_s"])
        metrics.update({
            "run_s_p50": statistics.median(loop["scaled_s"]),
            "run_s_tail": value,
            "setup_s": statistics.median(setup["scaled_s"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "wall_run_s_p50": statistics.median(loop["call_s"]),
            "wall_setup_s": statistics.median(setup["wall_s"]),
        })
        result.update(setup=setup, call_s=loop["call_s"], scaled_s=loop["scaled_s"],
                      digests=loop["digests"],
                      tail={"percentile": pct, "samples": len(loop["scaled_s"]),
                            "beyond": beyond})
    else:
        loop = closed_loop(workload.command, config_path, out_dir, seconds / 2,
                           tracing.MIN_CALLS, log, probe)
        traced_out = run_dir / "traced_out"
        spans_path = run_dir / "spans.json"
        spans = traced_run(workload.command, config_path, traced_out, seconds / 2,
                           spans_path, loop["digests"], log)
        try:
            metrics.update(tracing.layer_metrics(spans))
        except ValueError as exc:  # the metrics stay missing, so the run is incorrect
            log.problems.append([f"trace: {exc}"])
        traced_s = tracing.call_seconds(spans)
        metrics["trace.overhead_frac"] = (statistics.median(traced_s)
                                          / statistics.median(loop["call_s"]) - 1.0)
        result.update(call_s=loop["call_s"], traced_call_s=traced_s,
                      digests=loop["digests"],
                      spans=str(spans_path.relative_to(ROOT)))
    metrics.update(accuracy(workload, config, out_dir))
    metrics["error_rate"] = log.failed / max(log.attempted, 1)
    result.update(attempted=log.attempted, failed=log.failed, problems=log.problems,
                  metrics=metrics)
    (run_dir / "result.json").write_text(json.dumps(result, indent=2) + "\n")
    if not log.failed:  # keep the bulky outputs only to debug a failure
        shutil.rmtree(out_dir, ignore_errors=True)
        shutil.rmtree(run_dir / "traced_out", ignore_errors=True)
    return result


def declared_metrics() -> dict:
    """name -> unit for the end-to-end and per-layer metrics of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {key: {m["name"]: m["unit"] for m in spec[key]}
            for key in ("end_to_end", "per_layer")}


# Units of the reported metrics that BENCHMARK.json does not gate.
EXTRA_UNITS = {"wall_run_s_p50": "s", "wall_setup_s": "s", "error_rate": "ratio", "l1_order": "1", "mass_law_rel_err": "ratio",
               "x_linf_err": "1", "onset_err": "1", "smooth_err": "ratio"}


def report(result: dict, units: dict) -> None:
    """Human-readable metric lines for one run."""
    print(f"# {result['workload']} seed={result['seed']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for name, value in result["metrics"].items():
        note = ""
        if name == "run_s_tail":
            t = result["tail"]
            note = f"  (p{t['percentile']:.0f} of {t['samples']} calls, {t['beyond']} beyond)"
        print(f"{result['workload']:<24} {name:<28} {value:<14.6g} "
              f"{units.get(name, EXTRA_UNITS.get(name, ''))}{note}")
    for problems in result["problems"]:
        print(f"{result['workload']:<24} FAILED: {'; '.join(problems)}")


def run_child(name: str, args) -> dict:
    """One workload in a fresh process, so that its peak memory is its own."""
    subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace)],
                   check=True)
    run_dir = RESULTS / f"{name}-seed{args.seed}-trace{args.trace}"
    return json.loads((run_dir / "result.json").read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    from workloads import WORKLOADS
    if args.workload != "all" and args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)} or 'all'")
    declared = declared_metrics()
    gated = declared["per_layer" if args.trace else "end_to_end"]
    pin_core()

    if args.workload == "all":
        results = [run_child(name, args) for name in WORKLOADS]
    else:
        results = [run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                                bool(args.trace))]
        report(results[0], {**declared["end_to_end"], **declared["per_layer"]})
    correct = True
    metrics = {}
    for result in results:
        missing = set(gated) - set(result["metrics"])
        if missing:
            print(f"{result['workload']}: missing metrics {sorted(missing)}")
        prefix = "" if len(results) == 1 else result["workload"] + "."
        metrics.update({prefix + name: {"value": result["metrics"][name], "unit": unit}
                        for name, unit in gated.items() if name in result["metrics"]})
        smooth_err = result["metrics"].get("smooth_err", 0.0)
        correct = (correct and not missing and result["failed"] == 0
                   and smooth_err <= SMOOTH_ERR_TOL)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
