"""Self-test of the benchmark harness, at tiny sizes.

    python3 bench/selftest.py

Runs every workload once untraced and twice traced (N=64, three
snapshots or output times) and checks that every metric the benchmark
reports is emitted with a unit, that the per-layer counts repeat exactly
for one seed, and that failing calls are counted in ``error_rate`` rather
than aborting the run. Exits 0 when all of that holds.
"""

import sys

import run  # pins the thread pools before numpy is imported

SEED = 7
SECONDS = 0.2


def _past_horizon(seed: int, tiny: bool) -> dict:
    """A smooth-characteristics config whose t_end is past blow-up, so the
    command exits 3 on every call."""
    from workloads import WORKLOADS
    config = WORKLOADS["smooth-characteristics"].config(seed, tiny)
    config["t_end"] *= 2.0
    return config


def main() -> int:
    run.import_package()
    import checks
    from workloads import WORKLOADS, Workload
    accuracy = {"block-verify": checks.VERIFY_METRICS,
                "smooth-characteristics": ("smooth_err",)}
    declared = run.declared_metrics()
    units = {**declared["end_to_end"], **declared["per_layer"], **run.EXTRA_UNITS}
    errors = []

    def expect(ok: bool, message: str) -> None:
        if not ok:
            errors.append(message)

    for name, workload in WORKLOADS.items():
        untraced = run.run_workload(workload, SEED, SECONDS, trace=False, tiny=True)
        traced = [run.run_workload(workload, SEED, SECONDS, trace=True, tiny=True)
                  for _ in range(2)]
        for result in [untraced] + traced:
            expect(result["failed"] == 0, f"{name}: failed calls {result['problems']}")
            expect(all(units.get(m) for m in result["metrics"]),
                   f"{name}: metric without a unit")
        wanted = (set(declared["end_to_end"]) | {"error_rate"}
                  | set(accuracy.get(name, ())))
        expect(wanted <= set(untraced["metrics"]),
               f"{name}: untraced run lacks {sorted(wanted - set(untraced['metrics']))}")
        for result in traced:
            missing = set(declared["per_layer"]) - set(result["metrics"])
            expect(not missing, f"{name}: traced run lacks {sorted(missing)}")
        counts = [{m: r["metrics"].get(m) for m, u in declared["per_layer"].items()
                   if u == "count"} for r in traced]
        expect(counts[0] == counts[1], f"{name}: counts differ between traced runs")
        print(f"{name}: ok" if not errors else f"{name}: {errors}")

    failing = Workload("past-horizon", "characteristics", _past_horizon)
    result = run.run_workload(failing, SEED, SECONDS, trace=False, tiny=True)
    expect(result["attempted"] > 1 and result["failed"] == result["attempted"],
           f"failing calls not all counted: {result['attempted']}, {result['failed']}")
    expect(result["metrics"]["error_rate"] == 1.0, "error_rate of failing calls is not 1")
    print(f"failing calls: attempted {result['attempted']}, failed {result['failed']}")

    for message in errors:
        print(f"FAIL {message}")
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
