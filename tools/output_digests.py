"""SHA-256 of every output file of a fixed set of condrift runs, as JSON.

The runs are the three benchmark workloads (``bench/workloads.py``, read
as it is) at seeds 1-3, ``verify`` on the block at gamma in {0.1, 0.5,
1, 2, 16} at the default sizes, at gamma 10^6 at 64 cells, written
once as a JSON integer and once as a float, and at gamma 1 at 100 cells,
where no convergence size is the law run's, ``simulate`` on two data off the
benchmark (``OFF_SUITE``), each followed by ``convert`` on its output,
and ``characteristics`` on seven data off the benchmark
(``CHARACTERISTICS_OFF_SUITE``): a radial datum in d = 2, linear data
with zero edge values, a falling step profile, gamma 0.5 and 3, and a
tent at gamma 0.5 and 3 on points that hold x = 0 exactly. The
runs of ``EXIT_CODE_ONLY`` record their exit code alone: a 401-digit
integer for each numeric key that ``simulate``, ``verify`` and
``characteristics`` read as a size or as gamma, and two runs at gamma =
1e-3, where x(xi) underflows at the innermost cell centers: a ``verify``
past the cell-step budget, which that check rejects first, and a
``simulate`` that reaches the underflow.  Each run calls ``cli.main`` in
this process, in its own temporary directory.  Two trees that give the
same JSON write the same bytes; diff the output of two trees to check:

    python3 tools/output_digests.py > after.json
    python3 tools/output_digests.py path/to/other/checkout > before.json
    diff before.json after.json

The argument is the root of the checkout whose ``src/`` and
``bench/workloads.py`` are used (by default the one holding this script).
The JSON maps each run to its exit code and the digest of each file it
wrote, by path relative to its output directory; a run followed by
``convert`` holds the same two entries for it under ``convert``.  Its key
``numpy`` records the numpy that wrote them (``numpy_provenance``): the
bytes hold for one numpy build and SIMD dispatch, so two digest files from
hosts whose entries differ there can differ for that reason alone.
``changed_files`` lists the files whose digests differ between two such
JSONs; ``tools/check.sh`` uses it to report what a lower SIMD dispatch
changes on one host.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

SEEDS = (1, 2, 3)
VERIFY_GAMMAS = (0.1, 0.5, 1.0, 2.0, 16.0)
OFF_SUITE = {
    # only the left row holds mass, so only one row is stepped
    "left-only": {"gamma": 0.7, "frame": "original", "t_end": 3.0,
                  "snapshot_cadence": 0.5,
                  "datum": {"kind": "piecewise_linear",
                            "breakpoints": [-0.8, -0.4, -0.1],
                            "values": [0.2, 1.0, 0.5]}},
    # 1+gamma = 4 is a power of two: the five-pass step
    "tent-gamma3": {"gamma": 3.0, "t_end": 1.0, "snapshot_cadence": 0.25,
                    "datum": {"kind": "piecewise_linear",
                              "breakpoints": [-0.5, 0.0, 0.6],
                              "values": [0.4, 1.0, 0.4]}},
}
# characteristics runs off the benchmark's one profile: each t_end is 0.9
# of the blow-up time, and none of these data has a shock before it
CHARACTERISTICS_OFF_SUITE = {
    "radial-d2": {"gamma": 1.0, "dim": 2, "t_end": 0.45, "snapshot_cadence": 0.15,
                  "grid_cells": 513,
                  "datum": {"kind": "piecewise_linear", "breakpoints": [0.0, 0.3, 0.7],
                            "values": [1.0, 0.7, 0.3]}},
    "linear-zero-edges": {"gamma": 1.5, "t_end": 0.6, "snapshot_cadence": 0.2,
                          "grid_cells": 513,
                          "datum": {"kind": "piecewise_linear",
                                    "breakpoints": [-0.6, 0.0, 0.5],
                                    "values": [0.0, 1.0, 0.0]}},
    "constant-steps": {"gamma": 1.0, "t_end": 0.9, "snapshot_cadence": 0.3,
                       "grid_cells": 513,
                       "datum": {"kind": "piecewise_constant",
                                 "breakpoints": [-0.5, -0.2, 0.1, 0.4],
                                 "values": [0.5, 1.0, 0.6]}},
    "gamma0.5": {"gamma": 0.5, "t_end": 1.8, "snapshot_cadence": 0.6,
                 "grid_cells": 513,
                 "datum": {"kind": "piecewise_linear", "breakpoints": [-0.4, 0.0, 0.5],
                           "values": [0.5, 1.0, 0.3]}},
    "gamma3": {"gamma": 3.0, "t_end": 0.3, "snapshot_cadence": 0.1,
               "grid_cells": 513,
               "datum": {"kind": "piecewise_linear", "breakpoints": [-0.4, 0.0, 0.5],
                         "values": [0.5, 1.0, 0.3]}},
    # 513 points on [-0.5, 0.5] hold x = 0 exactly: the origin's own path
    **{f"origin-gamma{gamma:g}": {
        "gamma": gamma, "t_end": 0.9 / gamma, "snapshot_cadence": 0.3 / gamma,
        "grid_cells": 513,
        "datum": {"kind": "piecewise_linear", "breakpoints": [-0.5, 0.0, 0.5],
                  "values": [0.4, 1.0, 0.4]}} for gamma in (0.5, 3.0)},
}


BLOCK = {"kind": "example36"}
# a 401-digit integer, past the float range and within Python's digit limit
PAST_FLOAT_RANGE = 10**400
EXIT_CODE_ONLY = {
    **{f"{command}/{key}-401-digits":
       (command, {"gamma": 1.0, "datum": BLOCK, key: PAST_FLOAT_RANGE})
       for command, keys in (("simulate", ("gamma", "grid_cells", "z_count")),
                             ("verify", ("gamma", "grid_cells", "z_count")),
                             ("characteristics", ("gamma", "grid_cells", "dim")))
       for key in keys},
    "verify/gamma1e-3-over-budget":
        ("verify", {"gamma": 1e-3, "grid_cells": 200_000, "datum": BLOCK}),
    "simulate/gamma1e-3-underflow":
        ("simulate", {"gamma": 1e-3, "grid_cells": 64, "datum": BLOCK}),
}


def numpy_provenance() -> dict:
    """The numpy version, its enabled SIMD dispatch targets and its enabled
    CPU features in this process (``NPY_DISABLE_CPU_FEATURES`` disables
    some of them)."""
    import numpy as np
    from numpy._core import _multiarray_umath as umath

    enabled = umath.__cpu_features__
    return {"version": np.__version__,
            "dispatch": [t for t in umath.__cpu_dispatch__ if enabled.get(t)],
            "features": sorted(f for f, on in enabled.items() if on)}


def changed_files(before: dict, after: dict) -> list:
    """The files, as ``run/path`` (``run/convert/path`` for ``convert``'s),
    whose digests differ between two digest JSONs or that only one holds."""
    def files(digests: dict) -> dict:
        return {f"{run}/{part}{path}": digest
                for run, entry in digests.items() if run != "numpy"
                for part, sub in (("", entry), ("convert/", entry.get("convert", {})))
                for path, digest in sub.get("files", {}).items()}
    old, new = files(before), files(after)
    return sorted(path for path in old.keys() | new.keys() if old.get(path) != new.get(path))


def runs(workloads: dict):
    """(name, command, config, convert) of every run; ``convert`` runs
    ``convert`` on its output too."""
    for workload in workloads.values():
        for seed in SEEDS:
            yield (f"{workload.name}/seed{seed}", workload.command,
                   workload.config(seed, False), False)
    for gamma in VERIFY_GAMMAS:
        yield (f"verify/gamma{gamma:g}", "verify",
               {"gamma": gamma, "datum": {"kind": "example36"}}, False)
    # the same gamma as a JSON integer and as a float: the same bytes
    for gamma in (10**6, 1e6):
        yield (f"verify/gamma{gamma!r}-64cells", "verify",
               {"gamma": gamma, "datum": BLOCK, "grid_cells": 64}, False)
    # the convergence sizes 64, 128 and 256 all run on their own
    yield ("verify/gamma1-100cells", "verify",
           {"gamma": 1.0, "datum": BLOCK, "grid_cells": 100, "z_count": 100}, False)
    for name, config in OFF_SUITE.items():
        yield f"simulate/{name}", "simulate", config, True
    for name, config in CHARACTERISTICS_OFF_SUITE.items():
        yield f"characteristics/{name}", "characteristics", config, False


def _call(main, argv: list, out: Path) -> dict:
    """Exit code of ``main(argv)`` and the digests of the files under
    ``out``; stdout and stderr are dropped."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv + ["--output", str(out), "--quiet"])
    files = {str(f.relative_to(out)): hashlib.sha256(f.read_bytes()).hexdigest()
             for f in sorted(out.rglob("*")) if f.is_file()}
    return {"exit_code": code, "files": files}


def digest_run(main, command: str, config: dict, convert: bool) -> dict:
    """Run one command, then ``convert`` on its output if asked, and hash
    what each wrote."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "out"
        path.write_text(json.dumps(config))
        digests = _call(main, [command, "--config", str(path)], out)
        if convert:
            digests["convert"] = _call(main, ["convert", "--input", str(out)],
                                       Path(tmp) / "converted")
    return digests


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0] if argv else Path(__file__).resolve().parents[1]).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    from condrift import cli
    from workloads import WORKLOADS

    if Path(cli.__file__).resolve().parents[1] != root / "src":
        raise SystemExit(f"imported condrift from {cli.__file__}, not {root / 'src'}")
    digests = {name: digest_run(cli.main, *run) for name, *run in runs(WORKLOADS)}
    for name, (command, config) in EXIT_CODE_ONLY.items():
        code = digest_run(cli.main, command, config, False)["exit_code"]
        digests[name] = {"exit_code": code}
    digests["numpy"] = numpy_provenance()
    print(json.dumps(digests, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
