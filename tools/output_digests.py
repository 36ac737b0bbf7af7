"""SHA-256 of every output file of a fixed set of condrift runs, as JSON.

The runs are the three benchmark workloads (``bench/workloads.py``, read
as it is) at seeds 1-3, and ``verify`` on the block at gamma in
{0.1, 0.5, 1, 2, 16} at the default sizes.  Each run calls ``cli.main``
in this process, in its own temporary directory.  Two trees that give the
same JSON write the same bytes; diff the output of two trees to check:

    python3 tools/output_digests.py > after.json
    python3 tools/output_digests.py path/to/other/checkout > before.json
    diff before.json after.json

The argument is the root of the checkout whose ``src/`` and
``bench/workloads.py`` are used (by default the one holding this script).
The JSON maps each run to its exit code and the digest of each file it
wrote, by path relative to its output directory.
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


def runs(workloads: dict):
    """(name, command, config) of every run."""
    for workload in workloads.values():
        for seed in SEEDS:
            yield (f"{workload.name}/seed{seed}", workload.command,
                   workload.config(seed, False))
    for gamma in VERIFY_GAMMAS:
        yield (f"verify/gamma{gamma:g}", "verify",
               {"gamma": gamma, "datum": {"kind": "example36"}})


def digest_run(main, command: str, config: dict) -> dict:
    """Run one command and hash what it wrote; stdout and stderr are dropped."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "out"
        path.write_text(json.dumps(config))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main([command, "--config", str(path), "--output", str(out),
                         "--quiet"])
        files = {str(f.relative_to(out)): hashlib.sha256(f.read_bytes()).hexdigest()
                 for f in sorted(out.rglob("*")) if f.is_file()}
    return {"exit_code": code, "files": files}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0] if argv else Path(__file__).resolve().parents[1]).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    from condrift import cli
    from workloads import WORKLOADS

    if Path(cli.__file__).resolve().parents[1] != root / "src":
        raise SystemExit(f"imported condrift from {cli.__file__}, not {root / 'src'}")
    digests = {name: digest_run(cli.main, command, config)
               for name, command, config in runs(WORKLOADS)}
    print(json.dumps(digests, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
