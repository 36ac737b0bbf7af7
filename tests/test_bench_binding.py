import os
import subprocess
import sys
from pathlib import Path

import condrift

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_still_binds_to_the_package():
    # the benchmark wraps package names where the CLI looks them up and
    # imports readers from the package; a fresh interpreter shows that
    # every name it needs still resolves
    src = str(Path(condrift.__file__).resolve().parents[1])
    path = os.pathsep.join([str(ROOT / "bench"), src])
    probe = "import tracing; tracing.install_all(tracing.Tracer()); import checks"
    proc = subprocess.run([sys.executable, "-c", probe], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
