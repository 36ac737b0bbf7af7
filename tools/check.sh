#!/usr/bin/env bash
# The checks to run before a change is merged, stopping at the first failure:
#
#   1. the tier-1 test suite (the command in ROADMAP.md);
#   2. the benchmark harness self-test, bench/selftest.py;
#   3. tools/output_digests.py on this tree, then again with every enabled
#      numpy SIMD dispatch target but the lowest disabled
#      (NPY_DISABLE_CPU_FEATURES), and how many file digests that changes,
#      and which; this step never fails the script, and it is skipped when
#      at most one target is enabled;
#   4. given the root of another checkout (say, of the parent commit),
#      two facts that never fail the script: the line totals of the two
#      src/ trees and their difference, and every file that differs under
#      bench/ or in BENCHMARK.json (diff -rq); then tools/output_digests.py
#      on that tree, and a diff with this tree's digests.
#
#   tools/check.sh [OTHER_CHECKOUT]
#
# Everything it writes goes to one temporary directory, removed on exit:
# the pytest cache, hypothesis's example database, bytecode, the self-test's
# results (it runs on a copy of src/, bench/ and BENCHMARK.json there) and
# the digest files.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
other=${1:+$(cd "$1" && pwd)}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
export PYTHONPYCACHEPREFIX="$tmp/pycache"

echo "== tier-1 tests" >&2
# from the temporary directory, where hypothesis keeps its database
(cd "$tmp" && PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest -q \
    --continue-on-collection-errors --rootdir "$root" -c "$root/pyproject.toml" \
    -o cache_dir="$tmp/pytest_cache" "$root/tests")

echo "== bench/selftest.py" >&2
mkdir "$tmp/tree"
cp -R "$root/src" "$root/bench" "$root/BENCHMARK.json" "$tmp/tree/"
(cd "$tmp/tree" && python3 bench/selftest.py)

echo "== output digests: this tree under a lower SIMD dispatch" >&2
digests=("$root/tools/output_digests.py" "$root")
python3 "${digests[@]}" > "$tmp/this.json"
higher=$(cd "$root/tools" && python3 -c 'from output_digests import numpy_provenance
print(*numpy_provenance()["dispatch"][1:])') || true
if [ -z "$higher" ]; then
    echo "skipped: at most one SIMD dispatch target is enabled" >&2
elif NPY_DISABLE_CPU_FEATURES="$higher" python3 "${digests[@]}" > "$tmp/lower.json"; then
    (cd "$root/tools" && python3 -c 'import json, sys
from output_digests import changed_files
before, after = (json.load(open(path)) for path in sys.argv[1:3])
changed = changed_files(before, after)
print(f"{len(changed)} of {len(changed_files(before, {}))} file digests change "
      f"with {sys.argv[3]} disabled", *changed, sep="\n  ")' \
        "$tmp/this.json" "$tmp/lower.json" "$higher") >&2 || true
else
    echo "the digest run with $higher disabled failed" >&2
fi

src_lines() {
    find "$1/src" -name '*.py' -exec cat {} + | wc -l
}

if [ -n "$other" ]; then
    echo "== src/ lines: $other against $root" >&2
    before=$(src_lines "$other")
    after=$(src_lines "$root")
    echo "src/ lines: $before -> $after ($((after - before)))" >&2
    echo "== bench/ and BENCHMARK.json: $other against $root" >&2
    diff -rq -x __pycache__ "$other/bench" "$root/bench" >&2 || true
    diff -q "$other/BENCHMARK.json" "$root/BENCHMARK.json" >&2 || true
    echo "== output digests: $other against $root" >&2
    python3 "$root/tools/output_digests.py" "$other" > "$tmp/other.json"
    diff "$tmp/other.json" "$tmp/this.json"
    echo "output digests identical" >&2
fi
