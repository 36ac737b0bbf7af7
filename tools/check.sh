#!/usr/bin/env bash
# The checks to run before a change is merged, stopping at the first failure:
#
#   1. the tier-1 test suite (the command in ROADMAP.md);
#   2. the benchmark harness self-test, bench/selftest.py;
#   3. given the root of another checkout (say, of the parent commit),
#      two facts that never fail the script: the line totals of the two
#      src/ trees and their difference, and every file that differs under
#      bench/ or in BENCHMARK.json (diff -rq); then tools/output_digests.py
#      on that tree and on this one, and diff.
#
#   tools/check.sh [OTHER_CHECKOUT]
#
# Everything it writes goes to one temporary directory, removed on exit:
# the pytest cache, hypothesis's example database, bytecode, the self-test's
# results (it runs on a copy of src/, bench/ and BENCHMARK.json there) and
# the two digest files.
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
    python3 "$root/tools/output_digests.py" "$root" > "$tmp/this.json"
    diff "$tmp/other.json" "$tmp/this.json"
    echo "output digests identical" >&2
fi
