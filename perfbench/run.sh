#!/usr/bin/env bash
# Build the benchmark from source in this checkout and run it:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the root of a checkout.  Build output stays in ./_build.
set -euo pipefail
if [[ ! -f dune-project || ! -d lib/serve || ! -f perfbench/dune ]]; then
  echo "perfbench: run from the root of a full checkout" >&2
  exit 2
fi
export DUNE_CACHE=disabled
dune build --root . ./perfbench/main.exe >&2
# Keep the benchmark, and the llvmd it forks, on one CPU when taskset
# can: the closed loop alternates between the two anyway, and the
# machine-speed probe (perfbench/calib.ml) then times the CPU that does
# the work.
pin=()
if cpus=$(taskset -cp $$ 2>/dev/null); then
  cpu=${cpus##*[ ,-]}
  if taskset -c "$cpu" true 2>/dev/null; then pin=(taskset -c "$cpu"); fi
fi
exec "${pin[@]}" ./_build/default/perfbench/main.exe "$@"
