#!/usr/bin/env bash
# Build xqdb and the load benchmark from source, then run the benchmark
# with this script's arguments, e.g.
#   bash bench/load/run.sh --workload serve-hot --seed 1 --seconds 14 --trace 0
# Run it from the repository root. dune's shared cache stays off so that
# the build writes nothing outside the checkout.
#
# The benchmark runs on the first CPU this process may use, and the servers
# it starts on the second (the first again if there is only one): every
# time is scaled by the speed of the CPU that did the work, which is only
# known for a CPU the host probe runs on (see host.ml).
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . bin/xqdb.exe bench/load/main.exe 1>&2
exe=./_build/default/bench/load/main.exe
if ! command -v taskset > /dev/null; then exec "$exe" "$@"; fi
read -r bench server < <(awk '/^Cpus_allowed_list/ {
  n = split($2, r, ",")
  for (i = 1; i <= n && c < 2; i++) {
    m = split(r[i], b, "-"); hi = m > 1 ? b[2] : b[1]
    for (x = b[1]; x <= hi && c < 2; x++) cpu[c++] = x
  }
  print cpu[0], (c > 1 ? cpu[1] : cpu[0])
}' /proc/self/status)
exec taskset -c "$bench" "$exe" --server-cpu "$server" "$@"
