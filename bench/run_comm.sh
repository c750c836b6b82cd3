#!/usr/bin/env sh
# Run bench_comm_ops and append a labelled entry to BENCH_comm.json,
# the gradient-sync-layer trajectory (docs/BENCHMARKS.md).
#
#   bench/run_comm.sh [label] [path/to/bench_comm_ops] [extra args...]
#
# Defaults: label = current git revision,
# binary = build/bench/bench_comm_ops. Extra args are passed through
# (e.g. --iters=500 --elems=200000).
#
# The rank sweep {2,4,8} runs in one process. Entries written before
# the seed collective and the fused allreduce→step path were retired
# also carry legacy_us/speedup/legacy_opt_us/fused_opt_us/fused_speedup;
# they stay in BENCH_comm.json as history.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
label=${1:-$(git -C "$repo_root" rev-parse --short HEAD 2>/dev/null || echo unlabelled)}
bin=${2:-"$repo_root/build/bench/bench_comm_ops"}
[ $# -ge 1 ] && shift
[ $# -ge 1 ] && shift
out="$repo_root/BENCH_comm.json"

if [ ! -x "$bin" ]; then
  echo "error: $bin not found or not executable." >&2
  echo "Configure with -DDISTTGL_BUILD_BENCH=ON and build bench_comm_ops." >&2
  exit 1
fi

raw=$(mktemp)
trap 'rm -f "$raw"' EXIT
"$bin" "$@" | tee "$raw"

LABEL="$label" RAW="$raw" OUT="$out" python3 - <<'EOF'
import datetime
import json
import os
import re

results = {}
elems = None
with open(os.environ["RAW"]) as f:
    for line in f:
        m = re.match(
            r"comm_ops ranks=(\d+) elems=(\d+) mb=([\d.]+) "
            r"ring_us=([\d.]+) ring_opt_us=([\d.]+)", line)
        if m:
            elems = int(m.group(2))
            results[f"ranks_{m.group(1)}"] = {
                "ranks": int(m.group(1)),
                "elems": elems,
                "mb": float(m.group(3)),
                "ring_us": float(m.group(4)),
                "ring_opt_us": float(m.group(5)),
            }

entry = {
    "label": os.environ["LABEL"],
    "date": datetime.date.today().isoformat(),
    "elems": elems,
    "results": results,
}

out = os.environ["OUT"]
trajectory = json.load(open(out)) if os.path.exists(out) else []
trajectory.append(entry)
with open(out, "w") as f:
    json.dump(trajectory, f, indent=2)
    f.write("\n")
print(f"appended entry '{entry['label']}' ({len(results)} rank configs) to {out}")
EOF
