#!/usr/bin/env bash
# A/A check: two sets of runs of the same code, each run with another seed,
# judged the way the acceptance check judges the benchmark.
#
#   benchmark/aa.sh [RUNS_PER_SET=5] [WORKLOAD ...]
#   benchmark/aa.sh report          # judge the runs already in benchmark/out/
#
# Per end-to-end metric and workload it prints both medians, their quartiles
# (Python's statistics.quantiles(values, n=4)), the spread (Q3 - Q1) / median
# of each set against the metric's bound, and whether set B's median is worse
# than set A's by more than the bound. Raw result lines are kept in
# benchmark/out/aa-{A,B}.jsonl. Exits 1 when any row fails.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
if [ "${1:-}" != report ]; then
  runs="${1:-5}"
  shift || true
  workloads=("$@")
  if [ "${#workloads[@]}" -eq 0 ]; then
    workloads=(scan-agg join-groupby adhoc-miss served-tcp)
  fi
  mkdir -p "$here/out"
  started=$(date +%s)
  for set in A B; do
    : > "$here/out/aa-$set.jsonl"
    for seed in $(seq 1 "$runs"); do
      for w in "${workloads[@]}"; do
        echo "aa: set $set seed $seed $w" >&2
        line="$("$here/run.sh" --workload "$w" --seed "$seed" --trace 0 | tail -n 1)"
        echo "{\"workload\": \"$w\", \"seed\": $seed, \"result\": $line}" >> "$here/out/aa-$set.jsonl"
      done
    done
  done
  echo "aa: $(( $(date +%s) - started )) s for $(( 2 * runs * ${#workloads[@]} )) runs" >&2
fi
python3 - "$here" <<'PY'
import json, statistics, sys
here = sys.argv[1]
spec = json.load(open(f"{here}/../BENCHMARK.json"))
sets = {}
for name in "AB":
    for line in open(f"{here}/out/aa-{name}.jsonl"):
        row = json.loads(line)
        if not row["result"]["correct"]:
            print(f"FAIL {row['workload']} seed {row['seed']}: incorrect run")
            sys.exit(1)
        for metric, v in row["result"]["metrics"].items():
            sets.setdefault((row["workload"], metric), {}).setdefault(name, []).append(v["value"])
failed = False
print(f"{'workload':13} {'metric':18} {'median A':>10} {'Q1..Q3 A':>21} {'spread A':>8} "
      f"{'median B':>10} {'Q1..Q3 B':>21} {'spread B':>8} {'B vs A':>7} {'bound':>5}  verdict")
for w in spec["workloads"]:
    for m in spec["end_to_end"]:
        ab = sets.get((w["name"], m["name"]))
        if not ab:
            continue
        cells, spreads, medians = [], [], []
        for name in "AB":
            q1, q2, q3 = statistics.quantiles(ab[name], n=4)
            med = statistics.median(ab[name])
            medians.append(med)
            spreads.append((q3 - q1) / med)
            cells.append(f"{med:10.4g} {q1:10.4g}..{q3:<9.4g} {spreads[-1]:8.1%}")
        worse = (medians[1] - medians[0]) / medians[0]
        if m["better"] == "higher":
            worse = -worse
        ok = worse <= m["bound"] and (m["name"] == "setup_s" or max(spreads) <= m["bound"])
        failed |= not ok
        print(f"{w['name']:13} {m['name']:18} {cells[0]} {cells[1]} {worse:+7.1%} {m['bound']:5.2f}  "
              f"{'pass' if ok else 'FAIL'}")
sys.exit(1 if failed else 0)
PY
