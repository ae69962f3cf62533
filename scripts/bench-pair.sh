#!/usr/bin/env bash
# Paired parent/change benchmark runs: the protocol a performance claim has
# to follow (choosing-metrics guide section 8, benchmark/README.md).
#
#   scripts/bench-pair.sh WORKLOADS [PAIRS] [BASE]
#
# WORKLOADS is one workload, a comma-separated list, or `all` (every name
# in BENCHMARK.json): a perf PR shows the workload it claims and the ones
# that must not get worse from one invocation. Unpacks BASE (a commit;
# default HEAD when the working tree has changes, else HEAD^) into a
# throwaway directory, builds its benchmark/ and this tree's - once, for
# all workloads - then, workload by workload, runs the two alternately with
# the BENCHMARK.json command line: same seed within a pair, a different
# seed each pair, the side that goes first flipped each pair. Prints, per
# workload, end-to-end metric and side, the median and quartiles, how many
# pairs the change won, and every run; then one table of all of it:
# workload x metric -> medians, parent interquartile distance, pair wins.
#
# A gain is claimed only when the change wins at least nine tenths of the
# pairs and the medians differ by more than the parent's own interquartile
# distance; this script prints both facts and leaves the verdict to the
# reader. Everything is offline; PAIRS defaults to 10.
set -euo pipefail
cd "$(dirname "$0")/.."

WORKLOADS="${1:?usage: scripts/bench-pair.sh WORKLOAD[,WORKLOAD...]|all [PAIRS] [BASE]}"
PAIRS="${2:-10}"
if [ -n "${3:-}" ]; then
    BASE="$3"
elif git diff --quiet HEAD; then
    BASE="HEAD^"
else
    BASE="HEAD"
fi
BASE_SHA="$(git rev-parse --short "$BASE")"

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
mkdir "$WORK/parent"
git archive "$BASE" | tar -x -C "$WORK/parent"

# The command, run length and workload names are the driver's, read from
# BENCHMARK.json so the script cannot drift from what the PR is judged by.
read -r -a COMMAND <<< "$(python3 -c '
import json
b = json.load(open("BENCHMARK.json"))
print(b["run_seconds"], *b["command"])')"
SECONDS_PER_RUN="${COMMAND[0]}"
COMMAND=("${COMMAND[@]:1}")
NAMES="$(python3 -c '
import json, sys
known = [w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]]
asked = known if sys.argv[1] == "all" else sys.argv[1].split(",")
unknown = [w for w in asked if w not in known]
if unknown:
    sys.exit(f"unknown workload(s) {unknown}; BENCHMARK.json has {known}")
print(*asked)' "$WORKLOADS")"
read -r -a NAMES <<< "$NAMES"

echo "parent $BASE_SHA vs change (working tree), workloads ${NAMES[*]}," \
     "$PAIRS pairs of ${SECONDS_PER_RUN}s runs each" >&2
for side in "$WORK/parent" "$PWD"; do
    (cd "$side" && cargo build --release --quiet --offline \
        --manifest-path benchmark/Cargo.toml)
done

# One run: last stdout line is the result object.
run_side() { # dir workload seed
    (cd "$1" && "${COMMAND[@]}" --workload "$2" --seed "$3" \
        --seconds "$SECONDS_PER_RUN" --trace 0 | tail -n 1)
}

for workload in "${NAMES[@]}"; do
    for pair in $(seq 1 "$PAIRS"); do
        if [ $((pair % 2)) -eq 1 ]; then
            order="parent change"
        else
            order="change parent"
        fi
        for side in $order; do
            dir="$PWD"
            [ "$side" = parent ] && dir="$WORK/parent"
            echo "$workload pair $pair: $side" >&2
            printf '%s %s %s %s\n' "$workload" "$pair" "$side" \
                "$(run_side "$dir" "$workload" "$pair")" >> "$WORK/runs.txt"
        done
    done
done

python3 - "$WORK/runs.txt" <<'EOF'
import json, sys

better = {m["name"]: m["better"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
runs = {}  # workload -> metric -> side -> [value per pair]
failed = {}  # workload -> side -> failed operations
for line in open(sys.argv[1]):
    workload, _pair, side, doc = line.split(" ", 3)
    doc = json.loads(doc)
    tally = failed.setdefault(workload, {"parent": 0, "change": 0})
    tally[side] += doc["failed"] + (0 if doc["correct"] else 1)
    for name, m in doc["metrics"].items():
        sides = runs.setdefault(workload, {}).setdefault(name, {"parent": [], "change": []})
        sides[side].append(m["value"])

def quartiles(xs):
    xs = sorted(xs)
    def at(q):
        pos = q * (len(xs) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
    return at(0.25), at(0.5), at(0.75)

table = []
for workload, metrics in runs.items():
    print(f"== {workload}")
    for name, sides in metrics.items():
        p, c = sides["parent"], sides["change"]
        sign = 1 if better[name] == "higher" else -1
        wins = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
        ties = sum(1 for a, b in zip(p, c) if a == b)
        pq, cq = quartiles(p), quartiles(c)
        print(f"{name} ({better[name]} is better)")
        print(f"  parent  median {pq[1]:.6g}  quartiles {pq[0]:.6g} .. {pq[2]:.6g}")
        print(f"  change  median {cq[1]:.6g}  quartiles {cq[0]:.6g} .. {cq[2]:.6g}")
        print(f"  change/parent {cq[1] / pq[1]:.3f}; median gap {abs(cq[1] - pq[1]):.6g}"
              f" vs parent interquartile {pq[2] - pq[0]:.6g};"
              f" change won {wins} of {len(p)} pairs ({ties} ties)")
        print("  every run, parent/change per pair: "
              + "  ".join(f"{a:.6g}/{b:.6g}" for a, b in zip(p, c)))
        table.append((workload, f"{name} ({better[name]})", f"{pq[1]:.6g}", f"{cq[1]:.6g}",
                      f"{cq[1] / pq[1]:.3f}", f"{abs(cq[1] - pq[1]):.6g}", f"{pq[2] - pq[0]:.6g}",
                      f"{wins}/{len(p)}" + (f" ({ties} ties)" if ties else "")))

header = ("workload", "metric (better)", "parent median", "change median", "change/parent",
          "median gap", "parent IQ distance", "pairs won")
widths = [max(len(row[i]) for row in [header] + table) for i in range(len(header))]
print()
for row in [header] + table:
    print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
print("failed operations: " + ", ".join(
    f"{w} parent {t['parent']} change {t['change']}" for w, t in failed.items()))
EOF
