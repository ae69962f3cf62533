#!/usr/bin/env bash
# Full local quality gate: build, tests, lints. Mirrors what CI would run;
# everything is offline (no crates.io, no network).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo clippy --workspace --all-targets (warnings denied)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> ent-lint (workspace static analysis, zero findings required)"
cargo run --release -q -p ent-lint

echo "==> benchmark harness smoke (benchmark/ builds against this API and passes its own checks)"
# benchmark/ is its own workspace compiled against ent-core/ent-gen's pub
# items, so the workspace build above never sees it: a signature slip
# there would otherwise surface only as every benchmark operation failing.
cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- run --smoke

echo "==> generator golden fingerprints (byte equivalence, release mode)"
# Pins the arena generation path to the exact bytes the legacy Vec path
# produced (D0-D4, scale 0.01, seeds 1 and 2005). Any semantic drift in
# gen/wire/pcap changes a fingerprint and fails here before the bench
# gate ever runs.
cargo test -q --release -p ent-integration --test gen_fingerprint

echo "==> pipeline metrics smoke (tiny study -> BENCH_pipeline.json -> schema check)"
BENCH_TMP="$(mktemp -d)"
trap 'rm -rf "$BENCH_TMP"' EXIT
cargo run --release -q -p ent-cli -- study \
    --scale 0.002 --seed 3 --hosts 8 --datasets D0 \
    --only 'table 3' --bench-json "$BENCH_TMP/BENCH_pipeline.json" > /dev/null
# obs-check fails on schema drift or any zero-valued mandatory stage
# (instrumentation rot): a stage someone forgot to re-wire reads zero.
cargo run --release -q -p ent-cli -- obs-check "$BENCH_TMP/BENCH_pipeline.json"

echo "==> bench regression gate (study at gate config vs committed BENCH_pipeline.json)"
# Serial run at the committed baseline's exact parameters: events/bytes must
# match the baseline exactly (determinism), no dominant stage may be >25%
# slower (one-sided — faster always passes), and gen_synth + frame_parse +
# flow_ingest must stay under 55% of the summed stage wall. On noisy/
# thermally-throttled hardware, ENT_BENCH_WAIVER=1 skips the wall-time half
# of the gate while keeping the determinism half (bench-compare is the one
# reader of the variable; empty and 0 mean "not waived"):
#   ENT_BENCH_WAIVER=1 scripts/check.sh
# --shards 0 is explicit: shard count is a bench-comparability key, and
# a pinned --threads now auto-shards leftover cores when the flag is
# absent, which would silently break comparability on multi-core hosts.
cargo run --release -q -p ent-cli -- study \
    --scale 0.01 --seed 2005 --threads 1 --shards 0 \
    --only 'table 3' --bench-json "$BENCH_TMP/BENCH_gate.json" > /dev/null
cargo run --release -q -p ent-cli -- bench-compare \
    BENCH_pipeline.json "$BENCH_TMP/BENCH_gate.json"

echo "==> shard scaling gate (1/2/4/8-shard curve vs committed BENCH_scaling.json)"
# Runs the full D0-D4 study at the gate config once per shard count
# (0 = serial, then 1/2/4/8) and emits the ent-bench-scaling/1 curve.
# obs-check enforces the determinism half: events_signature, packet,
# and trace counts must be identical at every shard count. bench-compare
# against the committed curve then pins cross-run determinism and - only
# on machines with >= 4 cores and no ENT_BENCH_WAIVER - the speedup
# floor (4-shard ingest wall must beat 1-shard by the recorded floor).
# The curve is the study's arena path; whether one lane beats the inline
# engine on captures is a paired measurement, not a gate (~10 min):
#   scripts/bench-pair.sh analyze_sharded,analyze_payload 10
cargo run --release -q -p ent-cli -- scaling \
    --out "$BENCH_TMP/BENCH_scaling.json"
cargo run --release -q -p ent-cli -- obs-check "$BENCH_TMP/BENCH_scaling.json"
cargo run --release -q -p ent-cli -- bench-compare \
    BENCH_scaling.json "$BENCH_TMP/BENCH_scaling.json"

echo "==> monitor smoke (epoch reports + kill/resume equivalence + obs gate)"
# Resident-monitor contract (DESIGN §9) on a small capture: a run killed at
# an epoch boundary and resumed from its checkpoint must print the exact
# remaining epoch reports of the uninterrupted run, the monitor bench json
# must pass the observability gate, and the resumed run's cumulative
# event/byte counters must match the full run's exactly.
cargo run --release -q -p ent-cli -- generate \
    --dataset D0 --subnet 3 --scale 0.01 --seed 2005 \
    --out "$BENCH_TMP/monitor.pcap" 2> /dev/null
cargo run --release -q -p ent-cli -- monitor "$BENCH_TMP/monitor.pcap" \
    --epoch-secs 60 --checkpoint "$BENCH_TMP/full.ckpt" \
    --bench-json "$BENCH_TMP/BENCH_monitor.json" > "$BENCH_TMP/full.txt"
cargo run --release -q -p ent-cli -- monitor "$BENCH_TMP/monitor.pcap" \
    --epoch-secs 60 --checkpoint "$BENCH_TMP/part.ckpt" \
    --stop-after-epochs 4 > "$BENCH_TMP/part1.txt" 2> /dev/null
cargo run --release -q -p ent-cli -- monitor "$BENCH_TMP/monitor.pcap" \
    --epoch-secs 60 --checkpoint "$BENCH_TMP/part.ckpt" \
    --bench-json "$BENCH_TMP/BENCH_monitor_resumed.json" \
    > "$BENCH_TMP/part2.txt" 2> /dev/null
diff <(awk '/^== Epoch 4 /,0' "$BENCH_TMP/full.txt") \
     <(awk '/^== Epoch 4 /,0' "$BENCH_TMP/part2.txt")
cargo run --release -q -p ent-cli -- obs-check "$BENCH_TMP/BENCH_monitor.json"
cargo run --release -q -p ent-cli -- bench-compare \
    "$BENCH_TMP/BENCH_monitor.json" "$BENCH_TMP/BENCH_monitor_resumed.json"

echo "==> scenario pack gate (labeled packs + scored scanner removal vs committed BENCH_packs.json)"
# Runs every scenario pack at the gate config (scale 0.01, seed 2005,
# serial) and scores scanner removal against ground-truth labels.
# obs-check enforces the scoring half: precision/recall floors on packs
# with scan activity, a mandatory base entry, and per-pack entropy
# separation from base (every adversarial or modern-variant pack must be
# distinguishable by trace complexity). bench-compare against the
# committed document then pins the exact confusion matrix, per-pack
# packet counts and (to 1e-6) the entropy pair across runs.
cargo run --release -q -p ent-cli -- packs \
    --out "$BENCH_TMP/BENCH_packs.json" > /dev/null
cargo run --release -q -p ent-cli -- obs-check "$BENCH_TMP/BENCH_packs.json"
cargo run --release -q -p ent-cli -- bench-compare \
    BENCH_packs.json "$BENCH_TMP/BENCH_packs.json"

echo "All checks passed."
