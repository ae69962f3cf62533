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
# Beside the panic surface, clippy carries the determinism rules
# (clippy.toml, [workspace.lints.clippy]): std HashMap/HashSet are denied in
# ent-core's report modules (analyses, study, report), clock, thread-id and
# environment reads and a `for` over a hash collection everywhere. It also
# carries parser safety (DESIGN §6a): `indexing_slicing` is denied in the
# crate roots of wire, pcap, proto, flow and core (E001), and
# `arithmetic_side_effects` with `cast_possible_truncation` in every parser
# module of wire, pcap and proto plus five named entry points (E002).
# tests/tests/workspace_policy.rs (run by `cargo test` above) fails if any
# of these deny lines goes.
cargo clippy --workspace --all-targets -- -D warnings

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

echo "==> examples (each asserts its own result)"
# The five examples are workspace binaries built above; each exits non-zero
# when what it demonstrates stops holding (capture_roundtrip and
# anonymize_trace drive the streaming read -> anonymize -> write -> analyze
# path that entreport takes).
for example in quickstart http_fanout windows_deep_dive capture_roundtrip anonymize_trace; do
    cargo run --release -q -p ent-examples --bin "$example" > /dev/null
done

echo "==> pipeline metrics smoke (tiny study -> BENCH_pipeline.json -> schema check)"
BENCH_TMP="$(mktemp -d)"
trap 'rm -rf "$BENCH_TMP"' EXIT
cargo run --release -q -p ent-cli -- study \
    --scale 0.002 --seed 3 --hosts 8 --datasets D0 \
    --only 'table 3' --bench-json "$BENCH_TMP/BENCH_pipeline.json" > /dev/null
# obs-check fails on schema drift or any zero-valued mandatory stage
# (instrumentation rot: a stage someone forgot to re-wire reads zero), on
# root stage walls more than 2% from the worker wall (the ledger), and on a
# hot-path wall share of 55% or more.
cargo run --release -q -p ent-cli -- obs-check "$BENCH_TMP/BENCH_pipeline.json"

echo "==> committed bench documents (the emitter's layout, and their own gates)"
# The three committed documents must read as this build writes them: a key
# the emitter renamed, moved or dropped fails here, not in a later
# comparison.
for doc in BENCH_pipeline.json BENCH_pipeline_s01.json BENCH_packs.json; do
    cargo run --release -q -p ent-cli -- obs-check "$doc"
done

echo "==> bench regression gate (study at gate config vs committed BENCH_pipeline.json)"
# Serial run at the committed baseline's exact parameters (a study always
# ingests inline). obs-check holds it to its own ledger (root stage walls
# within 2% of the worker wall) and hot-path share (gen_synth + frame_parse
# + flow_ingest under 55% of the summed stage wall): ratios within one run,
# so no baseline; bench-compare requires every event/byte count to match
# the baseline exactly and prints each stage's wall against the committed
# one as a ratio. Walls never fail a gate: a performance claim is judged by
# paired runs, scripts/bench-pair.sh.
cargo run --release -q -p ent-cli -- study \
    --scale 0.01 --seed 2005 --threads 1 \
    --only 'table 3' --bench-json "$BENCH_TMP/BENCH_gate.json" > /dev/null
cargo run --release -q -p ent-cli -- obs-check "$BENCH_TMP/BENCH_gate.json"
cargo run --release -q -p ent-cli -- bench-compare \
    BENCH_pipeline.json "$BENCH_TMP/BENCH_gate.json"

echo "==> bench gate at magnitude (study at scale 0.1 vs committed BENCH_pipeline_s01.json)"
# The gate above runs at 0.01, where some of the generator's scaling laws
# never reach a clamp (the NCP busy pairs' ceiling, the scan probes'
# ceiling: crates/gen/src/scaling.rs). The same study at 0.1 on two
# workers (~4 s) must match the committed document's events and bytes
# exactly, so a law that changes output only at magnitude fails here.
cargo run --release -q -p ent-cli -- study \
    --scale 0.1 --seed 2005 --threads 2 \
    --only 'table 3' --bench-json "$BENCH_TMP/BENCH_s01.json" > /dev/null
cargo run --release -q -p ent-cli -- obs-check "$BENCH_TMP/BENCH_s01.json"
cargo run --release -q -p ent-cli -- bench-compare \
    BENCH_pipeline_s01.json "$BENCH_TMP/BENCH_s01.json"

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

echo "==> worker lane gate (analyze --shards 1 vs inline on a D0 and a D1 capture)"
# The worker lane serves captures; a generated trace (study, packs) always
# ingests inline. On the monitor smoke's D0 capture and a D1 (snaplen-68)
# capture the lane must change no result: every line above the stage table
# and the events signature on stderr (every stage's events and bytes) are
# identical inline and on the lane. Whether the lane beats the inline
# engine is a paired measurement, not a gate (~10 min):
#   scripts/bench-pair.sh analyze_sharded,analyze_payload 10
cargo run --release -q -p ent-cli -- generate \
    --dataset D1 --subnet 3 --scale 0.01 --seed 2005 \
    --out "$BENCH_TMP/lane_d1.pcap" 2> /dev/null
for cap in monitor lane_d1; do
    for shards in 0 1; do
        cargo run --release -q -p ent-cli -- analyze "$BENCH_TMP/$cap.pcap" \
            --shards "$shards" > "$BENCH_TMP/$cap.$shards.txt" 2> "$BENCH_TMP/$cap.$shards.err"
    done
    diff <(sed '/Pipeline stage metrics/,$d' "$BENCH_TMP/$cap.0.txt") \
         <(sed '/Pipeline stage metrics/,$d' "$BENCH_TMP/$cap.1.txt")
    diff <(grep 'events signature' "$BENCH_TMP/$cap.0.err") \
         <(grep 'events signature' "$BENCH_TMP/$cap.1.err")
done

echo "==> damaged-capture smoke (anonymize salvages a cut capture as analyze does)"
# The monitor smoke's capture cut 100 bytes short ends mid-record. anonymize
# must exit 0 and print the truncated-tail tally, the analyses of the damaged
# file and of its anonymization must count the same packets, and the
# anonymized file must read clean.
head -c -100 "$BENCH_TMP/monitor.pcap" > "$BENCH_TMP/cut.pcap"
cargo run --release -q -p ent-cli -- anonymize "$BENCH_TMP/cut.pcap" \
    "$BENCH_TMP/cut_anon.pcap" --key 42 2> "$BENCH_TMP/anon.err"
grep -q 'truncated tail' "$BENCH_TMP/anon.err"
cargo run --release -q -p ent-cli -- analyze "$BENCH_TMP/cut.pcap" > "$BENCH_TMP/cut.txt"
cargo run --release -q -p ent-cli -- analyze "$BENCH_TMP/cut_anon.pcap" > "$BENCH_TMP/cut_anon.txt"
diff <(grep '^trace:' "$BENCH_TMP/cut.txt") <(grep '^trace:' "$BENCH_TMP/cut_anon.txt")
grep -qx 'ingest health: clean' "$BENCH_TMP/cut_anon.txt"

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
