#!/usr/bin/env bash
# Local CI gate: build, full test suite, lints. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
# The workspace is rustfmt-clean; mbbench/ is its own workspace and is
# not covered.
cargo fmt --all --check

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test --workspace --quiet

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc -D warnings (no broken or private intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> mb-check (call-graph determinism lints, baseline gate)"
# The check itself: exits nonzero on any finding not in the reviewed
# `.mb-check-baseline.json`, so new debt fails CI while grandfathered
# findings stay listed in the baseline. The analysis must stay inside a
# 5 s wall-time budget.
check_start=$(date +%s%N)
cargo run --release -q -p mb-check -- check
check_elapsed_ms=$(( ($(date +%s%N) - check_start) / 1000000 ))
echo "    mb-check wall time: ${check_elapsed_ms} ms (budget 5000 ms)"
if [ "$check_elapsed_ms" -ge 5000 ]; then
    echo "mb-check exceeded its 5 s wall-time budget"; exit 1
fi

echo "==> validate-feature smoke (runtime invariant sanitizer)"
# Re-asserts every pinned digest — including FIG3_FAULTED_QUICK_DIGEST,
# the fault-injected Figure 3 run — with the sanitizer compiled in.
# The normal-build pins run in the test suite above (figure_digests.rs).
cargo test --release -p montblanc --features validate --test validate_smoke --quiet

echo "==> fault-injection smoke (degraded-but-completed Figure 3)"
cargo run --release -p mb-bench --bin fault_ablation -- --quick

echo "==> figure renderer smoke (the bins that render the folded reports)"
for bin in fig3_scaling fig4_bigdft_trace fig5_rt_scheduling fig7_magicfilter table2_single_node ablations; do
    cargo run --release -q -p mb-bench --bin "$bin" -- --quick > /dev/null
done

echo "==> mb-lab 2-shard campaign smoke (shard, merge, pinned-digest check)"
# Two sharded processes split the fig3-quick campaign, the merge stitches
# their journals back into canonical slot order, and the digest gate
# proves the sharded result is bit-identical to the pinned figure digest.
LAB_DIR="$(mktemp -d)"
trap 'rm -rf "$LAB_DIR"' EXIT
cargo run --release -p mb-lab --bin mb-lab -- \
    run fig3-quick --journal "$LAB_DIR/shard0.journal" --shard 0/2
MB_SHARD=1/2 cargo run --release -p mb-lab --bin mb-lab -- \
    run fig3-quick --journal "$LAB_DIR/shard1.journal"
cargo run --release -p mb-lab --bin mb-lab -- \
    merge "$LAB_DIR/merged.journal" "$LAB_DIR/shard0.journal" "$LAB_DIR/shard1.journal"
cargo run --release -p mb-lab --bin mb-lab -- \
    digest "$LAB_DIR/merged.journal" --expect 0xd0d5f716d0b30356 --check

echo "==> mb-lab 2-shard fig7 smoke (checkpointed preludes out of slot order)"
# The Figure 7 measurer costs each machine's magicfilter stream once and
# rolls every variant back from a checkpoint. Shard 1 starts at slot 1,
# not 0, and each shard switches machine mid-run, so both shards build
# their preludes from a slot an in-order sweep never starts at; the
# merged journal must still reproduce the pinned digest.
cargo run --release -p mb-lab --bin mb-lab -- \
    run fig7-quick --journal "$LAB_DIR/fig7-shard0.journal" --shard 0/2
MB_SHARD=1/2 cargo run --release -p mb-lab --bin mb-lab -- \
    run fig7-quick --journal "$LAB_DIR/fig7-shard1.journal"
cargo run --release -p mb-lab --bin mb-lab -- \
    merge "$LAB_DIR/fig7-merged.journal" "$LAB_DIR/fig7-shard0.journal" "$LAB_DIR/fig7-shard1.journal"
cargo run --release -p mb-lab --bin mb-lab -- \
    digest "$LAB_DIR/fig7-merged.journal" --expect 0xa5a1d2922006e451 --check

echo "==> mb-lab 2-shard table2 smoke (each shard owns whole rows)"
# A Table II slot is a row: one kernel run costed on both machines.
# Under the modulo partition shard 0 owns rows 0, 2, 4 and 6 and shard 1
# rows 1, 3 and 5, so each kernel runs once per family; the merged
# journal must reproduce the pinned digest.
T2_SMOKE0="$(cargo run --release -p mb-lab --bin mb-lab -- \
    run table2-quick --journal "$LAB_DIR/table2-shard0.journal" --shard 0/2)"
grep -qw "4 executed" <<<"$T2_SMOKE0" || { echo "shard 0/2 did not run its 4 rows: $T2_SMOKE0"; exit 1; }
T2_SMOKE1="$(MB_SHARD=1/2 cargo run --release -p mb-lab --bin mb-lab -- \
    run table2-quick --journal "$LAB_DIR/table2-shard1.journal")"
grep -qw "3 executed" <<<"$T2_SMOKE1" || { echo "shard 1/2 did not run its 3 rows: $T2_SMOKE1"; exit 1; }
cargo run --release -p mb-lab --bin mb-lab -- \
    merge "$LAB_DIR/table2-merged.journal" "$LAB_DIR/table2-shard0.journal" \
    "$LAB_DIR/table2-shard1.journal"
cargo run --release -p mb-lab --bin mb-lab -- \
    digest "$LAB_DIR/table2-merged.journal" --expect 0xe2a5d2bf61fbfbcf --check

echo "==> mb-lab truncated paper-shard smoke (--max-slots, then complete + merge)"
# The same pipeline over a *paper* grid: both fig5-paper shards first run
# a --max-slots-truncated prefix (the deterministic front-to-back walk CI
# can afford), then complete, merge, and must reproduce the pinned
# paper digest bit for bit.
SMOKE0="$(cargo run --release -p mb-lab --bin mb-lab -- \
    run fig5-paper --journal "$LAB_DIR/paper0.journal" --shard 0/2 --max-slots 8)"
grep -q "8 executed" <<<"$SMOKE0" || { echo "max-slots bound not honored: $SMOKE0"; exit 1; }
SMOKE1="$(MB_SHARD=1/2 MB_MAX_SLOTS=8 cargo run --release -p mb-lab --bin mb-lab -- \
    run fig5-paper --journal "$LAB_DIR/paper1.journal")"
grep -q "8 executed" <<<"$SMOKE1" || { echo "MB_MAX_SLOTS bound not honored: $SMOKE1"; exit 1; }
cargo run --release -p mb-lab --bin mb-lab -- \
    run fig5-paper --journal "$LAB_DIR/paper0.journal" --shard 0/2
MB_SHARD=1/2 cargo run --release -p mb-lab --bin mb-lab -- \
    run fig5-paper --journal "$LAB_DIR/paper1.journal"
cargo run --release -p mb-lab --bin mb-lab -- \
    merge "$LAB_DIR/paper-merged.journal" "$LAB_DIR/paper0.journal" "$LAB_DIR/paper1.journal"
cargo run --release -p mb-lab --bin mb-lab -- \
    digest "$LAB_DIR/paper-merged.journal" --expect 0xc49f00d6ca0ac4ad --check

echo "==> mb-lab supervise chaos smoke (SIGKILL -> pinned digest)"
# The crash-tolerant supervisor end to end: a 2-shard fig3-quick family
# with one seeded SIGKILL injected mid-run. The supervisor must restart
# the killed worker, resume from its journal, merge the worker journals
# and verify the pinned digest — all inside a 60 s wall-time budget.
sup_start=$(date +%s%N)
SUP_OUT="$(cargo run --release -p mb-lab --bin mb-lab -- \
    supervise fig3-quick --dir "$LAB_DIR/family" --shards 2 \
    --chaos-kills 1 --poll-ms 10 --task-delay-ms 100)"
sup_elapsed_ms=$(( ($(date +%s%N) - sup_start) / 1000000 ))
grep -q "pinned digest check: ok" <<<"$SUP_OUT" \
    || { echo "supervised family missed the pin: $SUP_OUT"; exit 1; }
grep -q '"chaos_kills": 1' "$LAB_DIR/family/report.json" \
    || { echo "seeded kill did not land (report.json)"; exit 1; }
echo "    supervise wall time: ${sup_elapsed_ms} ms (budget 60000 ms)"
if [ "$sup_elapsed_ms" -ge 60000 ]; then
    echo "supervise smoke exceeded its 60 s wall-time budget"; exit 1
fi
# Worker exits wake the supervisor: with a 5 s poll interval a family
# of quick shards must converge inside the first interval and count no
# poll. A supervisor that sleeps out its polls takes at least 10 s.
wake_start=$(date +%s%N)
WAKE_OUT="$(target/release/mb-lab supervise fig3-quick --dir "$LAB_DIR/wake" \
    --shards 2 --poll-ms 5000)"
wake_elapsed_ms=$(( ($(date +%s%N) - wake_start) / 1000000 ))
grep -q "pinned digest check: ok" <<<"$WAKE_OUT" \
    || { echo "5 s-poll family missed the pin: $WAKE_OUT"; exit 1; }
grep -q '"polls": 0,' "$LAB_DIR/wake/report.json" \
    || { echo "5 s-poll family counted a poll: exits did not wake the supervisor"; exit 1; }
echo "    5 s-poll supervise wall time: ${wake_elapsed_ms} ms (budget 5000 ms)"
if [ "$wake_elapsed_ms" -ge 5000 ]; then
    echo "5 s-poll supervise exceeded its 5 s wall-time budget"; exit 1
fi

echo "==> mb-lab exit-code contract (CLI + chaos suites)"
# The documented exit taxonomy (2 usage / 3 corruption / 4 slot panic /
# 5 env misconfig / 6 protocol / 7 unavailable) and the chaos harnesses
# are tier-1, but name them explicitly so a contract regression fails
# loudly here, not as one line in the workspace wall of dots. The lib
# tests hold the one LabError exit-code table; campaign_digests pins
# every registered campaign's identity (name, seed, slot count, payload
# width, pin, labels) and its journaled digest.
cargo test --release -p mb-lab --lib --quiet
cargo test --release -p mb-lab --test cli --test supervise_chaos --test campaign_digests --quiet
cargo test --release -p mb-lab \
    --test protocol_format --test serve_soak --test serve_chaos --quiet
# The format contract and the one decoder fuzz surface: golden journal
# bytes, plus never-panic sweeps of Journal::load.
cargo test --release -p mb-lab --test journal_format --test codec_fuzz --quiet

echo "==> fast-path oracles (Cache, Tlb, ModelExec::mem_run, lockstep_run, rollback, the Fig 5 class memo, the Table II row runs, the batched kernel reports and the Fabric against their slow references)"
# The cache, TLB and page-table fast paths must match the plain-scan
# implementations kept in these suites on every access, a batched
# `mem_run` or `lockstep_run` must cost exactly what its per-access
# expansion costs, a rolled-back `ModelExec` must report what a
# fresh one fed the same stream reports, a Figure 5 slot read from its
# measurement class must equal a fresh executor fed the slot's own page
# table, a Table II cell read from its row's tee'd run must equal a
# fresh executor of its own machine, the kernels' batched reports
# must expand to their per-access loops, and the vector-indexed fabric
# must send every message as the BTreeMap one did; name them so a
# broken fast path fails loudly here, not as one dot in the workspace
# run.
cargo test --release -p mb-mem --test cache_equivalence --test tlb_equivalence --quiet
cargo test --release -p mb-cpu --test mem_run_equivalence --test checkpoint_equivalence \
    --test lockstep_equivalence --quiet
cargo test --release -p montblanc --test fig5_classes --test table2_rows --quiet
cargo test --release -p mb-kernels --test batched_reports --quiet
cargo test --release -p mb-net --test fabric_equivalence --quiet

echo "==> mb-lab serve smoke (submit/watch/fetch over the socket, SIGKILL + resume)"
# The always-on service end to end: start a server, submit fig3-quick
# over the mbsrv1 socket, SIGKILL the whole server process group
# mid-campaign, restart on the same data dir, and the resumed family
# must still converge to the pinned digest — its merged journal fetched
# over the wire, chain-verified, and digest-checked through the CLI
# gate. Budget 60 s.
serve_start=$(date +%s%N)
MB_LAB=target/release/mb-lab
SERVE_DIR="$LAB_DIR/serve"
mkdir -p "$SERVE_DIR"
setsid "$MB_LAB" serve --dir "$SERVE_DIR/data" --task-delay-ms 120 \
    > "$SERVE_DIR/serve1.log" 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do [ -s "$SERVE_DIR/data/addr.txt" ] && break; sleep 0.1; done
ADDR="$(cat "$SERVE_DIR/data/addr.txt")"
SUB_OUT="$("$MB_LAB" submit fig3-quick --addr "$ADDR" --shards 2)"
JOB="$(sed -n 's/^submitted \(j[0-9]*\) .*/\1/p' <<<"$SUB_OUT")"
[ -n "$JOB" ] || { echo "submit did not yield a job id: $SUB_OUT"; exit 1; }
for _ in $(seq 1 200); do
    "$MB_LAB" status "$JOB" --addr "$ADDR" | grep -qE ' [1-9][0-9]*/' && break
    sleep 0.1
done
kill -9 -- "-$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
setsid "$MB_LAB" serve --dir "$SERVE_DIR/data" \
    > "$SERVE_DIR/serve2.log" 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do
    [ -s "$SERVE_DIR/data/addr.txt" ] && "$MB_LAB" ping --addr "$(cat "$SERVE_DIR/data/addr.txt")" \
        > /dev/null 2>&1 && break
    sleep 0.1
done
ADDR="$(cat "$SERVE_DIR/data/addr.txt")"
WATCH_OUT="$("$MB_LAB" watch "$JOB" --addr "$ADDR")"
grep -q "pinned digest check: ok" <<<"$WATCH_OUT" \
    || { echo "resumed serve job missed the pin: $WATCH_OUT"; exit 1; }
"$MB_LAB" fetch "$JOB" "$SERVE_DIR/fetched.journal" --addr "$ADDR"
"$MB_LAB" digest "$SERVE_DIR/fetched.journal" --expect 0xd0d5f716d0b30356 --check
"$MB_LAB" shutdown --addr "$ADDR"
wait "$SERVE_PID" 2>/dev/null || true
serve_elapsed_ms=$(( ($(date +%s%N) - serve_start) / 1000000 ))
echo "    serve smoke wall time: ${serve_elapsed_ms} ms (budget 60000 ms)"
if [ "$serve_elapsed_ms" -ge 60000 ]; then
    echo "serve smoke exceeded its 60 s wall-time budget"; exit 1
fi

echo "==> mbbench smoke (every workload once, on quick campaigns and four served jobs)"
# The one performance harness, bounded to one window per workload. It
# exits nonzero on any failed operation or missing metric, and a
# campaign whose digest misses its pin counts as failed. Its build
# rewrites the stale mbbench/Cargo.lock; that file is left for a
# benchmark change to commit.
bash mbbench/run.sh run --smoke

echo "==> mbbench replay oracle (the benchmark's tests against the workspace API)"
# mbbench's tests call workspace functions its binary does not, such as
# fig7::measure_slot and table2::measure_cell, so a change to the
# workspace API can break the benchmark's test build while the smoke
# run above still passes. The test also checks that a recorded slot
# stream replays to the direct run's report, bit for bit.
cargo test --release --manifest-path mbbench/Cargo.toml --test replay_oracle --quiet

echo "CI green."
