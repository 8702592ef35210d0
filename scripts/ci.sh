#!/usr/bin/env bash
# Tier-1 gate + smoke repro. Fully offline; no network access needed.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --workspace --release
cargo test -q --workspace

# Zero-alloc proof in release mode: steady-state forwarding must not touch
# the global allocator after warm-up (counting-allocator integration test).
cargo test --release -q --test zero_alloc
# Memory-scaling bound on the same optimised build the benchmark runs: a
# finished flow costs its metrics record, which holds each end's done bit,
# whatever the history (live-byte counting allocator, N vs 4N incast
# rounds; a Homa sender also keeps the flow's grant offset).
cargo test --release -q --test memory_scaling
# Recorder memory on the same build: idle time past the last event adds no
# series storage (live-byte counting allocator, flushes 10 ms and 1 s late).
cargo test --release -q --test recorder_memory

# Doc-name gate: every CamelCase name inside backticks in DESIGN.md /
# README.md must still occur in the sources, so a deleted type cannot live
# on in the prose.
for name in $(grep -ohE '`[^`]+`' DESIGN.md README.md \
    | grep -oE '\b[A-Z][a-z0-9]+([A-Z][a-z0-9]*)+\b' | sort -u); do
    grep -rqw --include='*.rs' "$name" crates src examples benchmark/src || {
        echo "DESIGN.md / README.md name \`$name\` is in no source file" >&2; exit 1; }
done
# The same for backticked `Type::member` paths: some source file that names
# the type must also name the member, so `AeolusConfig::some_field` cannot
# outlive its field.
for path in $(grep -ohE '`[^`]+`' DESIGN.md README.md \
    | grep -oE '\b[A-Z][A-Za-z0-9]*::[A-Za-z_][A-Za-z0-9_]*' | sort -u); do
    files="$(grep -rlw --include='*.rs' "${path%%::*}" crates src examples benchmark/src)" \
        && grep -qw -- "${path#*::}" $files || {
        echo "DESIGN.md / README.md path \`$path\` resolves in no source file" >&2; exit 1; }
done

# Rustdoc gate: the API docs of the three library crates build without a
# warning (no broken intra-doc link, no public doc linking a private item).
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q -p aeolus-sim -p aeolus-transport \
    -p aeolus-experiments

# One flow's life read off the Tracer seam: the example must run, show the
# victim's selective drops and see it complete.
trace_txt="$(cargo run --release -q --example packet_trace)"
grep -q 'DROP' <<<"$trace_txt" && grep -q '^flow completed in ' <<<"$trace_txt" || {
    echo "packet_trace printed no DROP line or no completion line" >&2; exit 1; }

# Churn guard: a receiver's cost per event must follow the flows it is
# receiving, not every flow it has ever seen. 7:1 x 20 KB incast at 300 and
# 3000 rounds, four receiver-driven families; exits non-zero if ns/event at
# 3000 rounds exceeds 2x the 300-round figure (a flow-table walk reads above
# 4x, host noise is +-30 %). ~2 s.
cargo run --release -q --example incast_churn -- --check

# Profiler smoke: scripts/psample.py, the ptrace sampler that names the hot
# instructions of a perf change, needs frame pointers and line tables, so it
# gets a build of its own target directory. One second of `aeolus-bench
# --engine-only` must resolve samples into crates/sim. Where ptrace or
# addr2line is unavailable the sampler exits 3 and the step is skipped with
# its message; without python3 it is skipped before the build.
if command -v python3 >/dev/null; then
    RUSTFLAGS="-C force-frame-pointers=yes" CARGO_PROFILE_RELEASE_DEBUG=line-tables-only \
        cargo build --release -q -p aeolus-bench --target-dir target/psample
    psample_dir="$(mktemp -d)"
    trap 'rm -rf "$psample_dir"' EXIT
    psample_status=0
    python3 scripts/psample.py --seconds 1 --top 5 --require crates/sim -- \
        target/psample/release/aeolus-bench --engine-only \
        >"$psample_dir/report.txt" 2>"$psample_dir/stderr.txt" || psample_status=$?
    case "$psample_status" in
        0) echo "psample smoke: $(head -n 1 "$psample_dir/report.txt" | cut -d, -f1);" \
            "$(tail -n 1 "$psample_dir/report.txt")" ;;
        3) grep '^psample: skipped' "$psample_dir/stderr.txt" ;;
        *) cat "$psample_dir/report.txt" "$psample_dir/stderr.txt" >&2
           echo "psample smoke failed (exit $psample_status)" >&2; exit 1 ;;
    esac
    rm -rf "$psample_dir"
    trap - EXIT
else
    echo "psample smoke: skipped: python3 is not on PATH"
fi

# The repo benchmark is its own workspace, so the commands above never see
# it: run its unit tests (one of them: committed BENCHMARK.json == generated
# manifest), then pin its simulations bit-for-bit. Each workload's `#detail`
# line reports the events processed and an FNV digest over every flow's
# outcome at seed 11; both are pure functions of the simulated behaviour, so
# a drift here means a change altered what the benchmark measures, not how
# fast. Read-only: nothing under benchmark/ is edited, and its target/ and
# out/ directories are ignored.
cargo test -q --manifest-path benchmark/Cargo.toml
while read -r workload events digest; do
    detail="$(bash benchmark/run.sh --workload "$workload" --seed 11 --seconds 1 --trace 0 \
        | grep '^#detail ')"
    python3 - "$workload" "$events" "$digest" "${detail#\#detail }" <<'EOF'
import json, sys
workload, events, digest = sys.argv[1], int(sys.argv[2]), sys.argv[3]
detail = json.loads(sys.argv[4])
got = (detail["events"], detail["sim_digest"])
assert got == (events, digest), (
    f"{workload}: got {got}, pinned {(events, digest)} in scripts/benchmark_digests.txt")
print(f"benchmark bit-identity: {workload} {events} events, sim_digest {digest}")
EOF
done < scripts/benchmark_digests.txt

# One end-to-end experiment at smoke scale, exercising the parallel fan-out.
cargo run --release -q -p aeolus-experiments --bin repro -- fig1 --scale smoke --jobs 2

# Calibration gate: `repro validate` checks RTT/throughput/fairness against
# explicit tolerances and exits non-zero on any violation, so a drifting
# substrate fails CI here instead of producing silently-wrong figures.
cargo run --release -q -p aeolus-experiments --bin repro -- validate --scale smoke

# Trace smoke: capture one traced incast, check the JSONL parses and is
# non-empty (every line a JSON object, with at least one queue event).
trace_out="$(mktemp -d)/trace_ci.jsonl"
cargo run --release -q -p aeolus-experiments --bin repro -- \
    --trace expresspass-aeolus --trace-out "$trace_out"
python3 - "$trace_out" <<'EOF'
import json, sys
lines = [l for l in open(sys.argv[1]) if l.strip()]
assert len(lines) > 100, f"trace suspiciously small: {len(lines)} lines"
kinds = set()
for l in lines:
    kinds.add(json.loads(l)["type"])
assert {"meta", "port", "queue", "transport", "series"} <= kinds, kinds
print(f"trace smoke: {len(lines)} JSONL lines, record types {sorted(kinds)}")
EOF

# Conformance fuzz: a bounded batch of seeded random scenarios (scheme x
# topology x workload x faults) runs end-to-end under the online oracle
# (queue ledgers, drop legality, causality, conservation, burst budgets,
# retransmit pairing). On failure the fuzzer prints a shrunken one-line
# repro spec — rerun it locally with `repro fuzz --spec '<line>'`. The
# NullTracer bench gate at the end of this script doubles as the oracle-off
# overhead proof: default builds dispatch the oracle's hooks to
# statically-inlined no-ops.
cargo run --release -q -p aeolus-experiments --bin repro -- fuzz --cases 25 --seed 1

# A second batch on a fresh seed: the slab-backed per-flow state (FlowMap)
# replaced every transport's BTreeMaps, so widen the randomized conformance
# coverage over flow churn, stale timers and fault overlap.
cargo run --release -q -p aeolus-experiments --bin repro -- fuzz --cases 25 --seed 6

# Oracle smoke under a real experiment: fig1 at smoke scale with --check
# installs the CheckedTracer on every workload run; any invariant
# violation panics the run instead of reaching the report.
cargo run --release -q -p aeolus-experiments --bin repro -- fig1 --scale smoke --jobs 2 --check

# And over the schemes no other step reaches except by fuzz luck: both
# oracles (fig3), eager Homa (table1) and the low-priority-queue strawman at
# both RTOs (table4), end to end under the same oracle.
cargo run --release -q -p aeolus-experiments --bin repro -- \
    fig3 table1 table4 --scale smoke --jobs 2 --check

# Chaos smoke: the fault sweep (loss rate x fabric flap, all six schemes)
# at smoke scale. Every cell runs under the completion watchdog — a single
# hung flow anywhere panics the run with per-flow diagnostics, so a zero
# exit code here *is* the zero-hung-flows assertion.
cargo run --release -q -p aeolus-experiments --bin repro -- chaos --scale smoke --jobs 2

# Node-chaos smoke: host crashes, pod partitions and an arbiter outage
# over all six schemes, every cell classified per-flow by run_degradation.
# A flow that neither completes nor aborts-with-cause is a VIOLATION line
# and repro exits non-zero — so this run *is* the zero-hangs gate. Under
# --check the oracle watches every cell, so the abort, restart and crash
# paths run under it too.
cargo run --release -q -p aeolus-experiments --bin repro -- chaos_nodes --scale smoke --jobs 2 --check

# Fault-schedule determinism gate: an identical --faults spec must produce
# a bit-identical trace capture across reruns and worker counts. Every
# window opens during the traced incast (rounds at 0 and 1 ms): the degrade
# and crash windows nest inside round 1 and overlap the flap, the partition
# opens 10 us into round 2 — so the fault plan's open-window index, the
# mid-serialization cuts and the post-restart stale-incarnation check all
# sit under the byte-compare.
fault_dir="$(mktemp -d)"
fault_spec='loss=1%,down=200us..500us,degrade=20us..150us@3,crash=1@30us..400us,partition=1010us..1200us,seed=7'
cargo run --release -q -p aeolus-experiments --bin repro -- \
    --trace expresspass-aeolus --faults "$fault_spec" --trace-out "$fault_dir/a.jsonl"
cargo run --release -q -p aeolus-experiments --bin repro -- \
    --trace expresspass-aeolus --faults "$fault_spec" --trace-out "$fault_dir/b.jsonl" --jobs 1
cargo run --release -q -p aeolus-experiments --bin repro -- \
    --trace expresspass-aeolus --faults "$fault_spec" --trace-out "$fault_dir/c.jsonl" --jobs 4
cmp "$fault_dir/a.jsonl" "$fault_dir/b.jsonl"
cmp "$fault_dir/a.jsonl" "$fault_dir/c.jsonl"
# Directive order across kinds is not behaviour: the plan keeps its windows
# in one canonical class order, so the same directives permuted are the same
# plan and the same capture.
cargo run --release -q -p aeolus-experiments --bin repro -- \
    --trace expresspass-aeolus --trace-out "$fault_dir/d.jsonl" \
    --faults 'seed=7,partition=1010us..1200us,crash=1@30us..400us,down=200us..500us,loss=1%,degrade=20us..150us@3'
cmp "$fault_dir/a.jsonl" "$fault_dir/d.jsonl"
# And the schedule must actually have injected faults: corruption drops,
# packets cut on the wire at a window start, kills at the crashed host and
# a straggler rejected after the relaunch all reach the fault-event stream.
for reason in corruption link_down node_down stale_incarnation; do
    grep -q "\"$reason\"" "$fault_dir/a.jsonl" || {
        echo "faulted trace contains no $reason kills" >&2; exit 1;
    }
done
echo "fault determinism: $(wc -l < "$fault_dir/a.jsonl") JSONL lines bit-identical across reruns, --jobs 1/4 and directive order"

# One install point: `--trace` binds a plan the way every experiment does,
# through the harness, which knows Fastpass has an arbiter host. An
# `arbiter=` window must crash that host (the engine alone used to record a
# credit blackout instead, with no node event at all).
cargo run --release -q -p aeolus-experiments --bin repro -- \
    --trace fastpass-aeolus --faults 'arbiter=100us..300us' --trace-out "$fault_dir/arbiter.jsonl"
grep -q '"ev":"node_crash"' "$fault_dir/arbiter.jsonl" || {
    echo "traced Fastpass arbiter outage crashed no node" >&2; exit 1;
}
echo "fastpass --trace: arbiter outage crashes the arbiter host"

# Dormant node-fault gate: a plan whose crash / arbiter / partition windows
# all open *after* the run ends must be bit-identical to running with no
# plan at all — installing the node-fault machinery may not perturb event
# order, RNG draws or timing when nothing actually fires.
cargo run --release -q -p aeolus-experiments --bin repro -- \
    --trace expresspass-aeolus --trace-out "$fault_dir/clean.jsonl"
cargo run --release -q -p aeolus-experiments --bin repro -- \
    --trace expresspass-aeolus --trace-out "$fault_dir/dormant.jsonl" \
    --faults 'crash=0@4s..5s,arbiter=6s..7s,partition=8s..9s'
cmp "$fault_dir/clean.jsonl" "$fault_dir/dormant.jsonl"
echo "dormant node-fault plan: trace bit-identical to no-faults run"

# Format pin: the SHA-256 of three captures' JSONL bytes. The `cmp`s above
# compare a run with a rerun of itself, so a format drift that is
# deterministic passes them; this does not. Re-pin only for a deliberate
# format or behaviour change. Columns: digest, scheme, fault plan ("-" for
# none); the ndp-aeolus and homa-aeolus captures carry `band:` series.
while read -r digest scheme faults; do
    args=(--trace "$scheme" --trace-out "$fault_dir/pinned.jsonl")
    [ "$faults" = "-" ] || args+=(--faults "$faults")
    cargo run --release -q -p aeolus-experiments --bin repro -- "${args[@]}" >/dev/null </dev/null
    got="$(sha256sum "$fault_dir/pinned.jsonl" | cut -d' ' -f1)"
    [ "$got" = "$digest" ] || {
        echo "trace bytes of $scheme ($faults) moved: sha256 $got, pinned $digest" \
            "in scripts/trace_digests.txt" >&2; exit 1; }
    echo "trace digest: $scheme ($faults) matches its pin"
done < scripts/trace_digests.txt

# Fuzz over the extended grammar: seed 41's batch draws node faults (host
# crashes, arbiter outages, partitions) in ~a third of its scenarios, and
# the oracle's settlement check fails any case with a hung flow.
cargo run --release -q -p aeolus-experiments --bin repro -- fuzz --cases 25 --seed 41

# Guided-fuzz batch from the committed corpus: replay every distilled
# distinct-behavior spec under the oracle (a broad behavioral regression
# suite — each entry once hit a novelty signature, including the shrunk
# failure specs), then spend the rest of the budget on corpus mutations and
# fresh scenarios. The corpus copy keeps the committed tree read-only under
# CI; any failure prints shrunk one-line repro specs and exits non-zero.
corpus_dir="$(mktemp -d)/corpus"
cp -r results/corpus "$corpus_dir"
n_corpus="$(ls "$corpus_dir" | wc -l)"
cargo run --release -q -p aeolus-experiments --bin repro -- \
    fuzz --corpus "$corpus_dir" --cases "$((n_corpus + 50))" --seed 99
# Guided search must strictly beat blind sampling on equal budgets
# (distinct novelty signatures) — the acceptance bar for corpus guidance.
cargo run --release -q -p aeolus-experiments --bin repro -- fuzz --stats --cases 25 --seed 1

# Cache-consistency gate: a warm rerun of the quick-scale fig9 sweep must
# (a) serve every cell from the content-addressed cache (zero misses),
# (b) re-verify a sample of hits bit-exactly (--cache-verify recomputes and
# byte-compares; any divergence panics), and (c) produce a byte-identical
# report. A cold third run with --no-cache proves the bypass still works.
cache_dir="$(mktemp -d)"
(cd "$cache_dir" && "$OLDPWD/target/release/repro" fig9 --scale quick --jobs 2 \
    | grep -v "took\|total\|events/s" > cold.txt)
(cd "$cache_dir" && "$OLDPWD/target/release/repro" fig9 --scale quick --jobs 2 --cache-verify \
    | grep -v "took\|total\|events/s" > warm.txt)
grep -q "\[cache: 0 hit(s)" "$cache_dir/cold.txt" || {
    echo "cold run should miss every cell" >&2; exit 1; }
grep -q " 0 miss(es)" "$cache_dir/warm.txt" || {
    echo "warm run should hit every cell" >&2; exit 1; }
grep "\[cache:" "$cache_dir/warm.txt" | grep -qv " 0 verified" || {
    echo "warm --cache-verify run verified no cells" >&2; exit 1; }
cmp <(grep -v "cache:" "$cache_dir/cold.txt") <(grep -v "cache:" "$cache_dir/warm.txt")
(cd "$cache_dir" && "$OLDPWD/target/release/repro" fig9 --scale quick --jobs 2 --no-cache \
    | grep -v "took\|total\|events/s\|cache:" > nocache.txt)
cmp <(grep -v "cache:" "$cache_dir/cold.txt") "$cache_dir/nocache.txt"
echo "cache gate: warm rerun all-hit, verify sample bit-exact, report byte-identical"

# The wall-time gates run last, so a slow or busy host that fails one has
# already let every deterministic step above run and report.
#
# The committed baseline the bench gates below take event counts and
# same-run ratios from: the newest repo-root BENCH_<n>.json snapshot. An
# absolute wall-time gate compares against the fastest committed snapshot
# at the same event count instead, so a snapshot recorded while the host
# was slow never loosens it.
baseline="$(ls BENCH_*.json | sort -V | tail -n 1)"
echo "bench baseline: $baseline"

# NullTracer overhead gate: a fresh engine-bench run's incast kernel must
# stay close to the committed baseline ($baseline above). The tracer
# hooks are statically dispatched to no-ops by default, so any regression
# here means the abstraction stopped compiling away. The tolerance is
# wider than the 2% acceptance bar (measured with full iterations on a
# quiet machine) to absorb CI-host noise; override with AEOLUS_OVERHEAD_TOL.
#
# Every bench gate below compares wall time for the same simulated work
# (`median_ns` at an equal `units` count), never events/s: a change that
# stops scheduling events nothing observes lowers events/s by construction
# while the run gets faster.
bench_out="$(mktemp -d)/bench_ci.json"
AEOLUS_BENCH_ITERS="${AEOLUS_BENCH_ITERS:-5}" AEOLUS_BENCH_WARMUP="${AEOLUS_BENCH_WARMUP:-1}" \
    cargo run --release -q -p aeolus-bench --bin aeolus-bench -- \
    --engine-only --out "$bench_out"
python3 - "$bench_out" "$baseline" BENCH_*.json <<'EOF'
import json, os, sys
def bench(path, name, required=True):
    for suite in json.load(open(path))["suites"]:
        for b in suite["benches"]:
            if b["name"] == name:
                return b
    if required:
        raise SystemExit(f"{name} missing from {path}")
def fastest(name, units):
    """(snapshot, reading) of the fastest committed `name` at `units`."""
    found = [(p, bench(p, name, False)) for p in sys.argv[3:]]
    return min(((p, b) for p, b in found if b and b["units"] == units),
               key=lambda pb: pb[1]["median_ns"])
fresh = bench(sys.argv[1], "incast_sim_wheel")
base = bench(sys.argv[2], "incast_sim_wheel")
tol = float(os.environ.get("AEOLUS_OVERHEAD_TOL", "0.15"))
assert fresh["units"] == base["units"], (
    f"incast_sim_wheel event count drifted: {fresh['units']} vs baseline {base['units']}")
snap, best = fastest("incast_sim_wheel", fresh["units"])
ratio = fresh["median_ns"] / best["median_ns"]
print(f"NullTracer overhead: incast_sim_wheel {fresh['median_ns']} ns vs {snap} {best['median_ns']} ns ({ratio:.3f}x)")
assert ratio <= 1.0 + tol, f"NullTracer kernel regressed {ratio:.3f}x > {1+tol:.2f}x baseline"
# Wall-time regression gate for the fully-traced kernel (the
# NullTracer-overhead bench's denominator): the recording path is a
# supported configuration and must not silently rot between BENCH_<n>.json
# snapshots. Same tolerance as the events/s floor it replaces: a rate of
# (1 - tol) x baseline is a time of baseline / (1 - tol). (The untraced
# kernel's floor is the tighter ratio gate above.)
fresh_rec = bench(sys.argv[1], "incast_sim_wheel_recorded")
base_rec = bench(sys.argv[2], "incast_sim_wheel_recorded")
assert fresh_rec["units"] == base_rec["units"], (fresh_rec["units"], base_rec["units"])
snap, best = fastest("incast_sim_wheel_recorded", fresh_rec["units"])
ns, ceil = fresh_rec["median_ns"], best["median_ns"] / (1.0 - tol)
print(f"wall-time gate: incast_sim_wheel_recorded {ns} ns vs {snap} {best['median_ns']} ns (ceiling {ceil:.0f})")
assert ns <= ceil, f"traced kernel regressed: {ns} ns > {ceil:.0f} ns ceiling"
# The same gate for the kernel under the conformance oracle: what `--check`
# and every fuzz case pay per event.
fresh_chk = bench(sys.argv[1], "incast_sim_wheel_checked")
base_chk = bench(sys.argv[2], "incast_sim_wheel_checked")
assert fresh_chk["units"] == base_chk["units"], (fresh_chk["units"], base_chk["units"])
snap, best = fastest("incast_sim_wheel_checked", fresh_chk["units"])
ns, ceil = fresh_chk["median_ns"], best["median_ns"] / (1.0 - tol)
print(f"wall-time gate: incast_sim_wheel_checked {ns} ns vs {snap} {best['median_ns']} ns "
      f"(ceiling {ceil:.0f})")
assert ns <= ceil, f"checked kernel regressed: {ns} ns > {ceil:.0f} ns ceiling"
# Same-session ratio gates: each traced kernel over the untraced one, all
# three measured in this run, so host load that slows every kernel alike
# cancels out. The ceilings are the baseline snapshot's ratios, loosened by
# the same tolerance. The absolute gates above stay as they are.
for name in ("incast_sim_wheel_recorded", "incast_sim_wheel_checked"):
    ratio = bench(sys.argv[1], name)["median_ns"] / fresh["median_ns"]
    base_ratio = bench(sys.argv[2], name)["median_ns"] / base["median_ns"]
    ceil = base_ratio * (1.0 + tol)
    print(f"ratio gate: {name} / incast_sim_wheel {ratio:.3f}x vs baseline {base_ratio:.3f}x "
          f"(ceiling {ceil:.3f}x)")
    assert ratio <= ceil, f"{name} regressed against the untraced kernel: {ratio:.3f}x > {ceil:.3f}x"
EOF

# Macro wall-time gate: one measured iteration of the quick-scale Figure 9
# sweep (the heaviest single kernel in the BENCH trajectory) must stay under
# the fastest committed wall time at its event count. One iteration is noisy, so the
# tolerance is wider than the engine gate's; override with AEOLUS_MACRO_TOL.
macro_out="$(mktemp -d)/bench_macro.json"
AEOLUS_BENCH_ITERS=1 AEOLUS_BENCH_WARMUP=1 \
    cargo run --release -q -p aeolus-bench --bin aeolus-bench -- --out "$macro_out"
python3 - "$macro_out" "$baseline" BENCH_*.json <<'EOF'
import json, os, sys
def bench(path, name, required=True):
    for suite in json.load(open(path))["suites"]:
        for b in suite["benches"]:
            if b["name"] == name:
                return b
    if required:
        raise SystemExit(f"{name} missing from {path}")
def fastest(name, units):
    """(snapshot, reading) of the fastest committed `name` at `units`."""
    found = [(p, bench(p, name, False)) for p in sys.argv[3:]]
    return min(((p, b) for p, b in found if b and b["units"] == units),
               key=lambda pb: pb[1]["median_ns"])
fresh = bench(sys.argv[1], "fig09_quick_serial")
base = bench(sys.argv[2], "fig09_quick_serial")
tol = float(os.environ.get("AEOLUS_MACRO_TOL", "0.30"))
# Bit-exactness gate: the kernel's total event count is deterministic, so a
# fresh run must process exactly as many events as the committed baseline.
# Any drift means a "performance" change altered simulation behavior — or
# what the engine schedules, and then the PR records the BENCH_<n>.json it
# is gated against from there on.
assert fresh["units"] == base["units"], (
    f"fig09 event count drifted: {fresh['units']} vs baseline {base['units']} — "
    "the hot path changed simulation behavior, not just its speed")
print(f"macro gate: fig09_quick_serial event count bit-exact ({fresh['units']} events)")
snap, best = fastest("fig09_quick_serial", fresh["units"])
ns, ceil = fresh["median_ns"], best["median_ns"] / (1.0 - tol)
print(f"macro gate: fig09_quick_serial {ns / 1e9:.2f} s vs {snap} {best['median_ns'] / 1e9:.2f} s (ceiling {ceil / 1e9:.2f} s)")
assert ns <= ceil, f"macro wall time regressed: {ns / 1e9:.2f} s > {ceil / 1e9:.2f} s ceiling"
EOF

echo "ci: OK"
