#!/usr/bin/env bash
# Tier-1 verification, hermetic edition: everything runs --offline so a
# clean checkout with no network and no registry cache must pass. Any
# compiler warning is an error (the tree stays warning-clean).
set -euo pipefail
cd "$(dirname "$0")/.."

export RUSTFLAGS="${RUSTFLAGS:-} -Dwarnings"

# Module-size gate: the plane refactor split the Router god object;
# no source module may grow back past 900 lines.
oversize="$(find crates -path '*/src/*' -name '*.rs' -exec wc -l {} + \
    | awk '$2 != "total" && $1 > 900 { print $2 " (" $1 " lines)" }')"
if [ -n "$oversize" ]; then
    echo "ERROR: module(s) over the 900-line limit:" >&2
    echo "$oversize" >&2
    exit 1
fi

# Tier-1: release build + full test suite.
cargo build --release --offline
cargo test -q --offline

# Keep the bench harness and every example compiling (they are not run
# by `cargo test`, so build them explicitly).
cargo build --release --offline --benches --examples

# The bench binary must also execute: quick mode runs every bench body
# exactly once without timing.
cargo bench --offline --bench paper -- --test

# The differential-oracle suite is the scheduler's correctness gate: it
# must run (not just compile) and actually execute its properties. A
# filtered-out or skipped suite fails this step.
diff_out="$(cargo test -q --offline -p npr-sim --test differential 2>&1)" || {
    echo "$diff_out"
    echo "ERROR: differential-oracle suite failed" >&2
    exit 1
}
echo "$diff_out"
if ! echo "$diff_out" | grep -Eq '^test result: ok\. [1-9][0-9]* passed'; then
    echo "ERROR: differential-oracle suite ran zero tests" >&2
    exit 1
fi

# The parallel-delivery differential gates: the conservative parallel
# engine must match the lock-step sequential oracle bit-for-bit, first
# at the engine level (npr-sim: seeded scenario generator plus the
# fault corpus, threads 2/4/8), then at the router level (npr-core:
# real fabrics under the full 8-class corpus, plus scatter sweeps).
# Release, so the full proptest case counts run; zero tests executed
# fails either gate.
par_sim_out="$(cargo test -q --release --offline -p npr-sim --test parallel_differential 2>&1)" || {
    echo "$par_sim_out"
    echo "ERROR: engine parallel differential suite failed" >&2
    exit 1
}
echo "$par_sim_out"
if ! echo "$par_sim_out" | grep -Eq '^test result: ok\. [1-9][0-9]* passed'; then
    echo "ERROR: engine parallel differential suite ran zero tests" >&2
    exit 1
fi
par_core_out="$(cargo test -q --release --offline -p npr-core --test parallel_differential 2>&1)" || {
    echo "$par_core_out"
    echo "ERROR: router parallel differential suite failed" >&2
    exit 1
}
echo "$par_core_out"
if ! echo "$par_core_out" | grep -Eq '^test result: ok\. [1-9][0-9]* passed'; then
    echo "ERROR: router parallel differential suite ran zero tests" >&2
    exit 1
fi

# The fabric gates: the multi-chassis topology crate must (a) keep the
# single-switch topology bit-identical to the pre-refactor fabric and
# the lockstep engine thread-invariant on every topology (differential
# suite, which carries the pinned fingerprints), (b) contain every
# fault class to the armed chassis and survive link failure, drain,
# and re-join with whole-fabric conservation (fault suite), and (c)
# replay whole clusters bit-for-bit under the parallel engine across
# the fault corpus (parallel differential). Release; zero tests
# executed fails each gate.
for suite in differential faults parallel_differential; do
    fabric_out="$(cargo test -q --release --offline -p npr-fabric --test "$suite" 2>&1)" || {
        echo "$fabric_out"
        echo "ERROR: fabric $suite suite failed" >&2
        exit 1
    }
    echo "$fabric_out"
    if ! echo "$fabric_out" | grep -Eq '^test result: ok\. [1-9][0-9]* passed'; then
        echo "ERROR: fabric $suite suite ran zero tests" >&2
        exit 1
    fi
done

# Record the scheduler perf baseline: events/sec (event queue vs oracle
# heap, hold model at 32 and at 8192 pending events) and per-experiment
# wall-clock, plus the parallel `threads` axis (fault-sweep wall-clock
# at 1/2/4/8 worker threads). simbench exits nonzero if the event queue
# diverges from the oracle or if the parallel fault sweep is not
# bit-identical to the sequential one.
cargo run --release --offline --bin simbench -- --quick --out BENCH_sim.json

# Parallel fault-sweep speedup gate: on hosts with at least 4 cores
# the threaded sweep must beat the sequential one by at least 2x
# (bit-equality is enforced by simbench itself before it emits any
# number). On smaller hosts the physical core count is the honest
# ceiling — the wall-clocks are still recorded with host_cores
# alongside, but no speedup is demanded of hardware that cannot
# provide one.
host_cores="$(grep -o '"host_cores": [0-9]*' BENCH_sim.json | grep -o '[0-9]*$')"
sweep_speedup="$(grep -o '"speedup_max": [0-9.]*' BENCH_sim.json | grep -o '[0-9.]*$')"
if [ "${host_cores:-1}" -ge 4 ]; then
    if ! awk -v s="$sweep_speedup" 'BEGIN { exit !(s >= 2.0) }'; then
        echo "ERROR: parallel fault-sweep speedup ${sweep_speedup}x < 2x on ${host_cores} cores" >&2
        exit 1
    fi
fi
echo "parallel sweep: speedup_max=${sweep_speedup}x on ${host_cores} host cores"

# The fault-injection suite is the robustness gate: run it explicitly
# in release so the full 64-seeded-scenarios-per-class sweep executes
# (debug builds shrink it to 4), and fail if it ran zero tests.
fault_out="$(cargo test -q --release --offline -p npr-core --test faults 2>&1)" || {
    echo "$fault_out"
    echo "ERROR: fault-injection suite failed" >&2
    exit 1
}
echo "$fault_out"
if ! echo "$fault_out" | grep -Eq '^test result: ok\. [1-9][0-9]* passed'; then
    echo "ERROR: fault-injection suite ran zero tests" >&2
    exit 1
fi

# The per-flow queue-manager suite is the overload-isolation gate: run
# it explicitly in release so the wheel-vs-oracle property suite and
# the AQM thread-invariance sweep execute at full case counts, and
# fail if it ran zero tests.
qm_out="$(cargo test -q --release --offline -p npr-core --test qm 2>&1)" || {
    echo "$qm_out"
    echo "ERROR: queue-manager suite failed" >&2
    exit 1
}
echo "$qm_out"
if ! echo "$qm_out" | grep -Eq '^test result: ok\. [1-9][0-9]* passed'; then
    echo "ERROR: queue-manager suite ran zero tests" >&2
    exit 1
fi

# Chaos-soak gate: one long seeded run with every fault class armed at
# once; conservation must hold, no StrongARM stall may outlive the
# health watchdog's detection bound, and the whole run is capped on
# wall clock. Run in release so the full 20 ms horizon executes, and
# fail if it ran zero tests. The suite runs twice — once under the
# sequential oracle and once at the host's thread ceiling (capped at
# 8) — so the fabric soak exercises the parallel engine too; when
# threaded it checks itself against the oracle fingerprint in-process.
soak_threads="$(nproc 2>/dev/null || echo 1)"
[ "$soak_threads" -le 8 ] || soak_threads=8
soak_counts="1"
[ "$soak_threads" -eq 1 ] || soak_counts="1 $soak_threads"
for nt in $soak_counts; do
    for pkg in npr-core npr-fabric; do
        soak_out="$(NPR_SIM_THREADS=$nt cargo test -q --release --offline -p $pkg --test soak 2>&1)" || {
            echo "$soak_out"
            echo "ERROR: chaos-soak gate ($pkg) failed at NPR_SIM_THREADS=$nt" >&2
            exit 1
        }
        echo "$soak_out"
        if ! echo "$soak_out" | grep -Eq '^test result: ok\. [1-9][0-9]* passed'; then
            echo "ERROR: chaos-soak gate ($pkg) ran zero tests at NPR_SIM_THREADS=$nt" >&2
            exit 1
        fi
    done
done

# Record the graceful-degradation curves (Mpps vs fault rate per
# injector class; seed-fixed, so the file is reproducible).
cargo run --release --offline -p npr-bench --bin experiments -- faults --out BENCH_faults.json

# Record the control-storm result: install/route-update churn must
# leave fast-path Mpps within noise of the no-churn baseline.
cargo run --release --offline -p npr-bench --bin experiments -- control --out BENCH_control.json

# Record the recovery episodes: for each fault class the health monitor
# must detect, recover, and return throughput to within 1% of the
# fault-free baseline. The JSON must exist and be non-empty.
cargo run --release --offline -p npr-bench --bin experiments -- recovery --out BENCH_recovery.json
if [ ! -s BENCH_recovery.json ]; then
    echo "ERROR: BENCH_recovery.json missing or empty" >&2
    exit 1
fi

# The route suite is the internet-scale gate: run it explicitly in
# release so the million-prefix build/teardown smoke test and the
# interleaved-churn property test execute at full size, and fail if it
# ran zero tests.
route_out="$(cargo test -q --release --offline -p npr-route 2>&1)" || {
    echo "$route_out"
    echo "ERROR: route suite failed" >&2
    exit 1
}
echo "$route_out"
if ! echo "$route_out" | grep -Eq '^test result: ok\. [1-9][0-9]* passed'; then
    echo "ERROR: route suite ran zero tests" >&2
    exit 1
fi

# Record the internet-scale routing sweeps (lookup scaling, Zipf cache
# hit rate, churn storms). The Zipf alpha=1.0 hit rate is deterministic
# (simulated traffic over a seed-fixed table) and must keep the
# 4096-slot cache at least half warm — below that the StrongARM miss
# path, not the MEs, would set the router's forwarding rate.
cargo run --release --offline -p npr-bench --bin experiments -- route --out BENCH_route.json
zipf_hit="$(grep '"alpha": 1.00' BENCH_route.json | grep -o '"hit_rate": [0-9.]*' | grep -o '[0-9.]*$')"
if ! awk -v h="${zipf_hit:-0}" 'BEGIN { exit !(h >= 0.5) }'; then
    echo "ERROR: Zipf alpha=1.0 route-cache hit rate ${zipf_hit:-missing} < 0.5" >&2
    exit 1
fi
echo "route cache: zipf alpha=1.0 hit rate ${zipf_hit}"

# Record the multi-chassis scaling sweeps (aggregate Mpps vs chassis
# count per topology) and the compound-fault conservation soak. Every
# soak run must report whole-fabric packet conservation holding — a
# single "false" fails the gate.
cargo run --release --offline -p npr-bench --bin experiments -- fabric --out BENCH_fabric.json
if ! grep -q '"conservation_holds": true' BENCH_fabric.json; then
    echo "ERROR: BENCH_fabric.json carries no conservation results" >&2
    exit 1
fi
if grep -q '"conservation_holds": false' BENCH_fabric.json; then
    echo "ERROR: whole-fabric conservation broke in a BENCH_fabric.json soak" >&2
    exit 1
fi
echo "fabric: conservation holds in every compound-fault soak"

# Record the QoS sweeps: sojourn distribution per AQM discipline at the
# standard bufferbloat overload, plus the elephant-ramp isolation
# curve. Two gates ride on the file: CoDel must hold p99 sojourn to at
# most half of drop-tail's (the point of a dequeue-time AQM), and no
# scenario may push any victim flow's goodput below 90% (the point of
# per-flow queues).
cargo run --release --offline -p npr-bench --bin experiments -- qos --out BENCH_qos.json
dt_p99="$(grep '"early_drops"' BENCH_qos.json | grep '"drop_tail"' \
    | grep -o '"p99_us": [0-9.]*' | grep -o '[0-9.]*$')"
cd_p99="$(grep '"early_drops"' BENCH_qos.json | grep '"codel"' \
    | grep -o '"p99_us": [0-9.]*' | grep -o '[0-9.]*$')"
if ! awk -v c="${cd_p99:-1e9}" -v d="${dt_p99:-0}" 'BEGIN { exit !(c * 2 <= d) }'; then
    echo "ERROR: CoDel p99 sojourn ${cd_p99:-missing}us not 2x better than drop-tail ${dt_p99:-missing}us" >&2
    exit 1
fi
starved="$(grep -o '"victim_goodput": [0-9.]*' BENCH_qos.json \
    | grep -o '[0-9.]*$' | awk '$1 < 0.9')"
if [ -n "$starved" ]; then
    echo "ERROR: victim goodput under 0.9 in BENCH_qos.json: $starved" >&2
    exit 1
fi
echo "qos: codel p99 ${cd_p99}us vs drop-tail ${dt_p99}us; all victim goodputs >= 0.9"

# Hermetic-build gate: the dependency graph may contain only workspace
# crates. Check both the resolved tree and the lockfile.
if cargo tree --offline --workspace --edges normal,dev,build --prefix none \
        | grep -v "^npr-" | grep -v "^$"; then
    echo "ERROR: non-workspace dependency in the tree" >&2
    exit 1
fi
if grep '^name = ' Cargo.lock | grep -v '^name = "npr-'; then
    echo "ERROR: non-workspace package in Cargo.lock" >&2
    exit 1
fi

echo "verify: OK"
