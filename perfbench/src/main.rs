//! Host-speed benchmark of the npr router simulator.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the named workload from the seed, runs it in repetitions
//! until `--seconds` of host time are used, checks that every run
//! drains and balances its packet ledger, and prints one JSON line:
//! the end-to-end metrics with `--trace 0`, the per-layer split and
//! the model's exact outcome with `--trace 1`. `BENCHMARK.json` at the
//! repository root names every metric; `perfbench/README.md` defines
//! them.

mod cpu;
mod probe;
mod workload;

use std::sync::Arc;
use std::time::Instant;

use probe::{ratio, Probes};
use workload::{run_rep, setup_only, Inputs, Rep, Workload};

const USAGE: &str = "usage: perfbench --workload <flood|services_churn|qos_overload|fabric8> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Setup samples a run takes on each CPU at least. Build-only samples
/// are added until there are this many per CPU and they have used
/// `SETUP_SHARE` of the run's seconds: a `flood` build takes a few
/// milliseconds and swings by a third between single samples, so cheap
/// builds get hundreds.
const MIN_SETUPS: usize = 5;
const SETUP_SHARE: f64 = 0.05;

/// The build-time quantile `setup_s` reads. A neighbour or a cold cache
/// only adds time to a build, so the fast tail tracks the build's own
/// cost, as the slice quantile does on one thread.
const SETUP_QUANTILE: f64 = 0.1;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad --seed {value}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive: {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1: {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One metric as printed: name, unit, value.
type Metric = (String, &'static str, f64);

/// A finished run.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                // Every metric is finite by construction (`ratio`
                // guards empty denominators); a stray non-finite value
                // would make the line invalid JSON.
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The `p`-quantile of `v`, linear between order statistics (0 when
/// empty).
fn quantile(mut v: Vec<f64>, p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let k = (v.len() - 1) as f64 * p;
    let (lo, hi) = (k.floor() as usize, k.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (k - lo as f64)
}

/// The slice quantile that stands for a run's speed. On one thread a
/// neighbour can only add time, in phases lasting seconds, so the fast
/// tail tracks the simulator's own speed: over ten 10 s runs of `flood`
/// the 10th-percentile slice spread 0.05 where the median spread 0.29.
/// Threads that meet at a barrier every epoch also wait for each
/// other; their fast tail is lucky scheduling (the fabric's spread
/// 0.14 at p10, 0.07 at the median), so they take the median.
fn speed_quantile(threads: usize) -> f64 {
    if threads == 1 {
        0.1
    } else {
        0.5
    }
}

/// The `p`-quantile slice slowdown over `reps`.
fn slowdown<'a>(reps: impl IntoIterator<Item = &'a Rep>, p: f64) -> f64 {
    quantile(
        reps.into_iter()
            .flat_map(|r| r.slices.iter().map(|s| s.slowdown()))
            .collect(),
        p,
    )
}

/// Host kpps of the same fast slices: the `1 - p` quantile over `reps`.
fn host_kpps<'a>(reps: impl IntoIterator<Item = &'a Rep>, p: f64) -> f64 {
    quantile(
        reps.into_iter()
            .flat_map(|r| r.slices.iter().map(|s| s.host_kpps()))
            .collect(),
        1.0 - p,
    )
}

/// The process's peak resident set (`VmHWM`), MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Repeats `rep(k)` for k = 0, 1, ... until the next repetition would
/// overrun `seconds` since `start` (at least once).
fn repeat(start: Instant, seconds: f64, mut rep: impl FnMut(usize) -> Rep) -> Vec<Rep> {
    let mut reps = vec![rep(0)];
    while start.elapsed().as_secs_f64() + reps.last().map_or(0.0, |r| r.wall_s) <= seconds {
        reps.push(rep(reps.len()));
    }
    reps
}

/// A run is clean when no op failed and every repetition reproduced
/// the first one's simulated outcome exactly.
fn clean<'a>(reps: impl IntoIterator<Item = &'a Rep>, reference: &Rep) -> bool {
    reps.into_iter().all(|r| {
        r.failed == 0 && r.fingerprint == reference.fingerprint && r.model == reference.model
    })
}

/// The end-to-end metrics, tracing off. A single-threaded workload pins
/// repetition `k` (and build-only sample `k`) to allowed CPU `k mod n`,
/// so every CPU carries an equal share of the samples; the fabric steps
/// on every CPU at once and is not pinned. Time per slice is read at
/// [`speed_quantile`] over all slices, set-up time at [`SETUP_QUANTILE`]
/// over all builds.
fn untraced(w: Workload, seed: u64, seconds: f64) -> Outcome {
    let inputs = Inputs::new(w, seed);
    // Read before pinning: a pinned thread sees one CPU.
    let threads = w.threads();
    let affinity = cpu::Affinity::save();
    let cpus = if threads == 1 { affinity.cpus() } else { &[] };
    let n = cpus.len().max(1);
    let pin = |k: usize| {
        if let Some(&c) = cpus.get(k % n) {
            cpu::pin(c);
        }
    };
    let start = Instant::now();
    let reps = repeat(start, seconds, |k| {
        pin(k);
        run_rep(w, &inputs, threads, None)
    });
    let mut setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let mut extra = 0.0;
    while setups.len() < MIN_SETUPS * n || extra < SETUP_SHARE * seconds {
        pin(setups.len());
        let s = setup_only(w, &inputs);
        extra += s;
        setups.push(s);
    }
    let p = speed_quantile(threads);
    let slowdown = slowdown(&reps, p);
    eprintln!(
        "{} seed {seed}: {} reps, {} builds on CPUs {cpus:?}, slowdown {slowdown:.2}, fingerprint {:#018x}",
        w.name(),
        reps.len(),
        setups.len(),
        reps[0].fingerprint
    );
    Outcome {
        correct: clean(&reps, &reps[0]),
        attempted: reps.iter().map(|r| r.ops).sum(),
        failed: reps.iter().map(|r| r.failed).sum(),
        metrics: vec![
            ("setup_s".into(), "s", quantile(setups, SETUP_QUANTILE)),
            ("slowdown".into(), "x", slowdown),
            ("host_kpps".into(), "kpps", host_kpps(&reps, p)),
            ("peak_rss_mib".into(), "MiB", peak_rss_mib()),
        ],
    }
}

/// The per-layer split and the model outcome. One untraced repetition
/// at the workload's thread count is the reference; the fabric adds an
/// untraced 1-thread repetition, which must reproduce it. Traced
/// repetitions then run single-threaded, so wall time is the time the
/// probes split, and must reproduce the reference too. Per-layer
/// numbers are published only if every fingerprint matches.
fn traced(w: Workload, seed: u64, seconds: f64) -> Outcome {
    let inputs = Inputs::new(w, seed);
    // Read before pinning: a pinned thread sees one CPU.
    let threads = w.threads();
    // Every single-threaded repetition runs on one CPU, so traced and
    // untraced ones compare like with like.
    let affinity = cpu::Affinity::save();
    let pin = || {
        if let Some(&c) = affinity.cpus().first() {
            cpu::pin(c);
        }
    };
    let start = Instant::now();
    if threads == 1 {
        pin();
    }
    let reference = run_rep(w, &inputs, threads, None);
    pin();
    let single = (threads > 1).then(|| run_rep(w, &inputs, 1, None));
    let probes = Arc::new(Probes::default());
    let reps = repeat(start, seconds, |_| run_rep(w, &inputs, 1, Some(&probes)));

    let untraced_1t = single.as_ref().unwrap_or(&reference);
    let mut all: Vec<&Rep> = vec![&reference];
    all.extend(single.iter());
    all.extend(reps.iter());
    let attempted = all.iter().map(|r| r.ops).sum();
    let failed = all.iter().map(|r| r.failed).sum();
    let matched = clean(all.iter().copied(), &reference);
    eprintln!(
        "{} seed {seed}: {} traced reps, fingerprint {:#018x}{}",
        w.name(),
        reps.len(),
        reference.fingerprint,
        if matched {
            ""
        } else {
            " NOT reproduced: per-layer numbers withheld"
        }
    );
    if !matched {
        return Outcome {
            correct: false,
            attempted,
            failed,
            metrics: Vec::new(),
        };
    }

    let builds = reps.len() as f64;
    let delivered: u64 = reps.iter().map(|r| r.delivered).sum();
    let p = &probes;
    let resumes = p.me.calls() as f64;
    let inside = (p.me.ns() + p.src.ns() + p.pe.ns()) as f64;
    let mut metrics: Vec<Metric> = vec![
        ("core.me_resume_ns".into(), "ns", p.me.mean_ns()),
        (
            "core.me_share".into(),
            "ratio",
            ratio(p.me.ns() as f64, p.run.ns() as f64),
        ),
        (
            "core.me_resumes_per_pkt".into(),
            "count",
            ratio(resumes, delivered as f64),
        ),
        (
            "ixp.engine_ns_per_resume".into(),
            "ns",
            ratio(p.run.ns() as f64 - inside, resumes),
        ),
        ("traffic.next_frame_ns".into(), "ns", p.src.mean_ns()),
        ("core.pe_fwdr_ns".into(), "ns", p.pe.mean_ns()),
        ("core.ctl_call_us".into(), "us", p.ctl.mean_ns() / 1e3),
        ("core.router_new_ms".into(), "ms", p.new.mean_ns() / 1e6),
        (
            "core.install_ms".into(),
            "ms",
            ratio(p.install.ns() as f64, builds) / 1e6,
        ),
        (
            "fabric.epoch_us".into(),
            "us",
            ratio(reference.horizon_host_s() * 1e6, reference.epochs as f64),
        ),
        ("fabric.epochs".into(), "count", reference.epochs as f64),
        (
            "fabric.msgs_per_epoch".into(),
            "count",
            ratio(reference.msgs as f64, reference.epochs as f64),
        ),
        (
            "fabric.thread_speedup".into(),
            "x",
            single.as_ref().map_or(0.0, |s| {
                ratio(slowdown([s], 0.5), slowdown([&reference], 0.5))
            }),
        ),
        (
            "bench.trace_overhead".into(),
            "x",
            ratio(slowdown(&reps, 0.5), slowdown([untraced_1t], 0.5)),
        ),
    ];
    metrics.extend(
        reference
            .model
            .iter()
            .map(|&(n, u, v)| (n.to_string(), u, v)),
    );
    metrics.push((
        "model.fingerprint_hi32".into(),
        "u32",
        (reference.fingerprint >> 32) as f64,
    ));
    metrics.push((
        "model.fingerprint_lo32".into(),
        "u32",
        (reference.fingerprint & 0xFFFF_FFFF) as f64,
    ));
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let out = if args.trace {
        traced(args.workload, args.seed, args.seconds)
    } else {
        untraced(args.workload, args.seed, args.seconds)
    };
    println!("{}", out.json());
    if !out.correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests;
