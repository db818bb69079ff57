//! **Attachment overhead** — the A/B throughput cost of each optional
//! runtime attachment, measured against one shared baseline.
//!
//! Runs the `runtime_scaling` workload (the paper's dynamic subset-sum
//! query, 1000 samples per period, over the steady ~100k pkt/s
//! data-center feed) on the 4-way sharded runtime. The trace and the
//! shard plan are built once. The baseline is `RuntimeConfig::new(4)`
//! under [`Supervision::Abort`] with nothing attached; each arm differs
//! from it in exactly one thing:
//!
//! | arm | attachment |
//! |---|---|
//! | `supervision` | [`Supervision::Quarantine`] plus an armed, never-firing fault plan (worker panics parked at `u64::MAX`), so the per-tuple fault check stays on the hot path |
//! | `telemetry` | a fresh [`Registry`] per rep: every counter, gauge, histogram, sampled span and the under-sampling detector |
//! | `durability` | a fresh durable store per rep: window checkpoints every 2 windows plus the carry-over WAL, fsync `never` |
//! | `profile` | a fresh [`Profiler`] per rep: every batch stamped ingest → route → ring wait → process → flush → barrier wait → merge → emit |
//!
//! Each rep runs the baseline and every arm once, rotating the order so
//! no arm always runs first; best-of-reps is reported. Every run's
//! merged windows must equal the baseline's (same window keys, same
//! rows): an attachment may cost time, never change results.
//!
//! The acceptance gate (enforced by `scripts/check.sh` over
//! `BENCH_overhead.json`) is ≤ 5% throughput overhead per arm. The
//! report also records a profiled 8-shard stage attribution
//! (`attribution_8shard`): per-stage share of traced time, the dominant
//! stage, and the router's share.

use std::path::Path;
use std::time::Instant;

use sso_bench::{header, maybe_json};
use sso_core::libs::subset_sum::SubsetSumOpConfig;
use sso_core::{queries, shard_plan, OpError, OperatorSpec, ShardPlan, WindowOutput};
use sso_faults::{FaultEvent, FaultPlan};
use sso_gigascope::{run_plan_sharded_with, SelectionNode};
use sso_netgen::datacenter_feed;
use sso_obs::Registry;
use sso_profile::{Profiler, ProfilerConfig};
use sso_runtime::{DurabilityConfig, RuntimeConfig, Supervision};
use sso_types::Packet;

const SEED: u64 = 0x5ca1e;
const SECONDS: u64 = 20;
const WINDOW: u64 = 5;
const TARGET: usize = 1000;
const SHARDS: usize = 4;
const ATTRIB_SHARDS: usize = 8;
const REPS: usize = 7;
const CHECKPOINT_EVERY: u64 = 2;

#[derive(serde::Serialize)]
struct Config {
    feed: &'static str,
    seed: u64,
    seconds: u64,
    packets: usize,
    window_secs: u64,
    target_samples: usize,
    shards: usize,
    reps: usize,
    checkpoint_every: u64,
    fsync: &'static str,
}

#[derive(serde::Serialize)]
struct Mode {
    name: &'static str,
    secs: f64,
    tuples_per_sec: f64,
    windows: usize,
    /// Throughput lost against the baseline, percent (negative = noise
    /// in this arm's favor); 0 for the baseline itself.
    overhead_pct: f64,
}

#[derive(serde::Serialize)]
struct StageShare {
    stage: &'static str,
    events: u64,
    total_ns: u64,
    share_pct: f64,
}

/// Where the time goes at 8 shards, recorded alongside the gate numbers.
#[derive(serde::Serialize)]
struct Attribution {
    shards: usize,
    stages: Vec<StageShare>,
    dominant_stage: Option<&'static str>,
    router_share_pct: f64,
    window_p50_ns: u64,
    window_p99_ns: u64,
    window_count: u64,
    dropped_events: u64,
}

#[derive(serde::Serialize)]
struct Report {
    config: Config,
    baseline: Mode,
    arms: Vec<Mode>,
    metrics_in_final_snapshot: usize,
    attribution_8shard: Attribution,
}

fn spec(shards: usize) -> impl Fn(usize) -> Result<OperatorSpec, OpError> {
    move |_shard| {
        let cfg = SubsetSumOpConfig {
            target: TARGET.div_ceil(shards),
            initial_z: 1.0,
            ..Default::default()
        };
        queries::subset_sum_query(WINDOW, cfg, false)
    }
}

fn baseline_config(shards: usize) -> RuntimeConfig {
    let mut cfg = RuntimeConfig::new(shards);
    cfg.supervision = Supervision::Abort;
    cfg
}

/// Adds one mode's attachment to the baseline config, fresh for this
/// rep; the path is the rep's store directory.
type Attach = fn(RuntimeConfig, &Path) -> RuntimeConfig;

/// The baseline first, then one arm per attachment.
const MODES: [(&str, Attach); 5] = [
    ("baseline", |cfg, _| cfg),
    ("supervision", |cfg, _| {
        let mut plan = FaultPlan::empty(0);
        for shard in 0..SHARDS {
            plan.events.push(FaultEvent::WorkerPanic { shard, at_tuple: u64::MAX });
        }
        RuntimeConfig { supervision: Supervision::Quarantine, ..cfg }
            .with_faults(plan.into_shared())
    }),
    ("telemetry", |cfg, _| cfg.with_registry(Registry::new())),
    ("durability", |cfg, store| {
        let mut durability = DurabilityConfig::new(store);
        durability.checkpoint_every = CHECKPOINT_EVERY;
        cfg.with_durability(durability)
    }),
    ("profile", |cfg, _| cfg.with_profile(Profiler::new(ProfilerConfig::default()))),
];

fn run_once(packets: &[Packet], plan: &ShardPlan, cfg: &RuntimeConfig) -> (f64, Vec<WindowOutput>) {
    let t0 = Instant::now();
    let report = run_plan_sharded_with(
        Box::new(SelectionNode::pass_all()),
        plan,
        spec(cfg.shards),
        cfg,
        packets.iter().cloned(),
    )
    .expect("sharded run");
    let secs = t0.elapsed().as_secs_f64();
    assert!(!report.degraded(), "the fault-free path must not degrade");
    (secs, report.windows)
}

fn attribution(packets: &[Packet], plan: &ShardPlan) -> Attribution {
    let profiler = Profiler::new(ProfilerConfig::default());
    run_once(packets, plan, &baseline_config(ATTRIB_SHARDS).with_profile(profiler.clone()));
    let rep = profiler.report();
    Attribution {
        shards: ATTRIB_SHARDS,
        stages: rep
            .stages
            .iter()
            .map(|s| StageShare {
                stage: s.stage.name(),
                events: s.events,
                total_ns: s.total_ns,
                share_pct: s.share_pct,
            })
            .collect(),
        dominant_stage: rep.dominant.map(|s| s.name()),
        router_share_pct: rep.router_share_pct,
        window_p50_ns: rep.windows.quantile(0.5),
        window_p99_ns: rep.windows.quantile(0.99),
        window_count: rep.window_count,
        dropped_events: rep.dropped_events,
    }
}

fn main() {
    let packets = datacenter_feed(SEED).take_seconds(SECONDS);
    let n = packets.len();
    let full = SubsetSumOpConfig { target: TARGET, initial_z: 1.0, ..Default::default() };
    let plan = shard_plan(&queries::subset_sum_query(WINDOW, full, false).unwrap())
        .expect("subset-sum is shard-mergeable");
    if !sso_bench::json_mode() {
        eprintln!("# {n} packets, {REPS} reps of {} rotated modes", MODES.len());
    }
    let store = std::env::temp_dir().join(format!("sso-overhead-{}", std::process::id()));

    // An untimed baseline run fixes the reference output (and warms up).
    let (_, reference) = run_once(&packets, &plan, &baseline_config(SHARDS));
    let mut best = [f64::INFINITY; MODES.len()];
    let mut metrics_in_final_snapshot = 0;
    for rep in 0..REPS {
        for i in 0..MODES.len() {
            let m = (rep + i) % MODES.len();
            let (name, attach) = MODES[m];
            let cfg = attach(baseline_config(SHARDS), &store.join(format!("rep{rep}")));
            let (secs, windows) = run_once(&packets, &plan, &cfg);
            let same = windows.len() == reference.len()
                && windows
                    .iter()
                    .zip(&reference)
                    .all(|(w, r)| w.window == r.window && w.rows == r.rows);
            assert!(same, "{name} changed the merged windows in rep {rep}");
            best[m] = best[m].min(secs);
            if let Some(registry) = &cfg.registry {
                metrics_in_final_snapshot = registry.snapshot().metrics.len();
            }
        }
    }
    let _ = std::fs::remove_dir_all(&store);

    let base_tps = n as f64 / best[0];
    let mut modes = MODES.iter().zip(best).map(|(&(name, _), secs)| {
        let tps = n as f64 / secs;
        let overhead_pct = 100.0 * (base_tps - tps) / base_tps;
        Mode { name, secs, tuples_per_sec: tps, windows: reference.len(), overhead_pct }
    });
    let report = Report {
        config: Config {
            feed: "datacenter",
            seed: SEED,
            seconds: SECONDS,
            packets: n,
            window_secs: WINDOW,
            target_samples: TARGET,
            shards: SHARDS,
            reps: REPS,
            checkpoint_every: CHECKPOINT_EVERY,
            fsync: "never",
        },
        baseline: modes.next().expect("baseline"),
        arms: modes.collect(),
        metrics_in_final_snapshot,
        attribution_8shard: attribution(&packets, &plan),
    };

    if maybe_json(&report) {
        return;
    }
    header("Attachment overhead: each arm vs the shared abort-on-panic baseline");
    println!("{:>12} {:>8} {:>12} {:>8} {:>9}", "mode", "secs", "tuples/s", "windows", "overhead");
    for m in std::iter::once(&report.baseline).chain(&report.arms) {
        println!(
            "{:>12} {:>8.3} {:>12.0} {:>8} {:>8.2}%",
            m.name, m.secs, m.tuples_per_sec, m.windows, m.overhead_pct,
        );
    }
    println!("{} metrics in the telemetry arm's final snapshot", report.metrics_in_final_snapshot);
    let a = &report.attribution_8shard;
    println!("\nstage attribution at {} shards:", a.shards);
    for s in &a.stages {
        println!("{:>14} {:>10} events {:>6.1}%", s.stage, s.events, s.share_pct);
    }
    println!(
        "dominant: {} | router share: {:.1}% | {} windows, {} dropped events",
        a.dominant_stage.unwrap_or("-"),
        a.router_share_pct,
        a.window_count,
        a.dropped_events,
    );
}
