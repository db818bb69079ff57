//! Batch-replay benchmark for the stream sampling operator.
//!
//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`, run
//! from the repository root. One thread generates the whole packet
//! trace from the seed before anything is timed; the trace is then
//! handed to the engine as fast as it takes it (closed loop). Every
//! window result is checked against an exact oracle.
//!
//! With `--trace 0` it times end-to-end passes for `S` seconds and
//! prints throughput, set-up time, peak memory growth and CPU per
//! packet. With `--trace 1` it replays the same job stage by stage with
//! a span around each layer call and prints the per-layer ledger.
//! The last stdout line is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.

mod host;
mod ledger;
mod metrics;
mod oracle;
#[cfg(test)]
mod selftest;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use sso_core::SamplingOperator;
use sso_gigascope::{run_plan, SelectionNode, TwoLevelPlan};
use sso_query::{parse_query, plan, PlannerConfig};
use sso_types::Packet;

use ledger::{Replay, Tracer};
use metrics::json_str;
use oracle::{Oracle, Verdict};
use workload::{same_windows, Engine, SetupTimes, Workload};

/// Where runs keep their scratch files (durable stores, span dumps),
/// relative to the directory the benchmark runs from.
const WORK_DIR: &str = ".perfbench";
/// Set-up repetitions behind the `setup_s` median.
const SETUP_REPS: usize = 201;
/// Timed passes a `--trace 0` run makes at least.
const MIN_PASSES: usize = 3;
/// Rounds a `--trace 1` run makes at least.
const MIN_ROUNDS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload {{{}}} --seed N --seconds S --trace 0|1",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut map = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        map.insert(flag.as_str(), value.as_str());
    }
    let get = |k: &str| map.get(k).copied().unwrap_or_else(|| usage());
    let args = Args {
        workload: Workload::parse(get("--workload")).unwrap_or_else(|| usage()),
        seed: get("--seed").parse().unwrap_or_else(|_| usage()),
        seconds: get("--seconds").parse().unwrap_or_else(|_| usage()),
        trace: match get("--trace") {
            "0" => false,
            "1" => true,
            _ => usage(),
        },
    };
    if map.len() != 4 {
        usage();
    }
    args
}

/// The metrics of one run, in print order.
#[derive(Default)]
struct Report {
    verdict: Verdict,
    /// Self-checks that failed (catalogue, oracle self-test, replay).
    problems: Vec<String>,
    metrics: Vec<(&'static str, f64)>,
}

impl Report {
    fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    fn add(&mut self, v: Verdict) {
        self.verdict.checked += v.checked;
        self.verdict.failed += v.failed;
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// The final line. Every metric of the section must be present.
    fn render(mut self, section: &[metrics::MetricDef]) -> String {
        let mut fields = Vec::new();
        for def in section {
            let value = match self.metrics.iter().find(|(n, _)| *n == def.name) {
                Some(&(_, v)) if v.is_finite() => v,
                Some(_) => {
                    self.problems.push(format!("{} is not finite", def.name));
                    0.0
                }
                None => {
                    self.problems.push(format!("{} was not measured", def.name));
                    0.0
                }
            };
            fields.push(format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(def.name),
                json_str(def.unit)
            ));
        }
        for p in &self.problems {
            eprintln!("perfbench: check failed: {p}");
        }
        if self.verdict.checked == 0 {
            eprintln!("perfbench: check failed: no window was checked");
        }
        let correct =
            self.problems.is_empty() && self.verdict.failed == 0 && self.verdict.checked > 0;
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.verdict.checked.max(1),
            self.verdict.failed,
            fields.join(", ")
        )
    }
}

fn fingerprint(args: &Args, packets: usize) -> String {
    let per_workload: Vec<String> = Workload::ALL
        .iter()
        .map(|w| format!("{}: {}", json_str(w.name()), w.trace_seconds()))
        .collect();
    format!(
        "{{\"host\": {{\"nproc\": {}, \"cpu\": {}, \"rustc\": {}}}, \"workload\": {}, \
         \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"packets\": {packets}, \
         \"trace_seconds_per_workload\": {{{}}}}}",
        host::nproc(),
        json_str(&host::cpu_model()),
        json_str(host::rustc_version()),
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        per_workload.join(", ")
    )
}

/// Build the engine `SETUP_REPS` times; the median total is `setup_s`,
/// and the per-stage medians feed the ledger.
fn measure_setup(w: Workload, durable: Option<&Path>) -> Result<(Engine, Setups), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut engine = None;
    // One block of repetitions per core, so no repetition pays for a
    // migration.
    let mut cores = host::CoreRotation::new();
    let block = SETUP_REPS.div_ceil(cores.len());
    let mut slot = 0;
    for rep in 0..SETUP_REPS {
        if rep % block == 0 {
            slot = cores.advance();
        }
        let (e, t) = Engine::build(w, w.shards(), durable)?;
        times.push((slot, t));
        engine = Some(e);
    }
    Ok((engine.expect("at least one set-up"), times))
}

/// Set-up times, each tagged with the core slot it ran on.
type Setups = Vec<(usize, SetupTimes)>;

fn median_of(times: &Setups, f: impl Fn(&SetupTimes) -> f64) -> f64 {
    host::core_balanced_median(&times.iter().map(|(slot, t)| (*slot, f(t))).collect::<Vec<_>>())
}

/// Checks every run makes outside the timed region: the oracle rejects
/// a corrupted window, and a durable run's output equals the same run
/// in memory.
fn self_checks(
    report: &mut Report,
    w: Workload,
    oracle: &Oracle,
    windows: &[sso_core::WindowOutput],
    packets: &[Packet],
) -> Result<(), String> {
    report.check(oracle.rejects_corruption(windows), || {
        format!("the {} oracle accepted a corrupted window", w.name())
    });
    if w == Workload::KmvDurable {
        let (inmem, _) = Engine::build(w, w.shards(), None)?;
        let pass = inmem.run(packets)?;
        report.check(same_windows(&pass.windows, windows), || {
            "durable output differs from the in-memory run".into()
        });
    }
    Ok(())
}

fn timed_run(args: &Args, packets: &[Packet], store_dir: &Path) -> Result<Report, String> {
    let w = args.workload;
    let mut report = Report::default();
    let durable = (w == Workload::KmvDurable).then_some(store_dir);
    let (engine, setups) = measure_setup(w, durable)?;
    let oracle = Oracle::new(w, packets);

    // Warm-up pass: fills caches and lazy state, and is checked too.
    let warm = engine.run(packets)?;
    report.add(oracle.check(&warm.windows, warm.dropped > 0 || warm.coverage < 1.0));
    self_checks(&mut report, w, &oracle, &warm.windows, packets)?;
    drop(warm);

    let mut tps = Vec::new();
    let mut rss_mb = Vec::new();
    let (mut cpu_s, mut pkts) = (0.0, 0u64);
    // A single-threaded engine takes its passes on each core in turn;
    // the sharded engines' threads are left to the scheduler.
    let mut cores = engine.plan.is_none().then(host::CoreRotation::new);
    let start = Instant::now();
    while tps.len() < MIN_PASSES || start.elapsed().as_secs() < args.seconds {
        let slot = cores.as_mut().map_or(0, host::CoreRotation::advance);
        host::reset_peak_rss();
        let cpu0 = host::cpu_seconds();
        let t0 = Instant::now();
        let pass = engine.run(packets)?;
        let secs = t0.elapsed().as_secs_f64();
        cpu_s += host::cpu_seconds() - cpu0;
        rss_mb.push(host::peak_rss_kb() as f64 / 1024.0);
        pkts += packets.len() as u64;
        tps.push((slot, packets.len() as f64 / secs));
        report.add(oracle.check(&pass.windows, pass.dropped > 0 || pass.coverage < 1.0));
    }
    let values: Vec<f64> = tps.iter().map(|&(_, v)| v).collect();
    let (q1, q2, q3) = host::quartiles(&values);
    let throughput = host::core_balanced_median(&tps);
    println!(
        "{{\"passes\": {}, \"throughput_tps\": {{\"q1\": {q1}, \"median\": {q2}, \"q3\": {q3}, \
         \"core_balanced_median\": {throughput}, \"each\": {values:?}}}, \"peak_rss_mb\": {rss_mb:?}}}",
        tps.len()
    );
    report.set("throughput_tps", throughput);
    report.set("setup_s", median_of(&setups, SetupTimes::total));
    // Peak memory is the run's peak: the largest of its passes.
    report.set("peak_rss_mb", rss_mb.iter().copied().fold(0.0, f64::max));
    report.set("cpu_s_per_mpkt", cpu_s / pkts as f64 * 1e6);
    Ok(report)
}

/// Everything one traced round measured.
#[derive(Default)]
struct Rounds {
    engine_s: Vec<f64>,
    inmem_s: Vec<f64>,
    untraced_replay_s: Vec<f64>,
    traced_replay_s: Vec<f64>,
    baseline_s: Vec<f64>,
    busy_ratio: Vec<f64>,
    stalls_per_mtuple: Vec<f64>,
    stalls_per_mtuple_1shard: Vec<f64>,
    tracers: Vec<Tracer>,
    last_replay: Option<Replay>,
}

fn traced_run(args: &Args, packets: &[Packet], store_dir: &Path) -> Result<Report, String> {
    let w = args.workload;
    let n = packets.len() as f64;
    let mut report = Report::default();
    let durable = (w == Workload::KmvDurable).then_some(store_dir);
    let (engine, setups) = measure_setup(w, durable)?;
    let oracle = Oracle::new(w, packets);
    let inmem = match w {
        Workload::KmvDurable => Some(Engine::build(w, w.shards(), None)?.0),
        _ => None,
    };
    let one_shard = match w {
        Workload::SsSharded => Some(Engine::build(w, 1, None)?.0),
        _ => None,
    };
    // The honest baseline: one operator at the full budget through the
    // single-threaded `run_plan`, with no hand-off.
    let single_spec = || {
        let q = parse_query(&workload::ss_query(workload::SS_TARGET)).map_err(|e| e.to_string())?;
        let spec =
            plan(&q, &Packet::schema(), &PlannerConfig::standard()).map_err(|e| e.to_string())?;
        SamplingOperator::new(spec).map_err(|e| e.to_string())
    };

    let mut r = Rounds::default();
    let start = Instant::now();
    while r.engine_s.len() < MIN_ROUNDS || start.elapsed().as_secs() < args.seconds {
        let t0 = Instant::now();
        let pass = engine.run(packets)?;
        let secs = t0.elapsed().as_secs_f64();
        r.engine_s.push(secs);
        report.add(oracle.check(&pass.windows, pass.dropped > 0 || pass.coverage < 1.0));
        if r.engine_s.len() == 1 {
            self_checks(&mut report, w, &oracle, &pass.windows, packets)?;
        }
        if !pass.shards.is_empty() {
            let busy: f64 = pass.shards.iter().map(|s| s.busy().as_secs_f64()).sum();
            let tuples: u64 = pass.shards.iter().map(|s| s.tuples()).sum();
            let stalls: u64 = pass.shards.iter().map(|s| s.stalls()).sum();
            r.busy_ratio.push(busy / (secs * engine.cfg.resolved_workers() as f64));
            r.stalls_per_mtuple.push(stalls as f64 * 1e6 / tuples.max(1) as f64);
        }

        if let Some(e) = &inmem {
            let t0 = Instant::now();
            let p = e.run(packets)?;
            r.inmem_s.push(t0.elapsed().as_secs_f64());
            report.add(oracle.check(&p.windows, p.dropped > 0 || p.coverage < 1.0));
        }
        if let Some(e) = &one_shard {
            let p = e.run(packets)?;
            let tuples: u64 = p.shards.iter().map(|s| s.tuples()).sum();
            let stalls: u64 = p.shards.iter().map(|s| s.stalls()).sum();
            r.stalls_per_mtuple_1shard.push(stalls as f64 * 1e6 / tuples.max(1) as f64);
            report.add(oracle.check(&p.windows, p.dropped > 0 || p.coverage < 1.0));
        }
        if w == Workload::SsSharded {
            let plan = TwoLevelPlan::new(Box::new(SelectionNode::pass_all()), single_spec()?);
            let t0 = Instant::now();
            let base = run_plan(plan, packets.iter().copied()).map_err(|e| e.to_string())?;
            r.baseline_s.push(t0.elapsed().as_secs_f64());
            report.add(oracle.check(&base.windows, base.ring_dropped > 0));
        }

        // The same stages untraced, then traced: their difference is
        // what the spans cost.
        let mut off = Tracer::new(false);
        let plain = ledger::replay(&engine, packets, &mut off)?;
        r.untraced_replay_s.push(plain.wall_s);
        drop(plain);
        let mut tr = Tracer::new(true);
        let staged = ledger::replay(&engine, packets, &mut tr)?;
        r.traced_replay_s.push(staged.wall_s);
        // The ledger decomposes the timed run's work only if the staged
        // replay yields the very same windows.
        let same = same_windows(&staged.windows, &pass.windows);
        report.check(same, || "staged replay windows differ from the engine's".into());
        report.add(Verdict {
            checked: staged.windows.len() as u64,
            failed: if same { 0 } else { staged.windows.len() as u64 },
        });
        r.tracers.push(tr);
        r.last_replay = Some(staged);
    }

    let spans: Vec<ledger::Span> =
        r.tracers.iter().flat_map(|t| t.spans().iter().copied()).collect();
    let last = r.tracers.last().expect("at least one traced round");
    let span_file = Path::new(WORK_DIR).join(format!("spans-{}-seed{}.tsv", w.name(), args.seed));
    last.write(&span_file).map_err(|e| format!("{}: {e}", span_file.display()))?;
    println!(
        "{{\"spans\": {}, \"span_file\": {}}}",
        last.spans().len(),
        json_str(&span_file.to_string_lossy())
    );

    let replay = r.last_replay.take().expect("at least one traced round");
    let per_item = |name: &str, scale: f64| {
        let t = ledger::totals(&spans, name);
        if t.items == 0 {
            0.0
        } else {
            t.ns as f64 / t.items as f64 / scale
        }
    };
    let per_span = |name: &str, scale: f64| {
        let t = ledger::totals(&spans, name);
        if t.count == 0 {
            0.0
        } else {
            t.ns as f64 / t.count as f64 / scale
        }
    };
    let close: Vec<f64> = ledger::totals(&spans, "core.window_close")
        .durations_ns
        .iter()
        .map(|&ns| ns as f64 / 1e3)
        .collect();
    let (_, close_p50, _) = host::quartiles(&close);
    let close_p95 = percentile(&close, 0.95);
    let ops = |f: fn(&sso_core::OperatorStats) -> u64| -> f64 {
        replay.op_stats.iter().map(f).sum::<u64>() as f64
    };
    let med = |xs: &[f64]| if xs.is_empty() { 0.0 } else { host::median(xs) };
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let st = replay.store;

    report.set("types.to_tuple_ns", per_item("types.to_tuple", 1.0));
    report.set("query.parse_us", median_of(&setups, |t| t.parse) * 1e6);
    report.set("query.plan_us", median_of(&setups, |t| t.plan) * 1e6);
    report.set("analysis.audit_us", median_of(&setups, |t| t.audit) * 1e6);
    report.set("core.process_ns", per_item("core.process", 1.0));
    report.set("core.window_close_us_p50", close_p50);
    report.set("core.window_close_us_p95", close_p95);
    report.set("core.admit_ratio", ratio(ops(|s| s.admitted), ops(|s| s.tuples)));
    report.set(
        "core.cleanings_per_ktuple",
        ratio(ops(|s| s.cleaning_phases) * 1e3, ops(|s| s.tuples)),
    );
    report.set("core.evict_ratio", ratio(ops(|s| s.evictions), ops(|s| s.groups_created)));
    report.set("core.groups_per_window", ratio(ops(|s| s.groups_created), ops(|s| s.windows)));
    report.set("runtime.route_ns", per_item("runtime.route", 1.0));
    report.set(
        "runtime.ring_batch_ns",
        match &engine.plan {
            None => 0.0,
            Some(_) => {
                let sample: Vec<sso_types::Tuple> =
                    packets.iter().take(1 << 16).map(Packet::to_tuple).collect();
                let capacity = engine
                    .cfg
                    .sizing
                    .and_then(|h| h.ring_batches)
                    .unwrap_or(engine.cfg.ring_capacity);
                ledger::ring_batch_ns(&sample, engine.cfg.batch_size, capacity, 256, 64)
            }
        },
    );
    report.set("runtime.merge_us", per_span("runtime.merge", 1e3));
    report.set("runtime.worker_busy_ratio", med(&r.busy_ratio));
    report.set("runtime.stalls_per_mtuple", med(&r.stalls_per_mtuple));
    report.set("runtime.stalls_per_mtuple_1shard", med(&r.stalls_per_mtuple_1shard));
    let single_tps = if r.baseline_s.is_empty() { 0.0 } else { n / med(&r.baseline_s) };
    report.set("baseline.single_tps", single_tps);
    report.set("runtime.speedup_vs_single", ratio(n / med(&r.engine_s), single_tps));
    report.set("store.record_us", per_span("store.record", 1e3));
    report.set("store.checkpoint_ms", per_span("store.checkpoint", 1e6));
    report.set("store.wal_bytes_per_window", ratio(st.wal_bytes as f64, st.windows as f64));
    report.set("store.carry_bytes_per_window", ratio(st.carry_bytes as f64, st.windows as f64));
    report.set("store.ckpt_kb", ratio(st.ckpt_bytes as f64 / 1024.0, st.ckpt_writes as f64));
    // Without durability the engine's own pass is the in-memory base.
    let durable_s = med(&r.engine_s);
    let inmem_s = if r.inmem_s.is_empty() { durable_s } else { med(&r.inmem_s) };
    report.set("store.share_pct", 100.0 * (durable_s - inmem_s) / durable_s);
    report.set("store.inmem_pass_s", inmem_s);
    let (traced, untraced) = (med(&r.traced_replay_s), med(&r.untraced_replay_s));
    report.set("trace.overhead_pct", 100.0 * (traced - untraced) / untraced);
    report.set("trace.replay_base_s", untraced);
    report.set("trace.unattributed_pct", ledger::unattributed_pct(last.spans()));

    println!(
        "{{\"rounds\": {}, \"engine_tps_median\": {}, \"staged_windows\": {}}}",
        r.engine_s.len(),
        n / med(&r.engine_s),
        replay.windows.len()
    );
    for def in metrics::PER_LAYER {
        println!("# ledger {:<34} moves {:<30} on {}", def.name, def.moves, def.workloads);
    }
    Ok(report)
}

/// The `p` quantile of `xs` by nearest rank.
fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

fn main() {
    let args = parse_args();
    let catalogue = std::fs::read_to_string("BENCHMARK.json")
        .map(|text| metrics::catalogue_mismatches(&text))
        .unwrap_or_else(|e| vec![format!("cannot read BENCHMARK.json: {e}")]);

    let packets = args.workload.generate(args.seed, args.workload.trace_seconds());
    println!("{}", fingerprint(&args, packets.len()));

    let store_dir: PathBuf =
        Path::new(WORK_DIR).join(format!("store-{}-{}", args.workload.name(), std::process::id()));
    let outcome =
        std::fs::create_dir_all(WORK_DIR).map_err(|e| format!("{WORK_DIR}: {e}")).and_then(|()| {
            if args.trace {
                traced_run(&args, &packets, &store_dir)
            } else {
                timed_run(&args, &packets, &store_dir)
            }
        });
    // The store directory only exists for durable runs.
    let _ = std::fs::remove_dir_all(&store_dir);
    match outcome {
        Ok(mut report) => {
            report.problems.extend(catalogue);
            let section = if args.trace { metrics::PER_LAYER } else { metrics::END_TO_END };
            println!("{}", report.render(section));
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
