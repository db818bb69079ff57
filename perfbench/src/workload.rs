//! The three workloads: their feeds, query texts, set-up and one
//! end-to-end pass through the crates' public entry points.

use std::path::Path;
use std::time::Instant;

use sso_analysis::{audit_file, AuditOptions};
use sso_core::{shard_plan, OpError, OperatorSpec, SamplingOperator, ShardPlan, WindowOutput};
use sso_gigascope::{run_plan_sharded_with, SelectionNode};
use sso_netgen::{datacenter_feed, FeedConfig, ResearchRate, TraceGenerator};
use sso_query::{parse_query, plan, PlannerConfig, Query};
use sso_runtime::{DurabilityConfig, RuntimeConfig, ShardStats};
use sso_types::Packet;

use crate::host;

/// Samples per window the subset-sum query keeps in total.
pub const SS_TARGET: usize = 1000;
/// Signature size of the min-hash query.
pub const KMV_K: usize = 10;
/// Bucket width of the lossy-counting query (ε = 1/width).
pub const HH_WIDTH: u64 = 100;
/// Support threshold in the heavy-hitter query's HAVING clause.
pub const HH_SUPPORT: u64 = 50;
/// Mean packet rate of the research trace after time scaling, pkt/s.
pub const RESEARCH_MEAN_RATE: u64 = 10_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SsSharded,
    KmvDurable,
    HhSingle,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::SsSharded, Workload::KmvDurable, Workload::HhSingle];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SsSharded => "ss_sharded",
            Workload::KmvDurable => "kmv_durable",
            Workload::HhSingle => "hh_single",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Feed seconds in one pass. Whole windows only: a trailing
    /// partial window would hold a handful of packets.
    pub fn trace_seconds(self) -> u64 {
        match self {
            Workload::SsSharded => 20,
            Workload::KmvDurable | Workload::HhSingle => 150,
        }
    }

    pub fn feed(self) -> &'static str {
        match self {
            Workload::SsSharded => "datacenter",
            Workload::KmvDurable | Workload::HhSingle => "research",
        }
    }

    pub fn window_secs(self) -> u64 {
        match self {
            Workload::SsSharded => 5,
            Workload::KmvDurable | Workload::HhSingle => 1,
        }
    }

    pub fn shards(self) -> usize {
        match self {
            Workload::SsSharded | Workload::KmvDurable => 2,
            Workload::HhSingle => 1,
        }
    }

    /// The packet trace for `seed`, `seconds` of feed time long, built on
    /// the calling thread before anything is timed.
    ///
    /// The research trace keeps the feed's log-AR(1) rate swings but not
    /// its lulls (rate × 0.002 for tens of seconds): how many lulls a
    /// trace draws varies so much between seeds that it, not the code,
    /// would set the work per packet and most of the run-to-run spread.
    /// It takes `seconds × RESEARCH_MEAN_RATE` packets and scales their
    /// timestamps to span exactly `seconds`, which fixes both the packet
    /// and the window count of a pass; the shape of the swings is kept.
    pub fn generate(self, seed: u64, seconds: u64) -> Vec<Packet> {
        if self.feed() == "datacenter" {
            return datacenter_feed(seed).take_seconds(seconds);
        }
        let mut rate = ResearchRate::new();
        rate.lull_prob = 0.0;
        let count = (seconds * RESEARCH_MEAN_RATE) as usize;
        let mut out: Vec<Packet> =
            TraceGenerator::new(FeedConfig::new(seed), Box::new(rate)).take(count).collect();
        let span = u128::from(out.last().map_or(1, |p| p.uts + 1));
        let target = u128::from(seconds) * 1_000_000_000;
        let mut prev = 0;
        for p in &mut out {
            // Strictly increasing, as the generator's timestamps are.
            p.uts = ((u128::from(p.uts) * target / span) as u64).max(prev + 1);
            prev = p.uts;
        }
        out
    }

    /// The window a packet falls in (every query windows on `time/W`).
    pub fn window_of(self, p: &Packet) -> u64 {
        p.time() / self.window_secs()
    }
}

/// The §6.1 dynamic subset-sum query with a `target`-sample budget.
pub fn ss_query(target: usize) -> String {
    format!(
        "SELECT tb, srcIP, destIP, UMAX(sum(len), ssthreshold()) FROM PKTS \
         WHERE ssample(len, {target}) = TRUE \
         GROUP BY time/{w} as tb, srcIP, destIP, uts \
         HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE \
         CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE \
         CLEANING BY ssclean_with(sum(len)) = TRUE",
        w = Workload::SsSharded.window_secs()
    )
}

/// The §6.6 min-hash (KMV) query: the `KMV_K` smallest destination
/// hashes per source and window.
pub fn kmv_query() -> String {
    format!(
        "SELECT tb, srcIP, HX FROM TCP \
         WHERE HX <= Kth_smallest_value$(HX, {k}) \
         GROUP BY time/{w} as tb, srcIP, H(destIP) as HX \
         SUPERGROUP tb, srcIP \
         HAVING HX <= Kth_smallest_value$(HX, {k}) \
         CLEANING WHEN count_distinct$(*) > {k} \
         CLEANING BY HX <= Kth_smallest_value$(HX, {k})",
        k = KMV_K,
        w = Workload::KmvDurable.window_secs()
    )
}

/// Lossy-counting heavy hitters by source.
pub fn hh_query() -> String {
    format!(
        "SELECT tb, srcIP, sum(len), count(*) FROM TCP \
         GROUP BY time/{w} as tb, srcIP \
         HAVING count(*) >= {HH_SUPPORT} \
         CLEANING WHEN local_count({HH_WIDTH}) = TRUE \
         CLEANING BY count(*) + first(current_bucket()) > current_bucket()",
        w = Workload::HhSingle.window_secs()
    )
}

/// Seconds spent in each set-up stage of one [`Engine::build`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub parse: f64,
    pub plan: f64,
    pub shard_plan: f64,
    pub audit: f64,
    pub op_new: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.parse + self.plan + self.shard_plan + self.audit + self.op_new
    }
}

/// A runnable engine for one workload: the per-shard query, the merge
/// plan and the runtime configuration.
pub struct Engine {
    pub workload: Workload,
    /// The query each operator instance runs (for subset-sum, the
    /// per-shard split of the budget).
    shard_query: Query,
    /// Present for the sharded workloads.
    pub plan: Option<ShardPlan>,
    pub cfg: RuntimeConfig,
}

fn plan_err(e: impl std::fmt::Display) -> OpError {
    OpError::InvalidSpec(e.to_string())
}

fn timed<R>(slot: &mut f64, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let r = f();
    *slot += t0.elapsed().as_secs_f64();
    r
}

impl Engine {
    /// Query text to runnable engine, timing each stage. `shards`
    /// overrides the workload's shard count (the 1-shard stall probe);
    /// `durable` stores operator state under that directory.
    pub fn build(
        workload: Workload,
        shards: usize,
        durable: Option<&Path>,
    ) -> Result<(Engine, SetupTimes), String> {
        let mut t = SetupTimes::default();
        let schema = Packet::schema();
        let config = PlannerConfig::standard();
        let (text, shard_text) = match workload {
            // Each shard samples 1/shards of the budget; the merge
            // re-thresholds the union to the full target.
            Workload::SsSharded => (ss_query(SS_TARGET), ss_query(SS_TARGET.div_ceil(shards))),
            Workload::KmvDurable => (kmv_query(), kmv_query()),
            Workload::HhSingle => (hh_query(), hh_query()),
        };
        let parsed = timed(&mut t.parse, || parse_query(&text)).map_err(|e| e.to_string())?;
        let spec =
            timed(&mut t.plan, || plan(&parsed, &schema, &config)).map_err(|e| e.to_string())?;
        let shard_query = if shard_text == text {
            parsed
        } else {
            timed(&mut t.parse, || parse_query(&shard_text)).map_err(|e| e.to_string())?
        };
        let mut cfg = RuntimeConfig::new(shards).with_worker_cap(host::nproc());
        let plan = if workload == Workload::HhSingle {
            None
        } else {
            let p = timed(&mut t.shard_plan, || shard_plan(&spec)).map_err(|e| e.to_string())?;
            let routers = cfg.resolved_routers();
            let batch = cfg.batch_size;
            let hints = timed(&mut t.audit, || {
                let opts = AuditOptions {
                    feed: workload.feed().to_string(),
                    shards,
                    routers,
                    ..AuditOptions::default()
                };
                let outcome = audit_file(&shard_text, &opts);
                outcome.report.statements.first().map(|s| s.sizing_hints(shards, routers, batch))
            });
            if let Some(h) = hints {
                cfg = cfg.with_sizing(h);
            }
            if let Some(dir) = durable {
                cfg = cfg.with_durability(DurabilityConfig::new(dir));
            }
            Some(p)
        };
        let engine = Engine { workload, shard_query, plan, cfg };
        for _ in 0..shards {
            let spec = timed(&mut t.plan, || engine.make_spec())?;
            timed(&mut t.op_new, || SamplingOperator::new(spec)).map_err(|e| e.to_string())?;
        }
        Ok((engine, t))
    }

    /// A fresh per-shard spec, planned from the query text as `sso run`
    /// does, so no stateful-function state is shared between shards.
    pub fn make_spec(&self) -> Result<OperatorSpec, String> {
        plan(&self.shard_query, &Packet::schema(), &PlannerConfig::standard())
            .map_err(|e| e.to_string())
    }

    fn spec_factory(&self) -> impl Fn(usize) -> Result<OperatorSpec, OpError> + Sync + '_ {
        move |_shard| self.make_spec().map_err(plan_err)
    }

    /// One end-to-end pass: every packet in, every window result out.
    pub fn run(&self, packets: &[Packet]) -> Result<Pass, String> {
        match &self.plan {
            Some(plan) => {
                let report = run_plan_sharded_with(
                    Box::new(SelectionNode::pass_all()),
                    plan,
                    self.spec_factory(),
                    &self.cfg,
                    packets.iter().copied(),
                )
                .map_err(|e| e.to_string())?;
                Ok(Pass {
                    dropped: report.dropped(),
                    coverage: report.coverage,
                    windows: report.windows,
                    shards: report.shards,
                })
            }
            None => {
                let mut op = SamplingOperator::new(self.make_spec()?).map_err(|e| e.to_string())?;
                let mut windows = Vec::new();
                for p in packets {
                    if let Some(w) = op.process(&p.to_tuple()).map_err(|e| e.to_string())? {
                        windows.push(w);
                    }
                }
                if let Some(w) = op.finish().map_err(|e| e.to_string())? {
                    windows.push(w);
                }
                Ok(Pass { windows, dropped: 0, coverage: 1.0, shards: Vec::new() })
            }
        }
    }
}

/// What one pass produced.
pub struct Pass {
    pub windows: Vec<WindowOutput>,
    /// Tuples the runtime dropped at full rings.
    pub dropped: u64,
    /// Run-level coverage (1.0 = nothing lost).
    pub coverage: f64,
    /// Per-shard worker accounting (sharded workloads).
    pub shards: Vec<ShardStats>,
}

/// Whether two window streams are identical, field by field.
pub fn same_windows(a: &[WindowOutput], b: &[WindowOutput]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.window == y.window
                && x.rows == y.rows
                && x.stats == y.stats
                && x.degradation == y.degradation
        })
}
