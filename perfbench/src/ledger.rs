//! The traced run's staged replay: the same job the engine runs, driven
//! stage by stage through public functions, with a span around each
//! call. Spans live in memory and are written out when the run ends;
//! the per-layer metrics are computed from them.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use sso_core::{OperatorStats, SamplingOperator, WindowOutput};
use sso_runtime::{merge_windows, ring, route_stream};
use sso_store::{ShardStore, StoreConfig, WindowRecord};
use sso_types::{Packet, Tuple};

use crate::host;
use crate::workload::Engine;

/// Parent of a root span; also the id of a span not recorded.
pub const NO_SPAN: u32 = u32::MAX;
/// Window id of a span that covers no single window.
pub const NO_WINDOW: u64 = u64::MAX;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    /// The window the call worked on: the identifier spans of one
    /// window share across stages and shards.
    pub window: u64,
    /// Shard the call ran for (0 for unsharded stages).
    pub lane: u32,
    /// Work items the call handled (tuples, windows, batches).
    pub items: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when on; when off, records nothing and reads no clock.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer { on, epoch: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: u32, window: u64, lane: u32) -> u32 {
        if !self.on {
            return NO_SPAN;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, window, lane, items: 0 });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, id: u32, items: usize) {
        if id == NO_SPAN {
            return;
        }
        let end_ns = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.items = items as u64;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the spans as tab-separated lines, one per span.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\twindow\tlane\titems")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_SPAN { "-".to_string() } else { s.parent.to_string() };
            let window = if s.window == NO_WINDOW { "-".to_string() } else { s.window.to_string() };
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{window}\t{}\t{}",
                s.name, s.start_ns, s.end_ns, s.lane, s.items
            )?;
        }
        out.flush()
    }
}

/// Byte counters of the durable stores a replay wrote.
#[derive(Debug, Default, Clone, Copy)]
pub struct StoreTotals {
    pub windows: u64,
    pub wal_bytes: u64,
    pub carry_bytes: u64,
    pub ckpt_writes: u64,
    pub ckpt_bytes: u64,
}

/// What a staged replay produced.
pub struct Replay {
    /// Merged window results, in window order.
    pub windows: Vec<WindowOutput>,
    /// Each operator instance's counters.
    pub op_stats: Vec<OperatorStats>,
    pub store: StoreTotals,
    pub wall_s: f64,
}

/// One operator instance's share of a replay.
struct Lane<'a> {
    tr: &'a mut Tracer,
    parent: u32,
    lane: u32,
    op: SamplingOperator,
    store: Option<ShardStore>,
    checkpoint_every: u64,
    since_ckpt: u64,
    totals: StoreTotals,
    windows: Vec<WindowOutput>,
}

impl Lane<'_> {
    /// Keep a closed window, recording it durably first when the run is
    /// durable — the worker's order: take the carry the operator
    /// captured at the boundary, append, checkpoint on cadence.
    fn closed(&mut self, out: WindowOutput, window: u64) -> Result<(), String> {
        if let Some(store) = self.store.as_mut() {
            let span = self.tr.open("store.record", self.parent, window, self.lane);
            let (carry, aux) =
                self.op.take_flush_state().ok_or("window closed without a boundary snapshot")?;
            store
                .record_window(&WindowRecord { output: &out, carry: &carry, aux: &aux })
                .map_err(|e| e.to_string())?;
            self.tr.close(span, 1);
            self.totals.windows += 1;
            self.totals.carry_bytes += (carry.len() + aux.len()) as u64;
            self.since_ckpt += 1;
            if self.checkpoint_every > 0 && self.since_ckpt >= self.checkpoint_every {
                let span = self.tr.open("store.checkpoint", self.parent, window, self.lane);
                store.checkpoint().map_err(|e| e.to_string())?;
                self.tr.close(span, 1);
                self.since_ckpt = 0;
            }
        }
        self.windows.push(out);
        Ok(())
    }

    /// Feed one shard's tuples, one `core.process` span per window and
    /// one `core.window_close` span per call that closes a window.
    fn drive(&mut self, tuples: &[Tuple], window_secs: u64) -> Result<(), String> {
        let window_of = |t: &Tuple| t.get(0).as_u64().unwrap_or(0) / window_secs;
        let mut open: Option<u64> = None;
        for chunk in tuples.chunk_by(|a, b| window_of(a) == window_of(b)) {
            let tb = window_of(&chunk[0]);
            let mut rest = chunk;
            if let Some(prev) = open {
                let span = self.tr.open("core.window_close", self.parent, prev, self.lane);
                let out = self.op.process(&chunk[0]).map_err(|e| e.to_string())?;
                self.tr.close(span, 1);
                self.closed(out.ok_or("a new window's first tuple closed nothing")?, prev)?;
                rest = &chunk[1..];
            }
            let span = self.tr.open("core.process", self.parent, tb, self.lane);
            for t in rest {
                if self.op.process(t).map_err(|e| e.to_string())?.is_some() {
                    return Err("a window closed inside a window's tuples".into());
                }
            }
            self.tr.close(span, rest.len());
            open = Some(tb);
        }
        let window = open.unwrap_or(NO_WINDOW);
        let span = self.tr.open("core.window_close", self.parent, window, self.lane);
        let out = self.op.finish().map_err(|e| e.to_string())?;
        self.tr.close(span, 1);
        if let Some(out) = out {
            self.closed(out, window)?;
        }
        if let Some(store) = self.store.as_mut() {
            let span = self.tr.open("store.checkpoint", self.parent, NO_WINDOW, self.lane);
            store.finalize().map_err(|e| e.to_string())?;
            self.tr.close(span, 1);
            self.totals.wal_bytes += store.wal_bytes();
            self.totals.ckpt_writes += store.ckpt_writes();
            self.totals.ckpt_bytes += store.ckpt_bytes();
        }
        Ok(())
    }
}

/// Replay `packets` through `engine`'s stages: convert, route, process
/// per shard (recording durably when the engine is durable), merge.
pub fn replay(engine: &Engine, packets: &[Packet], tr: &mut Tracer) -> Result<Replay, String> {
    let t0 = Instant::now();
    let w = engine.workload;
    let root = tr.open("replay", NO_SPAN, NO_WINDOW, 0);
    let mut tuples = Vec::with_capacity(packets.len());
    for chunk in packets.chunk_by(|a, b| w.window_of(a) == w.window_of(b)) {
        let span = tr.open("types.to_tuple", root, w.window_of(&chunk[0]), 0);
        tuples.extend(chunk.iter().map(Packet::to_tuple));
        tr.close(span, chunk.len());
    }

    let shards = engine.cfg.shards;
    let parts: Vec<Vec<Tuple>> = match &engine.plan {
        None => vec![tuples],
        Some(plan) => {
            let span = tr.open("runtime.route", root, NO_WINDOW, 0);
            let dest = route_stream(plan, shards, &tuples);
            tr.close(span, dest.len());
            let span = tr.open("replay.partition", root, NO_WINDOW, 0);
            let mut parts: Vec<Vec<Tuple>> = vec![Vec::new(); shards];
            let n = tuples.len();
            for (t, d) in tuples.into_iter().zip(dest) {
                parts[d].push(t);
            }
            tr.close(span, n);
            parts
        }
    };

    let mut op_stats = Vec::new();
    let mut store = StoreTotals::default();
    let mut per_shard = Vec::new();
    for (shard, part) in parts.iter().enumerate() {
        let lane = shard as u32;
        let parent = tr.open("replay.shard", root, NO_WINDOW, lane);
        let mut op = SamplingOperator::new(engine.make_spec()?).map_err(|e| e.to_string())?;
        if let Some(hints) = &engine.cfg.sizing {
            op.reserve(hints);
        }
        let (shard_store, checkpoint_every) = match &engine.cfg.durability {
            None => (None, 0),
            Some(d) => {
                op.set_capture_flush(true);
                // Checkpoints are taken here, on the runtime's cadence,
                // so each gets a span of its own.
                let cfg = StoreConfig { dir: d.dir.clone(), checkpoint_every: 0, fsync: d.fsync };
                let s = ShardStore::create(&cfg, shard).map_err(|e| e.to_string())?;
                (Some(s), d.checkpoint_every)
            }
        };
        let mut lane = Lane {
            tr: &mut *tr,
            parent,
            lane,
            op,
            store: shard_store,
            checkpoint_every,
            since_ckpt: 0,
            totals: StoreTotals::default(),
            windows: Vec::new(),
        };
        lane.drive(part, w.window_secs())?;
        let Lane { op, totals, windows, .. } = lane;
        tr.close(parent, part.len());
        op_stats.push(op.stats().clone());
        store.windows += totals.windows;
        store.wal_bytes += totals.wal_bytes;
        store.carry_bytes += totals.carry_bytes;
        store.ckpt_writes += totals.ckpt_writes;
        store.ckpt_bytes += totals.ckpt_bytes;
        per_shard.push(windows);
    }

    let windows = match &engine.plan {
        None => per_shard.pop().unwrap_or_default(),
        Some(plan) => {
            // One merge call per window, so each window gets its span;
            // the merge seeds each window independently, so this equals
            // one call over all windows.
            let mut by_window: BTreeMap<u64, Vec<Vec<WindowOutput>>> = BTreeMap::new();
            for windows in per_shard {
                for out in windows {
                    let tb = out.window.get(0).as_u64().unwrap_or(NO_WINDOW);
                    by_window.entry(tb).or_default().push(vec![out]);
                }
            }
            let mut merged = Vec::with_capacity(by_window.len());
            for (tb, parts) in by_window {
                let span = tr.open("runtime.merge", root, tb, 0);
                merged.extend(merge_windows(parts, &plan.rule, engine.cfg.seed));
                tr.close(span, 1);
            }
            merged
        }
    };
    tr.close(root, packets.len());
    Ok(Replay { windows, op_stats, store, wall_s: t0.elapsed().as_secs_f64() })
}

/// Per-name totals over a set of spans.
#[derive(Debug, Default, Clone)]
pub struct Totals {
    pub count: u64,
    pub ns: u64,
    pub items: u64,
    pub durations_ns: Vec<u64>,
}

pub fn totals(spans: &[Span], name: &str) -> Totals {
    let mut t = Totals::default();
    for s in spans.iter().filter(|s| s.name == name) {
        t.count += 1;
        t.ns += s.dur_ns();
        t.items += s.items;
        t.durations_ns.push(s.dur_ns());
    }
    t
}

/// Share of the root spans' time not covered by a layer span: the self
/// time of every `replay*` span (the benchmark's own staging), over the
/// roots' total.
pub fn unattributed_pct(spans: &[Span]) -> f64 {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_SPAN {
            child_ns[s.parent as usize] += s.dur_ns();
        }
    }
    let root_ns: u64 = spans.iter().filter(|s| s.parent == NO_SPAN).map(Span::dur_ns).sum();
    let staging_ns: u64 = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name.starts_with("replay"))
        .map(|(i, s)| s.dur_ns().saturating_sub(child_ns[i]))
        .sum();
    100.0 * staging_ns as f64 / root_ns.max(1) as f64
}

/// Nanoseconds per batch through `sso_runtime::ring` with the producer
/// and consumer on two threads: batches of `batch` real tuples, a ring
/// `capacity` batches deep. The median over `trials` transfers of
/// `batches` batches each.
pub fn ring_batch_ns(
    tuples: &[Tuple],
    batch: usize,
    capacity: usize,
    batches: usize,
    trials: usize,
) -> f64 {
    let mut pool: Vec<Vec<Tuple>> = (0..batches)
        .map(|i| {
            let start = (i * batch) % tuples.len().max(1);
            tuples[start..].iter().cycle().take(batch).cloned().collect()
        })
        .collect();
    let mut per_batch = Vec::with_capacity(trials);
    for _ in 0..trials {
        let (mut tx, mut rx) = ring::<Vec<Tuple>>(capacity);
        let (ns, back) = std::thread::scope(|s| {
            let consumer = s.spawn(move || {
                let mut got = Vec::with_capacity(batches);
                while let Some(b) = rx.pop() {
                    got.push(b);
                }
                got
            });
            let t0 = Instant::now();
            for b in pool.drain(..) {
                tx.push(b).expect("consumer outlives the producer");
            }
            drop(tx);
            let back = consumer.join().expect("ring consumer thread");
            (t0.elapsed().as_nanos() as f64, back)
        });
        pool = back;
        per_batch.push(ns / batches as f64);
    }
    host::median(&per_batch)
}
