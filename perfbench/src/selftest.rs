//! The benchmark's own checks, on small traces: every oracle accepts
//! the engine's output and rejects a corrupted window, and the staged
//! replay reproduces the engine's windows, so the per-layer ledger
//! decomposes the same work the timed passes do.

use std::path::PathBuf;

use crate::ledger::{self, Tracer};
use crate::oracle::Oracle;
use crate::workload::{same_windows, Engine, Workload};

/// A store directory inside the repository checkout, removed on drop.
struct StoreDir(PathBuf);

impl StoreDir {
    fn new(name: &str) -> Self {
        StoreDir(PathBuf::from(format!(
            "{}/../.perfbench/test-{name}-{}",
            env!("CARGO_MANIFEST_DIR"),
            std::process::id()
        )))
    }
}

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn small_trace(w: Workload) -> Vec<sso_types::Packet> {
    let seconds = match w {
        Workload::SsSharded => 2,
        Workload::KmvDurable | Workload::HhSingle => 4,
    };
    w.generate(7, seconds)
}

fn engine(w: Workload, dir: &StoreDir) -> Engine {
    let durable = (w == Workload::KmvDurable).then_some(dir.0.as_path());
    Engine::build(w, w.shards(), durable).expect("workload builds").0
}

#[test]
fn each_oracle_accepts_the_engine_and_rejects_a_corrupted_window() {
    for w in Workload::ALL {
        let dir = StoreDir::new(w.name());
        let packets = small_trace(w);
        let pass = engine(w, &dir).run(&packets).expect("engine pass");
        let oracle = Oracle::new(w, &packets);
        let verdict = oracle.check(&pass.windows, false);
        assert!(verdict.checked > 0, "{}: no windows", w.name());
        assert_eq!(verdict.failed, 0, "{}: oracle rejected the engine", w.name());
        let bad = oracle.corrupt(&pass.windows).expect("a window with rows");
        assert!(!oracle.accepts(&bad), "{}: corrupted window accepted", w.name());
        // A pass that lost tuples fails every window, and a lost window
        // counts as a failure too.
        let lossy = oracle.check(&pass.windows, true);
        assert_eq!(lossy.failed, verdict.checked, "{}: {lossy:?} {verdict:?}", w.name());
        assert_eq!(oracle.check(&pass.windows[1..], false).failed, 1, "{}", w.name());
    }
}

#[test]
fn staged_replay_reproduces_the_engine_windows() {
    for w in Workload::ALL {
        let dir = StoreDir::new(&format!("replay-{}", w.name()));
        let packets = small_trace(w);
        let e = engine(w, &dir);
        let pass = e.run(&packets).expect("engine pass");
        let mut tr = Tracer::new(true);
        let staged = ledger::replay(&e, &packets, &mut tr).expect("staged replay");
        assert!(same_windows(&staged.windows, &pass.windows), "{}: replay differs", w.name());

        let spans = tr.spans();
        let count = |name| ledger::totals(spans, name).count;
        assert!(count("types.to_tuple") > 0 && count("core.process") > 0);
        assert!(count("core.window_close") as usize >= staged.windows.len());
        let sharded = w != Workload::HhSingle;
        assert_eq!(count("runtime.route") > 0, sharded, "{}", w.name());
        assert_eq!(count("runtime.merge") as usize, if sharded { staged.windows.len() } else { 0 });
        let durable = w == Workload::KmvDurable;
        assert_eq!(count("store.record") > 0, durable, "{}", w.name());
        assert_eq!(count("store.checkpoint") > 0, durable, "{}", w.name());
        // Every span ends inside its parent.
        for s in spans.iter().filter(|s| s.parent != ledger::NO_SPAN) {
            let p = spans[s.parent as usize];
            assert!(
                p.start_ns <= s.start_ns && s.end_ns <= p.end_ns,
                "{} escapes {}",
                s.name,
                p.name
            );
        }
        // The untraced replay records nothing and yields the same output.
        let mut off = Tracer::new(false);
        let plain = ledger::replay(&e, &packets, &mut off).expect("untraced replay");
        assert!(off.spans().is_empty());
        assert!(same_windows(&plain.windows, &pass.windows));
    }
}

#[test]
fn durable_output_equals_the_in_memory_run() {
    let w = Workload::KmvDurable;
    let dir = StoreDir::new("durable-vs-memory");
    let packets = small_trace(w);
    let durable = engine(w, &dir).run(&packets).expect("durable pass");
    let (inmem, _) = Engine::build(w, w.shards(), None).expect("in-memory build");
    let memory = inmem.run(&packets).expect("in-memory pass");
    assert!(same_windows(&durable.windows, &memory.windows));
}

#[test]
fn ring_transfer_reports_a_positive_cost() {
    let packets = small_trace(Workload::SsSharded);
    let tuples: Vec<_> = packets.iter().take(4096).map(sso_types::Packet::to_tuple).collect();
    let ns = ledger::ring_batch_ns(&tuples, 256, 4, 16, 3);
    assert!(ns.is_finite() && ns > 0.0);
}

#[test]
fn traces_span_whole_windows() {
    for w in Workload::ALL {
        for seed in [1, 2, 3] {
            let packets = w.generate(seed, 10);
            assert!(packets.windows(2).all(|p| p[0].uts < p[1].uts));
            let last = w.window_of(packets.last().expect("non-empty"));
            assert_eq!(last + 1, 10 / w.window_secs(), "{}", w.name());
            if w.feed() == "research" {
                assert_eq!(packets.len(), 100_000);
            }
        }
        assert_eq!(w.generate(9, 1), w.generate(9, 1), "same seed, same trace");
    }
}
