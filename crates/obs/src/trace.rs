//! Sampled span tracing.
//!
//! A [`SampledSpan`] wraps a histogram (raw per-span nanoseconds) and a
//! counter (total busy nanoseconds) from the registry. [`SampledSpan::
//! start`] is the *only* hot-path cost when tracing is disabled: one
//! `Relaxed` load of the registry's enabled flag and a `None` return.
//! When enabled, a shared call counter selects every `1/2^k`-th call to
//! actually take an `Instant` pair; the measured duration is recorded
//! raw into the histogram and scaled back up (`× 2^k`) into the busy
//! counter, so busy time stays an unbiased estimate of total time spent
//! in the span.
//!
//! This replaces the bespoke 1-in-64 timing hack that used to live in
//! the Gigascope sharded engine.

use sso_sync::Ordering::Relaxed;
use sso_sync::{SyncBool, SyncU64};
use std::sync::Arc;

use crate::hist::Histogram;
use crate::registry::{Counter, Registry};
use crate::time::Stopwatch;

/// A named span that samples 1 in `2^k` entries.
#[derive(Debug, Clone)]
pub struct SampledSpan {
    enabled: Arc<SyncBool>,
    calls: Arc<SyncU64>,
    mask: u64,
    hist: Histogram,
    busy: Counter,
}

impl SampledSpan {
    /// Register a span in `registry`: raw durations land in the
    /// histogram `<name>_ns`, scaled busy time in the counter
    /// `<name>_busy_ns` under `label`. `sample_shift` is `k`: sample 1
    /// in `2^k` entries (0 = every entry).
    pub fn register(
        registry: &Registry,
        hist_name: &'static str,
        busy_name: &'static str,
        label: impl Into<String> + Clone,
        sample_shift: u32,
    ) -> Self {
        SampledSpan {
            enabled: Arc::new(SyncBool::new(registry.is_enabled())),
            calls: Arc::new(SyncU64::new(0)),
            mask: (1u64 << sample_shift) - 1,
            hist: registry.histogram_labeled(hist_name, label.clone()),
            busy: registry.counter_labeled(busy_name, label),
        }
    }

    /// The busy-time counter this span scales its samples into. Callers
    /// can add unsampled work to the same cell (e.g. a finish pass) and
    /// read the combined estimate back.
    pub fn busy_counter(&self) -> &Counter {
        &self.busy
    }

    /// Enter the span. `None` when tracing is disabled or this entry is
    /// not sampled; hold the guard for the duration of the work.
    #[inline]
    pub fn start(&self) -> Option<SpanGuard> {
        if !self.enabled.load(Relaxed) {
            return None;
        }
        if self.calls.fetch_add(1, Relaxed) & self.mask != 0 {
            return None;
        }
        Some(self.guard())
    }

    /// Enter the span as the `n`-th call of a single-threaded caller
    /// that counts its own calls: sampled when `n` is a multiple of
    /// `2^k`, with the same scaling as [`Self::start`]. It skips the
    /// shared counter's atomic add, which on a hot path costing ~100 ns
    /// a call is a measurable share.
    #[inline]
    pub fn start_nth(&self, n: u64) -> Option<SpanGuard> {
        if n & self.mask != 0 || !self.enabled.load(Relaxed) {
            return None;
        }
        Some(self.guard())
    }

    fn guard(&self) -> SpanGuard {
        SpanGuard {
            hist: self.hist.clone(),
            busy: self.busy.clone(),
            scale: self.mask + 1,
            sw: Stopwatch::start(),
        }
    }
}

/// An open sampled span; records on drop.
///
/// Owns clones of the destination handles (cheap `Arc` bumps, paid only
/// on the sampled path) so a guard can be held across `&mut self` calls
/// on the instrumented object.
#[derive(Debug)]
pub struct SpanGuard {
    hist: Histogram,
    busy: Counter,
    scale: u64,
    sw: Stopwatch,
}

impl SpanGuard {
    /// Finish explicitly (identical to dropping the guard).
    pub fn finish(self) {}
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let ns = self.sw.elapsed_ns();
        self.hist.record(ns);
        self.busy.add(ns.saturating_mul(self.scale));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_never_samples() {
        let r = Registry::disabled();
        let span = SampledSpan::register(&r, "t_ns", "t_busy_ns", "", 0);
        for _ in 0..100 {
            assert!(span.start().is_none());
        }
        let snap = r.snapshot();
        assert_eq!(snap.get("t_ns").unwrap().hits(), 0);
    }

    #[test]
    fn caller_counted_sampling_matches_the_shared_counter() {
        let r = Registry::new();
        let span = SampledSpan::register(&r, "t_ns", "t_busy_ns", "", 3);
        let taken = (0..64u64).filter_map(|n| span.start_nth(n)).count();
        assert_eq!(taken, 8, "1 in 2^3 of 64 calls");
        let snap = r.snapshot();
        let hist = snap.get("t_ns").unwrap();
        assert_eq!(hist.hits(), 8);
        assert_eq!(snap.value("t_busy_ns"), hist.scalar() * 8.0);
        let off = Registry::disabled();
        let span = SampledSpan::register(&off, "t_ns", "t_busy_ns", "", 3);
        assert!((0..64u64).all(|n| span.start_nth(n).is_none()));
    }

    #[test]
    fn samples_one_in_2k_and_scales_busy() {
        let r = Registry::new();
        let span = SampledSpan::register(&r, "t_ns", "t_busy_ns", "", 3);
        let mut taken = 0;
        for _ in 0..64 {
            if let Some(g) = span.start() {
                taken += 1;
                g.finish();
            }
        }
        assert_eq!(taken, 8, "1 in 2^3 of 64 calls");
        let snap = r.snapshot();
        let hist = snap.get("t_ns").unwrap();
        assert_eq!(hist.hits(), 8);
        // Busy is the histogram's raw sum scaled by 2^3.
        assert_eq!(snap.value("t_busy_ns"), hist.scalar() * 8.0);
    }

    #[test]
    fn shift_zero_records_every_entry() {
        let r = Registry::new();
        let span = SampledSpan::register(&r, "t_ns", "t_busy_ns", "x", 0);
        for _ in 0..5 {
            span.start();
        }
        assert_eq!(r.snapshot().get_labeled("t_ns", "x").unwrap().hits(), 5);
    }
}
