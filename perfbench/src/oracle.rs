//! Correctness oracles, one per workload, computed from the packets
//! outside the timed region. Each window result is one operation: the
//! oracle accepts or rejects it.

use std::collections::{HashMap, HashSet};

use sso_core::WindowOutput;
use sso_sampling::hash::splitmix64;
use sso_types::{Packet, Value};

use crate::workload::{Workload, HH_SUPPORT, HH_WIDTH, KMV_K};

/// How far a subset-sum window estimate may stray from the exact
/// volume, in standard deviations. Threshold sampling at threshold `z`
/// estimates a volume `X` with variance `Σ x·(z − x) ≤ z·X`. Five σ
/// makes a false rejection a one-in-a-million event per window.
pub const SS_SIGMAS: f64 = 5.0;

/// The subset-sum oracle's bound on `|estimate − X|` for a window whose
/// rows report `UMAX(sum(len), z)`: their smallest value is at least the
/// window's final threshold `z`, so this bound is at least 5σ.
fn ss_bound(rows: &[sso_types::Tuple], exact: f64) -> f64 {
    let z =
        rows.iter().map(|r| r.get(3).as_f64().unwrap_or(f64::NAN)).fold(f64::INFINITY, f64::min);
    if rows.is_empty() || !z.is_finite() {
        // No sample (or an unreadable one) cannot stand for any volume.
        return 0.0;
    }
    SS_SIGMAS * (z * exact).sqrt()
}

/// Lossy counting's ε for the heavy-hitter query.
pub fn hh_epsilon() -> f64 {
    1.0 / HH_WIDTH as f64
}

fn u64_at(row: &sso_types::Tuple, i: usize) -> u64 {
    row.get(i).as_u64().unwrap_or(u64::MAX)
}

fn window_id(w: &WindowOutput) -> u64 {
    w.window.get(0).as_u64().unwrap_or(u64::MAX)
}

/// Exact per-window answers for one workload's packets.
pub enum Oracle {
    /// Exact byte volume per window.
    SubsetSum(HashMap<u64, u64>),
    /// Per window, per source: the `KMV_K` smallest distinct hashes.
    Kmv(HashMap<u64, HashMap<u64, Vec<u64>>>),
    /// Per window: packet count and exact count per source.
    HeavyHitters(HashMap<u64, (u64, HashMap<u64, u64>)>),
}

/// The verdict over one pass.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    pub checked: u64,
    pub failed: u64,
}

impl Oracle {
    pub fn new(workload: Workload, packets: &[Packet]) -> Oracle {
        match workload {
            Workload::SsSharded => {
                let mut bytes: HashMap<u64, u64> = HashMap::new();
                for p in packets {
                    *bytes.entry(workload.window_of(p)).or_default() += u64::from(p.len);
                }
                Oracle::SubsetSum(bytes)
            }
            Workload::KmvDurable => {
                let mut all: Vec<(u64, u64, u64)> = packets
                    .iter()
                    .map(|p| {
                        (
                            workload.window_of(p),
                            u64::from(p.src_ip),
                            splitmix64(u64::from(p.dest_ip)),
                        )
                    })
                    .collect();
                all.sort_unstable();
                all.dedup();
                let mut sigs: HashMap<u64, HashMap<u64, Vec<u64>>> = HashMap::new();
                for (tb, src, h) in all {
                    let sig = sigs.entry(tb).or_default().entry(src).or_default();
                    if sig.len() < KMV_K {
                        sig.push(h);
                    }
                }
                Oracle::Kmv(sigs)
            }
            Workload::HhSingle => {
                let mut counts: HashMap<u64, (u64, HashMap<u64, u64>)> = HashMap::new();
                for p in packets {
                    let (n, per) = counts.entry(workload.window_of(p)).or_default();
                    *n += 1;
                    *per.entry(u64::from(p.src_ip)).or_default() += 1;
                }
                Oracle::HeavyHitters(counts)
            }
        }
    }

    /// Windows the exact answer has.
    pub fn windows(&self) -> usize {
        match self {
            Oracle::SubsetSum(m) => m.len(),
            Oracle::Kmv(m) => m.len(),
            Oracle::HeavyHitters(m) => m.len(),
        }
    }

    /// Whether the oracle accepts one window result.
    pub fn accepts(&self, w: &WindowOutput) -> bool {
        if w.degradation.degraded || w.degradation.coverage < 1.0 {
            return false;
        }
        let tb = window_id(w);
        match self {
            Oracle::SubsetSum(bytes) => {
                let Some(&exact) = bytes.get(&tb) else { return false };
                let est: f64 = w.rows.iter().map(|r| r.get(3).as_f64().unwrap_or(f64::NAN)).sum();
                let exact = exact as f64;
                (est - exact).abs() <= ss_bound(&w.rows, exact)
            }
            Oracle::Kmv(sigs) => {
                let Some(want) = sigs.get(&tb) else { return false };
                let mut got: HashMap<u64, Vec<u64>> = HashMap::new();
                for r in &w.rows {
                    got.entry(u64_at(r, 1)).or_default().push(u64_at(r, 2));
                }
                got.len() == want.len()
                    && got.into_iter().all(|(src, mut sig)| {
                        sig.sort_unstable();
                        want.get(&src) == Some(&sig)
                    })
            }
            Oracle::HeavyHitters(counts) => {
                let Some((n, exact)) = counts.get(&tb) else { return false };
                let slack = hh_epsilon() * *n as f64;
                let mut reported = HashSet::new();
                for r in &w.rows {
                    let (src, count) = (u64_at(r, 1), u64_at(r, 3));
                    let truth = exact.get(&src).copied().unwrap_or(0);
                    if count > truth || (truth - count) as f64 > slack || !reported.insert(src) {
                        return false;
                    }
                }
                exact.iter().all(|(src, &f)| {
                    (f as f64) < HH_SUPPORT as f64 + slack || reported.contains(src)
                })
            }
        }
    }

    /// Check one pass: every window it returned, plus every window the
    /// exact answer has that the pass lost. `lossy` fails the whole
    /// pass (the runtime dropped tuples or reported coverage < 1).
    pub fn check(&self, windows: &[WindowOutput], lossy: bool) -> Verdict {
        let mut v = Verdict::default();
        let mut seen = HashSet::new();
        for w in windows {
            v.checked += 1;
            let first = seen.insert(window_id(w));
            if lossy || !first || !self.accepts(w) {
                v.failed += 1;
            }
        }
        let missing = self.windows().saturating_sub(seen.len()) as u64;
        v.checked += missing;
        v.failed += missing;
        v
    }

    /// A copy of one accepted window, deliberately corrupted: one
    /// subset-sum estimate scaled, one KMV hash dropped, or one count
    /// inflated past its true value, in the window with the most rows.
    /// `None` if no window has two rows.
    pub fn corrupt(&self, windows: &[WindowOutput]) -> Option<WindowOutput> {
        let mut w =
            windows.iter().max_by_key(|w| w.rows.len()).filter(|w| w.rows.len() > 1)?.clone();
        match self {
            Oracle::SubsetSum(bytes) => {
                // Scale the largest estimate until the window total
                // moves by twice the oracle's bound (the smallest
                // estimate, which sets the bound, is another row).
                let exact = *bytes.get(&window_id(&w))? as f64;
                let bound = ss_bound(&w.rows, exact);
                let (i, v) = w
                    .rows
                    .iter()
                    .enumerate()
                    .map(|(i, r)| (i, r.get(3).as_f64().unwrap_or(0.0)))
                    .max_by(|a, b| a.1.total_cmp(&b.1))?;
                let scale = 1.0 + 2.0 * bound / v.max(1.0);
                w.rows[i].set(3, Value::F64(v * scale));
            }
            Oracle::Kmv(_) => {
                w.rows.remove(0);
            }
            Oracle::HeavyHitters(counts) => {
                let (_, exact) = counts.get(&window_id(&w))?;
                let truth = exact.get(&u64_at(&w.rows[0], 1)).copied().unwrap_or(0);
                w.rows[0].set(3, Value::U64(truth + 1));
            }
        }
        Some(w)
    }

    /// The oracle's self-test: it must reject a corrupted copy of an
    /// accepted window.
    pub fn rejects_corruption(&self, windows: &[WindowOutput]) -> bool {
        self.corrupt(windows).is_some_and(|w| !self.accepts(&w))
    }
}
