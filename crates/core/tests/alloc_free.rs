//! `SamplingOperator::process` allocates nothing for a tuple that joins
//! an existing group (or that WHERE rejects) when no telemetry is
//! attached: clauses are lowered once at construction, the group table
//! is probed with the borrowed group-by values, and the per-tuple
//! buffers are reused.
//!
//! A counting global allocator sees every allocation this test binary
//! makes; each check warms the operator up on a tuple set, then replays
//! it inside the same window and expects zero allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sso_core::{queries, Expr, OperatorSpec, SamplingOperator};
use sso_types::{Tuple, Value};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: forwards to the system allocator; the counter is a
// thread-local `Cell`, touched without allocating.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

/// A `PKT`-shaped tuple: time, uts, srcIP, destIP, srcPort, destPort,
/// proto, len.
fn packet(time: u64, src: u64, dest: u64, len: u64) -> Tuple {
    let v = [time, time * 1_000_000_000, src, dest, 1000, 80, 6, len];
    Tuple::new(v.iter().map(|&x| Value::U64(x)).collect())
}

fn tuples() -> Vec<Tuple> {
    (0..64u64).map(|i| packet(5, 10 + i % 4, 100 + i % 3, 40 + i)).collect()
}

/// Allocations made by replaying `tuples` after a first pass over them.
fn steady_state_allocations(spec: OperatorSpec) -> u64 {
    let mut op = SamplingOperator::new(spec).expect("spec validates");
    let tuples = tuples();
    for t in &tuples {
        assert!(op.process(t).expect("process").is_none());
    }
    let before = allocations();
    for t in &tuples {
        assert!(op.process(t).expect("process").is_none());
    }
    allocations() - before
}

#[test]
fn aggregation_over_existing_groups_allocates_nothing() {
    assert_eq!(steady_state_allocations(queries::total_sum_query(60)), 0);
}

#[test]
fn supergroups_superaggregates_and_cleaning_allocate_nothing() {
    // Min-hash: supergroup per source, Kth_smallest_value$ in WHERE and
    // CLEANING WHEN/BY; at most 3 hashes per source, so no cleaning
    // evicts and every replayed tuple finds its group.
    assert_eq!(steady_state_allocations(queries::minhash_query(60, 10).unwrap()), 0);
}

#[test]
fn tuples_rejected_by_where_allocate_nothing() {
    let mut spec = queries::total_sum_query(60);
    spec.where_clause = Some(Expr::Column(7).gt(Expr::lit(10_000u64)));
    assert_eq!(steady_state_allocations(spec), 0);
}
