//! Golden window outputs: every example query, planned from its text,
//! run over fixed-seed feeds on one operator instance and on four
//! shards. Each window is rendered — its key, every row value (floats
//! by bit pattern) and every `WindowStats` counter — and must match the
//! recorded file byte for byte, so a change to how the operator
//! evaluates its clauses cannot move a single output value. The file
//! keeps each window's first rows in clear and a 64-bit FNV-1a digest
//! of all of them (the subset-sum query with `N = 1` keeps every
//! packet).
//!
//! The four-shard record starts with a digest of the shard every tuple
//! routes to, so the router's decisions are pinned too.
//!
//! One extra query divides by zero in its GROUP BY partway through the
//! stream: the windows emitted before the error, the index of the tuple
//! that raised it and the error text are part of the record.

use std::fmt::Write as _;

use stream_sampler::prelude::*;

const GOLDEN: &str = include_str!("golden/windows.txt");

const SEEDS: [u64; 2] = [0x51, 0x5eed];
const SECONDS: u64 = 6;

/// GROUP BY `len / (srcIP % 4096)` divides by zero on the first source
/// address that is a multiple of 4096: in the third window of the
/// second seed's feed, never in the first seed's.
const DIV_ZERO_QUERY: &str =
    "SELECT tb, q, count(*) FROM PKT GROUP BY time/2 as tb, len / (srcIP % 4096) as q";

fn queries() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = queries::EXAMPLE_QUERIES
        .iter()
        .map(|(name, text)| (name.to_string(), text.replace("time/60", "time/2")))
        .collect();
    out.push(("group_by_divides_by_zero".to_string(), DIV_ZERO_QUERY.to_string()));
    out
}

fn spec(text: &str) -> OperatorSpec {
    let q = parse_query(text).expect("example query parses");
    stream_sampler::query::plan(&q, &Packet::schema(), &PlannerConfig::standard())
        .expect("example query plans")
}

fn render_value(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => write!(out, "b:{b}").unwrap(),
        Value::U64(x) => write!(out, "u:{x}").unwrap(),
        Value::I64(x) => write!(out, "i:{x}").unwrap(),
        Value::F64(x) => write!(out, "f:{:016x}", x.to_bits()).unwrap(),
        Value::Str(s) => write!(out, "s:{s:?}").unwrap(),
    }
}

fn render_tuple(out: &mut String, t: &Tuple) {
    out.push('(');
    for (i, v) in t.values().iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        render_value(out, v);
    }
    out.push(')');
}

/// Rows written in clear per window; the digest covers all of them.
const CLEAR_ROWS: usize = 3;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn render_window(out: &mut String, w: &WindowOutput) {
    let mut rows = String::new();
    for row in &w.rows {
        rows.push_str("    ");
        render_tuple(&mut rows, row);
        rows.push('\n');
    }
    out.push_str("  window ");
    render_tuple(out, &w.window);
    let s = &w.stats;
    writeln!(
        out,
        " tuples={} admitted={} cleanings={} created={} evicted={} rows={} digest={:016x}",
        s.tuples,
        s.admitted,
        s.cleaning_phases,
        s.groups_created,
        s.evictions,
        s.output_rows,
        fnv1a(rows.as_bytes())
    )
    .unwrap();
    for line in rows.lines().take(CLEAR_ROWS) {
        out.push_str(line);
        out.push('\n');
    }
}

/// One operator instance fed tuple by tuple, so an error is recorded
/// with the position of the tuple that raised it.
fn render_single(out: &mut String, text: &str, packets: &[Packet]) {
    let mut op = SamplingOperator::new(spec(text)).expect("spec validates");
    for (i, p) in packets.iter().enumerate() {
        match op.process(&p.to_tuple()) {
            Ok(Some(w)) => render_window(out, &w),
            Ok(None) => {}
            Err(e) => {
                writeln!(out, "  error at tuple {i}: {e}").unwrap();
                return;
            }
        }
    }
    match op.finish() {
        Ok(Some(w)) => render_window(out, &w),
        Ok(None) => {}
        Err(e) => writeln!(out, "  error at finish: {e}").unwrap(),
    }
}

/// The shard each tuple routes to, as a digest of the whole sequence.
fn render_routes(out: &mut String, text: &str, packets: &[Packet]) {
    let Ok(plan) = shard_plan(&spec(text)) else {
        return;
    };
    let tuples: Vec<Tuple> = packets.iter().map(Packet::to_tuple).collect();
    let routes = stream_sampler::runtime::route_stream(&plan, 4, &tuples);
    let bytes: Vec<u8> = routes.iter().map(|&s| s as u8).collect();
    writeln!(out, "  routes digest={:016x}", fnv1a(&bytes)).unwrap();
}

fn render_sharded(out: &mut String, text: &str, packets: &[Packet]) {
    render_routes(out, text, packets);
    let make = |_shard: usize| Ok(spec(text));
    match run_plan_sharded(
        Box::new(SelectionNode::pass_all()),
        make,
        &RuntimeConfig::new(4),
        packets.to_vec(),
    ) {
        Ok(report) => {
            for w in &report.windows {
                render_window(out, w);
            }
        }
        Err(e) => writeln!(out, "  error: {e}").unwrap(),
    }
}

fn render_all() -> String {
    let mut out = String::new();
    for seed in SEEDS {
        let packets = research_feed(seed).take_seconds(SECONDS);
        for (name, text) in queries() {
            writeln!(out, "{name} seed={seed:#x} shards=1").unwrap();
            render_single(&mut out, &text, &packets);
            writeln!(out, "{name} seed={seed:#x} shards=4").unwrap();
            render_sharded(&mut out, &text, &packets);
        }
    }
    out
}

#[test]
fn example_query_windows_match_the_golden_record() {
    let rendered = render_all();
    if rendered != GOLDEN {
        let line = rendered
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| rendered.lines().count().min(GOLDEN.lines().count()));
        panic!(
            "window output diverges from tests/golden/windows.txt at line {}:\n  got:      {}\n  expected: {}",
            line + 1,
            rendered.lines().nth(line).unwrap_or("<end>"),
            GOLDEN.lines().nth(line).unwrap_or("<end>"),
        );
    }
}
