//! The metric catalogue, kept in step with `BENCHMARK.json`, and the
//! small JSON reader that checks it.

/// One metric: what it is, and (for per-layer metrics) which
/// end-to-end metric it should move and on which workloads.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
    pub workloads: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
    workloads: &'static str,
) -> MetricDef {
    MetricDef { name, unit, better, moves, workloads }
}

pub const END_TO_END: &[MetricDef] = &[
    m("throughput_tps", "1/s", "higher", "-", "all"),
    m("setup_s", "s", "lower", "-", "all"),
    m("peak_rss_mb", "MiB", "lower", "-", "all"),
    m("cpu_s_per_mpkt", "s/Mpkt", "lower", "-", "all"),
];

/// `⇢` marks the workload that does most of a layer's work; a workload
/// not listed leaves the layer idle and reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("types.to_tuple_ns", "ns", "lower", "throughput_tps", "⇢hh_single ss_sharded kmv_durable"),
    m("query.parse_us", "us", "lower", "setup_s", "all"),
    m("query.plan_us", "us", "lower", "setup_s", "all"),
    m("analysis.audit_us", "us", "lower", "setup_s", "ss_sharded kmv_durable"),
    m("core.process_ns", "ns", "lower", "throughput_tps cpu_s_per_mpkt", "all"),
    m(
        "core.window_close_us_p50",
        "us",
        "lower",
        "throughput_tps",
        "⇢kmv_durable ⇢hh_single ss_sharded",
    ),
    m(
        "core.window_close_us_p95",
        "us",
        "lower",
        "throughput_tps",
        "⇢kmv_durable ⇢hh_single ss_sharded",
    ),
    m("core.admit_ratio", "ratio", "lower", "throughput_tps peak_rss_mb", "⇢ss_sharded all"),
    m("core.cleanings_per_ktuple", "1/ktuple", "lower", "throughput_tps", "⇢hh_single all"),
    m("core.evict_ratio", "ratio", "lower", "throughput_tps peak_rss_mb", "⇢hh_single all"),
    m("core.groups_per_window", "count", "lower", "throughput_tps peak_rss_mb", "all"),
    m("runtime.route_ns", "ns", "lower", "throughput_tps", "⇢ss_sharded kmv_durable"),
    m("runtime.ring_batch_ns", "ns", "lower", "throughput_tps", "⇢ss_sharded kmv_durable"),
    m("runtime.merge_us", "us", "lower", "throughput_tps", "⇢kmv_durable ss_sharded"),
    m(
        "runtime.worker_busy_ratio",
        "ratio",
        "higher",
        "throughput_tps cpu_s_per_mpkt",
        "ss_sharded kmv_durable",
    ),
    m(
        "runtime.stalls_per_mtuple",
        "1/Mtuple",
        "lower",
        "throughput_tps cpu_s_per_mpkt",
        "ss_sharded kmv_durable",
    ),
    m("runtime.stalls_per_mtuple_1shard", "1/Mtuple", "lower", "none (not gated)", "ss_sharded"),
    m("baseline.single_tps", "1/s", "higher", "none (speed-up base)", "ss_sharded"),
    m("runtime.speedup_vs_single", "x", "higher", "throughput_tps", "ss_sharded"),
    m("store.record_us", "us", "lower", "throughput_tps", "⇢kmv_durable"),
    m("store.checkpoint_ms", "ms", "lower", "throughput_tps", "⇢kmv_durable"),
    m("store.wal_bytes_per_window", "B", "lower", "throughput_tps", "⇢kmv_durable"),
    m("store.carry_bytes_per_window", "B", "lower", "throughput_tps", "⇢kmv_durable"),
    m("store.ckpt_kb", "KiB", "lower", "throughput_tps", "⇢kmv_durable"),
    m("store.share_pct", "%", "lower", "throughput_tps", "kmv_durable"),
    m("store.inmem_pass_s", "s", "lower", "none (store share base)", "all"),
    m("trace.overhead_pct", "%", "lower", "none", "all"),
    m("trace.replay_base_s", "s", "lower", "none (trace overhead base)", "all"),
    m("trace.unattributed_pct", "%", "lower", "none", "all"),
];

/// A parsed JSON value: just enough to read `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { s: text.as_bytes(), i: 0 };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing data at byte {}", p.i));
        }
        Ok(v)
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut kv = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(kv));
                }
                loop {
                    self.ws();
                    let k = self.string()?;
                    self.eat(b':')?;
                    kv.push((k, self.value()?));
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(kv));
                        }
                        _ => return Err(format!("bad object at byte {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut xs = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(xs));
                }
                loop {
                    xs.push(self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(xs));
                        }
                        _ => return Err(format!("bad array at byte {}", self.i)),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') if self.s[self.i..].starts_with(b"true") => {
                self.i += 4;
                Ok(Json::Bool(true))
            }
            Some(b'f') if self.s[self.i..].starts_with(b"false") => {
                self.i += 5;
                Ok(Json::Bool(false))
            }
            Some(b'n') if self.s[self.i..].starts_with(b"null") => {
                self.i += 4;
                Ok(Json::Null)
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len()
                    && matches!(self.s[self.i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad value at byte {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.s.get(self.i) != Some(&b'"') {
            return Err(format!("expected a string at byte {}", self.i));
        }
        self.i += 1;
        let mut out = Vec::new();
        while let Some(&c) = self.s.get(self.i) {
            self.i += 1;
            match c {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let e = *self.s.get(self.i).ok_or("unterminated escape")?;
                    self.i += 1;
                    match e {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'u' => {
                            let hex = self.s.get(self.i..self.i + 4).ok_or("short \\u escape")?;
                            let code =
                                u32::from_str_radix(std::str::from_utf8(hex).unwrap_or(""), 16)
                                    .map_err(|e| e.to_string())?;
                            self.i += 4;
                            let ch = char::from_u32(code).unwrap_or('\u{fffd}');
                            out.extend_from_slice(ch.to_string().as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                other => out.push(other),
            }
        }
        Err("unterminated string".into())
    }
}

/// Differences between the catalogue and the metric lists of a
/// `BENCHMARK.json` text; empty when they agree name for name, unit for
/// unit and direction for direction.
pub fn catalogue_mismatches(benchmark_json: &str) -> Vec<String> {
    let doc = match Json::parse(benchmark_json) {
        Ok(d) => d,
        Err(e) => return vec![format!("BENCHMARK.json does not parse: {e}")],
    };
    let mut out = Vec::new();
    for (section, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed: Vec<(String, String, String)> = match doc.get(section) {
            Some(Json::Arr(xs)) => xs
                .iter()
                .map(|x| {
                    let field = |k| x.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                    (field("name"), field("unit"), field("better"))
                })
                .collect(),
            _ => {
                out.push(format!("BENCHMARK.json has no {section} list"));
                continue;
            }
        };
        let ours: Vec<(String, String, String)> = defs
            .iter()
            .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.to_string()))
            .collect();
        for x in &listed {
            if !ours.contains(x) {
                out.push(format!("{section}: {x:?} is in BENCHMARK.json but not printed"));
            }
        }
        for x in &ours {
            if !listed.contains(x) {
                out.push(format!("{section}: {x:?} is printed but not in BENCHMARK.json"));
            }
        }
    }
    out
}

/// Render a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn printed_metric_names_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        assert_eq!(catalogue_mismatches(&text), Vec::<String>::new());
    }

    #[test]
    fn a_renamed_metric_is_caught() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root")
                .replace("\"setup_s\"", "\"set_up_s\"");
        assert_eq!(catalogue_mismatches(&text).len(), 2);
    }

    #[test]
    fn parser_reads_nested_values() {
        let v = Json::parse(r#"{"a": [1, -2.5e3, "x\"y"], "b": {"c": true, "d": null}}"#).unwrap();
        assert_eq!(
            v.get("a"),
            Some(&Json::Arr(vec![Json::Num(1.0), Json::Num(-2500.0), Json::Str("x\"y".into())]))
        );
        assert_eq!(v.get("b").and_then(|b| b.get("c")), Some(&Json::Bool(true)));
        assert!(Json::parse("{\"a\": 1} x").is_err());
    }
}
