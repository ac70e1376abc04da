//! Self-tests of the benchmark: the metric list against `BENCHMARK.json`,
//! a smoke-size run of every workload through the correctness check, the
//! check's own sensitivity, and the identity of the traced worlds with the
//! library's untraced output.

use perfbench::metro::{self, MetroInputs, MetroSummary};
use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::sweep::{self, SweepInputs};
use perfbench::{RunConfig, Size, Workload, METRO_DOMAINS};
use std::collections::BTreeMap;

/// A JSON value, as far as `BENCHMARK.json` needs one.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            _ => panic!("not an object: {self:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => panic!("not a string: {self:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            _ => panic!("not an array: {self:?}"),
        }
    }
}

/// Recursive-descent parser over the bytes of a JSON document.
struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Json {
        let mut p = Parser { s: text.as_bytes(), i: 0 };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing bytes after the JSON value");
        v
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) {
        self.ws();
        assert_eq!(self.s.get(self.i), Some(&b), "expected {:?} at byte {}", b as char, self.i);
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key must be a string")
                    };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k, v).is_none(), "duplicate key");
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(m);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut a = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(a);
                }
                loop {
                    a.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(a);
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let start = self.i;
                while self.s[self.i] != b'"' {
                    assert_ne!(self.s[self.i], b'\\', "escapes are not expected here");
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).expect("utf-8"))
            }
            b't' | b'f' | b'n' => {
                let word = if self.s[self.i..].starts_with(b"true") {
                    Json::Bool(true)
                } else if self.s[self.i..].starts_with(b"false") {
                    Json::Bool(false)
                } else {
                    assert!(self.s[self.i..].starts_with(b"null"));
                    Json::Null
                };
                self.i += if word == Json::Bool(false) { 5 } else { 4 };
                word
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && matches!(self.s[self.i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii");
                Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text:?}")))
            }
        }
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Parser::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark"))
}

fn listed(section: &Json) -> Vec<(String, String)> {
    section
        .arr()
        .iter()
        .map(|m| (m.get("name").str().to_string(), m.get("unit").str().to_string()))
        .collect()
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
}

#[test]
fn metric_and_workload_lists_match_benchmark_json() {
    let b = benchmark_json();
    assert_eq!(listed(b.get("end_to_end")), owned(&END_TO_END));
    assert_eq!(listed(b.get("per_layer")), owned(&PER_LAYER));
    let workloads: Vec<&str> = b.get("workloads").arr().iter().map(|w| w.get("name").str()).collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

fn smoke(workload: Workload, trace: bool) -> perfbench::Report {
    perfbench::run(&RunConfig {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        size: Size::Smoke,
    })
}

#[test]
fn every_workload_passes_the_check_at_smoke_size_and_prints_every_metric() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let r = smoke(workload, trace);
            let tag = format!("{} trace={trace}", workload.name());
            assert!(r.correct && r.failed == 0 && r.attempted > 0, "{tag}: {:?}", r.lines);
            let printed: Vec<(String, String)> = r.metrics.iter().map(|(n, _, u)| (n.to_string(), u.to_string())).collect();
            assert_eq!(printed, owned(if trace { &PER_LAYER } else { &END_TO_END }), "{tag}");
            assert!(r.metrics.iter().all(|(_, v, _)| v.is_finite()), "{tag}: {:?}", r.metrics);
            let last = r.json();
            let parsed = Parser::parse(&last);
            assert_eq!(parsed.get("correct"), &Json::Bool(true), "{tag}");
            for (name, value, unit) in &r.metrics {
                let m = parsed.get("metrics").get(name);
                assert_eq!((m.get("value"), m.get("unit").str()), (&Json::Num(*value), *unit), "{tag}");
            }
            let value = |name: &str| r.metrics.iter().find(|(n, _, _)| *n == name).map(|(_, v, _)| *v).expect("listed");
            if trace {
                for layer in ["endpoint", "shim", "censor"] {
                    assert!(value(&format!("{layer}.calls_per_op")) > 0.0, "{tag}: {layer} made no calls");
                }
                assert_eq!(value("middlebox.calls_per_op") > 0.0, workload == Workload::PaperSweep, "{tag}");
                assert!(value("trace_overhead") > 0.0, "{tag}");
            } else {
                assert!(
                    value("ops_per_s") > 0.0 && value("setup_s") > 0.0 && value("peak_rss_mb") > 0.0,
                    "{tag}"
                );
                assert_eq!(value("ok_share"), 1.0, "{tag}");
            }
        }
    }
}

/// Element calls are disjoint slices of the run: element time plus loop
/// time is the whole `run_until` time, and both parts are non-empty.
fn covers_run_time(t: &perfbench::ledger::RunTotals) {
    let elements = t.layers.element_nanos();
    assert!(
        elements > 0 && t.loop_nanos() > 0,
        "{elements} ns in elements of {} ns run",
        t.run_nanos
    );
    assert_eq!(elements + t.loop_nanos(), t.run_nanos);
}

#[test]
fn traced_sweep_worlds_reproduce_the_untraced_sweep() {
    let inputs = SweepInputs::generate(11, Size::Smoke);
    let untraced = sweep::summaries(&sweep::pass(&inputs, 1, false));
    let traced = sweep::traced_pass(&inputs, 2);
    assert_eq!(traced.summaries, untraced, "events, outcomes and merged sheets must match");
    assert_eq!(traced.totals.events, untraced.iter().map(|s| s.events).sum::<u64>());
    assert_eq!(traced.build_us.len() as u64, inputs.trials());
    covers_run_time(&traced.totals);
}

#[test]
fn traced_metropolis_domains_reproduce_the_serial_reference() {
    let inputs = MetroInputs::generate(11, Size::Smoke);
    let serial = MetroSummary::from(&metro::pass(&inputs, 1).run);
    assert_eq!(serial.counts.0, inputs.flows());
    for (domains, workers) in [(1, 1), (METRO_DOMAINS, 2)] {
        let traced = metro::traced_pass(&inputs, domains, workers);
        assert!(
            traced.summary == serial,
            "{domains} traced domains differ from the serial reference"
        );
        covers_run_time(&traced.totals);
        assert!(traced.totals.pending_max > 0);
    }
}

#[test]
fn the_sweep_check_fails_exactly_the_cell_that_differs() {
    let inputs = SweepInputs::generate(3, Size::Smoke);
    let reference = sweep::summaries(&sweep::pass(&inputs, 2, false));
    let mut notes = Vec::new();
    assert_eq!(sweep::failed_trials(&inputs, &reference, &reference, &mut notes), 0);
    let mut tampered = reference.clone();
    let d = tampered[0].diagnoses.first_mut().expect("no-strategy trials fail");
    d.resets_seen += 1;
    assert_eq!(
        sweep::failed_trials(&inputs, &reference, &tampered, &mut notes),
        inputs.trials_per_cell()
    );
    let mut tampered = reference.clone();
    tampered[1].events += 1;
    assert_eq!(
        sweep::failed_trials(&inputs, &reference, &tampered, &mut notes),
        inputs.cells() as u64 * inputs.trials_per_cell(),
        "a difference outside any cell fails the whole strategy"
    );
    assert_eq!(notes.len(), 2);
}

#[test]
fn the_metropolis_check_fails_exactly_the_shard_that_differs() {
    let inputs = MetroInputs::generate(3, Size::Smoke);
    let reference = MetroSummary::from(&metro::pass(&inputs, 1).run);
    let mut notes = Vec::new();
    assert_eq!(metro::failed_flows(&inputs, &reference, &reference, &mut notes), 0);
    let mut tampered = reference.clone();
    tampered.results[0].latency_us += 1;
    let shard = tampered.results[0].shard;
    let in_shard = reference.results.iter().filter(|r| r.shard == shard).count() as u64;
    assert_eq!(metro::failed_flows(&inputs, &reference, &tampered, &mut notes), in_shard);
    let mut tampered = reference.clone();
    tampered.order_violations = 1;
    assert_eq!(metro::failed_flows(&inputs, &reference, &tampered, &mut notes), inputs.flows());
    assert_eq!(notes.len(), 2);
}
