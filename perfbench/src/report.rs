//! Metric names and units, and the result line the benchmark prints.

/// End-to-end metrics, printed by an untraced run (`--trace 0`).
pub const END_TO_END: [(&str, &str); 4] = [("setup_s", "s"), ("ops_per_s", "1/s"), ("peak_rss_mb", "MB"), ("ok_share", "share")];

/// Per-layer metrics, printed by a traced run (`--trace 1`). A layer the
/// workload does not run reads 0.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("endpoint.calls_per_op", "calls/op"),
    ("endpoint.ns_per_call", "ns"),
    ("endpoint.share", "share"),
    ("shim.calls_per_op", "calls/op"),
    ("shim.ns_per_call", "ns"),
    ("shim.share", "share"),
    ("censor.calls_per_op", "calls/op"),
    ("censor.ns_per_call", "ns"),
    ("censor.share", "share"),
    ("middlebox.calls_per_op", "calls/op"),
    ("middlebox.ns_per_call", "ns"),
    ("middlebox.share", "share"),
    ("netsim.loop_ns_per_event", "ns"),
    ("netsim.pending_max", "events"),
    ("netsim.events_per_op", "events/op"),
    ("netsim.events_per_s", "1/s"),
    ("netsim.batch_mean", "events"),
    ("trial.build_us_p50", "us"),
    ("trial.build_us_p99", "us"),
    ("trial.drive_us_p50", "us"),
    ("trial.drive_us_p99", "us"),
    ("trial.classify_us_p50", "us"),
    ("packet.wire_pool_hit_rate", "share"),
    ("packet.arena_hit_rate", "share"),
    ("runner.busy_share", "share"),
    ("runner.merge_wait_s", "s"),
    ("runner.steal_failures", "count"),
    ("runner.merge_high_water", "cells"),
    ("metro.build_s", "s"),
    ("metro.domain_busy_max_s", "s"),
    ("metro.domain_imbalance", "ratio"),
    ("metro.merge_s", "s"),
    ("censor.tcbs_per_op", "tcbs/op"),
    ("censor.evicted_share", "share"),
    ("censor.dpi_bytes_per_op", "B/op"),
    ("censor.blacklist_hits_per_op", "hits/op"),
    ("shim.insertions_per_op", "pkts/op"),
    ("shim.probes_per_op", "pkts/op"),
    ("endpoint.segments_per_op", "segs/op"),
    ("endpoint.ignored_share", "share"),
    ("middlebox.drops_per_op", "pkts/op"),
    ("trace_overhead", "ratio"),
];

/// Metric values of one run, keyed by the names above.
#[derive(Debug, Default, Clone)]
pub(crate) struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    /// Set `name` (which must be one of [`END_TO_END`] or [`PER_LAYER`]).
    pub(crate) fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "unknown metric {name}");
        self.values.retain(|(n, _)| *n != name);
        self.values.push((name, value));
    }

    pub(crate) fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END.iter().chain(&PER_LAYER).find(|(n, _)| *n == name).map(|(_, u)| *u)
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Every metric of the run's kind (end-to-end or per-layer), in list
    /// order; unset ones read 0.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines printed before the result line.
    pub lines: Vec<String>,
}

impl Report {
    pub(crate) fn new(trace: bool, values: &Metrics, attempted: u64, failed: u64) -> Report {
        let list: &[(&'static str, &'static str)] = if trace { &PER_LAYER } else { &END_TO_END };
        Report {
            correct: failed == 0 && attempted > 0,
            attempted,
            failed,
            metrics: list.iter().map(|&(n, u)| (n, values.get(n).unwrap_or(0.0), u)).collect(),
            lines: Vec::new(),
        }
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", json_number(*v)))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip form
/// gives (non-finite values, which JSON cannot carry, read 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}
