//! Repository benchmark for the YSINM reproduction.
//!
//! Three workloads, each generated from a seed inside this process and run
//! through the library's stable entry points only:
//!
//! - `paper_sweep`: `Scenario::paper_inside` + `sweep_with_threads`, the
//!   Table 1/4 sweep (5 fixed strategies × 11 vantage points × 77 sites ×
//!   3 trials) on [`WORKERS`] workers;
//! - `metro_serial`: `generate_world` + `run_metropolis_domains_world` with
//!   one domain on one worker, the declared serial reference;
//! - `metro_domains`: the same world as [`METRO_DOMAINS`] event domains on
//!   [`WORKERS`] workers.
//!
//! An untraced run prints the end-to-end metrics; a traced run (`--trace
//! 1`) rebuilds the same worlds from the library's public constructors with
//! every element behind a timing adapter ([`ledger`]) and prints the
//! per-layer ledger. See `README.md` in this directory.

pub mod ledger;
pub mod metro;
mod provenance;
pub mod report;
mod run;
pub mod sweep;

pub use report::Report;
pub use run::run;

use intang_telemetry::MetricsSheet;

/// Seed the pinned digests were recorded at.
pub const DEFAULT_SEED: u64 = 2017;
/// Worker threads for the parallel passes (the reference host has 2 cores).
pub const WORKERS: usize = 2;
/// Event domains of the `metro_domains` workload.
pub const METRO_DOMAINS: u32 = 8;

/// Workload size: the full benchmark, or a reduced smoke size for the
/// self-tests and quick manual checks (no pinned digests apply).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperSweep,
    MetroSerial,
    MetroDomains,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::PaperSweep, Workload::MetroSerial, Workload::MetroDomains];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper_sweep",
            Workload::MetroSerial => "metro_serial",
            Workload::MetroDomains => "metro_domains",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    /// Wall-clock budget of the measured passes; at least one pass runs.
    pub seconds: f64,
    /// Print the per-layer ledger instead of the end-to-end metrics.
    pub trace: bool,
    pub size: Size,
}

/// 64-bit FNV-1a, the digest behind every pinned value.
pub(crate) fn fnv64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Digest of a metrics sheet's non-zero content (counters, histograms and
/// per-strategy outcome slots), by name so that adding a counter that stays
/// zero does not move it.
pub(crate) fn sheet_digest(m: &MetricsSheet) -> u64 {
    use std::fmt::Write as _;
    let mut text = String::new();
    for (c, v) in m.nonzero_counters() {
        let _ = writeln!(text, "{}={v}", c.name());
    }
    for (h, hist) in m.nonzero_hists() {
        let _ = writeln!(text, "{}:{}:{}:{:?}", h.name(), hist.count, hist.sum, hist.buckets);
    }
    for slot in 0..intang_telemetry::metrics::STRATEGY_SLOTS {
        let row = m.strategy_outcomes(slot);
        if row != [0; 3] {
            let _ = writeln!(text, "slot{slot}={row:?}");
        }
    }
    fnv64(text.as_bytes())
}

/// Median of `v`: the mean of the two middle values when `v` has an even
/// length (0 when empty).
pub(crate) fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Nearest-rank percentile of `v`, `q` in `[0, 1]` (0 when empty).
pub(crate) fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// `num / den`, or 0 when there is nothing to divide by.
pub(crate) fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
