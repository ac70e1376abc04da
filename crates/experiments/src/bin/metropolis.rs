//! Metropolis scale runner: one shared simulated world hosting a large
//! population of concurrent client flows behind one INTANG shim and one
//! logical GFW tap. Sweeps the flow count (1k → 100k by default, higher
//! with `--flows`) on the `domains = 1` serial reference, reporting
//! per-flow outcome counts, cross-flow interference counters (blacklist
//! collateral resets, TCB evictions, resync storms), throughput (flows/s,
//! events/s) and peak RSS.
//!
//! The sweep's largest point then doubles as the reference for parallel
//! event domains (`run_metropolis_domains`): the full domain count across
//! 1/2/`--workers` threads, with every cell byte-compared against it
//! (outcome grid, counters, metrics). The JSON gains a `parallel` section
//! carrying `cores`, per-worker busy/steal/merge statistics and
//! per-domain event counts — honest numbers: on a 1-core container the
//! wall-clock speedup ceiling is 1x and the report says so rather than
//! inventing throughput.
//!
//! Writes `BENCH_metropolis.json` into the current directory (skipped on
//! `--quick`, so the CI smoke run never clobbers the full artifact).
//! `--smoke` runs a 1k-flow world with simcheck forced on — the serial
//! reference, then a multi-domain parallel leg byte-compared against it —
//! requires zero invariant violations, zero per-flow ordering regressions
//! and zero serial/parallel divergence. In every mode, when
//! `INTANG_METRO_RSS_MB` is set, the process exits non-zero if its peak
//! RSS over all runs exceeds that many megabytes.
//!
//! Extra flags beyond the common set (parsed by
//! [`intang_experiments::args::MetroFlags`]): `--flows N` caps the sweep
//! at `N` flows (adding `N` as a sweep point), `--shards N` overrides the
//! lane count (default 8), `--domains N` the parallel domain count
//! (default = shards), `--workers N` the max worker-thread count (default
//! = cores), `--middlebox` inserts a strict server-side sequence firewall
//! one hop past the censor, and `--censor-profile SPEC` (common set) runs
//! the censor from a compiled profile instead of the stock evolved model.

use intang_experiments::args::{CommonArgs, MetroFlags};
use intang_experiments::metropolis::{run_metropolis_domains, shard_latency_stats, MetroDomainsRun, MetroParams, MetroRun};
use intang_gfw::{EvictionPolicy, GfwConfig};
use intang_telemetry::GaugeId;
use std::fmt::Write as _;
use std::time::Instant;

/// Peak resident-set high-water mark (`VmHWM`) of this process in kB,
/// from `/proc/self/status`. Process-wide and monotonic: a value reported
/// after a sweep point covers everything run so far. `None` off Linux.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// One sweep point, run as the `domains = 1` serial reference.
struct Measurement {
    flows: u32,
    wall_s: f64,
    run: MetroRun,
    peak_rss_kb: Option<u64>,
}

/// Worker threads this container can actually run at once.
fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

struct ParallelMeasurement {
    domains: u32,
    workers: usize,
    wall_s: f64,
    run: MetroDomainsRun,
    /// Byte-identical to the `domains = 1` serial reference.
    identical: bool,
}

/// Field-wise byte comparison of the deterministic payload (wall-clock
/// diagnostics excluded by construction).
fn runs_identical(a: &MetroRun, b: &MetroRun) -> bool {
    a.results == b.results
        && a.counts == b.counts
        && a.shards == b.shards
        && a.events == b.events
        && a.collateral_resets == b.collateral_resets
        && a.tcbs_evicted == b.tcbs_evicted
        && a.resync_storms == b.resync_storms
        && a.metrics == b.metrics
        && a.series == b.series
}

/// Non-sweep knobs shared by every run of one invocation.
#[derive(Clone, Default)]
struct WorldKnobs {
    censor: Option<GfwConfig>,
    middlebox: bool,
}

fn params(flows: u32, seed: u64, shards: u32, knobs: &WorldKnobs) -> MetroParams {
    let mut p = MetroParams::new(flows, seed);
    p.shards = shards;
    p.censor = knobs.censor.clone();
    p.middlebox = knobs.middlebox;
    p
}

fn measure_domains(
    flows: u32,
    seed: u64,
    shards: u32,
    knobs: &WorldKnobs,
    domains: u32,
    workers: usize,
    reference: &MetroRun,
) -> ParallelMeasurement {
    let start = Instant::now();
    let run = run_metropolis_domains(&params(flows, seed, shards, knobs), domains, workers);
    let wall_s = start.elapsed().as_secs_f64();
    let identical = runs_identical(reference, &run.run);
    ParallelMeasurement {
        domains: run.domains,
        workers: run.workers,
        wall_s,
        run,
        identical,
    }
}

fn measure(flows: u32, seed: u64, shards: u32, knobs: &WorldKnobs) -> Measurement {
    let start = Instant::now();
    let run = run_metropolis_domains(&params(flows, seed, shards, knobs), 1, 1).run;
    let wall_s = start.elapsed().as_secs_f64();
    Measurement {
        flows,
        wall_s,
        run,
        peak_rss_kb: peak_rss_kb(),
    }
}

/// `--smoke`: CI gate. 1k flows with simcheck forced on — the serial
/// reference, then a multi-domain parallel leg byte-compared against it;
/// fails on any invariant violation, ordering regression, non-terminal
/// flow, serial/parallel divergence, or (when `INTANG_METRO_RSS_MB` is
/// set) peak RSS above the ceiling.
fn smoke_gate(seed: u64, shards: u32, knobs: &WorldKnobs, domains: u32, workers: usize) -> ! {
    intang_simcheck::set_thread(Some(true));
    let m = measure(1_000, seed, shards, knobs);
    let (spawned, succeeded, reset, stalled) = m.run.counts;
    eprintln!(
        "metropolis --smoke: {spawned} flows in {:.2}s ({succeeded} ok / {reset} reset / {stalled} stalled), \
         {} collateral resets, {} evictions, {} storms, {} simcheck violation(s)",
        m.wall_s, m.run.collateral_resets, m.run.tcbs_evicted, m.run.resync_storms, m.run.violations,
    );
    let mut failed = false;
    if succeeded + reset + stalled != spawned {
        eprintln!(
            "ERROR: {} flow(s) left in a non-terminal state",
            spawned - succeeded - reset - stalled
        );
        failed = true;
    }
    // Parallel leg: the same world as event domains, still under
    // simcheck, byte-compared against the serial reference.
    let par = measure_domains(1_000, seed, shards, knobs, domains, workers, &m.run);
    eprintln!(
        "metropolis --smoke (parallel): {} domains x {} workers in {:.2}s, {} events, identical={}, {} simcheck violation(s)",
        par.domains, par.workers, par.wall_s, par.run.run.events, par.identical, par.run.run.violations,
    );
    if !par.identical {
        eprintln!(
            "ERROR: parallel metropolis ({} domains, {} workers) diverged from the serial reference",
            par.domains, par.workers
        );
        failed = true;
    }
    let violations = m.run.violations + par.run.run.violations;
    if violations > 0 {
        eprintln!(
            "ERROR: simcheck reported {violations} invariant violation(s); minimal repro artifacts are in {}",
            intang_experiments::simcheck::artifact_dir().display()
        );
        failed = true;
    }
    let order_violations = m.run.order_violations + par.run.run.order_violations;
    if order_violations > 0 {
        eprintln!("ERROR: {order_violations} per-flow (time, seq) ordering regression(s)");
        failed = true;
    }
    failed |= rss_gate_failed();
    std::process::exit(if failed { 1 } else { 0 });
}

/// When `INTANG_METRO_RSS_MB` is set, check the process's peak RSS
/// against it; true (after printing why) when the peak exceeds the
/// ceiling or cannot be read. Called once every run of the invocation is
/// done: `VmHWM` is monotonic, so the check covers all of them.
fn rss_gate_failed() -> bool {
    let Ok(gate) = std::env::var("INTANG_METRO_RSS_MB") else {
        return false;
    };
    let ceiling_mb: u64 = gate.parse().expect("INTANG_METRO_RSS_MB must be a number of megabytes");
    match peak_rss_kb() {
        Some(kb) if kb / 1024 <= ceiling_mb => {
            eprintln!("  rss gate: peak {} MB <= ceiling {ceiling_mb} MB", kb / 1024);
            false
        }
        Some(kb) => {
            eprintln!("ERROR: peak RSS {} MB exceeds ceiling {ceiling_mb} MB", kb / 1024);
            true
        }
        None => {
            eprintln!("ERROR: INTANG_METRO_RSS_MB set but /proc/self/status is unreadable");
            true
        }
    }
}

fn main() {
    let usage = "metropolis flags: --flows N, --shards N, --domains N, --workers N, --middlebox, \
                 plus the common set (--quick/--smoke/--seed/--censor-profile/...)";
    let parsed =
        MetroFlags::split(std::env::args().skip(1)).and_then(|(flags, rest)| CommonArgs::parse_from(rest).map(|args| (flags, args)));
    let (flags, args) = match parsed {
        Ok(p) => p,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{usage}");
            std::process::exit(2);
        }
    };
    let MetroFlags {
        flows: flows_cap,
        shards,
        domains,
        workers: max_workers,
        middlebox,
        smoke,
    } = flags;
    let knobs = WorldKnobs {
        censor: args.censor_config(),
        middlebox,
    };
    let domains = domains.unwrap_or(shards).clamp(1, shards);
    let max_workers = max_workers.unwrap_or_else(cores).clamp(1, domains as usize);
    if smoke {
        smoke_gate(args.seed, shards, &knobs, domains, max_workers.max(2).min(domains as usize));
    }

    let mut sweep: Vec<u32> = if args.quick { vec![1_000] } else { vec![1_000, 10_000, 100_000] };
    if let Some(cap) = flows_cap {
        sweep.retain(|&f| f < cap);
        sweep.push(cap);
    }
    eprintln!("metropolis: sweeping {sweep:?} flows, {shards} shards, seed {}", args.seed);

    let mut measurements = Vec::new();
    for &flows in &sweep {
        let m = measure(flows, args.seed, shards, &knobs);
        let (spawned, succeeded, reset, stalled) = m.run.counts;
        eprintln!(
            "  {flows:>8} flows: {:8.2}s  {:>9.0} flows/s  {:>11.0} events/s  \
             {succeeded} ok / {reset} reset / {stalled} stalled  \
             collateral={} evicted={} storms={} rss={}MB",
            m.wall_s,
            spawned as f64 / m.wall_s,
            m.run.events as f64 / m.wall_s,
            m.run.collateral_resets,
            m.run.tcbs_evicted,
            m.run.resync_storms,
            m.peak_rss_kb.map_or(0, |kb| kb / 1024),
        );
        measurements.push(m);
    }

    // Instrumented pass: rerun the smallest sweep point with the gauge
    // series enabled, strictly after the timed loop so sampling cost never
    // touches the throughput numbers.
    let prev = intang_telemetry::series::set_thread(Some(true));
    let instrumented = measure(sweep[0], args.seed, shards, &knobs);
    intang_telemetry::series::set_thread(prev);
    let series = instrumented.run.series.as_deref();

    // Parallel event domains: the largest sweep point — already run as
    // the `domains = 1` serial reference — again at the full domain count
    // on 1/2/max worker threads, each cell byte-compared to the reference.
    let largest = measurements.last().expect("sweep is non-empty");
    let par_flows = largest.flows;
    let ncores = cores();
    if max_workers > ncores {
        eprintln!(
            "warning: {max_workers} worker threads on {ncores} core(s); wall-clock speedup is bounded by cores \
             (per-worker busy seconds below measure the work actually overlapped)"
        );
    }
    eprintln!("metropolis: parallel domains at {par_flows} flows, {domains} domains, up to {max_workers} workers ({ncores} cores)");
    // Always include the full-width cell (workers = domains) so the
    // artifact documents the many-threads-few-cores ceiling explicitly.
    let mut worker_axis = vec![1usize, 2, max_workers, domains as usize];
    worker_axis.sort_unstable();
    worker_axis.dedup();
    worker_axis.retain(|&w| w <= domains as usize);
    let mut parallel = Vec::new();
    for &w in &worker_axis {
        let m = measure_domains(par_flows, args.seed, shards, &knobs, domains, w, &largest.run);
        eprintln!(
            "  {:>3} domains x {}w: {:8.2}s  {:>11.0} events/s  speedup={:.2}x  identical={}  steals={}/{} failed",
            m.domains,
            m.workers,
            m.wall_s,
            m.run.run.events as f64 / m.wall_s,
            largest.wall_s / m.wall_s,
            m.identical,
            m.run.worker_stats.iter().map(|s| s.steal_attempts).sum::<u64>(),
            m.run.worker_stats.iter().map(|s| s.steal_failures).sum::<u64>(),
        );
        parallel.push(m);
    }

    // Span-profiler pass: rerun the largest sweep point with the span
    // stack on and export the folded profile — the tool that localized
    // the 10k -> 100k flows/s collapse to the server-cell TTL backlog.
    // Domain work runs on worker threads, so fold their sheets.
    if args.profile_folded.is_some() {
        let prev = intang_telemetry::spans::set_thread(Some(true));
        let run = run_metropolis_domains(&params(par_flows, args.seed, shards, &knobs), 1, 1);
        intang_telemetry::spans::set_thread(prev);
        let mut profile = intang_telemetry::SpanSheet::default();
        for p in &run.worker_profiles {
            profile.merge(p);
        }
        args.write_profile_folded(&profile);
    }

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"provenance\": {},", intang_experiments::provenance::json());
    let _ = writeln!(json, "  \"master_seed\": {},", args.seed);
    let _ = writeln!(json, "  \"shards\": {shards},");
    let _ = writeln!(json, "  \"cores\": {ncores},");
    let flows_list: Vec<String> = sweep.iter().map(u32::to_string).collect();
    let _ = writeln!(json, "  \"flows_sweep\": [{}],", flows_list.join(", "));
    let _ = writeln!(
        json,
        "  \"censor\": {{\"max_tcbs\": {}, \"eviction\": \"{:?}\", \"profile\": \"{}\", \"middlebox\": {}}},",
        MetroParams::new(1, 0).max_tcbs,
        EvictionPolicy::Oldest,
        args.censor_profile.as_deref().unwrap_or("builtin-evolved"),
        middlebox,
    );
    json.push_str("  \"runs\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        let (spawned, succeeded, reset, stalled) = m.run.counts;
        let lat = shard_latency_stats(&m.run.shards);
        let _ = write!(
            json,
            "    {{\"flows\": {}, \"wall_s\": {:.3}, \"flows_per_s\": {:.1}, \"events\": {}, \"events_per_s\": {:.0}, \
             \"succeeded\": {succeeded}, \"reset\": {reset}, \"stalled\": {stalled}, \
             \"collateral_resets\": {}, \"tcbs_evicted\": {}, \"resync_storms\": {}, \
             \"order_violations\": {}, \"peak_rss_kb\": {}, \
             \"shard_latency_us\": {{\"min\": {:.1}, \"max\": {:.1}, \"avg\": {:.1}, \"empty_shards\": {}}}}}",
            m.flows,
            m.wall_s,
            spawned as f64 / m.wall_s,
            m.run.events,
            m.run.events as f64 / m.wall_s,
            m.run.collateral_resets,
            m.run.tcbs_evicted,
            m.run.resync_storms,
            m.run.order_violations,
            m.peak_rss_kb.map_or_else(|| "null".to_string(), |kb| kb.to_string()),
            lat.min,
            lat.max,
            lat.avg,
            lat.empty,
        );
        json.push_str(if i + 1 < measurements.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    // Parallel event domains: the determinism grid plus honest executor
    // numbers. `identical` is the byte-comparison against the serial
    // reference; busy/steal/merge are wall-clock diagnostics and vary run
    // to run.
    let _ = writeln!(json, "  \"parallel\": {{");
    let _ = writeln!(json, "    \"flows\": {par_flows},");
    let _ = writeln!(json, "    \"domains\": {domains},");
    let _ = writeln!(
        json,
        "    \"note\": \"wall-clock speedup is bounded by cores ({ncores}); per-worker busy_s measures overlapped work\","
    );
    let _ = writeln!(
        json,
        "    \"reference\": {{\"domains\": 1, \"workers\": 1, \"wall_s\": {:.3}, \"events\": {}, \"events_per_s\": {:.0}}},",
        largest.wall_s,
        largest.run.events,
        largest.run.events as f64 / largest.wall_s,
    );
    json.push_str("    \"runs\": [\n");
    for (i, m) in parallel.iter().enumerate() {
        let workers_json: Vec<String> = m
            .run
            .worker_stats
            .iter()
            .map(|s| {
                format!(
                    "{{\"busy_s\": {:.3}, \"merge_wait_s\": {:.6}, \"steal_attempts\": {}, \"steal_failures\": {}}}",
                    s.busy.as_secs_f64(),
                    s.merge_wait.as_secs_f64(),
                    s.steal_attempts,
                    s.steal_failures,
                )
            })
            .collect();
        let domains_json: Vec<String> = m
            .run
            .domain_stats
            .iter()
            .map(|d| {
                format!(
                    "{{\"domain\": {}, \"events\": {}, \"flows\": {}, \"busy_s\": {:.3}}}",
                    d.domain,
                    d.events,
                    d.flows_owned,
                    d.busy.as_secs_f64()
                )
            })
            .collect();
        let _ = write!(
            json,
            "      {{\"domains\": {}, \"workers\": {}, \"wall_s\": {:.3}, \"flows_per_s\": {:.1}, \"events_per_s\": {:.0}, \
             \"speedup_vs_serial\": {:.3}, \"identical\": {}, \"order_violations\": {}, \
             \"worker_stats\": [{}], \"domain_stats\": [{}]}}",
            m.domains,
            m.workers,
            m.wall_s,
            m.run.run.counts.0 as f64 / m.wall_s,
            m.run.run.events as f64 / m.wall_s,
            largest.wall_s / m.wall_s,
            m.identical,
            m.run.run.order_violations,
            workers_json.join(", "),
            domains_json.join(", "),
        );
        json.push_str(if i + 1 < parallel.len() { ",\n" } else { "\n" });
    }
    json.push_str("    ]\n  },\n  \"counters\": {");
    let counters: Vec<String> = largest
        .run
        .metrics
        .nonzero_counters()
        .map(|(c, v)| format!("\"{}\": {v}", c.name()))
        .collect();
    json.push_str(&counters.join(", "));
    json.push_str("},\n  \"series\": {");
    let gauges: Vec<String> = series
        .map(|s| {
            GaugeId::ALL
                .iter()
                .filter(|&&id| !s.series(id).is_empty())
                .map(|&id| format!("\"{}\": {}", id.name(), s.series(id).to_json()))
                .collect()
        })
        .unwrap_or_default();
    json.push_str(&gauges.join(", "));
    json.push_str("}\n}\n");

    if !args.quick {
        std::fs::write("BENCH_metropolis.json", &json).expect("write BENCH_metropolis.json");
    }
    println!("{json}");

    let mut failed = false;
    if let Some(m) = parallel.iter().find(|m| !m.identical) {
        eprintln!(
            "ERROR: parallel metropolis ({} domains, {} workers) diverged from the serial reference",
            m.domains, m.workers
        );
        failed = true;
    }
    if let Some(m) = parallel.iter().find(|m| m.run.run.order_violations > 0) {
        eprintln!(
            "ERROR: {} ordering regression(s) in the parallel run at {} workers",
            m.run.run.order_violations, m.workers
        );
        failed = true;
    }
    if let Some(m) = measurements.iter().find(|m| m.run.order_violations > 0) {
        eprintln!(
            "ERROR: {} per-flow (time, seq) ordering regression(s) at {} flows",
            m.run.order_violations, m.flows
        );
        failed = true;
    }
    let total_violations: u64 =
        measurements.iter().map(|m| m.run.violations).sum::<u64>() + parallel.iter().map(|m| m.run.run.violations).sum::<u64>();
    if intang_simcheck::enabled() {
        eprintln!("  simcheck: {total_violations} invariant violation(s) across all runs");
        if total_violations > 0 {
            eprintln!(
                "ERROR: simcheck reported invariant violations; minimal repro artifacts are in {}",
                intang_experiments::simcheck::artifact_dir().display()
            );
            failed = true;
        }
    }
    failed |= rss_gate_failed();
    if failed {
        std::process::exit(1);
    }
}
