//! One run of one workload: set-up, measured passes, the correctness
//! check, and the metrics of the run's kind.

use crate::ledger::{Layer, RunTotals};
use crate::metro::{self, MetroInputs, MetroSummary};
use crate::report::{Metrics, Report, PER_LAYER};
use crate::sweep::{self, SweepInputs};
use crate::{median, percentile, provenance, ratio, RunConfig, Workload, METRO_DOMAINS, WORKERS};
use intang_telemetry::{Counter, MetricsSheet};
use std::time::{Duration, Instant};

/// Each set-up batch repeats at least this often, and until this much time
/// has passed.
const SETUP_BATCH_REPS: usize = 3;
const SETUP_BATCH_TIME: Duration = Duration::from_millis(20);

pub fn run(cfg: &RunConfig) -> Report {
    match cfg.workload {
        Workload::PaperSweep => run_sweep(cfg),
        Workload::MetroSerial => run_metro(cfg, 1),
        Workload::MetroDomains => run_metro(cfg, METRO_DOMAINS),
    }
}

/// Set-up timing. Input generation repeats in short batches, one batch
/// before the first pass and one after every pass, so the batches sample
/// the host over the whole run as the passes do. A batch's time is its
/// fastest repetition: a set-up takes microseconds to milliseconds and is
/// allocation-bound, and on a shared host single repetitions swing up to
/// 2x with other tenants' memory traffic. `setup_s` is the median batch.
/// The first repetition also pays process-wide lazy initialisation (the
/// shared DPI automaton).
struct Setup<T, F: FnMut() -> T> {
    generate: F,
    batches: Vec<f64>,
}

impl<T, F: FnMut() -> T> Setup<T, F> {
    fn new(generate: F) -> Setup<T, F> {
        Setup {
            generate,
            batches: Vec::new(),
        }
    }

    /// Run one batch and return the last inputs it generated.
    fn batch(&mut self) -> T {
        let started = Instant::now();
        let mut fastest = f64::INFINITY;
        let mut inputs = None;
        for rep in 0.. {
            if rep >= SETUP_BATCH_REPS && started.elapsed() >= SETUP_BATCH_TIME {
                break;
            }
            drop(inputs.take());
            let t = Instant::now();
            let _ = intang_gfw::dpi::shared_paper_default();
            inputs = Some(std::hint::black_box((self.generate)()));
            fastest = fastest.min(t.elapsed().as_secs_f64());
        }
        self.batches.push(fastest);
        inputs.expect("a batch generates at least once")
    }

    fn median_s(&self) -> f64 {
        median(&self.batches)
    }
}

/// Operations attempted and failed, with a note per failing check.
#[derive(Debug, Default, Clone)]
struct Tally {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Tally {
    fn record(&mut self, ops: u64, failed: u64, what: &str) {
        self.attempted += ops;
        self.failed += failed;
        if failed > 0 {
            self.notes.push(format!("{what}: {failed} of {ops} operations failed the check"));
        }
    }
}

/// Process-wide diagnostics counters (event batching, wire pool, arenas).
#[derive(Debug, Default, Clone, Copy)]
struct ProcessStats {
    batches: u64,
    batched_events: u64,
    pool_hits: u64,
    pool_misses: u64,
    arena_hits: u64,
    arena_misses: u64,
}

impl ProcessStats {
    fn now() -> ProcessStats {
        let (batches, batched_events, _) = intang_netsim::batch::stats();
        let (pool_hits, pool_misses) = intang_packet::wire::pool_stats();
        let (arena_hits, arena_misses) = intang_packet::arena::stats();
        ProcessStats {
            batches,
            batched_events,
            pool_hits,
            pool_misses,
            arena_hits,
            arena_misses,
        }
    }

    /// Add what changed since `earlier`.
    fn add_since(&mut self, earlier: ProcessStats) {
        let now = ProcessStats::now();
        self.batches += now.batches - earlier.batches;
        self.batched_events += now.batched_events - earlier.batched_events;
        self.pool_hits += now.pool_hits - earlier.pool_hits;
        self.pool_misses += now.pool_misses - earlier.pool_misses;
        self.arena_hits += now.arena_hits - earlier.arena_hits;
        self.arena_misses += now.arena_misses - earlier.arena_misses;
    }
}

/// The measured passes: wall times, and each pass's output compared with
/// the first as it finishes, so only differing outputs are kept.
struct Passes<S> {
    walls: Vec<f64>,
    first: Option<S>,
    repeats: u64,
    deviants: Vec<S>,
}

impl<S: PartialEq> Passes<S> {
    fn new() -> Passes<S> {
        Passes {
            walls: Vec::new(),
            first: None,
            repeats: 0,
            deviants: Vec::new(),
        }
    }

    fn record(&mut self, wall: f64, out: S) {
        self.walls.push(wall);
        match &self.first {
            None => self.first = Some(out),
            Some(f) if *f == out => self.repeats += 1,
            Some(_) => self.deviants.push(out),
        }
    }

    fn first(&self) -> &S {
        self.first.as_ref().expect("at least one pass ran")
    }

    /// Each distinct output with the number of passes that produced it.
    fn outputs(&self) -> impl Iterator<Item = (&S, u64)> {
        std::iter::once((self.first(), 1 + self.repeats)).chain(self.deviants.iter().map(|d| (d, 1)))
    }
}

/// Executor statistics of the untraced passes, summed.
#[derive(Debug, Default)]
struct ExecStats {
    passes: u64,
    busy: f64,
    worker_slots: f64,
    merge_wait: f64,
    steal_failures: u64,
    merge_high_water: usize,
}

impl ExecStats {
    /// One pass of `wall` seconds on `workers` threads with their stats.
    fn add<'a>(&mut self, wall: f64, workers: usize, stats: impl Iterator<Item = &'a intang_experiments::runner::WorkerStats>) {
        self.passes += 1;
        self.worker_slots += wall * workers as f64;
        for w in stats {
            self.busy += w.busy.as_secs_f64();
            self.merge_wait += w.merge_wait.as_secs_f64();
            self.steal_failures += w.steal_failures;
        }
    }

    fn set_metrics(&self, m: &mut Metrics) {
        let passes = self.passes as f64;
        m.set("runner.busy_share", ratio(self.busy, self.worker_slots));
        m.set("runner.merge_wait_s", ratio(self.merge_wait, passes));
        m.set("runner.steal_failures", ratio(self.steal_failures as f64, passes));
        m.set("runner.merge_high_water", self.merge_high_water as f64);
    }
}

/// What the traced passes measured, summed over passes.
#[derive(Debug, Default)]
struct Traced {
    walls: Vec<f64>,
    totals: RunTotals,
}

fn run_sweep(cfg: &RunConfig) -> Report {
    let mut setup = Setup::new(|| SweepInputs::generate(cfg.seed, cfg.size));
    let inputs = setup.batch();
    let ops = inputs.trials();
    let mut tally = Tally::default();
    let mut passes = Passes::new();
    let mut exec = ExecStats::default();
    let mut process = ProcessStats::default();
    let mut traced = Traced::default();
    let (mut build_us, mut drive_us, mut classify_us) = (Vec::new(), Vec::new(), Vec::new());

    let started = Instant::now();
    loop {
        let before = ProcessStats::now();
        let t = Instant::now();
        let runs = sweep::pass(&inputs, WORKERS, false);
        let wall = t.elapsed().as_secs_f64();
        process.add_since(before);
        exec.add(wall, WORKERS, runs.iter().flat_map(|r| &r.worker_stats));
        exec.merge_high_water = runs.iter().map(|r| r.merge_high_water).fold(exec.merge_high_water, usize::max);
        let out = sweep::summaries(&runs);
        drop(runs);
        if cfg.trace {
            let t = Instant::now();
            let tr = sweep::traced_pass(&inputs, WORKERS);
            traced.walls.push(t.elapsed().as_secs_f64());
            let failed = sweep::failed_trials(&inputs, &out, &tr.summaries, &mut tally.notes);
            tally.record(ops, failed, "traced paper_sweep pass against the untraced pass");
            traced.totals.merge(&tr.totals);
            build_us.extend(tr.build_us);
            drive_us.extend(tr.drive_us);
            classify_us.extend(tr.classify_us);
        }
        passes.record(wall, out);
        setup.batch();
        if started.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
    }
    let peak_rss_mb = provenance::peak_rss_mb();

    // The serial reference runs with the invariant layer on.
    let reference = sweep::summaries(&sweep::pass(&inputs, 1, true));
    for (out, n) in passes.outputs() {
        let failed = sweep::failed_trials(&inputs, &reference, out, &mut tally.notes);
        tally.record(
            ops * n,
            failed * n,
            &format!("paper_sweep pass on {WORKERS} workers against the serial pass"),
        );
    }

    let mut m = end_to_end(setup.median_s(), ops, &passes.walls, peak_rss_mb, &tally);
    if cfg.trace {
        let mut sheet = MetricsSheet::new();
        for s in passes.first() {
            sheet.merge(&s.metrics);
        }
        let events = passes.first().iter().map(|s| s.events).sum::<u64>() as f64;
        set_layer_metrics(&mut m, &traced, ops as f64, events, median(&passes.walls), &process, &sheet);
        exec.set_metrics(&mut m);
        m.set("trial.build_us_p50", percentile(&build_us, 0.5));
        m.set("trial.build_us_p99", percentile(&build_us, 0.99));
        m.set("trial.drive_us_p50", percentile(&drive_us, 0.5));
        m.set("trial.drive_us_p99", percentile(&drive_us, 0.99));
        m.set("trial.classify_us_p50", percentile(&classify_us, 0.5));
    }
    finish(cfg, &inputs.describe(), "trials", &passes.walls, m, tally)
}

fn run_metro(cfg: &RunConfig, domains: u32) -> Report {
    let mut setup = Setup::new(|| MetroInputs::generate(cfg.seed, cfg.size));
    let inputs = setup.batch();
    let ops = inputs.flows();
    let workers = metro::workers_for(domains);
    let mut tally = Tally::default();
    let mut passes = Passes::new();
    let mut exec = ExecStats::default();
    let mut process = ProcessStats::default();
    let mut traced = Traced::default();
    let mut build_s = 0.0;
    let (mut busy_max, mut imbalance, mut merge_s) = (0.0, 0.0, 0.0);

    let started = Instant::now();
    loop {
        let before = ProcessStats::now();
        let t = Instant::now();
        let run = metro::pass(&inputs, domains);
        let wall = t.elapsed().as_secs_f64();
        process.add_since(before);
        exec.add(wall, workers, run.worker_stats.iter());
        let busy: Vec<f64> = run.domain_stats.iter().map(|d| d.busy.as_secs_f64()).collect();
        let worst = busy.iter().copied().fold(0.0, f64::max);
        busy_max += worst;
        imbalance += ratio(worst, busy.iter().sum::<f64>() / busy.len() as f64);
        merge_s += wall - run.worker_stats.iter().map(|w| w.busy.as_secs_f64()).fold(0.0, f64::max);
        let out = MetroSummary::from(&run.run);
        drop(run);
        if cfg.trace {
            let t = Instant::now();
            let tr = metro::traced_pass(&inputs, domains, workers);
            traced.walls.push(t.elapsed().as_secs_f64());
            let failed = metro::failed_flows(&inputs, &out, &tr.summary, &mut tally.notes);
            tally.record(ops, failed, "traced metropolis pass against the untraced pass");
            traced.totals.merge(&tr.totals);
            build_s += tr.build_nanos as f64 / 1e9;
        }
        passes.record(wall, out);
        setup.batch();
        if started.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
    }
    let peak_rss_mb = provenance::peak_rss_mb();

    // One domain is the declared serial reference; a split is checked
    // against a serial run of the same world.
    let serial;
    let reference: &MetroSummary = if domains == 1 {
        passes.first()
    } else {
        serial = MetroSummary::from(&metro::pass(&inputs, 1).run);
        &serial
    };
    for (out, n) in passes.outputs() {
        let failed = metro::failed_flows(&inputs, reference, out, &mut tally.notes);
        tally.record(
            ops * n,
            failed * n,
            &format!("metropolis pass on {domains} domain(s) against the serial reference"),
        );
    }

    let mut m = end_to_end(setup.median_s(), ops, &passes.walls, peak_rss_mb, &tally);
    if cfg.trace {
        let first = passes.first();
        let n = exec.passes as f64;
        set_layer_metrics(
            &mut m,
            &traced,
            ops as f64,
            first.events as f64,
            median(&passes.walls),
            &process,
            &first.metrics,
        );
        exec.set_metrics(&mut m);
        m.set("runner.merge_high_water", 0.0);
        m.set("metro.build_s", build_s / traced.walls.len() as f64);
        m.set("metro.domain_busy_max_s", busy_max / n);
        m.set("metro.domain_imbalance", imbalance / n);
        m.set("metro.merge_s", merge_s / n);
    }
    finish(cfg, &inputs.describe(domains, workers), "flows", &passes.walls, m, tally)
}

/// The end-to-end metrics: median set-up time, median pass throughput,
/// peak RSS, and the share of operations that passed the check.
fn end_to_end(setup_s: f64, ops: u64, walls: &[f64], peak_rss_mb: f64, tally: &Tally) -> Metrics {
    let mut m = Metrics::default();
    let rates: Vec<f64> = walls.iter().map(|w| ops as f64 / w).collect();
    m.set("setup_s", setup_s);
    m.set("ops_per_s", median(&rates));
    m.set("peak_rss_mb", peak_rss_mb);
    m.set("ok_share", 1.0 - ratio(tally.failed as f64, tally.attempted as f64));
    m
}

/// The per-layer metrics both workload kinds share: the element ledger, the
/// event loop, the process-wide pools and the exact work counts.
fn set_layer_metrics(m: &mut Metrics, t: &Traced, ops: f64, events: f64, wall: f64, p: &ProcessStats, sheet: &MetricsSheet) {
    let traced_ops = ops * t.walls.len() as f64;
    let run_nanos = t.totals.run_nanos as f64;
    let layers = &t.totals.layers;
    for layer in Layer::ALL {
        let (calls, nanos) = (layers.calls[layer as usize] as f64, layers.nanos[layer as usize] as f64);
        let name = |suffix: &str| -> &'static str {
            let full = format!("{}.{suffix}", layer.name());
            PER_LAYER
                .iter()
                .find(|(n, _)| *n == full)
                .map(|(n, _)| *n)
                .expect("layer metric is listed")
        };
        m.set(name("calls_per_op"), ratio(calls, traced_ops));
        m.set(name("ns_per_call"), ratio(nanos, calls));
        m.set(name("share"), ratio(nanos, run_nanos));
    }
    m.set(
        "netsim.loop_ns_per_event",
        ratio(t.totals.loop_nanos() as f64, t.totals.events as f64),
    );
    m.set("netsim.pending_max", t.totals.pending_max as f64);
    m.set("netsim.events_per_op", ratio(events, ops));
    m.set("netsim.events_per_s", ratio(events, wall));
    m.set("netsim.batch_mean", ratio(p.batched_events as f64, p.batches as f64));
    m.set(
        "packet.wire_pool_hit_rate",
        ratio(p.pool_hits as f64, (p.pool_hits + p.pool_misses) as f64),
    );
    m.set(
        "packet.arena_hit_rate",
        ratio(p.arena_hits as f64, (p.arena_hits + p.arena_misses) as f64),
    );

    let c = |counter: Counter| sheet.counter(counter) as f64;
    let created = c(Counter::GfwTcbsCreated);
    m.set("censor.tcbs_per_op", ratio(created, ops));
    m.set("censor.evicted_share", ratio(c(Counter::GfwTcbsEvicted), created));
    m.set("censor.dpi_bytes_per_op", ratio(c(Counter::GfwDpiBytesScanned), ops));
    m.set("censor.blacklist_hits_per_op", ratio(c(Counter::GfwBlacklistHits), ops));
    m.set("shim.insertions_per_op", ratio(c(Counter::IntangInsertionsSent), ops));
    m.set("shim.probes_per_op", ratio(c(Counter::IntangProbesSent), ops));
    let received = c(Counter::StackSegmentsRx);
    m.set("endpoint.segments_per_op", ratio(received + c(Counter::StackSegmentsTx), ops));
    m.set("endpoint.ignored_share", ratio(c(Counter::StackSegmentsIgnored), received));
    let drops = c(Counter::MiddleboxFilterDrops)
        + c(Counter::MiddleboxFragDrops)
        + c(Counter::MiddleboxSeqfwBlocked)
        + c(Counter::MiddleboxConntrackBlocked);
    m.set("middlebox.drops_per_op", ratio(drops, ops));
    m.set("trace_overhead", ratio(median(&t.walls), wall));
}

/// Assemble the report: provenance, the metrics by name with their units
/// (throughput also under its workload-specific name), and any failed
/// check.
fn finish(cfg: &RunConfig, params: &str, op: &str, walls: &[f64], m: Metrics, tally: Tally) -> Report {
    let workload = cfg.workload.name();
    let mut report = Report::new(cfg.trace, &m, tally.attempted, tally.failed);
    report
        .lines
        .push(provenance::json(workload, cfg.seed, cfg.seconds, cfg.trace, params));
    for (name, value, unit) in &report.metrics {
        report.lines.push(format!("{workload} {name} = {value} {unit}"));
    }
    if !cfg.trace {
        report
            .lines
            .push(format!("{workload} {op}_per_s = {} 1/s", m.get("ops_per_s").unwrap_or(0.0)));
    }
    let walls: Vec<String> = walls.iter().map(|w| format!("{w:.4}")).collect();
    report.lines.push(format!(
        "{workload} untraced passes = {} wall_s = [{}]",
        walls.len(),
        walls.join(", ")
    ));
    let failed_share = ratio(tally.failed as f64, tally.attempted as f64);
    report.lines.push(format!(
        "{workload} failed_share = {failed_share} ({} of {} {op})",
        tally.failed, tally.attempted
    ));
    for note in &tally.notes {
        report.lines.push(format!("{workload} check failed: {note}"));
    }
    report
}
