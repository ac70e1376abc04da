//! The `paper_sweep` workload: the Table 1/4 sweep through
//! `sweep_with_threads`, its correctness check, and a traced replay that
//! assembles every trial world from the library's public constructors.

use crate::ledger::{timed, Layer, LayerTotals, Ledger, RunTotals};
use crate::{fnv64, sheet_digest, Size, DEFAULT_SEED};
use intang_apps::host::HostElement;
use intang_apps::http::{listen, HttpClientDriver, HttpServerDriver};
use intang_core::{Discrepancy, IntangConfig, IntangElement, StrategyKind};
use intang_experiments::runner::{sweep_with_threads, Aggregate, SweepConfig, SweepRun, TrialDiagnosis};
use intang_experiments::scenario::Scenario;
use intang_experiments::trial::{classify, drive_http_trial, TrialParts, TrialSpec};
use intang_gfw::GfwElement;
use intang_middlebox::{FieldFilter, FilterSpec, FragmentHandler, SeqStrictFirewall, StatefulFirewall};
use intang_netsim::{Direction, Duration, Instant, Link, Simulation};
use intang_packet::http::HttpRequest;
use intang_telemetry::{HistId, MetricsSheet};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The five fixed strategies of the sweep, in pass order.
const STRATEGIES: [(&str, StrategyKind); 5] = [
    ("no-strategy", StrategyKind::NoStrategy),
    ("in-order-overlap", StrategyKind::InOrderOverlap(Discrepancy::SmallTtl)),
    ("improved-teardown", StrategyKind::ImprovedTeardown),
    ("tcb-creation+resync-desync", StrategyKind::TcbCreationResyncDesync),
    ("teardown+tcb-reversal", StrategyKind::TeardownTcbReversal),
];

/// Route-change probability of every trial (§3.4 network dynamics).
const ROUTE_CHANGE_PROB: f64 = 0.12;

/// The generated inputs: one scenario and one sweep config per strategy.
pub struct SweepInputs {
    pub seed: u64,
    pub size: Size,
    pub scenario: Scenario,
    pub configs: Vec<SweepConfig>,
}

impl SweepInputs {
    /// Full size: 11 vantage points × 77 sites × 3 trials per strategy.
    /// Smoke size: 3 × 5 sites × 1 trial.
    pub fn generate(seed: u64, size: Size) -> SweepInputs {
        let (scenario, trials) = match size {
            Size::Full => (Scenario::paper_inside(seed), 3),
            Size::Smoke => (Scenario::smoke(seed), 1),
        };
        let configs = STRATEGIES
            .iter()
            .map(|&(_, kind)| {
                let mut cfg = SweepConfig::new(Some(kind), true, trials, seed);
                cfg.route_change_prob = ROUTE_CHANGE_PROB;
                cfg
            })
            .collect();
        SweepInputs {
            seed,
            size,
            scenario,
            configs,
        }
    }

    pub fn cells(&self) -> usize {
        self.scenario.vantage_points.len() * self.scenario.websites.len()
    }

    pub fn trials_per_cell(&self) -> u64 {
        u64::from(self.configs[0].trials)
    }

    /// Trials in one pass over every strategy.
    pub fn trials(&self) -> u64 {
        (self.cells() * self.configs.len()) as u64 * self.trials_per_cell()
    }

    /// Workload parameters for the provenance record.
    pub fn describe(&self) -> String {
        format!(
            "vantage_points={} sites={} strategies={} trials_per_cell={} keyword=1 route_change_prob={ROUTE_CHANGE_PROB} workers={}",
            self.scenario.vantage_points.len(),
            self.scenario.websites.len(),
            self.configs.len(),
            self.trials_per_cell(),
            crate::WORKERS
        )
    }
}

/// The deterministic part of one strategy's sweep: everything the merge
/// promises to be identical at any worker count.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSummary {
    pub rows: Vec<(String, Aggregate)>,
    pub events: u64,
    pub metrics: MetricsSheet,
    pub diagnoses: Vec<TrialDiagnosis>,
    pub violations: u64,
}

impl From<&SweepRun> for SweepSummary {
    fn from(r: &SweepRun) -> SweepSummary {
        SweepSummary {
            rows: r.rows.clone(),
            events: r.events,
            metrics: r.metrics.clone(),
            diagnoses: r.diagnoses.clone(),
            violations: r.violations,
        }
    }
}

/// One untraced pass: every strategy's sweep on `workers` threads.
/// `simcheck` turns on the invariant layer through the sweep config.
pub fn pass(inputs: &SweepInputs, workers: usize, simcheck: bool) -> Vec<SweepRun> {
    inputs
        .configs
        .iter()
        .map(|cfg| {
            let mut cfg = cfg.clone();
            cfg.simcheck = simcheck;
            sweep_with_threads(&inputs.scenario, &cfg, workers)
        })
        .collect()
}

pub fn summaries(runs: &[SweepRun]) -> Vec<SweepSummary> {
    runs.iter().map(SweepSummary::from).collect()
}

/// Pinned output of one strategy at the default seed and full size.
struct Pin {
    success: u32,
    failure1: u32,
    failure2: u32,
    events: u64,
    metrics: u64,
    cells: u64,
}

/// `netsim_events` summed over the five strategies at the default seed.
const PINNED_EVENTS: u64 = 5_423_154;

const PINS: [Pin; 5] = [
    // no-strategy
    Pin {
        success: 58,
        failure1: 0,
        failure2: 2483,
        events: 288_314,
        metrics: 0x36ff_0c60_84a2_2082,
        cells: 0x0e11_5856_d676_15cd,
    },
    // in-order-overlap
    Pin {
        success: 2448,
        failure1: 49,
        failure2: 44,
        events: 1_220_463,
        metrics: 0xebb8_0192_d3af_26ba,
        cells: 0x2ca3_b5a6_8b0f_0f1b,
    },
    // improved-teardown
    Pin {
        success: 2396,
        failure1: 19,
        failure2: 126,
        events: 1_251_767,
        metrics: 0xc93a_1a81_f10b_70c7,
        cells: 0x6c28_6eb6_db03_76f6,
    },
    // tcb-creation+resync-desync
    Pin {
        success: 2463,
        failure1: 0,
        failure2: 78,
        events: 1_356_701,
        metrics: 0x1676_749c_d8eb_eb90,
        cells: 0xbe39_02cd_161d_e44c,
    },
    // teardown+tcb-reversal
    Pin {
        success: 2453,
        failure1: 17,
        failure2: 71,
        events: 1_305_909,
        metrics: 0xa0ee_c2ae_85b6_0f27,
        cells: 0xfc97_52bf_e05e_af79,
    },
];

/// Digest of the per-cell rows: every failed trial with its cell, trial
/// index, seed, outcome and §5 vector (a cell's successes are its trials
/// minus its failures).
fn cells_digest(diagnoses: &[TrialDiagnosis]) -> u64 {
    let text: String = diagnoses
        .iter()
        .map(|d| {
            format!(
                "{}|{}|{}|{:x}|{:?}|{:?}|{}\n",
                d.vp, d.site, d.trial, d.seed, d.outcome, d.vector, d.resets_seen
            )
        })
        .collect();
    fnv64(text.as_bytes())
}

/// The pinned-digest line for one strategy's summary, as [`PINS`] holds it.
fn pin_line(s: &SweepSummary) -> String {
    let total = intang_experiments::runner::overall(&s.rows);
    format!(
        "success: {}, failure1: {}, failure2: {}, events: {}, metrics: {:#018x}, cells: {:#018x}",
        total.success,
        total.failure1,
        total.failure2,
        s.events,
        sheet_digest(&s.metrics),
        cells_digest(&s.diagnoses)
    )
}

fn pin_holds(pin: &Pin, s: &SweepSummary) -> bool {
    let total = intang_experiments::runner::overall(&s.rows);
    (total.success, total.failure1, total.failure2) == (pin.success, pin.failure1, pin.failure2)
        && s.events == pin.events
        && sheet_digest(&s.metrics) == pin.metrics
        && cells_digest(&s.diagnoses) == pin.cells
}

/// Trials of `got` that fail the check against `reference` (a serial pass
/// of the same inputs): a strategy that hit an invariant violation or, at
/// the default seed and full size, misses its pinned digests fails all its
/// trials; otherwise the trials of every cell whose failures differ fail,
/// or the whole strategy when only the merged totals differ.
pub fn failed_trials(inputs: &SweepInputs, reference: &[SweepSummary], got: &[SweepSummary], notes: &mut Vec<String>) -> u64 {
    let per_strategy = inputs.cells() as u64 * inputs.trials_per_cell();
    let pinned = inputs.size == Size::Full && inputs.seed == DEFAULT_SEED;
    if pinned {
        let events: u64 = got.iter().map(|s| s.metrics.counter(intang_telemetry::Counter::NetsimEvents)).sum();
        if events != PINNED_EVENTS {
            notes.push(format!("paper_sweep: netsim_events={events}, pinned {PINNED_EVENTS}"));
        }
    }
    let mut failed = 0;
    for (i, ((name, _), (r, g))) in STRATEGIES.iter().zip(reference.iter().zip(got)).enumerate() {
        if g.violations > 0 {
            notes.push(format!("{name}: {} simcheck violation(s)", g.violations));
            failed += per_strategy;
        } else if pinned && !pin_holds(&PINS[i], g) {
            notes.push(format!("{name}: output differs from the pinned digests: {}", pin_line(g)));
            failed += per_strategy;
        } else if r != g {
            let cells = differing_cells(&r.diagnoses, &g.diagnoses);
            notes.push(format!("{name}: output differs from the reference in {cells} cell(s)"));
            failed += if cells == 0 {
                per_strategy
            } else {
                cells * inputs.trials_per_cell()
            };
        }
    }
    failed
}

fn differing_cells(a: &[TrialDiagnosis], b: &[TrialDiagnosis]) -> u64 {
    fn by_cell(ds: &[TrialDiagnosis]) -> BTreeMap<(&str, &str), Vec<&TrialDiagnosis>> {
        let mut m: BTreeMap<(&str, &str), Vec<&TrialDiagnosis>> = BTreeMap::new();
        for d in ds {
            m.entry((d.vp.as_str(), d.site.as_str())).or_default().push(d);
        }
        m
    }
    let (a, b) = (by_cell(a), by_cell(b));
    let keys: std::collections::BTreeSet<_> = a.keys().chain(b.keys()).collect();
    keys.into_iter().filter(|k| a.get(*k) != b.get(*k)).count() as u64
}

/// A traced pass: the same trials as [`pass`], each world assembled here
/// with every element behind a [`crate::ledger::Timed`] adapter.
#[derive(Debug, Default)]
pub struct TracedSweep {
    pub summaries: Vec<SweepSummary>,
    /// Element and loop time inside `drive_http_trial`; the queue length is
    /// sampled at each trial's build/drive boundaries.
    pub totals: RunTotals,
    pub build_us: Vec<f64>,
    pub drive_us: Vec<f64>,
    pub classify_us: Vec<f64>,
}

/// One cell's merged trials, as `run_cell_telemetry` folds them.
struct CellOut {
    agg: Aggregate,
    events: u64,
    metrics: MetricsSheet,
    diagnoses: Vec<TrialDiagnosis>,
}

/// Run every strategy's cells on `workers` threads claiming cells from a
/// shared cursor, then fold them in cell order exactly like the sweep's
/// ordered merge.
pub fn traced_pass(inputs: &SweepInputs, workers: usize) -> TracedSweep {
    let cells = inputs.cells();
    let total = cells * inputs.configs.len();
    let cursor = AtomicUsize::new(0);
    let outs: Vec<(TracedSweep, Vec<(usize, CellOut)>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.max(1))
            .map(|_| {
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut measured = TracedSweep::default();
                    let mut done = Vec::new();
                    let mut requests = RequestCache::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= total {
                            break;
                        }
                        done.push((i, traced_cell(inputs, i / cells, i % cells, &mut measured, &mut requests)));
                    }
                    (measured, done)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("traced sweep worker panicked"))
            .collect()
    });

    let mut traced = TracedSweep::default();
    let mut ordered: Vec<Option<CellOut>> = (0..total).map(|_| None).collect();
    for (measured, done) in outs {
        traced.totals.merge(&measured.totals);
        traced.build_us.extend(measured.build_us);
        traced.drive_us.extend(measured.drive_us);
        traced.classify_us.extend(measured.classify_us);
        for (i, c) in done {
            ordered[i] = Some(c);
        }
    }
    let n_sites = inputs.scenario.websites.len();
    let mut cells_in_order = ordered.into_iter().map(|c| c.expect("every cell ran"));
    for _ in &inputs.configs {
        let mut s = SweepSummary {
            rows: inputs
                .scenario
                .vantage_points
                .iter()
                .map(|vp| (vp.name.to_string(), Aggregate::default()))
                .collect(),
            events: 0,
            metrics: MetricsSheet::new(),
            diagnoses: Vec::new(),
            violations: 0,
        };
        for i in 0..cells {
            let c = cells_in_order.next().expect("every cell ran");
            s.rows[i / n_sites].1.merge(c.agg);
            s.events += c.events;
            s.metrics.merge(&c.metrics);
            s.diagnoses.extend(c.diagnoses);
        }
        traced.summaries.push(s);
    }
    traced
}

/// The sweep's per-trial seed: SplitMix over `(master, vp, site, trial,
/// keyword)`, as the runner derives it.
fn trial_seed(master: u64, vp_idx: usize, site_idx: usize, trial: u32, keyword: bool) -> u64 {
    let mut z = master
        ^ (vp_idx as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ (site_idx as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9)
        ^ (u64::from(trial)).wrapping_mul(0x94d0_49bb_1331_11eb)
        ^ u64::from(keyword) << 63;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn traced_cell(inputs: &SweepInputs, strategy: usize, cell: usize, w: &mut TracedSweep, requests: &mut RequestCache) -> CellOut {
    let cfg = &inputs.configs[strategy];
    let n_sites = inputs.scenario.websites.len();
    let (vp_idx, site_idx) = (cell / n_sites, cell % n_sites);
    let vp = &inputs.scenario.vantage_points[vp_idx];
    let site = &inputs.scenario.websites[site_idx];
    let mut out = CellOut {
        agg: Aggregate::default(),
        events: 0,
        metrics: MetricsSheet::new(),
        diagnoses: Vec::new(),
    };
    for t in 0..cfg.trials {
        let seed = trial_seed(cfg.master_seed, vp_idx, site_idx, t, cfg.keyword);
        let mut spec = TrialSpec::new(vp, site, cfg.strategy, cfg.keyword, seed);
        spec.redundancy = cfg.redundancy;
        spec.route_change_prob = cfg.route_change_prob;
        let ledger: Ledger = Rc::new(RefCell::new(LayerTotals::default()));

        let started = std::time::Instant::now();
        let (mut sim, parts) = build_trial(&spec, &ledger, requests);
        let built = std::time::Instant::now();
        w.totals.pending_max = w.totals.pending_max.max(sim.pending_events() as u64);
        let (events, _route_flaps) = drive_http_trial(&mut sim, &parts, &spec);
        let driven = std::time::Instant::now();
        w.totals.pending_max = w.totals.pending_max.max(sim.pending_events() as u64);
        let mut r = classify(&sim, &parts, &spec);
        let classified = std::time::Instant::now();
        r.events = events;
        r.metrics.observe(HistId::TrialEvents, events);

        w.build_us.push((built - started).as_secs_f64() * 1e6);
        w.drive_us.push((driven - built).as_secs_f64() * 1e6);
        w.classify_us.push((classified - driven).as_secs_f64() * 1e6);
        w.totals.merge(&RunTotals {
            layers: *ledger.borrow(),
            run_nanos: (driven - built).as_nanos() as u64,
            events,
            pending_max: 0,
        });

        out.agg.add(r.outcome);
        out.events += events;
        out.metrics.merge(&r.metrics);
        if let Some(vector) = r.failure_vector {
            out.diagnoses.push(TrialDiagnosis {
                vp: vp.name.to_string(),
                site: site.name.to_string(),
                trial: t,
                seed,
                outcome: r.outcome,
                vector,
                resets_seen: r.resets_seen,
            });
        }
    }
    out
}

/// Encoded GET requests by `(target, host)`: a worker re-sends the same
/// few requests thousands of times.
type RequestCache = Vec<((&'static str, String), Rc<Vec<u8>>)>;

fn encoded_request(cache: &mut RequestCache, target: &'static str, host: &str) -> Rc<Vec<u8>> {
    if let Some((_, bytes)) = cache.iter().find(|((t, h), _)| *t == target && h == host) {
        return bytes.clone();
    }
    let bytes = Rc::new(HttpRequest::get(target, host).encode());
    cache.push(((target, host.to_string()), bytes.clone()));
    bytes
}

/// Assemble one fault-free HTTP trial (the Fig. 1 path) from the public
/// constructors `build_http_sim` uses, each element behind a timing
/// adapter. Hosts are added as `add_host` adds them (element plus a t=0
/// kick-off timer), since `add_host` inserts the element itself.
fn build_trial(spec: &TrialSpec<'_>, ledger: &Ledger, requests: &mut RequestCache) -> (Simulation, TrialParts) {
    assert!(
        spec.faults.is_none() && spec.history.is_none() && spec.isn_base.is_none(),
        "the traced sweep mirrors fault-free fixed-strategy trials only"
    );
    let (vp, site) = (spec.vp, spec.site);
    let mut sim = Simulation::new(spec.seed);

    let target = if spec.keyword { "/search?q=ultrasurf" } else { "/index.html" };
    let (client_driver, report) = HttpClientDriver::with_encoded(site.addr, 80, encoded_request(requests, target, &site.name));
    let (client, _) = HostElement::new(
        "client",
        vp.addr,
        intang_tcpstack::StackProfile::linux_4_4(),
        Box::new(client_driver),
    );
    let cidx = sim.add_element(timed(client.into_boxed(Direction::ToServer), Layer::Endpoint, ledger));
    sim.schedule_timer(cidx, Instant::ZERO, 0);

    sim.add_link(Link::new(Duration::from_micros(50), 0));
    let mut cfg = IntangConfig {
        strategy: spec.strategy,
        redundancy: spec.redundancy,
        delta: spec.delta,
        prefer_ttl: !vp.abroad,
        ..IntangConfig::default()
    };
    if spec.strategy == Some(StrategyKind::NoStrategy) {
        cfg.measure_hops = false;
    }
    let (intang_el, intang) = IntangElement::new(vp.addr, cfg);
    sim.add_element(timed(Box::new(intang_el), Layer::Shim, ledger));

    sim.add_link(Link::new(Duration::from_millis(1), vp.access_hops).with_router_base(Ipv4Addr::new(172, 16, 1, 0)));
    sim.add_element(timed(
        Box::new(FragmentHandler::new(vp.profile.label(), vp.profile.fragment_mode())),
        Layer::Middlebox,
        ledger,
    ));
    sim.add_link(Link::new(Duration::from_micros(100), 0));
    sim.add_element(timed(
        Box::new(FieldFilter::new(vp.profile.label(), vp.profile.filter_spec())),
        Layer::Middlebox,
        ledger,
    ));

    let core_link = sim.link_count();
    sim.add_link(
        Link::new(Duration::from_millis(site.latency_ms / 2), site.core_hops)
            .with_loss(site.loss)
            .with_router_base(Ipv4Addr::new(172, 16, 2, 0)),
    );
    let midpath_spec = if site.path_drops_noflag {
        FilterSpec {
            drop_no_flag: 1.0,
            ..FilterSpec::default()
        }
    } else {
        FilterSpec::passes_everything()
    };
    sim.add_element(timed(Box::new(FieldFilter::new("midpath", midpath_spec)), Layer::Middlebox, ledger));

    let mut gfw_handles = Vec::new();
    for (i, mut gcfg) in site.gfw_configs().into_iter().enumerate() {
        gcfg.tor_filter = vp.tor_filtered;
        let latency = if i == 0 {
            Duration::from_micros(200)
        } else {
            Duration::from_micros(10)
        };
        sim.add_link(Link::new(latency, 0));
        let (el, handle) = GfwElement::labeled(gcfg, "GFW");
        sim.add_element(timed(Box::new(el), Layer::Censor, ledger));
        gfw_handles.push(handle);
    }

    let server_link = |hops: u8| {
        Link::new(Duration::from_millis(site.latency_ms / 2), hops)
            .with_loss(site.loss)
            .with_router_base(Ipv4Addr::new(172, 16, 3, 0))
    };
    let last_link;
    if site.server_seqfw && site.server_hops >= 2 {
        sim.add_link(server_link(site.server_hops - 1));
        let mut fw = SeqStrictFirewall::new("server-fw");
        fw.validate_checksum = site.seqfw_validates_checksum;
        sim.add_element(timed(Box::new(fw), Layer::Middlebox, ledger));
        last_link = sim.link_count();
        sim.add_link(Link::new(Duration::from_micros(300), 1).with_router_base(Ipv4Addr::new(172, 16, 4, 0)));
    } else if site.server_conntrack && site.server_hops >= 2 {
        last_link = sim.link_count();
        sim.add_link(server_link(site.server_hops - 1));
        sim.add_element(timed(Box::new(StatefulFirewall::new("server-conntrack")), Layer::Middlebox, ledger));
        sim.add_link(Link::new(Duration::from_micros(300), 1).with_router_base(Ipv4Addr::new(172, 16, 4, 0)));
    } else {
        last_link = sim.link_count();
        sim.add_link(server_link(site.server_hops));
    }
    let server_driver = if site.flaky_server {
        HttpServerDriver::new(80).unresponsive()
    } else {
        HttpServerDriver::new(80)
    };
    let (server, shandle) = HostElement::new("server", site.addr, site.server_profile, Box::new(server_driver));
    let sidx = sim.add_element(timed(server.into_boxed(Direction::ToClient), Layer::Endpoint, ledger));
    sim.schedule_timer(sidx, Instant::ZERO, 0);
    shandle.with_tcp(|t| t.listen(80));
    shandle.with_tcp(|t| t.set_ip_overlap(site.server_ip_overlap));
    listen(&shandle, 80);

    let parts = TrialParts {
        report,
        intang,
        gfw_handles,
        server_addr: site.addr,
        last_link,
        core_link,
    };
    (sim, parts)
}
