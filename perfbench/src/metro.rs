//! The metropolis workloads: one 100k-flow world run through
//! `run_metropolis_domains_world` as the serial reference (one domain) or
//! as parallel event domains, its correctness check, and a traced replay
//! that assembles every domain from the library's public constructors.

use crate::ledger::{timed, Layer, LayerTotals, Ledger, RunTotals};
use crate::{fnv64, sheet_digest, Size, DEFAULT_SEED};
use intang_apps::metro::{FlowResult, MetroClients, MetroServers};
use intang_core::{IntangConfig, IntangElement};
use intang_experiments::metropolis::{generate_world, run_metropolis_domains_world, MetroDomainsRun, MetroParams, MetroRun, MetroWorld};
use intang_gfw::{GfwConfig, GfwElement, ProfileTag};
use intang_netsim::{Duration, Instant, Link, Simulation};
use intang_telemetry::MetricsSheet;
use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Flows of the full-size world.
const FLOWS: u32 = 100_000;
/// Flows of the smoke-size world.
const SMOKE_FLOWS: u32 = 2_000;

/// Simulated-time slice between event-queue samples in the traced run.
const QUEUE_SAMPLE_US: u64 = 1_000;

/// The generated inputs: parameters and the seeded world.
pub struct MetroInputs {
    pub size: Size,
    pub params: MetroParams,
    pub world: MetroWorld,
}

impl MetroInputs {
    pub fn generate(seed: u64, size: Size) -> MetroInputs {
        let flows = match size {
            Size::Full => FLOWS,
            Size::Smoke => SMOKE_FLOWS,
        };
        let params = MetroParams::new(flows, seed);
        let world = generate_world(&params);
        MetroInputs { size, params, world }
    }

    pub fn flows(&self) -> u64 {
        self.world.specs.len() as u64
    }

    /// Workload parameters for the provenance record.
    pub fn describe(&self, domains: u32, workers: usize) -> String {
        let p = &self.params;
        format!(
            "flows={} shards={} clients={} sites={} max_tcbs={} mean_interarrival_us={} keyword_prob={} horizon_us={} domains={domains} workers={workers}",
            p.flows, p.shards, p.clients, p.sites, p.max_tcbs, p.mean_interarrival_us, p.keyword_prob, p.horizon.0
        )
    }
}

/// Workers the library actually uses for `domains` event domains.
pub(crate) fn workers_for(domains: u32) -> usize {
    crate::WORKERS.min(domains as usize)
}

/// One untraced pass.
pub fn pass(inputs: &MetroInputs, domains: u32) -> MetroDomainsRun {
    run_metropolis_domains_world(&inputs.params, &inputs.world, domains, workers_for(domains))
}

/// The deterministic part of a run: everything the domain merge promises
/// to be identical to the serial reference.
#[derive(Debug, Clone, PartialEq)]
pub struct MetroSummary {
    pub results: Vec<FlowResult>,
    pub counts: (u64, u64, u64, u64),
    pub events: u64,
    pub censor: (u64, u64, u64),
    pub metrics: MetricsSheet,
    pub order_violations: u64,
    pub violations: u64,
}

impl From<&MetroRun> for MetroSummary {
    fn from(r: &MetroRun) -> MetroSummary {
        MetroSummary {
            results: r.results.clone(),
            counts: r.counts,
            events: r.events,
            censor: (r.collateral_resets, r.tcbs_evicted, r.resync_storms),
            metrics: r.metrics.clone(),
            order_violations: r.order_violations,
            violations: r.violations,
        }
    }
}

/// Pinned `metro_serial` output at the default seed and full size.
const PINNED_EVENTS: u64 = 5_669_612;
const PINNED_COUNTS: (u64, u64, u64, u64) = (100_000, 77_762, 22_238, 0);
const PINNED_GRID: u64 = 0x6a06_6392_bc45_a06d;
const PINNED_METRICS: u64 = 0xf8e1_1787_3022_17c1;

/// Digest of the outcome grid: outcome, latency and shard of every flow.
fn grid_digest(results: &[FlowResult]) -> u64 {
    let text: String = results
        .iter()
        .map(|r| format!("{:?}|{}|{}\n", r.outcome, r.latency_us, r.shard))
        .collect();
    fnv64(text.as_bytes())
}

/// The pinned values of a summary, in the form the constants above hold.
fn pin_line(s: &MetroSummary) -> String {
    format!(
        "counts: {:?}, events: {}, grid: {:#018x}, metrics: {:#018x}",
        s.counts,
        s.events,
        grid_digest(&s.results),
        sheet_digest(&s.metrics)
    )
}

/// Flows of `got` that fail the check: all of them after an order or
/// invariant violation or, at the default seed and full size, a miss of the
/// pinned digests; otherwise the flows of every shard whose outcomes differ
/// from `reference`, or all of them when only the merged totals differ.
pub fn failed_flows(inputs: &MetroInputs, reference: &MetroSummary, got: &MetroSummary, notes: &mut Vec<String>) -> u64 {
    let all = inputs.flows();
    if got.order_violations > 0 || got.violations > 0 {
        notes.push(format!(
            "{} order and {} simcheck violation(s)",
            got.order_violations, got.violations
        ));
        return all;
    }
    if inputs.size == Size::Full && inputs.params.seed == DEFAULT_SEED {
        let pinned = got.counts == PINNED_COUNTS
            && got.events == PINNED_EVENTS
            && grid_digest(&got.results) == PINNED_GRID
            && sheet_digest(&got.metrics) == PINNED_METRICS;
        if !pinned {
            notes.push(format!("output differs from the pinned digests: {}", pin_line(got)));
            return all;
        }
    }
    if reference == got {
        return 0;
    }
    let shards = inputs.params.shards.max(1) as usize;
    let mut differs = vec![false; shards];
    for (a, b) in reference.results.iter().zip(&got.results) {
        if a != b {
            differs[a.shard as usize % shards] = true;
            differs[b.shard as usize % shards] = true;
        }
    }
    let failed = if reference.results.len() != got.results.len() || !differs.contains(&true) {
        all
    } else {
        got.results.iter().filter(|r| differs[r.shard as usize % shards]).count() as u64
    };
    notes.push(format!(
        "output differs from the reference in {} shard(s)",
        differs.iter().filter(|d| **d).count()
    ));
    failed
}

/// A traced pass over `domains` event domains.
pub struct TracedMetro {
    pub summary: MetroSummary,
    /// Summed over domains; the queue length is sampled every millisecond
    /// of simulated time.
    pub totals: RunTotals,
    /// Wall time assembling the domain worlds, summed over domains.
    pub build_nanos: u64,
}

/// One traced domain's output (plain data: it crosses threads).
struct DomainOut {
    results: Vec<FlowResult>,
    counts: (u64, u64, u64, u64),
    censor: (u64, u64, u64),
    metrics: MetricsSheet,
    order_violations: u64,
    totals: RunTotals,
    build_nanos: u64,
}

/// Run `domains` traced domains on `workers` threads claiming domains from
/// a shared cursor, then merge them in domain order like the library does.
pub fn traced_pass(inputs: &MetroInputs, domains: u32, workers: usize) -> TracedMetro {
    let domains = domains.clamp(1, inputs.params.shards.max(1));
    let cursor = AtomicUsize::new(0);
    let mut outs: Vec<(usize, DomainOut)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.clamp(1, domains as usize))
            .map(|_| {
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let d = cursor.fetch_add(1, Ordering::Relaxed);
                        if d >= domains as usize {
                            break;
                        }
                        mine.push((d, traced_domain(inputs, domains, d as u32)));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("traced domain worker panicked"))
            .collect()
    });
    outs.sort_by_key(|(d, _)| *d);
    let outs: Vec<DomainOut> = outs.into_iter().map(|(_, o)| o).collect();

    let results = (0..inputs.world.specs.len())
        .map(|i| outs[(outs[0].results[i].shard % domains) as usize].results[i])
        .collect();
    let mut summary = MetroSummary {
        results,
        counts: (0, 0, 0, 0),
        events: 0,
        censor: (0, 0, 0),
        metrics: MetricsSheet::new(),
        order_violations: 0,
        violations: 0,
    };
    let mut totals = RunTotals::default();
    let mut build_nanos = 0;
    for o in &outs {
        summary.counts.0 += o.counts.0;
        summary.counts.1 += o.counts.1;
        summary.counts.2 += o.counts.2;
        summary.counts.3 += o.counts.3;
        summary.events += o.totals.events;
        summary.censor.0 += o.censor.0;
        summary.censor.1 += o.censor.1;
        summary.censor.2 += o.censor.2;
        summary.metrics.merge(&o.metrics);
        summary.order_violations += o.order_violations;
        totals.merge(&o.totals);
        build_nanos += o.build_nanos;
    }
    // One logical censor device per run, tagged once on the merged sheet.
    let tag = inputs.params.censor.as_ref().map_or(ProfileTag::Evolved, |c| c.profile_tag);
    summary.metrics.inc(tag.device_counter());
    TracedMetro {
        summary,
        totals,
        build_nanos,
    }
}

/// Total client→server hops of the metropolis path, seeded into the shim.
const PATH_HOPS: u8 = 5;
/// Lane seed bases of the sharded censor and shim.
const GFW_LANE_SEED: u64 = 0x4746_575f_4c41_4e45;
const SHIM_LANE_SEED: u64 = 0x5348_494d_4c41_4e45;

/// Assemble one event domain from the public constructors
/// `build_metropolis_domain` uses, each element behind a timing adapter,
/// and run it to the horizon in one-millisecond slices.
fn traced_domain(inputs: &MetroInputs, domains: u32, domain: u32) -> DomainOut {
    let (p, world) = (&inputs.params, &inputs.world);
    assert!(!p.middlebox, "the traced metropolis mirrors the middlebox-free topology only");
    let ledger: Ledger = Rc::new(RefCell::new(LayerTotals::default()));
    let started = std::time::Instant::now();
    let mut sim = Simulation::new(p.seed);

    let cfg = IntangConfig {
        strategy: None,
        measure_hops: true,
        prefer_ttl: true,
        state_shards: p.shards,
        shard_seed: p.seed ^ SHIM_LANE_SEED,
        ..IntangConfig::default()
    };
    let (intang_el, intang) = IntangElement::new(world.clients[0], cfg);
    for site in &world.sites {
        intang.seed_hops(*site, PATH_HOPS);
    }
    let (mut clients_el, metro) = MetroClients::for_domain(
        world.clients.clone(),
        world.sites.clone(),
        world.specs.clone(),
        p.shards,
        domains,
        domain,
    );
    for (tuple, kind) in clients_el.tuples().iter().zip(&world.strategies) {
        intang.preset_strategy(*tuple, *kind);
    }
    let shim = intang.clone();
    clients_el.set_retire_hook(Box::new(move |tuple| shim.retire_flow(tuple)));
    clients_el.bootstrap(&mut sim, 0, p.horizon);
    sim.add_element(timed(Box::new(clients_el), Layer::Endpoint, &ledger));

    sim.add_link(Link::new(Duration::from_micros(50), 0));
    sim.add_element(timed(Box::new(intang_el), Layer::Shim, &ledger));

    sim.add_link(Link::new(Duration::from_millis(1), 2).with_router_base(Ipv4Addr::new(172, 16, 2, 0)));
    let mut gcfg = p.censor.clone().unwrap_or_else(GfwConfig::evolved);
    gcfg.max_tcbs = p.max_tcbs;
    gcfg.eviction = p.eviction;
    gcfg.state_shards = p.shards;
    gcfg.shard_seed = p.seed ^ GFW_LANE_SEED;
    let (gfw_el, gfw) = GfwElement::labeled(gcfg, "GFW");
    sim.add_element(timed(Box::new(gfw_el), Layer::Censor, &ledger));

    sim.add_link(Link::new(Duration::from_millis(2), 3).with_router_base(Ipv4Addr::new(172, 16, 3, 0)));
    sim.add_element(timed(Box::new(MetroServers::new(world.sites.clone())), Layer::Endpoint, &ledger));
    let built = std::time::Instant::now();

    let mut events = 0;
    let mut pending_max = sim.pending_events() as u64;
    let mut t = 0;
    while t < p.horizon.0 {
        t = (t + QUEUE_SAMPLE_US).min(p.horizon.0);
        events += sim.run_until(Instant(t));
        pending_max = pending_max.max(sim.pending_events() as u64);
    }
    let run_nanos = built.elapsed().as_nanos() as u64;

    let mut metrics = MetricsSheet::new();
    sim.export_metrics(&mut metrics);
    let layers = *ledger.borrow();
    DomainOut {
        results: metro.results(),
        counts: metro.counts(),
        censor: (gfw.blacklist_collateral_resets(), gfw.tcbs_evicted(), gfw.resync_storms()),
        metrics,
        order_violations: metro.order_violations(),
        totals: RunTotals {
            layers,
            run_nanos,
            events,
            pending_max,
        },
        build_nanos: (built - started).as_nanos() as u64,
    }
}
