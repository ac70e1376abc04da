//! Cross-flow interference suite: hand-built metropolis worlds where the
//! *shared* censor state — one blacklist, one TCB table — couples flows
//! that never exchange a byte. Every expectation below is hand-computed
//! from the topology (50 µs + 1 ms + 2 ms links → ~6 ms RTT, detection of
//! a t=0 keyword flow lands within ~10 ms) and the configured censor
//! parameters (90 s pair blacklist, `max_tcbs` + Oldest eviction).

use intang_apps::metro::{FlowOutcome, FlowSpec};
use intang_core::StrategyKind;
use intang_experiments::metropolis::{
    build_metropolis_domain, run_metropolis_domains_world, MetroDomainsRun, MetroParams, MetroParts, MetroWorld,
};
use intang_gfw::EvictionPolicy;
use intang_netsim::{Duration, Instant};
use std::net::Ipv4Addr;

/// A hand-placed world: every flow runs bare (`NoStrategy`), so the
/// censor's reactions are the only variable. Flows are
/// `(start_us, client_idx, site_idx, keyword, request_delay_us)`.
fn world(clients: u32, sites: u32, flows: &[(u64, u32, u32, bool, u64)]) -> MetroWorld {
    assert!(flows.windows(2).all(|w| w[0].0 <= w[1].0), "flows must be start-sorted");
    MetroWorld {
        clients: (0..clients).map(|i| Ipv4Addr::new(10, 1, 0, (i + 1) as u8)).collect(),
        sites: (0..sites).map(|i| Ipv4Addr::new(203, 0, 113, (i + 1) as u8)).collect(),
        specs: flows
            .iter()
            .enumerate()
            .map(|(id, &(start, client, site, keyword, delay))| FlowSpec {
                start: Instant(start),
                client,
                site,
                isn: 0x1000_0000 + id as u32,
                keyword,
                request_delay: Duration::from_micros(delay),
            })
            .collect(),
        strategies: vec![StrategyKind::NoStrategy; flows.len()],
    }
}

/// The same world under the parallel loop: sharded censor/shim lanes,
/// `domains` event domains on `workers` threads.
fn run_domains(w: &MetroWorld, max_tcbs: usize, horizon: Instant, domains: u32, workers: usize) -> (Vec<FlowOutcome>, MetroDomainsRun) {
    let mut p = MetroParams::new(w.specs.len() as u32, 42);
    p.shards = 4;
    p.max_tcbs = max_tcbs;
    p.eviction = EvictionPolicy::Oldest;
    p.horizon = horizon;
    let run = run_metropolis_domains_world(&p, w, domains, workers);
    let outcomes = run.run.results.iter().map(|r| r.outcome).collect();
    (outcomes, run)
}

/// The world as the `domains = 1` serial reference, with live censor
/// handles for the assertions.
fn run(w: &MetroWorld, max_tcbs: usize, horizon: Instant) -> (Vec<FlowOutcome>, MetroParts) {
    let mut p = MetroParams::new(w.specs.len() as u32, 42);
    p.shards = 4;
    p.max_tcbs = max_tcbs;
    p.eviction = EvictionPolicy::Oldest;
    p.horizon = horizon;
    let (mut sim, parts) = build_metropolis_domain(&p, w, 1, 0);
    sim.run_until(horizon);
    let outcomes = parts.metro.results().iter().map(|r| r.outcome).collect();
    (outcomes, parts)
}

#[test]
fn detection_on_one_flow_resets_a_later_flow_on_the_same_pair() {
    // Flow 0 carries the keyword and is detected within ~10 ms, putting
    // (client 0, site 0) on the blacklist. Flow 1 — benign, same pair,
    // starting 100 ms later — draws the sustained-disruption volley and
    // dies as collateral, having shared nothing with flow 0 but addresses.
    let w = world(
        1,
        1,
        &[
            (0, 0, 0, true, 0),        // keyword: detected, reset
            (100_000, 0, 0, false, 0), // benign, same (src, dst): collateral reset
        ],
    );
    let (outcomes, parts) = run(&w, 65_536, Instant(5_000_000));
    assert_eq!(outcomes[0], FlowOutcome::Reset, "keyword flow is detected and reset");
    assert_eq!(outcomes[1], FlowOutcome::Reset, "benign flow on the blacklisted pair is collateral");
    assert!(
        parts.gfw.blacklist_collateral_resets() > 0,
        "the censor attributes flow 1's resets to collateral (got 0)"
    );
}

#[test]
fn benign_flow_from_a_different_client_is_untouched() {
    // Same censor, same site, same instant as the collateral flow — but a
    // different client address. The blacklist keys on the (src, dst)
    // pair, so this flow must complete normally.
    let w = world(
        2,
        1,
        &[
            (0, 0, 0, true, 0),        // keyword: detected, blacklists (client0, site0)
            (100_000, 0, 0, false, 0), // collateral on the blacklisted pair
            (100_000, 1, 0, false, 0), // different client, same site: untouched
        ],
    );
    let (outcomes, _parts) = run(&w, 65_536, Instant(5_000_000));
    assert_eq!(outcomes[1], FlowOutcome::Reset, "same-pair flow is collateral");
    assert_eq!(outcomes[2], FlowOutcome::Success, "different-client flow sails through");
}

#[test]
fn blacklist_expiry_at_ninety_seconds_restores_the_pair() {
    // The pair blacklist lasts 90 s from the detection (~t=10 ms). A
    // benign retry at t=50 s is still inside the window and dies; a retry
    // at t=95 s is past expiry and succeeds.
    let w = world(
        1,
        1,
        &[
            (0, 0, 0, true, 0),           // detected at ~10 ms
            (50_000_000, 0, 0, false, 0), // 50 s < 90 s: still blacklisted
            (95_000_000, 0, 0, false, 0), // 95 s > 90.01 s: expired, succeeds
        ],
    );
    let (outcomes, _parts) = run(&w, 65_536, Instant(120_000_000));
    assert_eq!(outcomes[1], FlowOutcome::Reset, "retry inside the 90 s window is collateral");
    assert_eq!(outcomes[2], FlowOutcome::Success, "retry after expiry completes normally");
}

#[test]
fn tcb_eviction_under_capacity_pressure_degrades_detection_exactly_as_configured() {
    // Flow 0 handshakes at t=0 but holds its keyword request for 200 ms.
    // Flows 1 and 2 handshake at 20/22 ms and idle long enough that both
    // their TCBs are live when the third SYN arrives. With max_tcbs = 2
    // and Oldest eviction, that SYN evicts flow 0's TCB — and since the
    // censor never rebuilds state mid-stream, flow 0's keyword request is
    // never scanned: capacity pressure converts a Reset into a Success.
    let flows: &[(u64, u32, u32, bool, u64)] = &[
        (0, 0, 0, true, 200_000),       // keyword, request delayed past the pressure
        (20_000, 1, 1, false, 100_000), // filler: holds a TCB slot
        (22_000, 2, 1, false, 100_000), // filler: its SYN forces the eviction
    ];
    let w = world(3, 2, flows);

    let (outcomes, parts) = run(&w, 2, Instant(5_000_000));
    assert_eq!(parts.gfw.tcbs_evicted(), 1, "exactly one eviction: flow 0's TCB, the oldest");
    assert_eq!(outcomes[0], FlowOutcome::Success, "evicted TCB means the keyword goes unscanned");
    assert_eq!(outcomes[1], FlowOutcome::Success);
    assert_eq!(outcomes[2], FlowOutcome::Success);

    // Control: ample capacity, identical world — detection works again.
    let (outcomes, parts) = run(&w, 65_536, Instant(5_000_000));
    assert_eq!(parts.gfw.tcbs_evicted(), 0, "no pressure, no evictions");
    assert_eq!(outcomes[0], FlowOutcome::Reset, "with its TCB intact the keyword flow is detected");
    assert_eq!(outcomes[1], FlowOutcome::Success);
    assert_eq!(outcomes[2], FlowOutcome::Success);
}

#[test]
fn interference_expectations_hold_unchanged_under_the_parallel_loop() {
    // The blacklist couples flows on the same (src, dst) pair — and
    // `pair_shard` keys on exactly that pair, so the coupling is always
    // intra-lane and the hand-computed expectations above carry over to
    // the sharded-state parallel loop verbatim, at every domain count.
    let w = world(
        2,
        1,
        &[
            (0, 0, 0, true, 0),           // keyword: detected, blacklists (client0, site0)
            (100_000, 0, 0, false, 0),    // same pair: collateral reset
            (100_000, 1, 0, false, 0),    // different client: untouched
            (50_000_000, 0, 0, false, 0), // 50 s < 90 s: still blacklisted
            (95_000_000, 0, 0, false, 0), // 95 s > 90.01 s: expired, succeeds
        ],
    );
    let expected = vec![
        FlowOutcome::Reset,
        FlowOutcome::Reset,
        FlowOutcome::Success,
        FlowOutcome::Reset,
        FlowOutcome::Success,
    ];
    for (domains, workers) in [(1u32, 1usize), (2, 2), (4, 4)] {
        let (outcomes, run) = run_domains(&w, 65_536, Instant(120_000_000), domains, workers);
        assert_eq!(
            outcomes, expected,
            "interference outcomes differ at {domains} domains, {workers} workers"
        );
        assert!(
            run.run.collateral_resets > 0,
            "collateral is attributed at {domains} domains (got 0)"
        );
        assert_eq!(run.run.order_violations, 0);
    }
}

#[test]
fn per_lane_eviction_quota_degrades_detection_identically_at_every_domain_count() {
    // Sharded state partitions `max_tcbs` deterministically: 8 TCBs over
    // 4 lanes is a quota of 2 per lane. All three flows share one
    // (src, dst) pair, hence one lane: flow 0 handshakes first and holds
    // its keyword for 200 ms; fillers 1 and 2 handshake at 20/22 ms, and
    // the third SYN finds the lane at quota and evicts flow 0's TCB — the
    // keyword goes unscanned. The arithmetic is per-lane, so the outcome
    // is identical whether the lane's shard runs in 1, 2, or 4 domains.
    let flows: &[(u64, u32, u32, bool, u64)] = &[
        (0, 0, 0, true, 200_000),       // keyword, request delayed past the pressure
        (20_000, 0, 0, false, 100_000), // filler: holds a lane TCB slot
        (22_000, 0, 0, false, 100_000), // filler: its SYN forces the lane eviction
    ];
    let w = world(1, 1, flows);

    for (domains, workers) in [(1u32, 1usize), (2, 2), (4, 4)] {
        let (outcomes, run) = run_domains(&w, 8, Instant(5_000_000), domains, workers);
        let tag = format!("{domains} domains, {workers} workers");
        assert_eq!(run.run.tcbs_evicted, 1, "exactly one lane eviction at {tag}");
        assert_eq!(
            outcomes[0],
            FlowOutcome::Success,
            "evicted TCB means the keyword goes unscanned at {tag}"
        );
        assert_eq!(outcomes[1], FlowOutcome::Success, "{tag}");
        assert_eq!(outcomes[2], FlowOutcome::Success, "{tag}");

        // Control: ample per-lane quota, identical world — detection works.
        let (outcomes, run) = run_domains(&w, 65_536, Instant(5_000_000), domains, workers);
        assert_eq!(run.run.tcbs_evicted, 0, "no pressure, no evictions at {tag}");
        assert_eq!(
            outcomes[0],
            FlowOutcome::Reset,
            "with its TCB intact the keyword flow is detected at {tag}"
        );
        assert_eq!(outcomes[1], FlowOutcome::Success, "{tag}");
        assert_eq!(outcomes[2], FlowOutcome::Success, "{tag}");
    }
}
