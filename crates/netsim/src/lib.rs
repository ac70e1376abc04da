//! # intang-netsim
//!
//! A deterministic discrete-event network simulator: the substrate on which
//! the YSINM reproduction runs its clients, middleboxes, censor taps and
//! servers.
//!
//! A [`Simulation`] owns a linear **path** of [`Element`]s — exactly the
//! paper's threat model (Fig. 1):
//!
//! ```text
//! [0] client host ── link ── [1..] client-side middleboxes ── link ──
//!     [k] GFW tap ── link ── [..] server-side middleboxes ── link ── [n-1] server host
//! ```
//!
//! Every link models latency, loss and a number of routers. Routers
//! decrement the IPv4 TTL in place; a packet whose TTL expires is dropped
//! and a real ICMP time-exceeded datagram is sent back — which is what makes
//! INTANG's tcptraceroute-style hop estimation (§7.1) work inside the
//! simulator.
//!
//! Determinism: the event queue is ordered by `(time, sequence)` and all
//! randomness flows from one seeded [`rng::SimRng`], so a `(scenario, seed)`
//! pair always reproduces the same run.

pub mod batch;
pub mod element;
pub mod event;
pub mod faults;
pub mod flight;
pub mod link;
pub mod pcap;
pub mod rng;
pub mod sim;
pub mod time;
pub mod trace;

pub use element::{Ctx, Direction, Element};
pub use faults::{GilbertElliott, LinkFaults};
pub use link::Link;
pub use rng::SimRng;
pub use sim::Simulation;
pub use time::{Duration, Instant};
pub use trace::{Trace, TraceEvent, TraceId, TracePoint};
