//! Outside-in layer timing: an [`Element`] adapter that charges the wall
//! time of every `on_packet`/`on_timer` call to the layer the wrapped
//! element belongs to.
//!
//! Elements never call each other — the event loop dispatches one element
//! call at a time — so the charged intervals are disjoint, and a run's
//! `run_until` time splits exactly into element time plus the loop's own
//! time (queue, links, TTL and checksum kernels, batching).

use intang_netsim::{Ctx, Direction, Element};
use intang_packet::Wire;
use intang_telemetry::{GaugeSample, MetricsSheet};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// The element layers a world is assembled from, named after the crates
/// that implement them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Hosts with full TCP stacks (apps + tcpstack): trial client and
    /// server, metro clients and servers.
    Endpoint,
    /// The INTANG shim (core).
    Shim,
    /// The censor tap (gfw).
    Censor,
    /// Fragment handlers, field filters and firewalls (middlebox).
    Middlebox,
}

impl Layer {
    pub const ALL: [Layer; 4] = [Layer::Endpoint, Layer::Shim, Layer::Censor, Layer::Middlebox];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Endpoint => "endpoint",
            Layer::Shim => "shim",
            Layer::Censor => "censor",
            Layer::Middlebox => "middlebox",
        }
    }
}

/// Calls and nanoseconds charged to each layer, indexed by `Layer as usize`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LayerTotals {
    pub calls: [u64; 4],
    pub nanos: [u64; 4],
}

impl LayerTotals {
    pub fn merge(&mut self, other: &LayerTotals) {
        for i in 0..4 {
            self.calls[i] += other.calls[i];
            self.nanos[i] += other.nanos[i];
        }
    }

    /// Nanoseconds spent inside element calls of any layer.
    pub fn element_nanos(&self) -> u64 {
        self.nanos.iter().sum()
    }
}

/// One world's shared ledger: every adapter of the world charges into it.
pub type Ledger = Rc<RefCell<LayerTotals>>;

/// Wraps an element, forwarding all five trait methods and timing the two
/// dispatch entry points.
struct Timed {
    inner: Box<dyn Element>,
    layer: Layer,
    ledger: Ledger,
}

/// Box `inner` behind a timing adapter charging `layer` in `ledger`.
pub fn timed(inner: Box<dyn Element>, layer: Layer, ledger: &Ledger) -> Box<dyn Element> {
    Box::new(Timed {
        inner,
        layer,
        ledger: ledger.clone(),
    })
}

impl Timed {
    fn charge(&self, started: Instant) {
        let nanos = started.elapsed().as_nanos() as u64;
        let mut l = self.ledger.borrow_mut();
        l.calls[self.layer as usize] += 1;
        l.nanos[self.layer as usize] += nanos;
    }
}

impl Element for Timed {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, dir: Direction, wire: Wire) {
        let started = Instant::now();
        self.inner.on_packet(ctx, dir, wire);
        self.charge(started);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let started = Instant::now();
        self.inner.on_timer(ctx, token);
        self.charge(started);
    }

    fn export_metrics(&self, m: &mut MetricsSheet) {
        self.inner.export_metrics(m);
    }

    fn sample_gauges(&self, g: &mut GaugeSample) {
        self.inner.sample_gauges(g);
    }
}

/// What a traced pass measured around its `run_until` calls.
#[derive(Debug, Default, Clone, Copy)]
pub struct RunTotals {
    pub layers: LayerTotals,
    /// Wall time inside `run_until`.
    pub run_nanos: u64,
    pub events: u64,
    /// Largest event-queue length sampled.
    pub pending_max: u64,
}

impl RunTotals {
    pub fn merge(&mut self, other: &RunTotals) {
        self.layers.merge(&other.layers);
        self.run_nanos += other.run_nanos;
        self.events += other.events;
        self.pending_max = self.pending_max.max(other.pending_max);
    }

    /// Nanoseconds inside `run_until` but outside every element call.
    pub fn loop_nanos(&self) -> u64 {
        self.run_nanos - self.layers.element_nanos()
    }
}
