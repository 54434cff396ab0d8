//! Probes the traced run attaches through the program's public traits:
//! a delegating [`RoutingAlgorithm`], a delegating [`TrafficPattern`]
//! and a [`SimObserver`] that clocks cycles. Each forwards to the real
//! implementation unchanged, so a traced run computes the same reports.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use turnroute_core::RoutingAlgorithm;
use turnroute_rng::RngCore;
use turnroute_sim::patterns::TrafficPattern;
use turnroute_sim::{LatencyHistogram, PacketId, SimObserver};
use turnroute_topology::{ChannelId, DirSet, Direction, NodeId, Topology};

use crate::stats::Fit;
use crate::trace::Tracer;

/// Call count and nanoseconds spent in one wrapped method.
#[derive(Debug, Default)]
pub struct CallClock {
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl CallClock {
    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        // Relaxed: plain statistics, read after the threads are joined.
        self.nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        out
    }

    /// Adds the totals to `<prefix>_calls` and `<prefix>_s` style
    /// counters of `tracer`.
    pub fn flush(&self, tracer: &Tracer, calls: &'static str, secs: &'static str) {
        tracer.add(calls, self.calls.swap(0, Ordering::Relaxed) as f64);
        tracer.add(secs, self.nanos.swap(0, Ordering::Relaxed) as f64 * 1e-9);
    }
}

/// A routing algorithm that times every `route()` of the one it wraps.
pub struct TimedAlgorithm<'a> {
    inner: &'a dyn RoutingAlgorithm,
    /// Calls to `route()`.
    pub route: CallClock,
}

impl<'a> TimedAlgorithm<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a dyn RoutingAlgorithm) -> Self {
        TimedAlgorithm {
            inner,
            route: CallClock::default(),
        }
    }
}

impl RoutingAlgorithm for TimedAlgorithm<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn route(
        &self,
        topo: &dyn Topology,
        current: NodeId,
        dest: NodeId,
        arrived: Option<Direction>,
    ) -> DirSet {
        self.route
            .time(|| self.inner.route(topo, current, dest, arrived))
    }

    fn is_adaptive(&self) -> bool {
        self.inner.is_adaptive()
    }

    fn is_minimal(&self) -> bool {
        self.inner.is_minimal()
    }

    fn is_tabulable(&self) -> bool {
        self.inner.is_tabulable()
    }
}

/// A traffic pattern that times every `dest()` of the one it wraps.
pub struct TimedPattern<'a> {
    inner: &'a dyn TrafficPattern,
    /// Calls to `dest()`.
    pub dest: CallClock,
}

impl<'a> TimedPattern<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a dyn TrafficPattern) -> Self {
        TimedPattern {
            inner,
            dest: CallClock::default(),
        }
    }
}

impl TrafficPattern for TimedPattern<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn dest(&self, topo: &dyn Topology, src: NodeId, rng: &mut dyn RngCore) -> Option<NodeId> {
        self.dest.time(|| self.inner.dest(topo, src, rng))
    }

    fn min_nodes(&self) -> usize {
        self.inner.min_nodes()
    }
}

/// Clocks the engine from outside: timestamps the first event of each
/// cycle, tracks packets in flight (injected, not yet fully delivered),
/// and counts moves, blocks and delivered flits.
#[derive(Debug, Default)]
pub struct CycleClock {
    last_cycle: u64,
    last: Option<Instant>,
    in_flight: u64,
    /// Host nanoseconds per simulated cycle.
    pub cycle_ns: LatencyHistogram,
    /// Cycle nanoseconds against packets in flight.
    pub fit: Fit,
    /// Header hops taken.
    pub header_moves: u64,
    /// Header requests that got no channel.
    pub blocked: u64,
    /// Flits consumed at destinations.
    pub flits_delivered: u64,
}

impl CycleClock {
    #[inline]
    fn tick(&mut self, cycle: u64) {
        if cycle == self.last_cycle && self.last.is_some() {
            return;
        }
        let now = Instant::now();
        if let Some(last) = self.last {
            let gap = cycle.saturating_sub(self.last_cycle).max(1);
            let per_cycle = now.duration_since(last).as_nanos() as f64 / gap as f64;
            self.cycle_ns.record(per_cycle as u64);
            self.fit.add(self.in_flight as f64, per_cycle);
        }
        self.last = Some(now);
        self.last_cycle = cycle;
    }

    /// Adds this run's totals to the tracer's `engine.*` counters and
    /// merges its distributions into `hist` and `fit`.
    pub fn flush(&self, tracer: &Tracer, hist: &mut LatencyHistogram, fit: &mut Fit) {
        tracer.add("engine.header_moves", self.header_moves as f64);
        tracer.add("engine.blocked", self.blocked as f64);
        tracer.add("engine.flits_delivered", self.flits_delivered as f64);
        hist.merge(&self.cycle_ns);
        fit.merge(&self.fit);
    }
}

impl SimObserver for CycleClock {
    fn packet_injected(&mut self, cycle: u64, _: PacketId, _: NodeId, _: NodeId, _: u32) {
        self.tick(cycle);
        self.in_flight += 1;
    }

    fn header_advanced(&mut self, cycle: u64, _: PacketId, _: NodeId, _: ChannelId) {
        self.tick(cycle);
        self.header_moves += 1;
    }

    fn packet_blocked(&mut self, cycle: u64, _: PacketId, _: NodeId, _: ChannelId) {
        self.tick(cycle);
        self.blocked += 1;
    }

    fn flit_delivered(&mut self, cycle: u64, _: PacketId, done: bool) {
        self.tick(cycle);
        self.flits_delivered += 1;
        if done {
            self.in_flight = self.in_flight.saturating_sub(1);
        }
    }
}
