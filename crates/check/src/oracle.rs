//! The reference oracle engine: a deliberately simple, allocation-heavy
//! reimplementation of the wormhole simulation semantics.
//!
//! This is the *model* in "model-based testing". It mirrors the
//! optimized engine in `turnroute-sim` cycle for cycle and RNG draw for
//! RNG draw, but takes none of its shortcuts:
//!
//! * routing is always a dyn-dispatched `route()` call — no
//!   [`RouteTable`](turnroute_sim::RouteTable), ever;
//! * every cycle builds fresh `Vec`s for requesters, grants and
//!   candidates — no scratch reuse, no epoch-stamped granted sets;
//! * the worm's tail channel is released with a `Vec::remove(0)` shift —
//!   no cursor;
//! * source queues are plain `Vec`s popped from the front;
//! * every node's traffic source is polled every cycle and every source
//!   queue is scanned for an injectable head — no arrival calendar, no
//!   ready-source bitset.
//!
//! Keeping it this naive is the point: the oracle stays small enough to
//! audit by eye, so when it and the optimized engine disagree, the
//! engine is wrong. The conformance runner
//! ([`crate::invariants`]) asserts their reports are bit-identical.
//!
//! The only pieces shared with the real engine are the ones that *are*
//! the specification of the RNG stream: [`TrafficSource`] (arrival and
//! length draws, for both the Poisson and the MMPP on-off models) and
//! the [`TrafficPattern`] trait objects (destination draws). Everything
//! downstream of those draws is reimplemented here.

use turnroute_core::RoutingAlgorithm;
use turnroute_fault::FaultEvent;
use turnroute_rng::{Rng, StdRng};
use turnroute_sim::patterns::TrafficPattern;
use turnroute_sim::{cycles_to_usec, InputSelection, OutputSelection, SimConfig, TrafficSource};
use turnroute_topology::{ChannelId, Direction, NodeId, Topology};

/// A packet in the oracle: same lifecycle as the engine's
/// [`Packet`](turnroute_sim::Packet), with the worm stored as the plain
/// occupied-channel chain (tail first).
#[derive(Debug, Clone)]
struct OraclePacket {
    src: NodeId,
    dst: NodeId,
    length: u32,
    created_at: u64,
    injected_at: Option<u64>,
    delivered_at: Option<u64>,
    /// Occupied channels, tail first; the tail is released by
    /// `remove(0)`.
    worm: Vec<ChannelId>,
    stranded: bool,
    flits_at_source: u32,
    flits_consumed: u32,
    head_node: NodeId,
    arrived: Option<Direction>,
    head_arrival: u64,
    hops: u32,
}

/// Everything the oracle measured, kept raw: latencies are plain `Vec`s
/// (the pre-histogram representation), utilization is recomputed from
/// first principles. [`crate::invariants::compare_reports`] folds these
/// into the engine's report types and demands bit identity.
#[derive(Debug, Clone)]
pub struct OracleReport {
    /// Offered load per node in flits per cycle, echoed from the config.
    pub offered_load: f64,
    /// Cycle the run stopped at.
    pub cycle: u64,
    /// `true` if the deadlock watchdog fired.
    pub deadlocked: bool,
    /// First cycle of the measurement window.
    pub window_start: u64,
    /// One past the last cycle of the measurement window.
    pub window_end: u64,
    /// Flits consumed at destinations during the window.
    pub flits_delivered: u64,
    /// Messages created during the window.
    pub messages_generated: u64,
    /// Flits created during the window.
    pub flits_generated: u64,
    /// Per-delivery total latency in cycles, for messages created in the
    /// window, in delivery order.
    pub latencies: Vec<u64>,
    /// Per-delivery network latency (injection to delivery) in cycles.
    pub network_latencies: Vec<u64>,
    /// Per-delivery hop counts, in delivery order.
    pub hop_counts: Vec<u32>,
    /// Queue-depth samples taken every 256 cycles inside the window.
    pub queue_samples: Vec<usize>,
    /// Packets the routing relation stranded.
    pub stranded_packets: u64,
    /// Messages delivered over the whole run.
    pub total_delivered: u64,
    /// Messages created over the whole run.
    pub total_generated: u64,
    /// Per-channel offered load over the window, flits per microsecond.
    pub channel_utilization: Vec<f64>,
}

/// The reference engine. Build one with [`Oracle::new`] and call
/// [`Oracle::run`]; both take the same inputs as
/// [`Simulation`](turnroute_sim::Simulation).
pub struct Oracle<'a> {
    topo: &'a dyn Topology,
    algo: &'a dyn RoutingAlgorithm,
    pattern: &'a dyn TrafficPattern,
    config: SimConfig,
    rng: StdRng,
    source: TrafficSource,
    cycle: u64,
    packets: Vec<OraclePacket>,
    queues: Vec<Vec<usize>>,
    injecting: Vec<Option<usize>>,
    ejecting: Vec<Option<usize>>,
    channel_owner: Vec<Option<usize>>,
    faulty: Vec<bool>,
    fault_events: Vec<FaultEvent>,
    fault_cursor: usize,
    prune_faulty: bool,
    fault_repairs: bool,
    channel_flits: Vec<u64>,
    in_flight: Vec<usize>,
    stranded_count: u64,
    last_progress: u64,
    generation_enabled: bool,
    window_start: u64,
    window_end: u64,
    flits_delivered: u64,
    messages_generated: u64,
    flits_generated: u64,
    latencies: Vec<u64>,
    network_latencies: Vec<u64>,
    hop_counts: Vec<u32>,
    queue_samples: Vec<usize>,
    total_delivered: u64,
    total_generated: u64,
}

impl<'a> Oracle<'a> {
    /// Builds the oracle. Mirrors the engine's constructor, including
    /// the RNG draw for each node's first Poisson arrival.
    pub fn new(
        topo: &'a dyn Topology,
        algo: &'a dyn RoutingAlgorithm,
        pattern: &'a dyn TrafficPattern,
        config: SimConfig,
    ) -> Self {
        let (fault_events, fault_repairs) = match config.faults.as_deref() {
            Some(schedule) => {
                assert_eq!(
                    schedule.num_channels(),
                    topo.num_channels(),
                    "fault schedule compiled for a different topology"
                );
                (schedule.events().to_vec(), schedule.has_repairs())
            }
            None => (Vec::new(), false),
        };
        let prune_faulty = !fault_events.is_empty();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let source = TrafficSource::for_config(topo.num_nodes(), &config, &mut rng);
        Oracle {
            topo,
            algo,
            pattern,
            config,
            rng,
            source,
            cycle: 0,
            packets: Vec::new(),
            queues: vec![Vec::new(); topo.num_nodes()],
            injecting: vec![None; topo.num_nodes()],
            ejecting: vec![None; topo.num_nodes()],
            channel_owner: vec![None; topo.num_channels()],
            faulty: vec![false; topo.num_channels()],
            fault_events,
            fault_cursor: 0,
            prune_faulty,
            fault_repairs,
            channel_flits: vec![0; topo.num_channels()],
            in_flight: Vec::new(),
            stranded_count: 0,
            last_progress: 0,
            generation_enabled: true,
            window_start: 0,
            window_end: 0,
            flits_delivered: 0,
            messages_generated: 0,
            flits_generated: 0,
            latencies: Vec::new(),
            network_latencies: Vec::new(),
            hop_counts: Vec::new(),
            queue_samples: Vec::new(),
            total_delivered: 0,
            total_generated: 0,
        }
    }

    /// Runs warmup, the measurement window, then the drain phase, and
    /// reports — the same phases and early-exit rules as
    /// [`Simulation::run`](turnroute_sim::Simulation::run).
    pub fn run(mut self) -> OracleReport {
        self.window_start = self.config.warmup_cycles;
        self.window_end = self.config.warmup_cycles + self.config.measure_cycles;
        let drain_limit = self.window_end + self.config.measure_cycles;

        let mut deadlocked = false;
        while self.cycle < drain_limit {
            if self.cycle == self.window_end {
                self.generation_enabled = false;
            }
            if self.step() {
                deadlocked = true;
                break;
            }
            if self.cycle > self.window_end
                && self.in_flight.is_empty()
                && self.queued_messages() == 0
            {
                break;
            }
        }
        let channel_utilization = self.channel_utilization();
        OracleReport {
            offered_load: self.config.injection_rate_flits,
            cycle: self.cycle,
            deadlocked,
            window_start: self.window_start,
            window_end: self.window_end,
            flits_delivered: self.flits_delivered,
            messages_generated: self.messages_generated,
            flits_generated: self.flits_generated,
            latencies: self.latencies,
            network_latencies: self.network_latencies,
            hop_counts: self.hop_counts,
            queue_samples: self.queue_samples,
            stranded_packets: self.stranded_count,
            total_delivered: self.total_delivered,
            total_generated: self.total_generated,
            channel_utilization,
        }
    }

    /// One cycle: faults, generation, arbitration, advance, bookkeeping.
    /// Returns `true` if the deadlock watchdog fired.
    fn step(&mut self) -> bool {
        while let Some(&ev) = self.fault_events.get(self.fault_cursor) {
            if ev.cycle > self.cycle {
                break;
            }
            self.fault_cursor += 1;
            self.faulty[ev.channel.index()] = ev.fail;
        }
        self.generate();
        let grants = self.arbitrate();
        let progressed = self.advance(grants);
        if self.in_window(self.cycle) && self.cycle.is_multiple_of(256) {
            let queued = self.queued_messages();
            self.queue_samples.push(queued);
        }
        if progressed || self.stranded_count == self.in_flight.len() as u64 {
            self.last_progress = self.cycle;
        }
        self.cycle += 1;
        !self.in_flight.is_empty()
            && self.cycle - self.last_progress >= self.config.deadlock_threshold
    }

    fn in_window(&self, cycle: u64) -> bool {
        cycle >= self.window_start && cycle < self.window_end
    }

    fn queued_messages(&self) -> usize {
        self.queues.iter().map(Vec::len).sum()
    }

    fn generate(&mut self) {
        if !self.generation_enabled {
            return;
        }
        // Two passes, like the engine: all arrival/length draws first
        // (node order), then all destination draws (message order).
        let mut messages: Vec<(NodeId, u32)> = Vec::new();
        for node in 0..self.topo.num_nodes() {
            self.source.poll(node, self.cycle, &mut self.rng, |len| {
                messages.push((NodeId::new(node), len));
            });
        }
        for (src, len) in messages {
            if let Some(dst) = self.pattern.dest(self.topo, src, &mut self.rng) {
                self.inject_message(src, dst, len);
            }
        }
    }

    fn inject_message(&mut self, src: NodeId, dst: NodeId, length: u32) {
        assert!(length > 0, "packets have at least one flit");
        assert_ne!(src, dst, "self-addressed packets are consumed locally");
        let id = self.packets.len();
        self.packets.push(OraclePacket {
            src,
            dst,
            length,
            created_at: self.cycle,
            injected_at: None,
            delivered_at: None,
            worm: Vec::new(),
            stranded: false,
            flits_at_source: length,
            flits_consumed: 0,
            head_node: src,
            arrived: None,
            head_arrival: self.cycle,
            hops: 0,
        });
        self.queues[src.index()].push(id);
        self.total_generated += 1;
        if self.in_window(self.cycle) {
            self.messages_generated += 1;
            self.flits_generated += length as u64;
        }
    }

    /// The permitted direction set for packet `id`, pruned of failed
    /// channels when a fault plan is active (matching the engine's
    /// table-off path, which the table-on path is bit-identical to).
    fn permitted(&self, id: usize) -> turnroute_topology::DirSet {
        let p = &self.packets[id];
        let mut permitted = self.algo.route(self.topo, p.head_node, p.dst, p.arrived);
        if self.prune_faulty {
            for dir in permitted {
                match self.topo.channel_from(p.head_node, dir) {
                    Some(c) if !self.faulty[c.index()] => {}
                    _ => permitted.remove(dir),
                }
            }
        }
        permitted
    }

    /// Permitted directions in the output-selection policy's preference
    /// order. A fresh `Vec` per call; the Random policy draws the same
    /// Fisher-Yates sequence as the engine.
    fn ordered_directions(&mut self, id: usize) -> Vec<Direction> {
        let permitted = self.permitted(id);
        let arrived = self.packets[id].arrived;
        let mut dirs: Vec<Direction> = permitted.iter().collect();
        match self.config.output_selection {
            OutputSelection::LowestDimension => {}
            OutputSelection::HighestDimension => dirs.reverse(),
            OutputSelection::StraightFirst => {
                if let Some(fwd) = arrived {
                    if let Some(pos) = dirs.iter().position(|&d| d == fwd) {
                        dirs[..=pos].rotate_right(1);
                    }
                }
            }
            OutputSelection::Random => {
                for i in (1..dirs.len()).rev() {
                    let j = self.rng.random_range(0..=i);
                    dirs.swap(i, j);
                }
            }
        }
        dirs
    }

    /// One arbitration pass; returns the `(packet, channel)` grants.
    fn arbitrate(&mut self) -> Vec<(usize, ChannelId)> {
        let mut requesters: Vec<usize> = Vec::new();
        for &id in &self.in_flight {
            let p = &self.packets[id];
            if p.head_node != p.dst && !p.stranded {
                requesters.push(id);
            }
        }
        for node in 0..self.topo.num_nodes() {
            if self.injecting[node].is_none() {
                if let Some(&head) = self.queues[node].first() {
                    requesters.push(head);
                }
            }
        }

        match self.config.input_selection {
            InputSelection::FirstComeFirstServed => {
                requesters.sort_by_key(|&id| (self.packets[id].head_arrival, id));
            }
            InputSelection::FixedPriority => {
                requesters.sort_by_key(|&id| {
                    let rank = self.packets[id].arrived.map_or(0, |d| d.index() + 1);
                    (rank, id)
                });
            }
            InputSelection::Random => {
                for i in (1..requesters.len()).rev() {
                    let j = self.rng.random_range(0..=i);
                    requesters.swap(i, j);
                }
            }
        }

        let mut grants: Vec<(usize, ChannelId)> = Vec::new();
        let mut granted: std::collections::HashSet<usize> = std::collections::HashSet::new();
        for id in requesters {
            let permitted = self.permitted(id);
            let dirs = self.ordered_directions(id);
            let head = self.packets[id].head_node;
            let candidates: Vec<ChannelId> = dirs
                .iter()
                .filter_map(|&dir| self.topo.channel_from(head, dir))
                .filter(|c| !self.faulty[c.index()] && self.channel_owner[c.index()].is_none())
                .collect();
            if candidates.is_empty() {
                if permitted.is_empty() {
                    // Under repairs an empty pruned set may heal; strand
                    // only if the raw relation itself offers nothing.
                    let permanent = !(self.prune_faulty && self.fault_repairs) || {
                        let p = &self.packets[id];
                        self.algo
                            .route(self.topo, p.head_node, p.dst, p.arrived)
                            .is_empty()
                    };
                    if permanent {
                        let in_flight = self.packets[id].injected_at.is_some()
                            && self.packets[id].delivered_at.is_none();
                        if in_flight && !self.packets[id].stranded {
                            self.packets[id].stranded = true;
                            self.stranded_count += 1;
                        }
                    }
                }
                continue;
            }
            if let Some(&channel) = candidates.iter().find(|c| !granted.contains(&c.index())) {
                granted.insert(channel.index());
                grants.push((id, channel));
            }
        }
        grants
    }

    /// Consumption at destinations, then granted moves. Returns whether
    /// anything progressed.
    fn advance(&mut self, grants: Vec<(usize, ChannelId)>) -> bool {
        let mut progressed = false;
        let mut at_dest: Vec<usize> = self
            .in_flight
            .iter()
            .copied()
            .filter(|&id| self.packets[id].head_node == self.packets[id].dst)
            .collect();
        at_dest.sort_by_key(|&id| (self.packets[id].head_arrival, id));
        for id in at_dest {
            let node = self.packets[id].dst.index();
            match self.ejecting[node] {
                None => self.ejecting[node] = Some(id),
                Some(holder) if holder == id => {}
                Some(_) => continue,
            }
            self.consume_one_flit(id);
            progressed = true;
        }
        for (id, channel) in grants {
            self.take_channel(id, channel);
            progressed = true;
        }
        progressed
    }

    fn take_channel(&mut self, id: usize, channel: ChannelId) {
        let ch = self.topo.channel(channel);
        if self.packets[id].injected_at.is_none() {
            let node = ch.src.index();
            let front = self.queues[node].remove(0);
            assert_eq!(front, id, "granted a non-head queued packet");
            self.injecting[node] = Some(id);
            self.packets[id].injected_at = Some(self.cycle);
            self.in_flight.push(id);
        }
        self.channel_owner[channel.index()] = Some(id);
        if self.in_window(self.cycle) {
            self.channel_flits[channel.index()] += self.packets[id].length as u64;
        }
        let p = &mut self.packets[id];
        p.worm.push(channel);
        p.head_node = ch.dst;
        p.arrived = Some(ch.dir);
        p.head_arrival = self.cycle + 1;
        p.hops += 1;
        self.shift_tail(id);
    }

    fn consume_one_flit(&mut self, id: usize) {
        if self.in_window(self.cycle) {
            self.flits_delivered += 1;
        }
        self.packets[id].flits_consumed += 1;
        let done = self.packets[id].flits_consumed == self.packets[id].length;
        self.shift_tail(id);
        if done {
            assert!(
                self.packets[id].worm.is_empty(),
                "delivered with flits in flight"
            );
            self.packets[id].delivered_at = Some(self.cycle);
            let dst = self.packets[id].dst.index();
            if self.ejecting[dst] == Some(id) {
                self.ejecting[dst] = None;
            }
            self.total_delivered += 1;
            self.in_flight.retain(|&q| q != id);
            let p = &self.packets[id];
            if p.created_at >= self.window_start && p.created_at < self.window_end {
                self.latencies.push(self.cycle - p.created_at);
                self.network_latencies
                    .push(self.cycle - p.injected_at.expect("delivered => injected"));
                self.hop_counts.push(p.hops);
            }
        }
    }

    /// Feed the tail after a head move: a fresh flit leaves the source,
    /// or the tail channel drains (`Vec::remove(0)` — the naive shift
    /// the engine replaced with a cursor).
    fn shift_tail(&mut self, id: usize) {
        if self.packets[id].flits_at_source > 0 {
            self.packets[id].flits_at_source -= 1;
            if self.packets[id].flits_at_source == 0 {
                let src = self.packets[id].src.index();
                if self.injecting[src] == Some(id) {
                    self.injecting[src] = None;
                }
            }
        } else if !self.packets[id].worm.is_empty() {
            let tail = self.packets[id].worm.remove(0);
            self.channel_owner[tail.index()] = None;
        }
    }

    fn channel_utilization(&self) -> Vec<f64> {
        let cycles = self
            .window_end
            .min(self.cycle)
            .saturating_sub(self.window_start);
        if cycles == 0 {
            return vec![0.0; self.channel_flits.len()];
        }
        let usec = cycles_to_usec(cycles);
        self.channel_flits
            .iter()
            .map(|&f| f as f64 / usec)
            .collect()
    }
}
