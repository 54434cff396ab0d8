//! Message generation: Poisson or MMPP (bursty on-off) arrivals with
//! the paper's bimodal lengths.
//!
//! [`TrafficSource`] is the single entry point both the optimized
//! engines and the `turnroute-check` naive oracle construct — with the
//! same arguments, in the same order — so the arrival/length RNG
//! stream is bit-identical between them *by construction*. The source
//! IS the specification of that stream: any change here changes both
//! sides at once.
//!
//! The oracle polls every node every cycle. The engines wrap the source
//! in an [`ArrivalCalendar`], which polls only the nodes with an event
//! due; since a node that is not due draws nothing, both sides make the
//! same draws in the same order, and the oracle comparison checks it.

use crate::config::{LengthDistribution, SimConfig, TrafficModel};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use turnroute_rng::{split_mix_64, Rng, RngCore, StdRng};

/// Per-node Poisson message source: inter-arrival times are drawn from a
/// negative exponential distribution (Section 6), message lengths from
/// the configured [`LengthDistribution`].
#[derive(Debug, Clone)]
pub struct PoissonSource {
    mean_interarrival: Option<f64>,
    lengths: LengthDistribution,
    /// Next arrival cycle per node (fractional cycles accumulate so the
    /// rate is exact in the long run).
    next_arrival: Vec<f64>,
}

impl PoissonSource {
    /// Creates a source for `num_nodes` nodes. `mean_interarrival` is in
    /// cycles; `None` disables generation. Initial phases are staggered
    /// by drawing the first arrival of each node from the same
    /// exponential.
    pub fn new(
        num_nodes: usize,
        mean_interarrival: Option<f64>,
        lengths: LengthDistribution,
        rng: &mut dyn RngCore,
    ) -> Self {
        let next_arrival = match mean_interarrival {
            None => vec![f64::INFINITY; num_nodes],
            Some(mean) => (0..num_nodes).map(|_| exponential(rng, mean)).collect(),
        };
        PoissonSource {
            mean_interarrival,
            lengths,
            next_arrival,
        }
    }

    /// Calls `emit(length)` once per message node `node` generates up to
    /// and including `cycle`.
    pub fn poll(
        &mut self,
        node: usize,
        cycle: u64,
        rng: &mut dyn RngCore,
        mut emit: impl FnMut(u32),
    ) {
        let Some(mean) = self.mean_interarrival else {
            return;
        };
        while self.next_arrival[node] <= cycle as f64 {
            emit(self.sample_length(rng));
            self.next_arrival[node] += exponential(rng, mean);
        }
    }

    /// The first cycle at which polling `node` would draw, or `None`
    /// if it never will (generation disabled).
    fn next_due(&self, node: usize) -> Option<u64> {
        self.mean_interarrival?;
        due_cycle(self.next_arrival[node])
    }

    /// Draws a message length.
    pub fn sample_length(&self, rng: &mut dyn RngCore) -> u32 {
        match self.lengths {
            LengthDistribution::Fixed(l) => l,
            LengthDistribution::Bimodal { short, long } => {
                if rng.random_bool(0.5) {
                    short
                } else {
                    long
                }
            }
        }
    }
}

/// An exponential variate with the given mean, via inverse transform.
fn exponential(rng: &mut dyn RngCore, mean: f64) -> f64 {
    let u: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
    -u.ln() * mean
}

/// The first whole cycle `c` with `t <= c`, the cycle at which a poll
/// first sees an event scheduled at `t`; `None` for an infinite `t`.
fn due_cycle(t: f64) -> Option<u64> {
    t.is_finite().then(|| t.ceil() as u64)
}

/// One node's lane of an [`MmppSource`]: its private RNG stream plus
/// the state of its on-off modulating chain.
#[derive(Debug, Clone)]
struct MmppLane {
    /// This node's private generator. Every draw the node ever makes —
    /// initial state, sojourn lengths, arrivals, message lengths —
    /// comes from here, so the sequence is independent of every other
    /// node and of how the run is threaded or sharded.
    rng: StdRng,
    /// Whether the node is currently in the ON (bursting) state.
    on: bool,
    /// Cycle (fractional) at which the current sojourn ends.
    next_toggle: f64,
    /// Next arrival cycle; `INFINITY` while OFF.
    next_arrival: f64,
}

/// Domain-separation tag folded into per-node traffic seeds so the
/// streams can never collide with the fault schedule's or the
/// executor's seed derivations.
const MMPP_SEED_TAG: u64 = 0x7472_6166_6669_633A; // "traffic:"

/// Per-node 2-state Markov-modulated Poisson source (bursty on-off
/// arrivals), normalized so the long-run mean rate equals the
/// configured injection rate.
///
/// Unlike [`PoissonSource`], which interleaves every node's draws on
/// one shared stream, each node here owns a private [`StdRng`] seeded
/// prefix-nested from `(run seed, node)` — the same discipline as the
/// fault schedule — so the arrival sequence of a node is a pure
/// function of `(seed, node)` and reports stay byte-identical at any
/// `--threads` / `--shards`.
#[derive(Debug, Clone)]
pub struct MmppSource {
    on_mean_interarrival: Option<f64>,
    burst_cycles: f64,
    idle_cycles: f64,
    lengths: LengthDistribution,
    lanes: Vec<MmppLane>,
}

impl MmppSource {
    /// Creates a source for `num_nodes` nodes. `mean_interarrival` is
    /// the *long-run* mean in cycles (same convention as
    /// [`PoissonSource::new`]); `None` disables generation. While ON,
    /// arrivals are exponential with mean `mean_interarrival * duty`
    /// where `duty = burst / (burst + idle)`, which restores the
    /// configured long-run rate. Initial states are drawn with the
    /// chain's stationary probability so the process starts in
    /// equilibrium.
    ///
    /// # Panics
    ///
    /// Panics if `burst_cycles` or `idle_cycles` is not positive and
    /// finite (spec layers reject these earlier with typed errors).
    pub fn new(
        num_nodes: usize,
        mean_interarrival: Option<f64>,
        lengths: LengthDistribution,
        burst_cycles: f64,
        idle_cycles: f64,
        seed: u64,
    ) -> Self {
        let model = TrafficModel::Mmpp {
            burst_cycles,
            idle_cycles,
        };
        if let Err(e) = model.check() {
            panic!("{e}");
        }
        let duty = model.duty();
        let on_mean = mean_interarrival.map(|m| m * duty);
        let lanes = (0..num_nodes)
            .map(|node| {
                // Prefix-nested per-node seed: tag, then run seed, then
                // node index, each stirred in before use.
                let mut s = MMPP_SEED_TAG;
                s ^= seed;
                split_mix_64(&mut s);
                s ^= node as u64;
                let mut rng = StdRng::seed_from_u64(split_mix_64(&mut s));
                let on = rng.random_bool(duty);
                let sojourn = if on { burst_cycles } else { idle_cycles };
                let next_toggle = exponential(&mut rng, sojourn);
                let next_arrival = match (on, on_mean) {
                    (true, Some(m)) => exponential(&mut rng, m),
                    _ => f64::INFINITY,
                };
                MmppLane {
                    rng,
                    on,
                    next_toggle,
                    next_arrival,
                }
            })
            .collect();
        MmppSource {
            on_mean_interarrival: on_mean,
            burst_cycles,
            idle_cycles,
            lengths,
            lanes,
        }
    }

    /// Calls `emit(length)` once per message node `node` generates up
    /// to and including `cycle`. All draws use the node's private
    /// stream; the shared engine RNG is never touched.
    pub fn poll(&mut self, node: usize, cycle: u64, mut emit: impl FnMut(u32)) {
        let Some(on_mean) = self.on_mean_interarrival else {
            return;
        };
        let lane = &mut self.lanes[node];
        let now = cycle as f64;
        loop {
            // Arrivals win ties with toggles: an arrival drawn at or
            // before the sojourn boundary belongs to the current ON
            // period. The rule is arbitrary but shared (engine and
            // oracle run this very code), so it cannot diverge.
            if lane.next_arrival <= now && lane.next_arrival <= lane.next_toggle {
                emit(sample_length(self.lengths, &mut lane.rng));
                lane.next_arrival += exponential(&mut lane.rng, on_mean);
            } else if lane.next_toggle <= now {
                let at = lane.next_toggle;
                lane.on = !lane.on;
                if lane.on {
                    lane.next_toggle = at + exponential(&mut lane.rng, self.burst_cycles);
                    lane.next_arrival = at + exponential(&mut lane.rng, on_mean);
                } else {
                    lane.next_toggle = at + exponential(&mut lane.rng, self.idle_cycles);
                    // Any arrival drawn past the ON period is discarded:
                    // exponential memorylessness makes redrawing at the
                    // next ON entry distribution-identical.
                    lane.next_arrival = f64::INFINITY;
                }
            } else {
                return;
            }
        }
    }

    /// The first cycle at which polling `node` would draw — its next
    /// arrival or state toggle, whichever is sooner — or `None` if it
    /// never will (generation disabled).
    fn next_due(&self, node: usize) -> Option<u64> {
        self.on_mean_interarrival?;
        let lane = &self.lanes[node];
        due_cycle(lane.next_arrival.min(lane.next_toggle))
    }
}

/// Draws a message length from `lengths` using `rng`.
fn sample_length(lengths: LengthDistribution, rng: &mut dyn RngCore) -> u32 {
    match lengths {
        LengthDistribution::Fixed(l) => l,
        LengthDistribution::Bimodal { short, long } => {
            if rng.random_bool(0.5) {
                short
            } else {
                long
            }
        }
    }
}

/// The arrival process of one run, dispatching on
/// [`SimConfig::traffic`](crate::SimConfig).
///
/// Both the optimized engine and the conformance oracle build this via
/// [`TrafficSource::for_config`] with identical arguments, which makes
/// their arrival/length RNG streams bit-identical by construction.
#[derive(Debug, Clone)]
pub enum TrafficSource {
    /// Stationary Poisson arrivals on the shared engine stream (the
    /// paper's model; draw-for-draw identical to the pre-axis engine).
    Poisson(PoissonSource),
    /// Bursty on-off arrivals on per-node private streams.
    Mmpp(MmppSource),
}

impl TrafficSource {
    /// Builds the source `config` asks for. For [`TrafficModel::Poisson`]
    /// this draws each node's initial phase from `rng` — exactly the
    /// draws [`PoissonSource::new`] always made, so legacy seeds
    /// reproduce. For [`TrafficModel::Mmpp`] the shared `rng` is left
    /// untouched; all state derives from per-node streams.
    pub fn for_config(num_nodes: usize, config: &SimConfig, rng: &mut dyn RngCore) -> Self {
        match config.traffic {
            TrafficModel::Poisson => TrafficSource::Poisson(PoissonSource::new(
                num_nodes,
                config.mean_interarrival_cycles(),
                config.lengths,
                rng,
            )),
            TrafficModel::Mmpp {
                burst_cycles,
                idle_cycles,
            } => TrafficSource::Mmpp(MmppSource::new(
                num_nodes,
                config.mean_interarrival_cycles(),
                config.lengths,
                burst_cycles,
                idle_cycles,
                config.seed,
            )),
        }
    }

    /// Calls `emit(length)` once per message node `node` generates up
    /// to and including `cycle`. `rng` is the shared engine stream;
    /// only the Poisson model consumes it.
    pub fn poll(&mut self, node: usize, cycle: u64, rng: &mut dyn RngCore, emit: impl FnMut(u32)) {
        match self {
            TrafficSource::Poisson(src) => src.poll(node, cycle, rng, emit),
            TrafficSource::Mmpp(src) => src.poll(node, cycle, emit),
        }
    }

    /// The number of nodes the source generates for.
    fn num_nodes(&self) -> usize {
        match self {
            TrafficSource::Poisson(src) => src.next_arrival.len(),
            TrafficSource::Mmpp(src) => src.lanes.len(),
        }
    }

    /// The first cycle at which [`TrafficSource::poll`] on `node` would
    /// draw anything, or `None` if it never will.
    fn next_due(&self, node: usize) -> Option<u64> {
        match self {
            TrafficSource::Poisson(src) => src.next_due(node),
            TrafficSource::Mmpp(src) => src.next_due(node),
        }
    }
}

/// A [`TrafficSource`] behind a min-heap of `(due cycle, node)`, so a
/// cycle's generation work scales with the events due rather than
/// with the node count.
///
/// Each node with a finite next event (arrival, or MMPP state toggle)
/// sits in the heap exactly once, keyed on the first cycle a poll would
/// see that event. [`ArrivalCalendar::poll_due`] pops the nodes due,
/// polls them in ascending node order and re-queues them. A node that
/// is not due draws nothing when polled, so the calendar makes exactly
/// the draws, in exactly the order, of polling every node every cycle —
/// which is what the conformance oracle does.
#[derive(Debug, Clone)]
pub struct ArrivalCalendar {
    source: TrafficSource,
    heap: BinaryHeap<Reverse<(u64, usize)>>,
    /// The heap's earliest due cycle (`u64::MAX` when empty), cached so
    /// a cycle with nothing due reads one field.
    next_due: u64,
    /// Nodes popped this cycle, kept across cycles for its capacity.
    due: Vec<usize>,
}

impl ArrivalCalendar {
    /// Queues every node of `source` that has a next event.
    pub fn new(source: TrafficSource) -> Self {
        let heap: BinaryHeap<_> = (0..source.num_nodes())
            .filter_map(|node| source.next_due(node).map(|due| Reverse((due, node))))
            .collect();
        ArrivalCalendar {
            source,
            next_due: Self::earliest(&heap),
            heap,
            due: Vec::new(),
        }
    }

    fn earliest(heap: &BinaryHeap<Reverse<(u64, usize)>>) -> u64 {
        heap.peek().map_or(u64::MAX, |&Reverse((due, _))| due)
    }

    /// Calls `emit(node, length)` once per message generated up to and
    /// including `cycle`, nodes in ascending order: the same calls, and
    /// the same draws from `rng`, as [`TrafficSource::poll`] on every
    /// node in turn.
    pub fn poll_due(
        &mut self,
        cycle: u64,
        rng: &mut dyn RngCore,
        mut emit: impl FnMut(usize, u32),
    ) {
        if cycle < self.next_due {
            return;
        }
        while let Some(&Reverse((due, node))) = self.heap.peek() {
            if due > cycle {
                break;
            }
            self.heap.pop();
            self.due.push(node);
        }
        self.due.sort_unstable();
        for &node in &self.due {
            self.source.poll(node, cycle, rng, |len| emit(node, len));
            if let Some(due) = self.source.next_due(node) {
                self.heap.push(Reverse((due, node)));
            }
        }
        self.due.clear();
        self.next_due = Self::earliest(&self.heap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use turnroute_rng::StdRng;

    #[test]
    fn rate_is_respected() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut src = PoissonSource::new(1, Some(50.0), LengthDistribution::Fixed(10), &mut rng);
        let mut count = 0u32;
        for cycle in 0..100_000u64 {
            src.poll(0, cycle, &mut rng, |_| count += 1);
        }
        // Expected 2000 messages; Poisson sd is ~45.
        assert!((1800..2200).contains(&count), "got {count}");
    }

    #[test]
    fn zero_rate_generates_nothing() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut src = PoissonSource::new(4, None, LengthDistribution::paper(), &mut rng);
        for cycle in 0..1000 {
            src.poll(2, cycle, &mut rng, |_| panic!("no messages at zero load"));
        }
    }

    #[test]
    fn bimodal_lengths_are_balanced() {
        let mut rng = StdRng::seed_from_u64(2);
        let src = PoissonSource::new(1, Some(1.0), LengthDistribution::paper(), &mut rng);
        let mut shorts = 0;
        for _ in 0..1000 {
            let l = src.sample_length(&mut rng);
            assert!(l == 10 || l == 200);
            if l == 10 {
                shorts += 1;
            }
        }
        assert!((420..580).contains(&shorts), "got {shorts}");
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = StdRng::seed_from_u64(3);
        let mean: f64 = (0..20_000).map(|_| exponential(&mut rng, 7.0)).sum::<f64>() / 20_000.0;
        assert!((mean - 7.0).abs() < 0.2, "got {mean}");
    }

    #[test]
    fn bursts_in_one_poll_are_possible() {
        // With a tiny mean, one poll spanning many cycles emits several
        // messages.
        let mut rng = StdRng::seed_from_u64(4);
        let mut src = PoissonSource::new(1, Some(0.5), LengthDistribution::Fixed(1), &mut rng);
        let mut count = 0;
        src.poll(0, 100, &mut rng, |_| count += 1);
        assert!(count > 50, "got {count}");
    }

    #[test]
    fn mmpp_long_run_rate_matches_poisson_mean() {
        // Mean inter-arrival 50 cycles over 200k cycles: expect ~4000
        // messages. MMPP clumps them, but the long-run mean must match.
        let mut src = MmppSource::new(
            1,
            Some(50.0),
            LengthDistribution::Fixed(10),
            400.0,
            1200.0,
            7,
        );
        let mut count = 0u32;
        for cycle in 0..200_000u64 {
            src.poll(0, cycle, |_| count += 1);
        }
        assert!((3400..4600).contains(&count), "got {count}");
    }

    #[test]
    fn mmpp_zero_rate_generates_nothing() {
        let mut src = MmppSource::new(4, None, LengthDistribution::paper(), 100.0, 100.0, 1);
        for cycle in 0..1000 {
            src.poll(2, cycle, |_| panic!("no messages at zero load"));
        }
    }

    #[test]
    fn mmpp_nodes_are_independent_streams() {
        // Polling other nodes (or not) must not perturb node 0's
        // arrivals — that independence is what makes the draws
        // shard-layout-invariant.
        let lengths = LengthDistribution::Bimodal { short: 3, long: 9 };
        let collect_node0 = |poll_others: bool| {
            let mut src = MmppSource::new(8, Some(20.0), lengths, 150.0, 450.0, 99);
            let mut seen = Vec::new();
            for cycle in 0..50_000u64 {
                if poll_others {
                    for node in 1..8 {
                        src.poll(node, cycle, |_| {});
                    }
                }
                src.poll(0, cycle, |len| seen.push((cycle, len)));
            }
            seen
        };
        let alone = collect_node0(false);
        let crowded = collect_node0(true);
        assert!(!alone.is_empty());
        assert_eq!(alone, crowded);
    }

    #[test]
    fn mmpp_arrivals_are_burstier_than_poisson() {
        // Dispersion test: with duty 0.2 the per-window message counts
        // must be overdispersed relative to Poisson (variance well
        // above mean).
        let mut src = MmppSource::new(
            1,
            Some(10.0),
            LengthDistribution::Fixed(1),
            500.0,
            2000.0,
            5,
        );
        const WINDOW: u64 = 200;
        let mut counts = Vec::new();
        let mut current = 0u64;
        for cycle in 0..400_000u64 {
            src.poll(0, cycle, |_| current += 1);
            if (cycle + 1) % WINDOW == 0 {
                counts.push(current as f64);
                current = 0;
            }
        }
        let n = counts.len() as f64;
        let mean = counts.iter().sum::<f64>() / n;
        let var = counts.iter().map(|c| (c - mean) * (c - mean)).sum::<f64>() / n;
        assert!(
            var > 2.0 * mean,
            "expected overdispersion, got mean {mean:.2} var {var:.2}"
        );
    }

    #[test]
    fn traffic_source_dispatches_on_the_config_model() {
        use crate::config::{SimConfig, TrafficModel};
        let base = SimConfig::paper().injection_rate(0.1).seed(11);
        let mut rng = StdRng::seed_from_u64(base.seed);
        let poisson = TrafficSource::for_config(16, &base, &mut rng);
        assert!(matches!(poisson, TrafficSource::Poisson(_)));
        let mmpp_cfg = base.clone().traffic(TrafficModel::Mmpp {
            burst_cycles: 100.0,
            idle_cycles: 300.0,
        });
        let mut rng2 = StdRng::seed_from_u64(mmpp_cfg.seed);
        let before = rng2.clone().next_u64();
        let mmpp = TrafficSource::for_config(16, &mmpp_cfg, &mut rng2);
        assert!(matches!(mmpp, TrafficSource::Mmpp(_)));
        // MMPP construction must not consume the shared stream.
        assert_eq!(rng2.next_u64(), before);
    }

    /// The `(cycle, node, length)` messages of a run and the next draws
    /// of its shared stream afterwards.
    type PollRun = (Vec<(u64, usize, u32)>, [u64; 4]);

    /// Runs `cycles` cycles of `config`'s traffic over `nodes` nodes
    /// twice — once polling every node every cycle, once through an
    /// [`ArrivalCalendar`] — with a shared-stream draw after each cycle
    /// standing in for the engine's destination draws. Returns both
    /// `(cycle, node, length)` sequences and the next few draws of each
    /// shared stream afterwards.
    fn calendar_vs_full_poll(nodes: usize, config: &SimConfig, cycles: u64) -> [PollRun; 2] {
        let tail = |rng: &mut StdRng| std::array::from_fn(|_| rng.next_u64());
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut source = TrafficSource::for_config(nodes, config, &mut rng);
        let mut full = Vec::new();
        for cycle in 0..cycles {
            for node in 0..nodes {
                source.poll(node, cycle, &mut rng, |len| full.push((cycle, node, len)));
            }
            rng.next_u64();
        }
        let full_tail = tail(&mut rng);

        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut calendar = ArrivalCalendar::new(TrafficSource::for_config(nodes, config, &mut rng));
        let mut popped = Vec::new();
        for cycle in 0..cycles {
            calendar.poll_due(cycle, &mut rng, |node, len| popped.push((cycle, node, len)));
            rng.next_u64();
        }
        let popped_tail = tail(&mut rng);
        [(full, full_tail), (popped, popped_tail)]
    }

    #[test]
    fn calendar_matches_polling_every_node() {
        let mmpp = TrafficModel::Mmpp {
            burst_cycles: 12.0,
            idle_cycles: 30.0,
        };
        let lengths = LengthDistribution::Bimodal { short: 3, long: 9 };
        for seed in [1, 7, 42, 0xDEAD_BEEF] {
            for traffic in [TrafficModel::Poisson, mmpp] {
                // Load 4 flits/node/cycle with lengths averaging 6
                // puts the mean inter-arrival at 1.5 cycles (0.5 while
                // an MMPP node is ON), so nodes emit several messages
                // in one cycle and share due cycles with each other;
                // 0.01 is sparse enough that most cycles pop nothing.
                for load in [4.0, 0.01] {
                    let config = SimConfig::paper()
                        .lengths(lengths)
                        .injection_rate(load)
                        .traffic(traffic)
                        .seed(seed);
                    let [(full, full_tail), (popped, popped_tail)] =
                        calendar_vs_full_poll(16, &config, 3_000);
                    assert!(!full.is_empty(), "seed {seed} {traffic:?} load {load}");
                    assert_eq!(popped, full, "seed {seed} {traffic:?} load {load}");
                    assert_eq!(popped_tail, full_tail, "seed {seed} {traffic:?}");
                    if load > 1.0 {
                        let same_cycle_node = full
                            .windows(2)
                            .any(|w| (w[0].0, w[0].1) == (w[1].0, w[1].1));
                        let same_cycle_nodes = full
                            .windows(2)
                            .any(|w| w[0].0 == w[1].0 && w[0].1 != w[1].1);
                        assert!(same_cycle_node && same_cycle_nodes, "{traffic:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn calendar_queues_nothing_at_zero_rate() {
        for traffic in [
            TrafficModel::Poisson,
            TrafficModel::Mmpp {
                burst_cycles: 5.0,
                idle_cycles: 5.0,
            },
        ] {
            let config = SimConfig::paper().injection_rate(0.0).traffic(traffic);
            assert_eq!(config.mean_interarrival_cycles(), None);
            let mut rng = StdRng::seed_from_u64(3);
            let calendar = ArrivalCalendar::new(TrafficSource::for_config(8, &config, &mut rng));
            assert!(calendar.heap.is_empty(), "{traffic:?}");
            let [(full, full_tail), (popped, popped_tail)] = calendar_vs_full_poll(8, &config, 500);
            assert!(full.is_empty() && popped.is_empty());
            assert_eq!(popped_tail, full_tail);
        }
    }

    #[test]
    #[should_panic(expected = "burst_cycles")]
    fn mmpp_rejects_nonpositive_sojourns() {
        MmppSource::new(1, Some(10.0), LengthDistribution::Fixed(1), 0.0, 10.0, 1);
    }
}
