//! `single_mesh64`: a serial `simulate` of a 64x64 mesh at a low,
//! sustainable load, repeated.
//!
//! With 4096 nodes and little traffic, the per-cycle O(nodes) work
//! dominates. The route table would need 4096² x 5 B ≈ 84 MB, over the
//! 64 MiB automatic budget, so every routing decision goes through
//! `RoutingAlgorithm::route`. There is one cell and no executor, so
//! neither cell parallelism nor the route table can hide engine costs.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use turnroute_core::RoutingAlgorithm;
use turnroute_experiment::cli::{parse_algorithm, parse_pattern, parse_topology};
use turnroute_sim::patterns::TrafficPattern;
use turnroute_sim::{
    Executor, LatencyHistogram, RouteTable, SeriesJob, SimConfig, SimReport, Simulation,
    SweepPoint, SweepSeries,
};
use turnroute_topology::Topology;

use crate::digest::{series_bytes, Pins};
use crate::outcome::Outcome;
use crate::probes::{CycleClock, TimedAlgorithm, TimedPattern};
use crate::stats::{Fit, Summary};
use crate::trace::Tracer;
use crate::{engine_metrics, panic_message};

/// The workload's name.
pub const NAME: &str = "single_mesh64";
/// The topology: 4096 nodes.
pub const TOPOLOGY: &str = "mesh:64x64";
/// The routing algorithm.
pub const ALGORITHM: &str = "west-first";
/// The traffic pattern.
pub const PATTERN: &str = "uniform";
/// Offered load, flits per cycle per node: sustainable on this mesh.
pub const LOAD: f64 = 0.01;
/// Warm-up cycles of each simulate.
pub const WARMUP: u64 = 1_000;
/// Measured cycles of each simulate (the drain follows).
pub const MEASURE: u64 = 3_000;
/// Simulation seeds the `--seed` argument chooses among; each has a
/// pinned report digest.
pub const SEEDS: [u64; 8] = [0x7453_1DE5, 3, 5, 7, 11, 13, 17, 19];
/// Simulates per run: the cold-latency sample needs 100 for its p90.
const MIN_PASSES: usize = 100;
/// Replays of the cell from the executor's cache after each simulate:
/// 100 simulates give 20000, enough for a p99.
const WARM_PER_PASS: usize = 200;
/// Untraced simulates whose median the traced one is compared with.
const REFERENCE_PASSES: usize = 5;

/// The resolved inputs of the workload.
pub struct Resolved {
    topo: Box<dyn Topology>,
    algo: Box<dyn RoutingAlgorithm>,
    pattern: Box<dyn TrafficPattern>,
}

/// Resolves the topology, algorithm and pattern from their spec names,
/// as `turnroute simulate` does.
pub fn resolve() -> Result<Resolved, String> {
    let topo = parse_topology(TOPOLOGY).map_err(|e| e.to_string())?;
    let algo = parse_algorithm(ALGORITHM, topo.as_ref()).map_err(|e| e.to_string())?;
    let pattern = parse_pattern(PATTERN).map_err(|e| e.to_string())?;
    Ok(Resolved {
        topo,
        algo,
        pattern,
    })
}

/// The configuration of one simulate with `seed`; default settings
/// otherwise (`shards` unset).
pub fn config(seed: u64) -> SimConfig {
    SimConfig::paper()
        .injection_rate(LOAD)
        .warmup_cycles(WARMUP)
        .measure_cycles(MEASURE)
        .seed(seed)
}

/// The canonical bytes of a report: its sweep point through the
/// repository's serializer, plus the run totals.
pub fn report_bytes(report: &SimReport, cycles: u64) -> Vec<u8> {
    let series = SweepSeries {
        algorithm: ALGORITHM.to_owned(),
        pattern: PATTERN.to_owned(),
        faults: 0,
        disconnected: 0,
        points: vec![SweepPoint::from_report(report)],
    };
    let mut out = series_bytes(&series);
    out.extend_from_slice(
        format!(
            "generated {} delivered {} cycles {}\n",
            report.total_generated, report.total_delivered, cycles
        )
        .as_bytes(),
    );
    out
}

/// The pin names of the direct run and of the executor's cell.
pub fn pin_names(seed_index: usize) -> (String, String) {
    (
        format!("{NAME}/s{seed_index}"),
        format!("{NAME}/s{seed_index}/cell"),
    )
}

/// One simulate: `(new + run seconds, run seconds, cycles, report bytes)`.
pub fn simulate(r: &Resolved, seed: u64) -> Result<(f64, f64, u64, Vec<u8>), String> {
    let started = Instant::now();
    let mut sim = Simulation::new(
        r.topo.as_ref(),
        r.algo.as_ref(),
        r.pattern.as_ref(),
        config(seed),
    );
    let ran = Instant::now();
    let report = catch_unwind(AssertUnwindSafe(|| sim.run()))
        .map_err(|p| format!("{NAME}: panic: {}", panic_message(&p)))?;
    let end = Instant::now();
    Ok((
        end.duration_since(started).as_secs_f64(),
        end.duration_since(ran).as_secs_f64(),
        sim.cycle(),
        report_bytes(&report, sim.cycle()),
    ))
}

/// The cell as the executor runs it: one series, one load.
fn cell_job<'a>(r: &'a Resolved, seed: u64) -> SeriesJob<'a> {
    SeriesJob::simulation(
        r.topo.as_ref(),
        r.algo.as_ref(),
        r.pattern.as_ref(),
        &config(seed),
        &[LOAD],
    )
}

/// Runs the cell through `executor` and returns its series bytes.
pub fn cell_bytes(r: &Resolved, seed: u64, executor: &mut Executor) -> Result<Vec<u8>, String> {
    catch_unwind(AssertUnwindSafe(|| executor.run(vec![cell_job(r, seed)])))
        .map_err(|p| format!("{NAME}: panic: {}", panic_message(&p)))
        .map(|series| series_bytes(&series[0]))
}

/// One set-up: resolving the names and building the simulation with
/// its route-table decision, as `turnroute simulate` does before its
/// first cycle. Returns its seconds and the resolved inputs.
fn setup(sim_seed: u64) -> (f64, Result<Resolved, String>) {
    let t = Instant::now();
    let r = resolve();
    if let Ok(r) = &r {
        let sim = Simulation::new(
            r.topo.as_ref(),
            r.algo.as_ref(),
            r.pattern.as_ref(),
            config(sim_seed),
        );
        std::hint::black_box(sim.cycle());
    }
    (t.elapsed().as_secs_f64(), r)
}

/// The untraced run: at least 100 simulates and about `seconds` of
/// them, each preceded by a set-up and followed by a batch of replays
/// of the cell from the executor's cache. Interleaving them makes every
/// statistic sample the whole run, whatever the host does meanwhile.
pub fn run(seed: u64, seconds: f64, pins: &Pins) -> Outcome {
    let mut out = Outcome::default();
    let seed_index = (seed % SEEDS.len() as u64) as usize;
    let sim_seed = SEEDS[seed_index];
    let (direct_pin, cell_pin) = pin_names(seed_index);
    let r = match setup(sim_seed).1 {
        Ok(r) => r,
        Err(e) => {
            out.op(Err(format!("{NAME}: did not resolve: {e}")));
            return out;
        }
    };
    let mut executor = Executor::new(1);
    out.op(cell_bytes(&r, sim_seed, &mut executor).and_then(|b| pins.check(&cell_pin, &b)));

    let started = Instant::now();
    let (mut setups, mut walls, mut rates, mut warm) = (vec![], vec![], vec![], vec![]);
    let mut passes = 0;
    while passes < MIN_PASSES || started.elapsed().as_secs_f64() < 0.85 * seconds {
        passes += 1;
        setups.push(setup(sim_seed).0);
        match simulate(&r, sim_seed) {
            Ok((wall, run, cycles, bytes)) => {
                walls.push(wall);
                rates.push(cycles as f64 / run);
                out.op(pins.check(&direct_pin, &bytes));
            }
            Err(e) => out.op(Err(e)),
        }
        // One untimed replay first: the simulate just freed megabytes,
        // and faulting the heap back in is not the replay's cost.
        out.op(cell_bytes(&r, sim_seed, &mut executor).and_then(|b| pins.check(&cell_pin, &b)));
        for _ in 0..WARM_PER_PASS {
            let t = Instant::now();
            let bytes = cell_bytes(&r, sim_seed, &mut executor);
            warm.push(t.elapsed().as_secs_f64());
            out.op(bytes.and_then(|b| pins.check(&cell_pin, &b)));
        }
    }
    out.set_median("setup_s", &setups);
    out.set_trimmed("wall_s", &walls);
    out.set_trimmed("sim_cycles_per_s", &rates);
    out.set_batched("cold_p50_s", &walls, 0.5);
    out.set_batched("cold_p90_s", &walls, 0.9);
    out.set_batched("warm_p50_s", &warm, 0.5);
    out.set_batched("warm_p99_s", &warm, 0.99);
    out.set("peak_rss_mb", crate::host::peak_rss_mib());
    out
}

/// The traced run: untraced reference simulates, then one with the
/// route-table decision, the engine, routing and traffic calls timed.
pub fn run_traced(seed: u64, pins: &Pins, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let seed_index = (seed % SEEDS.len() as u64) as usize;
    let sim_seed = SEEDS[seed_index];
    let (direct_pin, _) = pin_names(seed_index);
    let r = match tracer.span("experiment.resolve", None, NAME, |_| resolve()) {
        Ok(r) => r,
        Err(e) => {
            out.op(Err(format!("{NAME}: did not resolve: {e}")));
            return out;
        }
    };
    let mut reference = Vec::new();
    for _ in 0..REFERENCE_PASSES {
        match simulate(&r, sim_seed) {
            Ok((wall, _, _, bytes)) => {
                out.op(pins.check(&direct_pin, &bytes));
                reference.push(wall);
            }
            Err(e) => {
                out.op(Err(e));
                return out;
            }
        }
    }
    let reference = Summary::of(&reference).expect("reference passes").median;

    let algo = TimedAlgorithm::new(r.algo.as_ref());
    let pattern = TimedPattern::new(r.pattern.as_ref());
    let cfg = config(sim_seed);
    let started = Instant::now();
    let traced = catch_unwind(AssertUnwindSafe(|| {
        let table = tracer.span("lut.build", None, NAME, |_| {
            RouteTable::for_config_with_faults(r.topo.as_ref(), &algo, &cfg).0
        });
        if let Some(t) = &table {
            tracer.add("lut.tables", 1.0);
            tracer.add("lut.bytes", t.size_bytes() as f64);
        }
        let mut sim = tracer.span("engine.new", None, NAME, |_| {
            Simulation::with_observer_and_table(
                r.topo.as_ref(),
                &algo,
                &pattern,
                cfg.clone(),
                CycleClock::default(),
                table,
            )
        });
        let report = tracer.span("engine.run", None, NAME, |_| sim.run());
        let bytes = tracer.span("report.serialize", None, NAME, |_| {
            report_bytes(&report, sim.cycle())
        });
        (bytes, sim.packets().len(), sim.into_observer())
    }));
    let elapsed = started.elapsed().as_secs_f64();
    match traced {
        Ok((bytes, retained, clock)) => {
            tracer.add("report.bytes", bytes.len() as f64);
            out.op(pins.check(&direct_pin, &bytes));
            let (mut hist, mut fit) = (LatencyHistogram::default(), Fit::default());
            clock.flush(tracer, &mut hist, &mut fit);
            engine_metrics(&mut out, tracer, &hist, &fit, retained as f64);
        }
        Err(p) => out.op(Err(format!("{NAME}: panic: {}", panic_message(&p)))),
    }
    algo.route.flush(tracer, "core.route_calls", "core.route_s");
    pattern
        .dest
        .flush(tracer, "patterns.dest_calls", "patterns.dest_s");
    tracer.add("trace.overhead_frac", elapsed / reference - 1.0);
    if tracer.counter("lut.tables") != 0.0 {
        out.fail("sanity: single_mesh64 built a route table");
    }
    if tracer.counter("core.route_calls") <= 0.0 {
        out.fail("sanity: single_mesh64 made no live route() calls");
    }
    out
}
