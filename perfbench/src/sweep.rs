//! `sweep_mesh16`: the paper's Figures 13 and 14 plus extension X1 on
//! one 16x16 mesh, run the way a researcher runs them.
//!
//! The grid is {xy, west-first, north-last, negative-first} x {uniform,
//! transpose} on the wormhole engine, plus `mad-y` on transpose on the
//! virtual-channel engine, over ascending loads that run past
//! saturation, on an executor with one thread per core. Its work sits
//! in route-table builds (one per series), the executor's saturation
//! skip and speculative cells, and arbitration on a small, loaded mesh.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use turnroute_core::RoutingAlgorithm;
use turnroute_experiment::cli::{
    parse_algorithm, parse_pattern, parse_topology, parse_vc_algorithm,
};
use turnroute_experiment::{Engine, ExperimentSpec, SpecError};
use turnroute_sim::exec::sim_cache_key;
use turnroute_sim::patterns::TrafficPattern;
use turnroute_sim::report::write_report_json;
use turnroute_sim::{
    CellCache, CellOutput, Executor, LatencyHistogram, RouteTable, SeriesJob, SimConfig,
    Simulation, SweepSeries,
};
use turnroute_vc::VcSimulation;

use crate::digest::{series_bytes, Pins};
use crate::outcome::Outcome;
use crate::probes::{CycleClock, TimedAlgorithm, TimedPattern};
use crate::stats::{Fit, Summary};
use crate::trace::Tracer;
use crate::{engine_metrics, panic_message};

/// The workload's name.
pub const NAME: &str = "sweep_mesh16";
/// The mesh of Figures 13 and 14.
pub const TOPOLOGY: &str = "mesh:16x16";
/// The four turn-model algorithms of Figures 13 and 14.
pub const ALGORITHMS: [&str; 4] = ["xy", "west-first", "north-last", "negative-first"];
/// Offered loads, ascending past every series' saturation point.
pub const LOADS: &[f64] = &[0.01, 0.02, 0.04, 0.06, 0.08, 0.10, 0.12, 0.14, 0.18, 0.25];
/// Warm-up cycles per cell.
pub const WARMUP: u64 = 2_000;
/// Measured cycles per cell.
pub const MEASURE: u64 = 6_000;
/// Grid passes whose cells make the cold-latency sample (≥ 100 cells).
const MIN_PASSES: usize = 3;
/// Grid replays from the cell cache after each pass: one pass gives
/// enough for a p99.
const WARM_PER_PASS: usize = 1_000;
/// Set-ups measured before each pass; `setup_s` is their median.
const SETUP_PER_PASS: usize = 5;
/// Untraced passes whose median the traced pass is compared with.
const REFERENCE_PASSES: usize = 3;

/// The three specs of the grid, in an order chosen by `seed`: it rotates
/// the specs and the algorithms within them, which changes how the
/// executor schedules cells but not the work or any series' report.
/// Every seed simulates the same cells (the paper configuration's own
/// simulation seed), so run-to-run spread is the host's and the
/// program's, not the saturation points of different random streams.
pub fn specs(seed: u64) -> Result<Vec<ExperimentSpec>, SpecError> {
    let config = SimConfig::paper()
        .warmup_cycles(WARMUP)
        .measure_cycles(MEASURE);
    let mut algorithms = ALGORITHMS;
    algorithms.rotate_left((seed / 3 % 4) as usize);
    let mut out = Vec::new();
    for pattern in ["uniform", "transpose"] {
        let mut b = ExperimentSpec::builder(TOPOLOGY, pattern);
        for a in algorithms {
            b = b.algorithm(a);
        }
        out.push(b.loads(LOADS).config(config.clone()).build()?);
    }
    out.push(
        ExperimentSpec::builder(TOPOLOGY, "transpose")
            .algorithm("mad-y")
            .loads(LOADS)
            .config(config)
            .engine(Engine::VirtualChannel)
            .build()?,
    );
    out.rotate_left((seed % 3) as usize);
    Ok(out)
}

/// The pin name of one series.
pub fn pin_name(spec: &ExperimentSpec, series: &SweepSeries) -> String {
    format!(
        "{NAME}/{}/{}/{}",
        spec.engine.as_str(),
        series.pattern,
        series.algorithm
    )
}

/// Runs the grid once on `executor`; returns the series per spec, or
/// the error or panic that stopped a spec.
pub fn run_grid(
    specs: &[ExperimentSpec],
    executor: &mut Executor,
    mut after_spec: impl FnMut(&Executor),
) -> Vec<Result<Vec<SweepSeries>, String>> {
    specs
        .iter()
        .map(|spec| {
            let r = catch_unwind(AssertUnwindSafe(|| spec.run_on(executor)));
            after_spec(executor);
            match r {
                Ok(Ok(series)) => Ok(series),
                Ok(Err(e)) => Err(e.to_string()),
                Err(p) => Err(format!("panic: {}", panic_message(&p))),
            }
        })
        .collect()
}

/// Checks every series of a grid pass against its pin; one operation
/// per spec.
fn check_grid(
    out: &mut Outcome,
    pins: &Pins,
    specs: &[ExperimentSpec],
    results: &[Result<Vec<SweepSeries>, String>],
) {
    for (spec, r) in specs.iter().zip(results) {
        out.op(match r {
            Err(e) => Err(format!("{NAME}: {e}")),
            Ok(series) => series
                .iter()
                .try_for_each(|s| pins.check(&pin_name(spec, s), &series_bytes(s))),
        });
    }
}

/// One cold grid pass: wall seconds, per-cell seconds, window cycles
/// simulated, and the filled cell cache.
struct Pass {
    wall: f64,
    cells: Vec<f64>,
    window_cycles: u64,
    cache: CellCache,
}

fn cold_pass(out: &mut Outcome, pins: &Pins, specs: &[ExperimentSpec]) -> Pass {
    let mut executor = Executor::new(crate::host::nproc());
    let mut cells = Vec::new();
    let mut emitted = 0u64;
    let started = Instant::now();
    let results = run_grid(specs, &mut executor, |ex| {
        for c in ex.telemetry().cells.iter().filter(|c| !c.from_cache) {
            cells.push(c.wall_secs);
            emitted += 1;
        }
    });
    let wall = started.elapsed().as_secs_f64();
    check_grid(out, pins, specs, &results);
    Pass {
        wall,
        cells,
        window_cycles: emitted * (WARMUP + MEASURE),
        cache: executor.into_cache(),
    }
}

/// One set-up: resolving the three specs and starting an executor,
/// everything before the grid's first cell. Returns its seconds.
fn setup(seed: u64) -> f64 {
    let t = Instant::now();
    let specs = specs(seed);
    let executor = Executor::new(crate::host::nproc());
    std::hint::black_box((&specs, &executor));
    t.elapsed().as_secs_f64()
}

/// The untraced run: an untimed warm-up pass, then cold grid passes for
/// about `seconds` (at least three), each preceded by set-ups and
/// followed by a batch of replays of the whole grid from the warm-up
/// pass's cell cache. Interleaving them makes every statistic sample the
/// whole run, whatever the host does meanwhile.
pub fn run(seed: u64, seconds: f64, pins: &Pins) -> Outcome {
    let mut out = Outcome::default();
    let specs = match specs(seed) {
        Ok(s) => s,
        Err(e) => {
            out.op(Err(format!("{NAME}: spec did not resolve: {e}")));
            return out;
        }
    };
    let started = Instant::now();
    let (mut setups, mut walls, mut rates, mut cells, mut warm, mut peaks) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    let rss = crate::host::RssSampler::start();
    // With every cell cached there is nothing to run in parallel, and
    // starting `nproc` worker threads per spec would dominate the replay
    // (and its tail) with thread start-up: replay on one thread.
    let mut replay = Executor::new(1).with_cache(cold_pass(&mut out, pins, &specs).cache);
    while walls.len() < MIN_PASSES || started.elapsed().as_secs_f64() < 0.85 * seconds {
        setups.extend((0..SETUP_PER_PASS).map(|_| setup(seed)));
        let pass = cold_pass(&mut out, pins, &specs);
        walls.push(pass.wall);
        rates.push(pass.window_cycles as f64 / pass.wall);
        cells.extend(pass.cells);
        peaks.push(rss.take_peak_mib());
        // One untimed replay first: the cold pass just freed megabytes,
        // and faulting the heap back in is not the replay's cost.
        check_grid(&mut out, pins, &specs, &run_grid(&specs, &mut replay, |_| {}));
        for _ in 0..WARM_PER_PASS {
            let t = Instant::now();
            let results = run_grid(&specs, &mut replay, |_| {});
            warm.push(t.elapsed().as_secs_f64());
            check_grid(&mut out, pins, &specs, &results);
        }
    }
    out.set_median("setup_s", &setups);
    out.set_trimmed("wall_s", &walls);
    out.set_trimmed("sim_cycles_per_s", &rates);
    out.set_batched("cold_p50_s", &cells, 0.5);
    out.set_batched("cold_p90_s", &cells, 0.9);
    out.set_batched("warm_p50_s", &warm, 0.5);
    out.set_batched("warm_p99_s", &warm, 0.99);
    out.set_trimmed("peak_rss_mb", &peaks);
    out
}

/// Engine-side probe totals shared by the traced cells.
#[derive(Default)]
struct Probe {
    cycles: LatencyHistogram,
    fit: Fit,
    retained: f64,
}

/// The traced run: untraced reference passes, then one pass with
/// every layer call timed from here. Reports per-layer metrics, the
/// tracing overhead, and checks the same pins.
pub fn run_traced(seed: u64, pins: &Pins, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let specs = match specs(seed) {
        Ok(s) => s,
        Err(e) => {
            out.op(Err(format!("{NAME}: spec did not resolve: {e}")));
            return out;
        }
    };
    let reference: Vec<f64> = (0..REFERENCE_PASSES)
        .map(|_| cold_pass(&mut out, pins, &specs).wall)
        .collect();
    let reference = Summary::of(&reference).expect("reference passes").median;

    let threads = crate::host::nproc();
    let probe = Mutex::new(Probe::default());
    let started = Instant::now();
    for spec in &specs {
        let group = format!("{}-{}", spec.engine.as_str(), spec.pattern);
        let r = catch_unwind(AssertUnwindSafe(|| {
            traced_spec(spec, threads, &group, tracer, &probe)
        }));
        let r = match r {
            Ok(r) => r,
            Err(p) => Err(format!("panic: {}", panic_message(&p))),
        };
        out.op(r.and_then(|series| {
            series
                .iter()
                .try_for_each(|s| pins.check(&pin_name(spec, s), &series_bytes(s)))
        }));
    }
    let traced = started.elapsed().as_secs_f64();
    tracer.add("trace.overhead_frac", traced / reference - 1.0);

    let probe = probe.into_inner().expect("probe poisoned");
    engine_metrics(&mut out, tracer, &probe.cycles, &probe.fit, probe.retained);
    exec_metrics(&mut out, tracer, threads);
    if tracer.counter("lut.tables") < 4.0 {
        out.fail("sanity: sweep_mesh16 built fewer than 4 route tables");
    }
    if tracer.counter("exec.cells_skipped") <= 0.0 {
        out.fail("sanity: sweep_mesh16 skipped no saturated cells");
    }
    out
}

/// Fills the `exec.*` metrics from the executor spans and counters.
fn exec_metrics(out: &mut Outcome, tracer: &Tracer, threads: usize) {
    let cells = tracer.durations("exec.cell");
    let busy: f64 = cells.iter().sum();
    let simulated = tracer.counter("exec.cells_simulated");
    let emitted_simulated = tracer.counter("exec.emitted_simulated");
    out.set("exec.busy_s", busy);
    out.set(
        "exec.idle_s",
        (threads as f64 * tracer.total("exec.run") - busy).max(0.0),
    );
    out.set("exec.cell_max_s", cells.iter().copied().fold(0.0, f64::max));
    out.set(
        "exec.waste_frac",
        if simulated > 0.0 {
            (simulated - emitted_simulated) / simulated
        } else {
            0.0
        },
    );
}

/// Resolves and runs one spec with every layer call timed; mirrors
/// `Experiment::run_on` for fault-free specs.
fn traced_spec(
    spec: &ExperimentSpec,
    threads: usize,
    group: &str,
    tracer: &Tracer,
    probe: &Mutex<Probe>,
) -> Result<Vec<SweepSeries>, String> {
    let resolve = || -> Result<_, String> {
        let topo = parse_topology(&spec.topology).map_err(|e| e.to_string())?;
        let pattern = parse_pattern(&spec.pattern).map_err(|e| e.to_string())?;
        Ok((topo, pattern))
    };
    let (topo, pattern) = tracer.span("experiment.resolve", None, group, |_| resolve())?;
    let timed_pattern = TimedPattern::new(pattern.as_ref());
    let config = spec.config.clone().shards(1);
    let mut executor = Executor::new(threads);
    let series = match spec.engine {
        Engine::Wormhole => {
            let algos = tracer.span("experiment.resolve", None, group, |_| {
                spec.algorithms
                    .iter()
                    .map(|a| parse_algorithm(&a.name, topo.as_ref()))
                    .collect::<Result<Vec<_>, _>>()
            });
            let algos = algos.map_err(|e| e.to_string())?;
            let timed: Vec<TimedAlgorithm<'_>> = algos
                .iter()
                .map(|a| TimedAlgorithm::new(a.as_ref()))
                .collect();
            let series = tracer.span("exec.run", None, group, |run| {
                let jobs = timed
                    .iter()
                    .map(|a| {
                        wormhole_job(
                            topo.as_ref(),
                            a,
                            &timed_pattern,
                            &config,
                            spec,
                            run,
                            group,
                            tracer,
                            probe,
                        )
                    })
                    .collect();
                executor.run(jobs)
            });
            for a in &timed {
                a.route.flush(tracer, "core.route_calls", "core.route_s");
            }
            series
        }
        Engine::VirtualChannel => {
            let algos = tracer.span("experiment.resolve", None, group, |_| {
                spec.algorithms
                    .iter()
                    .map(|a| parse_vc_algorithm(&a.name, topo.as_ref()))
                    .collect::<Result<Vec<_>, _>>()
            });
            let algos = algos.map_err(|e| e.to_string())?;
            tracer.span("exec.run", None, group, |run| {
                let jobs = algos
                    .iter()
                    .map(|a| {
                        let (topo, pattern, config) =
                            (topo.as_ref(), &timed_pattern, config.clone());
                        let key = sim_cache_key(
                            format!("vc:{}", topo.label()),
                            &a.name(),
                            &pattern.name(),
                            &config,
                        );
                        SeriesJob::new(
                            a.name(),
                            pattern.name(),
                            key,
                            config.seed,
                            &spec.loads,
                            move |load, seed| {
                                tracer.span("exec.cell", Some(run), group, |cell| {
                                    let cfg = config.clone().injection_rate(load).seed(seed);
                                    let report = tracer.span("vc.run", Some(cell), group, |_| {
                                        VcSimulation::new(topo, a.as_ref(), pattern, cfg).run()
                                    });
                                    tracer.add("vc.cells", 1.0);
                                    CellOutput::from_report(&report)
                                })
                            },
                        )
                    })
                    .collect();
                executor.run(jobs)
            })
        }
    };
    timed_pattern
        .dest
        .flush(tracer, "patterns.dest_calls", "patterns.dest_s");
    let stats = executor.stats();
    tracer.add("exec.cells_simulated", stats.simulated as f64);
    tracer.add("exec.emitted_simulated", stats.emitted_simulated as f64);
    tracer.add(
        "exec.cells_emitted",
        (stats.emitted_simulated + stats.emitted_from_cache) as f64,
    );
    tracer.add("exec.cells_skipped", stats.skipped as f64);
    let bytes = tracer.span("report.serialize", None, group, |_| {
        let mut body = Vec::new();
        write_report_json(&series, &stats, &mut body).expect("writing to a Vec cannot fail");
        body.len()
    });
    tracer.add("report.bytes", bytes as f64);
    Ok(series)
}

/// A wormhole series job whose cells time the route-table build, the
/// engine's construction and its run, mirroring `SeriesJob::simulation`.
#[allow(clippy::too_many_arguments)]
fn wormhole_job<'a>(
    topo: &'a dyn turnroute_topology::Topology,
    algo: &'a TimedAlgorithm<'a>,
    pattern: &'a TimedPattern<'a>,
    config: &SimConfig,
    spec: &ExperimentSpec,
    run: u64,
    group: &'a str,
    tracer: &'a Tracer,
    probe: &'a Mutex<Probe>,
) -> SeriesJob<'a> {
    let config = config.clone();
    let key = sim_cache_key(topo.label(), &algo.name(), &pattern.name(), &config);
    let table = OnceLock::new();
    SeriesJob::new(
        algo.name(),
        pattern.name(),
        key,
        config.seed,
        &spec.loads,
        move |load, seed| {
            tracer.span("exec.cell", Some(run), group, |cell| {
                let table = table
                    .get_or_init(|| {
                        tracer.span("lut.build", Some(cell), group, |_| {
                            let t = RouteTable::for_config_with_faults(topo, algo, &config).0;
                            if let Some(t) = &t {
                                tracer.add("lut.tables", 1.0);
                                tracer.add("lut.bytes", t.size_bytes() as f64);
                            }
                            t
                        })
                    })
                    .clone();
                let cfg = config.clone().injection_rate(load).seed(seed);
                let mut sim = tracer.span("engine.new", Some(cell), group, |_| {
                    Simulation::with_observer_and_table(
                        topo,
                        algo,
                        pattern,
                        cfg,
                        CycleClock::default(),
                        table,
                    )
                });
                let report = tracer.span("engine.run", Some(cell), group, |_| sim.run());
                let retained = sim.packets().len() as f64;
                let clock = sim.into_observer();
                let mut p = probe.lock().expect("probe poisoned");
                let Probe {
                    cycles,
                    fit,
                    retained: max_retained,
                } = &mut *p;
                clock.flush(tracer, cycles, fit);
                *max_retained = max_retained.max(retained);
                CellOutput::from_report(&report)
            })
        },
    )
}
