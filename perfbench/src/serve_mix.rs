//! `serve_mix`: an in-process `turnroute-serve` on a fresh result
//! store, driven by an open-loop client of two generator threads.
//!
//! No production job log exists, so the mix is assumed, drawn from the
//! EXPERIMENTS.md recipes X7-X10: cold small mesh sweeps with distinct
//! seeds, `dragonfly:4,4` with a synthesized turn model, bursty `mmpp`
//! arrivals and fault-axis sweeps; warm repeats of completed specs; and
//! duplicates of in-flight specs, which coalesce. This is the only
//! workload that reaches spec parsing and fingerprinting, the job
//! queue, the store, report serialization, synthesis and fault plans.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use turnroute_experiment::cli::{parse_algorithm, parse_pattern, parse_topology};
use turnroute_experiment::json::{self, Value as Json};
use turnroute_experiment::ExperimentSpec;
use turnroute_fault::{verify, FaultPlan};
use turnroute_rng::{Rng, StdRng};
use turnroute_serve::{client, ServeOptions, Server, ServerHandle};
use turnroute_sim::report::write_report_json;
use turnroute_sim::{Executor, Logger, SimConfig, TrafficModel};

use crate::client::{backlog_grew, run_open_loop, ClientReport, HttpService, Request, Timing};
use crate::digest::Pins;
use crate::outcome::Outcome;
use crate::stats::percentile;
use crate::trace::Tracer;

/// The workload's name.
pub const NAME: &str = "serve_mix";
/// Mesh sweeps in the pool.
const POOL_MESH: usize = 1_090;
/// Synthesized-routing specs in the pool.
const POOL_SYNTH: usize = 2;
/// Specs of each other kind (mmpp, fault axis) in the pool.
const POOL_OTHER: usize = 4;
/// Executor threads of the server's single job runner; the generator
/// threads, mostly asleep, share the other core of a two-core host.
const SERVER_THREADS: usize = 1;
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 200;
/// Seconds of the untimed mix each run sends to a server of its own
/// before the measured one, so that the measured mix does not start on
/// a host that has been idle.
const WARMUP_S: f64 = 5.0;
/// Cold specs due per second of the run (at most the whole pool).
const COLD_PER_S: f64 = 20.0;
/// Warm repeats due per second of the run.
const WARM_PER_S: f64 = 300.0;
/// Engine jobs the CLI path recomputes to cross-check the server.
const CROSS_CHECKS: usize = 8;

/// One spec of the pool.
#[derive(Debug, Clone)]
pub struct MixSpec {
    /// Pin name.
    pub name: String,
    /// The spec document as submitted.
    pub json: String,
    /// Warm-up plus measured cycles of each of its cells.
    pub window: u64,
}

fn mix_spec(
    name: String,
    b: turnroute_experiment::ExperimentSpecBuilder,
    config: SimConfig,
) -> MixSpec {
    let window = config.warmup_cycles + config.measure_cycles;
    let spec = b.config(config).build().expect("a pool spec resolves");
    MixSpec {
        name,
        json: spec.to_json(),
        window,
    }
}

/// Every spec the mix can submit, each with a pinned digest. Each is one
/// to three cells of 2000 cycles, so a job takes a few milliseconds and
/// the runner stays mostly idle: cold latency is the job's own time, not
/// how jobs happened to queue behind one another.
pub fn pool() -> Vec<MixSpec> {
    let small = |w, m, seed| {
        SimConfig::paper()
            .warmup_cycles(w)
            .measure_cycles(m)
            .seed(seed)
    };
    let mut out = Vec::new();
    for k in 0..POOL_MESH {
        let pattern = if k % 2 == 0 { "uniform" } else { "transpose" };
        let algorithm = if k % 4 < 2 { "xy" } else { "west-first" };
        let b = ExperimentSpec::builder("mesh:8x8", pattern)
            .algorithm(algorithm)
            .loads(&[0.05]);
        out.push(mix_spec(
            format!("{NAME}/mesh/{k}"),
            b,
            small(500, 1_500, 1_000 + k as u64),
        ));
    }
    for k in 0..POOL_SYNTH as u64 {
        let b = ExperimentSpec::builder("dragonfly:4,4", "uniform")
            .algorithm(format!("synth:{k}"))
            .loads(&[0.05]);
        out.push(mix_spec(
            format!("{NAME}/synth/{k}"),
            b,
            small(500, 1_500, 2_000 + k),
        ));
    }
    for k in 0..POOL_OTHER as u64 {
        let b = ExperimentSpec::builder("mesh:8x8", "transpose")
            .algorithm("west-first")
            .loads(&[0.04]);
        let cfg = small(500, 1_500, 3_000 + k).traffic(TrafficModel::Mmpp {
            burst_cycles: 24.0,
            idle_cycles: 72.0,
        });
        out.push(mix_spec(format!("{NAME}/mmpp/{k}"), b, cfg));
        let b = ExperimentSpec::builder("mesh:8x8", "uniform")
            .algorithm("west-first")
            .loads(&[0.05])
            .fault_axis(&[0, 2, 4])
            .fault_seed(k);
        out.push(mix_spec(
            format!("{NAME}/fault/{k}"),
            b,
            small(500, 1_500, 4_000 + k),
        ));
    }
    out
}

/// How many requests of each kind one mix sends.
#[derive(Debug, Clone, Copy)]
pub struct MixSize {
    /// Distinct specs submitted cold.
    pub cold: usize,
    /// Repeats of earlier specs.
    pub warm: usize,
    /// Chance that a cold submission is followed by a duplicate.
    pub dup: f64,
}

impl MixSize {
    /// The size the benchmark runs for `seconds`: 20 cold specs and 300
    /// warm repeats due per second. From 55 s on every pool spec is sent
    /// cold once, so seeds change the order and timing but not the set;
    /// shorter runs send a seeded subset. At 55 s the cold results
    /// (duplicates included) fill about 14 batches of 100 for the cold
    /// p90, the store hits 16 of 1000 for the warm p99.
    pub fn for_seconds(seconds: f64) -> MixSize {
        MixSize {
            cold: ((COLD_PER_S * seconds).round() as usize).min(POOL_LEN),
            warm: (WARM_PER_S * seconds).round() as usize,
            dup: 0.35,
        }
    }
}

/// Specs in the pool.
const POOL_LEN: usize = POOL_MESH + POOL_SYNTH + 2 * POOL_OTHER;

/// The schedule of one mix over `seconds`, from `seed`: cold arrivals
/// uniform over the run (a Poisson process given its count), each
/// possibly followed within 2 ms by a duplicate, and warm repeats of
/// specs due at least a second earlier. `repeatable` says which pool
/// specs may be sent more than once. Returns the pool indices used cold
/// and the requests sorted by due time.
pub fn schedule(
    seed: u64,
    seconds: f64,
    size: MixSize,
    repeatable: &[bool],
) -> (Vec<usize>, Vec<Request>) {
    let pool_len = repeatable.len();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E7E_4D1C);
    let mut order: Vec<usize> = (0..pool_len).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.random_range(0..=i));
    }
    let cold_specs: Vec<usize> = order.into_iter().take(size.cold.min(pool_len)).collect();
    let mut cold_due: Vec<f64> = (0..cold_specs.len())
        .map(|_| rng.random_range(0.0..seconds))
        .collect();
    cold_due.sort_by(f64::total_cmp);
    let mut reqs = Vec::new();
    for (&spec, &due) in cold_specs.iter().zip(&cold_due) {
        reqs.push(Request { due, spec });
        if rng.random_bool(size.dup) && repeatable[spec] {
            reqs.push(Request {
                due: due + rng.random_range(0.000_2..0.002),
                spec,
            });
        }
    }
    let warm_from = (0.15 * seconds).min(seconds);
    for _ in 0..size.warm {
        let due = if warm_from < seconds {
            rng.random_range(warm_from..seconds)
        } else {
            seconds
        };
        let done_by = cold_due.partition_point(|&d| d <= due - 1.0);
        let eligible: Vec<usize> = cold_specs
            .iter()
            .copied()
            .enumerate()
            .filter(|&(i, s)| (i < done_by || i == 0) && repeatable[s])
            .map(|(_, s)| s)
            .collect();
        let Some(&spec) = eligible.get(rng.random_range(0..eligible.len().max(1))) else {
            continue;
        };
        reqs.push(Request { due, spec });
    }
    reqs.sort_by(|a, b| a.due.total_cmp(&b.due));
    (cold_specs, reqs)
}

/// Which pool specs may be sent more than once (duplicated or repeated
/// warm): all but the synthesized ones. The server re-synthesizes the
/// turn model while validating every submission, duplicates and store
/// hits included, which holds a generator's connection for milliseconds
/// and would make it run late.
pub fn repeatable(pool: &[MixSpec]) -> Vec<bool> {
    pool.iter().map(|s| !s.name.contains("/synth/")).collect()
}

/// Splits a schedule into two streams, each sent by a generator thread
/// of its own: first submissions of a spec with their duplicates, and
/// repeats of specs first due at least half a second earlier. With one
/// generator, every repeat due while a cold submission is answered
/// (milliseconds, while the job runner takes the CPU) waited for it, and
/// the warm tail measured the generator rather than the server.
pub fn streams(reqs: &[Request]) -> (Vec<Request>, Vec<Request>) {
    let mut first: BTreeMap<usize, f64> = BTreeMap::new();
    reqs.iter().partition(|r| {
        let first_due = *first.entry(r.spec).or_insert(r.due);
        r.due - first_due < 0.5
    })
}

/// The directory a server's store lives in for one mix.
fn store_dir(work: &Path, tag: &str) -> PathBuf {
    work.join(format!("store-{}-{tag}", std::process::id()))
}

fn start(dir: &Path) -> Result<ServerHandle, String> {
    Server::start(
        "127.0.0.1:0",
        ServeOptions {
            store_dir: dir.to_path_buf(),
            threads: SERVER_THREADS,
            logger: Logger::disabled(),
        },
    )
    .map_err(|e| format!("{NAME}: server did not start: {e}"))
}

/// Shuts the server down, giving up after ten seconds (a wedged runner
/// must not hang the benchmark), and removes its store.
fn stop(handle: ServerHandle, dir: &Path) -> Result<(), String> {
    let (tx, rx) = mpsc::channel();
    let t = std::thread::spawn(move || {
        handle.shutdown();
        let _ = tx.send(());
    });
    let stopped = rx.recv_timeout(Duration::from_secs(10)).is_ok();
    if stopped {
        let _ = t.join();
    }
    let _ = std::fs::remove_dir_all(dir);
    stopped
        .then_some(())
        .ok_or_else(|| format!("{NAME}: server did not shut down within 10 s"))
}

/// A value from the Prometheus text of `/v1/metrics`.
fn scrape(text: &str, family: &str) -> f64 {
    text.lines()
        .find_map(|l| {
            l.strip_prefix(family)?
                .strip_prefix(' ')?
                .trim()
                .parse()
                .ok()
        })
        .unwrap_or(0.0)
}

/// The executor counters of a report.
fn executor_counts(body: &[u8]) -> (f64, f64, f64) {
    let doc = json::parse(&String::from_utf8_lossy(body)).ok();
    let get = |k: &str| {
        doc.as_ref()
            .and_then(|d| d.get("executor"))
            .and_then(|e| e.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    (
        get("emitted_simulated"),
        get("emitted_from_cache"),
        get("skipped"),
    )
}

/// One mix against a fresh server: the client's report plus the
/// server's `/v1/metrics` and `/v1/cache/stats` at the end.
struct Mix {
    client: ClientReport,
    metrics: String,
    cache_stats: Json,
}

fn run_mix(
    work: &Path,
    tag: &str,
    pool: &[MixSpec],
    reqs: &[Request],
    pins: &Pins,
    tracer: Option<&Tracer>,
    out: &mut Outcome,
) -> Option<Mix> {
    let dir = store_dir(work, tag);
    let _ = std::fs::remove_dir_all(&dir);
    let handle = match start(&dir) {
        Ok(h) => h,
        Err(e) => {
            out.op(Err(e));
            return None;
        }
    };
    let addr = handle.addr().to_string();
    let specs: Vec<String> = pool.iter().map(|s| s.json.clone()).collect();
    let check = |i: usize, body: &[u8]| pins.check(&pool[i].name, body);
    let (fresh, repeats) = streams(reqs);
    let generate = |stream: &[Request]| {
        let mut service = HttpService::new(addr.clone());
        run_open_loop(
            &mut service,
            &specs,
            stream,
            &check,
            Timing::default(),
            tracer,
        )
    };
    let rep = std::thread::scope(|s| {
        let warm = s.spawn(|| generate(&repeats));
        let rep = generate(&fresh);
        match warm.join() {
            Ok(warm) => rep.merge(warm),
            Err(p) => {
                let mut rep = rep;
                rep.attempted += 1;
                rep.failures.push(format!(
                    "{NAME}: the repeat generator panicked: {}",
                    crate::panic_message(&p)
                ));
                rep
            }
        }
    });
    let metrics = client::metrics(&addr)
        .map(|(_, b)| String::from_utf8_lossy(&b).into_owned())
        .unwrap_or_default();
    let cache_stats = client::cache_stats(&addr)
        .ok()
        .and_then(|(_, b)| json::parse(&String::from_utf8_lossy(&b)).ok())
        .unwrap_or(Json::Null);
    out.attempted += rep.attempted;
    for f in &rep.failures {
        out.fail(f.clone());
    }
    if backlog_grew(&rep.backlog) {
        out.op(Err(format!("{NAME}: the job backlog grew over the run")));
    }
    if let Err(e) = stop(handle, &dir) {
        out.op(Err(e));
    }
    Some(Mix {
        client: rep,
        metrics,
        cache_stats,
    })
}

/// Simulated window cycles of the engine jobs ÷ the server's job time.
fn cycles_per_s(mix: &Mix, pool: &[MixSpec]) -> f64 {
    let cycles: f64 = mix
        .client
        .cold_bodies
        .iter()
        .map(|(&i, b)| executor_counts(b).0 * pool[i].window as f64)
        .sum();
    cycles / scrape(&mix.metrics, "turnroute_job_duration_seconds_sum")
}

/// The untraced run.
pub fn run(seed: u64, seconds: f64, pins: &Pins) -> Outcome {
    let size = MixSize::for_seconds(seconds);
    run_in(Path::new("perfbench/out"), seed, seconds, size, pins)
}

/// Seconds of each `Server::start` on an empty store, for set-ups
/// numbered `reps`. The store's directory exists beforehand, as when a
/// server restarts on an empty store, so that the figure is the server's
/// start-up rather than a directory creation on a shared disk.
fn setup_reps(work: &Path, reps: std::ops::Range<usize>, out: &mut Outcome) -> Vec<f64> {
    let mut secs = Vec::new();
    for i in reps {
        let dir = store_dir(work, &format!("setup{i}"));
        let _ = std::fs::remove_dir_all(&dir);
        if let Err(e) = std::fs::create_dir_all(&dir) {
            out.op(Err(format!("{NAME}: {}: {e}", dir.display())));
            continue;
        }
        let t = Instant::now();
        let started = start(&dir);
        let elapsed = t.elapsed().as_secs_f64();
        match started {
            Ok(h) => {
                secs.push(elapsed);
                if let Err(e) = stop(h, &dir) {
                    out.op(Err(e));
                }
            }
            Err(e) => out.op(Err(e)),
        }
    }
    secs
}

/// The untimed warm-up mix; its results are checked like any other.
fn warm_up(work: &Path, seed: u64, pool: &[MixSpec], pins: &Pins, out: &mut Outcome) {
    let size = MixSize::for_seconds(WARMUP_S);
    let (_, reqs) = schedule(!seed, WARMUP_S, size, &repeatable(pool));
    run_mix(work, "warmup", pool, &reqs, pins, None, out);
}

/// The untraced run with its stores under `work`.
pub fn run_in(work: &Path, seed: u64, seconds: f64, size: MixSize, pins: &Pins) -> Outcome {
    let mut out = Outcome::default();
    let pool = pool();
    warm_up(work, seed, &pool, pins, &mut out);
    let setups = setup_reps(work, 0..SETUP_REPS, &mut out);
    let (_, reqs) = schedule(seed, seconds, size, &repeatable(&pool));
    let mix = run_mix(work, "mix", &pool, &reqs, pins, None, &mut out);
    out.set_median("setup_s", &setups);
    let Some(mix) = mix else {
        return out;
    };
    let c = &mix.client;
    out.set("wall_s", c.wall);
    out.set("sim_cycles_per_s", cycles_per_s(&mix, &pool));
    out.set_batched("cold_p50_s", &c.cold, 0.5);
    out.set_batched("cold_p90_s", &c.cold, 0.9);
    out.set_batched("warm_p50_s", &c.warm, 0.5);
    out.set_batched("warm_p99_s", &c.warm, 0.99);
    out.set("peak_rss_mb", crate::host::peak_rss_mib());
    out
}

/// The traced run. Its untraced reference mix and its traced mix share
/// the run's `seconds`, so that it takes about as long as an untraced
/// run.
pub fn run_traced(seed: u64, seconds: f64, pins: &Pins, tracer: &Tracer) -> Outcome {
    let half = seconds / 2.0;
    run_traced_in(
        Path::new("perfbench/out"),
        seed,
        half,
        MixSize::for_seconds(half),
        pins,
        tracer,
    )
}

/// The traced run with its stores under `work`: times the experiment,
/// synthesis and fault layers on each cold spec, runs an untraced
/// reference mix and a traced one, and recomputes a few engine jobs
/// through the command line's path to compare bytes with the server's.
pub fn run_traced_in(
    work: &Path,
    seed: u64,
    seconds: f64,
    size: MixSize,
    pins: &Pins,
    tracer: &Tracer,
) -> Outcome {
    let mut out = Outcome::default();
    let pool = pool();
    let (cold, reqs) = schedule(seed, seconds, size, &repeatable(&pool));
    for &i in &cold {
        out.op(time_layers(&pool[i], tracer));
    }

    warm_up(work, seed, &pool, pins, &mut out);
    let reference = run_mix(work, "ref", &pool, &reqs, pins, None, &mut out);
    let traced = run_mix(work, "traced", &pool, &reqs, pins, Some(tracer), &mut out);
    let (Some(reference), Some(mix)) = (reference, traced) else {
        return out;
    };
    let c = &mix.client;
    // Tracing here is client-side, so it shows in per-request latency;
    // the warm median has the most samples.
    let p50 = |v: &[f64]| percentile(v, 0.5).unwrap_or(f64::NAN);
    tracer.add(
        "trace.overhead_frac",
        p50(&c.warm) / p50(&reference.client.warm) - 1.0,
    );

    let median = |v: &[f64]| crate::stats::Summary::of(v).map_or(0.0, |s| s.median);
    out.set("serve.submit_s", median(&c.submit_s));
    out.set("serve.fetch_s", median(&c.fetch_s));
    out.set("serve.status_polls", c.status_polls as f64);
    out.set("serve.coalesced", c.coalesced as f64);
    let waits: Vec<f64> = [&reference.client.queue_wait[..], &c.queue_wait[..]].concat();
    out.set_percentile("serve.queue_wait_p50_s", &waits, 0.5);
    out.set_percentile("serve.queue_wait_p90_s", &waits, 0.9);
    out.set_percentile("serve.run_p50_s", &c.run, 0.5);
    out.set(
        "serve.job_duration_s",
        scrape(&mix.metrics, "turnroute_job_duration_seconds_sum"),
    );
    out.set(
        "serve.http_handle_s",
        scrape(&mix.metrics, "turnroute_http_request_duration_seconds_sum"),
    );
    let lags: Vec<f64> = [&reference.client.lag[..], &c.lag[..]].concat();
    out.set_percentile("client.lag_p99_s", &lags, 0.99);

    let stat = |k: &str| mix.cache_stats.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    let (hits, misses) = (stat("store_hits"), stat("store_misses"));
    out.set("store.hits", hits);
    out.set("store.misses", misses);
    out.set("store.hit_frac", hits / (hits + misses).max(1.0));
    out.set("store.bytes", stat("store_bytes"));

    let simulated = stat("engine_cells_simulated");
    let (mut emitted_sim, mut emitted, mut skipped) = (0.0, 0.0, 0.0);
    for body in c.cold_bodies.values() {
        let (s, f, k) = executor_counts(body);
        emitted_sim += s;
        emitted += s + f;
        skipped += k;
    }
    out.set("exec.cells_simulated", simulated);
    out.set("exec.cells_emitted", emitted);
    out.set("exec.cells_skipped", skipped);
    out.set(
        "exec.waste_frac",
        if simulated > 0.0 {
            (simulated - emitted_sim) / simulated
        } else {
            0.0
        },
    );

    cross_check(&pool, &cold, c, pins, tracer, &mut out);

    if out.get("store.hits").unwrap_or(0.0) <= 0.0 {
        out.fail("sanity: serve_mix had no store hits");
    }
    if out.get("serve.coalesced").unwrap_or(0.0) <= 0.0 {
        out.fail("sanity: serve_mix coalesced no duplicates");
    }
    out
}

/// Times the layers a cold submission passes through before the engine:
/// parsing and fingerprinting the document, resolving its names, turn
/// synthesis and fault-plan compilation and verification.
fn time_layers(spec: &MixSpec, tracer: &Tracer) -> Result<(), String> {
    let g = spec.name.as_str();
    let parsed = tracer.span("experiment.parse", None, g, |_| {
        ExperimentSpec::from_json(&spec.json)
    });
    let parsed = parsed.map_err(|e| format!("{g}: {e}"))?;
    tracer.span("experiment.fingerprint", None, g, |_| parsed.fingerprint());
    let resolve = || -> Result<_, String> {
        let topo = parse_topology(&parsed.topology).map_err(|e| e.to_string())?;
        parse_pattern(&parsed.pattern).map_err(|e| e.to_string())?;
        Ok(topo)
    };
    let topo = tracer.span("experiment.resolve", None, g, |_| resolve())?;
    for a in &parsed.algorithms {
        let name = if a.name.starts_with("synth") {
            "synth.synthesize"
        } else {
            "experiment.resolve"
        };
        let algo = tracer.span(name, None, g, |_| parse_algorithm(&a.name, topo.as_ref()));
        let algo = algo.map_err(|e| format!("{g}: {e}"))?;
        for &count in parsed.fault_axis.iter().filter(|&&c| c > 0) {
            let schedule = tracer.span("fault.compile", None, g, |_| {
                FaultPlan::new()
                    .random_channels(count as usize, parsed.fault_seed)
                    .compile(topo.as_ref())
            });
            let schedule = schedule.map_err(|e| format!("{g}: {e}"))?;
            tracer.span("fault.verify", None, g, |_| {
                verify(topo.as_ref(), algo.as_ref(), &schedule.failed_at_start())
            });
        }
    }
    Ok(())
}

/// Recomputes a few engine jobs the way `turnroute sweep --format json`
/// does, timing the report serializer, and checks the bytes equal what
/// the server returned.
fn cross_check(
    pool: &[MixSpec],
    cold: &[usize],
    c: &ClientReport,
    pins: &Pins,
    tracer: &Tracer,
    out: &mut Outcome,
) {
    let mut picked: Vec<usize> = Vec::new();
    for kind in ["/synth/", "/mmpp/", "/fault/", "/mesh/"] {
        picked.extend(
            cold.iter()
                .copied()
                .filter(|&i| pool[i].name.contains(kind))
                .take(2),
        );
    }
    for &i in picked.iter().take(CROSS_CHECKS) {
        let spec = &pool[i];
        let result = ExperimentSpec::from_json(&spec.json)
            .map_err(|e| e.to_string())
            .and_then(|s| {
                let mut executor = Executor::new(SERVER_THREADS);
                let series = s.run_on(&mut executor).map_err(|e| e.to_string())?;
                Ok(tracer.span("report.serialize", None, &spec.name, |_| {
                    let mut body = Vec::new();
                    write_report_json(&series, &executor.stats(), &mut body)
                        .expect("writing to a Vec cannot fail");
                    body
                }))
            });
        out.op(result.and_then(|body| {
            tracer.add("report.bytes", body.len() as f64);
            pins.check(&spec.name, &body)?;
            match c.cold_bodies.get(&i) {
                Some(served) if served != &body => Err(format!(
                    "{}: server bytes differ from the command line's",
                    spec.name
                )),
                _ => Ok(()),
            }
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_sorted_and_sized() {
        let pool = pool();
        let rep = repeatable(&pool);
        let full = MixSize::for_seconds(55.0);
        let (cold, reqs) = schedule(7, 55.0, full, &rep);
        assert_eq!(schedule(7, 55.0, full, &rep), (cold.clone(), reqs.clone()));
        assert_ne!(schedule(8, 55.0, full, &rep).1, reqs);
        assert_eq!(cold.len(), pool.len());
        assert!(reqs.len() >= full.cold + full.warm);
        assert_eq!(MixSize::for_seconds(10.0).cold, 200);
        assert!(reqs.windows(2).all(|w| w[0].due <= w[1].due));
        assert!(reqs.iter().all(|r| r.due >= 0.0 && r.due < 55.01));
        // Synthesized specs are sent once each.
        let synth_specs = rep.iter().filter(|&&r| !r).count();
        let synth_reqs = reqs.iter().filter(|r| !rep[r.spec]).count();
        assert!(synth_specs > 0 && synth_reqs == synth_specs);
    }

    #[test]
    fn repeats_go_to_a_stream_of_their_own() {
        let r = |due, spec| Request { due, spec };
        let reqs = [r(0.0, 0), r(0.001, 0), r(0.2, 1), r(1.5, 0), r(2.0, 2), r(2.6, 1)];
        let (fresh, repeats) = streams(&reqs);
        assert_eq!(fresh, vec![r(0.0, 0), r(0.001, 0), r(0.2, 1), r(2.0, 2)]);
        assert_eq!(repeats, vec![r(1.5, 0), r(2.6, 1)]);
    }

    #[test]
    fn pool_specs_are_distinct() {
        let pool = pool();
        assert_eq!(pool.len(), POOL_LEN);
        let mut docs: Vec<&str> = pool.iter().map(|s| s.json.as_str()).collect();
        docs.sort_unstable();
        docs.dedup();
        assert_eq!(docs.len(), pool.len());
    }

    #[test]
    fn scrape_reads_a_prometheus_sample() {
        let text = "# TYPE x histogram\nx_sum 1.25\nx_count 3\n";
        assert_eq!(scrape(text, "x_sum"), 1.25);
        assert_eq!(scrape(text, "x"), 0.0);
    }
}
