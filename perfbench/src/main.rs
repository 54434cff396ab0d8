//! Command line of the turnroute benchmark.
//!
//! ```text
//! perfbench --workload W --seed N --seconds S --trace 0|1
//! perfbench pin                  # recompute pins.txt (see README.md)
//! perfbench compare OLD NEW      # compare two results files
//! ```
//!
//! Run from the repository root. The last line of a run's standard
//! output is its result: `{"correct", "attempted", "failed", "metrics"}`.

use std::panic::catch_unwind;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use perfbench::catalog::{END_TO_END, TAILS};
use perfbench::client::{HttpService, JobService, JobState};
use perfbench::digest::{series_bytes, Pins};
use perfbench::host::{self, Host};
use perfbench::outcome::Outcome;
use perfbench::trace::self_times;
use perfbench::{serve_mix, single, sweep, WORKLOADS};
use turnroute_experiment::ExperimentSpec;
use turnroute_serve::{ServeOptions, Server};
use turnroute_sim::report::write_report_json;
use turnroute_sim::{Executor, Logger};

const OUT_DIR: &str = "perfbench/out";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("pin") => pin(),
        Some("compare") if args.len() == 3 => compare(&args[1], &args[2]),
        _ => run(&args),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .ok_or_else(|| {
            format!(
                "missing {name}\nusage: perfbench --workload {} --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            )
        })
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let workload = flag(args, "--workload")?;
    let seed: u64 = flag(args, "--seed")?.parse().map_err(|_| "bad --seed")?;
    let seconds: f64 = flag(args, "--seconds")?
        .parse()
        .map_err(|_| "bad --seconds")?;
    let trace = match flag(args, "--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace '{other}'")),
    };
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    if !Path::new("perfbench").is_dir() || !Path::new("crates").is_dir() {
        return Err("run from the repository root".into());
    }
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;

    let host = Host::current();
    let source = host::source_id(Path::new("."));
    println!(
        "host: cpu '{}', nproc {}; source {source}; workload {workload}, seed {seed}, {} s, trace {}",
        host.cpu,
        host.nproc,
        seconds,
        u8::from(trace)
    );
    watchdog(seconds, trace);
    let (out, tracer) =
        match catch_unwind(|| perfbench::run_workload(workload, seed, seconds, trace)) {
            Ok(r) => r?,
            Err(p) => {
                let mut out = Outcome::default();
                out.op(Err(format!(
                    "benchmark panicked: {}",
                    perfbench::panic_message(&p)
                )));
                println!("{}", out.result_line(trace));
                return Ok(ExitCode::SUCCESS);
            }
        };

    for f in &out.failures {
        println!("failure: {f}");
    }
    for m in &out.missing {
        println!("missing: {m}");
    }
    println!(
        "operations: {} attempted, {} failed (failed_frac {})",
        out.attempted,
        out.failed,
        out.failed_frac()
    );
    if let Some(tracer) = &tracer {
        let path = format!("{OUT_DIR}/spans-{workload}-{seed}.jsonl");
        match tracer.write_jsonl(Path::new(&path)) {
            Ok(()) => println!("spans: {} written to {path}", tracer.spans().len()),
            Err(e) => eprintln!("perfbench: {path}: {e}"),
        }
        print!(
            "{}",
            out.layer_table(workload, &self_times(&tracer.spans()))
        );
    } else {
        for (m, gated) in END_TO_END
            .iter()
            .map(|m| (m, ""))
            .chain(TAILS.iter().map(|m| (m, " (not gated)")))
        {
            if let Some(v) = out.values.get(m.name) {
                let spread = v.spread.map_or(String::new(), |s| {
                    format!(
                        " (median {:.6}, quartiles {:.6} .. {:.6})",
                        s.median, s.q1, s.q3
                    )
                });
                println!(
                    "{:<18} {:>16.6} {:<9} n={}{spread}{gated}",
                    m.name, v.value, m.unit, v.n
                );
            }
        }
    }
    let record = host::record(workload, seed, trace, &host, &source, &out);
    if let Err(e) = host::append_record(Path::new("."), &record) {
        eprintln!("perfbench: results file: {e}");
    }
    println!("{}", out.result_line(trace));
    Ok(ExitCode::SUCCESS)
}

/// Ends the process with a failed result if the run outlives twice its
/// measuring time plus 50 s: a hung server or engine must not hang the
/// benchmark.
fn watchdog(seconds: f64, trace: bool) {
    let limit = Duration::from_secs_f64(2.0 * seconds + 50.0);
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        let mut out = Outcome::default();
        out.op(Err(format!("watchdog: the run exceeded {limit:?}")));
        println!("{}", out.result_line(trace));
        std::process::exit(0);
    });
}

fn compare(old: &str, new: &str) -> Result<ExitCode, String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let bounds = host::bounds(&read("BENCHMARK.json")?)?;
    match host::compare(&read(old)?, &read(new)?, &bounds) {
        Err(e) => Err(e),
        Ok((report, regressed)) => {
            print!("{report}");
            Ok(if regressed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            })
        }
    }
}

/// Recomputes every pinned digest. Each report is computed at one and
/// at `nproc` executor threads, and every served spec also through a
/// server, and all ways must agree.
fn pin() -> Result<ExitCode, String> {
    let threads = host::nproc().max(2);
    let mut pins = Pins::default();
    // Two orders of the grid: the series must not depend on it.
    for order in [0, 5] {
        let specs = sweep::specs(order).map_err(|e| e.to_string())?;
        for t in [1, threads] {
            let results = sweep::run_grid(&specs, &mut Executor::new(t), |_| {});
            for (spec, r) in specs.iter().zip(results) {
                for s in r? {
                    pins.insert(&sweep::pin_name(spec, &s), &series_bytes(&s))?;
                }
            }
        }
    }
    let r = single::resolve()?;
    for (k, &seed) in single::SEEDS.iter().enumerate() {
        let (direct, cell) = single::pin_names(k);
        pins.insert(&direct, &single::simulate(&r, seed)?.3)?;
        for t in [1, threads] {
            pins.insert(&cell, &single::cell_bytes(&r, seed, &mut Executor::new(t))?)?;
        }
    }
    let pool = serve_mix::pool();
    for s in &pool {
        let spec = ExperimentSpec::from_json(&s.json).map_err(|e| e.to_string())?;
        for t in [1, threads] {
            let mut executor = Executor::new(t);
            let series = spec.run_on(&mut executor).map_err(|e| e.to_string())?;
            let mut body = Vec::new();
            write_report_json(&series, &executor.stats(), &mut body).map_err(|e| e.to_string())?;
            pins.insert(&s.name, &body)?;
        }
    }
    let dir = Path::new(OUT_DIR).join("store-pin");
    let _ = std::fs::remove_dir_all(&dir);
    let handle = Server::start(
        "127.0.0.1:0",
        ServeOptions {
            store_dir: dir.clone(),
            threads,
            logger: Logger::disabled(),
        },
    )
    .map_err(|e| e.to_string())?;
    let mut service = HttpService::new(handle.addr().to_string());
    let served = pool.iter().try_for_each(|s| {
        let job = service.submit(&s.json)?;
        loop {
            match service.status(&job.id)? {
                JobState::Done => break,
                JobState::Failed(e) => return Err(e),
                _ => std::thread::sleep(Duration::from_millis(2)),
            }
        }
        pins.insert(&s.name, &service.fetch(&job.id)?)
    });
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    served?;
    std::fs::write("perfbench/pins.txt", pins.render()).map_err(|e| e.to_string())?;
    println!("pinned {} digests to perfbench/pins.txt", pins.len());
    Ok(ExitCode::SUCCESS)
}
