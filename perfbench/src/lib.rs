//! The turnroute benchmark: three workloads measured end to end with
//! tracing off, and layer by layer in a separate traced run.
//!
//! See `README.md` in this directory for the workloads, the metrics,
//! and how to run it.

#![forbid(unsafe_code)]

pub mod catalog;
pub mod client;
pub mod digest;
pub mod host;
pub mod outcome;
pub mod probes;
pub mod serve_mix;
pub mod single;
pub mod stats;
pub mod sweep;
pub mod trace;

use std::any::Any;

use turnroute_sim::LatencyHistogram;

use crate::catalog::PER_LAYER;
use crate::outcome::Outcome;
use crate::stats::Fit;
use crate::trace::{self_times, Tracer};

/// Every workload the benchmark can run.
pub const WORKLOADS: [&str; 3] = [sweep::NAME, single::NAME, serve_mix::NAME];

/// The workloads `BENCHMARK.json` gates on, in its order. `single_mesh64`
/// runs on demand only: on the host it was sized on, its run-to-run
/// spread exceeded the largest bound the gate allows (see README.md).
pub const GATED: [&str; 2] = [sweep::NAME, serve_mix::NAME];

/// Per-layer metrics that are the total duration of one span name.
const SPAN_TOTALS: &[(&str, &str)] = &[
    ("experiment.resolve_s", "experiment.resolve"),
    ("experiment.parse_s", "experiment.parse"),
    ("experiment.fingerprint_s", "experiment.fingerprint"),
    ("synth.synthesize_s", "synth.synthesize"),
    ("fault.compile_s", "fault.compile"),
    ("fault.verify_s", "fault.verify"),
    ("lut.build_s", "lut.build"),
    ("engine.new_s", "engine.new"),
    ("engine.run_s", "engine.run"),
    ("vc.run_s", "vc.run"),
    ("report.serialize_s", "report.serialize"),
];

/// Runs one workload and returns its outcome; traced runs also return
/// the tracer holding their spans.
pub fn run_workload(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<(Outcome, Option<Tracer>), String> {
    let pins = digest::Pins::embedded();
    if !trace {
        let out = match workload {
            sweep::NAME => sweep::run(seed, seconds, &pins),
            single::NAME => single::run(seed, seconds, &pins),
            serve_mix::NAME => serve_mix::run(seed, seconds, &pins),
            other => return Err(format!("unknown workload '{other}'")),
        };
        return Ok((out, None));
    }
    let tracer = Tracer::new();
    let mut out = match workload {
        sweep::NAME => sweep::run_traced(seed, &pins, &tracer),
        single::NAME => single::run_traced(seed, &pins, &tracer),
        serve_mix::NAME => serve_mix::run_traced(seed, seconds, &pins, &tracer),
        other => return Err(format!("unknown workload '{other}'")),
    };
    fill_layers(&mut out, &tracer);
    Ok((out, Some(tracer)))
}

/// Fills every per-layer metric not set by the workload itself from the
/// tracer: span totals, counters and self time per layer.
fn fill_layers(out: &mut Outcome, tracer: &Tracer) {
    for &(metric, span) in SPAN_TOTALS {
        if out.get(metric).is_none() {
            out.set(metric, tracer.total(span));
        }
    }
    let selfs = self_times(&tracer.spans());
    for (layer, metric) in [
        ("experiment", "experiment.self_s"),
        ("exec", "exec.self_s"),
        ("engine", "engine.self_s"),
        ("serve", "serve.self_s"),
    ] {
        out.set(metric, selfs.get(layer).copied().unwrap_or(0.0));
    }
    for m in PER_LAYER {
        if out.get(m.name).is_none() {
            out.set(m.name, tracer.counter(m.name));
        }
    }
}

/// Fills the `engine.*` metrics derived from the cycle clock.
pub fn engine_metrics(
    out: &mut Outcome,
    tracer: &Tracer,
    cycles: &LatencyHistogram,
    fit: &Fit,
    packets_retained: f64,
) {
    let us = |q: f64| {
        (cycles.len() as f64 * (1.0 - q) >= 10.0)
            .then(|| cycles.quantile(q))
            .flatten()
            .map_or(0.0, |ns| ns as f64 / 1e3)
    };
    out.set("engine.cycle_p50_us", us(0.5));
    out.set("engine.cycle_p99_us", us(0.99));
    let (fixed, per_packet) = fit.line();
    out.set("engine.cycle_fixed_us", fixed / 1e3);
    out.set("engine.cycle_per_packet_ns", per_packet);
    let moves = tracer.counter("engine.header_moves");
    let blocked = tracer.counter("engine.blocked");
    if moves + blocked > 0.0 {
        out.set("engine.grant_frac", moves / (moves + blocked));
    }
    if moves > 0.0 {
        out.set(
            "engine.ns_per_move",
            tracer.total("engine.run") * 1e9 / moves,
        );
    }
    out.set("engine.packets_retained", packets_retained);
}

/// The message of a caught panic.
pub fn panic_message(payload: &Box<dyn Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_owned())
}
