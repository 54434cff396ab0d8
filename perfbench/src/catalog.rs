//! Every metric the benchmark reports, with its unit; the per-layer
//! rows also say which end-to-end metric they should move, on which
//! workload, and where they should not move. `BENCHMARK.json` lists the
//! same names.

/// An end-to-end metric: measured with tracing off, on every workload.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `true` when lower is better.
    pub lower_is_better: bool,
}

const fn e2e(name: &'static str, unit: &'static str, lower_is_better: bool) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        lower_is_better,
    }
}

/// The end-to-end metrics, in report order.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", true),
    e2e("wall_s", "s", true),
    e2e("sim_cycles_per_s", "cycles/s", false),
    e2e("cold_p50_s", "s", true),
    e2e("warm_p50_s", "s", true),
    e2e("peak_rss_mb", "MiB", true),
];

/// Tail latencies: measured with tracing off like the end-to-end
/// metrics, printed after them and recorded with every run, but not in
/// `BENCHMARK.json` or the result line. On the two-core shared host the
/// benchmark was sized on, serve_mix's tails were twice as long in some
/// runs as in others of the same code, past any bound a gate allows.
pub const TAILS: &[EndToEnd] = &[e2e("cold_p90_s", "s", true), e2e("warm_p99_s", "s", true)];

/// A per-layer metric of the traced run.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    /// Metric name, `<layer>.<quantity>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `true` when lower is better.
    pub lower_is_better: bool,
    /// The repository module the layer lives in.
    pub module: &'static str,
    /// End-to-end metric it should move, and on which workload.
    pub moves: &'static str,
    /// Where it should not move.
    pub steady_on: &'static str,
}

const EXP: (&str, &str, &str) = (
    "experiment",
    "setup_s, warm_p50_s -> serve_mix",
    "single_mesh64",
);
const SYN: (&str, &str, &str) = (
    "synth",
    "cold_p50_s -> serve_mix",
    "sweep_mesh16, single_mesh64",
);
const FLT: (&str, &str, &str) = (
    "fault",
    "cold_p50_s -> serve_mix",
    "sweep_mesh16, single_mesh64",
);
const LUT: (&str, &str, &str) = (
    "sim::lut",
    "wall_s, peak_rss_mb -> sweep_mesh16",
    "single_mesh64 (0 tables: over budget)",
);
const EXEC: (&str, &str, &str) = (
    "sim::exec",
    "wall_s -> sweep_mesh16; cold_p90_s -> serve_mix",
    "single_mesh64",
);
const ENG: (&str, &str, &str) = (
    "sim::engine",
    "sim_cycles_per_s, peak_rss_mb -> single_mesh64; wall_s -> sweep_mesh16",
    "warm_* on serve_mix",
);
const CORE: (&str, &str, &str) = (
    "core",
    "sim_cycles_per_s -> single_mesh64",
    "sweep_mesh16 (table build only)",
);
const PAT: (&str, &str, &str) = (
    "sim::patterns",
    "sim_cycles_per_s -> single_mesh64",
    "warm_*",
);
const VC: (&str, &str, &str) = ("vc", "wall_s -> sweep_mesh16", "single_mesh64, serve_mix");
const REP: (&str, &str, &str) = (
    "sim::report",
    "cold_p50_s -> serve_mix",
    "warm_* (stored bytes are served)",
);
const SRV: (&str, &str, &str) = (
    "serve",
    "cold_*, warm_* -> serve_mix",
    "sweep_mesh16, single_mesh64",
);
const STO: (&str, &str, &str) = (
    "serve::store",
    "warm_p50_s, warm_p99_s -> serve_mix",
    "sweep_mesh16, single_mesh64",
);
const CLI: (&str, &str, &str) = (
    "load generator",
    "must stay small, or serve_mix measures the client",
    "-",
);
const TRC: (&str, &str, &str) = ("benchmark", "traced work time / untraced - 1", "-");

const fn row(
    name: &'static str,
    unit: &'static str,
    lower_is_better: bool,
    (module, moves, steady_on): (&'static str, &'static str, &'static str),
) -> Layer {
    Layer {
        name,
        unit,
        lower_is_better,
        module,
        moves,
        steady_on,
    }
}

/// The per-layer metrics, in report order.
pub const PER_LAYER: &[Layer] = &[
    row("experiment.resolve_s", "s", true, EXP),
    row("experiment.parse_s", "s", true, EXP),
    row("experiment.fingerprint_s", "s", true, EXP),
    row("experiment.self_s", "s", true, EXP),
    row("synth.synthesize_s", "s", true, SYN),
    row("fault.compile_s", "s", true, FLT),
    row("fault.verify_s", "s", true, FLT),
    row("lut.tables", "count", true, LUT),
    row("lut.build_s", "s", true, LUT),
    row("lut.bytes", "bytes", true, LUT),
    row("exec.cells_simulated", "count", true, EXEC),
    row("exec.cells_emitted", "count", false, EXEC),
    row("exec.cells_skipped", "count", false, EXEC),
    row("exec.waste_frac", "ratio", true, EXEC),
    row("exec.busy_s", "s", true, EXEC),
    row("exec.idle_s", "s", true, EXEC),
    row("exec.cell_max_s", "s", true, EXEC),
    row("exec.self_s", "s", true, EXEC),
    row("engine.new_s", "s", true, ENG),
    row("engine.run_s", "s", true, ENG),
    row("engine.cycle_p50_us", "us", true, ENG),
    row("engine.cycle_p99_us", "us", true, ENG),
    row("engine.cycle_fixed_us", "us", true, ENG),
    row("engine.cycle_per_packet_ns", "ns", true, ENG),
    row("engine.header_moves", "count", false, ENG),
    row("engine.blocked", "count", true, ENG),
    row("engine.grant_frac", "ratio", false, ENG),
    row("engine.flits_delivered", "count", false, ENG),
    row("engine.ns_per_move", "ns", true, ENG),
    row("engine.packets_retained", "count", true, ENG),
    row("engine.self_s", "s", true, ENG),
    row("core.route_calls", "count", true, CORE),
    row("core.route_s", "s", true, CORE),
    row("patterns.dest_calls", "count", true, PAT),
    row("patterns.dest_s", "s", true, PAT),
    row("vc.cells", "count", false, VC),
    row("vc.run_s", "s", true, VC),
    row("report.serialize_s", "s", true, REP),
    row("report.bytes", "bytes", true, REP),
    row("serve.submit_s", "s", true, SRV),
    row("serve.fetch_s", "s", true, SRV),
    row("serve.status_polls", "count", true, SRV),
    row("serve.queue_wait_p50_s", "s", true, SRV),
    row("serve.queue_wait_p90_s", "s", true, SRV),
    row("serve.run_p50_s", "s", true, SRV),
    row("serve.job_duration_s", "s", true, SRV),
    row("serve.http_handle_s", "s", true, SRV),
    row("serve.coalesced", "count", false, SRV),
    row("serve.self_s", "s", true, SRV),
    row("store.hits", "count", false, STO),
    row("store.misses", "count", true, STO),
    row("store.hit_frac", "ratio", false, STO),
    row("store.bytes", "bytes", true, STO),
    row("client.lag_p99_s", "s", true, CLI),
    row("trace.overhead_frac", "ratio", true, TRC),
];

/// The unit of a catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(TAILS)
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|&(n, _)| n == name)
        .map(|(_, u)| u)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(TAILS).map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric name");
        for n in names {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.'));
        }
    }
}
