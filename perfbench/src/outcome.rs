//! What one benchmark run measured: operation counts, failures and
//! metric values, plus the result line and the per-layer table.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::catalog::{unit_of, END_TO_END, PER_LAYER};
use crate::stats::{batch_percentiles, percentile, trimmed_mean, Summary};

/// Batches a per-batch percentile is estimated over, at most.
pub const MAX_BATCHES: usize = 32;

/// One metric value, with the spread of the samples behind it when it
/// is a median of repeated measurements.
#[derive(Debug, Clone, Copy)]
pub struct Value {
    /// The reported number.
    pub value: f64,
    /// Sample count of the number.
    pub n: usize,
    /// Median and quartiles of the samples behind the value, or of its
    /// per-batch values when it is estimated batch by batch.
    pub spread: Option<Summary>,
}

/// The result of one run of one workload.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: panics, errors, non-2xx responses,
    /// failed or cancelled jobs, deadline misses, digest mismatches.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, Value>,
    /// Metrics that could not be computed (too few samples).
    pub missing: Vec<String>,
}

impl Outcome {
    /// Counts one operation and, if `result` is an error, its failure.
    pub fn op(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.fail(e);
        }
    }

    /// Counts a failure of an operation already counted as attempted.
    pub fn fail(&mut self, message: impl Into<String>) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(message.into());
        }
    }

    /// Sets a metric to a single measured number.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(
            name,
            Value {
                value,
                n: 1,
                spread: None,
            },
        );
    }

    /// Sets a metric to the median of repeated measurements.
    pub fn set_median(&mut self, name: &'static str, samples: &[f64]) {
        match Summary::of(samples) {
            Some(s) => {
                self.values.insert(
                    name,
                    Value {
                        value: s.median,
                        n: s.n,
                        spread: Some(s),
                    },
                );
            }
            None => self.missing.push(format!("{name}: no samples")),
        }
    }

    /// Sets a metric to the trimmed mean of per-batch values (one grid
    /// pass, one simulate), which follows the host's speed over the whole
    /// run rather than at its middle rank.
    pub fn set_trimmed(&mut self, name: &'static str, batches: &[f64]) {
        match (trimmed_mean(batches), Summary::of(batches)) {
            (Some(value), spread) => {
                self.values.insert(
                    name,
                    Value {
                        value,
                        n: batches.len(),
                        spread,
                    },
                );
            }
            _ => self.missing.push(format!("{name}: no samples")),
        }
    }

    /// Sets a metric to the `q`-percentile of `samples` (in the order
    /// they were taken), estimated per batch: the trimmed mean of the
    /// percentiles of up to [`MAX_BATCHES`] consecutive batches, each
    /// with ten samples beyond its percentile.
    pub fn set_batched(&mut self, name: &'static str, samples: &[f64], q: f64) {
        match batch_percentiles(samples, q, MAX_BATCHES) {
            Some(batches) => {
                self.values.insert(
                    name,
                    Value {
                        value: trimmed_mean(&batches).expect("at least one batch"),
                        n: samples.len(),
                        spread: Summary::of(&batches),
                    },
                );
            }
            None => self.missing.push(format!(
                "{name}: {} samples are too few for p{}",
                samples.len(),
                q * 100.0
            )),
        }
    }

    /// Sets a metric to the `q`-percentile of `samples`, subject to the
    /// ten-samples-beyond rule.
    pub fn set_percentile(&mut self, name: &'static str, samples: &[f64], q: f64) {
        match percentile(samples, q) {
            Some(v) => {
                let spread = (q == 0.5).then(|| Summary::of(samples)).flatten();
                self.values.insert(
                    name,
                    Value {
                        value: v,
                        n: samples.len(),
                        spread,
                    },
                );
            }
            None => self.missing.push(format!(
                "{name}: {} samples are too few for p{}",
                samples.len(),
                q * 100.0
            )),
        }
    }

    /// The metric `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|v| v.value)
    }

    /// Failed ÷ attempted.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Whether every operation succeeded and every metric was computed;
    /// untraced, every end-to-end metric must also be positive.
    pub fn correct(&self, trace: bool) -> bool {
        self.attempted > 0
            && self.failed == 0
            && self.missing.is_empty()
            && (trace
                || self.names(false).iter().all(|n| {
                    self.values
                        .get(n)
                        .is_some_and(|v| v.value.is_finite() && v.value > 0.0)
                }))
    }

    /// The metric names a run in this mode reports.
    pub fn names(&self, trace: bool) -> Vec<&'static str> {
        if trace {
            PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        }
    }

    /// The last line of the benchmark's output: one JSON object with
    /// `correct`, `attempted`, `failed` and every metric of the mode.
    /// Per-layer metrics a workload does not exercise read 0.
    pub fn result_line(&self, trace: bool) -> String {
        let mut metrics = String::new();
        for (i, name) in self.names(trace).into_iter().enumerate() {
            let value = self.get(name).filter(|v| v.is_finite()).unwrap_or(0.0);
            let unit = unit_of(name).expect("catalogued metric");
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(trace),
            self.attempted,
            self.failed
        )
    }

    /// The per-layer table of a traced run, one row per metric.
    pub fn layer_table(&self, workload: &str, self_times: &BTreeMap<&str, f64>) -> String {
        let mut out = format!("per-layer metrics, workload {workload} (traced run)\n");
        let _ = writeln!(
            out,
            "{:<14} {:<28} {:>16} {:<6} | moves -> on | should not move on",
            "layer", "metric", "value", "unit"
        );
        for m in PER_LAYER {
            let value = self.get(m.name).unwrap_or(0.0);
            let _ = writeln!(
                out,
                "{:<14} {:<28} {:>16} {:<6} | {} | {}",
                m.module,
                m.name,
                format_value(value),
                m.unit,
                m.moves,
                m.steady_on
            );
        }
        out.push_str("self time per layer (span time minus child spans):\n");
        for (layer, secs) in self_times {
            let _ = writeln!(out, "  {layer:<12} {secs:.6} s");
        }
        out
    }
}

fn format_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.6}")
    }
}

/// A JSON number with all the digits Rust's shortest round-trip
/// formatting gives.
pub fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) || s.contains("inf") || s.contains("NaN") {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_every_metric_of_the_mode() {
        let mut o = Outcome::default();
        o.op(Ok(()));
        for m in END_TO_END {
            o.set(m.name, 1.5);
        }
        assert!(o.correct(false));
        let line = o.result_line(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        for m in END_TO_END {
            assert!(line.contains(&format!("\"{}\": {{\"value\": 1.5", m.name)));
        }
        let traced = o.result_line(true);
        for m in PER_LAYER {
            assert!(traced.contains(&format!("\"{}\": {{\"value\": 0.0", m.name)));
        }
    }

    #[test]
    fn a_failed_operation_or_a_missing_metric_makes_the_run_incorrect() {
        let mut o = Outcome::default();
        for m in END_TO_END {
            o.set(m.name, 2.0);
        }
        o.op(Err("digest mismatch".into()));
        assert_eq!((o.attempted, o.failed), (1, 1));
        assert!(!o.correct(false));
        let mut p = Outcome::default();
        p.op(Ok(()));
        for m in END_TO_END {
            p.set(m.name, 2.0);
        }
        p.set_percentile("cold_p90_s", &[1.0; 99], 0.9);
        assert!(!p.correct(false));
    }
}
