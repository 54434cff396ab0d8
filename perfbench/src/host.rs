//! Host identity, memory high-water mark, result records, and the
//! host-aware comparison of two sets of records.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use turnroute_experiment::json::{self, Value as Json};

use crate::digest::fnv1a;
use crate::outcome::{json_number, Outcome};

/// Where a run appends its record, relative to the checkout root.
pub const RESULTS_FILE: &str = "perfbench/out/results.jsonl";

/// What identifies the machine a result was measured on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Host {
    /// CPU model name from `/proc/cpuinfo`.
    pub cpu: String,
    /// Cores available to this process.
    pub nproc: usize,
}

impl Host {
    /// The host this process runs on.
    pub fn current() -> Host {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        Host {
            cpu,
            nproc: nproc(),
        }
    }
}

/// Cores available to this process (at least 1).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The process's peak resident set size in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

/// A field of `/proc/self/status` in KiB.
fn status_kib(field: &str) -> Option<f64> {
    std::fs::read_to_string("/proc/self/status").ok().and_then(|s| {
        s.lines()
            .find(|l| l.starts_with(field))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|kb| kb.parse::<f64>().ok())
    })
}

/// Samples the process's resident set size (`VmRSS`) every millisecond
/// on a thread of its own, so that the peak of each stretch of a run
/// can be read apart: the process's high-water mark is one extreme over
/// the whole run, set by whichever cells happened to run side by side.
pub struct RssSampler {
    peak_kib: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl RssSampler {
    /// Starts sampling.
    pub fn start() -> RssSampler {
        let peak_kib = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let (peak, halt) = (peak_kib.clone(), stop.clone());
        let thread = std::thread::spawn(move || {
            while !halt.load(Ordering::Acquire) {
                if let Some(kb) = status_kib("VmRSS:") {
                    peak.fetch_max(kb as u64, Ordering::AcqRel);
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        });
        RssSampler {
            peak_kib,
            stop,
            thread: Some(thread),
        }
    }

    /// The largest sample in MiB since the last call (or the start),
    /// including the current resident set size.
    pub fn take_peak_mib(&self) -> f64 {
        let now = status_kib("VmRSS:").unwrap_or(0.0) as u64;
        self.peak_kib.swap(0, Ordering::AcqRel).max(now) as f64 / 1024.0
    }
}

impl Drop for RssSampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// A content hash of the program's sources (`crates/`, `src/` and the
/// root manifests), standing in for a commit id: benchmark checkouts
/// need not be git repositories.
pub fn source_id(root: &Path) -> String {
    let mut files = Vec::new();
    for dir in ["crates", "src"] {
        collect(&root.join(dir), &mut files);
    }
    for f in ["Cargo.toml", "Cargo.lock"] {
        files.push(root.join(f));
    }
    files.sort();
    let mut acc = Vec::new();
    for f in &files {
        let Ok(bytes) = std::fs::read(f) else {
            continue;
        };
        acc.extend_from_slice(
            f.strip_prefix(root)
                .unwrap_or(f)
                .to_string_lossy()
                .as_bytes(),
        );
        acc.extend_from_slice(&fnv1a(&bytes).to_le_bytes());
    }
    if acc.is_empty() {
        "unknown".to_owned()
    } else {
        format!("src-{:016x}", fnv1a(&acc))
    }
}

fn collect(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let path = e.path();
        if path.is_dir() {
            collect(&path, out);
        } else {
            out.push(path);
        }
    }
}

/// One run's record: host, source id and every metric with its spread.
pub fn record(
    workload: &str,
    seed: u64,
    trace: bool,
    host: &Host,
    source: &str,
    o: &Outcome,
) -> String {
    let mut metrics = String::new();
    for (i, (name, v)) in o.values.iter().enumerate() {
        if i > 0 {
            metrics.push(',');
        }
        let unit = crate::catalog::unit_of(name).unwrap_or("");
        let _ = write!(
            metrics,
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\",\"n\":{}",
            json_number(v.value),
            v.n
        );
        if let Some(s) = v.spread {
            let _ = write!(
                metrics,
                ",\"median\":{},\"q1\":{},\"q3\":{}",
                json_number(s.median),
                json_number(s.q1),
                json_number(s.q3)
            );
        }
        metrics.push('}');
    }
    format!(
        "{{\"workload\":{},\"seed\":{seed},\"trace\":{trace},\"host\":{{\"cpu\":{},\"nproc\":{}}},\
         \"source\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\"failed_frac\":{},\"metrics\":{{{metrics}}}}}",
        json::escape(workload),
        json::escape(&host.cpu),
        host.nproc,
        json::escape(source),
        o.correct(trace),
        o.attempted,
        o.failed,
        json_number(o.failed_frac()),
    )
}

/// Appends `line` to the results file under `root`.
pub fn append_record(root: &Path, line: &str) -> std::io::Result<()> {
    let path = root.join(RESULTS_FILE);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{line}")
}

struct Rec {
    workload: String,
    trace: bool,
    host: Host,
    metrics: BTreeMap<String, f64>,
}

fn parse_records(text: &str) -> Result<Vec<Rec>, String> {
    let mut out = Vec::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let field = |k: &str| v.get(k).ok_or_else(|| format!("line {}: no '{k}'", i + 1));
        let host = field("host")?;
        let mut metrics = BTreeMap::new();
        for (name, m) in field("metrics")?.as_obj().unwrap_or(&[]) {
            if let Some(x) = m.get("value").and_then(Json::as_f64) {
                metrics.insert(name.clone(), x);
            }
        }
        out.push(Rec {
            workload: field("workload")?.as_str().unwrap_or("").to_owned(),
            trace: field("trace")?.as_bool().unwrap_or(false),
            host: Host {
                cpu: host
                    .get("cpu")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_owned(),
                nproc: host.get("nproc").and_then(Json::as_u64).unwrap_or(0) as usize,
            },
            metrics,
        });
    }
    Ok(out)
}

/// Bound and direction of each end-to-end metric in `BENCHMARK.json`.
pub fn bounds(benchmark_json: &str) -> Result<BTreeMap<String, (f64, bool)>, String> {
    let v = json::parse(benchmark_json).map_err(|e| e.to_string())?;
    let mut out = BTreeMap::new();
    for m in v.get("end_to_end").and_then(Json::as_arr).unwrap_or(&[]) {
        let name = m
            .get("name")
            .and_then(Json::as_str)
            .ok_or("metric without name")?;
        let bound = m
            .get("bound")
            .and_then(Json::as_f64)
            .ok_or("metric without bound")?;
        let lower = m.get("better").and_then(Json::as_str) == Some("lower");
        out.insert(name.to_owned(), (bound, lower));
    }
    Ok(out)
}

/// Compares the untraced records of `old` and `new` (contents of two
/// results files) metric by metric, median against median. Refuses
/// (`Err`) when the records come from more than one host. Returns the
/// report and whether any metric got worse by more than its bound.
pub fn compare(
    old: &str,
    new: &str,
    bounds: &BTreeMap<String, (f64, bool)>,
) -> Result<(String, bool), String> {
    let old = parse_records(old)?;
    let new = parse_records(new)?;
    let hosts: Vec<&Host> = old.iter().chain(&new).map(|r| &r.host).collect();
    if let Some(first) = hosts.first() {
        if let Some(other) = hosts.iter().find(|h| h != &first) {
            return Err(format!(
                "refusing to compare results from different hosts: '{}' x{} and '{}' x{}",
                first.cpu, first.nproc, other.cpu, other.nproc
            ));
        }
    }
    let medians = |recs: &[Rec]| {
        let mut by: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
        for r in recs.iter().filter(|r| !r.trace) {
            for (m, &v) in &r.metrics {
                by.entry((r.workload.clone(), m.clone()))
                    .or_default()
                    .push(v);
            }
        }
        by.into_iter()
            .filter_map(|(k, v)| crate::stats::Summary::of(&v).map(|s| (k, s)))
            .collect::<BTreeMap<_, _>>()
    };
    let (a, b) = (medians(&old), medians(&new));
    let mut report = String::new();
    let mut regressed = false;
    for ((workload, metric), sa) in &a {
        let (Some(sb), Some(&(bound, lower))) = (
            b.get(&(workload.clone(), metric.clone())),
            bounds.get(metric),
        ) else {
            continue;
        };
        let change = if sa.median == 0.0 {
            0.0
        } else {
            sb.median / sa.median - 1.0
        };
        let worse = if lower { change } else { -change };
        let verdict = if worse > bound {
            regressed = true;
            "WORSE beyond bound"
        } else {
            "within bound"
        };
        let _ = writeln!(
            report,
            "{workload:<14} {metric:<18} old {:>12.6} (n={}) new {:>12.6} (n={}) {:+.2}% bound {:.0}% {verdict}",
            sa.median,
            sa.n,
            sb.median,
            sb.n,
            change * 100.0,
            bound * 100.0
        );
    }
    Ok((report, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rss_sampler_sees_an_allocation_and_resets() {
        if status_kib("VmRSS:").is_none() {
            return; // no /proc here
        }
        let sampler = RssSampler::start();
        let before = sampler.take_peak_mib();
        let block = vec![1u8; 64 << 20];
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(std::hint::black_box(block));
        std::thread::sleep(std::time::Duration::from_millis(5));
        let peak = sampler.take_peak_mib();
        assert!(peak > before + 32.0, "{before} -> {peak}");
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert!(sampler.take_peak_mib() < peak - 32.0);
    }

    const B: &str =
        r#"{"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]}"#;

    fn rec(cpu: &str, wall: f64) -> String {
        format!(
            "{{\"workload\":\"w\",\"seed\":1,\"trace\":false,\"host\":{{\"cpu\":\"{cpu}\",\"nproc\":2}},\
             \"metrics\":{{\"wall_s\":{{\"value\":{wall},\"unit\":\"s\"}}}}}}"
        )
    }

    #[test]
    fn compare_refuses_records_from_different_hosts() {
        let bounds = bounds(B).unwrap();
        let err = compare(&rec("cpu A", 1.0), &rec("cpu B", 1.0), &bounds).unwrap_err();
        assert!(err.contains("different hosts"), "{err}");
    }

    #[test]
    fn compare_flags_a_metric_worse_than_its_bound() {
        let bounds = bounds(B).unwrap();
        let old = [rec("c", 1.0), rec("c", 1.02), rec("c", 0.98)].join("\n");
        let (_, bad) = compare(&old, &rec("c", 1.2), &bounds).unwrap();
        assert!(bad);
        let (report, ok) = compare(&old, &rec("c", 1.05), &bounds).unwrap();
        assert!(!ok, "{report}");
        assert!(report.contains("n=3"));
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mib() > 0.0);
        }
    }
}
