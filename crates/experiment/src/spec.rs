//! Declarative experiments: describe a (topology × algorithms × pattern
//! × load grid) sweep as data, then run it on any number of threads.
//!
//! Every figure and table regenerator used to hand-roll the same loop —
//! build a topology, build each algorithm, sweep the loads, relabel,
//! print. [`ExperimentSpec`] collapses that loop to a value: the
//! topology, pattern and algorithms are *names* (resolved through the
//! same parsers as the `turnroute` CLI, so specs read exactly like
//! command lines), and [`ExperimentSpec::run`] fans the whole grid out
//! through the deterministic parallel [`Executor`]. Results are
//! bit-identical for every thread count.
//!
//! Specs are built through a validating builder and never constructed
//! free-form: [`ExperimentSpec::builder`] collects the fields,
//! [`ExperimentSpecBuilder::build`] resolves every name and checks
//! every cross-field rule, and only a spec that passed comes out. The
//! same path backs the JSON wire format ([`ExperimentSpec::from_json`]
//! rejects unknown fields with a typed [`SpecError`]), so a malformed
//! HTTP submission to `turnroute-serve` fails at the API boundary
//! instead of panicking deep in the engine.
//!
//! # Example
//!
//! ```
//! use turnroute_experiment::ExperimentSpec;
//! use turnroute_sim::SimConfig;
//!
//! let spec = ExperimentSpec::builder("mesh:8x8", "transpose")
//!     .algorithm("xy")
//!     .algorithm("west-first")
//!     .loads(&[0.01, 0.05])
//!     .config(SimConfig::paper().warmup_cycles(500).measure_cycles(2_000))
//!     .build()
//!     .unwrap();
//! let series = spec.run(2).unwrap();
//! assert_eq!(series.len(), 2);
//! assert_eq!(series[0].algorithm, "dimension-order");
//! ```

use std::fmt;
use std::sync::Arc;

use crate::cli::{
    check_pattern_fits, parse_algorithm, parse_faults, parse_pattern, parse_topology,
    parse_traffic, parse_vc_algorithm, ParseSpecError,
};
use crate::json::{self, Value};
use turnroute_core::RoutingAlgorithm;
use turnroute_fault::{verify, FaultPlan, FaultSchedule};
use turnroute_rng::split_mix_64;
use turnroute_sim::{Executor, SeriesJob, SimConfig, SweepSeries};
use turnroute_vc::{vc_series_job, VcRoutingAlgorithm};

/// Default seed for [`ExperimentSpecBuilder::fault_axis`] random draws,
/// chosen once so every degradation figure fails the same channels.
pub const DEFAULT_FAULT_SEED: u64 = 0xFA17_5EED;

/// Version of the [`ExperimentSpec`] JSON wire format. Documents may
/// state it explicitly (`"spec_version": 1`); a mismatch is a typed
/// error.
pub const SPEC_SCHEMA_VERSION: u64 = 1;

/// Which simulation engine runs the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The single-flit-buffer wormhole engine of the paper's Section 6.
    #[default]
    Wormhole,
    /// The lane-aware engine (reference \[18\]); plain algorithms run on
    /// class-0 lanes, and `mad-y` / `dateline` become available.
    VirtualChannel,
}

impl Engine {
    /// The wire-format name (`"wormhole"` / `"vc"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Engine::Wormhole => "wormhole",
            Engine::VirtualChannel => "vc",
        }
    }

    /// Parses a wire-format or CLI engine name.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "wormhole" => Some(Engine::Wormhole),
            "vc" | "virtual-channel" => Some(Engine::VirtualChannel),
            _ => None,
        }
    }
}

/// One algorithm of an experiment: the parse name plus an optional
/// display label for the emitted series (figures relabel, e.g., `p-cube`
/// as `negative-first` to match the paper's terminology).
///
/// The *parse name* is the series' identity: per-cell seeds and cache
/// keys derive from the resolved algorithm, so relabelling never changes
/// the simulated numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlgorithmSpec {
    /// A name accepted by [`parse_algorithm`] (or, under
    /// [`Engine::VirtualChannel`], by [`parse_vc_algorithm`]).
    pub name: String,
    /// The label for the emitted [`SweepSeries`]; defaults to the
    /// resolved algorithm's own name.
    pub label: Option<String>,
}

/// Why a spec failed to build or deserialize.
///
/// The variants partition the failure surface so API layers can answer
/// with a machine-readable kind: names that did not resolve, structural
/// rule violations, unknown fields, and documents that are not valid
/// JSON at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// A name in the spec did not resolve through the CLI parsers.
    Parse(ParseSpecError),
    /// A field (or combination of fields) violates a structural rule.
    Invalid {
        /// The offending field.
        field: &'static str,
        /// What rule it broke.
        message: String,
    },
    /// A document field no spec version defines (deserialization
    /// rejects unknown fields rather than silently dropping them).
    UnknownField(String),
    /// The document is not well-formed JSON, or a field has the wrong
    /// type.
    Malformed(String),
}

impl SpecError {
    /// A short machine-readable kind, used in HTTP error payloads.
    pub fn kind(&self) -> &'static str {
        match self {
            SpecError::Parse(_) => "parse",
            SpecError::Invalid { .. } => "invalid",
            SpecError::UnknownField(_) => "unknown_field",
            SpecError::Malformed(_) => "malformed",
        }
    }

    fn invalid(field: &'static str, message: impl Into<String>) -> Self {
        SpecError::Invalid {
            field,
            message: message.into(),
        }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Parse(e) => write!(f, "{e}"),
            SpecError::Invalid { field, message } => write!(f, "{field}: {message}"),
            SpecError::UnknownField(name) => write!(f, "unknown field '{name}'"),
            SpecError::Malformed(message) => write!(f, "malformed spec: {message}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<ParseSpecError> for SpecError {
    fn from(e: ParseSpecError) -> Self {
        SpecError::Parse(e)
    }
}

/// Collects the fields of an [`ExperimentSpec`] before validation.
///
/// Obtain one with [`ExperimentSpec::builder`]; every setter chains;
/// [`ExperimentSpecBuilder::build`] validates the whole value and
/// returns the spec or a typed [`SpecError`].
#[derive(Debug, Clone)]
pub struct ExperimentSpecBuilder {
    topology: String,
    algorithms: Vec<AlgorithmSpec>,
    pattern: String,
    loads: Vec<f64>,
    config: SimConfig,
    engine: Engine,
    fault_axis: Vec<u64>,
    fault_seed: u64,
    faults_spec: Option<String>,
}

impl ExperimentSpecBuilder {
    /// Adds an algorithm by parse name.
    pub fn algorithm(mut self, name: impl Into<String>) -> Self {
        self.algorithms.push(AlgorithmSpec {
            name: name.into(),
            label: None,
        });
        self
    }

    /// Adds an algorithm by parse name, relabelled as `label` in the
    /// emitted series.
    pub fn algorithm_as(mut self, label: impl Into<String>, name: impl Into<String>) -> Self {
        self.algorithms.push(AlgorithmSpec {
            name: name.into(),
            label: Some(label.into()),
        });
        self
    }

    /// Sets the offered-load grid (strictly ascending, positive).
    pub fn loads(mut self, loads: &[f64]) -> Self {
        self.loads = loads.to_vec();
        self
    }

    /// Sets the base simulation configuration.
    pub fn config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Selects the engine.
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Sets the degradation-sweep axis: one series per algorithm per
    /// fault count, failing that many seed-derived random channels.
    pub fn fault_axis(mut self, counts: &[u64]) -> Self {
        self.fault_axis = counts.to_vec();
        self
    }

    /// Sets the seed for [`fault_axis`](Self::fault_axis) draws.
    pub fn fault_seed(mut self, seed: u64) -> Self {
        self.fault_seed = seed;
        self
    }

    /// Applies an explicit fault plan to every series (mutually
    /// exclusive with [`fault_axis`](Self::fault_axis)).
    pub fn faults(mut self, spec: impl Into<String>) -> Self {
        self.faults_spec = Some(spec.into());
        self
    }

    /// Validates the collected fields and returns the spec.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Parse`] if a topology, pattern, algorithm
    /// or fault name does not resolve, and [`SpecError::Invalid`] for
    /// structural violations: no algorithms, an empty / unsorted /
    /// non-positive load grid, a zero-length measurement window, fault
    /// settings on the virtual-channel engine, or both an explicit
    /// fault plan and a fault axis at once.
    pub fn build(self) -> Result<ExperimentSpec, SpecError> {
        let spec = ExperimentSpec {
            topology: self.topology,
            algorithms: self.algorithms,
            pattern: self.pattern,
            loads: self.loads,
            config: self.config,
            engine: self.engine,
            fault_axis: self.fault_axis,
            fault_seed: self.fault_seed,
            faults_spec: self.faults_spec,
        };
        spec.validate()?;
        Ok(spec)
    }
}

/// A validated, declarative description of one sweep experiment.
///
/// Values only come out of [`ExperimentSpecBuilder::build`] (or
/// [`ExperimentSpec::from_json`], which routes through it): every name
/// resolves and every cross-field rule holds. Run with
/// [`ExperimentSpec::run`] / [`ExperimentSpec::run_on`]; serialize with
/// [`ExperimentSpec::to_json`]; content-address with
/// [`ExperimentSpec::fingerprint`]. Warmup/measure windows and the base
/// seed travel in [`SimConfig`].
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ExperimentSpec {
    /// Topology specification, e.g. `mesh:16x16` (see
    /// [`parse_topology`]).
    pub topology: String,
    /// The algorithms to sweep, one series each.
    pub algorithms: Vec<AlgorithmSpec>,
    /// Traffic pattern name, e.g. `transpose` (see [`parse_pattern`]).
    pub pattern: String,
    /// Offered loads (flits/cycle/node), ascending.
    pub loads: Vec<f64>,
    /// Base simulation configuration: warmup/measure windows, seed,
    /// selection policies. The injection rate is overridden per cell.
    pub config: SimConfig,
    /// Which engine runs the cells.
    pub engine: Engine,
    /// Degradation-sweep axis: numbers of seed-derived random channel
    /// faults. Each count becomes one series per algorithm, with the
    /// fault sets nested (the channels failed at count `k` are a subset
    /// of those at `k + 1`) and identical across algorithms. Empty
    /// means healthy-network only. [`Engine::Wormhole`] only.
    pub fault_axis: Vec<u64>,
    /// Seed for the [`fault_axis`](Self::fault_axis) random draws.
    pub fault_seed: u64,
    /// An explicit fault plan (see [`crate::cli::parse_faults`])
    /// applied to every series. Mutually exclusive with
    /// [`fault_axis`](Self::fault_axis). [`Engine::Wormhole`] only.
    pub faults_spec: Option<String>,
}

impl ExperimentSpec {
    /// Starts a builder on `topology` under `pattern`, with no
    /// algorithms or loads yet and the paper's default [`SimConfig`].
    pub fn builder(
        topology: impl Into<String>,
        pattern: impl Into<String>,
    ) -> ExperimentSpecBuilder {
        ExperimentSpecBuilder {
            topology: topology.into(),
            algorithms: Vec::new(),
            pattern: pattern.into(),
            loads: Vec::new(),
            config: SimConfig::paper(),
            engine: Engine::Wormhole,
            fault_axis: Vec::new(),
            fault_seed: DEFAULT_FAULT_SEED,
            faults_spec: None,
        }
    }

    /// Re-checks every rule [`ExperimentSpecBuilder::build`] enforces.
    fn validate(&self) -> Result<(), SpecError> {
        if self.algorithms.is_empty() {
            return Err(SpecError::invalid("algorithms", "at least one is required"));
        }
        if self.loads.is_empty() {
            return Err(SpecError::invalid("loads", "at least one is required"));
        }
        if self.loads.iter().any(|l| !l.is_finite() || *l <= 0.0) {
            return Err(SpecError::invalid(
                "loads",
                "every load must be a positive finite number",
            ));
        }
        if self.loads.windows(2).any(|w| w[0] >= w[1]) {
            return Err(SpecError::invalid(
                "loads",
                "loads must be strictly ascending",
            ));
        }
        if self.config.measure_cycles == 0 {
            return Err(SpecError::invalid(
                "config",
                "measure_cycles must be at least 1",
            ));
        }
        self.config
            .traffic
            .check()
            .map_err(|m| SpecError::invalid("config", m))?;
        let topo = parse_topology(&self.topology)?;
        let pattern = parse_pattern(&self.pattern)?;
        check_pattern_fits(pattern.as_ref(), topo.as_ref())?;
        for a in &self.algorithms {
            match self.engine {
                Engine::Wormhole => {
                    parse_algorithm(&a.name, topo.as_ref())?;
                }
                Engine::VirtualChannel => {
                    parse_vc_algorithm(&a.name, topo.as_ref())?;
                }
            }
        }
        let has_faults = self.faults_spec.is_some() || !self.fault_axis.is_empty();
        if has_faults && self.engine == Engine::VirtualChannel {
            return Err(SpecError::invalid(
                "faults",
                "fault plans are not supported by the virtual-channel engine",
            ));
        }
        if self.faults_spec.is_some() && !self.fault_axis.is_empty() {
            return Err(SpecError::invalid(
                "faults",
                "an explicit fault plan and a fault axis are mutually exclusive",
            ));
        }
        if let Some(fs) = &self.faults_spec {
            parse_faults(fs, topo.as_ref())?;
        }
        for &count in &self.fault_axis {
            if count == 0 {
                continue;
            }
            FaultPlan::new()
                .random_channels(count as usize, self.fault_seed)
                .compile(topo.as_ref())
                .map_err(|e| SpecError::invalid("fault_axis", e.to_string()))?;
        }
        Ok(())
    }

    /// Runs the experiment on `threads` workers.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] if a name no longer resolves (cannot
    /// happen for a spec that came out of the builder unmodified).
    pub fn run(&self, threads: usize) -> Result<Vec<SweepSeries>, SpecError> {
        Experiment::run(self, threads)
    }

    /// Runs the experiment on an existing executor (to share a cell
    /// cache, progress surface, or statistics across several specs).
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] if a name no longer resolves (cannot
    /// happen for a spec that came out of the builder unmodified).
    pub fn run_on(&self, executor: &mut Executor) -> Result<Vec<SweepSeries>, SpecError> {
        Experiment::run_on(self, executor)
    }

    /// Total number of sweep cells the executor will schedule: one per
    /// (algorithm × fault setting × load).
    pub fn num_cells(&self) -> usize {
        let fault_settings = if self.faults_spec.is_some() {
            1
        } else {
            self.fault_axis.len().max(1)
        };
        self.algorithms.len() * fault_settings * self.loads.len()
    }

    /// Serializes the spec as one canonical JSON document: fixed field
    /// order, no whitespace, every API field explicit.
    ///
    /// Only the API-visible [`SimConfig`] fields (`seed`,
    /// `warmup_cycles`, `measure_cycles`, `shards`) appear in the
    /// document; non-API fields (length distribution, selection
    /// policies) are covered by [`ExperimentSpec::fingerprint`]
    /// instead. A round-trip through [`ExperimentSpec::from_json`]
    /// reproduces the document byte for byte.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(256);
        let _ = write!(out, "{{\"spec_version\":{SPEC_SCHEMA_VERSION}");
        let _ = write!(out, ",\"topology\":{}", json::escape(&self.topology));
        let _ = write!(out, ",\"pattern\":{}", json::escape(&self.pattern));
        out.push_str(",\"algorithms\":[");
        for (i, a) in self.algorithms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"name\":{}", json::escape(&a.name));
            match &a.label {
                Some(label) => {
                    let _ = write!(out, ",\"label\":{}}}", json::escape(label));
                }
                None => out.push_str(",\"label\":null}"),
            }
        }
        out.push_str("],\"loads\":[");
        for (i, l) in self.loads.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            // Shortest round-trip rendering: parses back to the same
            // f64 bits, so the canonical document is load-exact.
            let _ = write!(out, "{l}");
        }
        let _ = write!(out, "],\"engine\":\"{}\"", self.engine.as_str());
        let _ = write!(
            out,
            ",\"config\":{{\"seed\":{},\"warmup_cycles\":{},\"measure_cycles\":{},\"shards\":{},\
             \"traffic\":{}}}",
            self.config.seed,
            self.config.warmup_cycles,
            self.config.measure_cycles,
            self.config.shards,
            json::escape(&self.config.traffic.as_spec())
        );
        out.push_str(",\"fault_axis\":[");
        for (i, c) in self.fault_axis.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{c}");
        }
        let _ = write!(out, "],\"fault_seed\":{}", self.fault_seed);
        match &self.faults_spec {
            Some(fs) => {
                let _ = write!(out, ",\"faults\":{}}}", json::escape(fs));
            }
            None => out.push_str(",\"faults\":null}"),
        }
        out
    }

    /// Deserializes and validates a spec from its JSON wire format.
    ///
    /// Unknown fields — at the top level, inside `config`, or inside an
    /// algorithm entry — are rejected with [`SpecError::UnknownField`];
    /// duplicated fields and type mismatches with
    /// [`SpecError::Malformed`]; and the result goes through the same
    /// validation as [`ExperimentSpecBuilder::build`].
    pub fn from_json(text: &str) -> Result<Self, SpecError> {
        let doc = json::parse(text).map_err(|e| SpecError::Malformed(e.to_string()))?;
        let fields = doc
            .as_obj()
            .ok_or_else(|| SpecError::Malformed("the spec must be a JSON object".into()))?;
        let mut topology: Option<String> = None;
        let mut pattern: Option<String> = None;
        let mut algorithms: Option<Vec<AlgorithmSpec>> = None;
        let mut loads: Option<Vec<f64>> = None;
        let mut engine = Engine::Wormhole;
        let mut config = SimConfig::paper();
        let mut fault_axis: Vec<u64> = Vec::new();
        let mut fault_seed = DEFAULT_FAULT_SEED;
        let mut faults_spec: Option<String> = None;
        let mut seen: Vec<&str> = Vec::new();
        for (key, value) in fields {
            if seen.contains(&key.as_str()) {
                return Err(SpecError::Malformed(format!("duplicate field '{key}'")));
            }
            match key.as_str() {
                "spec_version" => {
                    let v = value.as_u64().ok_or_else(|| malformed(key, "an integer"))?;
                    if v != SPEC_SCHEMA_VERSION {
                        return Err(SpecError::invalid(
                            "spec_version",
                            format!(
                                "version {v} is not supported \
                                 (this build speaks {SPEC_SCHEMA_VERSION})"
                            ),
                        ));
                    }
                }
                "topology" => topology = Some(require_str(key, value)?),
                "pattern" => pattern = Some(require_str(key, value)?),
                "algorithms" => {
                    let items = value.as_arr().ok_or_else(|| malformed(key, "an array"))?;
                    let mut list = Vec::with_capacity(items.len());
                    for item in items {
                        list.push(parse_algorithm_entry(item)?);
                    }
                    algorithms = Some(list);
                }
                "loads" => {
                    let items = value.as_arr().ok_or_else(|| malformed(key, "an array"))?;
                    let mut list = Vec::with_capacity(items.len());
                    for item in items {
                        list.push(
                            item.as_f64()
                                .ok_or_else(|| malformed("loads", "an array of numbers"))?,
                        );
                    }
                    loads = Some(list);
                }
                "engine" => {
                    let name = require_str(key, value)?;
                    engine = Engine::from_name(&name).ok_or_else(|| {
                        SpecError::invalid(
                            "engine",
                            format!("unknown engine '{name}' (wormhole | vc)"),
                        )
                    })?;
                }
                "config" => {
                    let entries = value.as_obj().ok_or_else(|| malformed(key, "an object"))?;
                    let mut cfg_seen: Vec<&str> = Vec::new();
                    for (ck, cv) in entries {
                        if cfg_seen.contains(&ck.as_str()) {
                            return Err(SpecError::Malformed(format!(
                                "duplicate field 'config.{ck}'"
                            )));
                        }
                        let int = |field: &'static str| {
                            cv.as_u64().ok_or_else(|| malformed(field, "an integer"))
                        };
                        match ck.as_str() {
                            "seed" => config = config.seed(int("config.seed")?),
                            "warmup_cycles" => {
                                config = config.warmup_cycles(int("config.warmup_cycles")?)
                            }
                            "measure_cycles" => {
                                config = config.measure_cycles(int("config.measure_cycles")?)
                            }
                            // Older documents simply omit this; the
                            // builder default (1, serial) applies.
                            "shards" => {
                                let shards = usize::try_from(int("config.shards")?)
                                    .map_err(|_| malformed("config.shards", "a shard count"))?;
                                config = config.shards(shards);
                            }
                            // Likewise absent from older documents;
                            // defaults to Poisson arrivals.
                            "traffic" => {
                                let spec = cv
                                    .as_str()
                                    .ok_or_else(|| malformed("config.traffic", "a string"))?;
                                config = config.traffic(parse_traffic(spec)?);
                            }
                            other => {
                                return Err(SpecError::UnknownField(format!("config.{other}")))
                            }
                        }
                        cfg_seen.push(ck.as_str());
                    }
                }
                "fault_axis" => {
                    let items = value.as_arr().ok_or_else(|| malformed(key, "an array"))?;
                    fault_axis = items
                        .iter()
                        .map(|v| {
                            v.as_u64()
                                .ok_or_else(|| malformed("fault_axis", "an array of counts"))
                        })
                        .collect::<Result<_, _>>()?;
                }
                "fault_seed" => {
                    fault_seed = value.as_u64().ok_or_else(|| malformed(key, "an integer"))?;
                }
                "faults" => {
                    if !value.is_null() {
                        faults_spec = Some(require_str(key, value)?);
                    }
                }
                other => return Err(SpecError::UnknownField(other.to_owned())),
            }
            seen.push(key.as_str());
        }
        let topology =
            topology.ok_or_else(|| SpecError::invalid("topology", "field is required"))?;
        let pattern = pattern.ok_or_else(|| SpecError::invalid("pattern", "field is required"))?;
        let mut builder = ExperimentSpec::builder(topology, pattern)
            .loads(&loads.unwrap_or_default())
            .config(config)
            .engine(engine)
            .fault_axis(&fault_axis)
            .fault_seed(fault_seed);
        for a in algorithms.unwrap_or_default() {
            builder = match a.label {
                Some(label) => builder.algorithm_as(label, a.name),
                None => builder.algorithm(a.name),
            };
        }
        if let Some(fs) = faults_spec {
            builder = builder.faults(fs);
        }
        builder.build()
    }

    /// A 128-bit content fingerprint of the spec, as 32 hex characters.
    ///
    /// Folds the canonical JSON document plus a canonicalized rendering
    /// of the *full* [`SimConfig`] (per-cell and route-table speed
    /// knobs zeroed, exactly like the executor's cell cache keys), so
    /// two specs share a fingerprint only if they produce byte-identical
    /// reports. This is the content-addressed result-store key in
    /// `turnroute-serve`. The shard count is canonicalized away in both
    /// inputs — reports are bit-identical at every value, so specs
    /// differing only in `shards` address the same stored result.
    pub fn fingerprint(&self) -> String {
        let mut wire = self.clone();
        wire.config.shards = 1;
        let canonical_config = format!(
            "{:?}",
            self.config
                .clone()
                .injection_rate(0.0)
                .route_table(turnroute_sim::RouteTableMode::Auto)
                .route_table_budget(turnroute_sim::DEFAULT_ROUTE_TABLE_BUDGET)
                .shards(1)
        );
        let mut lane_a = 0x5EED_50EC_0000_0001u64;
        let mut lane_b = 0x5EED_50EC_0000_0002u64;
        let mut feed = |bytes: &[u8]| {
            for chunk in bytes.chunks(8) {
                let mut word = [0u8; 8];
                word[..chunk.len()].copy_from_slice(chunk);
                let w = u64::from_le_bytes(word);
                lane_a ^= w;
                split_mix_64(&mut lane_a);
                lane_b ^= w.rotate_left(17);
                split_mix_64(&mut lane_b);
            }
            lane_a ^= bytes.len() as u64;
            split_mix_64(&mut lane_a);
        };
        feed(wire.to_json().as_bytes());
        feed(canonical_config.as_bytes());
        format!("{lane_a:016x}{lane_b:016x}")
    }
}

fn require_str(key: &str, value: &Value) -> Result<String, SpecError> {
    value
        .as_str()
        .map(str::to_owned)
        .ok_or_else(|| malformed(key, "a string"))
}

fn malformed(key: &str, expected: &str) -> SpecError {
    SpecError::Malformed(format!("field '{key}' must be {expected}"))
}

/// Parses one `algorithms` entry: either a bare name string or an
/// object `{"name": ..., "label": ...}`.
fn parse_algorithm_entry(item: &Value) -> Result<AlgorithmSpec, SpecError> {
    if let Some(name) = item.as_str() {
        return Ok(AlgorithmSpec {
            name: name.to_owned(),
            label: None,
        });
    }
    let fields = item.as_obj().ok_or_else(|| {
        SpecError::Malformed("each algorithm must be a name string or an object".into())
    })?;
    let mut name: Option<String> = None;
    let mut label: Option<String> = None;
    for (key, value) in fields {
        match key.as_str() {
            "name" => name = Some(require_str("algorithms[].name", value)?),
            "label" => {
                if !value.is_null() {
                    label = Some(require_str("algorithms[].label", value)?);
                }
            }
            other => return Err(SpecError::UnknownField(format!("algorithms[].{other}"))),
        }
    }
    Ok(AlgorithmSpec {
        name: name.ok_or_else(|| SpecError::invalid("algorithms", "entry is missing 'name'"))?,
        label,
    })
}

/// The entry point that resolves an [`ExperimentSpec`] and executes it.
#[derive(Debug)]
pub struct Experiment;

impl Experiment {
    /// Resolves `spec` through the CLI parsers and runs the full
    /// (algorithm × load) grid on `threads` workers, returning one
    /// series per algorithm in spec order.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] if any name in the spec does not resolve.
    pub fn run(spec: &ExperimentSpec, threads: usize) -> Result<Vec<SweepSeries>, SpecError> {
        Self::run_on(spec, &mut Executor::new(threads))
    }

    /// Like [`Experiment::run`], but on a caller-supplied executor so
    /// several experiments can share one [`turnroute_sim::CellCache`]
    /// and one set of [`turnroute_sim::ExecStats`].
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] if any name in the spec does not resolve.
    pub fn run_on(
        spec: &ExperimentSpec,
        executor: &mut Executor,
    ) -> Result<Vec<SweepSeries>, SpecError> {
        spec.validate()?;
        let topo = parse_topology(&spec.topology)?;
        let pattern = parse_pattern(&spec.pattern)?;
        // The fault settings every algorithm is swept under: one entry
        // per series within each algorithm. Fault-axis draws use one
        // seed for every count, so the failed sets nest (count k is a
        // subset of count k + 1) and are identical across algorithms.
        let schedules: Vec<Option<Arc<FaultSchedule>>> = if let Some(fs) = &spec.faults_spec {
            vec![Some(Arc::new(parse_faults(fs, topo.as_ref())?))]
        } else if !spec.fault_axis.is_empty() {
            spec.fault_axis
                .iter()
                .map(|&count| {
                    if count == 0 {
                        return Ok(None);
                    }
                    FaultPlan::new()
                        .random_channels(count as usize, spec.fault_seed)
                        .compile(topo.as_ref())
                        .map(|s| Some(Arc::new(s)))
                        .map_err(|e| SpecError::invalid("fault_axis", e.to_string()))
                })
                .collect::<Result<_, _>>()?
        } else {
            vec![None]
        };
        let mut series = match spec.engine {
            Engine::Wormhole => {
                let algos: Vec<Box<dyn RoutingAlgorithm>> = spec
                    .algorithms
                    .iter()
                    .map(|a| parse_algorithm(&a.name, topo.as_ref()))
                    .collect::<Result<_, _>>()?;
                let mut jobs: Vec<SeriesJob<'_>> = Vec::new();
                for a in &algos {
                    for schedule in &schedules {
                        let cfg = spec
                            .config
                            .clone()
                            .fault_schedule(schedule.clone())
                            .shards(executor.cell_shards(spec.config.shards));
                        // Series-level fault columns: the cycle-0 fault
                        // count and how many (src, dst) pairs the
                        // verifier proves unroutable under it.
                        let (faults, disconnected) = match schedule.as_deref() {
                            Some(s) => {
                                let report =
                                    verify(topo.as_ref(), a.as_ref(), &s.failed_at_start());
                                (
                                    s.failed_count_at_start() as u64,
                                    report.disconnected.len() as u64,
                                )
                            }
                            None => (0, 0),
                        };
                        jobs.push(
                            SeriesJob::simulation(
                                topo.as_ref(),
                                a.as_ref(),
                                pattern.as_ref(),
                                &cfg,
                                &spec.loads,
                            )
                            .with_fault_info(faults, disconnected),
                        );
                    }
                }
                executor.run(jobs)
            }
            Engine::VirtualChannel => {
                let algos: Vec<Box<dyn VcRoutingAlgorithm>> = spec
                    .algorithms
                    .iter()
                    .map(|a| parse_vc_algorithm(&a.name, topo.as_ref()))
                    .collect::<Result<_, _>>()?;
                let jobs: Vec<SeriesJob<'_>> = algos
                    .iter()
                    .map(|a| {
                        vc_series_job(
                            topo.as_ref(),
                            a.as_ref(),
                            pattern.as_ref(),
                            &spec.config,
                            &spec.loads,
                        )
                    })
                    .collect();
                executor.run(jobs)
            }
        };
        // One algorithm spawns one series per fault setting; relabel
        // each whole block.
        let per_algo = series.len() / spec.algorithms.len().max(1);
        for (i, s) in series.iter_mut().enumerate() {
            if let Some(label) = &spec.algorithms[i / per_algo.max(1)].label {
                s.algorithm = label.clone();
            }
        }
        Ok(series)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use turnroute_sim::report::write_csv;

    fn quick() -> SimConfig {
        SimConfig::paper()
            .warmup_cycles(500)
            .measure_cycles(2_000)
            .seed(11)
    }

    fn mesh_spec() -> ExperimentSpec {
        ExperimentSpec::builder("mesh:6x6", "transpose")
            .algorithm("xy")
            .algorithm_as("wf", "west-first")
            .loads(&[0.01, 0.03])
            .config(quick())
            .build()
            .unwrap()
    }

    #[test]
    fn resolves_and_labels_series_in_spec_order() {
        let series = mesh_spec().run(1).unwrap();
        assert_eq!(series.len(), 2);
        // Unlabelled series carry the resolved algorithm's own name.
        assert_eq!(series[0].algorithm, "dimension-order");
        assert_eq!(series[1].algorithm, "wf");
        assert!(series.iter().all(|s| s.points.len() == 2));
        assert!(series.iter().all(|s| s.pattern == "matrix-transpose"));
    }

    #[test]
    fn thread_count_does_not_change_the_bytes() {
        let spec = mesh_spec();
        let mut csv1 = Vec::new();
        let mut csv4 = Vec::new();
        write_csv(&spec.run(1).unwrap(), &mut csv1).unwrap();
        write_csv(&spec.run(4).unwrap(), &mut csv4).unwrap();
        assert_eq!(csv1, csv4);
    }

    #[test]
    fn relabelling_does_not_change_the_numbers() {
        let plain = ExperimentSpec::builder("mesh:6x6", "uniform")
            .algorithm("negative-first")
            .loads(&[0.02])
            .config(quick())
            .build()
            .unwrap();
        let labelled = ExperimentSpec::builder("mesh:6x6", "uniform")
            .algorithm_as("nf (paper)", "negative-first")
            .loads(&[0.02])
            .config(quick())
            .build()
            .unwrap();
        let a = plain.run(1).unwrap().remove(0);
        let b = labelled.run(1).unwrap().remove(0);
        assert_eq!(b.algorithm, "nf (paper)");
        assert_eq!(a.points[0].throughput, b.points[0].throughput);
        assert_eq!(a.points[0].avg_latency_usec, b.points[0].avg_latency_usec);
    }

    #[test]
    fn vc_engine_accepts_lane_algorithms_and_plain_names() {
        let series = ExperimentSpec::builder("mesh:6x6", "uniform")
            .algorithm("mad-y")
            .algorithm("xy")
            .loads(&[0.02])
            .config(quick())
            .engine(Engine::VirtualChannel)
            .build()
            .unwrap()
            .run(2)
            .unwrap();
        assert_eq!(series.len(), 2);
        assert!(series.iter().all(|s| s.points[0].sustainable));
    }

    #[test]
    fn fault_axis_multiplies_series_and_labels_blocks() {
        let spec = ExperimentSpec::builder("mesh:6x6", "uniform")
            .algorithm("xy")
            .algorithm_as("wf", "west-first")
            .loads(&[0.02])
            .config(quick())
            .fault_axis(&[0, 2, 4])
            .build()
            .unwrap();
        assert_eq!(spec.num_cells(), 6);
        let series = spec.run(2).unwrap();
        // One series per (algorithm, fault count): algorithms outer,
        // counts inner, relabelling applied per block.
        assert_eq!(series.len(), 6);
        let names: Vec<&str> = series.iter().map(|s| s.algorithm.as_str()).collect();
        assert_eq!(
            names,
            [
                "dimension-order",
                "dimension-order",
                "dimension-order",
                "wf",
                "wf",
                "wf"
            ]
        );
        let faults: Vec<u64> = series.iter().map(|s| s.faults).collect();
        assert_eq!(faults, [0, 2, 4, 0, 2, 4]);
        // Deterministic xy loses pairs for any failed channel, and the
        // nested fault sets lose monotonically more.
        assert_eq!(series[0].disconnected, 0);
        assert!(series[1].disconnected > 0);
        assert!(series[2].disconnected >= series[1].disconnected);
        // One fault seed for the whole axis: the same channels fail
        // under every algorithm.
        assert_eq!(series[1].faults, series[4].faults);
        assert!(series[0].points[0].delivered > 0);
    }

    #[test]
    fn explicit_fault_plan_applies_to_every_series() {
        let series = ExperimentSpec::builder("mesh:6x6", "uniform")
            .algorithm("xy")
            .algorithm("west-first")
            .loads(&[0.02])
            .config(quick())
            .faults("random:3:7")
            .build()
            .unwrap()
            .run(1)
            .unwrap();
        assert_eq!(series.len(), 2);
        assert!(series.iter().all(|s| s.faults == 3));
    }

    #[test]
    fn vc_algorithms_on_the_wrong_topology_are_parse_errors() {
        for (topology, algorithm) in [("torus:8,2", "mad-y"), ("mesh:6x6", "dateline")] {
            let err = ExperimentSpec::builder(topology, "uniform")
                .algorithm(algorithm)
                .loads(&[0.02])
                .config(quick())
                .engine(Engine::VirtualChannel)
                .build()
                .unwrap_err();
            assert_eq!(err.kind(), "parse", "{algorithm} on {topology}: {err}");
            assert!(err.to_string().contains(algorithm), "{err}");
        }
    }

    #[test]
    fn fault_plan_conflicts_are_rejected_as_typed_errors() {
        // The VC engine has no fault support.
        let err = ExperimentSpec::builder("mesh:6x6", "uniform")
            .algorithm("mad-y")
            .loads(&[0.02])
            .config(quick())
            .engine(Engine::VirtualChannel)
            .fault_axis(&[2])
            .build()
            .unwrap_err();
        assert_eq!(err.kind(), "invalid");
        // An explicit plan and a fault axis are mutually exclusive.
        let err = ExperimentSpec::builder("mesh:6x6", "uniform")
            .algorithm("xy")
            .loads(&[0.02])
            .config(quick())
            .faults("chan:3")
            .fault_axis(&[2])
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            SpecError::Invalid {
                field: "faults",
                ..
            }
        ));
        // A malformed plan surfaces as a parse error.
        let err = ExperimentSpec::builder("mesh:6x6", "uniform")
            .algorithm("xy")
            .loads(&[0.02])
            .config(quick())
            .faults("laser:3")
            .build()
            .unwrap_err();
        assert_eq!(err.kind(), "parse");
    }

    #[test]
    fn bad_names_surface_as_parse_errors() {
        for builder in [
            ExperimentSpec::builder("mesh:6x6", "uniform")
                .algorithm("frobnicate")
                .loads(&[0.02]),
            ExperimentSpec::builder("blob:9", "uniform")
                .algorithm("xy")
                .loads(&[0.02]),
            ExperimentSpec::builder("mesh:6x6", "noise")
                .algorithm("xy")
                .loads(&[0.02]),
            // Lane algorithms only exist in the VC engine.
            ExperimentSpec::builder("mesh:6x6", "uniform")
                .algorithm("mad-y")
                .loads(&[0.02]),
        ] {
            assert!(matches!(builder.build(), Err(SpecError::Parse(_))));
        }
    }

    #[test]
    fn structural_violations_are_typed() {
        let err = ExperimentSpec::builder("mesh:6x6", "uniform")
            .loads(&[0.02])
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            SpecError::Invalid {
                field: "algorithms",
                ..
            }
        ));
        let err = ExperimentSpec::builder("mesh:6x6", "uniform")
            .algorithm("xy")
            .build()
            .unwrap_err();
        assert!(matches!(err, SpecError::Invalid { field: "loads", .. }));
        for bad_loads in [&[0.2, 0.1][..], &[0.1, 0.1], &[-0.5], &[f64::NAN]] {
            let err = ExperimentSpec::builder("mesh:6x6", "uniform")
                .algorithm("xy")
                .loads(bad_loads)
                .build()
                .unwrap_err();
            assert!(
                matches!(err, SpecError::Invalid { field: "loads", .. }),
                "{bad_loads:?}"
            );
        }
        let err = ExperimentSpec::builder("mesh:6x6", "uniform")
            .algorithm("xy")
            .loads(&[0.02])
            .config(SimConfig::paper().measure_cycles(0))
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            SpecError::Invalid {
                field: "config",
                ..
            }
        ));
    }

    #[test]
    fn json_round_trips_canonically() {
        let spec = ExperimentSpec::builder("mesh:6x6", "uniform")
            .algorithm("xy")
            .algorithm_as("wf", "west-first")
            .loads(&[0.01, 0.025])
            .config(quick())
            .fault_axis(&[0, 2])
            .fault_seed(99)
            .build()
            .unwrap();
        let doc = spec.to_json();
        let back = ExperimentSpec::from_json(&doc).unwrap();
        assert_eq!(back.to_json(), doc);
        assert_eq!(back.fingerprint(), spec.fingerprint());
        // The document is valid JSON for the crate's own parser.
        assert!(crate::json::parse(&doc).is_ok());
    }

    #[test]
    fn from_json_accepts_bare_algorithm_names_and_defaults() {
        let spec = ExperimentSpec::from_json(
            r#"{"topology": "mesh:6x6", "pattern": "uniform",
                "algorithms": ["xy"], "loads": [0.02]}"#,
        )
        .unwrap();
        assert_eq!(spec.engine, Engine::Wormhole);
        assert_eq!(spec.fault_seed, DEFAULT_FAULT_SEED);
        assert_eq!(spec.config.seed, SimConfig::paper().seed);
        assert_eq!(spec.algorithms[0].name, "xy");
        assert_eq!(spec.algorithms[0].label, None);
    }

    #[test]
    fn from_json_rejects_unknown_and_duplicate_fields() {
        let err = ExperimentSpec::from_json(
            r#"{"topology": "mesh:6x6", "pattern": "uniform",
                "algorithms": ["xy"], "loads": [0.02], "turbo": true}"#,
        )
        .unwrap_err();
        assert_eq!(err, SpecError::UnknownField("turbo".into()));
        let err = ExperimentSpec::from_json(
            r#"{"topology": "mesh:6x6", "pattern": "uniform",
                "algorithms": ["xy"], "loads": [0.02],
                "config": {"seed": 1, "frobs": 2}}"#,
        )
        .unwrap_err();
        assert_eq!(err, SpecError::UnknownField("config.frobs".into()));
        let err = ExperimentSpec::from_json(
            r#"{"topology": "mesh:6x6", "topology": "mesh:8x8",
                "pattern": "uniform", "algorithms": ["xy"], "loads": [0.02]}"#,
        )
        .unwrap_err();
        assert_eq!(err.kind(), "malformed");
        let err = ExperimentSpec::from_json(
            r#"{"topology": "mesh:6x6", "pattern": "uniform",
                "algorithms": [{"name": "xy", "colour": "red"}], "loads": [0.02]}"#,
        )
        .unwrap_err();
        assert_eq!(err, SpecError::UnknownField("algorithms[].colour".into()));
    }

    #[test]
    fn from_json_rejects_bad_documents_with_typed_errors() {
        assert_eq!(
            ExperimentSpec::from_json("[1, 2").unwrap_err().kind(),
            "malformed"
        );
        assert_eq!(
            ExperimentSpec::from_json("[]").unwrap_err().kind(),
            "malformed"
        );
        let err = ExperimentSpec::from_json(
            r#"{"pattern": "uniform", "algorithms": ["xy"], "loads": [0.02]}"#,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            SpecError::Invalid {
                field: "topology",
                ..
            }
        ));
        let err = ExperimentSpec::from_json(
            r#"{"topology": "mesh:6x6", "pattern": "uniform",
                "algorithms": ["xy"], "loads": [0.02], "spec_version": 99}"#,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            SpecError::Invalid {
                field: "spec_version",
                ..
            }
        ));
        let err = ExperimentSpec::from_json(
            r#"{"topology": "mesh:6x6", "pattern": "uniform",
                "algorithms": ["frobnicate"], "loads": [0.02]}"#,
        )
        .unwrap_err();
        assert_eq!(err.kind(), "parse");
    }

    #[test]
    fn fingerprints_are_content_addressed() {
        let base = || {
            ExperimentSpec::builder("mesh:6x6", "uniform")
                .algorithm("xy")
                .loads(&[0.02])
                .config(quick())
        };
        let a = base().build().unwrap();
        assert_eq!(a.fingerprint(), base().build().unwrap().fingerprint());
        assert_eq!(a.fingerprint().len(), 32);
        let variants = [
            base().algorithm("west-first").build().unwrap(),
            base().loads(&[0.02, 0.03]).build().unwrap(),
            base().config(quick().seed(12)).build().unwrap(),
            base().fault_axis(&[0, 2]).build().unwrap(),
            ExperimentSpec::builder("mesh:8x8", "uniform")
                .algorithm("xy")
                .loads(&[0.02])
                .config(quick())
                .build()
                .unwrap(),
        ];
        for v in &variants {
            assert_ne!(a.fingerprint(), v.fingerprint());
        }
        // Non-API config fields change the fingerprint even though the
        // JSON document cannot express them.
        let exotic = base()
            .config(quick().deadlock_threshold(123_456))
            .build()
            .unwrap();
        assert_eq!(exotic.to_json(), a.to_json());
        assert_ne!(exotic.fingerprint(), a.fingerprint());
    }

    #[test]
    fn shards_round_trip_but_share_fingerprints() {
        let base = |shards: usize| {
            ExperimentSpec::builder("mesh:6x6", "uniform")
                .algorithm("xy")
                .loads(&[0.02])
                .config(quick().shards(shards))
                .build()
                .unwrap()
        };
        let serial = base(1);
        let sharded = base(8);
        // The wire format carries the knob (server jobs pick it up)...
        assert!(sharded.to_json().contains("\"shards\":8"));
        let round = ExperimentSpec::from_json(&sharded.to_json()).unwrap();
        assert_eq!(round.to_json(), sharded.to_json());
        assert_eq!(round.config.shards, 8);
        // ...but the fingerprint canonicalizes it away: reports are
        // bit-identical at every shard count, so both specs address the
        // same stored result.
        assert_eq!(serial.fingerprint(), sharded.fingerprint());
        // Older documents without the field default to serial.
        let old = ExperimentSpec::from_json(
            r#"{"topology": "mesh:6x6", "pattern": "uniform",
                "algorithms": ["xy"], "loads": [0.02],
                "config": {"seed": 5}}"#,
        )
        .unwrap();
        assert_eq!(old.config.shards, 1);
    }

    #[test]
    fn traffic_models_round_trip_and_address_distinct_results() {
        use turnroute_sim::TrafficModel;
        let base = |traffic: TrafficModel| {
            ExperimentSpec::builder("mesh:6x6", "uniform")
                .algorithm("xy")
                .loads(&[0.02])
                .config(quick().traffic(traffic))
                .build()
                .unwrap()
        };
        let poisson = base(TrafficModel::Poisson);
        let mmpp = base(TrafficModel::Mmpp {
            burst_cycles: 120.0,
            idle_cycles: 480.0,
        });
        assert!(poisson.to_json().contains("\"traffic\":\"poisson\""));
        assert!(mmpp.to_json().contains("\"traffic\":\"mmpp:120,480\""));
        let round = ExperimentSpec::from_json(&mmpp.to_json()).unwrap();
        assert_eq!(round.to_json(), mmpp.to_json());
        assert_eq!(round.config.traffic, mmpp.config.traffic);
        // Unlike shards, the model changes the arrival process, so it
        // participates in content addressing: a bursty run must not be
        // served from a Poisson run's stored report.
        assert_ne!(poisson.fingerprint(), mmpp.fingerprint());
        assert_ne!(
            mmpp.fingerprint(),
            base(TrafficModel::Mmpp {
                burst_cycles: 240.0,
                idle_cycles: 480.0,
            })
            .fingerprint()
        );
        // Older documents without the field default to Poisson arrivals.
        let old = ExperimentSpec::from_json(
            r#"{"topology": "mesh:6x6", "pattern": "uniform",
                "algorithms": ["xy"], "loads": [0.02],
                "config": {"seed": 5}}"#,
        )
        .unwrap();
        assert_eq!(old.config.traffic, TrafficModel::Poisson);
    }

    #[test]
    fn bad_traffic_documents_are_typed_errors() {
        let doc = |traffic: &str| {
            format!(
                r#"{{"topology": "mesh:6x6", "pattern": "uniform",
                    "algorithms": ["xy"], "loads": [0.02],
                    "config": {{"traffic": {traffic}}}}}"#
            )
        };
        for bad in ["\"mmpp:0,480\"", "\"mmpp:120\"", "\"voip\"", "\"mmpp:a,b\""] {
            let err = ExperimentSpec::from_json(&doc(bad)).unwrap_err();
            assert_eq!(err.kind(), "parse", "{bad}");
        }
        let err = ExperimentSpec::from_json(&doc("7")).unwrap_err();
        assert_eq!(err.kind(), "malformed");
        // A spec built with a bad model in code fails validation too.
        let err = ExperimentSpec::builder("mesh:6x6", "uniform")
            .algorithm("xy")
            .loads(&[0.02])
            .config(quick().traffic(turnroute_sim::TrafficModel::Mmpp {
                burst_cycles: f64::NAN,
                idle_cycles: 480.0,
            }))
            .build()
            .unwrap_err();
        assert_eq!(err.kind(), "invalid");
    }
}
