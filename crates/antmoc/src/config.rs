//! Run configuration: the typed form of the paper's `config.yaml` input
//! (Fig. 2, "Read Configuration"), plus a small hand-rolled INI-style
//! parser so runs are reproducible from text files without extra
//! dependencies. `KNOWN_KEYS` lists every section and key; any other is
//! an error with its line.
//!
//! ```text
//! # comment
//! [model]
//! case = c5g7
//! rodded = unrodded        ; unrodded | a | b
//! fuel_rings = 1
//! sectors = 1
//! reflector_refine = 0
//! axial_dz = 14.28
//!
//! [tracks]
//! num_azim = 4
//! radial_spacing = 0.5
//! num_polar = 4
//! axial_spacing = 0.5
//!
//! [solver]
//! tolerance = 1e-5
//! max_iterations = 600
//! mode = manager           ; explicit | otf | manager
//! manager_budget_mb = 64
//! backend = device         ; cpu | device
//! device_memory_mb = 256
//! cu_mapping = sorted      ; grid | sorted
//! schedule = natural       ; natural | l3_sorted
//! tallies = auto           ; atomic | privatized | auto
//! tally_budget_mb = 256    ; privatized-buffer budget for `auto`
//! exp = intrinsic          ; intrinsic | table
//! exp_tolerance = 1e-7     ; exp-table worst-case absolute error
//! kernel = vector          ; vector (f64x4 group lanes) | scalar (conformance reference)
//! block_kb = 16            ; privatized-reduction slot-block KiB (default: cache model)
//!
//! [decomposition]
//! nx = 2
//! ny = 2
//! nz = 2
//!
//! [fault]
//! enabled = true
//! seed = 7
//! drop_p = 0.01            ; per-attempt message drop probability
//! flip_p = 0.001           ; per-attempt detected-corruption probability
//! max_retries = 4
//! backoff_us = 50
//! recv_timeout_ms = 60000
//! checkpoint_interval = 10
//! max_restarts = 4
//! kill_rank = 1            ; optional scheduled rank death...
//! kill_iteration = 8       ; ...at this iteration
//!
//! [telemetry]
//! trace = true             ; emit a Chrome trace_event timeline
//! trace_cap = 65536        ; hard cap on stored trace events
//! ```

use std::collections::HashMap;

use antmoc_cluster::fault::{FaultConfig, RankDeath};
use antmoc_cluster::LinkModel;
use antmoc_geom::c5g7::{C5g7Options, RoddedConfig};
use antmoc_gpusim::DeviceSpec;
use antmoc_input::{CaseKind, CaseSpec};
use antmoc_quadrature::PolarType;
use antmoc_solver::device::CuMapping;
use antmoc_solver::{
    EigenOptions, ExchangeMode, ExpMode, KernelConfig, ScheduleKind, StorageMode, SweepKernel,
    TallyMode,
};
use antmoc_track::TrackParams;

/// Which execution backend runs the sweeps.
#[derive(Debug, Clone, PartialEq)]
pub enum BackendConfig {
    Cpu,
    /// One-core-per-rank sweeps (deterministic; the honest configuration
    /// for measured scaling and fault-replay studies).
    CpuSerial,
    Device {
        memory_bytes: u64,
        cu_mapping: CuMapping,
    },
}

/// Fault-injection and recovery settings (`[fault]`).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSettings {
    /// Master switch; everything below is ignored when false.
    pub enabled: bool,
    /// The cluster-level fault schedule.
    pub comm: FaultConfig,
    /// Checkpoint cadence in iterations (0 disables checkpointing).
    pub checkpoint_interval: usize,
    /// Rank losses to absorb before giving up.
    pub max_restarts: usize,
}

impl Default for FaultSettings {
    fn default() -> Self {
        Self {
            enabled: false,
            comm: FaultConfig::default(),
            checkpoint_interval: 10,
            max_restarts: 4,
        }
    }
}

/// Observability settings (`[telemetry]`). Tracing is off by default —
/// the timeline has a bounded but real memory cost — and can also be
/// forced on per-run with `ANTMOC_TRACE=1`.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySettings {
    /// Record an event timeline and export it as Chrome `trace_event`
    /// JSON next to the run report.
    pub trace: bool,
    /// Hard cap on stored trace events; past it new events are dropped
    /// (and counted in `trace.dropped`).
    pub trace_cap: usize,
}

impl Default for TelemetrySettings {
    fn default() -> Self {
        Self { trace: false, trace_cap: antmoc_telemetry::DEFAULT_TRACE_CAPACITY }
    }
}

/// What geometry the run solves: the hardcoded C5G7 benchmark (the
/// INI-style `[model]` section) or a declarative case file lowered
/// through `antmoc-input`.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelSpec {
    C5g7(C5g7Options),
    Lattice(Box<CaseSpec>),
}

impl ModelSpec {
    /// The C5G7 options; panics for a declarative case (callers that
    /// tweak benchmark resolution knobs only make sense on C5G7).
    pub fn c5g7(&self) -> &C5g7Options {
        match self {
            ModelSpec::C5g7(opts) => opts,
            ModelSpec::Lattice(spec) => {
                panic!("model is the declarative case {:?}, not C5G7", spec.name)
            }
        }
    }

    /// Mutable access to the C5G7 options; panics for a declarative case.
    pub fn c5g7_mut(&mut self) -> &mut C5g7Options {
        match self {
            ModelSpec::C5g7(opts) => opts,
            ModelSpec::Lattice(spec) => {
                panic!("model is the declarative case {:?}, not C5G7", spec.name)
            }
        }
    }

    /// The declarative case, if that is what the run solves.
    pub fn case(&self) -> Option<&CaseSpec> {
        match self {
            ModelSpec::C5g7(_) => None,
            ModelSpec::Lattice(spec) => Some(spec),
        }
    }
}

/// The full run configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    pub model: ModelSpec,
    /// Case label for telemetry and report metadata.
    pub case_name: String,
    pub tracks: TrackParams,
    pub eigen: EigenOptions,
    pub mode: StorageMode,
    pub backend: BackendConfig,
    /// CPU sweep dispatch order (`[solver] schedule`).
    pub schedule: ScheduleKind,
    /// Sweep tally/exp kernel settings (`[solver] tallies / exp`).
    pub kernel: KernelConfig,
    /// Spatial decomposition grid; `(1, 1, 1)` runs single-domain.
    pub decomposition: (usize, usize, usize),
    /// Boundary-exchange pipeline for decomposed runs
    /// (`[decomposition] exchange = sync | pipelined`).
    pub exchange: ExchangeMode,
    /// Simulated interconnect for the decomposed boundary-flux traffic
    /// (`[decomposition] link_latency_us / link_mb_per_s`); zero keeps
    /// the instant in-process channels.
    pub link: LinkModel,
    /// Extra equilibration sweeps for a post-solve neutron-balance check
    /// attached to the run artifact; 0 disables it (single-domain CPU
    /// runs only).
    pub balance_sweeps: usize,
    /// Whether fixed-source solves keep the fission production term
    /// (`[solver] fission`); pure shielding problems leave it off.
    pub fixed_fission: bool,
    /// Fault injection and recovery (`[fault]`); disabled by default.
    pub fault: FaultSettings,
    /// Tracing and timeline export (`[telemetry]`); off by default.
    pub telemetry: TelemetrySettings,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            model: ModelSpec::C5g7(C5g7Options::default()),
            case_name: "c5g7".into(),
            tracks: TrackParams::default(),
            eigen: EigenOptions::default(),
            mode: StorageMode::Otf,
            backend: BackendConfig::Cpu,
            schedule: ScheduleKind::Natural,
            kernel: KernelConfig::default(),
            decomposition: (1, 1, 1),
            exchange: ExchangeMode::Sync,
            link: LinkModel::default(),
            balance_sweeps: 0,
            fixed_fission: false,
            fault: FaultSettings::default(),
            telemetry: TelemetrySettings::default(),
        }
    }
}

/// A parse failure with line context.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigError {
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "config line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

/// Section -> key -> (source line, raw value); the shared intermediate
/// both the INI parser and the case-file bridge produce.
type Sections = HashMap<String, HashMap<String, (usize, String)>>;

/// Every section and key [`RunConfig`] reads: the INI sections, of which
/// all but `[model]` are also the case format's pass-through sections.
/// Anything else is a typo, rejected rather than silently ignored.
const KNOWN_KEYS: [(&str, &[&str]); 6] = [
    ("model", &["case", "rodded", "fuel_rings", "sectors", "reflector_refine", "axial_dz"]),
    ("tracks", &["num_azim", "radial_spacing", "num_polar", "axial_spacing", "polar_type"]),
    (
        "solver",
        &[
            "tolerance",
            "max_iterations",
            "mode",
            "manager_budget_mb",
            "backend",
            "device_memory_mb",
            "cu_mapping",
            "schedule",
            "tallies",
            "tally_budget_mb",
            "exp",
            "exp_tolerance",
            "kernel",
            "block_kb",
            "balance_sweeps",
            "fission",
        ],
    ),
    ("decomposition", &["nx", "ny", "nz", "exchange", "link_latency_us", "link_mb_per_s"]),
    (
        "fault",
        &[
            "enabled",
            "seed",
            "drop_p",
            "flip_p",
            "max_retries",
            "backoff_us",
            "recv_timeout_ms",
            "checkpoint_interval",
            "max_restarts",
            "kill_rank",
            "kill_iteration",
        ],
    ),
    ("telemetry", &["trace", "trace_cap"]),
];

fn known_keys(section: &str) -> Option<&'static [&'static str]> {
    KNOWN_KEYS.iter().find(|(name, _)| *name == section).map(|&(_, keys)| keys)
}

impl RunConfig {
    /// Parses the INI-style text format.
    pub fn parse(text: &str) -> Result<Self, ConfigError> {
        let mut sections: Sections = HashMap::new();
        let mut current = String::from("");
        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            // Strip comments (# or ;) and whitespace.
            let stripped = raw.split(['#', ';']).next().unwrap_or("").trim();
            if stripped.is_empty() {
                continue;
            }
            if let Some(name) = stripped.strip_prefix('[') {
                let name = name.strip_suffix(']').ok_or_else(|| ConfigError {
                    line,
                    message: format!("malformed section header {stripped:?}"),
                })?;
                current = name.trim().to_lowercase();
                if known_keys(&current).is_none() {
                    return Err(ConfigError {
                        line,
                        message: format!("unknown section [{current}]"),
                    });
                }
                sections.entry(current.clone()).or_default();
                continue;
            }
            let (key, value) = stripped.split_once('=').ok_or_else(|| ConfigError {
                line,
                message: format!("expected `key = value`, got {stripped:?}"),
            })?;
            if current.is_empty() {
                return Err(ConfigError {
                    line,
                    message: format!("key {:?} outside any [section]", key.trim()),
                });
            }
            sections
                .entry(current.clone())
                .or_default()
                .insert(key.trim().to_lowercase(), (line, value.trim().to_string()));
        }
        Self::from_sections(&sections)
    }

    /// Builds a configuration from a declarative case: the case's
    /// pass-through sections feed the same interpreter the INI format
    /// uses, the geometry sections become the model. The case is lowered
    /// once here so every reference error surfaces at config time rather
    /// than mid-pipeline.
    pub fn from_case(spec: &CaseSpec) -> Result<Self, ConfigError> {
        let mut sections: Sections = HashMap::new();
        for (name, entries) in &spec.raw {
            let sec = sections.entry(name.clone()).or_default();
            for (key, e) in entries {
                sec.insert(key.to_lowercase(), (e.line, e.value.clone()));
            }
        }
        let mut cfg = Self::from_sections(&sections)?;
        cfg.case_name = spec.name.clone();
        cfg.model = ModelSpec::Lattice(Box::new(spec.clone()));

        antmoc_input::lower(spec).map_err(|e| ConfigError {
            line: e.line,
            message: format!("({}) {}", e.context, e.message),
        })?;

        if spec.kind == CaseKind::FixedSource {
            if cfg.decomposition != (1, 1, 1) {
                return Err(ConfigError {
                    line: 0,
                    message: "fixed-source cases run single-domain; set [decomposition] to 1x1x1"
                        .into(),
                });
            }
            if matches!(cfg.backend, BackendConfig::Device { .. }) {
                return Err(ConfigError {
                    line: 0,
                    message: "fixed-source cases run on cpu or cpu-serial backends".into(),
                });
            }
        }
        if cfg.decomposition != (1, 1, 1) {
            return Err(ConfigError {
                line: 0,
                message: "declarative cases run single-domain for now; set [decomposition] to \
                          1x1x1"
                    .into(),
            });
        }
        Ok(cfg)
    }

    fn from_sections(sections: &Sections) -> Result<Self, ConfigError> {
        // Reject unknown keys before reading any; report the first by line
        // so the error does not depend on map iteration order.
        let unknown = sections
            .iter()
            .flat_map(|(sec, keys)| keys.iter().map(move |(key, &(line, _))| (line, sec, key)))
            .filter(|(_, sec, key)| !known_keys(sec).is_some_and(|k| k.contains(&key.as_str())))
            .min();
        if let Some((line, sec, key)) = unknown {
            let known = known_keys(sec).map_or_else(String::new, |k| k.join(", "));
            return Err(ConfigError {
                line,
                message: format!("unknown key {key:?} in [{sec}] (known: {known})"),
            });
        }

        let mut cfg = RunConfig::default();
        let get = |sec: &str, key: &str| -> Option<(usize, String)> {
            sections.get(sec).and_then(|s| s.get(key)).cloned()
        };
        fn parse_num<T: std::str::FromStr>(
            entry: Option<(usize, String)>,
            default: T,
        ) -> Result<T, ConfigError> {
            match entry {
                None => Ok(default),
                Some((line, v)) => v
                    .parse()
                    .map_err(|_| ConfigError { line, message: format!("could not parse {v:?}") }),
            }
        }

        // [model]
        if let Some((line, case)) = get("model", "case") {
            if case.to_lowercase() != "c5g7" {
                return Err(ConfigError { line, message: format!("unknown case {case:?}") });
            }
        }
        if let Some((line, v)) = get("model", "rodded") {
            cfg.model.c5g7_mut().config = match v.to_lowercase().as_str() {
                "unrodded" => RoddedConfig::Unrodded,
                "a" | "rodded-a" => RoddedConfig::RoddedA,
                "b" | "rodded-b" => RoddedConfig::RoddedB,
                other => {
                    return Err(ConfigError {
                        line,
                        message: format!("unknown rodded config {other:?}"),
                    })
                }
            };
        }
        let m = cfg.model.c5g7_mut();
        m.fuel_rings = parse_num(get("model", "fuel_rings"), m.fuel_rings)?;
        m.sectors = parse_num(get("model", "sectors"), m.sectors)?;
        m.reflector_refine = parse_num(get("model", "reflector_refine"), m.reflector_refine)?;
        m.axial_dz = parse_num(get("model", "axial_dz"), m.axial_dz)?;

        // [tracks]
        cfg.tracks.num_azim = parse_num(get("tracks", "num_azim"), cfg.tracks.num_azim)?;
        cfg.tracks.radial_spacing =
            parse_num(get("tracks", "radial_spacing"), cfg.tracks.radial_spacing)?;
        cfg.tracks.num_polar = parse_num(get("tracks", "num_polar"), cfg.tracks.num_polar)?;
        cfg.tracks.axial_spacing =
            parse_num(get("tracks", "axial_spacing"), cfg.tracks.axial_spacing)?;
        if let Some((line, v)) = get("tracks", "polar_type") {
            cfg.tracks.polar_type = match v.to_lowercase().as_str() {
                "gauss" | "gauss-legendre" | "gl" => PolarType::GaussLegendre,
                "ty" | "tabuchi-yamamoto" => PolarType::TabuchiYamamoto,
                "equal" => PolarType::EqualWeight,
                other => {
                    return Err(ConfigError {
                        line,
                        message: format!("unknown polar type {other:?}"),
                    })
                }
            };
        }

        // [solver]
        cfg.eigen.tolerance = parse_num(get("solver", "tolerance"), cfg.eigen.tolerance)?;
        cfg.eigen.max_iterations =
            parse_num(get("solver", "max_iterations"), cfg.eigen.max_iterations)?;
        let budget_mb: u64 = parse_num(get("solver", "manager_budget_mb"), 64u64)?;
        if let Some((line, v)) = get("solver", "mode") {
            cfg.mode = match v.to_lowercase().as_str() {
                "explicit" | "exp" => StorageMode::Explicit,
                "otf" => StorageMode::Otf,
                "manager" => StorageMode::Manager { budget_bytes: budget_mb << 20 },
                other => {
                    return Err(ConfigError { line, message: format!("unknown mode {other:?}") })
                }
            };
        }
        let device_mb: u64 = parse_num(get("solver", "device_memory_mb"), 256u64)?;
        let mapping = match get("solver", "cu_mapping") {
            None => CuMapping::SegmentSorted,
            Some((line, v)) => match v.to_lowercase().as_str() {
                "grid" | "grid-stride" => CuMapping::GridStride,
                "sorted" | "l3" => CuMapping::SegmentSorted,
                other => {
                    return Err(ConfigError {
                        line,
                        message: format!("unknown cu mapping {other:?}"),
                    })
                }
            },
        };
        cfg.balance_sweeps = parse_num(get("solver", "balance_sweeps"), cfg.balance_sweeps)?;
        cfg.fixed_fission = parse_num(get("solver", "fission"), cfg.fixed_fission)?;
        if let Some((line, v)) = get("solver", "schedule") {
            cfg.schedule = match v.to_lowercase().as_str() {
                "natural" => ScheduleKind::Natural,
                "l3_sorted" | "l3-sorted" | "l3" => ScheduleKind::L3Sorted,
                "boundary_first" | "boundary-first" => ScheduleKind::BoundaryFirst,
                other => {
                    return Err(ConfigError {
                        line,
                        message: format!("unknown schedule {other:?}"),
                    })
                }
            };
        }
        if let Some((line, v)) = get("solver", "tallies") {
            cfg.kernel.tallies = match v.to_lowercase().as_str() {
                "atomic" => TallyMode::Atomic,
                "privatized" | "private" => TallyMode::Privatized,
                "auto" => TallyMode::Auto,
                other => {
                    return Err(ConfigError {
                        line,
                        message: format!("unknown tally mode {other:?}"),
                    })
                }
            };
        }
        let tally_budget_mb: u64 =
            parse_num(get("solver", "tally_budget_mb"), cfg.kernel.tally_budget_bytes >> 20)?;
        cfg.kernel.tally_budget_bytes = tally_budget_mb << 20;
        if let Some((line, v)) = get("solver", "exp") {
            cfg.kernel.exp = match v.to_lowercase().as_str() {
                "intrinsic" => ExpMode::Intrinsic,
                "table" => ExpMode::Table,
                other => {
                    return Err(ConfigError {
                        line,
                        message: format!("unknown exp mode {other:?}"),
                    })
                }
            };
        }
        cfg.kernel.exp_tolerance =
            parse_num(get("solver", "exp_tolerance"), cfg.kernel.exp_tolerance)?;
        if cfg.kernel.exp_tolerance <= 0.0 {
            let line = get("solver", "exp_tolerance").map_or(0, |(l, _)| l);
            return Err(ConfigError {
                line,
                message: format!("exp_tolerance must be > 0, got {}", cfg.kernel.exp_tolerance),
            });
        }
        if let Some((line, v)) = get("solver", "kernel") {
            cfg.kernel.kernel = match v.to_lowercase().as_str() {
                "scalar" => SweepKernel::Scalar,
                "vector" | "simd" => SweepKernel::Vector,
                other => {
                    return Err(ConfigError {
                        line,
                        message: format!("unknown sweep kernel {other:?}"),
                    })
                }
            };
        }
        if let Some((line, _)) = get("solver", "block_kb") {
            let block_kb: u64 = parse_num(get("solver", "block_kb"), 0)?;
            if block_kb == 0 {
                return Err(ConfigError {
                    line,
                    message: "block_kb must be >= 1 (omit the key for the cache-model default)"
                        .into(),
                });
            }
            cfg.kernel.block_bytes = Some(block_kb << 10);
        }
        if let Some((line, v)) = get("solver", "backend") {
            cfg.backend = match v.to_lowercase().as_str() {
                "cpu" => BackendConfig::Cpu,
                "cpu-serial" | "cpu_serial" | "serial" => BackendConfig::CpuSerial,
                "device" | "gpu" => {
                    BackendConfig::Device { memory_bytes: device_mb << 20, cu_mapping: mapping }
                }
                other => {
                    return Err(ConfigError { line, message: format!("unknown backend {other:?}") })
                }
            };
        }

        // [decomposition]
        cfg.decomposition = (
            parse_num(get("decomposition", "nx"), 1usize)?,
            parse_num(get("decomposition", "ny"), 1usize)?,
            parse_num(get("decomposition", "nz"), 1usize)?,
        );
        if cfg.decomposition.0 == 0 || cfg.decomposition.1 == 0 || cfg.decomposition.2 == 0 {
            return Err(ConfigError { line: 0, message: "decomposition dims must be >= 1".into() });
        }
        if let Some((line, v)) = get("decomposition", "exchange") {
            cfg.exchange = match v.to_lowercase().as_str() {
                "sync" => ExchangeMode::Sync,
                "pipelined" => ExchangeMode::Pipelined,
                other => {
                    return Err(ConfigError {
                        line,
                        message: format!("unknown exchange mode {other:?}"),
                    })
                }
            };
        }
        let link_latency_us: f64 = parse_num(get("decomposition", "link_latency_us"), 0.0)?;
        let link_mb_per_s: f64 = parse_num(get("decomposition", "link_mb_per_s"), 0.0)?;
        for (key, v) in [("link_latency_us", link_latency_us), ("link_mb_per_s", link_mb_per_s)] {
            if v < 0.0 || !v.is_finite() {
                let line = get("decomposition", key).map_or(0, |(l, _)| l);
                return Err(ConfigError {
                    line,
                    message: format!("{key} must be finite and >= 0, got {v}"),
                });
            }
        }
        cfg.link = LinkModel {
            latency: std::time::Duration::from_nanos((link_latency_us * 1000.0) as u64),
            // 1 MB/s = 1e6 bytes/s -> 1000 ns per byte; 0 means instant.
            ns_per_byte: if link_mb_per_s > 0.0 { 1000.0 / link_mb_per_s } else { 0.0 },
        };

        // [fault]
        cfg.fault.enabled = parse_num(get("fault", "enabled"), cfg.fault.enabled)?;
        cfg.fault.comm.seed = parse_num(get("fault", "seed"), cfg.fault.comm.seed)?;
        cfg.fault.comm.drop_p = parse_num(get("fault", "drop_p"), cfg.fault.comm.drop_p)?;
        cfg.fault.comm.flip_p = parse_num(get("fault", "flip_p"), cfg.fault.comm.flip_p)?;
        for (key, p) in [("drop_p", cfg.fault.comm.drop_p), ("flip_p", cfg.fault.comm.flip_p)] {
            if !(0.0..=1.0).contains(&p) {
                let line = get("fault", key).map_or(0, |(l, _)| l);
                return Err(ConfigError {
                    line,
                    message: format!("{key} must be a probability in [0, 1], got {p}"),
                });
            }
        }
        cfg.fault.comm.max_retries =
            parse_num(get("fault", "max_retries"), cfg.fault.comm.max_retries)?;
        let backoff_us: u64 =
            parse_num(get("fault", "backoff_us"), cfg.fault.comm.backoff_base.as_micros() as u64)?;
        cfg.fault.comm.backoff_base = std::time::Duration::from_micros(backoff_us);
        let timeout_ms: u64 = parse_num(
            get("fault", "recv_timeout_ms"),
            cfg.fault.comm.recv_timeout.as_millis() as u64,
        )?;
        cfg.fault.comm.recv_timeout = std::time::Duration::from_millis(timeout_ms);
        cfg.fault.checkpoint_interval =
            parse_num(get("fault", "checkpoint_interval"), cfg.fault.checkpoint_interval)?;
        cfg.fault.max_restarts = parse_num(get("fault", "max_restarts"), cfg.fault.max_restarts)?;
        let kill_rank: Option<(usize, String)> = get("fault", "kill_rank");
        let kill_iteration = get("fault", "kill_iteration");
        match (kill_rank, kill_iteration) {
            (None, None) => {}
            (Some(rank_entry), Some(it_entry)) => {
                let rank: usize = parse_num(Some(rank_entry), 0)?;
                let iteration: usize = parse_num(Some(it_entry.clone()), 0)?;
                if iteration == 0 {
                    return Err(ConfigError {
                        line: it_entry.0,
                        message: "kill_iteration must be >= 1".into(),
                    });
                }
                cfg.fault.comm.deaths.push(RankDeath { rank, iteration });
            }
            (Some((line, _)), None) | (None, Some((line, _))) => {
                return Err(ConfigError {
                    line,
                    message: "kill_rank and kill_iteration must be set together".into(),
                });
            }
        }

        // [telemetry]
        cfg.telemetry.trace = parse_num(get("telemetry", "trace"), cfg.telemetry.trace)?;
        cfg.telemetry.trace_cap =
            parse_num(get("telemetry", "trace_cap"), cfg.telemetry.trace_cap)?;
        if cfg.telemetry.trace_cap == 0 {
            let line = get("telemetry", "trace_cap").map_or(0, |(l, _)| l);
            return Err(ConfigError { line, message: "trace_cap must be >= 1".into() });
        }

        Ok(cfg)
    }

    /// The device spec implied by the backend config.
    pub fn device_spec(&self) -> Option<DeviceSpec> {
        match &self.backend {
            BackendConfig::Cpu | BackendConfig::CpuSerial => None,
            BackendConfig::Device { memory_bytes, .. } => Some(DeviceSpec::scaled(*memory_bytes)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# C5G7 validation case (Table 4 of the paper)
[model]
case = c5g7
rodded = unrodded
fuel_rings = 2
sectors = 4
axial_dz = 14.28

[tracks]
num_azim = 4
radial_spacing = 0.5
num_polar = 4
axial_spacing = 0.1   ; Table 4 axial spacing

[solver]
tolerance = 1e-5
max_iterations = 800
mode = manager
manager_budget_mb = 128
backend = device
device_memory_mb = 512
cu_mapping = sorted

[decomposition]
nx = 2
ny = 2
nz = 2
"#;

    #[test]
    fn parses_the_paper_configuration() {
        let cfg = RunConfig::parse(SAMPLE).unwrap();
        assert_eq!(cfg.model.c5g7().fuel_rings, 2);
        assert_eq!(cfg.model.c5g7().sectors, 4);
        assert_eq!(cfg.tracks.num_azim, 4);
        assert_eq!(cfg.tracks.num_polar, 4);
        assert!((cfg.tracks.axial_spacing - 0.1).abs() < 1e-12);
        assert_eq!(cfg.mode, StorageMode::Manager { budget_bytes: 128 << 20 });
        assert_eq!(cfg.decomposition, (2, 2, 2));
        match cfg.backend {
            BackendConfig::Device { memory_bytes, cu_mapping } => {
                assert_eq!(memory_bytes, 512 << 20);
                assert_eq!(cu_mapping, CuMapping::SegmentSorted);
            }
            _ => panic!("expected device backend"),
        }
    }

    #[test]
    fn defaults_apply_when_keys_missing() {
        let cfg = RunConfig::parse("[model]\ncase = c5g7\n").unwrap();
        assert_eq!(cfg, RunConfig::default());
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let cfg = RunConfig::parse("# nothing\n\n; also nothing\n").unwrap();
        assert_eq!(cfg, RunConfig::default());
    }

    #[test]
    fn bad_value_reports_line() {
        let err = RunConfig::parse("[tracks]\nnum_azim = banana\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("banana"));
    }

    #[test]
    fn bad_section_reports_line() {
        let err = RunConfig::parse("[model\n").unwrap_err();
        assert_eq!(err.line, 1);
    }

    #[test]
    fn unknown_keys_and_sections_fail_with_their_line() {
        // A misspelt key is an error, not a silent default.
        let err = RunConfig::parse("[solver]\nbackend = device\ntolerence = banana\n").unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("\"tolerence\" in [solver]"), "{err}");
        assert!(err.message.contains("tolerance"), "the known keys are listed: {err}");
        // So is a misspelt section, and a key outside any section.
        let err =
            RunConfig::parse("[model]\ncase = c5g7\n[solvr]\nbackend = device\n").unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("[solvr]"), "{err}");
        let err = RunConfig::parse("tolerance = 1e-4\n[solver]\n").unwrap_err();
        assert_eq!(err.line, 1);
        // Of several unknown keys, the first by line is reported.
        let err = RunConfig::parse("[tracks]\nnum_azim = 4\nb = 1\n[fault]\na = 1\n").unwrap_err();
        assert_eq!(err.line, 3);
    }

    #[test]
    fn unknown_enum_values_fail() {
        assert!(RunConfig::parse("[solver]\nmode = turbo\n").is_err());
        assert!(RunConfig::parse("[model]\nrodded = c\n").is_err());
        assert!(RunConfig::parse("[model]\ncase = bwr\n").is_err());
    }

    #[test]
    fn schedule_variants_parse() {
        let cfg = RunConfig::parse("[solver]\nschedule = l3_sorted\n").unwrap();
        assert_eq!(cfg.schedule, ScheduleKind::L3Sorted);
        let cfg = RunConfig::parse("[solver]\nschedule = natural\n").unwrap();
        assert_eq!(cfg.schedule, ScheduleKind::Natural);
        assert_eq!(RunConfig::default().schedule, ScheduleKind::Natural);
        let cfg = RunConfig::parse("[solver]\nschedule = boundary_first\n").unwrap();
        assert_eq!(cfg.schedule, ScheduleKind::BoundaryFirst);
        assert!(RunConfig::parse("[solver]\nschedule = zigzag\n").is_err());
    }

    #[test]
    fn exchange_and_link_keys_parse() {
        let cfg = RunConfig::parse(
            "[decomposition]\nnx = 2\nny = 2\nexchange = pipelined\n\
             link_latency_us = 50\nlink_mb_per_s = 100\n",
        )
        .unwrap();
        assert_eq!(cfg.exchange, ExchangeMode::Pipelined);
        assert_eq!(cfg.link.latency, std::time::Duration::from_micros(50));
        // 100 MB/s -> 10 ns per byte.
        assert!((cfg.link.ns_per_byte - 10.0).abs() < 1e-12);

        let cfg = RunConfig::parse("[decomposition]\nexchange = sync\n").unwrap();
        assert_eq!(cfg.exchange, ExchangeMode::Sync);
        assert!(cfg.link.is_zero());
        assert_eq!(RunConfig::default().exchange, ExchangeMode::Sync);

        assert!(RunConfig::parse("[decomposition]\nexchange = osmosis\n").is_err());
        assert!(RunConfig::parse("[decomposition]\nlink_latency_us = -1\n").is_err());
        assert!(RunConfig::parse("[decomposition]\nlink_mb_per_s = -5\n").is_err());
    }

    #[test]
    fn tallies_and_exp_variants_parse() {
        let cfg = RunConfig::parse(
            "[solver]\ntallies = privatized\ntally_budget_mb = 32\nexp = table\n\
             exp_tolerance = 1e-6\n",
        )
        .unwrap();
        assert_eq!(cfg.kernel.tallies, TallyMode::Privatized);
        assert_eq!(cfg.kernel.tally_budget_bytes, 32 << 20);
        assert_eq!(cfg.kernel.exp, ExpMode::Table);
        assert!((cfg.kernel.exp_tolerance - 1e-6).abs() < 1e-18);

        let cfg = RunConfig::parse("[solver]\ntallies = atomic\n").unwrap();
        assert_eq!(cfg.kernel.tallies, TallyMode::Atomic);
        let cfg = RunConfig::parse("[solver]\ntallies = auto\nexp = intrinsic\n").unwrap();
        assert_eq!(cfg.kernel.tallies, TallyMode::Auto);
        assert_eq!(cfg.kernel.exp, ExpMode::Intrinsic);
        assert_eq!(RunConfig::default().kernel, KernelConfig::default());

        assert!(RunConfig::parse("[solver]\ntallies = lockfree\n").is_err());
        assert!(RunConfig::parse("[solver]\nexp = pade\n").is_err());
        assert!(RunConfig::parse("[solver]\nexp_tolerance = 0\n").is_err());
    }

    #[test]
    fn kernel_and_block_variants_parse() {
        let cfg = RunConfig::parse("[solver]\nkernel = vector\nblock_kb = 8\n").unwrap();
        assert_eq!(cfg.kernel.kernel, SweepKernel::Vector);
        assert_eq!(cfg.kernel.block_bytes, Some(8 << 10));
        let cfg = RunConfig::parse("[solver]\nkernel = simd\n").unwrap();
        assert_eq!(cfg.kernel.kernel, SweepKernel::Vector);
        // The conformance reference stays selectable; block sizing
        // defaults to the cache model.
        let cfg = RunConfig::parse("[solver]\nkernel = scalar\n").unwrap();
        assert_eq!(cfg.kernel.kernel, SweepKernel::Scalar);
        assert_eq!(cfg.kernel.block_bytes, None);
        // Default: the vector kernel.
        assert_eq!(RunConfig::default().kernel.kernel, SweepKernel::Vector);
        assert_eq!(RunConfig::parse("[solver]\n").unwrap().kernel.kernel, SweepKernel::Vector);

        assert!(RunConfig::parse("[solver]\nkernel = avx512\n").is_err());
        assert!(RunConfig::parse("[solver]\nblock_kb = 0\n").is_err());
    }

    #[test]
    fn fault_section_parses() {
        let cfg = RunConfig::parse(
            "[fault]\nenabled = true\nseed = 7\ndrop_p = 0.01\nflip_p = 0.001\n\
             max_retries = 6\nbackoff_us = 25\nrecv_timeout_ms = 500\n\
             checkpoint_interval = 5\nmax_restarts = 2\nkill_rank = 1\nkill_iteration = 8\n",
        )
        .unwrap();
        assert!(cfg.fault.enabled);
        assert_eq!(cfg.fault.comm.seed, 7);
        assert!((cfg.fault.comm.drop_p - 0.01).abs() < 1e-12);
        assert!((cfg.fault.comm.flip_p - 0.001).abs() < 1e-12);
        assert_eq!(cfg.fault.comm.max_retries, 6);
        assert_eq!(cfg.fault.comm.backoff_base, std::time::Duration::from_micros(25));
        assert_eq!(cfg.fault.comm.recv_timeout, std::time::Duration::from_millis(500));
        assert_eq!(cfg.fault.checkpoint_interval, 5);
        assert_eq!(cfg.fault.max_restarts, 2);
        assert_eq!(cfg.fault.comm.deaths, vec![RankDeath { rank: 1, iteration: 8 }]);
    }

    #[test]
    fn fault_section_defaults_to_disabled() {
        let cfg = RunConfig::parse("[model]\ncase = c5g7\n").unwrap();
        assert!(!cfg.fault.enabled);
        assert!(cfg.fault.comm.deaths.is_empty());
    }

    #[test]
    fn fault_section_validates_inputs() {
        // Probabilities outside [0, 1] are rejected with line context.
        let err = RunConfig::parse("[fault]\ndrop_p = 1.5\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("probability"));
        // A kill must specify both coordinates.
        assert!(RunConfig::parse("[fault]\nkill_rank = 1\n").is_err());
        assert!(RunConfig::parse("[fault]\nkill_iteration = 5\n").is_err());
        assert!(RunConfig::parse("[fault]\nkill_rank = 1\nkill_iteration = 0\n").is_err());
    }

    #[test]
    fn telemetry_section_parses() {
        let cfg = RunConfig::parse("[telemetry]\ntrace = true\ntrace_cap = 1024\n").unwrap();
        assert!(cfg.telemetry.trace);
        assert_eq!(cfg.telemetry.trace_cap, 1024);
        // Off by default with the library's default event budget.
        let cfg = RunConfig::parse("[model]\ncase = c5g7\n").unwrap();
        assert_eq!(cfg.telemetry, TelemetrySettings::default());
        assert!(!cfg.telemetry.trace);
        assert_eq!(cfg.telemetry.trace_cap, antmoc_telemetry::DEFAULT_TRACE_CAPACITY);
        // A zero event budget is meaningless.
        assert!(RunConfig::parse("[telemetry]\ntrace_cap = 0\n").is_err());
    }

    #[test]
    fn serial_backend_parses() {
        let cfg = RunConfig::parse("[solver]\nbackend = cpu-serial\n").unwrap();
        assert_eq!(cfg.backend, BackendConfig::CpuSerial);
    }

    #[test]
    fn rodded_variants_parse() {
        let a = RunConfig::parse("[model]\nrodded = a\n").unwrap();
        assert_eq!(a.model.c5g7().config, RoddedConfig::RoddedA);
        let b = RunConfig::parse("[model]\nrodded = rodded-b\n").unwrap();
        assert_eq!(b.model.c5g7().config, RoddedConfig::RoddedB);
    }

    const CASE: &str = r#"
[case]
name = "pin"

[materials]
library = "c5g7"

[[pin]]
name = "uo2"
fuel = "UO2"
moderator = "moderator"
pitch = 1.26
radius = 0.54

[[lattice]]
name = "cell"
pitch = [1.26, 1.26]
key = { U = "uo2" }
rows = ["U"]

[core]
root = "cell"

[[zone]]
from = 0.0
to = 10.0

[axial]
dz = 5.0

[tracks]
num_azim = 4
radial_spacing = 0.6

[solver]
tolerance = 2e-4
mode = otf
backend = cpu-serial
"#;

    #[test]
    fn from_case_threads_passthrough_sections() {
        let spec = CaseSpec::parse(CASE).unwrap();
        let cfg = RunConfig::from_case(&spec).unwrap();
        assert_eq!(cfg.case_name, "pin");
        assert!(cfg.model.case().is_some());
        assert_eq!(cfg.tracks.num_azim, 4);
        assert!((cfg.tracks.radial_spacing - 0.6).abs() < 1e-12);
        assert!((cfg.eigen.tolerance - 2e-4).abs() < 1e-18);
        assert_eq!(cfg.backend, BackendConfig::CpuSerial);
    }

    #[test]
    fn from_case_rejects_unknown_passthrough_keys() {
        let text = CASE.replace("mode = otf", "mode = otf\nbackedn = \"device\"");
        let spec = CaseSpec::parse(&text).unwrap();
        let err = RunConfig::from_case(&spec).unwrap_err();
        assert!(err.message.contains("\"backedn\" in [solver]"), "{err}");
        assert_eq!(err.line, text.lines().position(|l| l.starts_with("backedn")).unwrap() + 1);
    }

    #[test]
    fn from_case_rejects_broken_references_up_front() {
        let text = CASE.replace("fuel = \"UO2\"", "fuel = \"UO3\"");
        let spec = CaseSpec::parse(&text).unwrap();
        let err = RunConfig::from_case(&spec).unwrap_err();
        assert!(err.message.contains("UO3"), "{err}");
    }

    #[test]
    fn from_case_rejects_decomposed_runs() {
        let text = format!("{CASE}\n[decomposition]\nnx = 2\n");
        let spec = CaseSpec::parse(&text).unwrap();
        let err = RunConfig::from_case(&spec).unwrap_err();
        assert!(err.message.contains("single-domain"), "{err}");
    }

    #[test]
    fn from_case_rejects_fixed_source_on_device() {
        let text = CASE
            .replace("name = \"pin\"", "name = \"pin\"\nkind = \"fixed-source\"")
            .replace("backend = cpu-serial", "backend = device")
            .replace("[tracks]", "[[source]]\nmaterial = \"moderator\"\ngroups = [1]\n\n[tracks]");
        let spec = CaseSpec::parse(&text).unwrap();
        let err = RunConfig::from_case(&spec).unwrap_err();
        assert!(err.message.contains("cpu"), "{err}");
    }
}
