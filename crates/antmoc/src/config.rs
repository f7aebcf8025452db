//! Run configuration: the typed form of the paper's `config.yaml` input
//! (Fig. 2, "Read Configuration"). On disk a run is a declarative case
//! file ([`CaseSpec`], TOML), read by [`RunConfig::from_case`]: its
//! geometry sections become the model, and its `[tracks]`, `[solver]`,
//! `[decomposition]` and `[telemetry]` sections pass through to the one
//! key interpreter below. [`RunConfig::parse`] reads the same sections
//! from INI-style text plus a `[model]` section naming the built-in C5G7
//! model, for configurations built in code. `KNOWN_KEYS` lists every
//! section and key; any other is an error with its line.
//!
//! ```text
//! # comment
//! [model]
//! case = c5g7
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
//! backend = device         ; cpu | cpu-serial | device
//! device_memory_mb = 256
//! cu_mapping = sorted      ; grid | sorted
//!
//! [decomposition]
//! nx = 2
//! ny = 2
//! nz = 2
//!
//! [telemetry]
//! trace = true             ; emit a Chrome trace_event timeline
//! ```
//!
//! The sweep itself has no keys: every run takes natural CPU dispatch,
//! privatized tallies, the in-tree exp evaluator, the vector kernel and
//! the cache model's reduction block ([`KernelConfig::default`]).

use std::collections::HashMap;
use std::sync::Arc;

use antmoc_cluster::LinkModel;
use antmoc_geom::c5g7::C5g7Options;
use antmoc_input::{CaseKind, CaseSpec, LoweredModel};
use antmoc_solver::device::CuMapping;
use antmoc_solver::{EigenOptions, ExchangeMode, KernelConfig, ScheduleKind, StorageMode};
use antmoc_track::TrackParams;

/// Which execution backend runs the sweeps.
#[derive(Debug, Clone, PartialEq)]
pub enum BackendConfig {
    Cpu,
    /// One-core-per-rank sweeps (deterministic; the honest configuration
    /// for measured scaling studies).
    CpuSerial,
    Device {
        memory_bytes: u64,
        cu_mapping: CuMapping,
    },
}

/// Observability settings (`[telemetry]`). Tracing is off by default —
/// the timeline has a bounded but real memory cost, capped at
/// [`antmoc_telemetry::DEFAULT_TRACE_CAPACITY`] events — and can also be
/// forced on per-run with `ANTMOC_TRACE=1`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TelemetrySettings {
    /// Record an event timeline and export it as Chrome `trace_event`
    /// JSON next to the run report.
    pub trace: bool,
}

/// What geometry the run solves: the hardcoded C5G7 benchmark (the
/// INI-style `[model]` section) or a declarative case file lowered
/// through `antmoc-input`.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelSpec {
    C5g7(C5g7Options),
    /// Shared by every clone of the configuration and by the set-up
    /// built from it, so the case is lowered once per read.
    Lattice(Arc<LoweredCase>),
}

/// A declarative case and the model it lowers to, made together by
/// [`RunConfig::from_case`].
pub struct LoweredCase {
    pub spec: CaseSpec,
    pub model: LoweredModel,
}

/// The model is a function of the spec, so two lowered cases are equal
/// when their specs are, and printing the spec says which case it is.
impl PartialEq for LoweredCase {
    fn eq(&self, other: &Self) -> bool {
        self.spec == other.spec
    }
}

impl std::fmt::Debug for LoweredCase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoweredCase").field("spec", &self.spec).finish_non_exhaustive()
    }
}

impl ModelSpec {
    /// The C5G7 options; panics for a declarative case (callers that
    /// tweak benchmark resolution knobs only make sense on C5G7).
    pub fn c5g7(&self) -> &C5g7Options {
        match self {
            ModelSpec::C5g7(opts) => opts,
            ModelSpec::Lattice(case) => {
                panic!("model is the declarative case {:?}, not C5G7", case.spec.name)
            }
        }
    }

    /// Mutable access to the C5G7 options; panics for a declarative case.
    pub fn c5g7_mut(&mut self) -> &mut C5g7Options {
        match self {
            ModelSpec::C5g7(opts) => opts,
            ModelSpec::Lattice(case) => {
                panic!("model is the declarative case {:?}, not C5G7", case.spec.name)
            }
        }
    }

    /// The declarative case, if that is what the run solves.
    pub fn case(&self) -> Option<&CaseSpec> {
        match self {
            ModelSpec::C5g7(_) => None,
            ModelSpec::Lattice(case) => Some(&case.spec),
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
    /// CPU sweep dispatch order. No key sets it (always natural); the
    /// field stays until the benchmark stops reading it (ROADMAP item 1).
    pub schedule: ScheduleKind,
    /// Sweep tally/exp kernel settings. No key sets them (always the
    /// default); the field stays until the benchmark stops reading it
    /// (ROADMAP item 1).
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
    /// Whether fixed-source solves keep the fission production term
    /// (`[solver] fission`); pure shielding problems leave it off.
    pub fixed_fission: bool,
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
            fixed_fission: false,
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
const KNOWN_KEYS: [(&str, &[&str]); 5] = [
    ("model", &["case", "axial_dz"]),
    ("tracks", &["num_azim", "radial_spacing", "num_polar", "axial_spacing"]),
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
            "fission",
        ],
    ),
    ("decomposition", &["nx", "ny", "nz", "exchange", "link_latency_us", "link_mb_per_s"]),
    ("telemetry", &["trace"]),
];

fn known_keys(section: &str) -> Option<&'static [&'static str]> {
    KNOWN_KEYS.iter().find(|(name, _)| *name == section).map(|&(_, keys)| keys)
}

impl RunConfig {
    /// Parses the INI-style text format.
    pub fn parse(text: &str) -> Result<Self, ConfigError> {
        let mut sections: Sections = HashMap::new();
        let mut current = String::from("");
        // The first unknown section. It is raised once the scan ends, or at
        // the next malformed line, unless an unknown key or bad value on an
        // earlier line comes first: the first error by line wins.
        let mut unknown_section = None;
        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            // Strip comments (# or ;) and whitespace.
            let stripped = raw.split(['#', ';']).next().unwrap_or("").trim();
            if stripped.is_empty() {
                continue;
            }
            if let Some(name) = stripped.strip_prefix('[') {
                let Some(name) = name.strip_suffix(']') else {
                    return Err(unknown_section.unwrap_or(ConfigError {
                        line,
                        message: format!("malformed section header {stripped:?}"),
                    }));
                };
                current = name.trim().to_lowercase();
                if known_keys(&current).is_none() {
                    unknown_section = unknown_section.or(Some(ConfigError {
                        line,
                        message: format!("unknown section [{current}]"),
                    }));
                }
                continue;
            }
            let Some((key, value)) = stripped.split_once('=') else {
                return Err(unknown_section.unwrap_or(ConfigError {
                    line,
                    message: format!("expected `key = value`, got {stripped:?}"),
                }));
            };
            if current.is_empty() {
                return Err(ConfigError {
                    line,
                    message: format!("key {:?} outside any [section]", key.trim()),
                });
            }
            if known_keys(&current).is_some() {
                sections
                    .entry(current.clone())
                    .or_default()
                    .insert(key.trim().to_lowercase(), (line, value.trim().to_string()));
            }
        }
        let cfg = Self::from_sections(&sections);
        match unknown_section {
            Some(e) if cfg.as_ref().err().is_none_or(|c| c.line == 0 || c.line > e.line) => Err(e),
            _ => cfg,
        }
    }

    /// Builds a configuration from a declarative case: the case's
    /// pass-through sections feed the same interpreter the INI format
    /// uses, the geometry sections become the model. The case is lowered
    /// here, once: every reference error surfaces at config time rather
    /// than mid-pipeline, and [`crate::build_setup`] takes the lowered
    /// model as it is.
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
        let model = antmoc_input::lower(spec).map_err(|e| ConfigError {
            line: e.line,
            message: format!("({}) {}", e.context, e.message),
        })?;
        cfg.model = ModelSpec::Lattice(Arc::new(LoweredCase { spec: spec.clone(), model }));

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
        // A decomposed run tallies no per-material flux, so a flux-ratio
        // gate could only fail; refuse the pair at the first
        // `[decomposition]` entry.
        if cfg.decomposition != (1, 1, 1) && spec.gates.flux_ratio.is_some() {
            let line = spec
                .raw
                .iter()
                .filter(|(name, _)| name == "decomposition")
                .flat_map(|(_, entries)| entries.iter().map(|(_, e)| e.line))
                .min()
                .unwrap_or(0);
            return Err(ConfigError {
                line,
                message: "[gates] flux_ratio needs per-material flux, which a [decomposition] \
                          run does not tally; drop one of them"
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
        let m = cfg.model.c5g7_mut();
        m.axial_dz = parse_num(get("model", "axial_dz"), m.axial_dz)?;

        // [tracks]
        cfg.tracks.num_azim = parse_num(get("tracks", "num_azim"), cfg.tracks.num_azim)?;
        cfg.tracks.radial_spacing =
            parse_num(get("tracks", "radial_spacing"), cfg.tracks.radial_spacing)?;
        cfg.tracks.num_polar = parse_num(get("tracks", "num_polar"), cfg.tracks.num_polar)?;
        cfg.tracks.axial_spacing =
            parse_num(get("tracks", "axial_spacing"), cfg.tracks.axial_spacing)?;
        // The quadrature and the tracker assert on these; reject them at
        // the key's line instead of panicking mid-run.
        let key_err = |section: &str, key: &str, message: String| ConfigError {
            line: get(section, key).map_or(0, |(l, _)| l),
            message,
        };
        let t = &cfg.tracks;
        if t.num_azim < 4 || !t.num_azim.is_multiple_of(4) {
            let msg = format!("num_azim must be a positive multiple of 4, got {}", t.num_azim);
            return Err(key_err("tracks", "num_azim", msg));
        }
        if t.num_polar < 2 || !t.num_polar.is_multiple_of(2) {
            let msg = format!("num_polar must be a positive even number, got {}", t.num_polar);
            return Err(key_err("tracks", "num_polar", msg));
        }
        for (key, v) in [("radial_spacing", t.radial_spacing), ("axial_spacing", t.axial_spacing)] {
            if !(v > 0.0 && v.is_finite()) {
                return Err(key_err(
                    "tracks",
                    key,
                    format!("{key} must be finite and > 0, got {v}"),
                ));
            }
        }

        // [solver]
        cfg.eigen.tolerance = parse_num(get("solver", "tolerance"), cfg.eigen.tolerance)?;
        cfg.eigen.max_iterations =
            parse_num(get("solver", "max_iterations"), cfg.eigen.max_iterations)?;
        // A NaN, zero or negative tolerance can never be met, so the solve
        // would run to the cap and fail; zero iterations returns the guess.
        let tol = cfg.eigen.tolerance;
        if !(tol > 0.0 && tol.is_finite()) {
            return Err(key_err(
                "solver",
                "tolerance",
                format!("tolerance must be finite and > 0, got {tol}"),
            ));
        }
        if cfg.eigen.max_iterations == 0 {
            return Err(key_err("solver", "max_iterations", "max_iterations must be >= 1".into()));
        }
        // A size key read in `unit`-byte units, rejected at its line when
        // the byte count does not fit a u64.
        let bytes = |key: &str, default: u64, unit: u64| -> Result<u64, ConfigError> {
            let n: u64 = parse_num(get("solver", key), default)?;
            n.checked_mul(unit).ok_or_else(|| ConfigError {
                line: get("solver", key).map_or(0, |(l, _)| l),
                message: format!("{key} = {n} overflows a 64-bit byte count"),
            })
        };
        let budget_bytes = bytes("manager_budget_mb", 64, 1 << 20)?;
        if let Some((line, v)) = get("solver", "mode") {
            cfg.mode = match v.to_lowercase().as_str() {
                "explicit" | "exp" => StorageMode::Explicit,
                "otf" => StorageMode::Otf,
                "manager" => StorageMode::Manager { budget_bytes },
                other => {
                    return Err(ConfigError { line, message: format!("unknown mode {other:?}") })
                }
            };
        }
        let device_bytes = bytes("device_memory_mb", 256, 1 << 20)?;
        if device_bytes == 0 {
            return Err(ConfigError {
                line: get("solver", "device_memory_mb").map_or(0, |(l, _)| l),
                message: "device_memory_mb must be >= 1".into(),
            });
        }
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
        cfg.fixed_fission = parse_num(get("solver", "fission"), cfg.fixed_fission)?;
        if let Some((line, v)) = get("solver", "backend") {
            cfg.backend = match v.to_lowercase().as_str() {
                "cpu" => BackendConfig::Cpu,
                "cpu-serial" | "cpu_serial" | "serial" => BackendConfig::CpuSerial,
                "device" | "gpu" => {
                    BackendConfig::Device { memory_bytes: device_bytes, cu_mapping: mapping }
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
        let (nx, ny, nz) = cfg.decomposition;
        for (key, n) in [("nx", nx), ("ny", ny), ("nz", nz)] {
            if n == 0 {
                return Err(ConfigError {
                    line: get("decomposition", key).map_or(0, |(l, _)| l),
                    message: format!("decomposition {key} must be >= 1"),
                });
            }
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

        // [telemetry]
        cfg.telemetry.trace = parse_num(get("telemetry", "trace"), cfg.telemetry.trace)?;

        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# C5G7 validation case (Table 4 of the paper)
[model]
case = c5g7
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
        assert_eq!(cfg.model.c5g7().axial_dz, 14.28);
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
        // A section the pipeline no longer reads fails at its header, on
        // the INI and on the case-file path.
        let err =
            RunConfig::parse("[solver]\ntolerance = 1e-4\n[fault]\nenabled = true\n").unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("[fault]"), "{err}");
        let err = RunConfig::parse("[fault]\nenabled\n").unwrap_err();
        assert_eq!(err.line, 1);
        let text = format!("{CASE}\n[fault]\nenabled = true\n");
        let err = CaseSpec::parse(&text).unwrap_err();
        assert_eq!(err.line, text.lines().position(|l| l == "[fault]").unwrap() + 1);
        // So does a sweep selector or the trace cap, which every run now
        // fixes, and a model, quadrature or diagnostic key no input set:
        // at the key's own line, listing the keys that remain, on the INI
        // path and, for the case's pass-through sections, the case-file
        // path (a case file's model is its geometry tables).
        for (section, entry) in [
            ("solver", "schedule = l3_sorted"),
            ("solver", "tallies = atomic"),
            ("solver", "tally_budget_mb = 32"),
            ("solver", "exp = table"),
            ("solver", "exp_tolerance = 1e-6"),
            ("solver", "kernel = scalar"),
            ("solver", "block_kb = 8"),
            ("telemetry", "trace_cap = 1024"),
            ("model", "rodded = a"),
            ("model", "fuel_rings = 2"),
            ("model", "sectors = 4"),
            ("model", "reflector_refine = 17"),
            ("tracks", "polar_type = ty"),
            ("solver", "balance_sweeps = 3"),
        ] {
            let key = entry.split(' ').next().unwrap();
            let ini = format!("[{section}]\n{entry}\n");
            let mut results = vec![(RunConfig::parse(&ini), 2)];
            if section != "model" {
                let toml = if CASE.contains(&format!("[{section}]\n")) {
                    CASE.replace(&format!("[{section}]\n"), &format!("[{section}]\n{entry}\n"))
                } else {
                    format!("{CASE}\n[{section}]\n{entry}\n")
                };
                let toml_line = toml.lines().position(|l| l == entry).unwrap() + 1;
                results.push((RunConfig::from_case(&CaseSpec::parse(&toml).unwrap()), toml_line));
            }
            let known = known_keys(section).unwrap().join(", ");
            for (result, line) in results {
                let e = result.unwrap_err();
                assert_eq!(e.line, line, "{entry}: {e}");
                let msg = format!("unknown key {key:?} in [{section}] (known: {known})");
                assert_eq!(e.message, msg, "{entry}");
            }
        }
    }

    #[test]
    fn unknown_enum_values_fail() {
        assert!(RunConfig::parse("[solver]\nmode = turbo\n").is_err());
        assert!(RunConfig::parse("[model]\ncase = bwr\n").is_err());
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
    fn telemetry_section_parses() {
        let cfg = RunConfig::parse("[telemetry]\ntrace = true\n").unwrap();
        assert!(cfg.telemetry.trace);
        // Off by default.
        let cfg = RunConfig::parse("[model]\ncase = c5g7\n").unwrap();
        assert_eq!(cfg.telemetry, TelemetrySettings::default());
        assert!(!cfg.telemetry.trace);
    }

    #[test]
    fn serial_backend_parses() {
        let cfg = RunConfig::parse("[solver]\nbackend = cpu-serial\n").unwrap();
        assert_eq!(cfg.backend, BackendConfig::CpuSerial);
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

    /// `text` (a variant of [`CASE`]) as a fixed-source case.
    fn fixed_source(text: &str) -> String {
        text.replace("name = \"pin\"", "name = \"pin\"\nkind = \"fixed-source\"")
            .replace("[tracks]", "[[source]]\nmaterial = \"moderator\"\ngroups = [1]\n\n[tracks]")
    }

    #[test]
    fn from_case_decomposes_eigenvalue_cases_only() {
        let text = format!("{CASE}\n[decomposition]\nnx = 2\n");
        let cfg = RunConfig::from_case(&CaseSpec::parse(&text).unwrap()).unwrap();
        assert_eq!(cfg.decomposition, (2, 1, 1));
        let spec = CaseSpec::parse(&fixed_source(&text)).unwrap();
        let err = RunConfig::from_case(&spec).unwrap_err();
        assert!(err.message.contains("single-domain"), "{err}");
    }

    #[test]
    fn from_case_refuses_a_flux_ratio_gate_on_a_decomposed_run() {
        let gated = CASE.replace(
            "[tracks]",
            "[gates]\nflux_ratio = { from = \"UO2\", to = \"moderator\", group = 1, min = 0.01, \
             max = 100.0 }\n\n[tracks]",
        );
        assert!(RunConfig::from_case(&CaseSpec::parse(&gated).unwrap()).is_ok());
        let text = format!("{gated}\n[decomposition]\nexchange = sync\nnx = 2\n");
        let err = RunConfig::from_case(&CaseSpec::parse(&text).unwrap()).unwrap_err();
        assert!(err.message.contains("[decomposition]"), "{err}");
        assert!(err.message.contains("[gates] flux_ratio"), "{err}");
        assert_eq!(err.line, text.lines().position(|l| l == "exchange = sync").unwrap() + 1);
    }

    #[test]
    fn from_case_rejects_fixed_source_on_device() {
        let text = fixed_source(&CASE.replace("backend = cpu-serial", "backend = device"));
        let spec = CaseSpec::parse(&text).unwrap();
        let err = RunConfig::from_case(&spec).unwrap_err();
        assert!(err.message.contains("cpu"), "{err}");
    }

    #[test]
    fn size_keys_reject_overflow_and_empty_devices_at_their_line() {
        // 2^44 MiB is the first count whose bytes overflow a u64; `None`
        // parses.
        for (entry, expect) in [
            ("manager_budget_mb = 17592186044416", Some("overflows")),
            ("device_memory_mb = 17592186044416", Some("overflows")),
            ("device_memory_mb = 0", Some("device_memory_mb must be >= 1")),
            ("device_memory_mb = 17592186044415", None),
        ] {
            let ini = format!("[solver]\nbackend = device\n{entry}\n");
            let toml = CASE.replace("mode = otf", &format!("mode = otf\n{entry}"));
            let toml_line = toml.lines().position(|l| l == entry).unwrap() + 1;
            let case = RunConfig::from_case(&CaseSpec::parse(&toml).unwrap());
            for (result, line) in [(RunConfig::parse(&ini), 3), (case, toml_line)] {
                match (result, expect) {
                    (Ok(_), None) => {}
                    (Err(e), Some(msg)) => {
                        assert!(e.message.contains(msg) && e.line == line, "{e}")
                    }
                    (result, _) => panic!("{entry}: unexpected {result:?}"),
                }
            }
        }
    }

    #[test]
    fn track_keys_the_tracker_asserts_on_fail_at_their_line() {
        // Each entry replaces the `[tracks]` section of both formats.
        for (entry, expect) in [
            ("num_azim = 0", Some("num_azim must be a positive multiple of 4")),
            ("num_azim = 6", Some("num_azim must be a positive multiple of 4")),
            ("num_polar = 0", Some("num_polar must be a positive even number")),
            ("num_polar = 3", Some("num_polar must be a positive even number")),
            ("radial_spacing = 0", Some("radial_spacing must be finite and > 0")),
            ("radial_spacing = -0.5", Some("radial_spacing must be finite and > 0")),
            ("radial_spacing = NaN", Some("radial_spacing must be finite and > 0")),
            ("axial_spacing = 0", Some("axial_spacing must be finite and > 0")),
            ("axial_spacing = inf", Some("axial_spacing must be finite and > 0")),
            ("num_azim = 8", None),
        ] {
            let ini = format!("[tracks]\n{entry}\n");
            let toml = CASE.replace(
                "[tracks]\nnum_azim = 4\nradial_spacing = 0.6\n",
                &format!("[tracks]\n{entry}\n"),
            );
            let toml_line = toml.lines().position(|l| l == entry).unwrap() + 1;
            let case = RunConfig::from_case(&CaseSpec::parse(&toml).unwrap());
            for (result, line) in [(RunConfig::parse(&ini), 2), (case, toml_line)] {
                match (result, expect) {
                    (Ok(_), None) => {}
                    (Err(e), Some(msg)) => {
                        assert!(e.message.contains(msg) && e.line == line, "{entry}: {e}")
                    }
                    (result, _) => panic!("{entry}: unexpected {result:?}"),
                }
            }
        }
        // A zero decomposition count fails at its own line.
        let err = RunConfig::parse("[decomposition]\nnx = 2\nny = 0\n").unwrap_err();
        assert_eq!(err.line, 3, "{err}");
        assert!(err.message.contains("ny must be >= 1"), "{err}");
    }

    #[test]
    fn solver_limits_that_waste_or_fake_a_solve_fail_at_their_line() {
        // Each entry replaces the `tolerance` line of both formats.
        let tolerance = Some("tolerance must be finite and > 0");
        for (entry, expect) in [
            ("tolerance = nan", tolerance),
            ("tolerance = inf", tolerance),
            ("tolerance = 0", tolerance),
            ("tolerance = -1e-5", tolerance),
            ("max_iterations = 0", Some("max_iterations must be >= 1")),
            ("tolerance = 1e-5", None),
            ("max_iterations = 1", None),
        ] {
            let ini = format!("[solver]\n{entry}\n");
            let toml = CASE.replace("tolerance = 2e-4\n", &format!("{entry}\n"));
            let toml_line = toml.lines().position(|l| l == entry).unwrap() + 1;
            let case = RunConfig::from_case(&CaseSpec::parse(&toml).unwrap());
            for (result, line) in [(RunConfig::parse(&ini), 2), (case, toml_line)] {
                match (result, expect) {
                    (Ok(_), None) => {}
                    (Err(e), Some(msg)) => {
                        assert!(e.message.contains(msg) && e.line == line, "{entry}: {e}")
                    }
                    (result, _) => panic!("{entry}: unexpected {result:?}"),
                }
            }
        }
    }
}
