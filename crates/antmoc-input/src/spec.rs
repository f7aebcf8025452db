//! The declarative case description: a validated, typed view of a case
//! file, plus a canonical re-emitter.
//!
//! [`CaseSpec::parse`] turns TOML text into a spec, rejecting unknown
//! sections and malformed keys with the source line attached.
//! [`CaseSpec::emit`] renders the spec back to canonical TOML; emitting,
//! parsing, and emitting again is stable, which the round-trip property
//! test pins down. Solver/tracking sections ([solver], [tracks],
//! [decomposition], [telemetry]) are *not* interpreted here —
//! they pass through as raw key/value pairs for the pipeline's existing
//! config interpreter, so the case format never lags behind new solver
//! options.

use antmoc_geom::{Bc, BoundaryConds};

use crate::toml::{Doc, Item, Table, TomlError, Value};

/// A case-file failure with line and key context.
#[derive(Debug, Clone, PartialEq)]
pub struct InputError {
    pub line: usize,
    pub context: String,
    pub message: String,
}

impl InputError {
    pub fn new(line: usize, context: impl Into<String>, message: impl Into<String>) -> Self {
        Self { line, context: context.into(), message: message.into() }
    }
}

impl std::fmt::Display for InputError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "case file line {} ({}): {}", self.line, self.context, self.message)
    }
}

impl std::error::Error for InputError {}

impl From<TomlError> for InputError {
    fn from(e: TomlError) -> Self {
        InputError { line: e.line, context: "toml".into(), message: e.message }
    }
}

/// What the solver should compute for this case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaseKind {
    /// A k-eigenvalue power iteration.
    Eigenvalue,
    /// A fixed-source solve driven by `[[source]]` entries.
    FixedSource,
}

/// A raw `key = value` passed through to the pipeline config interpreter.
#[derive(Debug, Clone, PartialEq)]
pub struct RawEntry {
    pub line: usize,
    /// The scalar text as an INI-style consumer would see it.
    pub value: String,
    /// Whether the author quoted the value (preserved for re-emission).
    pub quoted: bool,
}

/// One pin declaration (`[[pin]]`).
#[derive(Debug, Clone, PartialEq)]
pub struct PinSpec {
    pub name: String,
    pub line: usize,
    pub kind: PinKind,
}

#[derive(Debug, Clone, PartialEq)]
pub enum PinKind {
    /// A ringed/sectored fuel cylinder in a square moderator cell.
    Fuel { fuel: String, moderator: String, pitch: f64, radius: f64, rings: usize, sectors: usize },
    /// A homogeneous cell filled with one material.
    Cell { fill: String },
}

/// One lattice declaration (`[[lattice]]`). `rows` are listed
/// top-to-bottom as drawn; lowering flips them into +y order.
#[derive(Debug, Clone, PartialEq)]
pub struct LatticeSpec {
    pub name: String,
    pub line: usize,
    pub pitch: (f64, f64),
    /// Single-character symbols mapping to pin or lattice names.
    pub key: Vec<(char, String)>,
    pub rows: Vec<String>,
}

/// The `[core]` section: what fills the domain and its boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreSpec {
    pub line: usize,
    /// Name of the root lattice (or pin, for a single-cell domain).
    pub root: String,
    /// Explicit domain width/height; defaults to the root lattice extent.
    pub width: Option<(f64, f64)>,
    pub boundary: BoundaryConds,
}

/// One axial zone (`[[zone]]`), bottom to top.
#[derive(Debug, Clone, PartialEq)]
pub struct ZoneSpec {
    pub line: usize,
    pub from: f64,
    pub to: f64,
    pub kind: ZoneKindSpec,
}

#[derive(Debug, Clone, PartialEq)]
pub enum ZoneKindSpec {
    /// Radial materials apply unchanged.
    AsIs,
    /// The whole zone becomes one material (e.g. an axial reflector).
    AllTo(String),
    /// Selected materials are substituted (e.g. rod insertion).
    Map(Vec<(String, String)>),
}

/// One fixed source (`[[source]]`): an isotropic emission density in
/// every FSR of the named material.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceSpec {
    pub line: usize,
    pub material: String,
    /// 1-based energy groups receiving the source.
    pub groups: Vec<usize>,
    pub strength: f64,
}

/// The physics acceptance gates (`[gates]`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GateSpec {
    /// Acceptance band for k_eff (eigenvalue cases).
    pub keff: Option<(f64, f64)>,
    /// Flux-attenuation check (fixed-source cases).
    pub flux_ratio: Option<FluxRatioGate>,
}

/// Requires `mean flux(from, group) / mean flux(to, group)` to land in
/// `[min, max]` — the attenuation across a shield.
#[derive(Debug, Clone, PartialEq)]
pub struct FluxRatioGate {
    pub from: String,
    pub to: String,
    /// 1-based energy group.
    pub group: usize,
    pub min: f64,
    pub max: f64,
}

/// The geometry half of a case: materials, pins, lattices, core, axial.
#[derive(Debug, Clone, PartialEq)]
pub struct GeometrySpec {
    /// Base material library name (`[materials] library`).
    pub library: String,
    /// `(new name, existing name)` clones added to the library, in order.
    pub aliases: Vec<(String, String)>,
    pub pins: Vec<PinSpec>,
    pub lattices: Vec<LatticeSpec>,
    pub core: CoreSpec,
    pub zones: Vec<ZoneSpec>,
    /// Target axial cell height (`[axial] dz`).
    pub axial_dz: f64,
}

/// A fully parsed case file.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseSpec {
    pub name: String,
    pub kind: CaseKind,
    pub geometry: GeometrySpec,
    pub sources: Vec<SourceSpec>,
    pub gates: GateSpec,
    /// Pass-through sections for the pipeline config interpreter, in file
    /// order: `(section name, entries)`.
    pub raw: Vec<(String, Vec<(String, RawEntry)>)>,
}

const PASSTHROUGH: [&str; 4] = ["tracks", "solver", "decomposition", "telemetry"];
const KNOWN_TABLES: [&str; 5] = ["case", "materials", "core", "axial", "gates"];
const KNOWN_ARRAYS: [&str; 4] = ["pin", "lattice", "zone", "source"];

fn ctx(section: &str, key: &str) -> String {
    format!("{section} {key}")
}

fn req<'a>(t: &'a Table, section: &str, key: &str) -> Result<&'a Item, InputError> {
    t.get(key).ok_or_else(|| InputError::new(t.line, ctx(section, key), "required key is missing"))
}

fn str_of(item: &Item, section: &str, key: &str) -> Result<String, InputError> {
    item.value.as_str().map(str::to_owned).ok_or_else(|| {
        InputError::new(
            item.line,
            ctx(section, key),
            format!("expected a string, found {}", item.value.type_name()),
        )
    })
}

fn f64_of(item: &Item, section: &str, key: &str) -> Result<f64, InputError> {
    item.value.as_f64().ok_or_else(|| {
        InputError::new(
            item.line,
            ctx(section, key),
            format!("expected a number, found {}", item.value.type_name()),
        )
    })
}

fn usize_of(item: &Item, section: &str, key: &str) -> Result<usize, InputError> {
    item.value.as_usize().ok_or_else(|| {
        InputError::new(
            item.line,
            ctx(section, key),
            format!("expected a non-negative integer, found {}", item.value.type_name()),
        )
    })
}

fn req_str(t: &Table, section: &str, key: &str) -> Result<String, InputError> {
    str_of(req(t, section, key)?, section, key)
}

fn req_f64(t: &Table, section: &str, key: &str) -> Result<f64, InputError> {
    f64_of(req(t, section, key)?, section, key)
}

fn f64_pair(item: &Item, section: &str, key: &str) -> Result<(f64, f64), InputError> {
    let bad = || {
        InputError::new(
            item.line,
            ctx(section, key),
            "expected an array of two numbers, e.g. [1.26, 1.26]",
        )
    };
    let arr = item.value.as_arr().ok_or_else(bad)?;
    if arr.len() != 2 {
        return Err(bad());
    }
    Ok((arr[0].as_f64().ok_or_else(bad)?, arr[1].as_f64().ok_or_else(bad)?))
}

fn reject_unknown_keys(t: &Table, section: &str, known: &[&str]) -> Result<(), InputError> {
    for (k, item) in t.entries() {
        if !known.contains(&k.as_str()) {
            return Err(InputError::new(
                item.line,
                ctx(section, k),
                format!("unknown key; expected one of: {}", known.join(", ")),
            ));
        }
    }
    Ok(())
}

fn parse_bc(s: &str, line: usize, context: String) -> Result<Bc, InputError> {
    match s {
        "vacuum" => Ok(Bc::Vacuum),
        "reflective" => Ok(Bc::Reflective),
        "periodic" => Ok(Bc::Periodic),
        other => Err(InputError::new(
            line,
            context,
            format!(
                "unknown boundary condition {other:?}; expected vacuum, reflective, or periodic"
            ),
        )),
    }
}

fn bc_name(bc: Bc) -> &'static str {
    match bc {
        Bc::Vacuum => "vacuum",
        Bc::Reflective => "reflective",
        Bc::Periodic => "periodic",
    }
}

impl CaseSpec {
    /// Parses and validates a case file.
    pub fn parse(text: &str) -> Result<Self, InputError> {
        let doc = Doc::parse(text)?;

        for (name, table) in doc.tables() {
            if !KNOWN_TABLES.contains(&name) && !PASSTHROUGH.contains(&name) {
                return Err(InputError::new(
                    table.line,
                    format!("[{name}]"),
                    "unknown section; geometry sections are [case], [materials], [core], \
                     [axial], [gates] plus [[pin]]/[[lattice]]/[[zone]]/[[source]]; solver \
                     sections [tracks], [solver], [decomposition], [telemetry] pass \
                     through",
                ));
            }
        }
        for (name, tables) in doc.arrays() {
            if !KNOWN_ARRAYS.contains(&name) {
                return Err(InputError::new(
                    tables[0].line,
                    format!("[[{name}]]"),
                    "unknown array section; expected [[pin]], [[lattice]], [[zone]], or \
                     [[source]]",
                ));
            }
        }

        // [case]
        let case = doc
            .table("case")
            .ok_or_else(|| InputError::new(1, "[case]", "the [case] section is required"))?;
        reject_unknown_keys(case, "[case]", &["name", "kind"])?;
        let name = req_str(case, "[case]", "name")?;
        let kind = match case.get("kind") {
            None => CaseKind::Eigenvalue,
            Some(item) => match str_of(item, "[case]", "kind")?.as_str() {
                "eigenvalue" => CaseKind::Eigenvalue,
                "fixed-source" => CaseKind::FixedSource,
                other => {
                    return Err(InputError::new(
                        item.line,
                        ctx("[case]", "kind"),
                        format!("unknown kind {other:?}; expected eigenvalue or fixed-source"),
                    ))
                }
            },
        };

        // [materials]
        let materials = doc.table("materials").ok_or_else(|| {
            InputError::new(1, "[materials]", "the [materials] section is required")
        })?;
        reject_unknown_keys(materials, "[materials]", &["library", "aliases"])?;
        let library = req_str(materials, "[materials]", "library")?;
        let mut aliases = Vec::new();
        if let Some(item) = materials.get("aliases") {
            let bad = || {
                InputError::new(
                    item.line,
                    ctx("[materials]", "aliases"),
                    "expected an array of [\"new-name\", \"existing-name\"] pairs",
                )
            };
            for pair in item.value.as_arr().ok_or_else(bad)? {
                let pair = pair.as_arr().ok_or_else(bad)?;
                if pair.len() != 2 {
                    return Err(bad());
                }
                let new = pair[0].as_str().ok_or_else(bad)?;
                let old = pair[1].as_str().ok_or_else(bad)?;
                aliases.push((new.to_owned(), old.to_owned()));
            }
        }

        // [[pin]]
        let mut pins = Vec::new();
        for t in doc.array("pin") {
            let pin_name = req_str(t, "[[pin]]", "name")?;
            let section = format!("[[pin]] {pin_name:?}");
            let kind = if let Some(fill) = t.get("fill") {
                reject_unknown_keys(t, &section, &["name", "fill"])?;
                PinKind::Cell { fill: str_of(fill, &section, "fill")? }
            } else {
                reject_unknown_keys(
                    t,
                    &section,
                    &["name", "fuel", "moderator", "pitch", "radius", "rings", "sectors"],
                )?;
                PinKind::Fuel {
                    fuel: req_str(t, &section, "fuel")?,
                    moderator: req_str(t, &section, "moderator")?,
                    pitch: req_f64(t, &section, "pitch")?,
                    radius: req_f64(t, &section, "radius")?,
                    rings: match t.get("rings") {
                        None => 1,
                        Some(i) => usize_of(i, &section, "rings")?,
                    },
                    sectors: match t.get("sectors") {
                        None => 1,
                        Some(i) => usize_of(i, &section, "sectors")?,
                    },
                }
            };
            if pins.iter().any(|p: &PinSpec| p.name == pin_name) {
                return Err(InputError::new(
                    t.line,
                    section,
                    "a pin with this name was already declared",
                ));
            }
            pins.push(PinSpec { name: pin_name, line: t.line, kind });
        }

        // [[lattice]]
        let mut lattices: Vec<LatticeSpec> = Vec::new();
        for t in doc.array("lattice") {
            let lat_name = req_str(t, "[[lattice]]", "name")?;
            let section = format!("[[lattice]] {lat_name:?}");
            reject_unknown_keys(t, &section, &["name", "pitch", "key", "rows"])?;
            let pitch = f64_pair(req(t, &section, "pitch")?, &section, "pitch")?;

            let key_item = req(t, &section, "key")?;
            let key_tab = key_item.value.as_table().ok_or_else(|| {
                InputError::new(
                    key_item.line,
                    ctx(&section, "key"),
                    "expected an inline table mapping symbols to names, e.g. { U = \"uo2\" }",
                )
            })?;
            let mut key = Vec::new();
            for (sym, v) in key_tab {
                let mut chars = sym.chars();
                let (c, rest) = (chars.next(), chars.next());
                if c.is_none() || rest.is_some() {
                    return Err(InputError::new(
                        key_item.line,
                        ctx(&section, "key"),
                        format!("symbol {sym:?} must be a single character"),
                    ));
                }
                let target = v.as_str().ok_or_else(|| {
                    InputError::new(
                        key_item.line,
                        ctx(&section, "key"),
                        format!("symbol {sym:?} must map to a pin or lattice name string"),
                    )
                })?;
                key.push((c.unwrap(), target.to_owned()));
            }

            let rows_item = req(t, &section, "rows")?;
            let rows_arr = rows_item.value.as_arr().ok_or_else(|| {
                InputError::new(
                    rows_item.line,
                    ctx(&section, "rows"),
                    "expected an array of row strings",
                )
            })?;
            let mut rows = Vec::new();
            for r in rows_arr {
                let s = r.as_str().ok_or_else(|| {
                    InputError::new(
                        rows_item.line,
                        ctx(&section, "rows"),
                        "rows must be strings of key symbols",
                    )
                })?;
                rows.push(s.to_owned());
            }
            if rows.is_empty() || rows[0].is_empty() {
                return Err(InputError::new(
                    rows_item.line,
                    ctx(&section, "rows"),
                    "a lattice needs at least one non-empty row",
                ));
            }
            let nx = rows[0].chars().count();
            for (i, r) in rows.iter().enumerate() {
                if r.chars().count() != nx {
                    return Err(InputError::new(
                        rows_item.line,
                        ctx(&section, "rows"),
                        format!(
                            "lattice rows must be rectangular: row {} has {} symbols, row 0 \
                             has {nx}",
                            i,
                            r.chars().count()
                        ),
                    ));
                }
            }
            for r in &rows {
                for c in r.chars() {
                    if !key.iter().any(|(k, _)| *k == c) {
                        return Err(InputError::new(
                            rows_item.line,
                            ctx(&section, "rows"),
                            format!("row symbol {c:?} is not in the key"),
                        ));
                    }
                }
            }
            if lattices.iter().any(|l| l.name == lat_name)
                || pins.iter().any(|p| p.name == lat_name)
            {
                return Err(InputError::new(
                    t.line,
                    section,
                    "this name is already taken by another pin or lattice",
                ));
            }
            lattices.push(LatticeSpec { name: lat_name, line: t.line, pitch, key, rows });
        }

        // [core]
        let core_t = doc
            .table("core")
            .ok_or_else(|| InputError::new(1, "[core]", "the [core] section is required"))?;
        reject_unknown_keys(core_t, "[core]", &["root", "width", "boundary"])?;
        let root = req_str(core_t, "[core]", "root")?;
        let width = match core_t.get("width") {
            None => None,
            Some(item) => Some(f64_pair(item, "[core]", "width")?),
        };
        let mut boundary = BoundaryConds::reflective();
        if let Some(item) = core_t.get("boundary") {
            let tab = item.value.as_table().ok_or_else(|| {
                InputError::new(
                    item.line,
                    ctx("[core]", "boundary"),
                    "expected an inline table, e.g. { x_min = \"reflective\", x_max = \"vacuum\" }",
                )
            })?;
            for (face, v) in tab {
                let s = v.as_str().ok_or_else(|| {
                    InputError::new(
                        item.line,
                        ctx("[core]", "boundary"),
                        format!("face {face} must be a string"),
                    )
                })?;
                let bc = parse_bc(s, item.line, ctx("[core]", "boundary"))?;
                match face.as_str() {
                    "x_min" => boundary.x_min = bc,
                    "x_max" => boundary.x_max = bc,
                    "y_min" => boundary.y_min = bc,
                    "y_max" => boundary.y_max = bc,
                    "z_min" => boundary.z_min = bc,
                    "z_max" => boundary.z_max = bc,
                    other => {
                        return Err(InputError::new(
                            item.line,
                            ctx("[core]", "boundary"),
                            format!(
                                "unknown face {other:?}; expected x_min, x_max, y_min, y_max, \
                                 z_min, z_max"
                            ),
                        ))
                    }
                }
            }
        }
        let core = CoreSpec { line: core_t.line, root, width, boundary };

        // [[zone]]
        let mut zones = Vec::new();
        for t in doc.array("zone") {
            let section = format!("[[zone]] #{}", zones.len() + 1);
            reject_unknown_keys(t, &section, &["from", "to", "all_to", "map"])?;
            let from = req_f64(t, &section, "from")?;
            let to = req_f64(t, &section, "to")?;
            let kind = match (t.get("all_to"), t.get("map")) {
                (Some(_), Some(m)) => {
                    return Err(InputError::new(
                        m.line,
                        ctx(&section, "map"),
                        "a zone may have all_to or map, not both",
                    ))
                }
                (Some(a), None) => ZoneKindSpec::AllTo(str_of(a, &section, "all_to")?),
                (None, Some(m)) => {
                    let bad = || {
                        InputError::new(
                            m.line,
                            ctx(&section, "map"),
                            "expected an array of [\"from-material\", \"to-material\"] pairs",
                        )
                    };
                    let mut map = Vec::new();
                    for pair in m.value.as_arr().ok_or_else(bad)? {
                        let pair = pair.as_arr().ok_or_else(bad)?;
                        if pair.len() != 2 {
                            return Err(bad());
                        }
                        map.push((
                            pair[0].as_str().ok_or_else(bad)?.to_owned(),
                            pair[1].as_str().ok_or_else(bad)?.to_owned(),
                        ));
                    }
                    ZoneKindSpec::Map(map)
                }
                (None, None) => ZoneKindSpec::AsIs,
            };
            zones.push(ZoneSpec { line: t.line, from, to, kind });
        }
        if zones.is_empty() {
            return Err(InputError::new(1, "[[zone]]", "at least one axial [[zone]] is required"));
        }

        // [axial]
        let axial = doc
            .table("axial")
            .ok_or_else(|| InputError::new(1, "[axial]", "the [axial] section is required"))?;
        reject_unknown_keys(axial, "[axial]", &["dz"])?;
        let axial_dz = req_f64(axial, "[axial]", "dz")?;

        // [[source]]
        let mut sources = Vec::new();
        for t in doc.array("source") {
            let section = format!("[[source]] #{}", sources.len() + 1);
            reject_unknown_keys(t, &section, &["material", "groups", "strength"])?;
            let material = req_str(t, &section, "material")?;
            let groups_item = req(t, &section, "groups")?;
            let bad = || {
                InputError::new(
                    groups_item.line,
                    ctx(&section, "groups"),
                    "expected a non-empty array of 1-based group numbers, e.g. [1]",
                )
            };
            let mut groups = Vec::new();
            for g in groups_item.value.as_arr().ok_or_else(bad)? {
                let g = g.as_usize().ok_or_else(bad)?;
                if g == 0 {
                    return Err(InputError::new(
                        groups_item.line,
                        ctx(&section, "groups"),
                        "groups are 1-based; 0 is not a group",
                    ));
                }
                groups.push(g);
            }
            if groups.is_empty() {
                return Err(bad());
            }
            let strength = match t.get("strength") {
                None => 1.0,
                Some(i) => f64_of(i, &section, "strength")?,
            };
            sources.push(SourceSpec { line: t.line, material, groups, strength });
        }
        if kind == CaseKind::FixedSource && sources.is_empty() {
            return Err(InputError::new(
                case.line,
                "[case] kind",
                "a fixed-source case needs at least one [[source]]",
            ));
        }

        // [gates]
        let mut gates = GateSpec::default();
        if let Some(t) = doc.table("gates") {
            reject_unknown_keys(t, "[gates]", &["keff", "flux_ratio"])?;
            if let Some(item) = t.get("keff") {
                let (lo, hi) = f64_pair(item, "[gates]", "keff")?;
                if !(lo < hi) {
                    return Err(InputError::new(
                        item.line,
                        ctx("[gates]", "keff"),
                        format!("band [{lo}, {hi}] must satisfy lo < hi"),
                    ));
                }
                gates.keff = Some((lo, hi));
            }
            if let Some(item) = t.get("flux_ratio") {
                let bad = |msg: &str| {
                    InputError::new(item.line, ctx("[gates]", "flux_ratio"), msg.to_owned())
                };
                let tab = item
                    .value
                    .as_table()
                    .ok_or_else(|| bad("expected an inline table { from, to, group, min, max }"))?;
                let find = |k: &str| tab.iter().find(|(n, _)| n == k).map(|(_, v)| v);
                let s = |k: &str| -> Result<String, InputError> {
                    find(k)
                        .and_then(|v| v.as_str())
                        .map(str::to_owned)
                        .ok_or_else(|| bad(&format!("missing or non-string key {k:?}")))
                };
                let n = |k: &str| -> Result<f64, InputError> {
                    find(k)
                        .and_then(|v| v.as_f64())
                        .ok_or_else(|| bad(&format!("missing or non-numeric key {k:?}")))
                };
                let group = find("group")
                    .and_then(|v| v.as_usize())
                    .ok_or_else(|| bad("missing or non-integer key \"group\""))?;
                if group == 0 {
                    return Err(bad("groups are 1-based; 0 is not a group"));
                }
                gates.flux_ratio = Some(FluxRatioGate {
                    from: s("from")?,
                    to: s("to")?,
                    group,
                    min: n("min")?,
                    max: n("max")?,
                });
            }
        }

        // Pass-through sections, in file order.
        let mut raw = Vec::new();
        for (sname, t) in doc.tables() {
            if !PASSTHROUGH.contains(&sname) {
                continue;
            }
            let mut entries = Vec::new();
            for (k, item) in t.entries() {
                let value = item.value.raw_scalar().ok_or_else(|| {
                    InputError::new(
                        item.line,
                        ctx(&format!("[{sname}]"), k),
                        format!(
                            "solver sections take scalar values only, found {}",
                            item.value.type_name()
                        ),
                    )
                })?;
                let quoted = matches!(item.value, Value::Str(_));
                entries.push((k.clone(), RawEntry { line: item.line, value, quoted }));
            }
            raw.push((sname.to_owned(), entries));
        }

        Ok(CaseSpec {
            name,
            kind,
            geometry: GeometrySpec { library, aliases, pins, lattices, core, zones, axial_dz },
            sources,
            gates,
            raw,
        })
    }

    /// Renders the spec back to canonical TOML. `parse(emit(spec))`
    /// produces a spec that emits the same text.
    pub fn emit(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let g = &self.geometry;

        writeln!(s, "[case]").unwrap();
        writeln!(s, "name = {:?}", self.name).unwrap();
        let kind = match self.kind {
            CaseKind::Eigenvalue => "eigenvalue",
            CaseKind::FixedSource => "fixed-source",
        };
        writeln!(s, "kind = {kind:?}").unwrap();

        writeln!(s, "\n[materials]").unwrap();
        writeln!(s, "library = {:?}", g.library).unwrap();
        if !g.aliases.is_empty() {
            writeln!(s, "aliases = [").unwrap();
            for (new, old) in &g.aliases {
                writeln!(s, "  [{new:?}, {old:?}],").unwrap();
            }
            writeln!(s, "]").unwrap();
        }

        for pin in &g.pins {
            writeln!(s, "\n[[pin]]").unwrap();
            writeln!(s, "name = {:?}", pin.name).unwrap();
            match &pin.kind {
                PinKind::Fuel { fuel, moderator, pitch, radius, rings, sectors } => {
                    writeln!(s, "fuel = {fuel:?}").unwrap();
                    writeln!(s, "moderator = {moderator:?}").unwrap();
                    writeln!(s, "pitch = {pitch:?}").unwrap();
                    writeln!(s, "radius = {radius:?}").unwrap();
                    writeln!(s, "rings = {rings}").unwrap();
                    writeln!(s, "sectors = {sectors}").unwrap();
                }
                PinKind::Cell { fill } => {
                    writeln!(s, "fill = {fill:?}").unwrap();
                }
            }
        }

        for lat in &g.lattices {
            writeln!(s, "\n[[lattice]]").unwrap();
            writeln!(s, "name = {:?}", lat.name).unwrap();
            writeln!(s, "pitch = [{:?}, {:?}]", lat.pitch.0, lat.pitch.1).unwrap();
            let key: Vec<String> = lat.key.iter().map(|(c, n)| format!("{c} = {n:?}")).collect();
            writeln!(s, "key = {{ {} }}", key.join(", ")).unwrap();
            writeln!(s, "rows = [").unwrap();
            for r in &lat.rows {
                writeln!(s, "  {r:?},").unwrap();
            }
            writeln!(s, "]").unwrap();
        }

        writeln!(s, "\n[core]").unwrap();
        writeln!(s, "root = {:?}", g.core.root).unwrap();
        if let Some((w, h)) = g.core.width {
            writeln!(s, "width = [{w:?}, {h:?}]").unwrap();
        }
        let b = g.core.boundary;
        writeln!(
            s,
            "boundary = {{ x_min = {:?}, x_max = {:?}, y_min = {:?}, y_max = {:?}, z_min = \
             {:?}, z_max = {:?} }}",
            bc_name(b.x_min),
            bc_name(b.x_max),
            bc_name(b.y_min),
            bc_name(b.y_max),
            bc_name(b.z_min),
            bc_name(b.z_max),
        )
        .unwrap();

        for z in &g.zones {
            writeln!(s, "\n[[zone]]").unwrap();
            writeln!(s, "from = {:?}", z.from).unwrap();
            writeln!(s, "to = {:?}", z.to).unwrap();
            match &z.kind {
                ZoneKindSpec::AsIs => {}
                ZoneKindSpec::AllTo(m) => writeln!(s, "all_to = {m:?}").unwrap(),
                ZoneKindSpec::Map(map) => {
                    writeln!(s, "map = [").unwrap();
                    for (from, to) in map {
                        writeln!(s, "  [{from:?}, {to:?}],").unwrap();
                    }
                    writeln!(s, "]").unwrap();
                }
            }
        }

        writeln!(s, "\n[axial]").unwrap();
        writeln!(s, "dz = {:?}", g.axial_dz).unwrap();

        for src in &self.sources {
            writeln!(s, "\n[[source]]").unwrap();
            writeln!(s, "material = {:?}", src.material).unwrap();
            let groups: Vec<String> = src.groups.iter().map(|g| g.to_string()).collect();
            writeln!(s, "groups = [{}]", groups.join(", ")).unwrap();
            writeln!(s, "strength = {:?}", src.strength).unwrap();
        }

        if self.gates.keff.is_some() || self.gates.flux_ratio.is_some() {
            writeln!(s, "\n[gates]").unwrap();
            if let Some((lo, hi)) = self.gates.keff {
                writeln!(s, "keff = [{lo:?}, {hi:?}]").unwrap();
            }
            if let Some(fr) = &self.gates.flux_ratio {
                writeln!(
                    s,
                    "flux_ratio = {{ from = {:?}, to = {:?}, group = {}, min = {:?}, max = {:?} }}",
                    fr.from, fr.to, fr.group, fr.min, fr.max
                )
                .unwrap();
            }
        }

        for (sname, entries) in &self.raw {
            writeln!(s, "\n[{sname}]").unwrap();
            for (k, e) in entries {
                if e.quoted {
                    writeln!(s, "{k} = {:?}", e.value).unwrap();
                } else {
                    writeln!(s, "{k} = {}", e.value).unwrap();
                }
            }
        }

        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"
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
"#;

    #[test]
    fn minimal_case_parses_with_defaults() {
        let spec = CaseSpec::parse(MINIMAL).unwrap();
        assert_eq!(spec.name, "pin");
        assert_eq!(spec.kind, CaseKind::Eigenvalue);
        assert_eq!(spec.geometry.pins.len(), 1);
        match &spec.geometry.pins[0].kind {
            PinKind::Fuel { rings, sectors, .. } => {
                assert_eq!((*rings, *sectors), (1, 1));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(spec.geometry.core.boundary, BoundaryConds::reflective());
        assert!(spec.sources.is_empty());
        assert_eq!(spec.gates, GateSpec::default());
    }

    #[test]
    fn emit_parse_emit_is_stable() {
        let spec = CaseSpec::parse(MINIMAL).unwrap();
        let text = spec.emit();
        let spec2 = CaseSpec::parse(&text).unwrap();
        // Line numbers shift between the hand-written and canonical text,
        // so the invariant is emitted-text stability, not spec equality.
        assert_eq!(spec2.emit(), text);
    }

    #[test]
    fn unknown_section_is_rejected_with_line() {
        let text = format!("{MINIMAL}\n[mystery]\nx = 1\n");
        let e = CaseSpec::parse(&text).unwrap_err();
        assert!(e.context.contains("mystery"), "{e}");
        assert!(e.line > 20, "{e}");
    }

    #[test]
    fn non_rectangular_lattice_is_rejected() {
        let text = MINIMAL.replace("rows = [\"U\"]", "rows = [\"UU\", \"U\"]");
        let e = CaseSpec::parse(&text).unwrap_err();
        assert!(e.message.contains("rectangular"), "{e}");
        assert!(e.context.contains("lattice"), "{e}");
    }

    #[test]
    fn row_symbol_missing_from_key_is_rejected() {
        let text = MINIMAL.replace("rows = [\"U\"]", "rows = [\"X\"]");
        let e = CaseSpec::parse(&text).unwrap_err();
        assert!(e.message.contains("'X'"), "{e}");
    }

    #[test]
    fn fixed_source_without_sources_is_rejected() {
        let text = MINIMAL.replace("name = \"pin\"", "name = \"pin\"\nkind = \"fixed-source\"");
        let e = CaseSpec::parse(&text).unwrap_err();
        assert!(e.message.contains("[[source]]"), "{e}");
    }

    #[test]
    fn zone_with_all_to_and_map_is_rejected() {
        let text = MINIMAL
            .replace("to = 10.0", "to = 10.0\nall_to = \"moderator\"\nmap = [[\"a\", \"b\"]]");
        let e = CaseSpec::parse(&text).unwrap_err();
        assert!(e.message.contains("not both"), "{e}");
    }

    #[test]
    fn passthrough_sections_survive_round_trip() {
        let text = format!(
            "{MINIMAL}\n[solver]\ntolerance = 2e-4\nmode = \"otf\"\n[tracks]\nnum_azim = 4\n"
        );
        let spec = CaseSpec::parse(&text).unwrap();
        assert_eq!(spec.raw.len(), 2);
        let solver = &spec.raw[0];
        assert_eq!(solver.0, "solver");
        assert_eq!(solver.1[0].1.value, "2e-4");
        assert!(!solver.1[0].1.quoted);
        assert!(solver.1[1].1.quoted);
        let emitted = spec.emit();
        assert!(emitted.contains("tolerance = 2e-4"), "{emitted}");
        assert!(emitted.contains("mode = \"otf\""), "{emitted}");
        let spec2 = CaseSpec::parse(&emitted).unwrap();
        assert_eq!(spec2.emit(), emitted);
    }

    #[test]
    fn exact_float_text_survives_round_trip() {
        // Shortest-repr float text must survive parse -> emit unchanged so
        // geometry lowered from a re-emitted case is bit-identical.
        let text = MINIMAL.replace("to = 10.0", "to = 42.839999999999996");
        let spec = CaseSpec::parse(&text).unwrap();
        assert!(spec.emit().contains("to = 42.839999999999996"), "{}", spec.emit());
    }

    #[test]
    fn bad_boundary_face_and_value_are_rejected() {
        let text = MINIMAL
            .replace("root = \"cell\"", "root = \"cell\"\nboundary = { x_min = \"mirror\" }");
        let e = CaseSpec::parse(&text).unwrap_err();
        assert!(e.message.contains("mirror"), "{e}");

        let text =
            MINIMAL.replace("root = \"cell\"", "root = \"cell\"\nboundary = { top = \"vacuum\" }");
        let e = CaseSpec::parse(&text).unwrap_err();
        assert!(e.message.contains("top"), "{e}");
    }

    #[test]
    fn duplicate_pin_name_is_rejected() {
        let extra = "\n[[pin]]\nname = \"uo2\"\nfill = \"moderator\"\n";
        let text = format!("{MINIMAL}{extra}");
        let e = CaseSpec::parse(&text).unwrap_err();
        assert!(e.message.contains("already"), "{e}");
    }
}
