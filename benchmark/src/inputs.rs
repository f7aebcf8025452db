//! Seeded input generation: the program under test only ever sees the
//! text produced here. Seed 0 is the nominal laydown; any other seed
//! jitters both track spacings (the same factor for every workload of a
//! run, so their results still cross-check) and reshuffles the serve
//! campaign, so no result can be memoised on one laydown or one order.

use std::path::Path;

const SINGLE_TEMPLATE: &str = include_str!("../workloads/c5g7_single.toml.tmpl");
const DECOMP_TEMPLATE: &str = include_str!("../workloads/c5g7_decomp.ini.tmpl");

/// The four serve-campaign cases, in submit order at seed 0.
pub const SERVE_CASES: [(&str, &str); 4] = [
    ("pin_cell", include_str!("../workloads/serve_pin_cell.toml")),
    ("assembly_17x17", include_str!("../workloads/serve_assembly_17x17.toml")),
    ("shield_slab", include_str!("../workloads/serve_shield_slab.toml")),
    ("c5g7", include_str!("../workloads/serve_c5g7.toml")),
];

/// Closed-loop clients of the serve campaign, each with one job in
/// flight. Each submits the four cases once, so every case is cold once
/// and warm once, and a campaign is short enough (~3.5 s on the service's
/// one worker) that a run holds five of them.
pub const SERVE_CLIENTS: usize = 2;

/// The track laydown shared by the five solver workloads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Laydown {
    pub num_azim: usize,
    pub radial_spacing: f64,
    pub num_polar: usize,
    pub axial_spacing: f64,
}

/// Sized so one converged solve takes ~3 s on one core of the reference
/// host (a run must fit several passes into `run_seconds`). Eight
/// azimuthal angles make the segment count a smooth function of the
/// spacing, so the seed jitter moves the work by ~1% instead of the
/// 5% steps a four-angle laydown takes.
pub const NOMINAL: Laydown =
    Laydown { num_azim: 8, radial_spacing: 2.0, num_polar: 2, axial_spacing: 20.0 };

/// The shipped `cases/c5g7.toml` laydown, for `--smoke`.
pub const SMOKE: Laydown =
    Laydown { num_azim: 4, radial_spacing: 1.2, num_polar: 2, axial_spacing: 20.0 };

/// Largest relative spacing change a seed applies.
pub const JITTER: f64 = 0.01;

/// SplitMix64: tiny, seedable, and stable by definition.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, (self.next_u64() % (i as u64 + 1)) as usize);
        }
    }
}

/// Everything one run feeds the program, generated from the seed alone.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    pub seed: u64,
    pub laydown: Laydown,
    pub otf: String,
    pub explicit: String,
    pub device_manager: String,
    pub decomp_sync: String,
    pub decomp_pipelined: String,
    /// Per client, the case index into [`SERVE_CASES`] of each job it
    /// submits, in order: a permutation of `0..4`.
    pub serve_order: Vec<Vec<usize>>,
}

fn fill(template: &str, values: &[(&str, String)]) -> String {
    let mut text = template.to_owned();
    for (key, value) in values {
        text = text.replace(&format!("{{{{{key}}}}}"), value);
    }
    assert!(!text.contains("{{"), "unfilled placeholder in generated input");
    text
}

fn laydown_values(l: &Laydown) -> Vec<(&'static str, String)> {
    vec![
        ("num_azim", l.num_azim.to_string()),
        ("radial_spacing", l.radial_spacing.to_string()),
        ("num_polar", l.num_polar.to_string()),
        ("axial_spacing", l.axial_spacing.to_string()),
    ]
}

fn single(l: &Laydown, name: &str, backend: &str, mode: &str, extra: &str) -> String {
    let mut values = laydown_values(l);
    values.extend([
        ("name", name.to_owned()),
        ("backend", backend.to_owned()),
        ("mode", mode.to_owned()),
        ("solver_extra", extra.to_owned()),
    ]);
    fill(SINGLE_TEMPLATE, &values)
}

fn decomp(l: &Laydown, exchange: &str) -> String {
    let mut values = laydown_values(l);
    values.push(("exchange", exchange.to_owned()));
    fill(DECOMP_TEMPLATE, &values)
}

pub fn generate(seed: u64, smoke: bool) -> Inputs {
    let mut rng = Rng::new(seed);
    let base = if smoke { SMOKE } else { NOMINAL };
    let factor = if seed == 0 { 1.0 } else { 1.0 + JITTER * (2.0 * rng.next_f64() - 1.0) };
    let laydown = Laydown {
        radial_spacing: base.radial_spacing * factor,
        axial_spacing: base.axial_spacing * factor,
        ..base
    };
    let serve_order = (0..SERVE_CLIENTS)
        .map(|_| {
            let mut jobs = vec![0usize, 1, 2, 3];
            if seed != 0 {
                rng.shuffle(&mut jobs);
            }
            jobs
        })
        .collect();
    Inputs {
        seed,
        laydown,
        otf: single(&laydown, "c5g7_otf", "cpu", "otf", ""),
        explicit: single(&laydown, "c5g7_explicit", "cpu", "explicit", ""),
        // The text surface only takes whole megabytes, and this laydown's
        // whole segment store is under one: workloads.rs narrows the
        // parsed budget to a fixed share of the store (see
        // `MANAGER_RESIDENT_SHARE`).
        device_manager: single(
            &laydown,
            "c5g7_device_manager",
            "device",
            "manager",
            "manager_budget_mb = 1\ncu_mapping = \"l3\"\ndevice_memory_mb = 256\n",
        ),
        decomp_sync: decomp(&laydown, "sync"),
        decomp_pipelined: decomp(&laydown, "pipelined"),
        serve_order,
    }
}

impl Inputs {
    /// Writes the generated texts under `dir` for inspection.
    pub fn write(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        for (file, text) in [
            ("c5g7_otf.toml", &self.otf),
            ("c5g7_explicit.toml", &self.explicit),
            ("c5g7_device_manager.toml", &self.device_manager),
            ("c5g7_decomp_sync.ini", &self.decomp_sync),
            ("c5g7_decomp_pipelined.ini", &self.decomp_pipelined),
        ] {
            std::fs::write(dir.join(file), text)?;
        }
        let order: Vec<String> = self
            .serve_order
            .iter()
            .enumerate()
            .flat_map(|(client, jobs)| {
                jobs.iter().map(move |&i| format!("client{client} {}\n", SERVE_CASES[i].0))
            })
            .collect();
        std::fs::write(dir.join("serve_campaign.order"), order.concat())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_input_bytes() {
        for seed in [0, 1, 42, u64::MAX] {
            assert_eq!(generate(seed, false), generate(seed, false));
        }
    }

    #[test]
    fn seed_zero_is_nominal_and_other_seeds_jitter_within_bounds() {
        assert_eq!(generate(0, false).laydown, NOMINAL);
        assert_eq!(generate(0, true).laydown, SMOKE);
        assert_eq!(generate(0, false).serve_order[0], [0, 1, 2, 3]);
        let mut distinct = std::collections::BTreeSet::new();
        for seed in 1..50 {
            let l = generate(seed, false).laydown;
            let f = l.radial_spacing / NOMINAL.radial_spacing;
            assert!((f - 1.0).abs() <= JITTER, "seed {seed}: factor {f}");
            // One factor for both spacings.
            assert!((l.axial_spacing / NOMINAL.axial_spacing - f).abs() < 1e-12);
            distinct.insert(f.to_bits());
        }
        assert!(distinct.len() > 40, "seeds must spread over the jitter range");
    }

    #[test]
    fn every_client_visits_each_case_once() {
        for seed in [0, 3, 9] {
            let order = generate(seed, false).serve_order;
            assert_eq!(order.len(), SERVE_CLIENTS);
            for jobs in &order {
                let mut sorted = jobs.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, [0, 1, 2, 3]);
            }
        }
    }

    #[test]
    fn generated_texts_carry_the_jittered_spacing() {
        let inputs = generate(5, false);
        let needle = format!("radial_spacing = {}", inputs.laydown.radial_spacing);
        for text in [&inputs.otf, &inputs.explicit, &inputs.device_manager, &inputs.decomp_sync] {
            assert!(text.contains(&needle));
        }
        assert!(inputs.decomp_pipelined.contains("exchange = pipelined"));
        assert!(inputs.device_manager.contains("backend = \"device\""));
    }
}
