//! Output generation: assembly pin-wise fission rates, CSV and legacy-VTK
//! writers (the paper visualises Fig. 7 with ParaView; the VTK file this
//! module writes opens there too).

use std::collections::HashMap;
use std::io::Write;

use antmoc_geom::c5g7::{assembly_at, AssemblyKind, C5g7, PinAddress, PINS};
use antmoc_geom::Fsr3dId;
use antmoc_solver::Problem;

/// Assembly pin-wise fission rates on the 3x3-assembly quarter core,
/// normalised to mean 1 over fuel pins.
#[derive(Debug, Clone, Default)]
pub struct PinRates {
    /// `rates[(assembly, pin)]`; zero-rate pins (guide tubes) included.
    rates: HashMap<PinAddress, f64>,
}

impl PinRates {
    /// Aggregates per-FSR fission rates from one or more (sub)problems.
    /// Radial FSR ids are shared with the parent model (window geometries
    /// keep the parent enumeration), so decomposed contributions sum
    /// naturally.
    pub fn aggregate<'a>(
        model: &C5g7,
        parts: impl Iterator<Item = (&'a Problem, &'a [f64])>,
    ) -> Self {
        Self::aggregate_with(|radial| model.pin_of_fsr(radial), parts)
    }

    /// Aggregation core over an arbitrary radial-FSR-to-pin decoder, so
    /// declaratively described lattices reuse the same tally path as the
    /// hardcoded C5G7 model.
    pub fn aggregate_with<'a>(
        pin_of_fsr: impl Fn(antmoc_geom::FsrId) -> Option<PinAddress>,
        parts: impl Iterator<Item = (&'a Problem, &'a [f64])>,
    ) -> Self {
        let mut rates: HashMap<PinAddress, f64> = HashMap::new();
        for (problem, fsr_rates) in parts {
            let map = &problem.layout.fsr3d;
            for (i, &r) in fsr_rates.iter().enumerate() {
                if r == 0.0 {
                    continue;
                }
                let (radial, _axial) = map.split(Fsr3dId(i as u32));
                if let Some(pin) = pin_of_fsr(radial) {
                    *rates.entry(pin).or_insert(0.0) += r;
                }
            }
        }
        let mut out = Self { rates };
        out.normalise();
        out
    }

    /// Rates in deterministic (sorted `PinAddress`) order. Reductions sum
    /// in this order so a report is bitwise reproducible across runs —
    /// `HashMap` iteration order differs per instance.
    fn sorted(&self) -> Vec<(PinAddress, f64)> {
        let mut v: Vec<_> = self.rates.iter().map(|(&a, &r)| (a, r)).collect();
        v.sort_unstable_by_key(|&(a, _)| a);
        v
    }

    /// Normalises to mean 1 over pins with non-zero rate.
    fn normalise(&mut self) {
        let hot: Vec<f64> =
            self.sorted().into_iter().map(|(_, r)| r).filter(|&r| r > 0.0).collect();
        if hot.is_empty() {
            return;
        }
        let mean = hot.iter().sum::<f64>() / hot.len() as f64;
        for r in self.rates.values_mut() {
            *r /= mean;
        }
    }

    /// Rate of one pin (0 when never recorded, e.g. guide tubes).
    pub fn get(&self, assembly: (usize, usize), pin: (usize, usize)) -> f64 {
        self.rates.get(&PinAddress { assembly, pin }).copied().unwrap_or(0.0)
    }

    /// Mean over non-zero pins (1.0 after normalisation).
    pub fn mean(&self) -> f64 {
        let hot: Vec<f64> =
            self.sorted().into_iter().map(|(_, r)| r).filter(|&r| r > 0.0).collect();
        if hot.is_empty() {
            0.0
        } else {
            hot.iter().sum::<f64>() / hot.len() as f64
        }
    }

    /// All entries, sorted by address — the deterministic view a report
    /// writer or an identity test should consume.
    pub fn entries(&self) -> Vec<(PinAddress, f64)> {
        self.sorted()
    }

    /// Maximum relative difference against another rate map over pins hot
    /// in either (the paper's §5.1 comparison metric).
    pub fn max_relative_error(&self, other: &PinRates) -> f64 {
        let mut max = 0.0f64;
        for (addr, &a) in &self.rates {
            let b = other.rates.get(addr).copied().unwrap_or(0.0);
            let denom = a.abs().max(b.abs());
            if denom > 1e-12 {
                max = max.max((a - b).abs() / denom);
            }
        }
        for (addr, &b) in &other.rates {
            if !self.rates.contains_key(addr) && b.abs() > 1e-12 {
                max = max.max(1.0);
            }
        }
        max
    }

    /// RMS relative difference over pins hot in both maps.
    pub fn rms_relative_error(&self, other: &PinRates) -> f64 {
        let mut ss = 0.0;
        let mut n = 0usize;
        for (addr, &a) in &self.rates {
            if let Some(&b) = other.rates.get(addr) {
                if a > 1e-12 && b > 1e-12 {
                    let r = (a - b) / a;
                    ss += r * r;
                    n += 1;
                }
            }
        }
        if n == 0 {
            0.0
        } else {
            (ss / n as f64).sqrt()
        }
    }

    /// The full 51x51 pin grid (3 assemblies x 17 pins per side); entries
    /// are 0 for reflector positions.
    pub fn grid(&self) -> Vec<Vec<f64>> {
        let n = 3 * PINS;
        let mut g = vec![vec![0.0; n]; n];
        for (addr, &r) in &self.rates {
            let (ax, ay) = addr.assembly;
            // Pin addresses store (row=iy-in-lattice? we use lattice
            // (ix, iy) pairs); map to grid columns/rows.
            let (px, py) = addr.pin;
            g[ay * PINS + py][ax * PINS + px] = r;
        }
        g
    }

    /// Writes `x,y,rate` CSV (one row per pin position, including zero
    /// reflector entries) to a writer.
    pub fn write_csv<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        writeln!(w, "pin_x,pin_y,assembly_x,assembly_y,kind,rate")?;
        let grid = self.grid();
        for gy in 0..grid.len() {
            for gx in 0..grid.len() {
                let (ax, ay) = (gx / PINS, gy / PINS);
                let kind = match assembly_at(ax, ay) {
                    AssemblyKind::InnerUo2 => "inner-uo2",
                    AssemblyKind::OuterUo2 => "outer-uo2",
                    AssemblyKind::Mox => "mox",
                    AssemblyKind::Reflector => "reflector",
                };
                writeln!(w, "{gx},{gy},{ax},{ay},{kind},{:.6}", grid[gy][gx])?;
            }
        }
        Ok(())
    }

    /// Writes a legacy-VTK structured-points file of the pin-rate map
    /// (openable in ParaView, matching the paper's Fig. 7 workflow).
    pub fn write_vtk<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        let grid = self.grid();
        let n = grid.len();
        writeln!(w, "# vtk DataFile Version 3.0")?;
        writeln!(w, "ANT-MOC-RS pin-wise fission rates (C5G7)")?;
        writeln!(w, "ASCII")?;
        writeln!(w, "DATASET STRUCTURED_POINTS")?;
        writeln!(w, "DIMENSIONS {n} {n} 1")?;
        writeln!(w, "ORIGIN 0 0 0")?;
        writeln!(w, "SPACING 1.26 1.26 1")?;
        writeln!(w, "POINT_DATA {}", n * n)?;
        writeln!(w, "SCALARS fission_rate float 1")?;
        writeln!(w, "LOOKUP_TABLE default")?;
        for row in &grid {
            for v in row {
                writeln!(w, "{v:.6}")?;
            }
        }
        Ok(())
    }

    /// An ASCII heat map for terminal inspection (coarse: one character
    /// per pin).
    pub fn ascii_heatmap(&self) -> String {
        let grid = self.grid();
        let max = grid.iter().flat_map(|r| r.iter()).cloned().fold(0.0f64, f64::max).max(1e-12);
        let shades = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
        let mut out = String::new();
        for row in grid.iter().rev() {
            for &v in row {
                let idx = ((v / max) * (shades.len() as f64 - 1.0)).round() as usize;
                out.push(shades[idx.min(shades.len() - 1)]);
            }
            out.push('\n');
        }
        out
    }
}

/// A global axial power profile: fission rate integrated per axial slab
/// (the quantity behind the 3D extension's axially-dependent behaviour —
/// peaked at the reflective midplane, decaying toward the vacuum top).
#[derive(Debug, Clone)]
pub struct AxialPowerProfile {
    /// Normalised power per slab (mean 1 over non-zero slabs), bottom
    /// slab first.
    pub slabs: Vec<f64>,
    pub z_min: f64,
    pub z_max: f64,
}

impl AxialPowerProfile {
    /// Aggregates per-FSR fission rates into `n_slabs` uniform axial
    /// slabs over the model height. Works for single-domain and
    /// decomposed runs alike (each problem maps its own axial cells by
    /// midpoint z).
    pub fn aggregate<'a>(
        model: &C5g7,
        parts: impl Iterator<Item = (&'a Problem, &'a [f64])>,
        n_slabs: usize,
    ) -> Self {
        assert!(n_slabs >= 1);
        let (z_min, z_max) = model.geometry.z_range();
        let h = (z_max - z_min) / n_slabs as f64;
        let mut slabs = vec![0.0f64; n_slabs];
        for (problem, rates) in parts {
            let planes = problem.axial.planes();
            let map = &problem.layout.fsr3d;
            for (i, &r) in rates.iter().enumerate() {
                if r == 0.0 {
                    continue;
                }
                let (_, axial) = map.split(Fsr3dId(i as u32));
                let z_mid = 0.5 * (planes[axial] + planes[axial + 1]);
                let slab = (((z_mid - z_min) / h) as usize).min(n_slabs - 1);
                slabs[slab] += r;
            }
        }
        let hot: Vec<f64> = slabs.iter().copied().filter(|&x| x > 0.0).collect();
        if !hot.is_empty() {
            let mean = hot.iter().sum::<f64>() / hot.len() as f64;
            for s in slabs.iter_mut() {
                *s /= mean;
            }
        }
        Self { slabs, z_min, z_max }
    }

    /// Writes `z_lo,z_hi,power` CSV rows.
    pub fn write_csv<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        writeln!(w, "z_lo,z_hi,relative_power")?;
        let h = (self.z_max - self.z_min) / self.slabs.len() as f64;
        for (i, p) in self.slabs.iter().enumerate() {
            writeln!(
                w,
                "{:.4},{:.4},{:.6}",
                self.z_min + i as f64 * h,
                self.z_min + (i + 1) as f64 * h,
                p
            )?;
        }
        Ok(())
    }
}

/// Volume-weighted group flux spectra per assembly kind — the tally a
/// physicist reads first: fast-leaning spectra in the fuels, a thermal
/// hump in the reflector.
#[derive(Debug, Clone)]
pub struct GroupSpectra {
    /// `spectra[kind][group]`, normalised so each kind's spectrum sums
    /// to 1. Indexed by [`AssemblyKind`] order: inner UO2, outer UO2,
    /// MOX, reflector.
    pub spectra: [Vec<f64>; 4],
    pub num_groups: usize,
}

fn kind_index(kind: AssemblyKind) -> usize {
    match kind {
        AssemblyKind::InnerUo2 => 0,
        AssemblyKind::OuterUo2 => 1,
        AssemblyKind::Mox => 2,
        AssemblyKind::Reflector => 3,
    }
}

impl GroupSpectra {
    /// Aggregates `phi * V` per group over each assembly kind from one or
    /// more (sub)problems (pass each rank's flux for decomposed runs).
    pub fn aggregate<'a>(
        model: &C5g7,
        parts: impl Iterator<Item = (&'a Problem, &'a [f64])>,
    ) -> Self {
        let mut num_groups = 0;
        let mut acc: [Vec<f64>; 4] = Default::default();
        for (problem, phi) in parts {
            let g = problem.num_groups();
            num_groups = g;
            for a in acc.iter_mut() {
                if a.is_empty() {
                    *a = vec![0.0; g];
                }
            }
            let map = &problem.layout.fsr3d;
            for i in 0..problem.num_fsrs() {
                let v = problem.volumes[i];
                if v <= 0.0 {
                    continue;
                }
                let (radial, _) = map.split(Fsr3dId(i as u32));
                let kind = match model.pin_of_fsr(radial) {
                    Some(addr) => assembly_at(addr.assembly.0, addr.assembly.1),
                    None => AssemblyKind::Reflector,
                };
                let slot = &mut acc[kind_index(kind)];
                for gi in 0..g {
                    slot[gi] += phi[i * g + gi] * v;
                }
            }
        }
        for a in acc.iter_mut() {
            let total: f64 = a.iter().sum();
            if total > 0.0 {
                for x in a.iter_mut() {
                    *x /= total;
                }
            }
        }
        Self { spectra: acc, num_groups }
    }

    /// The spectrum of one assembly kind.
    pub fn of(&self, kind: AssemblyKind) -> &[f64] {
        &self.spectra[kind_index(kind)]
    }

    /// Thermal fraction (last group share) of a kind's spectrum.
    pub fn thermal_fraction(&self, kind: AssemblyKind) -> f64 {
        *self.of(kind).last().unwrap_or(&0.0)
    }

    /// Writes `kind,group,share` CSV rows.
    pub fn write_csv<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        writeln!(w, "kind,group,flux_share")?;
        for (kind, label) in [
            (AssemblyKind::InnerUo2, "inner-uo2"),
            (AssemblyKind::OuterUo2, "outer-uo2"),
            (AssemblyKind::Mox, "mox"),
            (AssemblyKind::Reflector, "reflector"),
        ] {
            for (gi, x) in self.of(kind).iter().enumerate() {
                writeln!(w, "{label},{},{x:.6}", gi + 1)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic() -> PinRates {
        let mut rates = HashMap::new();
        rates.insert(PinAddress { assembly: (0, 0), pin: (0, 0) }, 2.0);
        rates.insert(PinAddress { assembly: (0, 0), pin: (1, 0) }, 1.0);
        rates.insert(PinAddress { assembly: (1, 1), pin: (16, 16) }, 3.0);
        let mut p = PinRates { rates };
        p.normalise();
        p
    }

    #[test]
    fn normalisation_gives_unit_mean() {
        let p = synthetic();
        assert!((p.mean() - 1.0).abs() < 1e-12);
        assert_eq!(p.entries().len(), 3);
        // Relative ordering preserved.
        assert!(p.get((1, 1), (16, 16)) > p.get((0, 0), (0, 0)));
    }

    #[test]
    fn identical_maps_have_zero_error() {
        let p = synthetic();
        assert_eq!(p.max_relative_error(&p), 0.0);
        assert_eq!(p.rms_relative_error(&p), 0.0);
    }

    #[test]
    fn differing_maps_report_error() {
        let a = synthetic();
        let mut b = synthetic();
        if let Some(v) = b.rates.get_mut(&PinAddress { assembly: (0, 0), pin: (0, 0) }) {
            *v *= 1.1;
        }
        assert!(a.max_relative_error(&b) > 0.05);
    }

    #[test]
    fn csv_has_51x51_rows() {
        let p = synthetic();
        let mut buf = Vec::new();
        p.write_csv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 51 * 51 + 1);
        assert!(text.lines().next().unwrap().starts_with("pin_x"));
        assert!(text.contains("reflector"));
    }

    #[test]
    fn vtk_header_is_wellformed() {
        let p = synthetic();
        let mut buf = Vec::new();
        p.write_vtk(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("# vtk DataFile Version 3.0"));
        assert!(text.contains("DIMENSIONS 51 51 1"));
        let data_lines = text.lines().skip_while(|l| !l.starts_with("LOOKUP_TABLE")).count() - 1;
        assert_eq!(data_lines, 51 * 51);
    }

    #[test]
    fn heatmap_shape() {
        let p = synthetic();
        let art = p.ascii_heatmap();
        assert_eq!(art.lines().count(), 51);
        assert!(art.lines().all(|l| l.chars().count() == 51));
        assert!(art.contains('@'), "max pin should render darkest");
    }
}
