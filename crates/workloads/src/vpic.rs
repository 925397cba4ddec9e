//! The calibrated VPIC-like particle generator.
//!
//! Calibration (see DESIGN.md): energy is a two-part distribution —
//! a thermal bulk on `[0, 2)` (truncated exponential, rate ≈ 1.47) and an
//! energetic tail above 2.0 with mass ≈ 5.29 % decaying at rate ≈ 5.78.
//! These constants solve the paper's two anchor selectivities:
//!
//! * `P(2.1 < E < 2.2)` = 0.0529 · (e^(−0.578) − e^(−1.156)) ≈ **1.30 %**
//!   (paper: 1.3025 %),
//! * `P(3.5 < E < 3.6)` ≈ **4·10⁻⁶** (paper: 0.0004 %).
//!
//! Particles are generated in cell order: `x` ramps across the domain over
//! the whole array, `y` and `z` cycle (triangle waves) with decreasing
//! period — like a row-major sweep of the simulation grid. Tail particles
//! concentrate (99.8 %) in a "reconnection region" at high `x`/`y` — and,
//! because particles are stored in cell order, in *index* space too — so
//! the multi-object query boxes, which sit outside it, keep their
//! sub-0.01 % joint selectivities, and most array regions stay tail-free
//! (prunable).

use crate::dist;
use pdc_odms::{ImportOptions, ImportReport, Odms};
use pdc_types::{unit_f64, ContainerId, ObjectId, PdcResult, TypedVec};

/// Generator parameters.
#[derive(Debug, Clone, Copy)]
pub struct VpicConfig {
    /// Number of particles (the paper has 125 billion; default scale is
    /// set by the harness, typically a few million).
    pub particles: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for VpicConfig {
    fn default() -> Self {
        Self { particles: 1 << 20, seed: 0x5EED_201C }
    }
}

/// Domain extents (match the paper's query constants: `100 < x < 200`,
/// `−90 < y < 0`, `0 < z < 66`).
pub const X_MAX: f64 = 332.0;
pub const Y_MIN: f64 = -125.0;
pub const Y_MAX: f64 = 125.0;
pub const Z_MAX: f64 = 132.0;

/// Tail decay rate: solves the 1.30 % → 0.0004 % span over `ΔE = 1.4`.
pub const TAIL_RATE: f64 = 5.78;
/// Fraction of particles in the energetic tail (E ≥ 2.0).
pub const TAIL_MASS: f64 = 0.0529;
/// Fraction of tail particles inside the reconnection region. Stray
/// energetic particles outside it are rare enough that most regions keep
/// prunable (tail-free) min/max ranges — as in the real VPIC data.
pub const TAIL_CONCENTRATION: f64 = 0.998;

/// Index-block size for tail energy draws (particles accelerated in the
/// same burst share a narrow energy band).
pub const TAIL_BLOCK: usize = 64;

/// Fraction of all particles inside the reconnection ("hot") region:
/// `P(x > 0.62·X_MAX) · P(y > 0.25·Y_MAX)` ≈ 0.38 · 0.375.
pub const HOT_FRACTION: f64 = 0.1425;

/// Cycles of the bulk temperature field along the particle array; slow
/// relative to region sizes, so bulk energies are locally narrow — the
/// property that makes per-region histograms informative and WAH bitmap
/// bins compressible (thermal plasma: nearby particles share a local
/// temperature).
pub const TEMPERATURE_CYCLES: f64 = 23.0;

/// The seven VPIC variables.
#[derive(Debug, Clone)]
pub struct VpicData {
    /// Particle energy.
    pub energy: Vec<f32>,
    /// Positions.
    pub x: Vec<f32>,
    /// Positions.
    pub y: Vec<f32>,
    /// Positions.
    pub z: Vec<f32>,
    /// Momenta.
    pub ux: Vec<f32>,
    /// Momenta.
    pub uy: Vec<f32>,
    /// Momenta.
    pub uz: Vec<f32>,
}

/// Ids of the seven imported objects.
#[derive(Debug, Clone, Copy)]
pub struct VpicObjects {
    /// `Energy`
    pub energy: ObjectId,
    /// `x`
    pub x: ObjectId,
    /// `y`
    pub y: ObjectId,
    /// `z`
    pub z: ObjectId,
    /// `Ux`
    pub ux: ObjectId,
    /// `Uy`
    pub uy: ObjectId,
    /// `Uz`
    pub uz: ObjectId,
}

impl VpicData {
    /// Generate the dataset.
    pub fn generate(cfg: &VpicConfig) -> VpicData {
        let n = cfg.particles;
        let mut rng = cfg.seed;
        // Tail energies are drawn per index *block*: energetic particles
        // accelerated together share a narrow energy band (and make the
        // bitmap index compress, as real VPIC data does). The marginal
        // distribution stays the calibrated truncated exponential.
        let mut block_rng = cfg.seed ^ 0xB10C_B10C;
        let tail_blocks: Vec<f64> = (0..n / TAIL_BLOCK + 2)
            .map(|_| dist::truncated_exponential(&mut block_rng, TAIL_RATE, 2.55))
            .collect();
        let mut energy = Vec::with_capacity(n);
        let mut x = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        let mut z = Vec::with_capacity(n);
        let mut ux = Vec::with_capacity(n);
        let mut uy = Vec::with_capacity(n);
        let mut uz = Vec::with_capacity(n);

        // Position cycling periods (fractions of the whole array): x ramps
        // once; y cycles ~40 times; z cycles ~600 times — a row-major cell
        // sweep. Jitter adds sub-cell scatter.
        let y_cycles = 40.0;
        let z_cycles = 600.0;
        for i in 0..n {
            let u = i as f64 / n as f64;
            let jx = dist::uniform(&mut rng, -0.5, 0.5) * (X_MAX / 96.0);
            let jy = dist::uniform(&mut rng, -0.5, 0.5) * ((Y_MAX - Y_MIN) / 64.0);
            let jz = dist::uniform(&mut rng, -0.5, 0.5) * (Z_MAX / 48.0);
            let px = (u * X_MAX + jx).clamp(0.0, X_MAX);
            let py = (Y_MIN + dist::triangle(u * y_cycles) * (Y_MAX - Y_MIN) + jy)
                .clamp(Y_MIN, Y_MAX);
            let pz = (dist::triangle(u * z_cycles) * Z_MAX + jz).clamp(0.0, Z_MAX);

            // Energetic particles live where the particle *is*: the
            // reconnection region at high x / high y. Because particles
            // are stored in cell order, tail energies are thereby also
            // clustered in *index* space — whole array regions are
            // tail-free, which is what makes histogram-based region
            // elimination effective (as on the real VPIC data). The
            // conditional probabilities keep the overall tail mass at the
            // calibrated TAIL_MASS.
            let hot = px > 0.62 * X_MAX && py > 0.25 * Y_MAX;
            let p_tail = if hot {
                TAIL_MASS * TAIL_CONCENTRATION / HOT_FRACTION
            } else {
                TAIL_MASS * (1.0 - TAIL_CONCENTRATION) / (1.0 - HOT_FRACTION)
            };
            let is_tail = unit_f64(&mut rng) < p_tail;
            let e = if is_tail {
                (2.0 + tail_blocks[i / TAIL_BLOCK] + dist::normal(&mut rng, 0.0, 0.02))
                    .clamp(2.0, 4.6)
            } else {
                let temperature = 0.05
                    + 0.75 * (1.0 + (2.0 * std::f64::consts::PI * u * TEMPERATURE_CYCLES).sin());
                (temperature + dist::normal(&mut rng, 0.0, 0.08)).clamp(0.0, 1.999)
            };

            // Momenta: thermal spread scaled by energy.
            let sigma = (e.max(1e-3)).sqrt() * 0.4;
            ux.push(dist::normal(&mut rng, 0.0, sigma) as f32);
            uy.push(dist::normal(&mut rng, 0.0, sigma) as f32);
            uz.push(dist::normal(&mut rng, 0.0, sigma) as f32);
            energy.push(e as f32);
            x.push(px as f32);
            y.push(py as f32);
            z.push(pz as f32);
        }
        VpicData { energy, x, y, z, ux, uy, uz }
    }

    /// Number of particles.
    pub fn len(&self) -> usize {
        self.energy.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.energy.is_empty()
    }

    /// The seven variables as `(name, values)` pairs.
    pub fn variables(&self) -> [(&'static str, &Vec<f32>); 7] {
        [
            ("Energy", &self.energy),
            ("x", &self.x),
            ("y", &self.y),
            ("z", &self.z),
            ("Ux", &self.ux),
            ("Uy", &self.uy),
            ("Uz", &self.uz),
        ]
    }

    /// Import all seven variables into an ODMS; returns the object ids
    /// and the per-object import reports. `opts.build_sorted` applies to
    /// `Energy` only — the paper sorts by the primary queried object.
    pub fn import_all(
        &self,
        odms: &Odms,
        container: ContainerId,
        opts: &ImportOptions,
    ) -> PdcResult<(VpicObjects, Vec<ImportReport>)> {
        let mut ids = Vec::with_capacity(7);
        let mut reports = Vec::with_capacity(7);
        for (i, (name, values)) in self.variables().into_iter().enumerate() {
            let var_opts = ImportOptions { build_sorted: opts.build_sorted && i == 0, ..opts.clone() };
            let report =
                odms.import_array(container, name, TypedVec::Float(values.clone()), &var_opts)?;
            ids.push(report.object);
            reports.push(report);
        }
        Ok((
            VpicObjects {
                energy: ids[0],
                x: ids[1],
                y: ids[2],
                z: ids[3],
                ux: ids[4],
                uy: ids[5],
                uz: ids[6],
            },
            reports,
        ))
    }

    /// Exact selectivity of an interval on one variable (ground truth for
    /// target-vs-achieved reporting).
    pub fn exact_selectivity(values: &[f32], interval: &pdc_types::Interval) -> f64 {
        if values.is_empty() {
            return 0.0;
        }
        values.iter().filter(|&&v| interval.contains(v as f64)).count() as f64
            / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdc_types::Interval;

    fn small() -> VpicData {
        VpicData::generate(&VpicConfig { particles: 400_000, seed: 1234 })
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = VpicConfig { particles: 10_000, seed: 99 };
        let a = VpicData::generate(&cfg);
        let b = VpicData::generate(&cfg);
        assert_eq!(a.energy, b.energy);
        assert_eq!(a.x, b.x);
    }

    #[test]
    fn anchor_selectivity_low_end() {
        // paper: 2.1 < E < 2.2 -> 1.3025 %
        let d = small();
        let s = VpicData::exact_selectivity(&d.energy, &Interval::open(2.1, 2.2));
        assert!((s - 0.0130).abs() < 0.0025, "got {s}, want ~0.0130");
    }

    #[test]
    fn anchor_selectivity_high_end() {
        // paper: 3.5 < E < 3.6 -> 0.0004 % = 4e-6; with 400k particles the
        // expected count is ~1.6, so just bound it loosely.
        let d = small();
        let s = VpicData::exact_selectivity(&d.energy, &Interval::open(3.5, 3.6));
        assert!(s < 5e-5, "got {s}, want ~4e-6");
    }

    #[test]
    fn selectivity_decreases_along_the_sweep() {
        // Tail energies are drawn per block, so small windows are noisy at
        // this sample size; check the decay over wider windows where the
        // expectation dominates the block quantization.
        let d = small();
        let mut prev = f64::INFINITY;
        for k in 0..4 {
            let lo = 2.0 + 0.4 * k as f64;
            let s = VpicData::exact_selectivity(&d.energy, &Interval::open(lo, lo + 0.4));
            assert!(s < prev, "selectivity not decaying at {lo}: {s} vs {prev}");
            prev = s;
        }
    }

    #[test]
    fn every_column_is_nan_free() {
        // NaN satisfies no predicate, so NaN in a generated column would
        // change every hit count. None can arise — each sampler takes `ln`
        // of a value in (0, 1] and `sqrt` of a non-negative one — and the
        // benchmark's seed (1) and the default one show it.
        for seed in [1, VpicConfig::default().seed] {
            let d = VpicData::generate(&VpicConfig { particles: 200_000, seed });
            for (name, values) in d.variables() {
                assert!(values.iter().all(|v| !v.is_nan()), "seed {seed}: NaN in {name}");
            }
        }
    }

    #[test]
    fn positions_inside_domain() {
        let d = small();
        assert!(d.x.iter().all(|&v| (0.0..=X_MAX as f32).contains(&v)));
        assert!(d.y.iter().all(|&v| (Y_MIN as f32..=Y_MAX as f32).contains(&v)));
        assert!(d.z.iter().all(|&v| (0.0..=Z_MAX as f32).contains(&v)));
    }

    #[test]
    fn x_is_smooth_along_the_array() {
        // Cell-ordered layout: the first tenth of the array must stay at
        // low x (up to jitter and relocated tail particles).
        let d = small();
        let tenth = d.len() / 10;
        let low_x = d.x[..tenth].iter().filter(|&&v| v < 0.2 * X_MAX as f32).count();
        assert!(
            low_x as f64 > 0.9 * tenth as f64,
            "x not smooth: only {low_x}/{tenth} small"
        );
    }

    #[test]
    fn tail_particles_cluster_in_reconnection_region() {
        let d = small();
        let (mut inside, mut total) = (0u64, 0u64);
        for i in 0..d.len() {
            if d.energy[i] > 2.0 {
                total += 1;
                if d.x[i] > 200.0 && d.y[i] > 25.0 {
                    inside += 1;
                }
            }
        }
        assert!(total > 0);
        let frac = inside as f64 / total as f64;
        assert!(frac > 0.9, "only {frac:.3} of tail particles in the hot region");
    }

    #[test]
    fn joint_multiobject_selectivity_is_tiny() {
        // paper Q1: E > 2.0 AND 100<x<200 AND -90<y<0 AND 0<z<66
        // -> 0.0013 %.
        let d = small();
        let n = d.len();
        let hits = (0..n)
            .filter(|&i| {
                d.energy[i] > 2.0
                    && d.x[i] > 100.0
                    && d.x[i] < 200.0
                    && d.y[i] > -90.0
                    && d.y[i] < 0.0
                    && d.z[i] > 0.0
                    && d.z[i] < 66.0
            })
            .count();
        let s = hits as f64 / n as f64;
        assert!(s < 2e-4, "joint selectivity {s} not in the paper's regime");
    }

    #[test]
    fn energy_threshold_vs_x_band_selectivity_ordering() {
        // The Fig. 4 anomaly requires P(E > 1.3) > P(100 < x < 140) so the
        // planner evaluates x first for the last catalog queries.
        let d = small();
        let e = VpicData::exact_selectivity(
            &d.energy,
            &Interval::from_op(pdc_types::QueryOp::Gt, 1.3),
        );
        let x = VpicData::exact_selectivity(&d.x, &Interval::open(100.0, 140.0));
        assert!(e > x, "P(E>1.3)={e} must exceed P(100<x<140)={x}");
    }

    #[test]
    fn momenta_scale_with_energy() {
        let d = small();
        // mean |ux| of tail particles should exceed that of bulk.
        let (mut tail_sum, mut tail_n, mut bulk_sum, mut bulk_n) = (0.0f64, 0u64, 0.0f64, 0u64);
        for i in 0..d.len() {
            if d.energy[i] > 2.0 {
                tail_sum += d.ux[i].abs() as f64;
                tail_n += 1;
            } else if d.energy[i] < 0.5 {
                bulk_sum += d.ux[i].abs() as f64;
                bulk_n += 1;
            }
        }
        assert!(tail_sum / tail_n as f64 > bulk_sum / bulk_n as f64);
    }
}
