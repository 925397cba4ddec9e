//! # pdc-baseline
//!
//! The `HDF5-F` comparator (paper §VI): "a hand-optimized parallel code
//! using HDF5 to read data stored in HDF5 files and to perform a full scan
//! to obtain the query results".
//!
//! The baseline differs from PDC's full scan in its storage access
//! pattern, not its answer:
//!
//! * data lives in flat files with default striping — reads go out in
//!   chunk-sized requests with the flat-file placement penalty
//!   ([`pdc_storage::ReadPattern::FlatFile`]), which is how the paper's
//!   "PDC-F achieves up to 2× better performance over the HDF5-F ...
//!   because of the improvement from the initial data read" materializes;
//! * there is no metadata service — the BOSS experiment's metadata
//!   condition requires opening and inspecting **every** file
//!   ("a traversal of all H5BOSS files").

use pdc_storage::{CostModel, ReadPattern, SimDuration, WorkCounters};
use pdc_types::kernels::{self, ScanElem};
use pdc_types::Interval;

pub mod block_index;
pub use block_index::{BlockIndex, BlockIndexReport};

/// The parallel HDF5 full-scan reader.
#[derive(Debug, Clone)]
pub struct Hdf5Baseline {
    /// Cost model shared with the PDC experiments.
    pub cost: CostModel,
    /// Number of MPI ranks (the paper uses 64 processes on 64 nodes).
    pub ranks: u32,
}

/// Outcome of a baseline scan.
#[derive(Debug, Clone, Copy)]
pub struct BaselineReport {
    /// Matching elements.
    pub nhits: u64,
    /// Simulated time to read the data from storage.
    pub read_elapsed: SimDuration,
    /// Simulated time to scan it.
    pub scan_elapsed: SimDuration,
    /// Bytes read.
    pub bytes_read: u64,
}

impl BaselineReport {
    /// Total elapsed time.
    pub fn total(&self) -> SimDuration {
        self.read_elapsed + self.scan_elapsed
    }
}

impl Hdf5Baseline {
    /// A baseline runner with the given model and rank count.
    pub fn new(cost: CostModel, ranks: u32) -> Self {
        Self { cost, ranks: ranks.max(1) }
    }

    /// Full-scan a conjunction over one or more variables. Every
    /// variable's file is read wholly; the scan tests every element
    /// against all intervals. Ranks split the arrays evenly; the report
    /// times the slowest (= largest) share.
    pub fn full_scan_conjunction(&self, vars: &[(&[f32], Interval)]) -> BaselineReport {
        assert!(!vars.is_empty(), "need at least one variable");
        let n = vars[0].0.len();
        for (v, _) in vars {
            assert_eq!(v.len(), n, "variables must have identical length");
        }
        // Real evaluation (exact hit count): lower each interval to native
        // f32 thresholds once, then AND the per-variable 64-element hit
        // masks and popcount. A partial final block is safe because all
        // variables share a length — the first AND zeroes the high bits.
        let bounds: Vec<(f32, f32)> = vars.iter().map(|(_, iv)| f32::lower(iv)).collect();
        let mut nhits = 0u64;
        let mut i = 0usize;
        while i < n {
            let take = (n - i).min(64);
            let mut m = u64::MAX;
            for ((v, _), &(lo, hi)) in vars.iter().zip(&bounds) {
                m &= kernels::block_mask(&v[i..i + take], lo, hi);
            }
            nhits += m.count_ones() as u64;
            i += take;
        }
        // Simulated cost of the slowest rank.
        let share = n.div_ceil(self.ranks as usize);
        let share_bytes = (share * 4 * vars.len()) as u64;
        let requests = self.cost.pfs.flat_requests(share_bytes);
        let read_elapsed =
            self.cost.pfs.read_cost(share_bytes, requests, self.ranks, ReadPattern::FlatFile);
        let work = WorkCounters {
            elements_scanned: (share * vars.len()) as u64,
            ..Default::default()
        };
        let scan_elapsed = self.cost.cpu.work_cost(&work);
        BaselineReport {
            nhits,
            read_elapsed,
            scan_elapsed,
            bytes_read: (n * 4 * vars.len()) as u64,
        }
    }

    /// The Fig. 5 baseline: to answer a metadata + data query, HDF5 must
    /// open every file, check its attributes, and scan the flux arrays of
    /// the matching files. `all_files` is the total file count;
    /// `matching_flux` holds the flux arrays of the files that satisfy
    /// the metadata condition.
    pub fn boss_traversal(
        &self,
        all_files: u64,
        matching_flux: &[Vec<f32>],
        interval: &Interval,
    ) -> BaselineReport {
        // Exact evaluation on the matching files.
        let mut nhits = 0u64;
        let mut matched_bytes = 0u64;
        for flux in matching_flux {
            matched_bytes += flux.len() as u64 * 4;
            nhits += kernels::count_slice(flux, interval);
        }
        // Traversal: every file costs one open (a metadata request) on
        // some rank; matching files additionally read their data.
        let opens_per_rank = all_files.div_ceil(self.ranks as u64);
        let open_cost = self.cost.pfs.request_latency * opens_per_rank;
        let share_bytes = matched_bytes.div_ceil(self.ranks as u64);
        let requests = (matching_flux.len() as u64).div_ceil(self.ranks as u64).max(1);
        let read_elapsed = open_cost
            + self.cost.pfs.read_cost(share_bytes, requests, self.ranks, ReadPattern::FlatFile);
        let scanned: u64 =
            matching_flux.iter().map(|f| f.len() as u64).sum::<u64>() / self.ranks as u64;
        let scan_elapsed = self.cost.cpu.work_cost(&WorkCounters {
            elements_scanned: scanned,
            ..Default::default()
        });
        BaselineReport {
            nhits,
            read_elapsed,
            scan_elapsed,
            bytes_read: matched_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdc_types::QueryOp;

    fn cost() -> CostModel {
        CostModel::cori_like()
    }

    fn sample(n: usize) -> Vec<f32> {
        (0..n).map(|i| ((i * 37) % 1000) as f32 / 100.0).collect()
    }

    #[test]
    fn full_scan_counts_exactly() {
        let v = sample(50_000);
        let iv = Interval::open(2.1, 2.2);
        let expect = v.iter().filter(|&&x| iv.contains(x as f64)).count() as u64;
        let b = Hdf5Baseline::new(cost(), 64);
        let report = b.full_scan_conjunction(&[(&v, iv)]);
        assert_eq!(report.nhits, expect);
        assert_eq!(report.bytes_read, 200_000);
        assert!(report.read_elapsed > SimDuration::ZERO);
    }

    #[test]
    fn conjunction_over_multiple_variables() {
        let a = sample(20_000);
        let b_var: Vec<f32> = (0..20_000).map(|i| (i % 100) as f32).collect();
        let iv_a = Interval::from_op(QueryOp::Gt, 5.0);
        let iv_b = Interval::open(10.0, 20.0);
        let expect = (0..20_000)
            .filter(|&i| iv_a.contains(a[i] as f64) && iv_b.contains(b_var[i] as f64))
            .count() as u64;
        let b = Hdf5Baseline::new(cost(), 8);
        let report = b.full_scan_conjunction(&[(&a, iv_a), (&b_var, iv_b)]);
        assert_eq!(report.nhits, expect);
        assert_eq!(report.bytes_read, 20_000 * 4 * 2);
    }

    #[test]
    fn more_ranks_reduce_elapsed() {
        let v = sample(1_000_000);
        let iv = Interval::open(0.0, 5.0);
        let t8 = Hdf5Baseline::new(cost(), 8).full_scan_conjunction(&[(&v, iv)]);
        let t64 = Hdf5Baseline::new(cost(), 64).full_scan_conjunction(&[(&v, iv)]);
        assert!(t64.total() < t8.total());
        assert_eq!(t8.nhits, t64.nhits);
    }

    #[test]
    fn boss_traversal_dominated_by_opens() {
        let flux: Vec<Vec<f32>> = (0..50).map(|_| sample(128)).collect();
        let iv = Interval::open(0.0, 5.0);
        let b = Hdf5Baseline::new(cost(), 8);
        let few_files = b.boss_traversal(100, &flux, &iv);
        let many_files = b.boss_traversal(100_000, &flux, &iv);
        assert_eq!(few_files.nhits, many_files.nhits);
        assert!(
            many_files.total() > few_files.total() * 10,
            "file traversal must dominate: {} vs {}",
            many_files.total(),
            few_files.total()
        );
    }

    #[test]
    fn boss_nhits_exact() {
        let flux = vec![vec![1.0f32, 3.0, 10.0], vec![2.0, 30.0, 4.0]];
        let iv = Interval::open(0.0, 5.0);
        let b = Hdf5Baseline::new(cost(), 4);
        let report = b.boss_traversal(10, &flux, &iv);
        assert_eq!(report.nhits, 4);
    }

    #[test]
    #[should_panic(expected = "identical length")]
    fn mismatched_lengths_panic() {
        let a = sample(10);
        let b_var = sample(11);
        Hdf5Baseline::new(cost(), 2).full_scan_conjunction(&[
            (&a, Interval::ALL),
            (&b_var, Interval::ALL),
        ]);
    }
}
