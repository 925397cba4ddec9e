//! The **block index** comparator (paper §VIII, reference \[26\]):
//! "Block index is proposed to partition a dataset into fixed-size blocks
//! and record their minimum and maximum values. To speed up the data read
//! performance, each block with matching elements is read entirely to
//! avoid small non-contiguous access."
//!
//! It is the closest prior system to PDC-Query's histogram pruning — the
//! paper positions the global histogram as a strict improvement (richer
//! per-region statistics, selectivity-ordered multi-object planning).
//! Implementing it lets the ablation harness quantify that positioning:
//! min/max pruning alone vs. full-histogram pruning.

use pdc_storage::{CostModel, ReadPattern, SimDuration, WorkCounters};
use pdc_types::{Interval, Run, Selection};

/// A min/max block index over one flat dataset.
#[derive(Debug, Clone)]
pub struct BlockIndex {
    block_elems: usize,
    /// Per-block `[min, max]`.
    ranges: Vec<(f64, f64)>,
    n: usize,
}

/// Outcome of a block-index query.
#[derive(Debug, Clone)]
pub struct BlockIndexReport {
    /// Matching element coordinates.
    pub selection: Selection,
    /// Blocks whose `[min, max]` overlapped the interval (read wholly).
    pub blocks_read: usize,
    /// Total blocks.
    pub blocks_total: usize,
    /// Bytes read (whole blocks, f32 elements).
    pub bytes_read: u64,
    /// Simulated elapsed time for one reader.
    pub elapsed: SimDuration,
}

impl BlockIndex {
    /// Build over `values` with `block_elems` elements per block.
    pub fn build(values: &[f32], block_elems: usize) -> BlockIndex {
        assert!(block_elems > 0, "block size must be positive");
        let ranges = values
            .chunks(block_elems)
            .map(|chunk| {
                let mut lo = f64::INFINITY;
                let mut hi = f64::NEG_INFINITY;
                for &v in chunk {
                    let v = v as f64;
                    if v < lo {
                        lo = v;
                    }
                    if v > hi {
                        hi = v;
                    }
                }
                (lo, hi)
            })
            .collect();
        BlockIndex { block_elems, ranges, n: values.len() }
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.ranges.len()
    }

    /// Index metadata size: two f64 per block.
    pub fn size_bytes(&self) -> u64 {
        16 * self.ranges.len() as u64
    }

    /// Blocks whose `[min, max]` overlaps the interval.
    pub fn candidate_blocks(&self, interval: &Interval) -> Vec<usize> {
        self.ranges
            .iter()
            .enumerate()
            .filter(|(_, &(lo, hi))| interval.overlaps_range(lo, hi))
            .map(|(k, _)| k)
            .collect()
    }

    /// Evaluate a range query: read every candidate block wholly, scan
    /// it, and charge one reader's simulated time under `cost` with
    /// `concurrency` concurrent readers.
    pub fn query(
        &self,
        values: &[f32],
        interval: &Interval,
        cost: &CostModel,
        concurrency: u32,
    ) -> BlockIndexReport {
        assert_eq!(values.len(), self.n, "index built over a different dataset");
        let candidates = self.candidate_blocks(interval);
        let mut runs: Vec<Run> = Vec::new();
        let mut scanned = 0u64;
        for &b in &candidates {
            let start = b * self.block_elems;
            let end = (start + self.block_elems).min(self.n);
            scanned += (end - start) as u64;
            let mut open: Option<Run> = None;
            for (i, &v) in values[start..end].iter().enumerate() {
                if interval.contains(v as f64) {
                    match &mut open {
                        Some(r) => r.len += 1,
                        None => open = Some(Run::new((start + i) as u64, 1)),
                    }
                } else if let Some(r) = open.take() {
                    runs.push(r);
                }
            }
            if let Some(r) = open {
                runs.push(r);
            }
        }
        let bytes_read = scanned * 4;
        let io = cost.pfs.read_cost(
            bytes_read,
            candidates.len() as u64,
            concurrency,
            ReadPattern::Aggregated,
        );
        let cpu = cost
            .cpu
            .work_cost(&WorkCounters { elements_scanned: scanned, ..Default::default() });
        BlockIndexReport {
            selection: Selection::from_runs(runs),
            blocks_read: candidates.len(),
            blocks_total: self.num_blocks(),
            bytes_read,
            elapsed: io + cpu,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdc_types::QueryOp;

    fn sample(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| {
                if (2000..2200).contains(&(i % 8000)) {
                    5.0 + (i % 40) as f32 * 0.01
                } else {
                    (i % 100) as f32 / 50.0
                }
            })
            .collect()
    }

    #[test]
    fn query_matches_naive_filter() {
        let values = sample(50_000);
        let idx = BlockIndex::build(&values, 1024);
        let cost = CostModel::cori_like();
        for iv in [
            Interval::open(5.0, 5.2),
            Interval::from_op(QueryOp::Lt, 0.5),
            Interval::closed(1.0, 1.5),
            Interval::from_op(QueryOp::Gt, 100.0),
        ] {
            let report = idx.query(&values, &iv, &cost, 8);
            let expect: Vec<u64> = (0..values.len() as u64)
                .filter(|&i| iv.contains(values[i as usize] as f64))
                .collect();
            assert_eq!(report.selection.iter_coords().collect::<Vec<_>>(), expect, "{iv}");
        }
    }

    #[test]
    fn clustered_values_prune_blocks() {
        let values = sample(80_000);
        let idx = BlockIndex::build(&values, 1000);
        let report = idx.query(&values, &Interval::open(5.0, 6.0), &CostModel::cori_like(), 8);
        assert!(report.blocks_read < report.blocks_total / 2, "{report:?}");
        assert!(report.bytes_read < 80_000 * 4 / 2);
    }

    #[test]
    fn min_max_cannot_prune_straddled_blocks() {
        // One low and one high value per block: min/max straddles every
        // mid-range query — the weakness the histogram fixes.
        let values: Vec<f32> = (0..10_000).map(|i| if i % 2 == 0 { 0.0 } else { 10.0 }).collect();
        let idx = BlockIndex::build(&values, 500);
        let report = idx.query(&values, &Interval::open(4.0, 6.0), &CostModel::cori_like(), 8);
        assert_eq!(report.blocks_read, report.blocks_total);
        assert_eq!(report.selection.count(), 0);
    }

    #[test]
    fn index_size_is_tiny() {
        let values = sample(100_000);
        let idx = BlockIndex::build(&values, 1024);
        assert_eq!(idx.size_bytes(), 16 * idx.num_blocks() as u64);
        assert!(idx.size_bytes() < 4 * values.len() as u64 / 100);
    }

    #[test]
    #[should_panic(expected = "block size must be positive")]
    fn zero_block_size_panics() {
        BlockIndex::build(&[1.0], 0);
    }

    #[test]
    #[should_panic(expected = "different dataset")]
    fn mismatched_dataset_panics() {
        let idx = BlockIndex::build(&[1.0, 2.0], 1);
        idx.query(&[1.0], &Interval::ALL, &CostModel::cori_like(), 1);
    }
}
