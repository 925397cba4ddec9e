//! Offline shim for `rayon`: the subset of the API the workspace calls.
//!
//! The parallel-slice sort methods run sequentially (correctness is
//! identical; simulated times are unaffected — they come from the cost
//! model, not the host clock). Nothing here spawns a thread: the server
//! crew is the workspace's only source of parallelism.

/// Sequential stand-ins for rayon's parallel slice-sort methods.
pub trait ParallelSliceMut<T: Send> {
    /// Drop-in for `par_sort_unstable_by` (sequential).
    fn par_sort_unstable_by<F>(&mut self, compare: F)
    where
        F: Fn(&T, &T) -> std::cmp::Ordering + Sync;

    /// Drop-in for `par_sort_unstable` (sequential).
    fn par_sort_unstable(&mut self)
    where
        T: Ord;

    /// Drop-in for `par_sort_unstable_by_key` (sequential).
    fn par_sort_unstable_by_key<K: Ord, F>(&mut self, key: F)
    where
        F: Fn(&T) -> K + Sync;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_sort_unstable_by<F>(&mut self, compare: F)
    where
        F: Fn(&T, &T) -> std::cmp::Ordering + Sync,
    {
        self.sort_unstable_by(compare);
    }

    fn par_sort_unstable(&mut self)
    where
        T: Ord,
    {
        self.sort_unstable();
    }

    fn par_sort_unstable_by_key<K: Ord, F>(&mut self, key: F)
    where
        F: Fn(&T) -> K + Sync,
    {
        self.sort_unstable_by_key(key);
    }
}

/// Mirror of `rayon::prelude`.
pub mod prelude {
    pub use super::ParallelSliceMut;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn par_sort_matches_sort() {
        let mut v = vec![5, 1, 4, 2, 3];
        v.par_sort_unstable_by(|a, b| a.cmp(b));
        assert_eq!(v, vec![1, 2, 3, 4, 5]);
    }
}
