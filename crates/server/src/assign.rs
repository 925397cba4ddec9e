//! Load-balanced region assignment.
//!
//! "Upon the receipt of a query request, different regions of the queried
//! object are assigned to the servers in a load-balanced fashion."

/// Weight-balanced assignment (e.g. by region byte size, when regions are
/// unequal): greedy longest-processing-time scheduling — items are placed
/// heaviest-first onto the currently lightest server.
pub fn balanced_by_weight(weights: &[u64], num_servers: u32) -> Vec<Vec<u32>> {
    let n = num_servers.max(1) as usize;
    let mut order: Vec<u32> = (0..weights.len() as u32).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(weights[i as usize]));
    let mut out = vec![Vec::new(); n];
    let mut load = vec![0u64; n];
    for i in order {
        let lightest = (0..n).min_by_key(|&s| (load[s], s)).unwrap();
        load[lightest] += weights[i as usize];
        out[lightest].push(i);
    }
    // Deterministic per-server ordering.
    for items in &mut out {
        items.sort_unstable();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_by_weight_evens_out_loads() {
        // One huge item and many small ones: greedy LPT keeps the spread
        // far below "huge on the same server as everything else".
        let mut weights = vec![100u64];
        weights.extend(std::iter::repeat_n(10, 30));
        let a = balanced_by_weight(&weights, 4);
        let loads: Vec<u64> = a
            .iter()
            .map(|items| items.iter().map(|&i| weights[i as usize]).sum())
            .collect();
        let total: u64 = loads.iter().sum();
        assert_eq!(total, 400);
        let max = *loads.iter().max().unwrap();
        let min = *loads.iter().min().unwrap();
        assert!(max - min <= 10, "loads {loads:?} not balanced");
    }

    #[test]
    fn balanced_by_weight_assigns_every_item_once() {
        let weights: Vec<u64> = (1..=25).collect();
        let a = balanced_by_weight(&weights, 5);
        let mut seen = [false; 25];
        for items in &a {
            for &i in items {
                assert!(!seen[i as usize]);
                seen[i as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn balanced_by_weight_empty_input() {
        let a = balanced_by_weight(&[], 4);
        assert!(a.iter().all(|v| v.is_empty()));
    }
}
