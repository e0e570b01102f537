//! Density-greedy CASA heuristic.
//!
//! Repeatedly places the object with the best *marginal* energy
//! saving per byte onto the scratchpad, recomputing marginals after
//! every placement (a conflict edge is saved by whichever endpoint
//! moves first; the second endpoint then stops benefiting from it).
//! Not optimal — the ablation benches quantify the gap against the
//! exact solvers — but linear-ish and a good incumbent.

use crate::allocation::Allocation;
use crate::energy_model::EnergyModel;

/// Greedy marginal-density allocation for a scratchpad of `capacity`
/// bytes.
#[allow(clippy::needless_range_loop)] // candidate scan over parallel state
pub fn allocate_greedy(model: &EnergyModel<'_>, capacity: u32) -> Allocation {
    let g = model.graph();
    let t = model.table();
    let n = g.len();
    let premium = t.miss_premium();

    let mut on_spm = vec![false; n];
    let mut cap_left = capacity;
    let mut steps = 0u64;

    loop {
        steps += 1;
        // Marginal saving of moving i to the SPM now.
        let marginal = |i: usize| -> f64 {
            let mut s = g.fetches_of(i) as f64 * (t.cache_hit - t.spm_access);
            for ((a, b), m) in g.edges() {
                let other = if a == i {
                    b
                } else if b == i {
                    a
                } else {
                    continue;
                };
                // Already-saved edges (other endpoint on SPM) bring
                // nothing; self-edges count once.
                if other == i || !on_spm[other] {
                    s += m as f64 * premium;
                }
            }
            s
        };
        let mut best: Option<(usize, f64)> = None;
        for i in 0..n {
            if on_spm[i] || g.size_of(i) == 0 || g.size_of(i) > cap_left {
                continue;
            }
            let m = marginal(i);
            if m <= 0.0 {
                continue;
            }
            let density = m / f64::from(g.size_of(i));
            if best.is_none_or(|(_, d)| density > d) {
                best = Some((i, density));
            }
        }
        match best {
            Some((i, _)) => {
                on_spm[i] = true;
                cap_left -= g.size_of(i);
            }
            None => break,
        }
    }

    let predicted = model.total_energy(&on_spm);
    Allocation {
        on_spm,
        predicted_energy: Some(predicted),
        solver_nodes: steps,
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use crate::conflict::ConflictGraph;
    use crate::engine::{allocate, SolveCtx};
    use crate::flow::AllocatorKind;
    use casa_energy::EnergyTable;
    use std::collections::HashMap;

    fn table() -> EnergyTable {
        EnergyTable {
            cache_hit: 1.0,
            cache_miss: 101.0,
            spm_access: 0.4,
            lc_access: 0.0,
            lc_controller: 0.0,
            mm_word: 24.0,
            l2_access: 0.0,
        }
    }

    #[test]
    fn greedy_respects_capacity() {
        let g = ConflictGraph::from_parts(vec![100, 200, 300], vec![40, 40, 40], HashMap::new());
        let t = table();
        let m = EnergyModel::new(&g, &t);
        let a = allocate_greedy(&m, 80);
        assert!(a.spm_bytes_test(&g) <= 80);
        // With no conflicts greedy = pure density: objects 2 and 1.
        assert_eq!(a.on_spm, vec![false, true, true]);
    }

    impl Allocation {
        fn spm_bytes_test(&self, g: &ConflictGraph) -> u32 {
            (0..g.len())
                .filter(|&i| self.on_spm[i])
                .map(|i| g.size_of(i))
                .sum()
        }
    }

    #[test]
    fn greedy_never_beats_exact_and_is_feasible() {
        let mut state: u64 = 99;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        for _ in 0..20 {
            let n = (next() % 6 + 2) as usize;
            let fetches: Vec<u64> = (0..n).map(|_| next() % 1000).collect();
            let sizes: Vec<u32> = (0..n).map(|_| (next() % 64 + 8) as u32).collect();
            let mut edges = HashMap::new();
            for i in 0..n {
                for j in 0..n {
                    if i != j && next() % 4 == 0 {
                        edges.insert((i, j), next() % 200);
                    }
                }
            }
            let g = ConflictGraph::from_parts(fetches, sizes, edges);
            let t = table();
            let m = EnergyModel::new(&g, &t);
            let cap = (next() % 200) as u32;
            let greedy = allocate_greedy(&m, cap);
            let exact = allocate(&m, cap, AllocatorKind::CasaBb, &SolveCtx::default()).allocation;
            let (eg, ee) = (
                greedy.predicted_energy.unwrap(),
                exact.predicted_energy.unwrap(),
            );
            assert!(
                eg >= ee - 1e-6,
                "greedy {eg} beat exact {ee} — exact solver is broken"
            );
        }
    }

    #[test]
    fn marginal_savings_avoid_double_counting() {
        // Two objects with a huge mutual conflict: once one is placed,
        // the other's marginal collapses to its linear term only.
        let mut e = HashMap::new();
        e.insert((0, 1), 1000);
        e.insert((1, 0), 1000);
        let g = ConflictGraph::from_parts(vec![10, 10], vec![32, 32], e);
        let t = table();
        let m = EnergyModel::new(&g, &t);
        let a = allocate_greedy(&m, 64);
        // Both fit, and both still have positive linear savings.
        assert_eq!(a.spm_count(), 2);
        // But with capacity for one, exactly one is taken: taking the
        // second would only add its tiny linear term.
        let a1 = allocate_greedy(&m, 32);
        assert_eq!(a1.spm_count(), 1);
    }
}
