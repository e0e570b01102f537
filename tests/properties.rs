#![allow(clippy::needless_range_loop)] // parallel test arrays

//! Property-based tests over the whole pipeline, driven by the seeded
//! random program generator.

use casa::core::allocation::Allocation;
use casa::core::conflict::ConflictGraph;
use casa::core::energy_model::EnergyModel;
use casa::core::engine::{allocate, SolveCtx};
use casa::core::flow::{run_spm_flow, AllocatorKind, FlowConfig, FlowCtx};
use casa::energy::{EnergyTable, TechParams};
use casa::mem::cache::CacheConfig;
use casa::workloads::generator::{random_spec, GeneratorConfig};
use casa::workloads::Walker;
use proptest::prelude::*;
use std::collections::HashMap;

/// An unbudgeted exact solve, which must prove its answer optimal.
fn solve(m: &EnergyModel<'_>, cap: u32, kind: AllocatorKind) -> Allocation {
    let out = allocate(m, cap, kind, &SolveCtx::default());
    assert!(out.status.is_optimal(), "{kind:?}: {:?}", out.status);
    out.allocation
}

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The full workflow holds its invariants on arbitrary programs:
    /// eq. (4), counter consistency, capacity, and CASA ≤ baseline.
    #[test]
    fn workflow_invariants_on_random_programs(seed in 0u64..400, spm_pow in 5u32..9) {
        let spec = random_spec(seed, &GeneratorConfig::default());
        let w = spec.compile();
        let walker = Walker::new(&w.program, &w.behaviors);
        let (exec, profile) = walker.run(seed).expect("generated programs terminate");
        let spm_size = 1u32 << spm_pow; // 32..256
        let cfg = FlowConfig {
            cache: CacheConfig::direct_mapped(256, 16),
            spm_size,
            allocator: AllocatorKind::CasaBb,
            tech: TechParams::default(),
            trace_cap: None,
        };
        let casa = run_spm_flow(&w.program, &profile, &exec, &cfg, &FlowCtx::default()).expect("casa flow");
        prop_assert!(casa.final_sim.check_fetch_identity());
        prop_assert!(casa.final_sim.stats.is_consistent());
        prop_assert!(casa.allocation.spm_bytes(&casa.traces) <= spm_size);

        let base = run_spm_flow(
            &w.program,
            &profile,
            &exec,
            &FlowConfig { allocator: AllocatorKind::None, ..cfg },
        &FlowCtx::default(),
).expect("baseline flow");
        prop_assert!(casa.energy_uj() <= base.energy_uj() + 1e-9);
        // Total fetches are identical across configurations (same
        // dynamic execution replayed).
        prop_assert_eq!(casa.final_sim.stats.fetches, base.final_sim.stats.fetches);
    }

    /// The specialized branch & bound and the generic ILP (both
    /// linearizations) agree on random conflict graphs.
    #[test]
    fn solvers_agree_on_random_conflict_graphs(
        n in 2usize..7,
        cap in 0u32..300,
        seed in 0u64..10_000,
    ) {
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(1);
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        let fetches: Vec<u64> = (0..n).map(|_| next() % 3000).collect();
        let sizes: Vec<u32> = (0..n).map(|_| (next() % 120 + 4) as u32).collect();
        let mut edges = HashMap::new();
        for i in 0..n {
            for j in 0..n {
                if next() % 3 == 0 {
                    edges.insert((i, j), next() % 400);
                }
            }
        }
        let g = ConflictGraph::from_parts(fetches, sizes, edges);
        let t = table();
        let m = EnergyModel::new(&g, &t);
        let bb = solve(&m, cap, AllocatorKind::CasaBb);
        let paper = solve(&m, cap, AllocatorKind::CasaIlpPaper);
        let tight = solve(&m, cap, AllocatorKind::CasaIlpTight);
        let (eb, ep, et) = (
            bb.predicted_energy.unwrap(),
            paper.predicted_energy.unwrap(),
            tight.predicted_energy.unwrap(),
        );
        let tol = 1e-6 * eb.abs().max(1.0);
        prop_assert!((eb - ep).abs() < tol, "bb {} vs paper {}", eb, ep);
        prop_assert!((eb - et).abs() < tol, "bb {} vs tight {}", eb, et);
        // Both respect capacity.
        for a in [&bb.on_spm, &paper.on_spm, &tight.on_spm] {
            let used: u32 = (0..n).filter(|&i| a[i]).map(|i| g.size_of(i)).sum();
            prop_assert!(used <= cap);
        }
    }

    /// Monotonicity: over a *fixed* conflict graph, a larger
    /// scratchpad never yields worse optimal predicted energy (any
    /// allocation feasible at C is feasible at C' > C).
    ///
    /// Note this deliberately holds the memory objects fixed — in the
    /// full workflow the trace-size cap equals the scratchpad size
    /// (paper §3.2), so different sizes partition the program into
    /// *different* objects and the end-to-end curve may be non-
    /// monotone between adjacent sizes.
    #[test]
    fn bigger_scratchpad_never_hurts_on_fixed_graph(
        n in 2usize..8,
        seed in 0u64..10_000,
    ) {
        let mut state = seed.wrapping_mul(0x9E3779B9).wrapping_add(7);
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        let fetches: Vec<u64> = (0..n).map(|_| next() % 3000).collect();
        let sizes: Vec<u32> = (0..n).map(|_| (next() % 120 + 4) as u32).collect();
        let mut edges = HashMap::new();
        for i in 0..n {
            for j in 0..n {
                if next() % 3 == 0 {
                    edges.insert((i, j), next() % 400);
                }
            }
        }
        let g = ConflictGraph::from_parts(fetches, sizes, edges);
        let t = table();
        let m = EnergyModel::new(&g, &t);
        let mut last = f64::INFINITY;
        for cap in [0u32, 32, 64, 128, 256, 512] {
            let pred = solve(&m, cap, AllocatorKind::CasaBb).predicted_energy.expect("predicts");
            prop_assert!(
                pred <= last + 1e-6,
                "optimal energy must not grow with capacity: {} after {}",
                pred,
                last
            );
            last = pred;
        }
    }

    /// The dynamic walker and the static profile agree: replaying the
    /// walker's execution trace yields exactly the profile's fetch
    /// count (the conflict graph's f_i come from the same source as
    /// the simulated fetches).
    #[test]
    fn profile_matches_replay(seed in 0u64..300) {
        let spec = random_spec(seed, &GeneratorConfig::default());
        let w = spec.compile();
        let walker = Walker::new(&w.program, &w.behaviors);
        let (exec, profile) = walker.run(seed).expect("runs");
        exec.check(&w.program).expect("legal execution");
        profile.check_flow(&w.program).expect("flow conserved");
        let cfg = FlowConfig {
            cache: CacheConfig::direct_mapped(128, 16),
            spm_size: 64,
            allocator: AllocatorKind::None,
            tech: TechParams::default(),
            trace_cap: None,
        };
        let r = run_spm_flow(&w.program, &profile, &exec, &cfg, &FlowCtx::default()).expect("flow");
        // Simulated fetches = profile fetches + glue-jump fetches;
        // glue fetches are bounded by the number of block transitions.
        let profile_fetches = profile.total_fetches(&w.program);
        prop_assert!(r.final_sim.stats.fetches >= profile_fetches);
        prop_assert!(
            r.final_sim.stats.fetches <= profile_fetches + exec.len() as u64,
            "at most one glue fetch per executed block"
        );
    }
}
