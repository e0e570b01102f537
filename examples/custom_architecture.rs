//! Assembling a custom memory architecture from the low-level APIs:
//! a 2-way set-associative L1 with round-robin replacement, an L2
//! behind it, and a scratchpad — then running CASA on it and
//! accounting energy and cycles by hand.
//!
//! This is the path a user takes when their system does not match the
//! paper's ARM7T setup; everything the high-level `run_spm_flow`
//! wraps is public.
//!
//! ```sh
//! cargo run --release --example custom_architecture
//! ```

use casa::core::conflict::ConflictGraph;
use casa::core::energy_model::EnergyModel;
use casa::core::engine::{allocate, SolveCtx};
use casa::core::flow::AllocatorKind;
use casa::core::report::EnergyBreakdown;
use casa::energy::{EnergyTable, TechParams};
use casa::mem::cache::{CacheConfig, ReplacementPolicy};
use casa::mem::{simulate, HierarchyConfig};
use casa::trace::layout::PlacementSemantics;
use casa::trace::trace::{form_traces, TraceConfig};
use casa::trace::Layout;
use casa::workloads::{mediabench, Walker};

fn main() {
    // The extra (beyond-paper) epic workload.
    let w = mediabench::epic().compile();
    let walker = Walker::new(&w.program, &w.behaviors);
    let (exec, profile) = walker.run(11).expect("epic runs");
    println!(
        "epic: {} B of code, {} fetches",
        w.program.code_size(),
        profile.total_fetches(&w.program)
    );

    // A 2-way, round-robin 1 kB L1 with a 4 kB L2 and a 512 B SPM.
    let l1 = CacheConfig {
        size: 1024,
        line_size: 16,
        associativity: 2,
        policy: ReplacementPolicy::RoundRobin,
    };
    let l2 = CacheConfig::direct_mapped(4096, 16);
    let spm = 512u32;
    let tech = TechParams::default();

    // Trace formation + profiling run (L1-only analysis, per §4 the
    // L2 needs no special handling).
    let traces = form_traces(
        &w.program,
        &profile,
        TraceConfig::new(spm, 16),
        &casa::obs::Obs::disabled(),
    );
    let layout0 = Layout::initial(&w.program, &traces);
    let cfg = HierarchyConfig::spm_system(l1, spm).with_l2(l2);
    let sim0 = simulate(&w.program, &traces, &layout0, &exec, &cfg).expect("profiling run");
    let graph = ConflictGraph::from_simulation(&traces, &sim0);
    println!(
        "profiled: {} memory objects, {} conflict edges, {} L1 misses ({} reach memory)",
        graph.len(),
        graph.edge_count(),
        sim0.stats.cache_misses,
        sim0.stats.l2_misses
    );

    // Energy table for this geometry and the CASA allocation.
    let table = EnergyTable::build(l1.size, 16, l1.associativity, spm, None, &tech)
        .with_l2(l2.size, 16, 1, &tech);
    let model = EnergyModel::new(&graph, &table);
    let ctx = SolveCtx::default();
    let allocation = allocate(&model, spm, AllocatorKind::CasaBb, &ctx).allocation;
    println!(
        "CASA: {} objects on the scratchpad ({} B used, {} search nodes)",
        allocation.spm_count(),
        allocation.spm_bytes(&traces),
        allocation.solver_nodes
    );

    // Final run and hand-rolled accounting.
    let layout = Layout::with_placement(
        &w.program,
        &traces,
        &allocation.to_placement(),
        PlacementSemantics::Copy,
    );
    let sim = simulate(&w.program, &traces, &layout, &exec, &cfg).expect("final run");
    let base = EnergyBreakdown::from_stats(&sim0.stats, &table, false);
    let opt = EnergyBreakdown::from_stats(&sim.stats, &table, false);
    println!("\n{:<24} {:>12} {:>12}", "", "baseline", "CASA");
    println!(
        "{:<24} {:>12} {:>12}",
        "L1 misses", sim0.stats.cache_misses, sim.stats.cache_misses
    );
    println!(
        "{:<24} {:>12} {:>12}",
        "L2 misses", sim0.stats.l2_misses, sim.stats.l2_misses
    );
    println!(
        "{:<24} {:>12.2} {:>12.2}",
        "energy (µJ)",
        base.total_uj(),
        opt.total_uj()
    );
    println!(
        "{:<24} {:>12} {:>12}",
        "cycles (20cy miss)",
        sim0.total_cycles(20),
        sim.total_cycles(20)
    );
    println!(
        "\nsaving: {:.1} % energy, {:.1} % cycles",
        100.0 * (1.0 - opt.total_nj / base.total_nj),
        100.0 * (1.0 - sim.total_cycles(20) as f64 / sim0.total_cycles(20) as f64)
    );
}
