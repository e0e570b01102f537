//! Joint code + data scratchpad allocation — the paper's first
//! future-work item ("preloading of data"), folded back into the
//! cache-aware framework.
//!
//! Steinke's DATE'02 allocator already mixed "program and data parts";
//! CASA's conflict-graph formulation extends to data naturally: data
//! objects get their own conflict graph from D-cache simulation, and
//! because instruction and data objects never conflict with each
//! other (Harvard architecture, separate caches), the joint problem
//! is CASA over the **disjoint union** of the two graphs under one
//! scratchpad capacity — solved exactly by the same branch & bound.
//!
//! Simplification: the joint flow assumes the I-cache and D-cache
//! share one geometry, so a single [`EnergyTable`] covers both sides.

use crate::allocation::Allocation;
use crate::conflict::ConflictGraph;
use crate::energy_model::EnergyModel;
use crate::engine::{allocate, SolveCtx};
use crate::flow::AllocatorKind;
use crate::report::EnergyBreakdown;
use casa_energy::{EnergyTable, TechParams};
use casa_ir::{Profile, Program};
use casa_mem::cache::CacheConfig;
use casa_mem::data::{simulate_data, DataSimOutcome, DataTrace};
use casa_mem::loop_cache::PreloadError;
use casa_mem::{simulate, ExecutionTrace, HierarchyConfig, SimOutcome};
use casa_trace::layout::PlacementSemantics;
use casa_trace::trace::{form_traces, TraceConfig};
use casa_trace::{Layout, TraceSet};
use std::collections::HashMap;

/// Result of the joint code + data workflow.
#[derive(Debug, Clone)]
pub struct JointReport {
    /// Code memory objects.
    pub traces: TraceSet,
    /// Which code objects are on the scratchpad.
    pub code_on_spm: Vec<bool>,
    /// Which data objects are on the scratchpad.
    pub data_on_spm: Vec<bool>,
    /// Final instruction-side simulation.
    pub code_sim: SimOutcome,
    /// Final data-side simulation.
    pub data_sim: DataSimOutcome,
    /// Per-event energies.
    pub energy_table: EnergyTable,
    /// Instruction-side breakdown.
    pub code_breakdown: EnergyBreakdown,
    /// Data-side energy in nJ (hits + misses + SPM accesses).
    pub data_energy_nj: f64,
    /// Model-predicted joint energy (nJ).
    pub predicted_energy: f64,
}

impl JointReport {
    /// Total (I + D) energy in µJ.
    pub fn total_uj(&self) -> f64 {
        (self.code_breakdown.total_nj + self.data_energy_nj) / 1000.0
    }
}

fn data_energy(sim: &DataSimOutcome, table: &EnergyTable) -> f64 {
    sim.cache_hits as f64 * table.cache_hit
        + sim.cache_misses as f64 * table.cache_miss
        + sim.spm_accesses as f64 * table.spm_access
        + sim.writeback_word_accesses as f64 * table.mm_word
}

/// Build the disjoint-union conflict graph of code and data objects.
fn union_graph(code: &ConflictGraph, data: &ConflictGraph) -> ConflictGraph {
    let nc = code.len();
    let fetches: Vec<u64> = (0..nc)
        .map(|i| code.fetches_of(i))
        .chain((0..data.len()).map(|i| data.fetches_of(i)))
        .collect();
    let sizes: Vec<u32> = (0..nc)
        .map(|i| code.size_of(i))
        .chain((0..data.len()).map(|i| data.size_of(i)))
        .collect();
    let mut edges: HashMap<(usize, usize), u64> = code.edges().collect();
    for ((i, j), m) in data.edges() {
        edges.insert((i + nc, j + nc), m);
    }
    ConflictGraph::from_parts(fetches, sizes, edges)
}

/// Run the joint code + data workflow.
///
/// `data_sizes[i]` describes data object `i` (from
/// `casa_workloads::spec::Workload::data_objects`); `data_trace` is
/// the recorded access stream. Set `allocate_data: false` to reproduce
/// the code-only allocation under the same accounting (the
/// comparison baseline).
///
/// # Errors
///
/// Propagates hierarchy construction failures.
///
/// # Panics
///
/// Panics if a data access is inconsistent with `data_sizes`.
#[allow(clippy::too_many_arguments)]
pub fn run_joint_flow(
    program: &Program,
    profile: &Profile,
    exec: &ExecutionTrace,
    data_trace: &DataTrace,
    data_sizes: &[u32],
    cache: CacheConfig,
    spm_size: u32,
    allocate_data: bool,
    tech: &TechParams,
) -> Result<JointReport, PreloadError> {
    let line = cache.line_size;
    let traces = form_traces(
        program,
        profile,
        TraceConfig::new(spm_size.max(line), line),
        &casa_obs::Obs::disabled(),
    );
    let layout0 = Layout::initial(program, &traces);
    let cfg = HierarchyConfig::spm_system(cache, spm_size);

    // Profile both sides with everything cached.
    let code_sim0 = simulate(program, &traces, &layout0, exec, &cfg)?;
    let code_graph = ConflictGraph::from_simulation(&traces, &code_sim0);
    let data_sim0 = simulate_data(
        data_trace,
        data_sizes,
        &vec![false; data_sizes.len()],
        cache,
    );
    let data_graph = ConflictGraph::from_parts(
        data_sim0.object_accesses.clone(),
        data_sizes.to_vec(),
        data_sim0.conflicts.misses_between.clone(),
    );

    let table = EnergyTable::build(cache.size, line, cache.associativity, spm_size, None, tech);

    let nc = traces.len();
    let (code_on_spm, data_on_spm, predicted) = if allocate_data {
        let union = union_graph(&code_graph, &data_graph);
        let model = EnergyModel::new(&union, &table);
        let a: Allocation = allocate(
            &model,
            spm_size,
            AllocatorKind::CasaBb,
            &SolveCtx::default(),
        )
        .allocation;
        (
            a.on_spm[..nc].to_vec(),
            a.on_spm[nc..].to_vec(),
            a.predicted_energy.unwrap_or(0.0),
        )
    } else {
        let model = EnergyModel::new(&code_graph, &table);
        let a = allocate(
            &model,
            spm_size,
            AllocatorKind::CasaBb,
            &SolveCtx::default(),
        )
        .allocation;
        let data_model = EnergyModel::new(&data_graph, &table);
        let predicted = a.predicted_energy.unwrap_or(0.0) + data_model.baseline_energy();
        (a.on_spm, vec![false; data_sizes.len()], predicted)
    };

    // Realize and re-simulate both sides.
    let placement: Vec<Option<u8>> = code_on_spm
        .iter()
        .map(|&b| if b { Some(0) } else { None })
        .collect();
    let layout = Layout::with_placement(program, &traces, &placement, PlacementSemantics::Copy);
    let code_sim = simulate(program, &traces, &layout, exec, &cfg)?;
    let data_sim = simulate_data(data_trace, data_sizes, &data_on_spm, cache);

    let code_breakdown = EnergyBreakdown::from_stats(&code_sim.stats, &table, false);
    let data_energy_nj = data_energy(&data_sim, &table);

    Ok(JointReport {
        traces,
        code_on_spm,
        data_on_spm,
        code_sim,
        data_sim,
        energy_table: table,
        code_breakdown,
        data_energy_nj,
        predicted_energy: predicted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use casa_mem::data::DataAccess;

    /// Code side: trivial; data side: two thrashing arrays.
    fn setup() -> (Program, Profile, ExecutionTrace, DataTrace, Vec<u32>) {
        use casa_ir::inst::{InstKind, IsaMode};
        use casa_ir::ProgramBuilder;
        let mut b = ProgramBuilder::new(IsaMode::Arm);
        let f = b.function("main");
        let e = b.block(f);
        b.push_n(e, InstKind::Load, 4);
        b.exit(e);
        let p = b.finish().unwrap();
        let mut profile = Profile::new();
        profile.add_block(e, 1);
        let exec = ExecutionTrace::new(vec![e]);
        // Data: arrays 0 and 1 thrash (alternating sweeps), array 2 cold.
        let sizes = vec![64u32, 64, 64];
        let mut acc = Vec::new();
        for _ in 0..50 {
            for off in (0..64).step_by(4) {
                acc.push(DataAccess {
                    object: 0,
                    offset: off,
                });
            }
            for off in (0..64).step_by(4) {
                acc.push(DataAccess {
                    object: 1,
                    offset: off,
                });
            }
        }
        acc.push(DataAccess {
            object: 2,
            offset: 0,
        });
        (p, profile, exec, DataTrace::new(acc), sizes)
    }

    #[test]
    fn joint_beats_code_only_when_data_thrashes() {
        let (p, profile, exec, dt, sizes) = setup();
        let cache = CacheConfig::direct_mapped(64, 16);
        let tech = TechParams::default();
        let code_only =
            run_joint_flow(&p, &profile, &exec, &dt, &sizes, cache, 64, false, &tech).unwrap();
        let joint =
            run_joint_flow(&p, &profile, &exec, &dt, &sizes, cache, 64, true, &tech).unwrap();
        assert!(
            joint.total_uj() < code_only.total_uj(),
            "joint {} must beat code-only {}",
            joint.total_uj(),
            code_only.total_uj()
        );
        // The scratchpad went to a thrashing data array, not the
        // barely-executed code.
        assert!(joint.data_on_spm[0] || joint.data_on_spm[1]);
        assert!(!joint.data_on_spm[2], "cold array stays cached");
        assert!(joint.data_sim.check_access_identity());
        assert!(joint.code_sim.check_fetch_identity());
    }

    #[test]
    fn capacity_shared_between_code_and_data() {
        let (p, profile, exec, dt, sizes) = setup();
        let cache = CacheConfig::direct_mapped(64, 16);
        let joint = run_joint_flow(
            &p,
            &profile,
            &exec,
            &dt,
            &sizes,
            cache,
            64,
            true,
            &TechParams::default(),
        )
        .unwrap();
        let code_bytes: u32 = joint
            .traces
            .traces()
            .iter()
            .enumerate()
            .filter(|(i, _)| joint.code_on_spm[*i])
            .map(|(_, t)| t.code_size())
            .sum();
        let data_bytes: u32 = sizes
            .iter()
            .enumerate()
            .filter(|(i, _)| joint.data_on_spm[*i])
            .map(|(_, &s)| s)
            .sum();
        assert!(code_bytes + data_bytes <= 64);
    }

    #[test]
    fn empty_data_stream_degenerates_to_code_flow() {
        let (p, profile, exec, _, _) = setup();
        let cache = CacheConfig::direct_mapped(64, 16);
        let r = run_joint_flow(
            &p,
            &profile,
            &exec,
            &DataTrace::default(),
            &[],
            cache,
            64,
            true,
            &TechParams::default(),
        )
        .unwrap();
        assert_eq!(r.data_energy_nj, 0.0);
        assert!(r.data_on_spm.is_empty());
    }
}
