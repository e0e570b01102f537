//! Input generation shared by the workloads: seeded mediabench walks
//! and the fig. 3 profiling conflict graph built from them.

use crate::stats::thread_cpu;
use casa_bench::experiments::{paper_sizes, LINE_SIZE};
use casa_bench::runner::{prepared, PreparedWorkload};
use casa_core::ConflictGraph;
use casa_mem::{simulate, CacheConfig, HierarchyConfig};
use casa_obs::Obs;
use casa_trace::trace::{form_traces, TraceConfig};
use casa_trace::Layout;

/// The paper's direct-mapped instruction cache for `benchmark`, with
/// 16 B lines.
pub fn paper_cache(benchmark: &str) -> CacheConfig {
    CacheConfig::direct_mapped(paper_sizes(benchmark).0, LINE_SIZE)
}

/// Walk `benchmark` at scale 1 with `walker_seed`. Returns the prepared
/// workload and the thread CPU milliseconds the walk took.
pub fn walk(benchmark: &str, walker_seed: u64) -> (PreparedWorkload, f64) {
    let spec = casa_workloads::mediabench::all()
        .into_iter()
        .find(|s| s.name == benchmark)
        .expect("paper benchmark");
    let t = thread_cpu();
    let w = prepared(spec, 1, walker_seed);
    (w, (thread_cpu() - t).as_secs_f64() * 1e3)
}

/// The fig. 3 profiling conflict graph of walk `w` at trace cap and SPM
/// size `cap`: traces → initial layout → profiling simulation →
/// conflict graph.
pub fn profiling_graph(w: &PreparedWorkload, cache: CacheConfig, cap: u32) -> ConflictGraph {
    let traces = form_traces(
        &w.program,
        &w.profile,
        TraceConfig::new(cap, LINE_SIZE),
        &Obs::disabled(),
    );
    let layout = Layout::initial(&w.program, &traces);
    let hier = HierarchyConfig::spm_system(cache, cap);
    let sim = simulate(&w.program, &traces, &layout, &w.exec, &hier).expect("profiling sim");
    ConflictGraph::from_simulation(&traces, &sim)
}

/// One fresh walk's profiling graph at `cap` — what the service builds
/// for a workload-form request. Returns the graph, the walk's block
/// count and the walk's CPU milliseconds.
pub fn library_graph(benchmark: &str, walker_seed: u64, cap: u32) -> (ConflictGraph, u64, f64) {
    let (w, walk_ms) = walk(benchmark, walker_seed);
    let graph = profiling_graph(&w, paper_cache(benchmark), cap);
    (graph, w.exec.len() as u64, walk_ms)
}
