//! Solver ablation (DESIGN.md §6): the specialized exact branch &
//! bound vs. the generic ILP under both linearizations vs. the greedy
//! heuristic, on the real conflict graph of each benchmark. Also
//! substantiates the paper's §4 claim that allocation time stays well
//! under a second up to the 19.5 kB program.

use casa_bench::experiments::{paper_sizes, LINE_SIZE};
use casa_bench::runner::prepared;
use casa_core::conflict::ConflictGraph;
use casa_core::energy_model::EnergyModel;
use casa_core::engine::{allocate, SolveCtx};
use casa_core::flow::{run_spm_flow, AllocatorKind, FlowConfig, FlowCtx};
use casa_core::greedy::allocate_greedy;
use casa_energy::{EnergyTable, TechParams};
use casa_mem::cache::CacheConfig;
use casa_workloads::mediabench;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn graph_of(spec: casa_workloads::BenchmarkSpec) -> (String, ConflictGraph, EnergyTable, u32) {
    let name = spec.name.clone();
    let (cache_size, sizes) = paper_sizes(&name);
    let spm = *sizes.last().expect("sizes");
    let w = prepared(spec, 1, 2004);
    let cfg = FlowConfig {
        cache: CacheConfig::direct_mapped(cache_size, LINE_SIZE),
        spm_size: spm,
        allocator: AllocatorKind::None,
        tech: TechParams::default(),
        trace_cap: None,
    };
    let r = run_spm_flow(&w.program, &w.profile, &w.exec, &cfg, &FlowCtx::default())
        .expect("profiling flow");
    let table = EnergyTable::build(cache_size, LINE_SIZE, 1, spm, None, &TechParams::default());
    (name, r.conflict_graph, table, spm)
}

fn bench_solvers(c: &mut Criterion) {
    for spec in mediabench::all() {
        let (name, graph, table, spm) = graph_of(spec);
        let model = EnergyModel::new(&graph, &table);
        println!(
            "{name}: {} objects, {} conflict edges, capacity {spm} B",
            graph.len(),
            graph.edge_count()
        );
        let mut group = c.benchmark_group(format!("solver/{name}"));
        group.sample_size(10);
        let ctx = SolveCtx::default();
        group.bench_function("casa_bb_exact", |b| {
            b.iter(|| black_box(allocate(&model, spm, AllocatorKind::CasaBb, &ctx)))
        });
        group.bench_function("greedy", |b| {
            b.iter(|| black_box(allocate_greedy(&model, spm)))
        });
        // The generic ILP is only competitive on small graphs; the
        // gap against the specialized search *is* the ablation.
        if graph.len() <= 40 {
            group.bench_function("ilp_paper_linearization", |b| {
                b.iter(|| black_box(allocate(&model, spm, AllocatorKind::CasaIlpPaper, &ctx)))
            });
            group.bench_function("ilp_tight_linearization", |b| {
                b.iter(|| black_box(allocate(&model, spm, AllocatorKind::CasaIlpTight, &ctx)))
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_solvers);
criterion_main!(benches);
