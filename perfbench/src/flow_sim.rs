//! `flow_sim`: whole fig. 3 flows, one per op — simulator cost on the
//! critical path.
//!
//! Each pass runs every Table-1 cell (SPM sizes {64,128,256,512} for
//! adpcm and {128,256,512,1024} for g721 and mpeg; CASA-BB, Steinke
//! and a 4-object loop cache) on fresh walks — two per size for g721
//! and mpeg, one for adpcm — except CASA-BB at 1024 B, whose solve
//! belongs to `solve_hard`.

use crate::host::{set_op_metrics, HostSpeed, ScaledOps};
use crate::inputs::{paper_cache, walk};
use crate::report::Outcome;
use crate::spans::Spans;
use crate::stats::{derive_seed, par_map2, process_cpu, thread_cpu, Latencies, WARMUP_PASS_BASE};
use crate::{golden, Args};
use casa_bench::experiments::{paper_sizes, LOOP_CACHE_SLOTS};
use casa_bench::runner::PreparedWorkload;
use casa_core::engine::{allocate_budgeted, Budget};
use casa_core::flow::{
    run_loop_cache_flow, run_spm_flow, AllocatorKind, FlowConfig, FlowCtx, LoopCacheConfig,
};
use casa_core::report::EnergyBreakdown;
use casa_core::ross::allocate_loop_cache;
use casa_core::{ConflictGraph, EnergyModel};
use casa_energy::{EnergyTable, TechParams};
use casa_mem::{simulate, CacheConfig, FetchStats, HierarchyConfig, SimOutcome};
use casa_obs::{Fnv1a, Obs};
use casa_trace::trace::{form_traces, TraceConfig};
use casa_trace::Layout;

const BENCHMARKS: [&str; 3] = ["adpcm", "g721", "mpeg"];
/// Walks per SPM size per pass: two for g721 and mpeg, one for adpcm,
/// whose ops are the cheapest — with two, the op-time median would fall
/// in the gap between the cheap (adpcm, mpeg loop cache) and the
/// mid-cost (mpeg scratchpad, g721 loop cache) ops and jump between
/// them run to run.
fn walks_per_size(benchmark: &str) -> u64 {
    if benchmark == "adpcm" {
        1
    } else {
        2
    }
}
/// Timed pass length on the reference box (2 cores), used to turn
/// `--seconds` into a fixed pass count.
const NOMINAL_PASS_S: f64 = 1.5;
const SETUP_ROUNDS: u64 = 5;
/// Ops between two host-speed probes.
const PROBE_EVERY: usize = 4;

/// One Table-1 cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cell {
    Spm { size: u32, alloc: AllocatorKind },
    LoopCache { size: u32 },
}

/// One op of a pass: a cell run on one walk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpSpec {
    /// Index of the walk within the pass.
    pub input: usize,
    pub cell: Cell,
}

/// A walk the pass's ops run on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InputSpec {
    pub benchmark: &'static str,
    pub walker_seed: u64,
}

fn sizes(benchmark: &str) -> Vec<u32> {
    let mut sizes = paper_sizes(benchmark).1;
    if benchmark == "adpcm" {
        sizes.push(512);
    }
    sizes
}

/// The walks and ops of pass `pass` — a pure function of the seed.
/// Every (benchmark, SPM size) gets walks of its own, and the cells of
/// one size share them, so the allocators at a size are compared on
/// identical executions.
pub fn pass_plan(seed: u64, pass: u64) -> (Vec<InputSpec>, Vec<OpSpec>) {
    let mut inputs = Vec::new();
    let mut ops = Vec::new();
    for benchmark in BENCHMARKS {
        for size in sizes(benchmark) {
            for _ in 0..walks_per_size(benchmark) {
                let input = inputs.len();
                inputs.push(InputSpec {
                    benchmark,
                    walker_seed: derive_seed(seed, "flow_sim", pass, input as u64),
                });
                for alloc in [AllocatorKind::CasaBb, AllocatorKind::Steinke] {
                    if alloc == AllocatorKind::CasaBb && size >= 1024 {
                        continue;
                    }
                    ops.push(OpSpec {
                        input,
                        cell: Cell::Spm { size, alloc },
                    });
                }
                ops.push(OpSpec {
                    input,
                    cell: Cell::LoopCache { size },
                });
            }
        }
    }
    (inputs, ops)
}

struct Pass {
    walks: Vec<(PreparedWorkload, CacheConfig)>,
    ops: Vec<OpSpec>,
}

/// Walk every input of a pass (two threads); returns the pass and the
/// per-walk preparation times in ms.
fn prepare_pass(seed: u64, pass: u64) -> (Pass, Vec<f64>) {
    let (inputs, ops) = pass_plan(seed, pass);
    let walked = par_map2(&inputs, |i| {
        let (w, ms) = walk(i.benchmark, i.walker_seed);
        ((w, paper_cache(i.benchmark)), ms)
    });
    let (walks, ms) = walked.into_iter().unzip();
    (Pass { walks, ops }, ms)
}

/// What an op produced, reduced to the parts that must repeat exactly.
/// The digest covers the answer — fetch counters, energy, placement —
/// and leaves out how hard the solver worked for it (`nodes`), so a
/// faster search still matches the committed golden; node counts are
/// compared only between runs of the same build (see `ledger`).
#[derive(Debug, Clone, PartialEq)]
struct OpResult {
    stats: FetchStats,
    energy_uj: f64,
    placement: Vec<u32>,
    nodes: u64,
    objects: u64,
    edges: u64,
}

impl OpResult {
    fn digest(&self, h: &mut Fnv1a) {
        let s = &self.stats;
        for v in [
            s.fetches,
            s.spm_accesses,
            s.loop_cache_accesses,
            s.cache_accesses,
            s.cache_hits,
            s.cache_misses,
            s.main_word_accesses,
            s.overlay_copy_words,
            s.l2_accesses,
            s.l2_hits,
            s.l2_misses,
            self.energy_uj.to_bits(),
        ] {
            h.update(&v.to_le_bytes());
        }
        for p in &self.placement {
            h.update(&p.to_le_bytes());
        }
        h.update(b";");
    }
}

fn on_spm_indices(on_spm: &[bool]) -> Vec<u32> {
    (0..on_spm.len() as u32)
        .filter(|&i| on_spm[i as usize])
        .collect()
}

fn range_list(ranges: &[(u32, u32)]) -> Vec<u32> {
    ranges.iter().flat_map(|&(a, b)| [a, b]).collect()
}

/// The op as a user runs it: one library flow call.
fn run_op(w: &PreparedWorkload, cache: CacheConfig, cell: Cell) -> OpResult {
    let ctx = FlowCtx::default();
    let (r, placement) = match cell {
        Cell::Spm { size, alloc } => {
            let cfg = FlowConfig::new(cache, size, alloc);
            let r =
                run_spm_flow(&w.program, &w.profile, &w.exec, &cfg, &ctx).expect("scratchpad flow");
            let p = on_spm_indices(&r.allocation.on_spm);
            (r, p)
        }
        Cell::LoopCache { size } => {
            let cfg = LoopCacheConfig::new(cache, size, LOOP_CACHE_SLOTS);
            let r = run_loop_cache_flow(&w.program, &w.profile, &w.exec, &cfg, &ctx)
                .expect("loop-cache flow");
            let p = range_list(&r.loop_cache.as_ref().expect("assignment").ranges());
            (r, p)
        }
    };
    OpResult {
        stats: r.final_sim.stats,
        energy_uj: r.energy_uj(),
        placement,
        nodes: r.allocation.solver_nodes,
        objects: r.traces.len() as u64,
        edges: r.conflict_graph.edge_count() as u64,
    }
}

/// Work counts the traced flow observes beyond [`OpResult`].
#[derive(Debug, Default)]
struct SimCounts {
    fetches: u64,
    misses: u64,
}

impl SimCounts {
    fn add(&mut self, sim: &SimOutcome) {
        self.fetches += sim.stats.fetches;
        self.misses += sim.stats.cache_misses;
    }
}

/// The same op decomposed into the public steps `run_spm_flow` /
/// `run_loop_cache_flow` chain, each under a span named for its layer.
fn run_op_traced(
    w: &PreparedWorkload,
    cache: CacheConfig,
    cell: Cell,
    sp: &mut Spans,
    counts: &mut SimCounts,
) -> OpResult {
    let off = Obs::disabled();
    let tech = TechParams::default();
    let line = cache.line_size;
    match cell {
        Cell::Spm { size, alloc } => {
            let cfg = FlowConfig::new(cache, size, alloc);
            let traces = sp.time("trace.form", || {
                form_traces(
                    &w.program,
                    &w.profile,
                    TraceConfig::new(cfg.effective_trace_cap(), line),
                    &off,
                )
            });
            let layout0 = sp.time("trace.layout", || Layout::initial(&w.program, &traces));
            let hier = HierarchyConfig::spm_system(cache, size);
            let sim0 = sp.time("mem.profile_sim", || {
                simulate(&w.program, &traces, &layout0, &w.exec, &hier).expect("profiling sim")
            });
            counts.add(&sim0);
            let graph = sp.time("conflict.build", || {
                ConflictGraph::from_simulation(&traces, &sim0)
            });
            let table = sp.time("energy.table", || {
                EnergyTable::build(cache.size, line, cache.associativity, size, None, &tech)
            });
            let model = EnergyModel::new(&graph, &table);
            let out = sp.time("solve", || {
                allocate_budgeted(&model, size, alloc, &Budget::unlimited(), &off)
            });
            let layout = sp.time("trace.layout", || {
                Layout::with_placement(
                    &w.program,
                    &traces,
                    &out.allocation.to_placement(),
                    alloc.semantics(),
                )
            });
            let sim = sp.time("mem.final_sim", || {
                simulate(&w.program, &traces, &layout, &w.exec, &hier).expect("final sim")
            });
            counts.add(&sim);
            let energy = EnergyBreakdown::from_stats(&sim.stats, &table, false).total_uj();
            OpResult {
                stats: sim.stats,
                energy_uj: energy,
                placement: on_spm_indices(&out.allocation.on_spm),
                nodes: out.allocation.solver_nodes,
                objects: traces.len() as u64,
                edges: graph.edge_count() as u64,
            }
        }
        Cell::LoopCache { size } => {
            let traces = sp.time("trace.form", || {
                form_traces(
                    &w.program,
                    &w.profile,
                    TraceConfig::new(size.max(line), line),
                    &off,
                )
            });
            let layout = sp.time("trace.layout", || Layout::initial(&w.program, &traces));
            let assignment = sp.time("ross.alloc", || {
                allocate_loop_cache(
                    &w.program,
                    &w.profile,
                    &traces,
                    &layout,
                    size,
                    LOOP_CACHE_SLOTS,
                )
            });
            let ranges = assignment.ranges();
            let hier =
                HierarchyConfig::loop_cache_system(cache, size, LOOP_CACHE_SLOTS, ranges.clone());
            let sim = sp.time("mem.final_sim", || {
                simulate(&w.program, &traces, &layout, &w.exec, &hier).expect("final sim")
            });
            counts.add(&sim);
            let graph = sp.time("conflict.build", || {
                ConflictGraph::from_simulation(&traces, &sim)
            });
            let table = sp.time("energy.table", || {
                EnergyTable::build(
                    cache.size,
                    line,
                    cache.associativity,
                    0,
                    Some((size, LOOP_CACHE_SLOTS)),
                    &tech,
                )
            });
            let energy = EnergyBreakdown::from_stats(&sim.stats, &table, true).total_uj();
            OpResult {
                stats: sim.stats,
                energy_uj: energy,
                placement: range_list(&ranges),
                nodes: 0,
                objects: traces.len() as u64,
                edges: graph.edge_count() as u64,
            }
        }
    }
}

fn run_pass_untimed(p: &Pass) {
    for op in &p.ops {
        let (w, cache) = &p.walks[op.input];
        std::hint::black_box(run_op(w, *cache, op.cell));
    }
}

/// Number of timed passes for a `--seconds` budget: fixed by the
/// nominal pass time, never by a timer, and enough for ≥ 10 samples
/// beyond the p90.
pub fn passes_for(seconds: u64) -> u64 {
    let ops_per_pass = pass_plan(0, 0).1.len() as u64;
    let by_time = (seconds as f64 / NOMINAL_PASS_S).ceil() as u64;
    let by_tail = 110u64.div_ceil(ops_per_pass);
    by_time.max(by_tail).max(1)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();

    // Set-up: one pass's input generation plus that pass run untimed,
    // repeated on warm-up seeds disjoint from the timed passes.
    let mut setups = Vec::new();
    let mut setup_host = HostSpeed::default();
    for r in 0..SETUP_ROUNDS {
        setup_host.sample();
        let t = process_cpu();
        let (p, _) = prepare_pass(args.seed, WARMUP_PASS_BASE + r);
        run_pass_untimed(&p);
        setups.push((process_cpu() - t).as_secs_f64());
        setup_host.sample();
    }
    out.set(
        "setup_s",
        crate::stats::median(&setups) * setup_host.scale(),
    );

    let passes = passes_for(args.seconds);
    let mut sp = Spans::new_cpu(0);
    let mut counts = SimCounts::default();
    let mut ops = ScaledOps::default();
    let mut lat_traced = Latencies::default();
    let mut run_digest = Fnv1a::new();
    let mut pass0 = Fnv1a::new();
    let mut prep_ms = Vec::new();
    let mut blocks = 0u64;
    let (mut nodes, mut fetches, mut misses, mut objects, mut edges) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for pi in 0..passes {
        // Each pass's walks are generated right before it, outside the
        // op timings, so only one pass's inputs are ever resident.
        let (p, ms) = prepare_pass(args.seed, pi);
        prep_ms.extend(ms);
        blocks += p
            .walks
            .iter()
            .map(|(w, _)| w.exec.len() as u64)
            .sum::<u64>();
        for (k, op) in p.ops.iter().enumerate() {
            let (w, cache) = &p.walks[op.input];
            let t = thread_cpu();
            let r = std::hint::black_box(run_op(w, *cache, op.cell));
            ops.push(thread_cpu() - t);
            if k % PROBE_EVERY == PROBE_EVERY - 1 {
                ops.probe();
            }
            if args.traced {
                let t = thread_cpu();
                let s = sp.enter("op");
                let rt = run_op_traced(w, *cache, op.cell, &mut sp, &mut counts);
                sp.exit(s);
                lat_traced.push(thread_cpu() - t);
                if rt != r {
                    out.problem(format!(
                        "pass {pi}: the decomposed flow differs from the library flow on {:?} ({} energy {} vs {})",
                        op.cell, w.name, rt.energy_uj, r.energy_uj
                    ));
                }
            }
            r.digest(&mut run_digest);
            if pi == 0 {
                r.digest(&mut pass0);
            }
            nodes += r.nodes;
            fetches += r.stats.fetches;
            misses += r.stats.cache_misses;
            objects += r.objects;
            edges += r.edges;
        }
    }
    out.attempted = ops.raw.len() as u64;

    if args.seed == golden::DEFAULT_SEED && pass0.hex() != golden::FLOW_SIM_PASS0 {
        out.problem(format!(
            "flow_sim pass 0 digest {} != committed golden {}",
            pass0.hex(),
            golden::FLOW_SIM_PASS0
        ));
    }
    let record = format!(
        "digest={} final_fetches={fetches} final_misses={misses} solve_nodes={nodes} objects={objects} edges={edges}\n",
        run_digest.hex()
    );
    let key = crate::ledger::key(args, passes);
    if let Err(e) = crate::ledger::check_or_record(&args.state_dir, &key, &record) {
        out.problem(e);
    }
    let ops_per_s = ops.raw.len() as f64 / (ops.raw.sum_ms() / 1e3);
    let raw = set_op_metrics(&mut out, ops_per_s, &mut ops);
    println!(
        "flow_sim: seed {} passes {passes} ops {} (p90 has {} samples beyond it); pass-0 digest {}; {}; {raw}; set-up {}",
        args.seed,
        ops.raw.len(),
        ops.raw.beyond(0.9),
        pass0.hex(),
        record.trim_end(),
        setup_host.summary()
    );
    out.set(
        "peak_rss_mb",
        crate::stats::peak_rss_mb("self").unwrap_or(f64::NAN),
    );

    if args.traced {
        let n = lat_traced.len() as f64;
        let st = sp.self_ns();
        let ms = |name: &str| st.get(name).copied().unwrap_or(0) as f64 / 1e6;
        out.set("op.mean_ms", lat_traced.mean_ms());
        out.set(
            "workloads.prepare_ms",
            prep_ms.iter().sum::<f64>() / prep_ms.len() as f64,
        );
        out.set("workloads.blocks", blocks as f64);
        out.set("mem.profile_sim_ms", ms("mem.profile_sim") / n);
        out.set("mem.final_sim_ms", ms("mem.final_sim") / n);
        out.set("mem.fetches", counts.fetches as f64);
        out.set(
            "mem.ns_per_fetch",
            (ms("mem.profile_sim") + ms("mem.final_sim")) * 1e6 / counts.fetches as f64,
        );
        out.set("mem.cache_misses", counts.misses as f64);
        out.set("solve.ms", ms("solve") / n);
        out.set("solve.nodes", nodes as f64);
        if nodes > 0 {
            out.set("solve.ns_per_node", ms("solve") * 1e6 / nodes as f64);
        }
        out.set("trace.form_ms", ms("trace.form") / n);
        out.set("trace.layout_ms", ms("trace.layout") / n);
        out.set("trace.objects", objects as f64);
        out.set("conflict.build_ms", ms("conflict.build") / n);
        out.set("conflict.edges", edges as f64);
        out.set("ross.alloc_ms", ms("ross.alloc") / n);
        let traced_ops_per_s = n / (lat_traced.sum_ms() / 1e3);
        out.set(
            "trace_overhead_pct",
            (ops_per_s / traced_ops_per_s - 1.0) * 100.0,
        );
        crate::write_trace(args, &[&sp]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write as _;

    fn plan_text(inputs: &[InputSpec], ops: &[OpSpec]) -> String {
        let mut s = String::new();
        for i in inputs {
            let _ = writeln!(s, "walk {} {}", i.benchmark, i.walker_seed);
        }
        for o in ops {
            let _ = writeln!(s, "op {} {:?}", o.input, o.cell);
        }
        s
    }

    #[test]
    fn plan_is_a_pure_function_of_the_seed() {
        let a = pass_plan(7, 3);
        let b = pass_plan(7, 3);
        assert_eq!(plan_text(&a.0, &a.1), plan_text(&b.0, &b.1));
        assert_ne!(plan_text(&a.0, &a.1), plan_text(&pass_plan(8, 3).0, &a.1));
        assert_ne!(a.0, pass_plan(7, 4).0);
    }

    #[test]
    fn plan_covers_table1_without_the_hard_solves() {
        let (inputs, ops) = pass_plan(1, 0);
        assert_eq!(inputs.len(), 4 + 8 + 8);
        // adpcm: 4 sizes x 3 on one walk each; g721 and mpeg: 4 sizes x 3
        // minus CASA-BB@1024, on two walks each.
        assert_eq!(ops.len(), 12 + 2 * 11 + 2 * 11);
        assert!(!ops.iter().any(|o| matches!(
            o.cell,
            Cell::Spm {
                size: 1024,
                alloc: AllocatorKind::CasaBb
            }
        )));
    }

    #[test]
    fn warmup_walks_differ_from_timed_walks() {
        let timed: Vec<u64> = (0..50)
            .flat_map(|p| pass_plan(1, p).0)
            .map(|i| i.walker_seed)
            .collect();
        for r in 0..SETUP_ROUNDS {
            for i in pass_plan(1, WARMUP_PASS_BASE + r).0 {
                assert!(!timed.contains(&i.walker_seed));
            }
        }
    }

    #[test]
    fn decomposed_flow_matches_the_library_flow() {
        let (p, _) = prepare_pass(3, 0);
        let mut sp = Spans::new_cpu(0);
        let mut counts = SimCounts::default();
        for op in p.ops.iter().filter(|o| p.walks[o.input].0.name == "adpcm") {
            let (w, cache) = &p.walks[op.input];
            assert_eq!(
                run_op(w, *cache, op.cell),
                run_op_traced(w, *cache, op.cell, &mut sp, &mut counts)
            );
        }
        assert!(counts.fetches > 0);
    }
}
