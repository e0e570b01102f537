//! Property test: the line-run [`Replayer`] against a per-instruction
//! reference replay.
//!
//! The reference is the straightforward fetch engine: one
//! [`InstMemorySystem::fetch`] per instruction, base cycles summed per
//! executed instruction, and conflict attribution through a
//! `(set, tag)`-keyed hash map with the tag computed by division. The
//! production replayer compiles blocks into line runs and attributes
//! conflicts through a dense per-line table; both must leave every
//! counter, every per-object tally, the raw conflict data, the base
//! cycles and the per-set recorder tallies identical.
//!
//! Cases are random generated programs under random hierarchies: all
//! four replacement policies, 1–4 ways, an optional L2, scratchpad
//! placements in one or two banks under both placement semantics,
//! loop-cache ranges that start and end mid-line, ARM and Thumb
//! instruction sizes, trace caps small enough to force glue jumps, and
//! segmented replay with a layout switch between segments.

use casa_ir::{InstKind, IsaMode, Program};
use casa_mem::conflict::RawConflicts;
use casa_mem::{
    CacheConfig, ExecutionTrace, HierarchyConfig, InstMemorySystem, Recorder, ReplacementPolicy,
    Replayer, SetStatsRecorder, SimOutcome,
};
use casa_obs::Obs;
use casa_trace::layout::PlacementSemantics;
use casa_trace::{form_traces, Layout, Location, TraceConfig, TraceId, TraceSet};
use casa_workloads::generator::{random_spec, GeneratorConfig};
use casa_workloads::Walker;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::ops::Range;

/// The per-instruction fetch engine the line-run replay replaced.
struct ReferenceReplayer<R: Recorder> {
    system: InstMemorySystem<R>,
    tag_div: u32,
    evicted_by: HashMap<(u32, u32), usize>,
    conflicts: RawConflicts,
    trace_fetches: Vec<u64>,
    trace_hits: Vec<u64>,
    trace_misses: Vec<u64>,
    trace_spm: Vec<u64>,
    trace_lc: Vec<u64>,
    base_cycles: u64,
    copy_words: u64,
}

impl<R: Recorder> ReferenceReplayer<R> {
    fn new(traces: &TraceSet, config: &HierarchyConfig, recorder: R) -> Self {
        let n = traces.len();
        ReferenceReplayer {
            system: InstMemorySystem::with_recorder(config, recorder).expect("valid preload"),
            tag_div: config.cache.line_size * config.cache.num_sets(),
            evicted_by: HashMap::new(),
            conflicts: RawConflicts {
                misses_between: HashMap::new(),
                cold_misses: vec![0; n],
            },
            trace_fetches: vec![0; n],
            trace_hits: vec![0; n],
            trace_misses: vec![0; n],
            trace_spm: vec![0; n],
            trace_lc: vec![0; n],
            base_cycles: 0,
            copy_words: 0,
        }
    }

    fn replay(
        &mut self,
        program: &Program,
        traces: &TraceSet,
        layout: &Layout,
        exec: &ExecutionTrace,
        range: Range<usize>,
    ) {
        let blocks = exec.blocks();
        for pos in range {
            let block = blocks[pos];
            let tid = traces.trace_of(block);
            let ti = tid.index();
            for (loc, _size) in layout.inst_locations(program, traces, block) {
                self.serve(ti, loc);
            }
            for inst in program.block(block).insts() {
                self.base_cycles += u64::from(inst.kind().base_cycles());
            }
            let trace = traces.trace(tid);
            if trace.glue_jump_size().is_some() && Some(&block) == trace.blocks().last() {
                let ft = program.block(block).terminator().fallthrough_successor();
                let next = blocks.get(pos + 1).copied();
                if ft.is_some() && ft == next {
                    let glue = layout.glue_location(tid).expect("glue location");
                    self.serve(ti, glue);
                    self.base_cycles += u64::from(InstKind::Jump.base_cycles());
                }
            }
        }
    }

    fn serve(&mut self, ti: usize, loc: Location) {
        self.trace_fetches[ti] += 1;
        match self.system.fetch(loc) {
            casa_mem::hierarchy::FetchEvent::Spm { .. } => self.trace_spm[ti] += 1,
            casa_mem::hierarchy::FetchEvent::LoopCache => self.trace_lc[ti] += 1,
            casa_mem::hierarchy::FetchEvent::Cache(access) => {
                if access.hit {
                    self.trace_hits[ti] += 1;
                } else {
                    self.trace_misses[ti] += 1;
                    let tag = loc.addr / self.tag_div;
                    self.on_miss(ti, access.set, tag, access.evicted_tag);
                }
            }
        }
    }

    fn on_miss(&mut self, missed: usize, set: u32, tag: u32, evicted_tag: Option<u32>) {
        match self.evicted_by.get(&(set, tag)) {
            Some(&evictor) => {
                *self
                    .conflicts
                    .misses_between
                    .entry((missed, evictor))
                    .or_insert(0) += 1;
            }
            None => self.conflicts.cold_misses[missed] += 1,
        }
        if let Some(et) = evicted_tag {
            self.evicted_by.insert((set, et), missed);
        }
        self.evicted_by.remove(&(set, tag));
    }

    fn into_outcome(self) -> (SimOutcome, R) {
        let mut stats = self.system.stats();
        stats.overlay_copy_words = self.copy_words;
        let outcome = SimOutcome {
            stats,
            trace_fetches: self.trace_fetches,
            trace_hits: self.trace_hits,
            trace_misses: self.trace_misses,
            trace_spm: self.trace_spm,
            trace_lc: self.trace_lc,
            conflicts: self.conflicts,
            base_cycles: self.base_cycles,
        };
        (outcome, self.system.into_recorder())
    }
}

/// The knobs of one case that are worth reading in a failure report;
/// everything else derives from `seed`.
#[derive(Debug, Clone, Copy)]
struct Knobs {
    seed: u64,
    policy: usize,
    assoc: u32,
    line_pow: u32,
    sets_pow: u32,
    l2: bool,
    loop_cache: bool,
    thumb: bool,
    segments: usize,
}

/// One generated case: a program, its execution, its memory objects, a
/// hierarchy and a segmented replay schedule.
struct Case {
    program: Program,
    exec: ExecutionTrace,
    traces: TraceSet,
    config: HierarchyConfig,
    /// `(range, layout index, overlay words charged before it)`.
    schedule: Vec<(Range<usize>, usize, u64)>,
    layouts: Vec<Layout>,
}

fn policy(k: usize, rng: &mut SmallRng) -> ReplacementPolicy {
    match k {
        0 => ReplacementPolicy::Lru,
        1 => ReplacementPolicy::Fifo,
        2 => ReplacementPolicy::RoundRobin,
        _ => ReplacementPolicy::Random(rng.gen_range(0u64..1000)),
    }
}

fn random_layout(rng: &mut SmallRng, program: &Program, traces: &TraceSet) -> Layout {
    let banks = rng.gen_range(1u8..=2);
    let share = rng.gen_range(0.0..0.6);
    let placement: Vec<Option<u8>> = (0..traces.len())
        .map(|_| rng.gen_bool(share).then(|| rng.gen_range(0..banks)))
        .collect();
    let semantics = if rng.gen_bool(0.5) {
        PlacementSemantics::Copy
    } else {
        PlacementSemantics::Move
    };
    let mut order: Vec<TraceId> = traces.traces().iter().map(|t| t.id()).collect();
    if rng.gen_bool(0.5) {
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
    }
    Layout::with_order(program, traces, &order, &placement, semantics)
}

fn build_case(k: Knobs) -> Case {
    let mut rng = SmallRng::seed_from_u64(k.seed);
    let mut spec = random_spec(k.seed, &GeneratorConfig::default());
    if k.thumb {
        spec.mode = IsaMode::Thumb;
    }
    let w = spec.compile();
    let (exec, profile) = Walker::new(&w.program, &w.behaviors)
        .run(k.seed)
        .expect("generated programs terminate");

    // Trace padding line and cap are independent of the cache line, so
    // runs also meet blocks that straddle cache lines mid-instruction
    // stream. Small caps split traces and force glue jumps.
    let trace_line = 1u32 << rng.gen_range(2u32..6);
    let cap = trace_line * rng.gen_range(1u32..8);
    let traces = form_traces(
        &w.program,
        &profile,
        TraceConfig::new(cap, trace_line),
        &Obs::disabled(),
    );

    let line = 1u32 << k.line_pow;
    let cache = CacheConfig {
        size: line * k.assoc * (1 << k.sets_pow),
        line_size: line,
        associativity: k.assoc,
        policy: policy(k.policy, &mut rng),
    };
    let layouts: Vec<Layout> = (0..rng.gen_range(1usize..=2))
        .map(|_| random_layout(&mut rng, &w.program, &traces))
        .collect();

    let banks = layouts
        .iter()
        .map(|l| l.spm_used().len())
        .max()
        .unwrap_or(1);
    let spm_sizes: Vec<u32> = (0..banks)
        .map(|b| {
            let used = layouts
                .iter()
                .filter_map(|l| l.spm_used().get(b).copied())
                .max()
                .unwrap_or(0);
            used.max(4)
        })
        .collect();
    let mut config = HierarchyConfig {
        cache,
        l2: None,
        spm_sizes,
        loop_cache: None,
        loop_cache_preload: Vec::new(),
    };
    if k.l2 {
        let l2_policy = policy(rng.gen_range(0usize..4), &mut rng);
        let l2_assoc = rng.gen_range(1u32..=4);
        config = config.with_l2(CacheConfig {
            size: line * l2_assoc * (1 << (k.sets_pow + rng.gen_range(0u32..3))),
            line_size: line,
            associativity: l2_assoc,
            policy: l2_policy,
        });
    }
    if k.loop_cache {
        let image = layouts
            .iter()
            .map(Layout::main_image_size)
            .max()
            .unwrap_or(0);
        if image > 1 {
            // Arbitrary byte bounds: ranges start and end mid-line and
            // even mid-instruction.
            let ranges: Vec<(u32, u32)> = (0..rng.gen_range(1usize..=4))
                .map(|_| {
                    let start = rng.gen_range(0..image - 1);
                    let end = rng.gen_range(start + 1..=image.min(start + 4 * line + 3));
                    (start, end)
                })
                .collect();
            let capacity = ranges.iter().map(|(s, e)| e - s).sum();
            config.loop_cache = Some((capacity, 4));
            config.loop_cache_preload = ranges;
        }
    }

    let mut cuts: Vec<usize> = (1..k.segments)
        .map(|_| rng.gen_range(0..=exec.len()))
        .collect();
    cuts.push(0);
    cuts.push(exec.len());
    cuts.sort_unstable();
    let schedule = cuts
        .windows(2)
        .map(|c| {
            (
                c[0]..c[1],
                rng.gen_range(0..layouts.len()),
                rng.gen_range(0u64..50),
            )
        })
        .collect();

    Case {
        program: w.program,
        exec,
        traces,
        config,
        schedule,
        layouts,
    }
}

/// Replay `case` both ways, returning (line-run, reference) results.
fn run_both(
    case: &Case,
) -> (
    (SimOutcome, SetStatsRecorder),
    (SimOutcome, SetStatsRecorder),
) {
    let sets = case.config.cache.num_sets() as usize;
    let mut real = Replayer::with_recorder(&case.traces, &case.config, SetStatsRecorder::new(sets))
        .expect("valid preload");
    let mut reference =
        ReferenceReplayer::new(&case.traces, &case.config, SetStatsRecorder::new(sets));
    for (range, layout, words) in &case.schedule {
        let layout = &case.layouts[*layout];
        real.charge_copy_words(*words);
        reference.copy_words += words;
        real.replay(
            &case.program,
            &case.traces,
            layout,
            &case.exec,
            range.clone(),
        );
        reference.replay(
            &case.program,
            &case.traces,
            layout,
            &case.exec,
            range.clone(),
        );
    }
    (real.into_outcome_and_recorder(), reference.into_outcome())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn line_run_replay_matches_per_instruction_reference(
        seed in 0u64..100_000,
        policy in 0usize..4,
        assoc in 1u32..5,
        line_pow in 2u32..6,
        sets_pow in 0u32..5,
        l2 in any::<bool>(),
        loop_cache in any::<bool>(),
        thumb in any::<bool>(),
        segments in 1usize..4,
    ) {
        let knobs = Knobs { seed, policy, assoc, line_pow, sets_pow, l2, loop_cache, thumb, segments };
        let case = build_case(knobs);
        let ((got, got_sets), (want, want_sets)) = run_both(&case);
        prop_assert!(got.check_fetch_identity());
        prop_assert!(got.stats.is_consistent());
        prop_assert_eq!(&got, &want, "outcome differs for {:?}", knobs);
        prop_assert_eq!(&got_sets, &want_sets, "per-set tallies differ for {:?}", knobs);
    }
}

/// The generated cases reach every mechanism the line-run replay has to
/// keep exact; a generator change that stopped producing one of them
/// would leave the property above vacuous there.
#[test]
fn generated_cases_cover_every_mechanism() {
    let (mut glue, mut spm, mut lc, mut mixed_lc, mut l2, mut evictions) =
        (false, false, false, false, false, false);
    for seed in 0..48u64 {
        let knobs = Knobs {
            seed,
            policy: (seed % 4) as usize,
            assoc: 1 + (seed % 4) as u32,
            line_pow: 2 + (seed % 4) as u32,
            sets_pow: (seed % 3) as u32,
            l2: seed % 2 == 0,
            loop_cache: seed % 3 != 2,
            thumb: seed % 5 == 0,
            segments: 1 + (seed % 3) as usize,
        };
        let case = build_case(knobs);
        let ((out, sets), (want, _)) = run_both(&case);
        assert_eq!(out, want, "outcome differs for {knobs:?}");
        let inst_fetches: u64 = case
            .exec
            .blocks()
            .iter()
            .map(|&b| case.program.block(b).insts().len() as u64)
            .sum();
        glue |= out.stats.fetches > inst_fetches;
        spm |= out.stats.spm_accesses > 0;
        lc |= out.stats.loop_cache_accesses > 0;
        mixed_lc |= case.config.loop_cache_preload.iter().any(|&(s, e)| {
            s % case.config.cache.line_size != 0 && e % case.config.cache.line_size != 0
        }) && out.stats.loop_cache_accesses > 0;
        l2 |= out.stats.l2_accesses > 0;
        evictions |= sets.evictions().iter().sum::<u64>() > 0;
    }
    assert!(glue, "no case fetched a glue jump");
    assert!(spm, "no case fetched from a scratchpad");
    assert!(lc, "no case fetched from the loop cache");
    assert!(mixed_lc, "no loop-cache range started and ended mid-line");
    assert!(l2, "no case reached an L2");
    assert!(evictions, "no case evicted a line");
}
