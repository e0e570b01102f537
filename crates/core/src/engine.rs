//! The anytime allocation engine: one entry point that runs any
//! [`AllocatorKind`] under a [`Budget`] and **always** returns an
//! allocation — never an error.
//!
//! The engine implements a graceful-degradation ladder:
//!
//! 1. run the requested solver under the budget (warm-started from the
//!    greedy incumbent where the solver supports it),
//! 2. if the budget expires, return the best incumbent with its proven
//!    optimality gap ([`AllocStatus::Feasible`]),
//! 3. if the requested solver fails outright, substitute the greedy
//!    heuristic and report [`AllocStatus::Fallback`] with the reason.
//!
//! Status semantics: `Optimal` means the solver ran to completion and
//! proved its answer; `Feasible` means the budget truncated the search
//! but a bound certifies the reported gap; `Fallback` means the
//! requested solver produced nothing and a substitute answered
//! instead, so no gap is claimed.
//!
//! Everything ambient to one solve — budget, warm start, [`Obs`], and
//! the [`SearchSink`] that session capture and tree telemetry read —
//! travels in one [`SolveCtx`], so [`allocate`] is the only solve
//! entry point ([`allocate_budgeted`] is its budget-and-`Obs`
//! shorthand).

use crate::allocation::Allocation;
use crate::casa_bb::SavingsModel;
use crate::casa_ilp::Linearization;
use crate::energy_model::EnergyModel;
use crate::flow::AllocatorKind;
use crate::greedy::allocate_greedy;
use crate::steinke::allocate_steinke;
use casa_obs::Obs;

pub use casa_ilp::engine::{Budget, BudgetKind, CancelToken};
pub use casa_ilp::search::SearchSink;
pub use casa_ilp::tree::TreeRecorder;

/// Numerical slack below which a proven gap counts as closed.
const GAP_EPS: f64 = 1e-9;

/// How good the returned allocation is proven to be.
#[derive(Debug, Clone, PartialEq)]
pub enum AllocStatus {
    /// The solver ran to completion: the allocation is proven optimal
    /// for its model (heuristics report `Optimal` only when a bound
    /// certifies a zero gap; Steinke and the loop cache report
    /// `Optimal` in the completion sense of their own objective).
    Optimal,
    /// The budget stopped the search; `gap` is the proven absolute
    /// optimality gap in energy units (difference between the best
    /// bound and the incumbent). `f64::INFINITY` when no bound was
    /// established.
    Feasible {
        /// Proven absolute gap in the solver's objective units.
        gap: f64,
    },
    /// The requested solver failed; a substitute (greedy) allocation
    /// is returned and no gap is claimed.
    Fallback {
        /// Human-readable reason for the substitution.
        reason: String,
    },
}

impl AllocStatus {
    /// Stable lowercase tag for reports and JSON (`"optimal"`,
    /// `"feasible"`, `"fallback"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            AllocStatus::Optimal => "optimal",
            AllocStatus::Feasible { .. } => "feasible",
            AllocStatus::Fallback { .. } => "fallback",
        }
    }

    /// The proven gap: `Some(0.0)` for `Optimal`, `Some(gap)` for
    /// `Feasible`, `None` for `Fallback` (no bound is claimed).
    pub fn gap(&self) -> Option<f64> {
        match self {
            AllocStatus::Optimal => Some(0.0),
            AllocStatus::Feasible { gap } => Some(*gap),
            AllocStatus::Fallback { .. } => None,
        }
    }

    /// Whether the allocation is proven optimal.
    pub fn is_optimal(&self) -> bool {
        matches!(self, AllocStatus::Optimal)
    }

    /// `Optimal` when the search ran to completion with a closed gap,
    /// `Feasible { gap }` otherwise.
    pub(crate) fn proven(stopped_by: Option<BudgetKind>, gap: f64) -> Self {
        if stopped_by.is_none() && gap <= GAP_EPS {
            AllocStatus::Optimal
        } else {
            AllocStatus::Feasible { gap }
        }
    }
}

/// What [`allocate`] returns: always an allocation, plus the
/// evidence for how good it is.
#[derive(Debug, Clone, PartialEq)]
pub struct AllocOutcome {
    /// The chosen allocation.
    pub allocation: Allocation,
    /// Proof status of the allocation.
    pub status: AllocStatus,
    /// Which budget dimension stopped the solver, if any.
    pub stopped_by: Option<BudgetKind>,
}

impl AllocOutcome {
    pub(crate) fn optimal(allocation: Allocation) -> Self {
        AllocOutcome {
            allocation,
            status: AllocStatus::Optimal,
            stopped_by: None,
        }
    }
}

/// Everything ambient to one solve. The default context runs an
/// unlimited, cold, silent solve.
#[derive(Debug, Clone, Default)]
pub struct SolveCtx {
    /// Solver budget; [`Budget::unlimited`] runs to optimality.
    pub budget: Budget,
    /// Advisory warm start, one flag per object: adopted only when it
    /// fits the capacity and beats the solver's own greedy incumbent,
    /// so a stale or infeasible hint can never make the answer worse.
    /// This is the solution cache's seeding hook: a cached optimum for
    /// a *capacity-adjacent* request tightens pruning from node zero.
    /// Allocators without warm-start support ignore it.
    pub warm: Option<Vec<bool>>,
    /// Observability sink: spans, counters, and the search's
    /// incumbent instants and time series.
    pub obs: Obs,
    /// Where the exact allocators' search events go (decision log,
    /// tree ring). Heuristic allocators have no search and emit
    /// nothing.
    pub sink: SearchSink,
}

impl SolveCtx {
    /// An instrumented context: `obs`, unlimited budget.
    pub fn observed(obs: &Obs) -> Self {
        SolveCtx {
            obs: obs.clone(),
            ..SolveCtx::default()
        }
    }

    /// Replace the budget.
    #[must_use]
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Replace the warm start.
    #[must_use]
    pub fn with_warm(mut self, warm: Option<Vec<bool>>) -> Self {
        self.warm = warm;
        self
    }

    /// Replace the search sink (clones share its log and ring).
    #[must_use]
    pub fn with_sink(mut self, sink: &SearchSink) -> Self {
        self.sink = sink.clone();
        self
    }
}

/// [`allocate`] under `budget` and `obs`, cold and without capture.
pub fn allocate_budgeted(
    model: &EnergyModel<'_>,
    capacity: u32,
    kind: AllocatorKind,
    budget: &Budget,
    obs: &Obs,
) -> AllocOutcome {
    allocate(
        model,
        capacity,
        kind,
        &SolveCtx::observed(obs).with_budget(budget.clone()),
    )
}

/// Run `kind` on `model` under `ctx`, degrading gracefully instead of
/// failing.
///
/// The specialized B&B seeds its own greedy incumbent; the CASA ILP
/// variants are warm-started from it, so a feasible answer exists from
/// the first node. Heuristic and baseline allocators ignore the budget
/// (they are effectively instantaneous) and report completion-sense
/// status.
pub fn allocate(
    model: &EnergyModel<'_>,
    capacity: u32,
    kind: AllocatorKind,
    ctx: &SolveCtx,
) -> AllocOutcome {
    let obs = &ctx.obs;
    // Spans nest per-thread, so when the allocation service opens a
    // `server.request` span on its worker, this span (and the B&B /
    // ILP spans beneath it) become children of that request — which is
    // what makes a trace filterable to one request ID.
    let _span = obs.span_with(
        "engine.allocate",
        vec![
            (
                "allocator".to_string(),
                casa_obs::ArgValue::Str(format!("{kind:?}")),
            ),
            (
                "capacity".to_string(),
                casa_obs::ArgValue::U64(u64::from(capacity)),
            ),
        ],
    );
    let outcome = match kind {
        AllocatorKind::CasaBb => crate::casa_bb::solve(model, capacity, ctx),
        AllocatorKind::CasaIlpPaper => {
            crate::casa_ilp::solve(model, capacity, Linearization::Paper, ctx)
        }
        AllocatorKind::CasaIlpTight => {
            crate::casa_ilp::solve(model, capacity, Linearization::Tight, ctx)
        }
        AllocatorKind::CasaGreedy => {
            // The greedy answer is certified against the fractional
            // knapsack bound: a zero gap proves it optimal, otherwise
            // the gap quantifies how much the heuristic may leave on
            // the table.
            let allocation = allocate_greedy(model, capacity);
            let sm = SavingsModel::new(model, capacity);
            let achieved = sm.exact_savings(&allocation.on_spm);
            let gap = (sm.root_bound(capacity) - achieved).max(0.0);
            AllocOutcome {
                allocation,
                status: AllocStatus::proven(None, gap),
                stopped_by: None,
            }
        }
        AllocatorKind::Steinke => {
            let graph = model.graph();
            let fetches: Vec<u64> = (0..graph.len()).map(|i| graph.fetches_of(i)).collect();
            let sizes: Vec<u32> = (0..graph.len()).map(|i| graph.size_of(i)).collect();
            AllocOutcome::optimal(allocate_steinke(&fetches, &sizes, capacity))
        }
        AllocatorKind::None => AllocOutcome::optimal(Allocation::none(model.graph().len())),
    };
    if obs.is_enabled() {
        obs.add(
            &format!("core.engine.status.{}", outcome.status.as_str()),
            1,
        );
        if let Some(gap) = outcome.status.gap() {
            if gap.is_finite() {
                obs.gauge_set("core.engine.gap", gap);
            }
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use casa_energy::{EnergyTable, TechParams};

    use crate::conflict::ConflictGraph;
    use std::collections::HashMap;

    /// Small conflict graph with a nontrivial optimum.
    fn graph() -> ConflictGraph {
        let mut edges = HashMap::new();
        edges.insert((0, 1), 500);
        edges.insert((1, 2), 120);
        edges.insert((2, 3), 5);
        ConflictGraph::from_parts(vec![900, 800, 300, 10], vec![16, 16, 16, 16], edges)
    }

    fn table() -> EnergyTable {
        EnergyTable::build(64, 16, 1, 32, None, &TechParams::default())
    }

    #[test]
    fn every_kind_returns_an_allocation_under_one_node() {
        let g = graph();
        let t = table();
        let model = EnergyModel::new(&g, &t);
        let budget = Budget::nodes(1);
        for kind in [
            AllocatorKind::CasaBb,
            AllocatorKind::CasaIlpPaper,
            AllocatorKind::CasaIlpTight,
            AllocatorKind::CasaGreedy,
            AllocatorKind::Steinke,
            AllocatorKind::None,
        ] {
            let out = allocate_budgeted(&model, 32, kind, &budget, &Obs::disabled());
            assert_eq!(out.allocation.on_spm.len(), g.len(), "{kind:?}");
            // Never an error; gap is finite whenever one is claimed
            // (warm starts guarantee an incumbent from node 0).
            if let Some(gap) = out.status.gap() {
                assert!(gap.is_finite(), "{kind:?} gap {gap}");
                assert!(gap >= 0.0, "{kind:?} gap {gap}");
            }
        }
    }

    #[test]
    fn unlimited_budget_gives_optimal_casa() {
        let g = graph();
        let t = table();
        let model = EnergyModel::new(&g, &t);
        for kind in [
            AllocatorKind::CasaBb,
            AllocatorKind::CasaIlpPaper,
            AllocatorKind::CasaIlpTight,
        ] {
            let out = allocate_budgeted(&model, 32, kind, &Budget::unlimited(), &Obs::disabled());
            assert!(out.status.is_optimal(), "{kind:?}: {:?}", out.status);
            assert_eq!(out.status.gap(), Some(0.0));
            assert_eq!(out.stopped_by, None);
        }
    }

    #[test]
    fn budgeted_casa_variants_agree_with_unbudgeted_energy_when_optimal() {
        let g = graph();
        let t = table();
        let model = EnergyModel::new(&g, &t);
        let exact = allocate_budgeted(
            &model,
            32,
            AllocatorKind::CasaBb,
            &Budget::unlimited(),
            &Obs::disabled(),
        );
        let ilp = allocate_budgeted(
            &model,
            32,
            AllocatorKind::CasaIlpPaper,
            &Budget::unlimited(),
            &Obs::disabled(),
        );
        let e_bb = model.total_energy(&exact.allocation.on_spm);
        let e_ilp = model.total_energy(&ilp.allocation.on_spm);
        assert!((e_bb - e_ilp).abs() < 1e-9, "{e_bb} vs {e_ilp}");
    }

    #[test]
    fn cancelled_budget_is_feasible_not_error() {
        let g = graph();
        let t = table();
        let model = EnergyModel::new(&g, &t);
        let token = CancelToken::new();
        token.cancel();
        let budget = Budget::unlimited().with_cancel(token);
        for kind in [AllocatorKind::CasaBb, AllocatorKind::CasaIlpPaper] {
            let out = allocate_budgeted(&model, 32, kind, &budget, &Obs::disabled());
            assert!(
                matches!(out.status, AllocStatus::Feasible { .. })
                    || matches!(out.status, AllocStatus::Fallback { .. }),
                "{kind:?}: {:?}",
                out.status
            );
            assert_eq!(out.allocation.on_spm.len(), g.len());
        }
    }

    #[test]
    fn status_tags_and_gaps_are_stable() {
        assert_eq!(AllocStatus::Optimal.as_str(), "optimal");
        assert_eq!(AllocStatus::Feasible { gap: 2.0 }.as_str(), "feasible");
        let fb = AllocStatus::Fallback { reason: "x".into() };
        assert_eq!(fb.as_str(), "fallback");
        assert_eq!(fb.gap(), None);
        assert_eq!(AllocStatus::Feasible { gap: 2.0 }.gap(), Some(2.0));
        assert!(AllocStatus::Optimal.is_optimal());
    }

    #[test]
    fn warm_start_lifts_degraded_answers_and_never_hurts() {
        let g = graph();
        let t = table();
        let model = EnergyModel::new(&g, &t);
        // The proven optimum, found with an unlimited budget.
        let opt = allocate_budgeted(
            &model,
            32,
            AllocatorKind::CasaBb,
            &Budget::unlimited(),
            &Obs::disabled(),
        );
        // One node is not enough to search — but warm-started from the
        // optimum, the incumbent already IS the optimum.
        for kind in [
            AllocatorKind::CasaBb,
            AllocatorKind::CasaIlpPaper,
            AllocatorKind::CasaIlpTight,
        ] {
            let warm = allocate(
                &model,
                32,
                kind,
                &SolveCtx::default()
                    .with_budget(Budget::nodes(1))
                    .with_warm(Some(opt.allocation.on_spm.clone())),
            );
            let e_warm = model.total_energy(&warm.allocation.on_spm);
            let e_opt = model.total_energy(&opt.allocation.on_spm);
            assert!(e_warm <= e_opt + 1e-9, "{kind:?}: {e_warm} vs {e_opt}");
        }
        // An infeasible hint (everything on SPM) is ignored, not
        // adopted: the answer still fits.
        let bogus = vec![true; g.len()];
        let out = allocate(
            &model,
            32,
            AllocatorKind::CasaBb,
            &SolveCtx::default().with_warm(Some(bogus)),
        );
        let used: u32 = (0..g.len())
            .filter(|&i| out.allocation.on_spm[i])
            .map(|i| g.size_of(i))
            .sum();
        assert!(used <= 32);
        assert!(out.status.is_optimal());
    }

    /// Incumbents as `(node, objective bits)` in each projection.
    type Seq = Vec<(u64, u64)>;

    fn projections(
        model: &EnergyModel<'_>,
        cap: u32,
        kind: AllocatorKind,
        budget: Budget,
    ) -> [Seq; 3] {
        let sink = SearchSink::default()
            .with_log()
            .with_tree(TreeRecorder::with_cap(1 << 16));
        let obs = Obs::enabled();
        let ctx = SolveCtx::observed(&obs)
            .with_budget(budget)
            .with_sink(&sink);
        let out = allocate(model, cap, kind, &ctx);
        let log = sink.take_log().expect("log kept");
        assert_eq!(
            log.incumbents.last().map(|i| &i.on_spm),
            Some(&out.allocation.on_spm),
            "{kind:?}: the last incumbent is the answer"
        );
        let tree = sink.take_tree().expect("tree kept");
        assert_eq!(tree.dropped, 0);
        let series = match kind {
            AllocatorKind::CasaBb => "bb.incumbent_savings",
            _ => "ilp.bb.incumbent",
        };
        let ts = obs.timeseries_snapshot();
        [
            log.incumbents
                .iter()
                .map(|i| (i.node, i.objective_bits))
                .collect(),
            tree.events
                .iter()
                .filter(|e| e.kind == casa_ilp::tree::TreeEventKind::Incumbent)
                .map(|e| (e.node, e.best.to_bits()))
                .collect(),
            ts.series[series]
                .iter()
                .map(|&(t, v)| (t, v.to_bits()))
                .collect(),
        ]
    }

    #[test]
    fn every_projection_sees_the_same_incumbents() {
        let g = graph();
        let t = table();
        let model = EnergyModel::new(&g, &t);
        for kind in [AllocatorKind::CasaBb, AllocatorKind::CasaIlpTight] {
            let [log, tree, ts] = projections(&model, 32, kind, Budget::unlimited());
            assert!(!log.is_empty(), "{kind:?}");
            assert_eq!(log, tree, "{kind:?}: log vs tree");
            assert_eq!(log, ts, "{kind:?}: log vs time series");
        }
        // A node-budget stop where CasaGreedy's answer beats the
        // density fill: the adoption reaches every projection.
        let mut edges = HashMap::new();
        edges.insert((0, 1), 50);
        let g = ConflictGraph::from_parts(vec![100, 100, 3000], vec![64, 64, 64], edges);
        let t = EnergyTable::build(1024, 16, 1, 128, None, &TechParams::default());
        let model = EnergyModel::new(&g, &t);
        let [log, tree, ts] = projections(&model, 128, AllocatorKind::CasaBb, Budget::nodes(1));
        assert!(log.len() >= 2, "greedy adoption logged: {log:?}");
        assert_eq!(log, tree, "log vs tree");
        assert_eq!(log, ts, "log vs time series");
    }

    #[test]
    fn engine_status_counters_land_in_obs() {
        let g = graph();
        let t = table();
        let model = EnergyModel::new(&g, &t);
        let obs = Obs::enabled();
        let out = allocate_budgeted(&model, 32, AllocatorKind::CasaBb, &Budget::nodes(1), &obs);
        let snap = obs.snapshot();
        let key = format!("core.engine.status.{}", out.status.as_str());
        assert!(snap.contains_key(&key), "missing {key}");
    }
}
