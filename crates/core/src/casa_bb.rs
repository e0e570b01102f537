//! Specialized exact branch & bound for the CASA objective.
//!
//! The ILP of [`crate::casa_ilp`] is exact but generic; on large
//! conflict graphs the tableau simplex underneath becomes the
//! bottleneck (CPLEX did this job for the authors). This module
//! solves the *same* problem — verified equal by property tests —
//! with a dedicated search that exploits its structure:
//!
//! Choosing the scratchpad set `T` maximizes the **savings**
//!
//! ```text
//! sav(T) = Σ_{i∈T} a_i + Σ_{pairs {i,j} ∩ T ≠ ∅} w_ij
//! a_i  = f_i·(E_hit − E_SP) + m_ii·(E_miss − E_hit)   ≥ 0
//! w_ij = (m_ij + m_ji)·(E_miss − E_hit)               ≥ 0
//! ```
//!
//! subject to `Σ_{i∈T} S_i ≤ C`. Because every term is non-negative,
//! an item's saving never exceeds its *optimistic* saving
//! `a_i + Σ_j w_ij`, and a fractional knapsack over optimistic
//! savings is an admissible upper bound — the classic knapsack bound,
//! here applied to a quadratic objective.
//!
//! The search is a depth-first walk of take/skip decisions over the
//! static density order. It is **anytime**: run through
//! [`crate::engine::allocate`] with a budget and an optional warm
//! start, it always returns its best incumbent and, when the budget
//! stops it early, the proven optimality gap (in energy units): the
//! static root bound minus the incumbent's savings.

use crate::allocation::Allocation;
use crate::energy_model::EnergyModel;
use crate::engine::{AllocOutcome, AllocStatus, SolveCtx};
use crate::greedy::allocate_greedy;
use casa_ilp::engine::{BudgetKind, CancelToken};
use casa_ilp::search::{At, Emitter, Point, SearchEvent, SeriesNames};
use std::time::Instant;

/// Default node allowance when the caller's [`crate::engine::Budget`] has none: deep
/// enough to close every instance in this repository.
const DEFAULT_NODE_BUDGET: u64 = 50_000_000;

/// How often (in nodes) the DFS polls wall-clock budgets.
const CLOCK_POLL_MASK: u64 = 0xFFF;

/// Where the DFS's events land in its [`casa_obs::Obs`]. Bounds are
/// static, so the bound series stays empty.
const DFS_SERIES: SeriesNames = SeriesNames {
    objective: "savings",
    incumbent: "bb.incumbent_savings",
    bound: "bb.bound_savings",
};

/// Problem data shared by the search, the greedy incumbent, and the
/// root bound: linear savings, merged pair weights, density order.
pub(crate) struct SavingsModel {
    n: usize,
    a: Vec<f64>,
    sizes: Vec<u32>,
    pairs: Vec<(usize, usize, f64)>,
    incident: Vec<Vec<usize>>,
    opt: Vec<f64>,
    /// Positive-saving candidates that occupy space, densest first.
    order: Vec<usize>,
    /// Zero-size objects with positive saving: free wins.
    free: Vec<usize>,
}

impl SavingsModel {
    pub(crate) fn new(model: &EnergyModel<'_>, capacity: u32) -> Self {
        let g = model.graph();
        let t = model.table();
        let n = g.len();
        let premium = t.miss_premium();

        // Linear savings and pair weights.
        let mut a: Vec<f64> = (0..n)
            .map(|i| g.fetches_of(i) as f64 * (t.cache_hit - t.spm_access))
            .collect();
        let mut pairs: Vec<(usize, usize, f64)> = Vec::new();
        {
            use std::collections::HashMap;
            let mut acc: HashMap<(usize, usize), f64> = HashMap::new();
            for ((i, j), m) in g.edges() {
                if i == j {
                    a[i] += m as f64 * premium;
                } else {
                    *acc.entry((i.min(j), i.max(j))).or_insert(0.0) += m as f64 * premium;
                }
            }
            pairs.extend(acc.into_iter().map(|((i, j), w)| (i, j, w)));
            pairs.sort_by_key(|x| (x.0, x.1));
        }
        // Optimistic saving per item: a_i + all incident pair weights.
        let mut opt = a.clone();
        let mut incident: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (p, &(i, j, w)) in pairs.iter().enumerate() {
            opt[i] += w;
            opt[j] += w;
            incident[i].push(p);
            incident[j].push(p);
        }

        // Candidates: positive optimistic saving and fits at all.
        // Order by optimistic density, best first (drives both
        // branching and the fractional bound).
        let mut order: Vec<usize> = (0..n)
            .filter(|&i| opt[i] > 0.0 && g.size_of(i) <= capacity && g.size_of(i) > 0)
            .collect();
        let free: Vec<usize> = (0..n)
            .filter(|&i| opt[i] > 0.0 && g.size_of(i) == 0)
            .collect();
        order.sort_by(|&x, &y| {
            let dx = opt[x] / f64::from(g.size_of(x));
            let dy = opt[y] / f64::from(g.size_of(y));
            dy.partial_cmp(&dx).unwrap_or(std::cmp::Ordering::Equal)
        });

        let sizes: Vec<u32> = (0..n).map(|i| g.size_of(i)).collect();
        SavingsModel {
            n,
            a,
            sizes,
            pairs,
            incident,
            opt,
            order,
            free,
        }
    }

    /// Exact savings of a chosen set (each pair counted once).
    pub(crate) fn exact_savings(&self, chosen: &[bool]) -> f64 {
        let mut s = 0.0;
        for (i, &c) in chosen.iter().enumerate().take(self.n) {
            if c {
                s += self.a[i];
            }
        }
        for &(i, j, w) in &self.pairs {
            if chosen[i] || chosen[j] {
                s += w;
            }
        }
        s
    }

    /// Fractional knapsack bound on savings from `order[pos..]` with
    /// `cap_left` capacity. Items are in density order, so the greedy
    /// fractional fill is optimal for the relaxation.
    fn fractional_bound(&self, pos: usize, cap_left: u32) -> f64 {
        let mut ub = 0.0;
        let mut cap = f64::from(cap_left);
        for &i in &self.order[pos..] {
            let s = f64::from(self.sizes[i]);
            if s <= cap {
                ub += self.opt[i];
                cap -= s;
            } else {
                ub += self.opt[i] * cap / s;
                break;
            }
        }
        ub
    }

    /// Admissible upper bound on the savings of *any* feasible set:
    /// free items at their optimistic value plus the fractional
    /// knapsack over the sized candidates.
    pub(crate) fn root_bound(&self, capacity: u32) -> f64 {
        let free: f64 = self.free.iter().map(|&i| self.opt[i]).sum();
        free + self.fractional_bound(0, capacity)
    }

    /// Greedy incumbent: walk the density order, take what fits, plus
    /// every free item.
    fn greedy_chosen(&self, capacity: u32) -> Vec<bool> {
        let mut chosen = vec![false; self.n];
        let mut cap_left = capacity;
        for &i in &self.order {
            if self.sizes[i] <= cap_left {
                chosen[i] = true;
                cap_left -= self.sizes[i];
            }
        }
        for &i in &self.free {
            chosen[i] = true;
        }
        chosen
    }

    /// The static branch order (density-sorted candidate indices) —
    /// what a recorded session stores and replay re-derives.
    pub(crate) fn order(&self) -> &[usize] {
        &self.order
    }

    /// Optimistic saving `a_i + Σ incident w_ij` — the density
    /// numerator of the knapsack bound.
    pub(crate) fn optimistic_saving(&self, i: usize) -> f64 {
        self.opt[i]
    }

    /// Object size in bytes.
    pub(crate) fn size(&self, i: usize) -> u32 {
        self.sizes[i]
    }

    /// Marginal saving of object `i` relative to `chosen`: `a_i` plus
    /// every incident pair weight not already covered by the *other*
    /// endpoint. For a chosen object this is what evicting it costs;
    /// for an unchosen one, what adding it would gain (capacity
    /// permitting) — the explain layer's per-object regret.
    pub(crate) fn marginal_saving(&self, i: usize, chosen: &[bool]) -> f64 {
        let mut s = self.a[i];
        for &p in &self.incident[i] {
            let (a, b, w) = self.pairs[p];
            let other = if a == i { b } else { a };
            if !chosen[other] {
                s += w;
            }
        }
        s
    }

    /// Whether `chosen` respects the capacity (free items are free).
    pub(crate) fn fits(&self, chosen: &[bool], capacity: u32) -> bool {
        let used: u64 = (0..self.n)
            .filter(|&i| chosen[i])
            .map(|i| u64::from(self.sizes[i]))
            .sum();
        used <= u64::from(capacity)
    }
}

/// Exactly solve the CASA allocation for a scratchpad of `capacity`
/// bytes under `ctx` (see [`crate::engine::allocate`]).
///
/// The search keeps a feasible incumbent from t=0 — the better of the
/// built-in density-greedy fill and the warm start — so budget
/// exhaustion degrades the proof, never the availability, of an
/// allocation. A budget-stopped answer is also never worse than
/// [`allocate_greedy`]'s, which replaces a worse incumbent before the
/// gap is taken.
///
/// Every decision goes to `ctx.sink` as a search event, in savings
/// orientation (larger is better): the static order, the seed
/// incumbent at node 0, per-node open/branch/prune events with the
/// DFS visit counter as node id and the order position as depth, each
/// improving incumbent (the greedy adoption included), and the stop.
/// Capture changes no search decision. The search also runs in a
/// `solve.bb` span with `core.bb.nodes` / `core.bb.incumbents`
/// counters, a `core.bb.gap` gauge, and a `core.engine.budget.<kind>`
/// counter when a budget dimension fires.
pub(crate) fn solve(model: &EnergyModel<'_>, capacity: u32, ctx: &SolveCtx) -> AllocOutcome {
    let (budget, obs) = (&ctx.budget, &ctx.obs);
    let em = ctx.sink.emitter(obs, &DFS_SERIES);
    let sm = SavingsModel::new(model, capacity);
    let n = sm.n;

    let mut best_chosen = sm.greedy_chosen(capacity);
    let mut best_sav = sm.exact_savings(&best_chosen);
    if let Some(ws) = &ctx.warm {
        if ws.len() == n && sm.fits(ws, capacity) {
            let sav = sm.exact_savings(ws);
            if sav > best_sav {
                best_chosen.clone_from(ws);
                best_sav = sav;
            }
        }
    }
    // The seed incumbent travels as node 0 because replay cannot
    // re-derive it: a server warm hint comes from the solution cache,
    // not from the request.
    if em.on {
        let order: Vec<u32> = sm.order.iter().map(|&i| i as u32).collect();
        em.emit(SearchEvent::Order(&order));
        em.emit(SearchEvent::Incumbent {
            at: At {
                node: 0,
                depth: 0,
                bound: f64::NAN,
                best: best_sav,
            },
            point: Point::Flags(&best_chosen),
        });
    }

    // DFS over `order` positions: at each position decide take/skip.
    // State: current savings (exact), pairs already counted, capacity.
    struct Search<'s> {
        sm: &'s SavingsModel,
        nodes: u64,
        incumbents: u64,
        node_budget: u64,
        deadline_at: Option<Instant>,
        cancel: Option<&'s CancelToken>,
        stopped: Option<BudgetKind>,
        best_sav: f64,
        best_chosen: Vec<bool>,
        em: Emitter<'s>,
    }

    impl Search<'_> {
        fn dfs(
            &mut self,
            pos: usize,
            cap_left: u32,
            cur_sav: f64,
            chosen: &mut Vec<bool>,
            pair_counted: &mut Vec<bool>,
        ) {
            if self.stopped.is_some() {
                return; // budget exhausted: unwind without working
            }
            self.nodes += 1;
            if self.nodes > self.node_budget {
                self.stopped = Some(BudgetKind::Nodes);
                return;
            }
            if self.nodes & CLOCK_POLL_MASK == 0 {
                if let Some(token) = self.cancel {
                    if token.is_cancelled() {
                        self.stopped = Some(BudgetKind::Cancelled);
                        return;
                    }
                }
                if let Some(at) = self.deadline_at {
                    if Instant::now() >= at {
                        self.stopped = Some(BudgetKind::Deadline);
                        return;
                    }
                }
            }
            let (node, depth) = (self.nodes, pos as u32);
            let at = move |best: f64, bound: f64| At {
                node,
                depth,
                bound,
                best,
            };
            // Optimistic local bound (savings orientation): only worth
            // computing when the tree is being captured — the search
            // itself re-derives it at the prune check below.
            let local_bound = if self.em.nodes {
                let b = cur_sav + self.sm.fractional_bound(pos, cap_left);
                self.em.emit(SearchEvent::Open(at(self.best_sav, b)));
                b
            } else {
                f64::NAN
            };
            if cur_sav > self.best_sav + 1e-9 {
                self.best_sav = cur_sav;
                self.best_chosen.clone_from(chosen);
                self.incumbents += 1;
                if self.em.on {
                    self.em.emit(SearchEvent::Incumbent {
                        at: at(cur_sav, local_bound),
                        point: Point::Flags(chosen),
                    });
                }
            }
            if pos >= self.sm.order.len() {
                return;
            }
            if cur_sav + self.sm.fractional_bound(pos, cap_left) <= self.best_sav + 1e-9 {
                if self.em.nodes {
                    self.em.emit(SearchEvent::Prune {
                        at: at(self.best_sav, local_bound),
                        infeasible: false,
                    });
                }
                return; // prune
            }
            let i = self.sm.order[pos];
            if self.em.nodes {
                self.em.emit(SearchEvent::Branch {
                    at: at(self.best_sav, local_bound),
                    var: i as u32,
                });
            }
            // Branch 1: take i (if it fits).
            if self.sm.sizes[i] <= cap_left {
                let mut gained = self.sm.a[i];
                let mut newly: Vec<usize> = Vec::new();
                for &p in &self.sm.incident[i] {
                    if !pair_counted[p] {
                        pair_counted[p] = true;
                        newly.push(p);
                        gained += self.sm.pairs[p].2;
                    }
                }
                chosen[i] = true;
                self.dfs(
                    pos + 1,
                    cap_left - self.sm.sizes[i],
                    cur_sav + gained,
                    chosen,
                    pair_counted,
                );
                chosen[i] = false;
                for p in newly {
                    pair_counted[p] = false;
                }
            }
            // Branch 2: skip i.
            self.dfs(pos + 1, cap_left, cur_sav, chosen, pair_counted);
        }
    }

    let span = obs.span("solve.bb");
    // A pre-cancelled token stops before the first node; check once
    // up front so the DFS poll interval can stay sparse.
    let pre_stopped = match (&budget.cancel, budget.max_nodes) {
        (Some(token), _) if token.is_cancelled() => Some(BudgetKind::Cancelled),
        (_, Some(0)) => Some(BudgetKind::Nodes),
        _ => None,
    };
    let mut search = Search {
        sm: &sm,
        nodes: 0,
        incumbents: 0,
        node_budget: budget.max_nodes.unwrap_or(DEFAULT_NODE_BUDGET),
        deadline_at: budget.deadline.map(|d| Instant::now() + d),
        cancel: budget.cancel.as_ref(),
        stopped: pre_stopped,
        best_sav,
        best_chosen,
        em,
    };
    {
        let mut chosen = vec![false; n];
        for &i in &sm.free {
            chosen[i] = true;
        }
        let mut pair_counted = vec![false; sm.pairs.len()];
        let mut base = 0.0;
        for &i in &sm.free {
            base += sm.a[i];
            for &p in &sm.incident[i] {
                if !pair_counted[p] {
                    pair_counted[p] = true;
                    base += sm.pairs[p].2;
                }
            }
        }
        search.dfs(0, capacity, base, &mut chosen, &mut pair_counted);
    }
    best_sav = search.best_sav;
    let mut on_spm = search.best_chosen;
    let nodes = search.nodes;
    let stopped_by = search.stopped;
    let mut incumbents = search.incumbents;
    let em = search.em;
    // An anytime answer is never worse than `CasaGreedy`'s: when the
    // budget stops the search short of a proof, the marginal greedy
    // (which re-prices conflicts after every placement, unlike the
    // density fill the search starts from) replaces a worse incumbent
    // and the gap below is taken against it. Proven optima are left
    // alone, so their tie-breaking never depends on the heuristic.
    if stopped_by.is_some() {
        let greedy = allocate_greedy(model, capacity).on_spm;
        let sav = sm.exact_savings(&greedy);
        if sav > best_sav + 1e-9 {
            em.emit(SearchEvent::Incumbent {
                at: At {
                    node: nodes,
                    depth: 0,
                    bound: f64::NAN,
                    best: sav,
                },
                point: Point::Flags(&greedy),
            });
            incumbents += 1;
            best_sav = sav;
            on_spm = greedy;
        }
    }
    em.emit(SearchEvent::Stop {
        stopped: stopped_by,
        nodes,
    });
    obs.add("core.bb.nodes", nodes);
    obs.add("core.bb.incumbents", incumbents);

    // Savings and energy differ by the fixed baseline, so the proven
    // savings gap IS the energy gap: root_bound − best known savings.
    let gap = match stopped_by {
        None => 0.0,
        Some(_) => (sm.root_bound(capacity) - best_sav).max(0.0),
    };
    obs.gauge_set("core.bb.gap", gap);
    if let Some(kind) = stopped_by {
        obs.add(&format!("core.engine.budget.{}", kind.as_str()), 1);
    }
    drop(span);

    let predicted = model.total_energy(&on_spm);
    AllocOutcome {
        allocation: Allocation {
            on_spm,
            predicted_energy: Some(predicted),
            solver_nodes: nodes,
        },
        status: AllocStatus::proven(stopped_by, gap),
        stopped_by,
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use crate::conflict::ConflictGraph;
    use crate::engine::{allocate, Budget, SearchSink};
    use crate::flow::AllocatorKind;
    use casa_energy::EnergyTable;
    use casa_ilp::tree::{TreeEventKind, TreeRecorder};
    use std::collections::HashMap;

    fn run(m: &EnergyModel<'_>, cap: u32, ctx: &SolveCtx) -> AllocOutcome {
        allocate(m, cap, AllocatorKind::CasaBb, ctx)
    }

    fn budgeted(
        m: &EnergyModel<'_>,
        cap: u32,
        budget: Budget,
        warm: Option<&[bool]>,
    ) -> AllocOutcome {
        let ctx = SolveCtx::default()
            .with_budget(budget)
            .with_warm(warm.map(<[bool]>::to_vec));
        run(m, cap, &ctx)
    }

    fn solve_bb(m: &EnergyModel<'_>, cap: u32) -> Allocation {
        run(m, cap, &SolveCtx::default()).allocation
    }

    fn solve_ilp(m: &EnergyModel<'_>, cap: u32) -> Allocation {
        allocate(m, cap, AllocatorKind::CasaIlpTight, &SolveCtx::default()).allocation
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

    fn graph(fetches: Vec<u64>, sizes: Vec<u32>, e: &[(usize, usize, u64)]) -> ConflictGraph {
        let mut edges = HashMap::new();
        for &(i, j, m) in e {
            edges.insert((i, j), m);
        }
        ConflictGraph::from_parts(fetches, sizes, edges)
    }

    #[test]
    fn matches_ilp_on_thrash_instance() {
        let g = graph(
            vec![1000, 1000, 3000],
            vec![64, 64, 64],
            &[(0, 1, 500), (1, 0, 500)],
        );
        let t = table();
        let m = EnergyModel::new(&g, &t);
        for cap in [0, 64, 128, 192] {
            let bb = solve_bb(&m, cap);
            let ilp = solve_ilp(&m, cap);
            assert!(
                (bb.predicted_energy.unwrap() - ilp.predicted_energy.unwrap()).abs() < 1e-6,
                "cap {cap}: bb {:?} vs ilp {:?}",
                bb.predicted_energy,
                ilp.predicted_energy
            );
        }
    }

    #[test]
    fn matches_ilp_on_pseudorandom_instances() {
        let mut state: u64 = 7;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        for case in 0..25 {
            let n = (next() % 6 + 2) as usize;
            let fetches: Vec<u64> = (0..n).map(|_| next() % 2000).collect();
            let sizes: Vec<u32> = (0..n).map(|_| (next() % 96 + 8) as u32).collect();
            let mut edges = HashMap::new();
            for i in 0..n {
                for j in 0..n {
                    if i != j && next() % 3 == 0 {
                        edges.insert((i, j), next() % 300);
                    }
                }
            }
            let g = ConflictGraph::from_parts(fetches, sizes, edges);
            let t = table();
            let m = EnergyModel::new(&g, &t);
            let cap = (next() % 256) as u32;
            let bb = solve_bb(&m, cap);
            let ilp = solve_ilp(&m, cap);
            let (eb, ei) = (bb.predicted_energy.unwrap(), ilp.predicted_energy.unwrap());
            assert!(
                (eb - ei).abs() < 1e-6 * ei.max(1.0),
                "case {case}: bb {eb} vs ilp {ei}"
            );
            // Capacity respected.
            let used: u32 = (0..g.len())
                .filter(|&i| bb.on_spm[i])
                .map(|i| g.size_of(i))
                .sum();
            assert!(used <= cap, "case {case}: used {used} > cap {cap}");
        }
    }

    #[test]
    fn empty_graph_allocates_nothing() {
        let g = graph(vec![], vec![], &[]);
        let t = table();
        let m = EnergyModel::new(&g, &t);
        let a = solve_bb(&m, 128);
        assert!(a.on_spm.is_empty());
        assert_eq!(a.predicted_energy, Some(0.0));
    }

    #[test]
    fn oversized_objects_never_allocated() {
        let g = graph(vec![100_000], vec![999], &[]);
        let t = table();
        let m = EnergyModel::new(&g, &t);
        let a = solve_bb(&m, 128);
        assert!(!a.on_spm[0]);
    }

    #[test]
    fn prefers_conflict_pair_over_bigger_fetch_count() {
        // Same instance as the ILP test: conflictor wins.
        let g = graph(
            vec![1000, 1000, 3000],
            vec![64, 64, 64],
            &[(0, 1, 500), (1, 0, 500)],
        );
        let t = table();
        let m = EnergyModel::new(&g, &t);
        let a = solve_bb(&m, 64);
        assert!(a.on_spm[0] || a.on_spm[1]);
        assert!(!a.on_spm[2]);
    }

    #[test]
    fn one_node_budget_returns_incumbent_with_finite_gap() {
        let g = graph(
            vec![1000, 1000, 3000],
            vec![64, 64, 64],
            &[(0, 1, 500), (1, 0, 500)],
        );
        let t = table();
        let m = EnergyModel::new(&g, &t);
        let full = solve_bb(&m, 128);
        let out = budgeted(&m, 128, Budget::nodes(1), None);
        assert_eq!(out.stopped_by, Some(BudgetKind::Nodes));
        let gap = out.status.gap().unwrap();
        assert!(gap.is_finite() && gap >= 0.0);
        // The incumbent (greedy fill) is feasible and within the gap
        // of the optimum.
        let e_inc = out.allocation.predicted_energy.unwrap();
        let e_opt = full.predicted_energy.unwrap();
        assert!(e_inc >= e_opt - 1e-9);
        assert!(e_inc - e_opt <= gap + 1e-9, "gap does not cover truth");
    }

    #[test]
    fn budget_stopped_answer_never_worse_than_casa_greedy() {
        // Objects 0 and 1 share one heavy conflict edge, so each one's
        // optimistic savings count it: the density fill takes both and
        // fills the scratchpad. The marginal greedy re-prices the edge
        // after taking 0 and takes the hot object 2 instead.
        let g = graph(vec![100, 100, 3000], vec![64, 64, 64], &[(0, 1, 50)]);
        let t = table();
        let m = EnergyModel::new(&g, &t);
        let sm = SavingsModel::new(&m, 128);
        let fill = m.total_energy(&sm.greedy_chosen(128));
        let greedy = allocate_greedy(&m, 128);
        let e_greedy = greedy.predicted_energy.unwrap();
        assert!(e_greedy < fill - 1.0, "instance must favour the greedy");

        let sink = SearchSink::default().with_log();
        let ctx = SolveCtx::default()
            .with_budget(Budget::nodes(1))
            .with_sink(&sink);
        let out = run(&m, 128, &ctx);
        assert_eq!(out.stopped_by, Some(BudgetKind::Nodes));
        assert_eq!(out.allocation.on_spm, greedy.on_spm);
        assert_eq!(out.allocation.predicted_energy, Some(e_greedy));
        // The gap is re-taken against the adopted answer and still
        // covers the distance to the optimum.
        let e_opt = solve_bb(&m, 128).predicted_energy.unwrap();
        let gap_fill = sm.root_bound(128) - sm.exact_savings(&sm.greedy_chosen(128));
        let gap = out.status.gap().unwrap();
        assert!(gap < gap_fill);
        assert!(e_greedy - e_opt <= gap + 1e-9);
        // The session log ends on the adopted answer, as replay checks.
        let log = sink.take_log().expect("recording enabled");
        assert_eq!(log.incumbents.last().unwrap().on_spm, greedy.on_spm);

        // Proven optima never consult the greedy.
        let full = budgeted(&m, 128, Budget::unlimited(), None);
        assert!(full.status.is_optimal());
        assert_eq!(full.allocation.predicted_energy, Some(e_opt));
    }

    #[test]
    fn gap_monotone_in_node_budget_and_zero_at_closure() {
        let mut state: u64 = 41;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        let n = 8usize;
        let fetches: Vec<u64> = (0..n).map(|_| next() % 2000).collect();
        let sizes: Vec<u32> = (0..n).map(|_| (next() % 96 + 8) as u32).collect();
        let mut edges = HashMap::new();
        for i in 0..n {
            for j in 0..n {
                if i != j && next() % 3 == 0 {
                    edges.insert((i, j), next() % 300);
                }
            }
        }
        let g = ConflictGraph::from_parts(fetches, sizes, edges);
        let t = table();
        let m = EnergyModel::new(&g, &t);
        let mut last_gap = f64::INFINITY;
        let mut budget = 1u64;
        loop {
            let out = budgeted(&m, 160, Budget::nodes(budget), None);
            let gap = out.status.gap().unwrap();
            assert!(gap >= 0.0);
            assert!(gap <= last_gap + 1e-9, "gap grew at budget {budget}");
            last_gap = gap;
            if out.status.is_optimal() {
                assert_eq!(gap, 0.0);
                break;
            }
            budget *= 2;
            assert!(budget < 1 << 30, "search failed to close");
        }
    }

    #[test]
    fn warm_start_adopted_when_better_than_greedy() {
        // Any feasible warm start must never make the outcome worse,
        // and an optimal warm start is kept verbatim at 0-node budget
        // if it beats greedy.
        let g = graph(
            vec![1000, 1000, 3000],
            vec![64, 64, 64],
            &[(0, 1, 500), (1, 0, 500)],
        );
        let t = table();
        let m = EnergyModel::new(&g, &t);
        let full = solve_bb(&m, 128);
        let out = budgeted(&m, 128, Budget::nodes(1), Some(&full.on_spm));
        assert_eq!(
            out.allocation.predicted_energy, full.predicted_energy,
            "optimal warm start must survive a 1-node budget"
        );
        // Oversized warm starts are ignored, not adopted.
        let bad = vec![true; 3];
        let out2 = budgeted(&m, 64, Budget::nodes(1), Some(&bad));
        let used: u32 = (0..g.len())
            .filter(|&i| out2.allocation.on_spm[i])
            .map(|i| g.size_of(i))
            .sum();
        assert!(used <= 64, "infeasible warm start leaked into outcome");
    }

    #[test]
    fn tree_capture_is_deterministic_and_changes_no_decision() {
        let g = graph(
            vec![1000, 1000, 3000],
            vec![64, 64, 64],
            &[(0, 1, 500), (1, 0, 500)],
        );
        let t = table();
        let m = EnergyModel::new(&g, &t);
        let run = || {
            let sink = SearchSink::default().with_tree(TreeRecorder::with_cap(4096));
            let out = run(&m, 128, &SolveCtx::default().with_sink(&sink));
            (out, sink.take_tree().unwrap())
        };
        let (out, log) = run();
        let plain = solve_bb(&m, 128);
        assert_eq!(out.allocation, plain, "capture must not steer the search");
        assert_eq!(log.nodes, out.allocation.solver_nodes);
        let opens = log
            .events
            .iter()
            .filter(|e| e.kind == TreeEventKind::Open)
            .count() as u64;
        assert_eq!(opens, log.nodes, "one open event per DFS visit");
        assert!(log
            .events
            .iter()
            .any(|e| e.kind == TreeEventKind::Branch && e.var.is_some()));
        // Savings orientation: a prune-by-bound fires exactly when the
        // subtree's optimistic savings cannot beat the incumbent.
        for e in log
            .events
            .iter()
            .filter(|e| e.kind == TreeEventKind::PruneBound)
        {
            assert!(
                e.bound <= e.best + 1e-9,
                "pruned with bound {} above best {}",
                e.bound,
                e.best
            );
        }
        let (_, log2) = run();
        assert_eq!(
            casa_ilp::tree::tree_log_json(&log),
            casa_ilp::tree::tree_log_json(&log2),
            "same instance, same tree bytes"
        );
    }

    #[test]
    fn cancelled_token_still_yields_greedy_incumbent() {
        let g = graph(
            vec![1000, 1000, 3000],
            vec![64, 64, 64],
            &[(0, 1, 500), (1, 0, 500)],
        );
        let t = table();
        let m = EnergyModel::new(&g, &t);
        let token = CancelToken::new();
        token.cancel();
        let out = budgeted(&m, 128, Budget::unlimited().with_cancel(token), None);
        assert_eq!(out.stopped_by, Some(BudgetKind::Cancelled));
        assert!(out.allocation.predicted_energy.is_some());
        assert!(out.status.gap().unwrap().is_finite());
    }
}
