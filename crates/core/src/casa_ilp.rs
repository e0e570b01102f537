//! The CASA ILP formulation — paper §4, eqs. (7)–(17).
//!
//! Binary location variables `l(x_i)` (0 = scratchpad, 1 = cached),
//! linearization variables `L(x_i,x_j) = l(x_i)·l(x_j)` for every
//! conflict edge, the scratchpad capacity constraint (17), and the
//! objective (16)/(12). Two linearizations are provided:
//!
//! * [`Linearization::Paper`] — the paper's constraints (13)–(15) with
//!   binary `L`;
//! * [`Linearization::Tight`] — the standard AND lower bound
//!   `L ≥ l_i + l_j − 1` with *continuous* `L ∈ [0,1]`, exact under
//!   minimization because every `L` coefficient is positive.
//!
//! Both produce the same optimum (property-tested); `Tight` needs no
//! extra integer variables, so branch & bound explores fewer nodes —
//! the ablation measured by `benches/solver.rs`.
//!
//! Symmetric edge pairs `m_ij`/`m_ji` share one `L` variable with the
//! summed coefficient (mathematically identical to the paper's two
//! directed variables, half the size); self-edges `m_ii` reduce to
//! `l_i` since `l·l = l` for binaries.

use crate::allocation::Allocation;
use crate::casa_bb::SavingsModel;
use crate::energy_model::EnergyModel;
use crate::engine::{AllocOutcome, AllocStatus, SolveCtx};
use crate::greedy::allocate_greedy;
use casa_ilp::engine::SolveRequest;
use casa_ilp::model::VarKind;
use casa_ilp::{ConstraintOp, Model, Sense, Var};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// How the quadratic term is linearized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Linearization {
    /// Paper eqs. (13)–(15): binary `L`, three constraints per edge.
    Paper,
    /// `L ≥ l_i + l_j − 1`, continuous `L`: exact for positive
    /// minimization coefficients, fewer integer variables.
    Tight,
}

/// Build the CASA ILP for `model` and a scratchpad of `capacity`
/// bytes. Returns the ILP plus the `l(x_i)` variables in object
/// order. Exposed separately from the solve so tests and benches can
/// inspect the formulation.
pub fn build_model(
    model: &EnergyModel<'_>,
    capacity: u32,
    lin: Linearization,
) -> (Model, Vec<Var>) {
    let (ilp, l, _) = build_model_parts(model, capacity, lin);
    (ilp, l)
}

/// [`build_model`] variant that also returns the linearization
/// variables `L(x_i,x_j)` keyed by unordered object pair — needed to
/// translate a scratchpad set into a full warm-start vector (see
/// [`warm_start_values`]).
#[allow(clippy::needless_range_loop)] // parallel arrays indexed together
#[allow(clippy::type_complexity)] // (model, selection vars, pair vars) is the natural shape
pub fn build_model_parts(
    model: &EnergyModel<'_>,
    capacity: u32,
    lin: Linearization,
) -> (Model, Vec<Var>, Vec<((usize, usize), Var)>) {
    let g = model.graph();
    let t = model.table();
    let n = g.len();
    let premium = t.miss_premium();
    let mut ilp = Model::new(Sense::Minimize);

    let l: Vec<Var> = (0..n).map(|i| ilp.binary(format!("l{i}"))).collect();

    // Objective, eq. (12):
    //   Σ f_i·E_SP                                  (constant)
    // + Σ f_i·(E_hit − E_SP)·l_i                    (linear)
    // + Σ (E_miss − E_hit)·m_ij·L_ij                (quadratic, linearized)
    let mut linear: Vec<f64> = vec![0.0; n];
    let mut constant = 0.0;
    for i in 0..n {
        let f = g.fetches_of(i) as f64;
        constant += f * t.spm_access;
        linear[i] += f * (t.cache_hit - t.spm_access);
    }
    // Merge directed edges into unordered pairs.
    let mut pair_weight: HashMap<(usize, usize), f64> = HashMap::new();
    for ((i, j), m) in g.edges() {
        if i == j {
            // l_i · l_i = l_i.
            linear[i] += m as f64 * premium;
        } else {
            let key = (i.min(j), i.max(j));
            *pair_weight.entry(key).or_insert(0.0) += m as f64 * premium;
        }
    }

    let mut objective: Vec<(Var, f64)> = Vec::with_capacity(n + pair_weight.len());
    for i in 0..n {
        if linear[i] != 0.0 {
            objective.push((l[i], linear[i]));
        }
    }

    let mut pairs: Vec<((usize, usize), f64)> = pair_weight.into_iter().collect();
    pairs.sort_by_key(|a| a.0);
    let mut pair_vars: Vec<((usize, usize), Var)> = Vec::with_capacity(pairs.len());
    for ((i, j), w) in pairs {
        let big_l = match lin {
            Linearization::Paper => ilp.binary(format!("L{i}_{j}")),
            Linearization::Tight => ilp.continuous(format!("L{i}_{j}"), 0.0, 1.0),
        };
        pair_vars.push(((i, j), big_l));
        objective.push((big_l, w));
        match lin {
            Linearization::Paper => {
                // (13) l_i − L ≥ 0, (14) l_j − L ≥ 0,
                // (15) l_i + l_j − 2L ≤ 1.
                ilp.add_constraint([(l[i], 1.0), (big_l, -1.0)], ConstraintOp::Ge, 0.0);
                ilp.add_constraint([(l[j], 1.0), (big_l, -1.0)], ConstraintOp::Ge, 0.0);
                ilp.add_constraint(
                    [(l[i], 1.0), (l[j], 1.0), (big_l, -2.0)],
                    ConstraintOp::Le,
                    1.0,
                );
            }
            Linearization::Tight => {
                // L ≥ l_i + l_j − 1.
                ilp.add_constraint(
                    [(l[i], 1.0), (l[j], 1.0), (big_l, -1.0)],
                    ConstraintOp::Le,
                    1.0,
                );
            }
        }
    }
    ilp.set_objective(objective);
    ilp.add_objective_constant(constant);

    // Capacity, eq. (17): Σ (1 − l_i)·S_i ≤ C  ⟺  Σ S_i·l_i ≥ ΣS − C.
    let total_size: f64 = (0..n).map(|i| f64::from(g.size_of(i))).sum();
    ilp.add_constraint(
        (0..n).map(|i| (l[i], f64::from(g.size_of(i)))),
        ConstraintOp::Ge,
        total_size - f64::from(capacity),
    );

    (ilp, l, pair_vars)
}

/// Translate a scratchpad set into a full assignment of the CASA ILP:
/// `l_i = 1` iff object `i` stays cached, `L_ij = l_i·l_j`. The result
/// is feasible whenever `on_spm` respects the capacity, so it can seed
/// [`SolveRequest::warm_start`].
pub fn warm_start_values(
    ilp: &Model,
    l: &[Var],
    pair_vars: &[((usize, usize), Var)],
    on_spm: &[bool],
) -> Vec<f64> {
    let mut values = vec![0.0; ilp.num_vars()];
    for (i, &v) in l.iter().enumerate() {
        values[v.index()] = if on_spm[i] { 0.0 } else { 1.0 };
    }
    for &((i, j), v) in pair_vars {
        let both_cached = !on_spm[i] && !on_spm[j];
        values[v.index()] = if both_cached { 1.0 } else { 0.0 };
    }
    values
}

/// Solve the CASA allocation exactly via the generic ILP under `ctx`
/// (see [`crate::engine::allocate`]): warm-started from the better of
/// the greedy incumbent and the caller's hint, budgeted, and falling
/// back to that warm start when the engine produces nothing. Model
/// construction runs under a `solve.ilp.build` span and the search
/// under `solve.ilp`, with the engine's `ilp.*` counters in
/// `ctx.obs`. Search events are in the ILP's own orientation: energy
/// (smaller is better), so tree bounds here are energy lower bounds,
/// and incumbents reach the decision log as scratchpad sets through
/// the `l` variables.
pub(crate) fn solve(
    model: &EnergyModel<'_>,
    capacity: u32,
    lin: Linearization,
    ctx: &SolveCtx,
) -> AllocOutcome {
    let obs = &ctx.obs;
    let mut warm = allocate_greedy(model, capacity);
    if let Some(hint) = &ctx.warm {
        let sm = SavingsModel::new(model, capacity);
        if hint.len() == warm.on_spm.len()
            && sm.fits(hint, capacity)
            && sm.exact_savings(hint) > sm.exact_savings(&warm.on_spm)
        {
            warm = Allocation {
                on_spm: hint.clone(),
                predicted_energy: Some(model.total_energy(hint)),
                solver_nodes: 0,
            };
        }
    }
    let build_span = obs.span("solve.ilp.build");
    let (ilp, l, pair_vars) = build_model_parts(model, capacity, lin);
    drop(build_span);
    obs.add("ilp.model.vars", ilp.num_vars() as u64);
    obs.add("ilp.model.integer_vars", integer_var_count(&ilp) as u64);
    let solve_span = obs.span("solve.ilp");
    let sink = ctx
        .sink
        .clone()
        .with_flag_vars(l.iter().map(|v| v.index()).collect());
    let warm_values = warm_start_values(&ilp, &l, &pair_vars, &warm.on_spm);
    let result = SolveRequest::new(&ilp)
        .budget(ctx.budget.clone())
        .observe(obs)
        .sink(&sink)
        .warm_start(&warm_values)
        .solve();
    drop(solve_span);
    match result {
        Ok(out) => {
            let on_spm: Vec<bool> = l.iter().map(|&v| !out.solution.bool_value(v)).collect();
            // Report the model-evaluated energy rather than the raw
            // objective so Paper/Tight report identically even under
            // LP round-off.
            let predicted = model.total_energy(&on_spm);
            AllocOutcome {
                allocation: Allocation {
                    on_spm,
                    predicted_energy: Some(predicted),
                    solver_nodes: out.solution.nodes(),
                },
                status: AllocStatus::proven(out.stopped_by, out.gap()),
                stopped_by: out.stopped_by,
            }
        }
        Err(e) => {
            obs.add("core.engine.fallback", 1);
            // Degradation is exactly what the flight recorder exists
            // for: annotate the ring and trigger an automatic dump if
            // a sink is configured, so the post-mortem shows what led
            // up to the substitution.
            obs.note_degradation("core.engine.fallback", &e.to_string());
            AllocOutcome {
                allocation: warm,
                status: AllocStatus::Fallback {
                    reason: e.to_string(),
                },
                stopped_by: None,
            }
        }
    }
}

/// Count the integer variables of a formulation (ablation metric).
pub fn integer_var_count(ilp: &Model) -> usize {
    ilp.vars()
        .filter(|&v| matches!(ilp.var_kind(v), VarKind::Binary | VarKind::Integer { .. }))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conflict::ConflictGraph;
    use crate::engine::allocate;
    use crate::flow::AllocatorKind;
    use casa_energy::EnergyTable;
    use std::collections::HashMap;

    fn solve_ilp(m: &EnergyModel<'_>, cap: u32, lin: Linearization) -> Allocation {
        let kind = match lin {
            Linearization::Paper => AllocatorKind::CasaIlpPaper,
            Linearization::Tight => AllocatorKind::CasaIlpTight,
        };
        let out = allocate(m, cap, kind, &SolveCtx::default());
        assert!(out.status.is_optimal(), "{lin:?}: {:?}", out.status);
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

    /// Two objects thrash heavily; a third is hot but conflict-free.
    /// With room for one object, CASA must pick a conflictor — even
    /// though the conflict-free object has more fetches.
    fn thrash_graph() -> ConflictGraph {
        let mut e = HashMap::new();
        e.insert((0, 1), 500);
        e.insert((1, 0), 500);
        ConflictGraph::from_parts(vec![1_000, 1_000, 3_000], vec![64, 64, 64], e)
    }

    #[test]
    fn casa_prefers_conflict_elimination_over_fetch_count() {
        let g = thrash_graph();
        let t = table();
        let m = EnergyModel::new(&g, &t);
        for lin in [Linearization::Paper, Linearization::Tight] {
            let a = solve_ilp(&m, 64, lin);
            assert_eq!(a.spm_count(), 1, "{lin:?}");
            assert!(
                a.on_spm[0] || a.on_spm[1],
                "{lin:?} must allocate a conflictor, got {:?}",
                a.on_spm
            );
            // A fetch-count allocator (Steinke) would pick object 2.
            assert!(!a.on_spm[2], "{lin:?}");
        }
    }

    #[test]
    fn paper_and_tight_agree() {
        let g = thrash_graph();
        let t = table();
        let m = EnergyModel::new(&g, &t);
        for cap in [0u32, 64, 128, 192] {
            let p = solve_ilp(&m, cap, Linearization::Paper);
            let q = solve_ilp(&m, cap, Linearization::Tight);
            let ep = p.predicted_energy.unwrap();
            let eq = q.predicted_energy.unwrap();
            assert!(
                (ep - eq).abs() < 1e-6,
                "cap {cap}: paper {ep} vs tight {eq}"
            );
        }
    }

    #[test]
    fn zero_capacity_allocates_nothing() {
        let g = thrash_graph();
        let t = table();
        let m = EnergyModel::new(&g, &t);
        let a = solve_ilp(&m, 0, Linearization::Tight);
        assert_eq!(a.spm_count(), 0);
        let em = EnergyModel::new(&g, &t);
        assert!((a.predicted_energy.unwrap() - em.baseline_energy()).abs() < 1e-6);
    }

    #[test]
    fn huge_capacity_allocates_everything_useful() {
        let g = thrash_graph();
        let t = table();
        let m = EnergyModel::new(&g, &t);
        let a = solve_ilp(&m, 10_000, Linearization::Tight);
        // All three objects have positive fetch counts: all on SPM.
        assert_eq!(a.spm_count(), 3);
    }

    #[test]
    fn capacity_constraint_respected() {
        let g = thrash_graph();
        let t = table();
        let m = EnergyModel::new(&g, &t);
        for cap in [0u32, 63, 64, 127, 128, 191, 192] {
            let a = solve_ilp(&m, cap, Linearization::Tight);
            let used: u32 = (0..g.len())
                .filter(|&i| a.on_spm[i])
                .map(|i| g.size_of(i))
                .sum();
            assert!(used <= cap, "cap {cap}: used {used}");
        }
    }

    #[test]
    fn tight_has_fewer_integer_vars() {
        let g = thrash_graph();
        let t = table();
        let m = EnergyModel::new(&g, &t);
        let (paper, _) = build_model(&m, 64, Linearization::Paper);
        let (tight, _) = build_model(&m, 64, Linearization::Tight);
        assert!(integer_var_count(&paper) > integer_var_count(&tight));
        assert_eq!(integer_var_count(&tight), 3); // just the l_i
    }

    #[test]
    fn self_edges_fold_into_linear_term() {
        let mut e = HashMap::new();
        e.insert((0, 0), 100);
        let g = ConflictGraph::from_parts(vec![10], vec![32], e);
        let t = table();
        let m = EnergyModel::new(&g, &t);
        let (ilp, _) = build_model(&m, 32, Linearization::Paper);
        // No L variable should exist: 1 binary var only.
        assert_eq!(ilp.num_vars(), 1);
        let a = solve_ilp(&m, 32, Linearization::Paper);
        assert!(a.on_spm[0], "self-thrashing object belongs on the SPM");
    }
}
