//! Committed expected outputs for the default workload seed. Every
//! run with `--seed 1` checks its first timed pass against these; each
//! run prints the values it computed, so a deliberate change to the
//! program's answers is re-recorded from that line.

/// The seed the goldens were recorded with.
pub const DEFAULT_SEED: u64 = 1;

/// FNV-1a digest of every pass-0 `flow_sim` op's fetch counters,
/// energy bits and placement, in op order. Solver node counts are left
/// out: they measure the search, not its answer.
pub const FLOW_SIM_PASS0: &str = "886b7617a102b7ae";

/// Optimal CASA-BB objectives (nJ, as printed by `jnum`) of the pass-0
/// `solve_hard` instances, in instance order. A solve the node ceiling
/// stops must come out at or above its entry.
pub const SOLVE_HARD_PASS0: &[&str] = &[
    "467468.0792799996",
    "456478.0683999995",
    "469671.23159999965",
    "458518.3119999998",
    "475245.12775999965",
    "460843.3487999997",
    "1669230.4813",
    "1777711.2252600011",
    "1667843.4972599996",
];
