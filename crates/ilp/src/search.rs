//! The search-event stream: one vocabulary that both branch & bound
//! searches in the workspace speak — the generic best-first engine in
//! this crate and the specialized DFS in `casa-core`.
//!
//! A search reports every decision it makes exactly once, as a
//! [`SearchEvent`], into the [`SearchSink`] of its solve. Everything
//! that observes a search is a *projection* of that one stream:
//!
//! * the session [`DecisionLog`] (branch order, incumbents, bound
//!   improvements, stop disposition) that makes a solve replayable,
//! * the [`TreeRecorder`] ring (per-node open/branch/prune events),
//! * the `bb.incumbent` instants and the incumbent/bound time series
//!   of the solve's [`Obs`].
//!
//! Objectives and bounds travel in the search's own orientation:
//! savings (larger is better) for the DFS, the model's objective for
//! the generic engine. A search binds its sink to its [`Obs`] once, as
//! an [`Emitter`]; with no projection live every event site costs one
//! branch and allocates nothing, and the per-node events (whose local
//! bounds cost work to compute) are built only when the tree ring
//! keeps them.

use crate::engine::BudgetKind;
use crate::tree::{TreeEvent, TreeEventKind, TreeLog, TreeRecorder};
use casa_obs::{ArgValue, Obs};
use std::sync::{Arc, Mutex, PoisonError};

/// Where in the search tree an event happened.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct At {
    /// Search-order node counter (0 = before the first node).
    pub node: u64,
    /// Depth of the node (branching decisions above it).
    pub depth: u32,
    /// The node's local bound (NaN when none was computed).
    pub bound: f64,
    /// Best incumbent objective at the event (NaN while none exists);
    /// for an incumbent event, the new incumbent's objective.
    pub best: f64,
}

impl At {
    fn tree(self, kind: TreeEventKind, var: Option<u32>) -> TreeEvent {
        TreeEvent {
            kind,
            node: self.node,
            depth: self.depth,
            bound: self.bound,
            best: self.best,
            var,
        }
    }
}

/// An incumbent's point: a chosen set, or a full assignment of the
/// model's variables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Point<'a> {
    /// One flag per object (the DFS's native form).
    Flags(&'a [bool]),
    /// One value per model variable (the generic engine's form).
    Values(&'a [f64]),
}

/// One step of a branch & bound search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SearchEvent<'a> {
    /// The branching order grew by these variables: the DFS emits its
    /// whole static order once, the generic engine one variable per
    /// branching decision.
    Order(&'a [u32]),
    /// A node was opened.
    Open(At),
    /// A node spawned children on `var`.
    Branch {
        /// The branching node.
        at: At,
        /// Branching variable index.
        var: u32,
    },
    /// A node was discarded: its bound cannot beat the incumbent, or
    /// (`infeasible`) its relaxation has no solution.
    Prune {
        /// The discarded node.
        at: At,
        /// Whether the relaxation was infeasible.
        infeasible: bool,
    },
    /// A new incumbent was adopted (`at.best` is its objective). Node
    /// 0 is the seed incumbent the search started from.
    Incumbent {
        /// Where it was found.
        at: At,
        /// The incumbent itself.
        point: Point<'a>,
    },
    /// The global optimistic bound improved strictly.
    Bound {
        /// Node count at the improvement.
        node: u64,
        /// The new bound.
        value: f64,
    },
    /// The search ended.
    Stop {
        /// Which budget dimension stopped it (`None` = closed).
        stopped: Option<BudgetKind>,
        /// Total nodes visited.
        nodes: u64,
    },
}

/// One incumbent adoption in a [`DecisionLog`]: the node that found
/// it, the search objective (bit pattern, for exact round-trips), and
/// the chosen set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Incumbent {
    /// Node count at adoption (0 = the seed incumbent).
    pub node: u64,
    /// Bit pattern of the search objective for this incumbent
    /// (savings for the specialized B&B, energy for the ILP).
    pub objective_bits: u64,
    /// The scratchpad set adopted, one flag per object.
    pub on_spm: Vec<bool>,
}

/// One strict improvement of the global optimistic bound.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BoundUpdate {
    /// Node count when the bound improved.
    pub node: u64,
    /// Bit pattern of the new bound.
    pub value_bits: u64,
}

/// The session projection of a search: everything it decided, in
/// order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DecisionLog {
    /// Branch variable order: candidate indices for the specialized
    /// B&B (its full static order), raw model variable indices for the
    /// ILP (one entry per branching decision).
    pub order: Vec<u32>,
    /// Every incumbent adoption, oldest first.
    pub incumbents: Vec<Incumbent>,
    /// Every strict bound improvement, oldest first.
    pub bounds: Vec<BoundUpdate>,
    /// Which budget dimension stopped the search (`None` = closed).
    pub stop: Option<String>,
    /// Total nodes the search visited.
    pub nodes: u64,
}

/// Where a solve's search events go: the decision log and the tree
/// ring, each kept only when switched on. Cheap to clone; clones share
/// the same log and ring, so a caller keeps one copy to harvest while
/// the solve writes through another. The default sink keeps nothing.
#[derive(Debug, Clone, Default)]
pub struct SearchSink {
    log: Option<Arc<Mutex<DecisionLog>>>,
    tree: TreeRecorder,
    /// Value-form incumbents project into the log as one flag per
    /// listed variable: set when the variable is 0 (the CASA ILP's
    /// `l_i = 0`, object on the scratchpad).
    flag_vars: Option<Arc<[usize]>>,
}

impl SearchSink {
    /// Also keep the decision log.
    #[must_use]
    pub fn with_log(mut self) -> Self {
        self.log = Some(Arc::default());
        self
    }

    /// Also keep per-node events in `tree`.
    #[must_use]
    pub fn with_tree(mut self, tree: TreeRecorder) -> Self {
        self.tree = tree;
        self
    }

    /// Project value-form incumbents through `vars` (see the field).
    #[must_use]
    pub fn with_flag_vars(mut self, vars: Vec<usize>) -> Self {
        self.flag_vars = Some(vars.into());
        self
    }

    /// Drain the decision log; `None` when it is not kept.
    pub fn take_log(&self) -> Option<DecisionLog> {
        let log = self.log.as_ref()?;
        let mut log = log.lock().unwrap_or_else(PoisonError::into_inner);
        Some(std::mem::take(&mut *log))
    }

    /// Drain the tree ring; `None` when it is not kept.
    pub fn take_tree(&self) -> Option<TreeLog> {
        self.tree.take()
    }

    /// Bind this sink to one search's [`Obs`], naming that search's
    /// time series.
    pub fn emitter<'a>(&'a self, obs: &'a Obs, names: &'static SeriesNames) -> Emitter<'a> {
        Emitter {
            sink: self,
            obs,
            names,
            on: obs.is_enabled() || self.log.is_some() || self.tree.is_enabled(),
            nodes: self.tree.is_enabled(),
        }
    }

    fn log_with(&self, f: impl FnOnce(&mut DecisionLog)) {
        if let Some(log) = &self.log {
            f(&mut log.lock().unwrap_or_else(PoisonError::into_inner));
        }
    }

    fn flags(&self, point: Point<'_>) -> Vec<bool> {
        match point {
            Point::Flags(f) => f.to_vec(),
            Point::Values(v) => self
                .flag_vars
                .as_deref()
                .unwrap_or(&[])
                .iter()
                .map(|&i| v[i] < 0.5)
                .collect(),
        }
    }
}

/// Names under which a search's events land in its [`Obs`].
#[derive(Debug)]
pub struct SeriesNames {
    /// Argument name of the objective on `bb.incumbent` instants.
    pub objective: &'static str,
    /// Time series of incumbent objectives, ticked by node.
    pub incumbent: &'static str,
    /// Time series of bound improvements, ticked by node.
    pub bound: &'static str,
}

/// A [`SearchSink`] bound to one search: fans each event out to the
/// live projections.
#[derive(Debug)]
pub struct Emitter<'a> {
    sink: &'a SearchSink,
    obs: &'a Obs,
    names: &'static SeriesNames,
    /// Some projection is live: events are worth building.
    pub on: bool,
    /// Per-node events (open/branch/prune) are kept.
    pub nodes: bool,
}

impl Emitter<'_> {
    /// Deliver one event to every projection that keeps its kind.
    pub fn emit(&self, ev: SearchEvent<'_>) {
        if !self.on {
            return;
        }
        let tree = &self.sink.tree;
        match ev {
            SearchEvent::Order(vars) => self.sink.log_with(|l| l.order.extend_from_slice(vars)),
            SearchEvent::Open(at) => tree.record(at.tree(TreeEventKind::Open, None)),
            SearchEvent::Branch { at, var } => {
                tree.record(at.tree(TreeEventKind::Branch, Some(var)));
            }
            SearchEvent::Prune { at, infeasible } => {
                let kind = if infeasible {
                    TreeEventKind::PruneInfeasible
                } else {
                    TreeEventKind::PruneBound
                };
                tree.record(at.tree(kind, None));
            }
            SearchEvent::Incumbent { at, point } => {
                self.sink.log_with(|l| {
                    l.incumbents.push(Incumbent {
                        node: at.node,
                        objective_bits: at.best.to_bits(),
                        on_spm: self.sink.flags(point),
                    });
                });
                tree.record(at.tree(TreeEventKind::Incumbent, None));
                if self.obs.is_enabled() {
                    self.obs.instant(
                        "bb.incumbent",
                        vec![
                            (self.names.objective.to_string(), ArgValue::F64(at.best)),
                            ("node".to_string(), ArgValue::U64(at.node)),
                        ],
                    );
                    self.obs.ts_sample(self.names.incumbent, at.node, at.best);
                }
            }
            SearchEvent::Bound { node, value } => {
                self.sink.log_with(|l| {
                    l.bounds.push(BoundUpdate {
                        node,
                        value_bits: value.to_bits(),
                    });
                });
                self.obs.ts_sample(self.names.bound, node, value);
            }
            SearchEvent::Stop { stopped, nodes } => {
                self.sink.log_with(|l| {
                    l.stop = stopped.map(|k| k.as_str().to_string());
                    l.nodes = nodes;
                });
                tree.set_nodes(nodes);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NAMES: SeriesNames = SeriesNames {
        objective: "objective",
        incumbent: "t.incumbent",
        bound: "t.bound",
    };

    fn at(node: u64, best: f64) -> At {
        At {
            node,
            depth: 1,
            bound: 9.0,
            best,
        }
    }

    fn drive(em: &Emitter<'_>) {
        em.emit(SearchEvent::Order(&[2, 0]));
        em.emit(SearchEvent::Open(at(1, f64::NAN)));
        em.emit(SearchEvent::Incumbent {
            at: at(1, 4.0),
            point: Point::Values(&[0.0, 1.0, 0.0]),
        });
        em.emit(SearchEvent::Bound {
            node: 2,
            value: 5.0,
        });
        em.emit(SearchEvent::Stop {
            stopped: Some(BudgetKind::Nodes),
            nodes: 3,
        });
    }

    #[test]
    fn a_default_sink_keeps_nothing() {
        let sink = SearchSink::default();
        let obs = Obs::disabled();
        let em = sink.emitter(&obs, &NAMES);
        assert!(!em.on && !em.nodes);
        drive(&em);
        assert_eq!(sink.take_log(), None);
        assert_eq!(sink.take_tree(), None);
    }

    #[test]
    fn every_projection_sees_the_same_stream() {
        let sink = SearchSink::default()
            .with_log()
            .with_tree(TreeRecorder::with_cap(16))
            .with_flag_vars(vec![0, 1]);
        let obs = Obs::enabled();
        let em = sink.emitter(&obs, &NAMES);
        assert!(em.on && em.nodes);
        drive(&em);
        let log = sink.take_log().expect("log kept");
        assert_eq!(log.order, vec![2, 0]);
        assert_eq!(log.incumbents.len(), 1);
        assert_eq!(log.incumbents[0].on_spm, vec![true, false]);
        assert_eq!(log.incumbents[0].objective_bits, 4.0f64.to_bits());
        assert_eq!(log.bounds[0].value_bits, 5.0f64.to_bits());
        assert_eq!((log.stop.as_deref(), log.nodes), (Some("nodes"), 3));
        let tree = sink.take_tree().expect("tree kept");
        let kinds: Vec<_> = tree.events.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec![TreeEventKind::Open, TreeEventKind::Incumbent]);
        assert_eq!(tree.nodes, 3);
        let ts = obs.timeseries_snapshot();
        assert_eq!(ts.series.get("t.incumbent"), Some(&vec![(1, 4.0)]));
        assert_eq!(ts.series.get("t.bound"), Some(&vec![(2, 5.0)]));
    }
}
