//! Record/replay of allocation sessions.
//!
//! A **session** captures everything one solve consumed and decided:
//! the canonical request (conflict graph, energy constants, capacity,
//! allocator, budget), the solver's decision log (branch variable
//! order, every incumbent with its objective, every bound improvement,
//! the stop reason), and the final answer (layout, energy, status,
//! gap, and the rendered report). Together these make a solve
//! reproducible offline: [`Session::replay`] re-executes the solve
//! *from the log* — adopting the recorded decisions instead of
//! re-searching — and asserts layout, energy, gap, and report
//! byte-equivalence, while [`Session::divergence`] re-solves from
//! scratch and pinpoints the first decision where the fresh search
//! departs from the recorded one.
//!
//! # On-disk format
//!
//! One deterministic JSON object with sorted keys, whatever the file
//! extension (by convention `.casa-session`). `f64` values travel as
//! 16-digit hex bit patterns so the round-trip is bit-exact regardless
//! of the JSON number parser. Readers ignore unknown keys, reject
//! `schema` values above their own, and report truncated or malformed
//! input as a clean [`SessionError::Format`].
//!
//! # Replay-equivalence guarantee
//!
//! For the deterministic allocators (`casa-bb`, the ILP variants under
//! pure node budgets, and the heuristics) replay re-derives the branch
//! order from the request, checks every recorded incumbent for
//! feasibility and monotone improvement, recomputes the gap from the
//! recorded objective/bound bit patterns, and regenerates the response
//! JSON — all of which must match the recording byte for byte.
//! Fallback outcomes record no solver log; replay verifies the energy
//! and report only. See `DESIGN.md` §15 for the schema reference.

use crate::allocation::Allocation;
use crate::casa_bb::SavingsModel;
use crate::energy_model::EnergyModel;
use crate::engine::{allocate, AllocOutcome, AllocStatus, BudgetKind, SearchSink, SolveCtx};
use crate::flow::AllocatorKind;
use crate::server::{parse_request, response_json, ParsedRequest, SolveJob};
use casa_obs::{jnum, json_escape};
use serde::json::Value;
use std::path::Path;

pub use casa_ilp::search::{BoundUpdate, DecisionLog, Incumbent};

/// Current session schema number. Readers reject anything newer.
pub const SESSION_SCHEMA: u32 = 1;

// ---------------------------------------------------------------------------
// The session
// ---------------------------------------------------------------------------

/// One recorded solve: request, decision log, and final answer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Session {
    /// Format schema number ([`SESSION_SCHEMA`] when written here).
    pub schema: u32,
    /// Free-form provenance tags (request ID, benchmark name, …).
    pub meta: Vec<(String, String)>,
    /// The canonical v1 request JSON ([`request_json`]) this solve
    /// answered — replay re-parses it to rebuild the problem.
    pub request: String,
    /// The solver's decision log.
    pub log: DecisionLog,
    /// Final layout, one flag per object.
    pub layout: Vec<bool>,
    /// Bit pattern of the final layout's total energy.
    pub energy_bits: u64,
    /// Status tag (`"optimal"` / `"feasible"` / `"fallback"`).
    pub status: String,
    /// Bit pattern of the claimed gap (NaN bits when no gap is
    /// claimed, i.e. fallback).
    pub gap_bits: u64,
    /// Which budget dimension stopped the solver, if any.
    pub stopped_by: Option<String>,
    /// Fallback reason, when `status` is `"fallback"`.
    pub reason: Option<String>,
    /// Solver nodes the answer cost.
    pub nodes: u64,
    /// The rendered deterministic response JSON.
    pub report: String,
}

/// Render the canonical v1 request JSON for a [`SolveJob`]: sorted
/// keys, graph in CSR edge order, shortest-round-trip numbers. The
/// result re-parses through [`parse_request`] to an identical job,
/// which is what lets a session replay rebuild its problem.
pub fn request_json(job: &SolveJob) -> String {
    let g = &job.graph;
    let edges = g
        .edges()
        .map(|((i, j), m)| format!("[{i},{j},{m}]"))
        .collect::<Vec<_>>()
        .join(",");
    let fetches = (0..g.len())
        .map(|i| g.fetches_of(i).to_string())
        .collect::<Vec<_>>()
        .join(",");
    let sizes = (0..g.len())
        .map(|i| g.size_of(i).to_string())
        .collect::<Vec<_>>()
        .join(",");
    let budget = match (job.budget_ms, job.budget_nodes) {
        (None, None) => String::new(),
        (ms, nodes) => {
            let mut inner = Vec::new();
            if let Some(ms) = ms {
                inner.push(format!("\"ms\":{ms}"));
            }
            if let Some(n) = nodes {
                inner.push(format!("\"nodes\":{n}"));
            }
            format!("\"budget\":{{{}}},", inner.join(","))
        }
    };
    let t = &job.table;
    format!(
        "{{\"allocator\":\"{}\",{budget}\"capacity\":{},\"graph\":{{\"edges\":[{edges}],\"fetches\":[{fetches}],\"sizes\":[{sizes}]}},\"table\":{{\"cache_hit\":{},\"cache_miss\":{},\"l2_access\":{},\"lc_access\":{},\"lc_controller\":{},\"mm_word\":{},\"spm_access\":{}}},\"v\":1}}",
        crate::server::allocator_tag(job.allocator),
        job.capacity,
        jnum(t.cache_hit),
        jnum(t.cache_miss),
        jnum(t.l2_access),
        jnum(t.lc_access),
        jnum(t.lc_controller),
        jnum(t.mm_word),
        jnum(t.spm_access),
    )
}

impl Session {
    /// Build a session from one finished solve.
    pub fn capture(
        job: &SolveJob,
        out: &AllocOutcome,
        model: &EnergyModel<'_>,
        log: DecisionLog,
        meta: Vec<(String, String)>,
    ) -> Session {
        let energy = model.total_energy(&out.allocation.on_spm);
        let reason = match &out.status {
            AllocStatus::Fallback { reason } => Some(reason.clone()),
            _ => None,
        };
        Session {
            schema: SESSION_SCHEMA,
            meta,
            request: request_json(job),
            log,
            layout: out.allocation.on_spm.clone(),
            energy_bits: energy.to_bits(),
            status: out.status.as_str().to_string(),
            gap_bits: out.status.gap().unwrap_or(f64::NAN).to_bits(),
            stopped_by: out.stopped_by.map(|k| k.as_str().to_string()),
            reason,
            nodes: out.allocation.solver_nodes,
            report: response_json(job, out, model),
        }
    }
}

// ---------------------------------------------------------------------------
// JSON codec
// ---------------------------------------------------------------------------

fn hex_bits(bits: u64) -> String {
    format!("{bits:016x}")
}

fn opt_str_json(v: &Option<String>) -> String {
    match v {
        Some(s) => format!("\"{}\"", json_escape(s)),
        None => "null".to_string(),
    }
}

fn flags_json(flags: &[bool]) -> String {
    flags
        .iter()
        .map(|&b| if b { "1" } else { "0" })
        .collect::<Vec<_>>()
        .join(",")
}

fn juint(v: &Value, what: &str) -> Result<u64, SessionError> {
    let n = v
        .as_f64()
        .ok_or_else(|| SessionError::Format(format!("{what} must be a number")))?;
    if n < 0.0 || n.fract() != 0.0 || n > 9.007_199_254_740_992e15 {
        return Err(SessionError::Format(format!(
            "{what} must be a non-negative integer"
        )));
    }
    Ok(n as u64)
}

fn jhex(v: &Value, what: &str) -> Result<u64, SessionError> {
    let s = v
        .as_str()
        .ok_or_else(|| SessionError::Format(format!("{what} must be a hex string")))?;
    u64::from_str_radix(s, 16)
        .map_err(|_| SessionError::Format(format!("{what} is not a 64-bit hex value")))
}

fn jflags(v: &Value, what: &str) -> Result<Vec<bool>, SessionError> {
    v.as_array()
        .ok_or_else(|| SessionError::Format(format!("{what} must be an array")))?
        .iter()
        .map(|x| {
            x.as_f64()
                .map(|n| n != 0.0)
                .ok_or_else(|| SessionError::Format(format!("{what} entries must be 0/1")))
        })
        .collect()
}

impl Session {
    /// Serialize to the deterministic JSON format (sorted keys, `f64`
    /// bit patterns as hex strings).
    pub fn to_json(&self) -> String {
        let bounds = self
            .log
            .bounds
            .iter()
            .map(|b| {
                format!(
                    "{{\"bits\":\"{}\",\"node\":{}}}",
                    hex_bits(b.value_bits),
                    b.node
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let incumbents = self
            .log
            .incumbents
            .iter()
            .map(|i| {
                format!(
                    "{{\"node\":{},\"obj\":\"{}\",\"on_spm\":[{}]}}",
                    i.node,
                    hex_bits(i.objective_bits),
                    flags_json(&i.on_spm)
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let meta = self
            .meta
            .iter()
            .map(|(k, v)| format!("[\"{}\",\"{}\"]", json_escape(k), json_escape(v)))
            .collect::<Vec<_>>()
            .join(",");
        let order = self
            .log
            .order
            .iter()
            .map(u32::to_string)
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"bounds\":[{bounds}],\"energy\":\"{}\",\"gap\":\"{}\",\"incumbents\":[{incumbents}],\"layout\":[{}],\"log_nodes\":{},\"log_stop\":{},\"meta\":[{meta}],\"nodes\":{},\"order\":[{order}],\"reason\":{},\"report\":\"{}\",\"request\":\"{}\",\"schema\":{},\"status\":\"{}\",\"stopped_by\":{}}}",
            hex_bits(self.energy_bits),
            hex_bits(self.gap_bits),
            flags_json(&self.layout),
            self.log.nodes,
            opt_str_json(&self.log.stop),
            self.nodes,
            opt_str_json(&self.reason),
            json_escape(&self.report),
            json_escape(&self.request),
            self.schema,
            json_escape(&self.status),
            opt_str_json(&self.stopped_by),
        )
    }

    /// Parse the JSON format. Unknown keys are ignored
    /// (forward compatibility); schema numbers above
    /// [`SESSION_SCHEMA`] are rejected.
    ///
    /// # Errors
    ///
    /// [`SessionError::Format`] describing the first violation.
    pub fn from_json(text: &str) -> Result<Session, SessionError> {
        let v = serde::json::parse(text).map_err(|e| SessionError::Format(e.to_string()))?;
        let schema = juint(
            v.get("schema")
                .ok_or_else(|| SessionError::Format("schema is required".to_string()))?,
            "schema",
        )? as u32;
        if schema > SESSION_SCHEMA {
            return Err(SessionError::Format(format!(
                "unsupported session schema {schema} (this reader understands up to {SESSION_SCHEMA})"
            )));
        }
        let req_str = |key: &str| -> Result<String, SessionError> {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| SessionError::Format(format!("{key} is required")))
        };
        let opt_str = |key: &str| -> Option<String> {
            v.get(key).and_then(Value::as_str).map(str::to_string)
        };
        let mut s = Session {
            schema,
            request: req_str("request")?,
            status: req_str("status")?,
            report: req_str("report")?,
            stopped_by: opt_str("stopped_by"),
            reason: opt_str("reason"),
            ..Session::default()
        };
        if let Some(e) = v.get("energy") {
            s.energy_bits = jhex(e, "energy")?;
        }
        if let Some(g) = v.get("gap") {
            s.gap_bits = jhex(g, "gap")?;
        }
        if let Some(l) = v.get("layout") {
            s.layout = jflags(l, "layout")?;
        }
        if let Some(n) = v.get("nodes") {
            s.nodes = juint(n, "nodes")?;
        }
        if let Some(n) = v.get("log_nodes") {
            s.log.nodes = juint(n, "log_nodes")?;
        }
        s.log.stop = opt_str("log_stop");
        if let Some(o) = v.get("order") {
            s.log.order = o
                .as_array()
                .ok_or_else(|| SessionError::Format("order must be an array".to_string()))?
                .iter()
                .map(|x| juint(x, "order[]").map(|n| n as u32))
                .collect::<Result<_, _>>()?;
        }
        if let Some(arr) = v.get("incumbents") {
            for (k, i) in arr
                .as_array()
                .ok_or_else(|| SessionError::Format("incumbents must be an array".to_string()))?
                .iter()
                .enumerate()
            {
                let what = format!("incumbents[{k}]");
                s.log.incumbents.push(Incumbent {
                    node: juint(
                        i.get("node")
                            .ok_or_else(|| SessionError::Format(format!("{what}.node missing")))?,
                        &what,
                    )?,
                    objective_bits: jhex(
                        i.get("obj")
                            .ok_or_else(|| SessionError::Format(format!("{what}.obj missing")))?,
                        &what,
                    )?,
                    on_spm: jflags(
                        i.get("on_spm").ok_or_else(|| {
                            SessionError::Format(format!("{what}.on_spm missing"))
                        })?,
                        &what,
                    )?,
                });
            }
        }
        if let Some(arr) = v.get("bounds") {
            for (k, b) in arr
                .as_array()
                .ok_or_else(|| SessionError::Format("bounds must be an array".to_string()))?
                .iter()
                .enumerate()
            {
                let what = format!("bounds[{k}]");
                s.log.bounds.push(BoundUpdate {
                    node: juint(
                        b.get("node")
                            .ok_or_else(|| SessionError::Format(format!("{what}.node missing")))?,
                        &what,
                    )?,
                    value_bits: jhex(
                        b.get("bits")
                            .ok_or_else(|| SessionError::Format(format!("{what}.bits missing")))?,
                        &what,
                    )?,
                });
            }
        }
        if let Some(arr) = v.get("meta") {
            for (k, pair) in arr
                .as_array()
                .ok_or_else(|| SessionError::Format("meta must be an array".to_string()))?
                .iter()
                .enumerate()
            {
                let pair = pair
                    .as_array()
                    .filter(|p| p.len() == 2)
                    .ok_or_else(|| SessionError::Format(format!("meta[{k}] must be a pair")))?;
                let key = pair[0].as_str().ok_or_else(|| {
                    SessionError::Format(format!("meta[{k}] key must be a string"))
                })?;
                let val = pair[1].as_str().ok_or_else(|| {
                    SessionError::Format(format!("meta[{k}] value must be a string"))
                })?;
                s.meta.push((key.to_string(), val.to_string()));
            }
        }
        Ok(s)
    }

    /// Write the session to `path` as JSON.
    ///
    /// # Errors
    ///
    /// [`SessionError::Io`] on filesystem failure.
    pub fn save(&self, path: &Path) -> Result<(), SessionError> {
        std::fs::write(path, self.to_json()).map_err(SessionError::Io)
    }

    /// Read a session from `path`.
    ///
    /// # Errors
    ///
    /// [`SessionError::Io`] on filesystem failure,
    /// [`SessionError::Format`] on malformed content.
    pub fn load(path: &Path) -> Result<Session, SessionError> {
        let bytes = std::fs::read(path).map_err(SessionError::Io)?;
        let text = String::from_utf8(bytes)
            .map_err(|_| SessionError::Format("non-UTF-8 session file".to_string()))?;
        Session::from_json(&text)
    }
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

/// What a successful replay certified.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplaySummary {
    /// The replayed status tag (equal to the recording's).
    pub status: String,
    /// The replayed gap (`None` for fallback outcomes).
    pub gap: Option<f64>,
    /// Solver nodes the recorded solve cost.
    pub nodes: u64,
}

fn budget_kind(tag: &str) -> Option<BudgetKind> {
    match tag {
        "nodes" => Some(BudgetKind::Nodes),
        "deadline" => Some(BudgetKind::Deadline),
        "cancelled" => Some(BudgetKind::Cancelled),
        _ => None,
    }
}

impl Session {
    fn parsed_job(&self) -> Result<SolveJob, ReplayError> {
        match parse_request(&self.request).map_err(|e| ReplayError::Request(e.to_string()))? {
            ParsedRequest::Graph(job) => Ok(job),
            ParsedRequest::Workload(_) => Err(ReplayError::Unsupported(
                "workload-form requests cannot be replayed offline (the recorder resolves them \
                 to graph form before capture)"
                    .to_string(),
            )),
        }
    }

    /// Re-execute the solve from the recorded decision log and assert
    /// the recording is internally consistent and byte-reproducible:
    /// branch order, incumbent feasibility and monotone improvement,
    /// gap recomputed from the recorded bit patterns, final energy,
    /// and the regenerated report must all match.
    ///
    /// # Errors
    ///
    /// [`ReplayError::Mismatch`] pinpointing the first discrepancy,
    /// [`ReplayError::Request`] / [`ReplayError::Unsupported`] when
    /// the recorded request cannot be rebuilt.
    pub fn replay(&self) -> Result<ReplaySummary, ReplayError> {
        let job = self.parsed_job()?;
        let model = EnergyModel::new(&job.graph, &job.table);
        if self.status == "fallback" {
            // Fallback answers carry no solver log: verify the parts
            // that are derivable (energy, report) and echo the rest.
            let status = AllocStatus::Fallback {
                reason: self.reason.clone().unwrap_or_default(),
            };
            return self.finish(&job, &model, status);
        }
        match job.allocator {
            AllocatorKind::CasaBb => self.replay_bb(&job, &model),
            AllocatorKind::CasaIlpPaper | AllocatorKind::CasaIlpTight => {
                self.replay_ilp(&job, &model)
            }
            AllocatorKind::CasaGreedy | AllocatorKind::Steinke | AllocatorKind::None => {
                self.replay_rerun(&job, &model)
            }
        }
    }

    /// Replay the specialized B&B: re-derive the static branch order,
    /// walk the incumbent log, and recompute the gap from the root
    /// bound and the recorded final objective bits.
    fn replay_bb(
        &self,
        job: &SolveJob,
        model: &EnergyModel<'_>,
    ) -> Result<ReplaySummary, ReplayError> {
        let sm = SavingsModel::new(model, job.capacity);
        let want: Vec<u32> = sm.order().iter().map(|&i| i as u32).collect();
        if self.log.order != want {
            let at = self
                .log
                .order
                .iter()
                .zip(&want)
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| self.log.order.len().min(want.len()));
            return Err(ReplayError::Mismatch(format!(
                "branch order diverges at position {at}: recorded {:?}, derived {:?}",
                self.log.order.get(at),
                want.get(at)
            )));
        }
        let n = job.graph.len();
        let mut prev = f64::NEG_INFINITY;
        for (k, inc) in self.log.incumbents.iter().enumerate() {
            if inc.on_spm.len() != n {
                return Err(ReplayError::Mismatch(format!(
                    "incumbent {k} has {} flags for {n} objects",
                    inc.on_spm.len()
                )));
            }
            if !sm.fits(&inc.on_spm, job.capacity) {
                return Err(ReplayError::Mismatch(format!(
                    "incumbent {k} violates the capacity constraint"
                )));
            }
            let obj = f64::from_bits(inc.objective_bits);
            if k > 0 && obj <= prev {
                return Err(ReplayError::Mismatch(format!(
                    "incumbent {k} does not improve on its predecessor ({obj} vs {prev})"
                )));
            }
            // The search accumulates savings incrementally, so the
            // recorded objective may differ from a from-scratch
            // evaluation by floating-point association — but only
            // within round-off.
            let exact = sm.exact_savings(&inc.on_spm);
            if (obj - exact).abs() > 1e-6 * exact.abs().max(1.0) {
                return Err(ReplayError::Mismatch(format!(
                    "incumbent {k} objective {obj} does not evaluate to its set's savings {exact}"
                )));
            }
            prev = obj;
        }
        let last = self.log.incumbents.last().ok_or_else(|| {
            ReplayError::Mismatch("no incumbents recorded for a solved instance".to_string())
        })?;
        if last.on_spm != self.layout {
            return Err(ReplayError::Mismatch(
                "final incumbent differs from the recorded layout".to_string(),
            ));
        }
        let status = match &self.stopped_by {
            None => AllocStatus::Optimal,
            Some(_) => {
                let gap =
                    (sm.root_bound(job.capacity) - f64::from_bits(last.objective_bits)).max(0.0);
                AllocStatus::Feasible { gap }
            }
        };
        self.finish(job, model, status)
    }

    /// Replay an ILP solve: the log's incumbents must be feasible and
    /// strictly improving in the minimized objective, and the gap must
    /// recompute bit-exactly from the recorded objective/bound bits.
    fn replay_ilp(
        &self,
        job: &SolveJob,
        model: &EnergyModel<'_>,
    ) -> Result<ReplaySummary, ReplayError> {
        let n = job.graph.len();
        let mut prev = f64::INFINITY;
        for (k, inc) in self.log.incumbents.iter().enumerate() {
            if inc.on_spm.len() != n {
                return Err(ReplayError::Mismatch(format!(
                    "incumbent {k} has {} flags for {n} objects",
                    inc.on_spm.len()
                )));
            }
            let used: u64 = (0..n)
                .filter(|&i| inc.on_spm[i])
                .map(|i| u64::from(job.graph.size_of(i)))
                .sum();
            if used > u64::from(job.capacity) {
                return Err(ReplayError::Mismatch(format!(
                    "incumbent {k} violates the capacity constraint ({used} > {})",
                    job.capacity
                )));
            }
            let obj = f64::from_bits(inc.objective_bits);
            if k > 0 && obj >= prev {
                return Err(ReplayError::Mismatch(format!(
                    "incumbent {k} does not improve on its predecessor ({obj} vs {prev})"
                )));
            }
            prev = obj;
        }
        let last = self.log.incumbents.last().ok_or_else(|| {
            ReplayError::Mismatch("no incumbents recorded for a solved instance".to_string())
        })?;
        if last.on_spm != self.layout {
            return Err(ReplayError::Mismatch(
                "final incumbent differs from the recorded layout".to_string(),
            ));
        }
        let status = match &self.stopped_by {
            None => AllocStatus::Optimal,
            Some(_) => {
                let obj = f64::from_bits(last.objective_bits);
                let gap = match self.log.bounds.last() {
                    Some(b) => (obj - f64::from_bits(b.value_bits)).max(0.0),
                    None => f64::INFINITY,
                };
                AllocStatus::Feasible { gap }
            }
        };
        self.finish(job, model, status)
    }

    /// Replay a heuristic/baseline solve by full re-execution — these
    /// allocators are deterministic and effectively instantaneous, so
    /// re-running them IS the log.
    fn replay_rerun(
        &self,
        job: &SolveJob,
        model: &EnergyModel<'_>,
    ) -> Result<ReplaySummary, ReplayError> {
        let ctx = SolveCtx::default().with_budget(job.budget());
        let out = allocate(model, job.capacity, job.allocator, &ctx);
        if out.allocation.on_spm != self.layout {
            return Err(ReplayError::Mismatch(
                "re-executed layout differs from the recording".to_string(),
            ));
        }
        let replayed = out.stopped_by.map(|k| k.as_str().to_string());
        if replayed != self.stopped_by {
            return Err(ReplayError::Mismatch(format!(
                "stop disposition differs: recorded {:?}, re-executed {replayed:?}",
                self.stopped_by
            )));
        }
        self.finish(job, model, out.status)
    }

    /// Common tail: energy bits, status tag, gap bits, and the
    /// regenerated report must all match the recording.
    fn finish(
        &self,
        job: &SolveJob,
        model: &EnergyModel<'_>,
        status: AllocStatus,
    ) -> Result<ReplaySummary, ReplayError> {
        if self.layout.len() != job.graph.len() {
            return Err(ReplayError::Mismatch(format!(
                "layout has {} flags for {} objects",
                self.layout.len(),
                job.graph.len()
            )));
        }
        let energy = model.total_energy(&self.layout);
        if energy.to_bits() != self.energy_bits {
            return Err(ReplayError::Mismatch(format!(
                "energy differs: recorded bits {:016x}, recomputed {:016x} ({energy})",
                self.energy_bits,
                energy.to_bits()
            )));
        }
        if status.as_str() != self.status {
            return Err(ReplayError::Mismatch(format!(
                "status differs: recorded {:?}, replayed {:?}",
                self.status,
                status.as_str()
            )));
        }
        match status.gap() {
            Some(g) => {
                if g.to_bits() != self.gap_bits {
                    return Err(ReplayError::Mismatch(format!(
                        "gap differs: recorded bits {:016x} ({}), replayed {:016x} ({g})",
                        self.gap_bits,
                        f64::from_bits(self.gap_bits),
                        g.to_bits()
                    )));
                }
            }
            None => {
                if self.gap_bits != f64::NAN.to_bits() {
                    return Err(ReplayError::Mismatch(
                        "recording claims a gap for a fallback outcome".to_string(),
                    ));
                }
            }
        }
        let stopped_by = match &self.stopped_by {
            None => None,
            Some(tag) => Some(budget_kind(tag).ok_or_else(|| {
                ReplayError::Request(format!("unknown stop disposition {tag:?}"))
            })?),
        };
        let out = AllocOutcome {
            allocation: Allocation {
                on_spm: self.layout.clone(),
                predicted_energy: Some(energy),
                solver_nodes: self.nodes,
            },
            status: status.clone(),
            stopped_by,
        };
        let regen = response_json(job, &out, model);
        if regen != self.report {
            let at = regen
                .bytes()
                .zip(self.report.bytes())
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| regen.len().min(self.report.len()));
            return Err(ReplayError::Mismatch(format!(
                "regenerated report differs from the recording at byte {at}"
            )));
        }
        Ok(ReplaySummary {
            status: self.status.clone(),
            gap: status.gap(),
            nodes: self.nodes,
        })
    }

    /// Re-solve the recorded request from scratch (cold: no warm
    /// start) with a fresh recorder and report the first decision
    /// where the fresh search departs from the recorded log — `None`
    /// when the logs are identical.
    ///
    /// Divergence is not necessarily a bug: a session captured from a
    /// warm-started server solve legitimately diverges at incumbent 0
    /// (the warm hint is not part of the request), and wall-clock
    /// budgets stop nondeterministically. The point of this mode is to
    /// say *where*.
    ///
    /// # Errors
    ///
    /// [`ReplayError::Request`] / [`ReplayError::Unsupported`] when
    /// the recorded request cannot be rebuilt.
    pub fn divergence(&self) -> Result<Option<String>, ReplayError> {
        let job = self.parsed_job()?;
        let model = EnergyModel::new(&job.graph, &job.table);
        let sink = SearchSink::default().with_log();
        let ctx = SolveCtx::default()
            .with_budget(job.budget())
            .with_sink(&sink);
        let _ = allocate(&model, job.capacity, job.allocator, &ctx);
        let fresh = sink.take_log().unwrap_or_default();
        Ok(diff_logs(&self.log, &fresh))
    }
}

/// First difference between two decision logs, human-readable.
fn diff_logs(recorded: &DecisionLog, fresh: &DecisionLog) -> Option<String> {
    let order_len = recorded.order.len().max(fresh.order.len());
    for i in 0..order_len {
        let (a, b) = (recorded.order.get(i), fresh.order.get(i));
        if a != b {
            return Some(format!(
                "branch order diverges at decision {i}: recorded {a:?}, fresh {b:?}"
            ));
        }
    }
    let inc_len = recorded.incumbents.len().max(fresh.incumbents.len());
    for i in 0..inc_len {
        match (recorded.incumbents.get(i), fresh.incumbents.get(i)) {
            (Some(a), Some(b)) => {
                if a.node != b.node {
                    return Some(format!(
                        "incumbent {i} adopted at different nodes: recorded {}, fresh {}",
                        a.node, b.node
                    ));
                }
                if a.objective_bits != b.objective_bits {
                    return Some(format!(
                        "incumbent {i} objective differs: recorded {} , fresh {}",
                        f64::from_bits(a.objective_bits),
                        f64::from_bits(b.objective_bits)
                    ));
                }
                if a.on_spm != b.on_spm {
                    return Some(format!("incumbent {i} chose a different set"));
                }
            }
            (a, b) => {
                return Some(format!(
                    "incumbent {i} present in {} log only",
                    if a.is_some() && b.is_none() {
                        "the recorded"
                    } else {
                        "the fresh"
                    }
                ));
            }
        }
    }
    let bound_len = recorded.bounds.len().max(fresh.bounds.len());
    for i in 0..bound_len {
        let (a, b) = (recorded.bounds.get(i), fresh.bounds.get(i));
        if a != b {
            return Some(format!(
                "bound update {i} differs: recorded {a:?}, fresh {b:?}"
            ));
        }
    }
    if recorded.stop != fresh.stop {
        return Some(format!(
            "stop disposition differs: recorded {:?}, fresh {:?}",
            recorded.stop, fresh.stop
        ));
    }
    if recorded.nodes != fresh.nodes {
        return Some(format!(
            "node count differs: recorded {}, fresh {}",
            recorded.nodes, fresh.nodes
        ));
    }
    None
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a session file could not be written or read.
#[derive(Debug)]
pub enum SessionError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// Malformed or unsupported content.
    Format(String),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Io(e) => write!(f, "session i/o: {e}"),
            SessionError::Format(msg) => write!(f, "session format: {msg}"),
        }
    }
}

impl std::error::Error for SessionError {}

/// Why a replay could not certify a recording.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayError {
    /// The recorded request failed to parse back into a job.
    Request(String),
    /// The recording is valid but not replayable offline.
    Unsupported(String),
    /// The first discrepancy between the recording and the replay.
    Mismatch(String),
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Request(msg) => write!(f, "replay request: {msg}"),
            ReplayError::Unsupported(msg) => write!(f, "replay unsupported: {msg}"),
            ReplayError::Mismatch(msg) => write!(f, "replay mismatch: {msg}"),
        }
    }
}

impl std::error::Error for ReplayError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conflict::ConflictGraph;
    use casa_energy::{EnergyTable, TechParams};
    use std::collections::HashMap;

    fn job(allocator: AllocatorKind, budget_nodes: Option<u64>) -> SolveJob {
        let mut edges = HashMap::new();
        edges.insert((0, 1), 500);
        edges.insert((1, 2), 120);
        edges.insert((2, 3), 5);
        let graph = ConflictGraph::from_parts(vec![900, 800, 300, 10], vec![16, 16, 16, 16], edges);
        let table = EnergyTable::build(64, 16, 1, 32, None, &TechParams::default());
        SolveJob {
            graph,
            table,
            capacity: 32,
            allocator,
            budget_nodes,
            budget_ms: None,
            explain: false,
        }
    }

    fn record(job: &SolveJob) -> Session {
        let model = EnergyModel::new(&job.graph, &job.table);
        let sink = SearchSink::default().with_log();
        let ctx = SolveCtx::default()
            .with_budget(job.budget())
            .with_sink(&sink);
        let out = allocate(&model, job.capacity, job.allocator, &ctx);
        Session::capture(
            job,
            &out,
            &model,
            sink.take_log().expect("log kept"),
            vec![("kind".to_string(), "test".to_string())],
        )
    }

    #[test]
    fn request_json_is_a_parse_fixpoint() {
        let j = job(AllocatorKind::CasaBb, Some(1000));
        let text = request_json(&j);
        let ParsedRequest::Graph(back) = parse_request(&text).expect("canonical request parses")
        else {
            panic!("graph request parsed as workload");
        };
        assert_eq!(request_json(&back), text);
    }

    #[test]
    fn every_allocator_records_a_replayable_session() {
        for kind in [
            AllocatorKind::CasaBb,
            AllocatorKind::CasaIlpPaper,
            AllocatorKind::CasaIlpTight,
            AllocatorKind::CasaGreedy,
            AllocatorKind::Steinke,
            AllocatorKind::None,
        ] {
            let j = job(kind, None);
            let s = record(&j);
            let summary = s.replay().unwrap_or_else(|e| panic!("{kind:?}: {e}"));
            assert_eq!(summary.status, s.status, "{kind:?}");
            assert_eq!(summary.nodes, s.nodes, "{kind:?}");
        }
    }

    #[test]
    fn budget_truncated_bb_session_replays_with_its_gap() {
        let j = job(AllocatorKind::CasaBb, Some(1));
        let s = record(&j);
        assert_eq!(s.status, "feasible");
        assert_eq!(s.stopped_by.as_deref(), Some("nodes"));
        let summary = s.replay().expect("replay");
        let gap = summary.gap.expect("feasible claims a gap");
        assert!(gap.is_finite() && gap >= 0.0);
        assert_eq!(gap.to_bits(), s.gap_bits);
    }

    #[test]
    fn greedy_adopted_bb_session_replays() {
        // The density fill takes both ends of the heavy edge; a
        // one-node search stops on it and adopts CasaGreedy's better
        // answer, which must land in the log as its last incumbent.
        let mut edges = HashMap::new();
        edges.insert((0, 1), 50);
        let graph = ConflictGraph::from_parts(vec![100, 100, 3000], vec![64, 64, 64], edges);
        let table = EnergyTable::build(1024, 16, 1, 128, None, &TechParams::default());
        let j = SolveJob {
            graph,
            table,
            capacity: 128,
            allocator: AllocatorKind::CasaBb,
            budget_nodes: Some(1),
            budget_ms: None,
            explain: false,
        };
        let s = record(&j);
        let model = EnergyModel::new(&j.graph, &j.table);
        let greedy = crate::greedy::allocate_greedy(&model, 128);
        assert_eq!(s.stopped_by.as_deref(), Some("nodes"));
        assert_eq!(s.layout, greedy.on_spm);
        assert!(s.log.incumbents.len() >= 2, "greedy answer not logged");
        let summary = s.replay().expect("replay");
        assert_eq!(summary.gap.map(f64::to_bits), Some(s.gap_bits));
        assert_eq!(s.divergence().expect("replayable"), None);
    }

    #[test]
    fn tampered_layout_energy_or_report_is_caught() {
        let j = job(AllocatorKind::CasaBb, None);
        let good = record(&j);
        good.replay().expect("pristine session replays");

        let mut bad = good.clone();
        bad.layout[0] = !bad.layout[0];
        assert!(matches!(bad.replay(), Err(ReplayError::Mismatch(_))));

        let mut bad = good.clone();
        bad.energy_bits ^= 1;
        assert!(matches!(bad.replay(), Err(ReplayError::Mismatch(_))));

        let mut bad = good.clone();
        bad.report = bad.report.replace("optimal", "feasible");
        assert!(matches!(bad.replay(), Err(ReplayError::Mismatch(_))));

        let mut bad = good;
        if let Some(last) = bad.log.incumbents.last_mut() {
            last.objective_bits = (f64::from_bits(last.objective_bits) * 2.0).to_bits();
        }
        assert!(matches!(bad.replay(), Err(ReplayError::Mismatch(_))));
    }

    #[test]
    fn cold_recorded_session_has_no_divergence() {
        let j = job(AllocatorKind::CasaBb, None);
        let s = record(&j);
        assert_eq!(s.divergence().expect("replayable"), None);
        // A perturbed log diverges, and the report says where.
        let mut bad = s;
        bad.log.nodes += 1;
        let d = bad.divergence().expect("replayable").expect("diverges");
        assert!(d.contains("node count"), "{d}");
    }

    #[test]
    fn json_round_trip_is_identity_and_newer_schema_is_rejected() {
        let mut s = record(&job(AllocatorKind::CasaBb, Some(3)));
        assert_eq!(Session::from_json(&s.to_json()).expect("json"), s);
        s.schema = SESSION_SCHEMA + 1;
        assert!(matches!(
            Session::from_json(&s.to_json()),
            Err(SessionError::Format(_))
        ));
    }

    #[test]
    fn json_reader_ignores_unknown_keys() {
        let s = record(&job(AllocatorKind::Steinke, None));
        let text = s.to_json();
        let extended = format!("{{\"added_in_v9\":[1,2,3],{}", &text[1..]);
        assert_eq!(Session::from_json(&extended).expect("tolerant"), s);
    }

    #[test]
    fn save_writes_json_whatever_the_extension() {
        let dir = std::env::temp_dir().join("casa-session-ext-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let s = record(&job(AllocatorKind::CasaBb, None));
        let path = dir.join("one.casa-session");
        s.save(&path).expect("save");
        assert_eq!(Session::load(&path).expect("load"), s);
        let text = std::fs::read_to_string(&path).expect("read");
        assert_eq!(text, s.to_json());
        std::fs::remove_dir_all(&dir).ok();
    }
}
