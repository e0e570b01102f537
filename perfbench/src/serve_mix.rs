//! `serve_mix`: a `casa-server` child process under two closed-loop
//! clients issuing `POST /solve` — the service layer on the critical
//! path (shard queues, solution cache, warm starts, HTTP).
//!
//! Request families, all fresh per pass, per client:
//! * one graph-form family: a library conflict graph (fig. 3 profiling
//!   of one mpeg walk at trace cap T; on client 0 every fourth pass an
//!   adpcm walk instead) sent verbatim at capacity T — a cold miss — and
//!   T−32 — a warm start — then ten exact repeats (cache hits);
//! * four workload-form families: g721 with a fresh walker seed (the
//!   server walks, profiles and builds the graph, 30–50 ms), then one
//!   exact repeat.
//!
//! That is 20 requests per client and pass, 14 of them hits (70%). The
//! p50 falls in the middle of the mpeg graph hits and the p90 in the
//! middle of the g721 workload-form misses, each a one-benchmark class,
//! so neither sits on the edge between two request classes.
//!
//! Each family belongs to one client, and the run checks that no base
//! graph is requested by both, so the hit/warm/miss tallies do not
//! depend on how the clients interleave. adpcm graphs are sent verbatim
//! at every trace cap; the service refuses graphs with self-conflict
//! edges (HTTP 400), which count as failed requests.

use crate::host::{set_op_metrics, HostSpeed, ScaledOps};
use crate::inputs::{library_graph, paper_cache};
use crate::report::Outcome;
use crate::spans::Spans;
use crate::stats::{
    derive_seed, host_ticks, median, par_map2, peak_rss_mb, proc_cpu_s, process_cpu, splitmix,
    steal_share, Latencies, WARMUP_PASS_BASE,
};
use crate::Args;
use casa_core::engine::{allocate_budgeted, Budget};
use casa_core::flow::AllocatorKind;
use casa_core::server::DEFAULT_MAX_NODES;
use casa_core::{ConflictGraph, EnergyModel};
use casa_energy::{EnergyTable, TechParams};
use casa_mem::CacheConfig;
use casa_obs::{header_value, http_request, jnum, Fnv1a, Obs};
use serde::json::Value;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Barrier;
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;
/// Timed pass length on the reference box (2 cores).
const NOMINAL_PASS_S: f64 = 0.25;
const SETUP_ROUNDS: u64 = 5;
/// Requests, per client, between two host-speed probes.
const PROBE_EVERY: usize = 10;
const HTTP_TIMEOUT: Duration = Duration::from_secs(60);
/// Exact repeats after the two capacities of a graph family.
const GRAPH_REPEATS: usize = 10;
/// Exact repeats after a workload-form request.
const WORKLOAD_REPEATS: usize = 1;
/// Workload-form families per client and pass.
const WORKLOAD_FAMILIES: u64 = 4;
/// Solution-cache entries per server shard: far above the distinct
/// keys of a run, so no entry is evicted and the tallies are exact.
const CACHE_CAP: u64 = 1 << 16;
/// Server-side request journal length (for per-class HTTP overhead).
const JOURNAL_CAP: u64 = 1 << 15;
/// The server's own safety timeout, in case this process dies.
const SERVER_MAX_SECONDS: u64 = 150;

/// Where a family's graph comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum FamilyKind {
    /// Inline graph built here from a profiling run at trace cap `cap`.
    Graph { cap: u32 },
    /// Named workload at `capacity`; the server builds the graph.
    Workload { capacity: u32 },
}

/// One request family: every request of a family shares its base graph.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilySpec {
    pub client: usize,
    pub benchmark: &'static str,
    pub walker_seed: u64,
    pub kind: FamilyKind,
}

impl Req {
    /// The exact-answer key: requests with equal keys get the same
    /// reply bytes.
    fn key(&self) -> (usize, u32) {
        (self.family, self.capacity)
    }
}

impl FamilySpec {
    /// Capacities requested once each, in first-request order.
    fn capacities(&self) -> Vec<u32> {
        match self.kind {
            FamilyKind::Graph { cap } => vec![cap, cap.saturating_sub(32).max(16)],
            FamilyKind::Workload { capacity } => vec![capacity],
        }
    }

    fn repeats(&self) -> usize {
        match self.kind {
            FamilyKind::Graph { .. } => GRAPH_REPEATS,
            FamilyKind::Workload { .. } => WORKLOAD_REPEATS,
        }
    }
}

/// The families of pass `pass` — a pure function of the seed.
pub fn families(seed: u64, pass: u64) -> Vec<FamilySpec> {
    let pick = |list: &[u32], salt: u64| {
        list[(splitmix(splitmix(seed ^ salt) ^ pass) % list.len() as u64) as usize]
    };
    let ws = |idx: u64| derive_seed(seed, "serve_mix", pass, idx);
    // adpcm's trace cap cycles through all four paper sizes, 256 B and
    // up included.
    let graph0 = if pass % 4 == 3 {
        ("adpcm", [64, 128, 256, 512][(pass / 4 % 4) as usize])
    } else {
        ("mpeg", pick(&[256, 512], 1))
    };
    let mut v = vec![
        FamilySpec {
            client: 0,
            benchmark: graph0.0,
            walker_seed: ws(0),
            kind: FamilyKind::Graph { cap: graph0.1 },
        },
        FamilySpec {
            client: 1,
            benchmark: "mpeg",
            walker_seed: ws(1),
            kind: FamilyKind::Graph {
                cap: pick(&[256, 512], 2),
            },
        },
    ];
    for client in 0..CLIENTS {
        for k in 0..WORKLOAD_FAMILIES {
            let idx = 2 + client as u64 * WORKLOAD_FAMILIES + k;
            v.push(FamilySpec {
                client,
                benchmark: "g721",
                walker_seed: ws(idx),
                kind: FamilyKind::Workload {
                    capacity: pick(&[256, 512], 16 + idx),
                },
            });
        }
    }
    v
}

/// One request of the stream.
#[derive(Debug, Clone)]
pub struct Req {
    /// Index of the family within the run's family list.
    pub family: usize,
    pub capacity: u32,
    /// Whether an earlier request had the same key (expected hit).
    pub repeat: bool,
}

/// A client's requests for one pass: every capacity once plus the
/// repeats, shuffled by the seed; the first request of each key is the
/// one that solves.
pub fn client_stream(
    seed: u64,
    pass: u64,
    client: usize,
    fams: &[(usize, &FamilySpec)],
) -> Vec<Req> {
    let mut reqs: Vec<(usize, u32)> = Vec::new();
    for (fi, f) in fams {
        let caps = f.capacities();
        for &c in &caps {
            reqs.push((*fi, c));
        }
        for r in 0..f.repeats() {
            reqs.push((*fi, caps[r % caps.len()]));
        }
    }
    let mut state = splitmix(seed ^ splitmix(pass) ^ ((client as u64 + 1) * 0x51ED));
    for i in (1..reqs.len()).rev() {
        state = splitmix(state);
        reqs.swap(i, (state % (i as u64 + 1)) as usize);
    }
    let mut seen = std::collections::HashSet::new();
    reqs.into_iter()
        .map(|(family, capacity)| Req {
            family,
            capacity,
            repeat: !seen.insert((family, capacity)),
        })
        .collect()
}

/// A built family: for the graph form, its graph and wire JSON.
struct Family {
    spec: FamilySpec,
    cache: CacheConfig,
    /// Graph as the server parses it (graph form only).
    graph: Option<ConflictGraph>,
    graph_json: String,
}

/// Graph JSON as sent on the wire, and the graph the server will parse
/// from it.
fn wire_graph(g: &ConflictGraph) -> (String, ConflictGraph) {
    let n = g.len();
    let fetches: Vec<u64> = (0..n).map(|i| g.fetches_of(i)).collect();
    let sizes: Vec<u32> = (0..n).map(|i| g.size_of(i)).collect();
    let edges: Vec<((usize, usize), u64)> = g.edges().collect();
    let list = |v: Vec<String>| v.join(",");
    let json = format!(
        "{{\"edges\":[{}],\"fetches\":[{}],\"sizes\":[{}]}}",
        list(
            edges
                .iter()
                .map(|((i, j), m)| format!("[{i},{j},{m}]"))
                .collect()
        ),
        list(fetches.iter().map(u64::to_string).collect()),
        list(sizes.iter().map(u32::to_string).collect()),
    );
    let parsed = ConflictGraph::from_parts(fetches, sizes, edges.into_iter().collect());
    (json, parsed)
}

struct Prepared {
    families: Vec<Family>,
    walk_ms: Vec<f64>,
    blocks: u64,
}

/// Build the graph-form families of `passes` (two threads).
fn prepare(seed: u64, passes: &[u64]) -> Prepared {
    let specs: Vec<FamilySpec> = passes.iter().flat_map(|&p| families(seed, p)).collect();
    let built = par_map2(&specs, |spec| match spec.kind {
        FamilyKind::Graph { cap } => {
            let (g, blocks, ms) = library_graph(spec.benchmark, spec.walker_seed, cap);
            let (json, parsed) = wire_graph(&g);
            (Some(parsed), json, blocks, Some(ms))
        }
        FamilyKind::Workload { .. } => (None, String::new(), 0, None),
    });
    let mut p = Prepared {
        families: Vec::new(),
        walk_ms: Vec::new(),
        blocks: 0,
    };
    for (spec, (graph, graph_json, blocks, ms)) in specs.into_iter().zip(built) {
        p.blocks += blocks;
        p.walk_ms.extend(ms);
        p.families.push(Family {
            cache: paper_cache(spec.benchmark),
            spec,
            graph,
            graph_json,
        });
    }
    p
}

fn body(f: &Family, capacity: u32) -> String {
    match f.spec.kind {
        FamilyKind::Graph { .. } => format!(
            "{{\"allocator\":\"casa-bb\",\"cache\":{{\"size\":{}}},\"capacity\":{capacity},\"graph\":{},\"v\":1}}",
            f.cache.size, f.graph_json
        ),
        FamilyKind::Workload { .. } => format!(
            "{{\"capacity\":{capacity},\"v\":1,\"workload\":{{\"benchmark\":\"{}\",\"seed\":{}}}}}",
            f.spec.benchmark, f.spec.walker_seed
        ),
    }
}

/// Every client's requests for the given passes, in sending order. Family
/// indices count through `passes`' families in order, as [`prepare`]
/// builds them.
pub fn request_stream(seed: u64, passes: &[u64]) -> Vec<Vec<Req>> {
    let mut streams = vec![Vec::new(); CLIENTS];
    let mut first = 0;
    for &p in passes {
        let specs = families(seed, p);
        for (c, stream) in streams.iter_mut().enumerate() {
            let fams: Vec<(usize, &FamilySpec)> = specs
                .iter()
                .enumerate()
                .map(|(i, f)| (first + i, f))
                .filter(|(_, f)| f.client == c)
                .collect();
            stream.extend(client_stream(seed, p, c, &fams));
        }
        first += specs.len();
    }
    streams
}

/// The running `casa-server` child. Dropping the guard — also during a
/// panic — asks it to quit, waits for it, and kills it if it lingers.
struct Server {
    child: Child,
    addr: SocketAddr,
}

impl Server {
    fn start(bin: &Path, state_dir: &Path, round: u64) -> Result<Server, String> {
        std::fs::create_dir_all(state_dir).map_err(|e| format!("state dir: {e}"))?;
        let addr_file = state_dir.join(format!("server-{}-{round}.addr", std::process::id()));
        let _ = std::fs::remove_file(&addr_file);
        let mut child = Command::new(bin)
            .args(["--listen", "127.0.0.1:0", "--workers", "2"])
            .arg("--addr-file")
            .arg(&addr_file)
            .args(["--cache-cap", &CACHE_CAP.to_string()])
            .args(["--max-seconds", &SERVER_MAX_SECONDS.to_string()])
            .env("CASA_REQ_JOURNAL_CAP", JOURNAL_CAP.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(text) = std::fs::read_to_string(&addr_file) {
                if let Ok(addr) = text.trim().parse::<SocketAddr>() {
                    let _ = std::fs::remove_file(&addr_file);
                    return Ok(Server { child, addr });
                }
            }
            if let Ok(Some(status)) = child.try_wait() {
                return Err(format!("casa-server exited before binding: {status}"));
            }
            if Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                return Err("casa-server did not write its address within 30 s".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn get(&self, path: &str) -> Result<String, String> {
        match http_request(&self.addr, "GET", path, &[], None, HTTP_TIMEOUT) {
            Ok((200, _, body)) => Ok(body),
            Ok((s, _, _)) => Err(format!("GET {path}: HTTP {s}")),
            Err(e) => Err(format!("GET {path}: {e}")),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = http_request(
            &self.addr,
            "POST",
            "/quitquitquit",
            &[],
            None,
            Duration::from_secs(5),
        );
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Client-side record of one request.
#[derive(Debug, Clone)]
struct Reply {
    req: Req,
    status: u16,
    cache: String,
    latency: Duration,
    body: String,
    id: String,
}

/// What one client thread did.
struct ClientRun {
    /// Replies in sending order.
    replies: Vec<Reply>,
    spans: Spans,
    /// Time spent opening and closing this client's spans, inside the
    /// measured request latencies: the tracing's own cost.
    span_cost: Duration,
    /// From the clients' release to this client's last reply.
    elapsed: Duration,
    /// Latencies of the 200 replies, with host-speed probes run
    /// between requests, outside their timings.
    ops: ScaledOps,
}

/// Drive `streams` through the server, one closed-loop thread per
/// client released together.
fn drive(
    server: &Server,
    families: &[Family],
    streams: &[Vec<Req>],
    traced: bool,
    origin: Instant,
) -> Vec<ClientRun> {
    let barrier = Barrier::new(CLIENTS);
    std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(c, stream)| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut sp = Spans::new_wall(origin, c as u32 + 1);
                    let bodies: Vec<String> = stream
                        .iter()
                        .map(|r| body(&families[r.family], r.capacity))
                        .collect();
                    let mut out = Vec::with_capacity(stream.len());
                    let mut span_cost = Duration::ZERO;
                    let mut ops = ScaledOps::default();
                    barrier.wait();
                    let released = Instant::now();
                    for (i, (r, b)) in stream.iter().zip(&bodies).enumerate() {
                        let id = format!("c{c}-{i}");
                        let t = Instant::now();
                        let span = traced.then(|| sp.enter("http.solve"));
                        let sent = Instant::now();
                        let res = http_request(
                            &server.addr,
                            "POST",
                            "/solve",
                            &[("X-Casa-Request-Id", &id)],
                            Some(("application/json", b)),
                            HTTP_TIMEOUT,
                        );
                        let answered = Instant::now();
                        if let Some(span) = span {
                            sp.exit(span);
                        }
                        let latency = t.elapsed();
                        if traced {
                            span_cost += (sent - t) + (latency - (answered - t));
                        }
                        let (status, cache, body) = match res {
                            Ok((status, headers, body)) => (
                                status,
                                header_value(&headers, "X-Casa-Cache")
                                    .unwrap_or("")
                                    .to_string(),
                                body,
                            ),
                            Err(e) => (0, String::new(), e.to_string()),
                        };
                        out.push(Reply {
                            req: r.clone(),
                            status,
                            cache,
                            latency,
                            body,
                            id,
                        });
                        if status == 200 {
                            ops.push(latency);
                        }
                        if i % PROBE_EVERY == PROBE_EVERY - 1 {
                            ops.probe();
                        }
                    }
                    ClientRun {
                        replies: out,
                        spans: sp,
                        span_cost,
                        elapsed: released.elapsed(),
                        ops,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Counters and histogram sums from `/snapshot.json`.
#[derive(Debug, Default, Clone)]
struct ServerStats {
    counters: BTreeMap<String, f64>,
}

impl ServerStats {
    fn fetch(server: &Server) -> Result<ServerStats, String> {
        let text = server.get("/snapshot.json")?;
        let v = serde::json::parse(&text).map_err(|e| format!("snapshot: {e}"))?;
        let mut counters = BTreeMap::new();
        for (k, val) in v.as_object().ok_or("snapshot is not an object")? {
            match val {
                Value::Obj(h) => {
                    let f = |x: &str| h.get(x).and_then(Value::as_f64).unwrap_or(0.0);
                    counters.insert(format!("{k}.sum"), f("sum"));
                    counters.insert(format!("{k}.count"), f("count"));
                }
                other => {
                    if let Some(n) = other.as_f64() {
                        counters.insert(k.clone(), n);
                    }
                }
            }
        }
        Ok(ServerStats { counters })
    }

    fn delta(&self, before: &ServerStats, key: &str) -> f64 {
        let g = |s: &ServerStats| s.counters.get(key).copied().unwrap_or(0.0);
        g(self) - g(before)
    }
}

/// Handler time per request from the server's request journal, by id.
fn journal_handler_us(server: &Server) -> Result<HashMap<String, f64>, String> {
    let text = server.get("/requests.json")?;
    let v = serde::json::parse(&text).map_err(|e| format!("journal: {e}"))?;
    let entries = v
        .get("entries")
        .and_then(Value::as_array)
        .ok_or("journal has no entries")?;
    Ok(entries
        .iter()
        .filter_map(|e| {
            let id = e.get("id")?.as_str()?.to_string();
            Some((id, e.get("handler_us")?.as_f64()?))
        })
        .collect())
}

/// One set-up round: start a server and run one warm-up pass through
/// it on keys disjoint from the timed stream. Returns the server, the
/// CPU seconds the round took (this process, probes left out, plus the
/// server) and the clients' host-speed probes.
fn setup_round(args: &Args, bin: &Path, round: u64) -> Result<(Server, f64, HostSpeed), String> {
    let cpu0 = process_cpu();
    let pass = WARMUP_PASS_BASE + round;
    let prep = prepare(args.seed, &[pass]);
    let streams = request_stream(args.seed, &[pass]);
    let server = Server::start(bin, &args.state_dir, round)?;
    let runs = drive(&server, &prep.families, &streams, false, Instant::now());
    if runs.iter().flat_map(|c| &c.replies).any(|r| r.status == 0) {
        return Err("warm-up requests could not reach the server".into());
    }
    let server_cpu = proc_cpu_s(server.child.id()).ok_or("cannot read the server's CPU time")?;
    let mut host = HostSpeed::default();
    for c in runs {
        host.merge(c.ops.host);
    }
    let cpu_s = (process_cpu() - cpu0).as_secs_f64() - host.probe_s() + server_cpu;
    Ok((server, cpu_s, host))
}

/// The in-process library answer's energy for a family at `capacity`,
/// and a fingerprint of the base graph the service keyed it under.
fn reference(f: &Family, capacity: u32) -> (String, u64) {
    let graph = match &f.graph {
        Some(g) => g.clone(),
        None => library_graph(f.spec.benchmark, f.spec.walker_seed, capacity).0,
    };
    let table = EnergyTable::build(
        f.cache.size,
        f.cache.line_size,
        f.cache.associativity,
        capacity,
        None,
        &TechParams::default(),
    );
    let model = EnergyModel::new(&graph, &table);
    let out = allocate_budgeted(
        &model,
        capacity,
        AllocatorKind::CasaBb,
        &Budget::nodes(DEFAULT_MAX_NODES),
        &Obs::disabled(),
    );
    let fingerprint = casa_obs::fnv1a_64(wire_graph(&graph).0.as_bytes());
    (
        jnum(model.total_energy(&out.allocation.on_spm)),
        fingerprint,
    )
}

pub fn passes_for(seconds: u64) -> u64 {
    let per_pass: usize = families(0, 0)
        .iter()
        .map(|f| f.capacities().len() + f.repeats())
        .sum();
    let by_time = (seconds as f64 / NOMINAL_PASS_S).ceil() as u64;
    by_time.max(110u64.div_ceil(per_pass as u64)).max(1)
}

/// Per-run tallies by client and cache outcome.
fn tallies(replies: &[Vec<Reply>]) -> String {
    let mut s = String::new();
    for (c, rs) in replies.iter().enumerate() {
        let mut t: BTreeMap<String, u64> = BTreeMap::new();
        for r in rs {
            let k = if r.status == 200 {
                r.cache.clone()
            } else {
                format!("http{}", r.status)
            };
            *t.entry(k).or_insert(0) += 1;
        }
        let _ = write!(s, " client{c}:");
        for (k, n) in t {
            let _ = write!(s, " {k}={n}");
        }
    }
    s
}

/// One timed run of the stream on a fresh, warmed-up server.
struct Phase {
    replies: Vec<Vec<Reply>>,
    spans: Vec<Spans>,
    /// Summed over the clients, see [`ClientRun::span_cost`].
    span_cost: Duration,
    before: ServerStats,
    after: ServerStats,
    /// Wall seconds from releasing the clients to the last reply, less
    /// the time a client spent on host-speed probes.
    wall_s: f64,
    /// The clients' 200-reply latencies and host-speed probes.
    ops: ScaledOps,
    /// CPU seconds the server spent on the stream.
    server_cpu_s: f64,
    /// Share of the host's CPU time other tenants took meanwhile.
    steal: f64,
    rss_mb: Option<f64>,
    handler_us: HashMap<String, f64>,
}

/// Set up a server ([`SETUP_ROUNDS`] rounds, the last server kept) and
/// drive the timed stream through it. Returns the phase, each set-up
/// round's CPU seconds and the set-up's host-speed probes.
fn timed_phase(
    args: &Args,
    bin: &Path,
    families: &[Family],
    streams: &[Vec<Req>],
    traced: bool,
    first_round: u64,
) -> Result<(Phase, Vec<f64>, HostSpeed), String> {
    let mut setups = Vec::new();
    let mut setup_host = HostSpeed::default();
    let mut server = None;
    for r in 0..SETUP_ROUNDS {
        // Assigning drops (stops) the previous round's server; the last
        // one serves the timed stream.
        let (s, cpu_s, host) = setup_round(args, bin, first_round + r)?;
        setups.push(cpu_s);
        setup_host.merge(host);
        server = Some(s);
    }
    let server = server.expect("at least one set-up round");
    let pid = server.child.id();
    let before = ServerStats::fetch(&server)?;
    let ticks0 = host_ticks();
    let server0 = proc_cpu_s(pid);
    let runs = drive(&server, families, streams, traced, Instant::now());
    let wall_s = runs.iter().map(|c| c.elapsed).max().unwrap_or_default();
    let server_s = proc_cpu_s(pid).zip(server0).map(|(a, b)| a - b);
    let steal = steal_share(ticks0, host_ticks());
    let after = ServerStats::fetch(&server)?;
    let rss_mb = peak_rss_mb(&pid.to_string());
    let handler_us = if traced {
        journal_handler_us(&server)?
    } else {
        HashMap::new()
    };
    drop(server);
    let mut phase = Phase {
        replies: Vec::new(),
        spans: Vec::new(),
        span_cost: Duration::ZERO,
        before,
        after,
        wall_s: wall_s.as_secs_f64(),
        ops: ScaledOps::default(),
        server_cpu_s: server_s.ok_or("cannot read the server's CPU time")?,
        steal,
        rss_mb,
        handler_us,
    };
    for c in runs {
        phase.replies.push(c.replies);
        phase.spans.push(c.spans);
        phase.span_cost += c.span_cost;
        phase.ops.merge(c.ops);
    }
    // Each client paused for its probes; take their mean pause out.
    phase.wall_s -= phase.ops.host.probe_s() / CLIENTS as f64;
    Ok((phase, setups, setup_host))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let bin: PathBuf = args
        .server_bin
        .clone()
        .ok_or("serve_mix needs --server-bin <casa-server>")?;
    let mut out = Outcome::default();
    let n_passes = passes_for(args.seconds);
    let pass_ids: Vec<u64> = (0..n_passes).collect();
    let prep = prepare(args.seed, &pass_ids);
    let streams = request_stream(args.seed, &pass_ids);

    let (mut phase, setups, setup_host) =
        timed_phase(args, &bin, &prep.families, &streams, false, 0)?;
    out.set("setup_s", median(&setups) * setup_host.scale());
    let all: Vec<&Reply> = phase.replies.iter().flatten().collect();
    out.attempted = all.len() as u64;

    // Output checks.
    let mut first: HashMap<(usize, u32), &Reply> = HashMap::new();
    let mut hits = 0usize;
    for r in &all {
        if r.status != 200 {
            out.failed += 1;
            if r.status == 0 || r.status >= 500 {
                out.problem(format!(
                    "request {} got no valid reply: {} {}",
                    r.id, r.status, r.body
                ));
            }
            continue;
        }
        let is_hit = r.cache == "hit";
        hits += usize::from(is_hit);
        if is_hit != r.req.repeat {
            out.problem(format!(
                "request {} ({:?}) answered {:?} but was {}a repeat",
                r.id,
                r.req.key(),
                r.cache,
                if r.req.repeat { "" } else { "not " }
            ));
        }
        match first.get(&r.req.key()) {
            Some(f) if f.body != r.body => {
                out.problem(format!(
                    "request {}: hit body differs from the first answer for its key",
                    r.id
                ));
            }
            Some(_) => {}
            None => {
                first.insert(r.req.key(), r);
            }
        }
    }
    let mut keys: Vec<&(usize, u32)> = first.keys().collect();
    keys.sort();
    let checks: Vec<(&(usize, u32), String)> = keys
        .iter()
        .map(|k| {
            let energy = serde::json::parse(&first[k].body)
                .ok()
                .and_then(|v| v.get("energy_nj").and_then(Value::as_f64))
                .map(jnum)
                .unwrap_or_default();
            (*k, energy)
        })
        .collect();
    let refs = par_map2(&checks, |(k, _)| reference(&prep.families[k.0], k.1));
    let mut digest = Fnv1a::new();
    let mut owners: HashMap<u64, usize> = HashMap::new();
    for ((k, served), (reference, fingerprint)) in checks.iter().zip(&refs) {
        let client = prep.families[k.0].spec.client;
        if *owners.entry(*fingerprint).or_insert(client) != client {
            out.problem(format!(
                "family {} at {} B: both clients request the same graph, so the tallies could depend on their interleaving",
                k.0, k.1
            ));
        }
        if served != reference {
            out.problem(format!(
                "family {} at {} B: served energy {served} != library {reference}",
                k.0, k.1
            ));
        }
        digest.update(first[k].body.as_bytes());
    }
    let tally = tallies(&phase.replies);
    let record = format!("bodies={}{tally} failed={}\n", digest.hex(), out.failed);
    let key = crate::ledger::key(args, n_passes);
    if let Err(e) = crate::ledger::check_or_record(&args.state_dir, &key, &record) {
        out.problem(e);
    }
    // Closed-loop throughput: answered requests per wall second of the
    // timed stream.
    let ok = phase.ops.raw.len();
    let raw = set_op_metrics(&mut out, ok as f64 / phase.wall_s, &mut phase.ops);
    println!(
        "serve_mix: seed {} passes {n_passes} requests {} ok {} (p90 has {} samples beyond it; hits {}, misses {}); host steal {:.1}%;{tally}; {raw}; set-up {}",
        args.seed,
        all.len(),
        ok,
        phase.ops.raw.beyond(0.9),
        hits,
        ok - hits,
        phase.steal * 100.0,
        setup_host.summary()
    );

    out.set("peak_rss_mb", phase.rss_mb.unwrap_or(f64::NAN));

    if args.traced {
        let (tp, _, _) = timed_phase(args, &bin, &prep.families, &streams, true, SETUP_ROUNDS)?;
        if tallies(&tp.replies) != tally {
            out.problem(format!(
                "traced tallies{} differ from untraced{tally}",
                tallies(&tp.replies)
            ));
        }
        let ok: Vec<&Reply> = tp
            .replies
            .iter()
            .flatten()
            .filter(|r| r.status == 200)
            .collect();
        let d = |k: &str| tp.after.delta(&tp.before, k);
        let requests = d("server.requests_total");
        out.set(
            "op.mean_ms",
            ok.iter()
                .map(|r| r.latency.as_secs_f64() * 1e3)
                .sum::<f64>()
                / ok.len() as f64,
        );
        out.set(
            "workloads.prepare_ms",
            prep.walk_ms.iter().sum::<f64>() / prep.walk_ms.len() as f64,
        );
        out.set("workloads.blocks", prep.blocks as f64);
        out.set(
            "server.handler_ms",
            d("serve.latency_us.solve.sum") / d("serve.latency_us.solve.count") / 1e3,
        );
        out.set(
            "server.queue_wait_ms",
            d("server.queue_wait_us.sum") / d("server.queue_wait_us.count") / 1e3,
        );
        out.set("server.hit_ratio", d("server.cache_hits_total") / requests);
        out.set(
            "server.warm_ratio",
            d("server.cache_warm_hits_total") / requests,
        );
        out.set("server.rejected", d("server.rejected_total"));
        out.set("server.memo_misses", d("server.workload_memo_misses_total"));
        let mut th = Latencies::default();
        let mut tm = Latencies::default();
        let (mut oh, mut om) = (Vec::new(), Vec::new());
        for r in &ok {
            let handler_ms = tp.handler_us.get(&r.id).copied().unwrap_or(f64::NAN) / 1e3;
            let over = r.latency.as_secs_f64() * 1e3 - handler_ms;
            if r.cache == "hit" {
                th.push(r.latency);
                oh.push(over);
            } else {
                tm.push(r.latency);
                om.push(over);
            }
        }
        out.set("serve.hit_p50_ms", th.percentile(0.5));
        out.set("serve.miss_p50_ms", tm.percentile(0.5));
        out.set(
            "http.overhead_hit_ms",
            oh.iter().sum::<f64>() / oh.len() as f64,
        );
        out.set(
            "http.overhead_miss_ms",
            om.iter().sum::<f64>() / om.len() as f64,
        );
        // Per request the server's work per CPU second, clients left
        // out: free of the host's steal, unlike `ops_per_s`.
        out.set("server.reqs_per_cpu_s", ok.len() as f64 / tp.server_cpu_s);
        // Nothing inside the service is traced; the traced run's only
        // extra work is the clients' span bookkeeping, measured in
        // place as a share of the time the requests took without it.
        let total: Duration = tp.replies.iter().flatten().map(|r| r.latency).sum();
        out.set(
            "trace_overhead_pct",
            100.0 * tp.span_cost.as_secs_f64() / (total - tp.span_cost).as_secs_f64(),
        );
        let refs: Vec<&Spans> = tp.spans.iter().collect();
        crate::write_trace(args, &refs);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_text(seed: u64, passes: &[u64]) -> String {
        let specs: Vec<FamilySpec> = passes.iter().flat_map(|&p| families(seed, p)).collect();
        let mut s = format!("{specs:?}\n");
        for (c, reqs) in request_stream(seed, passes).iter().enumerate() {
            for r in reqs {
                let _ = writeln!(s, "{c} {:?}", r);
            }
        }
        s
    }

    #[test]
    fn request_stream_is_a_pure_function_of_the_seed() {
        assert_eq!(stream_text(3, &[0, 1, 2]), stream_text(3, &[0, 1, 2]));
        assert_ne!(stream_text(3, &[0, 1, 2]), stream_text(4, &[0, 1, 2]));
    }

    #[test]
    fn warmup_keys_are_disjoint_from_the_timed_stream() {
        let timed: Vec<u64> = (0..200)
            .flat_map(|p| families(1, p))
            .map(|f| f.walker_seed)
            .collect();
        for r in 0..2 * SETUP_ROUNDS {
            for f in families(1, WARMUP_PASS_BASE + r) {
                assert!(!timed.contains(&f.walker_seed));
            }
        }
    }

    #[test]
    fn about_seventy_percent_of_requests_repeat_a_key() {
        let specs: Vec<FamilySpec> = (0..8).flat_map(|p| families(2, p)).collect();
        let streams = request_stream(2, &(0..8).collect::<Vec<_>>());
        let all: Vec<&Req> = streams.iter().flatten().collect();
        let repeats = all.iter().filter(|r| r.repeat).count();
        let share = repeats as f64 / all.len() as f64;
        assert!((0.65..0.75).contains(&share), "repeat share {share}");
        // Each client only ever sends its own families.
        for (c, s) in streams.iter().enumerate() {
            assert!(s.iter().all(|r| specs[r.family].client == c));
        }
        // The first request of every key precedes its repeats.
        for s in &streams {
            let mut seen = std::collections::HashSet::new();
            for r in s {
                assert_eq!(r.repeat, !seen.insert(r.key()));
            }
        }
    }

    #[test]
    fn wire_graph_round_trips_through_the_service_parser() {
        let (g, _, _) = library_graph("mpeg", 5, 256);
        let (json, parsed) = wire_graph(&g);
        let body = format!("{{\"cache\":{{\"size\":2048}},\"capacity\":256,\"graph\":{json}}}");
        match casa_core::server::parse_request(&body) {
            Ok(casa_core::server::ParsedRequest::Graph(job)) => {
                assert_eq!(job.graph.len(), parsed.len());
                assert_eq!(
                    job.graph.edges().collect::<Vec<_>>(),
                    parsed.edges().collect::<Vec<_>>()
                );
            }
            other => panic!("unexpected parse result {other:?}"),
        }
    }
}
