//! The benchmark's own span recorder: spans around calls into each
//! crate's public functions, kept in memory and written out when the
//! run ends. Per-layer numbers are self times: a span's duration minus
//! the part of it its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Rec {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Open span handle returned by [`Spans::enter`].
#[derive(Debug)]
#[must_use]
pub struct Open(usize);

/// What a recorder's timestamps count.
#[derive(Debug, Clone, Copy)]
enum Clock {
    /// Wall time since a shared origin (client threads, which mostly
    /// wait on the network).
    Wall(Instant),
    /// This thread's CPU time (compute-bound library calls).
    ThreadCpu,
}

/// Spans of one thread.
#[derive(Debug)]
pub struct Spans {
    clock: Clock,
    tid: u32,
    recs: Vec<Rec>,
    stack: Vec<usize>,
}

impl Spans {
    /// A recorder timed in wall time against `origin`.
    pub fn new_wall(origin: Instant, tid: u32) -> Self {
        Spans::with_clock(Clock::Wall(origin), tid)
    }

    /// A recorder timed in this thread's CPU time.
    pub fn new_cpu(tid: u32) -> Self {
        Spans::with_clock(Clock::ThreadCpu, tid)
    }

    fn with_clock(clock: Clock, tid: u32) -> Self {
        Spans {
            clock,
            tid,
            recs: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        let d = match self.clock {
            Clock::Wall(origin) => origin.elapsed(),
            Clock::ThreadCpu => crate::stats::thread_cpu(),
        };
        u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span nested under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        let idx = self.recs.len();
        let start_ns = self.now_ns();
        self.recs.push(Rec {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
        });
        self.stack.push(idx);
        Open(idx)
    }

    /// Close `span`, which must be the innermost open span.
    pub fn exit(&mut self, span: Open) {
        let top = self.stack.pop();
        assert_eq!(top, Some(span.0), "spans must close innermost first");
        self.recs[span.0].end_ns = self.now_ns();
    }

    /// Run `f` inside a leaf span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let s = self.enter(name);
        let r = f();
        self.exit(s);
        r
    }

    /// Total self time per span name, in nanoseconds.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.recs.len()];
        for r in &self.recs {
            if let Some(p) = r.parent {
                child_ns[p] += r.end_ns - r.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (r, c) in self.recs.iter().zip(child_ns) {
            *out.entry(r.name).or_insert(0) += (r.end_ns - r.start_ns).saturating_sub(c);
        }
        out
    }

    /// Number of closed spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.recs.iter().filter(|r| r.name == name).count()
    }
}

/// Chrome `trace_event` JSON of every span (open it in Perfetto).
pub fn chrome_json(all: &[&Spans]) -> String {
    let mut s = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    for sp in all {
        for r in &sp.recs {
            if !first {
                s.push(',');
            }
            first = false;
            let _ = write!(
                s,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3}}}",
                r.name,
                sp.tid,
                r.start_ns as f64 / 1e3,
                (r.end_ns - r.start_ns) as f64 / 1e3
            );
        }
    }
    s.push_str("]}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut s = Spans::new_wall(Instant::now(), 0);
        let op = s.enter("op");
        s.time("child", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        s.exit(op);
        let st = s.self_ns();
        assert!(st["child"] >= 5_000_000);
        assert!(st["op"] < st["child"]);
        assert_eq!(s.count("op"), 1);
        let json = chrome_json(&[&s]);
        assert!(json.contains("\"name\":\"child\""));
    }
}
