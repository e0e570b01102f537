//! Conflict-miss attribution (paper §3.3).
//!
//! The conflict graph's edge weight `m_ij` counts the misses of memory
//! object `x_i` that occur *because* `x_j` replaced one of `x_i`'s
//! cache lines. The recorder tracks, per `(set, tag)` line identity,
//! which memory object most recently evicted it; when that line is
//! re-fetched and misses, the miss is charged to the recorded evictor.
//! Misses on lines that were never evicted are *cold* (compulsory)
//! misses and carry no conflict edge.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Raw conflict data produced by one simulation run, at memory-object
/// (trace) granularity. Indices are [`casa_trace::TraceId::index`]
/// values.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RawConflicts {
    /// `m_ij`: conflict misses of object `i` caused by object `j`.
    pub misses_between: HashMap<(usize, usize), u64>,
    /// Cold (compulsory) misses per object.
    pub cold_misses: Vec<u64>,
}

impl RawConflicts {
    /// Total conflict misses of object `i` (the paper's eq. 3 sum).
    pub fn conflict_misses_of(&self, i: usize) -> u64 {
        self.misses_between
            .iter()
            .filter(|((vi, _), _)| *vi == i)
            .map(|(_, &m)| m)
            .sum()
    }

    /// Total misses of object `i` including cold misses.
    pub fn total_misses_of(&self, i: usize) -> u64 {
        self.conflict_misses_of(i) + self.cold_misses.get(i).copied().unwrap_or(0)
    }
}

/// `evicted_by` entry of a line nobody has evicted since it was last
/// resident.
const NOT_EVICTED: u32 = u32::MAX;

/// Multiply-rotate hasher (the FxHash scheme) for the per-miss pair
/// tally: one multiply per key where SipHash runs several rounds. Its
/// keys are object indices from the simulator, never request data.
#[derive(Debug, Clone, Copy, Default)]
struct PairHasher(u64);

impl Hasher for PairHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Tracks eviction causality during a simulation run.
#[derive(Debug, Clone)]
pub struct ConflictRecorder {
    n_objects: usize,
    num_sets: u32,
    /// Line number (`tag · num_sets + set`) -> object that most
    /// recently evicted that line, or [`NOT_EVICTED`]. Dense, and
    /// grown on demand to the highest line evicted so far, which is
    /// bounded by the code image the run fetches from.
    evicted_by: Vec<u32>,
    /// `m_ij` keyed by `i << 32 | j`; becomes
    /// [`RawConflicts::misses_between`] when recording ends.
    misses_between: HashMap<u64, u64, BuildHasherDefault<PairHasher>>,
    cold_misses: Vec<u64>,
}

impl ConflictRecorder {
    /// A recorder for `n_objects` memory objects, attributing misses
    /// of a cache with `num_sets` sets.
    ///
    /// # Panics
    ///
    /// Panics if `num_sets` is zero or `n_objects` does not fit below
    /// `u32::MAX`.
    pub fn new(n_objects: usize, num_sets: u32) -> Self {
        assert!(num_sets > 0, "a cache has at least one set");
        assert!(n_objects < NOT_EVICTED as usize, "too many memory objects");
        ConflictRecorder {
            n_objects,
            num_sets,
            evicted_by: Vec::new(),
            misses_between: HashMap::default(),
            cold_misses: vec![0; n_objects],
        }
    }

    /// Record a cache miss of object `missed` on line `(set, tag)`;
    /// if the miss replaced a valid line, `evicted_tag` names it.
    ///
    /// # Panics
    ///
    /// Panics if `missed` or `set` is out of range.
    pub fn on_miss(&mut self, missed: usize, set: u32, tag: u32, evicted_tag: Option<u32>) {
        assert!(missed < self.n_objects, "object index out of range");
        assert!(set < self.num_sets, "set index out of range");
        let line = self.line(set, tag);
        // Charge the miss: conflict if this line was evicted before.
        // Our own line is now resident, so its record is cleared: a
        // later self-re-fetch after *another* eviction is charged to
        // the right causer.
        let evictor = match self.evicted_by.get_mut(line) {
            Some(e) => std::mem::replace(e, NOT_EVICTED),
            None => NOT_EVICTED,
        };
        if evictor == NOT_EVICTED {
            self.cold_misses[missed] += 1;
        } else {
            *self
                .misses_between
                .entry((missed as u64) << 32 | u64::from(evictor))
                .or_insert(0) += 1;
        }
        // Record the eviction we caused, for the victim's future miss.
        if let Some(et) = evicted_tag {
            let victim = self.line(set, et);
            if victim >= self.evicted_by.len() {
                let len = (victim + 1).max(2 * self.evicted_by.len());
                self.evicted_by.resize(len, NOT_EVICTED);
            }
            self.evicted_by[victim] = missed as u32;
        }
    }

    fn line(&self, set: u32, tag: u32) -> usize {
        (u64::from(tag) * u64::from(self.num_sets) + u64::from(set)) as usize
    }

    /// Finish recording and return the collected conflicts.
    pub fn into_conflicts(self) -> RawConflicts {
        self.conflicts()
    }

    /// A snapshot of the conflicts collected so far.
    pub fn conflicts(&self) -> RawConflicts {
        RawConflicts {
            misses_between: self
                .misses_between
                .iter()
                .map(|(&k, &m)| (((k >> 32) as usize, (k & 0xffff_ffff) as usize), m))
                .collect(),
            cold_misses: self.cold_misses.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_miss_has_no_edge() {
        let mut r = ConflictRecorder::new(2, 1);
        r.on_miss(0, 0, 0, None);
        let c = r.into_conflicts();
        assert_eq!(c.cold_misses[0], 1);
        assert!(c.misses_between.is_empty());
    }

    #[test]
    fn thrash_creates_mutual_edges() {
        // Objects 0 and 1 alternate on the same set/line:
        // 0 cold-misses (evicts nothing), 1 misses evicting 0's tag,
        // 0 re-misses (charged to 1), 1 re-misses (charged to 0)...
        let mut r = ConflictRecorder::new(2, 1);
        r.on_miss(0, 0, 10, None); // cold
        r.on_miss(1, 0, 11, Some(10)); // cold for 1; evicts 0's line
        r.on_miss(0, 0, 10, Some(11)); // conflict: caused by 1
        r.on_miss(1, 0, 11, Some(10)); // conflict: caused by 0
        let c = r.into_conflicts();
        assert_eq!(c.cold_misses, vec![1, 1]);
        assert_eq!(c.misses_between[&(0, 1)], 1);
        assert_eq!(c.misses_between[&(1, 0)], 1);
        assert_eq!(c.conflict_misses_of(0), 1);
        assert_eq!(c.total_misses_of(0), 2);
    }

    #[test]
    fn re_eviction_charges_latest_evictor() {
        let mut r = ConflictRecorder::new(3, 1);
        r.on_miss(0, 0, 10, None); // 0 resident
        r.on_miss(1, 0, 11, Some(10)); // 1 evicts 0
        r.on_miss(2, 0, 12, Some(11)); // 2 evicts 1
                                       // 0 returns: evicted_by[(0,10)] == 1, so charge 1 (who evicted
                                       // 0), not 2.
        r.on_miss(0, 0, 10, Some(12));
        let c = r.conflicts();
        assert_eq!(c.misses_between[&(0, 1)], 1);
        assert!(!c.misses_between.contains_key(&(0, 2)));
    }

    #[test]
    fn self_conflict_possible() {
        // An object larger than the cache evicts its own lines.
        let mut r = ConflictRecorder::new(1, 1);
        r.on_miss(0, 0, 1, None);
        r.on_miss(0, 0, 2, Some(1)); // evicts own line
        r.on_miss(0, 0, 1, Some(2)); // self-conflict
        let c = r.into_conflicts();
        assert_eq!(c.misses_between[&(0, 0)], 1);
    }

    #[test]
    fn stale_record_cleared_on_refill() {
        let mut r = ConflictRecorder::new(2, 1);
        r.on_miss(0, 0, 10, None);
        r.on_miss(1, 0, 11, Some(10)); // 1 evicts 0
        r.on_miss(0, 0, 10, Some(11)); // 0 back, charged to 1; record cleared
        r.on_miss(1, 0, 11, Some(10)); // 1 back, charged to 0
        r.on_miss(0, 0, 10, Some(11)); // 0 back again: charged to 1 (fresh record)
        let c = r.into_conflicts();
        assert_eq!(c.misses_between[&(0, 1)], 2);
        assert_eq!(c.misses_between[&(1, 0)], 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_index_panics() {
        let mut r = ConflictRecorder::new(1, 1);
        r.on_miss(1, 0, 0, None);
    }
}
