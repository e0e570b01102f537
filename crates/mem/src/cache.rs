//! Set-associative instruction cache model.
//!
//! Implements the paper's mapping function (§3.3):
//!
//! ```text
//! Map(addr) = (addr / line) mod (CacheSize / (Associativity · line))
//! ```
//!
//! plus the replacement policies whose antisymmetric victim relation
//! defines the conflict graph.

use casa_obs::LocalCounter;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Cache replacement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReplacementPolicy {
    /// Least-recently-used.
    Lru,
    /// First-in-first-out (oldest fill evicted).
    Fifo,
    /// ARM-style round-robin victim counter per set.
    RoundRobin,
    /// Uniform random victim, deterministic under the given seed.
    Random(u64),
}

/// Static cache parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size: u32,
    /// Line size in bytes.
    pub line_size: u32,
    /// Number of ways (1 = direct-mapped).
    pub associativity: u32,
    /// Replacement policy (irrelevant for direct-mapped caches).
    pub policy: ReplacementPolicy,
}

impl CacheConfig {
    /// A direct-mapped cache (the paper's experiments use 2 kB / 1 kB /
    /// 128 B direct-mapped I-caches with 16-byte lines).
    pub fn direct_mapped(size: u32, line_size: u32) -> Self {
        CacheConfig {
            size,
            line_size,
            associativity: 1,
            policy: ReplacementPolicy::Lru,
        }
    }

    /// Number of sets.
    pub fn num_sets(&self) -> u32 {
        self.size / (self.line_size * self.associativity)
    }

    /// The set an address maps to — the paper's `Map` function.
    pub fn map(&self, addr: u32) -> u32 {
        (addr / self.line_size) % self.num_sets()
    }

    /// The tag of an address.
    pub fn tag(&self, addr: u32) -> u32 {
        addr / (self.line_size * self.num_sets())
    }

    /// 32-bit words per line (line-fill transfer count on a miss).
    pub fn words_per_line(&self) -> u32 {
        self.line_size / 4
    }

    /// Check the geometry every cache model relies on: a power-of-two
    /// line size, at least one way, a size that is a whole number of
    /// `line_size · associativity` rows, and a power-of-two set count.
    /// Set and tag arithmetic is shift-and-mask, so these are hard
    /// requirements, not style.
    ///
    /// # Errors
    ///
    /// The first violated requirement, as a [`GeometryError`].
    pub fn validate(&self) -> Result<(), GeometryError> {
        if !self.line_size.is_power_of_two() {
            return Err(GeometryError::LineSize(self.line_size));
        }
        if self.associativity == 0 {
            return Err(GeometryError::NoWays);
        }
        let row = u64::from(self.line_size) * u64::from(self.associativity);
        if self.size == 0 || !u64::from(self.size).is_multiple_of(row) {
            return Err(GeometryError::SizeNotRows {
                size: self.size,
                line_size: self.line_size,
                associativity: self.associativity,
            });
        }
        let sets = self.num_sets();
        if !sets.is_power_of_two() {
            return Err(GeometryError::SetCount(sets));
        }
        Ok(())
    }
}

/// Why a [`CacheConfig`] cannot describe a cache, from
/// [`CacheConfig::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeometryError {
    /// The line size is not a power of two (zero included).
    LineSize(u32),
    /// The associativity is zero.
    NoWays,
    /// The size is zero or not a multiple of `line_size · associativity`.
    SizeNotRows {
        /// Total capacity in bytes.
        size: u32,
        /// Line size in bytes.
        line_size: u32,
        /// Number of ways.
        associativity: u32,
    },
    /// The resulting set count is not a power of two.
    SetCount(u32),
}

impl fmt::Display for GeometryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeometryError::LineSize(l) => write!(f, "line size must be 2^k, got {l}"),
            GeometryError::NoWays => f.write_str("associativity must be at least 1"),
            GeometryError::SizeNotRows {
                size,
                line_size,
                associativity,
            } => write!(
                f,
                "size {size} must be a non-zero multiple of line_size * associativity \
                 ({line_size} * {associativity})"
            ),
            GeometryError::SetCount(n) => write!(f, "sets must be 2^k, got {n}"),
        }
    }
}

impl Error for GeometryError {}

/// Outcome of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheAccess {
    /// Whether the access hit.
    pub hit: bool,
    /// Set index the address mapped to.
    pub set: u32,
    /// Tag of the accessed line.
    pub tag: u32,
    /// Way the line resides in after the access.
    pub way: u32,
    /// On a miss that replaced a valid line: that line's tag.
    pub evicted_tag: Option<u32>,
}

#[derive(Debug, Clone)]
struct Way {
    valid: bool,
    tag: u32,
    /// Monotonic stamp: last-use time for LRU, fill time for FIFO.
    stamp: u64,
}

/// A set-associative cache.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `log2(line_size)`: address → line number.
    line_shift: u32,
    /// `num_sets - 1`: line number → set.
    set_mask: u32,
    /// `log2(line_size · num_sets)`: address → tag.
    tag_shift: u32,
    ways: Vec<Way>, // num_sets * associativity, row-major by set
    rr_counters: Vec<u32>,
    rng: SmallRng,
    clock: u64,
    hits: LocalCounter,
    misses: LocalCounter,
}

impl Cache {
    /// Create an empty (all-invalid) cache.
    ///
    /// # Panics
    ///
    /// Panics if [`CacheConfig::validate`] rejects the configuration
    /// (non-power-of-two line size or set count, zero ways); request
    /// handlers call `validate` first and answer with the error.
    pub fn new(config: CacheConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid cache geometry: {e}");
        }
        let sets = config.num_sets();
        let n = (sets * config.associativity) as usize;
        let line_shift = config.line_size.trailing_zeros();
        let seed = match config.policy {
            ReplacementPolicy::Random(s) => s,
            _ => 0,
        };
        Cache {
            config,
            line_shift,
            set_mask: sets - 1,
            tag_shift: line_shift + sets.trailing_zeros(),
            ways: vec![
                Way {
                    valid: false,
                    tag: 0,
                    stamp: 0
                };
                n
            ],
            rr_counters: vec![0; config.num_sets() as usize],
            rng: SmallRng::seed_from_u64(seed),
            clock: 0,
            hits: LocalCounter::new(),
            misses: LocalCounter::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The line number of `addr` (`addr / line_size`): two addresses
    /// share a cache line iff their line numbers are equal.
    #[inline]
    pub(crate) fn line_of(&self, addr: u32) -> u32 {
        addr >> self.line_shift
    }

    /// [`CacheConfig::map`] and [`CacheConfig::tag`] by shift and mask.
    #[inline]
    fn set_and_tag(&self, addr: u32) -> (u32, u32) {
        (
            (addr >> self.line_shift) & self.set_mask,
            addr >> self.tag_shift,
        )
    }

    /// Access `addr`, updating state. Returns hit/miss plus victim
    /// information for conflict attribution.
    pub fn access(&mut self, addr: u32) -> CacheAccess {
        self.clock += 1;
        let (set, tag) = self.set_and_tag(addr);
        let assoc = self.config.associativity as usize;
        let base = set as usize * assoc;

        // Hit path.
        for w in 0..assoc {
            let way = &mut self.ways[base + w];
            if way.valid && way.tag == tag {
                if matches!(self.config.policy, ReplacementPolicy::Lru) {
                    way.stamp = self.clock;
                }
                self.hits.inc();
                return CacheAccess {
                    hit: true,
                    set,
                    tag,
                    way: w as u32,
                    evicted_tag: None,
                };
            }
        }

        // Miss: pick a victim way.
        self.misses.inc();
        let victim = self.pick_victim(set);
        let slot = &mut self.ways[base + victim];
        let evicted_tag = slot.valid.then_some(slot.tag);
        slot.valid = true;
        slot.tag = tag;
        slot.stamp = self.clock;
        CacheAccess {
            hit: false,
            set,
            tag,
            way: victim as u32,
            evicted_tag,
        }
    }

    /// Access `addr` `count ≥ 1` times in a row: one real access, then
    /// `count − 1` repeat hits on the line it just touched. Exactly
    /// equivalent to `count` calls of [`Cache::access`] — nothing can
    /// evict the line between back-to-back accesses — so every later
    /// access sees the same state: the clock advances by `count`, an
    /// LRU line's stamp is the last access's, and hits grow by the
    /// repeats. FIFO, round-robin and random state change only on
    /// fills, which repeats never cause. Returns the first access.
    pub(crate) fn access_run(&mut self, addr: u32, count: u32) -> CacheAccess {
        debug_assert!(count >= 1, "a run has at least one access");
        let first = self.access(addr);
        let repeats = count - 1;
        if repeats > 0 {
            self.clock += u64::from(repeats);
            if matches!(self.config.policy, ReplacementPolicy::Lru) {
                let assoc = self.config.associativity as usize;
                self.ways[first.set as usize * assoc + first.way as usize].stamp = self.clock;
            }
            self.hits.add(u64::from(repeats));
        }
        first
    }

    fn pick_victim(&mut self, set: u32) -> usize {
        let assoc = self.config.associativity as usize;
        let base = set as usize * assoc;
        // Prefer an invalid way. Round-robin's fill pointer must still
        // advance on these cold allocations (ARM-style counters track
        // every linefill, not just evictions), or the counter decouples
        // from the true fill order.
        if let Some(w) = (0..assoc).find(|&w| !self.ways[base + w].valid) {
            if matches!(self.config.policy, ReplacementPolicy::RoundRobin) {
                self.rr_counters[set as usize] = ((w + 1) % assoc) as u32;
            }
            return w;
        }
        match self.config.policy {
            ReplacementPolicy::Lru | ReplacementPolicy::Fifo => (0..assoc)
                .min_by_key(|&w| self.ways[base + w].stamp)
                .expect("at least one way"),
            ReplacementPolicy::RoundRobin => {
                let c = &mut self.rr_counters[set as usize];
                let w = *c as usize;
                *c = (*c + 1) % self.config.associativity;
                w
            }
            ReplacementPolicy::Random(_) => self.rng.gen_range(0..assoc),
        }
    }

    /// Look up whether `addr` is currently resident (no state change).
    pub fn probe(&self, addr: u32) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        let assoc = self.config.associativity as usize;
        let base = set as usize * assoc;
        (0..assoc).any(|w| self.ways[base + w].valid && self.ways[base + w].tag == tag)
    }

    /// Hits recorded so far.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Misses recorded so far.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Invalidate all lines and reset counters.
    pub fn reset(&mut self) {
        for w in &mut self.ways {
            w.valid = false;
            w.stamp = 0;
        }
        self.clock = 0;
        self.hits = LocalCounter::new();
        self.misses = LocalCounter::new();
        for c in &mut self.rr_counters {
            *c = 0;
        }
    }

    /// Reconstruct the base address of a line from its set and tag
    /// (inverse of [`CacheConfig::map`] / [`CacheConfig::tag`]).
    pub fn line_addr(&self, set: u32, tag: u32) -> u32 {
        ((tag << (self.tag_shift - self.line_shift)) | set) << self.line_shift
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dm_64b() -> Cache {
        // 64 B direct-mapped, 16 B lines -> 4 sets.
        Cache::new(CacheConfig::direct_mapped(64, 16))
    }

    #[test]
    fn mapping_function_matches_paper() {
        let c = CacheConfig::direct_mapped(2048, 16);
        assert_eq!(c.num_sets(), 128);
        assert_eq!(c.map(0), 0);
        assert_eq!(c.map(16), 1);
        assert_eq!(c.map(2048), 0); // wraps at cache size
        assert_eq!(c.tag(0), 0);
        assert_eq!(c.tag(2048), 1);
    }

    #[test]
    fn associative_mapping() {
        let c = CacheConfig {
            size: 2048,
            line_size: 16,
            associativity: 2,
            policy: ReplacementPolicy::Lru,
        };
        assert_eq!(c.num_sets(), 64);
        // Two addresses one "way-stride" apart map to the same set.
        assert_eq!(c.map(0), c.map(1024));
        assert_ne!(c.tag(0), c.tag(1024));
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = dm_64b();
        let a = c.access(0);
        assert!(!a.hit);
        assert_eq!(a.evicted_tag, None);
        let a = c.access(4); // same line
        assert!(a.hit);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn conflict_eviction_direct_mapped() {
        let mut c = dm_64b();
        c.access(0); // set 0, tag 0
        let a = c.access(64); // set 0, tag 1: evicts tag 0
        assert!(!a.hit);
        assert_eq!(a.evicted_tag, Some(0));
        assert_eq!(c.line_addr(a.set, a.evicted_tag.unwrap()), 0);
        let a = c.access(0); // misses again (thrash)
        assert!(!a.hit);
        assert_eq!(a.evicted_tag, Some(1));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let cfg = CacheConfig {
            size: 64,
            line_size: 16,
            associativity: 2,
            policy: ReplacementPolicy::Lru,
        };
        let mut c = Cache::new(cfg);
        // 2 sets. Addresses 0, 32, 64 all map to set 0.
        c.access(0); // fill way0 tag0
        c.access(32); // fill way1 tag1
        c.access(0); // touch tag0 -> tag1 is LRU
        let a = c.access(64); // evicts tag1
        assert_eq!(a.evicted_tag, Some(c.config().tag(32)));
        assert!(c.probe(0));
        assert!(!c.probe(32));
    }

    #[test]
    fn fifo_evicts_oldest_fill() {
        let cfg = CacheConfig {
            size: 64,
            line_size: 16,
            associativity: 2,
            policy: ReplacementPolicy::Fifo,
        };
        let mut c = Cache::new(cfg);
        c.access(0); // oldest fill
        c.access(32);
        c.access(0); // hit: does NOT refresh FIFO stamp
        let a = c.access(64);
        assert_eq!(a.evicted_tag, Some(c.config().tag(0)));
    }

    #[test]
    fn round_robin_cycles_ways() {
        let cfg = CacheConfig {
            size: 64,
            line_size: 16,
            associativity: 2,
            policy: ReplacementPolicy::RoundRobin,
        };
        let mut c = Cache::new(cfg);
        c.access(0);
        c.access(32);
        let a1 = c.access(64);
        let a2 = c.access(96);
        assert_ne!(a1.way, a2.way, "round robin alternates victims");
    }

    #[test]
    fn round_robin_victim_sequence_pinned() {
        // 4-way, 64 B, 16 B lines -> a single set; addresses n*64 all
        // collide. The fill pointer advances on every allocation (cold
        // fills included), so victims proceed 0,1,2,3 during the cold
        // fill and keep cycling 0,1,2,3,0 once the set is full.
        let cfg = CacheConfig {
            size: 64,
            line_size: 16,
            associativity: 4,
            policy: ReplacementPolicy::RoundRobin,
        };
        let mut c = Cache::new(cfg);
        let ways: Vec<u32> = (0..9u32).map(|n| c.access(n * 64).way).collect();
        assert_eq!(ways, vec![0, 1, 2, 3, 0, 1, 2, 3, 0]);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let mk = |seed| {
            let cfg = CacheConfig {
                size: 128,
                line_size: 16,
                associativity: 4,
                policy: ReplacementPolicy::Random(seed),
            };
            let mut c = Cache::new(cfg);
            let addrs = [0u32, 128, 256, 384, 512, 0, 128, 640, 256];
            addrs.iter().map(|&a| c.access(a).hit).collect::<Vec<_>>()
        };
        assert_eq!(mk(7), mk(7));
    }

    #[test]
    fn probe_does_not_mutate() {
        let mut c = dm_64b();
        c.access(0);
        let h = c.hits();
        let m = c.misses();
        assert!(c.probe(0));
        assert!(!c.probe(64));
        assert_eq!((c.hits(), c.misses()), (h, m));
    }

    #[test]
    fn reset_clears_contents() {
        let mut c = dm_64b();
        c.access(0);
        c.reset();
        assert!(!c.probe(0));
        assert_eq!(c.hits(), 0);
        assert_eq!(c.misses(), 0);
    }

    #[test]
    fn validate_names_each_broken_requirement() {
        let cfg = |size, line_size, associativity| CacheConfig {
            size,
            line_size,
            associativity,
            policy: ReplacementPolicy::Lru,
        };
        assert_eq!(cfg(2048, 16, 2).validate(), Ok(()));
        assert_eq!(cfg(192, 16, 3).validate(), Ok(()), "3 ways, 4 sets");
        assert_eq!(cfg(48, 12, 1).validate(), Err(GeometryError::LineSize(12)));
        assert_eq!(cfg(64, 0, 1).validate(), Err(GeometryError::LineSize(0)));
        assert_eq!(cfg(64, 16, 0).validate(), Err(GeometryError::NoWays));
        for (size, assoc) in [(0, 1), (100, 1), (64, 8)] {
            assert!(matches!(
                cfg(size, 16, assoc).validate(),
                Err(GeometryError::SizeNotRows { .. })
            ));
        }
        // line · ways overflows u32: refused, not wrapped.
        assert!(matches!(
            cfg(u32::MAX, 1 << 31, 4).validate(),
            Err(GeometryError::SizeNotRows { .. })
        ));
        assert_eq!(cfg(96, 16, 2).validate(), Err(GeometryError::SetCount(3)));
        assert!(GeometryError::SetCount(3).to_string().contains("2^k"));
    }

    #[test]
    #[should_panic(expected = "2^k")]
    fn bad_line_size_panics() {
        Cache::new(CacheConfig::direct_mapped(64, 12));
    }

    #[test]
    fn line_addr_round_trips() {
        let c = dm_64b();
        for addr in (0..512).step_by(16) {
            let set = c.config().map(addr);
            let tag = c.config().tag(addr);
            assert_eq!(c.line_addr(set, tag), addr);
        }
    }
}
