//! Data-side memory simulation — substrate for the paper's second
//! future-work item ("preloading of data").
//!
//! Data memory objects (global arrays, tables) are referenced by
//! index, so attribution needs no reverse address lookup: each access
//! names its object. Objects live either in the cacheable main data
//! region (laid out sequentially, line-aligned) or in the scratchpad.
//! The D-cache reuses the instruction-side [`crate::cache::Cache`]
//! with a write-allocate, write-back store policy: stores mark lines
//! dirty, and dirty evictions are charged as word write-backs to main
//! memory.

use crate::cache::{Cache, CacheConfig};
use crate::conflict::{ConflictRecorder, RawConflicts};
use serde::{Deserialize, Serialize};

/// One access of the data stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DataAccess {
    /// Index of the data object.
    pub object: usize,
    /// Byte offset within the object.
    pub offset: u32,
}

/// Kind of data access, for write-back accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DataAccessKind {
    /// Read.
    Load,
    /// Write (marks the line dirty under write-back).
    Store,
}

/// The dynamic data-access sequence of one run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DataTrace {
    accesses: Vec<DataAccess>,
    /// Parallel to `accesses`; empty = all loads (the conservative
    /// default for energy, since stores add write-back traffic).
    kinds: Vec<DataAccessKind>,
}

impl DataTrace {
    /// Wrap an access sequence (all accesses treated as loads).
    pub fn new(accesses: Vec<DataAccess>) -> Self {
        DataTrace {
            accesses,
            kinds: Vec::new(),
        }
    }

    /// Wrap an access sequence with explicit load/store kinds.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn with_kinds(accesses: Vec<DataAccess>, kinds: Vec<DataAccessKind>) -> Self {
        assert_eq!(accesses.len(), kinds.len(), "one kind per access");
        DataTrace { accesses, kinds }
    }

    /// Kind of access `i` (defaults to `Load` when kinds were not
    /// recorded).
    pub fn kind(&self, i: usize) -> DataAccessKind {
        self.kinds.get(i).copied().unwrap_or(DataAccessKind::Load)
    }

    /// The accesses.
    pub fn accesses(&self) -> &[DataAccess] {
        &self.accesses
    }

    /// Number of accesses.
    pub fn len(&self) -> usize {
        self.accesses.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty()
    }
}

/// Result of one data-side simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DataSimOutcome {
    /// Accesses per object.
    pub object_accesses: Vec<u64>,
    /// D-cache hits per object.
    pub object_hits: Vec<u64>,
    /// D-cache misses per object.
    pub object_misses: Vec<u64>,
    /// Scratchpad accesses per object.
    pub object_spm: Vec<u64>,
    /// Conflict attribution between data objects.
    pub conflicts: RawConflicts,
    /// Total D-cache accesses.
    pub cache_accesses: u64,
    /// Total D-cache hits.
    pub cache_hits: u64,
    /// Total D-cache misses.
    pub cache_misses: u64,
    /// Total scratchpad accesses.
    pub spm_accesses: u64,
    /// 32-bit words filled from main memory.
    pub main_word_accesses: u64,
    /// 32-bit words written back to main memory (dirty evictions under
    /// the write-back policy).
    pub writeback_word_accesses: u64,
}

impl DataSimOutcome {
    /// Eq.(4) analogue for data: accesses split exactly into cache
    /// hits + misses + scratchpad accesses per object.
    pub fn check_access_identity(&self) -> bool {
        (0..self.object_accesses.len()).all(|i| {
            self.object_accesses[i]
                == self.object_hits[i] + self.object_misses[i] + self.object_spm[i]
        })
    }
}

/// Main-data-region start addresses for objects laid out sequentially
/// at cache-line boundaries.
pub fn data_layout(sizes: &[u32], line_size: u32) -> Vec<u32> {
    let mut base = 0u32;
    sizes
        .iter()
        .map(|&s| {
            let addr = base;
            base += s.div_ceil(line_size) * line_size;
            addr
        })
        .collect()
}

/// Simulate the data stream against a D-cache, with `on_spm[i]`
/// objects served by the scratchpad.
///
/// # Panics
///
/// Panics if an access names an out-of-range object or offset, or
/// `on_spm.len() != sizes.len()`.
pub fn simulate_data(
    trace: &DataTrace,
    sizes: &[u32],
    on_spm: &[bool],
    dcache: CacheConfig,
) -> DataSimOutcome {
    assert_eq!(on_spm.len(), sizes.len(), "placement must cover objects");
    let n = sizes.len();
    let bases = data_layout(sizes, dcache.line_size);
    let mut cache = Cache::new(dcache);
    let mut recorder = ConflictRecorder::new(n, dcache.num_sets());
    // Dirty bits per (set, tag) for write-back accounting.
    let mut dirty: std::collections::HashSet<(u32, u32)> = std::collections::HashSet::new();
    let mut writeback_word_accesses = 0u64;
    let mut object_accesses = vec![0u64; n];
    let mut object_hits = vec![0u64; n];
    let mut object_misses = vec![0u64; n];
    let mut object_spm = vec![0u64; n];
    let mut spm_accesses = 0u64;
    let mut main_word_accesses = 0u64;

    for (i, &DataAccess { object, offset }) in trace.accesses().iter().enumerate() {
        assert!(object < n, "data object {object} out of range");
        assert!(
            offset < sizes[object],
            "offset {offset} outside object {object} of {} bytes",
            sizes[object]
        );
        object_accesses[object] += 1;
        if on_spm[object] {
            object_spm[object] += 1;
            spm_accesses += 1;
            continue;
        }
        let addr = bases[object] + offset;
        let access = cache.access(addr);
        let tag = access.tag;
        if access.hit {
            object_hits[object] += 1;
        } else {
            object_misses[object] += 1;
            main_word_accesses += u64::from(dcache.words_per_line());
            recorder.on_miss(object, access.set, tag, access.evicted_tag);
            // Dirty eviction: the replaced line goes back to memory.
            if let Some(et) = access.evicted_tag {
                if dirty.remove(&(access.set, et)) {
                    writeback_word_accesses += u64::from(dcache.words_per_line());
                }
            }
        }
        if matches!(trace.kind(i), DataAccessKind::Store) {
            dirty.insert((access.set, tag));
        }
    }

    DataSimOutcome {
        object_accesses,
        object_hits,
        object_misses,
        object_spm,
        conflicts: recorder.into_conflicts(),
        cache_accesses: cache.hits() + cache.misses(),
        cache_hits: cache.hits(),
        cache_misses: cache.misses(),
        spm_accesses,
        main_word_accesses,
        writeback_word_accesses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep(object: usize, size: u32, times: usize) -> Vec<DataAccess> {
        let mut v = Vec::new();
        for _ in 0..times {
            for off in (0..size).step_by(4) {
                v.push(DataAccess {
                    object,
                    offset: off,
                });
            }
        }
        v
    }

    #[test]
    fn layout_is_line_aligned_and_disjoint() {
        let bases = data_layout(&[20, 64, 4], 16);
        assert_eq!(bases, vec![0, 32, 96]);
    }

    #[test]
    fn alternating_sweeps_thrash_and_are_attributed() {
        // Two 64 B arrays mapping to the same sets of a 64 B D-cache.
        let sizes = [64u32, 64];
        let mut acc = Vec::new();
        for _ in 0..5 {
            acc.extend(sweep(0, 64, 1));
            acc.extend(sweep(1, 64, 1));
        }
        let out = simulate_data(
            &DataTrace::new(acc),
            &sizes,
            &[false, false],
            CacheConfig::direct_mapped(64, 16),
        );
        assert!(out.check_access_identity());
        assert!(out.cache_misses > 8, "thrash expected");
        assert!(
            out.conflicts
                .misses_between
                .get(&(0, 1))
                .copied()
                .unwrap_or(0)
                > 0
        );
        assert!(
            out.conflicts
                .misses_between
                .get(&(1, 0))
                .copied()
                .unwrap_or(0)
                > 0
        );
    }

    #[test]
    fn spm_placement_eliminates_data_misses() {
        let sizes = [64u32, 64];
        let mut acc = Vec::new();
        for _ in 0..5 {
            acc.extend(sweep(0, 64, 1));
            acc.extend(sweep(1, 64, 1));
        }
        let out = simulate_data(
            &DataTrace::new(acc),
            &sizes,
            &[true, false],
            CacheConfig::direct_mapped(64, 16),
        );
        assert!(out.check_access_identity());
        assert_eq!(out.object_misses[0], 0);
        assert!(out.object_spm[0] > 0);
        // Object 1 alone: only cold misses remain.
        assert_eq!(out.conflicts.conflict_misses_of(1), 0);
        assert_eq!(out.object_misses[1], 4); // 64/16 cold fills
    }

    #[test]
    fn sequential_reuse_hits() {
        // One array swept repeatedly fits the cache: after the cold
        // pass everything hits.
        let out = simulate_data(
            &DataTrace::new(sweep(0, 64, 10)),
            &[64],
            &[false],
            CacheConfig::direct_mapped(128, 16),
        );
        assert_eq!(out.cache_misses, 4);
        assert_eq!(out.cache_hits, 10 * 16 - 4);
    }

    #[test]
    fn writebacks_counted_for_dirty_evictions() {
        use super::DataAccessKind::{Load, Store};
        // Store to line A, then evict it via a conflicting line B.
        let accesses = vec![
            DataAccess {
                object: 0,
                offset: 0,
            },
            DataAccess {
                object: 1,
                offset: 0,
            },
            DataAccess {
                object: 0,
                offset: 0,
            },
        ];
        let kinds = vec![Store, Load, Load];
        let out = simulate_data(
            &DataTrace::with_kinds(accesses, kinds),
            &[16, 16],
            &[false, false],
            CacheConfig::direct_mapped(16, 16), // 1 set: everything collides
        );
        // Object 1's fill evicted object 0's dirty line: 1 write-back.
        assert_eq!(out.writeback_word_accesses, 4);
        // Loads-only traces never write back.
        let out2 = simulate_data(
            &DataTrace::new(vec![
                DataAccess {
                    object: 0,
                    offset: 0,
                },
                DataAccess {
                    object: 1,
                    offset: 0,
                },
            ]),
            &[16, 16],
            &[false, false],
            CacheConfig::direct_mapped(16, 16),
        );
        assert_eq!(out2.writeback_word_accesses, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_object_panics() {
        simulate_data(
            &DataTrace::new(vec![DataAccess {
                object: 3,
                offset: 0,
            }]),
            &[8],
            &[false],
            CacheConfig::direct_mapped(64, 16),
        );
    }

    #[test]
    #[should_panic(expected = "outside object")]
    fn bad_offset_panics() {
        simulate_data(
            &DataTrace::new(vec![DataAccess {
                object: 0,
                offset: 64,
            }]),
            &[8],
            &[false],
            CacheConfig::direct_mapped(64, 16),
        );
    }
}
