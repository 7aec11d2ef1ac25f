//! The prepared-search cache: compiled guide sets are the expensive half
//! of a query (pattern tables, automata, register banks), so the daemon
//! keeps the most recently used ones and lets every worker scan through
//! a shared [`PreparedSearch`] without recompiling.

use crispr_core::Platform;
use crispr_engines::PreparedSearch;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// FNV-1a over `bytes` — stable, dependency-free, and good enough to key
/// a small cache (collisions only cost a wrong hit-set, prevented by the
/// full key equality check alongside the hash).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// What makes two queries share a compiled search: the same guide set
/// (hashed over its canonical serialized form), budget, and engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CacheKey {
    pub guides_hash: u64,
    pub k: usize,
    pub engine: Platform,
}

/// One cached compile: the reusable searcher plus what compiling it
/// cost, so a miss can charge `guide_compile_s` honestly while hits
/// charge nothing.
pub(crate) struct PreparedEntry {
    pub prepared: Box<dyn PreparedSearch>,
    pub compile_s: f64,
}

/// A small LRU over `(key, entry)` pairs. A `Vec` with move-to-front is
/// plenty at daemon cache sizes (tens of entries, each hiding a compile
/// that costs milliseconds) and keeps eviction order trivially auditable.
pub(crate) struct PreparedCache {
    entries: Mutex<Vec<(CacheKey, Arc<PreparedEntry>)>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PreparedCache {
    pub fn new(capacity: usize) -> PreparedCache {
        PreparedCache {
            entries: Mutex::new(Vec::new()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Looks `key` up, counting a hit (and refreshing recency) or a miss.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<PreparedEntry>> {
        let mut entries = self.entries.lock().unwrap();
        match entries.iter().position(|(k, _)| k == key) {
            Some(i) => {
                let pair = entries.remove(i);
                let entry = Arc::clone(&pair.1);
                entries.insert(0, pair);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts (or refreshes) `key`, evicting the least recently used
    /// entry past capacity. Two workers racing the same miss both
    /// compile — wasteful but correct — and the second insert wins.
    pub fn insert(&self, key: CacheKey, entry: Arc<PreparedEntry>) {
        let mut entries = self.entries.lock().unwrap();
        entries.retain(|(k, _)| k != &key);
        entries.insert(0, (key, entry));
        entries.truncate(self.capacity);
    }

    pub fn len(&self) -> usize {
        self.entries.lock().unwrap().len()
    }

    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crispr_engines::{Engine, ScalarEngine};
    use crispr_guides::{Guide, Pam};

    fn entry() -> Arc<PreparedEntry> {
        let guide = Guide::new("g", "GATTACAGATTACAGATTAC".parse().unwrap(), Pam::ngg()).unwrap();
        let prepared = ScalarEngine::new().prepare(std::slice::from_ref(&guide), 1).unwrap();
        Arc::new(PreparedEntry { prepared, compile_s: 0.001 })
    }

    fn key(n: u64) -> CacheKey {
        CacheKey { guides_hash: n, k: 3, engine: Platform::CpuScalar }
    }

    #[test]
    fn hit_and_miss_counters_track_lookups() {
        let cache = PreparedCache::new(4);
        assert!(cache.get(&key(1)).is_none());
        cache.insert(key(1), entry());
        assert!(cache.get(&key(1)).is_some());
        assert!(cache.get(&key(2)).is_none());
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
    }

    #[test]
    fn eviction_is_least_recently_used() {
        let cache = PreparedCache::new(2);
        cache.insert(key(1), entry());
        cache.insert(key(2), entry());
        assert!(cache.get(&key(1)).is_some()); // 1 now most recent
        cache.insert(key(3), entry()); // evicts 2
        assert!(cache.get(&key(2)).is_none());
        assert!(cache.get(&key(1)).is_some());
        assert!(cache.get(&key(3)).is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn keys_differ_by_budget_and_engine() {
        let a = CacheKey { guides_hash: 9, k: 3, engine: Platform::CpuScalar };
        let b = CacheKey { guides_hash: 9, k: 4, engine: Platform::CpuScalar };
        let c = CacheKey { guides_hash: 9, k: 3, engine: Platform::CpuBitParallel };
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a(b"guide-a"), fnv1a(b"guide-b"));
    }
}
