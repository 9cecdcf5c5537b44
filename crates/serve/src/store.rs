//! Content-addressed result store: an exact-LRU memory front over an
//! optional checksum-verified disk layer.
//!
//! Determinism is what makes this sound: a [`ContentKey`] over a
//! request's canonical bytes *fully determines* the result bytes, so a
//! hit can be served forever without revalidation. The store is
//! therefore write-once per key — there is no invalidation path at all.
//!
//! Corruption tolerance: disk entries carry an FNV-1a checksum; a
//! truncated, bit-flipped or wrong-key file is deleted and reported as
//! a miss, and the service falls back to recomputing (which, again by
//! determinism, reproduces the identical bytes and rewrites the entry).

use crate::hash::ContentKey;
use st_sim::canon::{Canon, Dec, Enc};
use st_sim::hash::fnv1a64;
use std::collections::HashMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Magic prefix of on-disk cache entries.
pub const DISK_MAGIC: &[u8; 4] = b"STRC";
/// On-disk format version.
pub const DISK_VERSION: u8 = 1;

/// Monotonically-counted cache statistics (all `Relaxed`; they feed
/// `/metrics`, not control flow).
#[derive(Debug, Default)]
pub struct StoreStats {
    /// Hits served from the memory LRU.
    pub mem_hits: AtomicU64,
    /// Hits served from disk (after checksum verification).
    pub disk_hits: AtomicU64,
    /// Lookups that found nothing and forced a compute.
    pub misses: AtomicU64,
    /// Entries evicted from the memory LRU.
    pub evictions: AtomicU64,
    /// Disk entries rejected (bad magic/version/key/checksum/length)
    /// and deleted.
    pub corrupt_discards: AtomicU64,
}

struct MemEntry {
    bytes: Vec<u8>,
    /// Logical access clock value at last touch; the eviction victim is
    /// the minimum. O(capacity) scan — exact LRU, and at the default
    /// capacity (256) the scan is noise next to a single FNV pass.
    last_used: u64,
}

/// The store. All methods take `&self`; internal state is mutexed so
/// the worker pool and HTTP threads share one instance.
pub struct ResultStore {
    mem: Mutex<HashMap<ContentKey, MemEntry>>,
    clock: AtomicU64,
    capacity: usize,
    dir: Option<PathBuf>,
    /// Counters for `/metrics`.
    pub stats: StoreStats,
}

impl std::fmt::Debug for ResultStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultStore")
            .field("capacity", &self.capacity)
            .field("dir", &self.dir)
            .finish_non_exhaustive()
    }
}

impl ResultStore {
    /// A memory-only store holding at most `capacity` results.
    pub fn in_memory(capacity: usize) -> Self {
        ResultStore {
            mem: Mutex::new(HashMap::new()),
            clock: AtomicU64::new(0),
            capacity: capacity.max(1),
            dir: None,
            stats: StoreStats::default(),
        }
    }

    /// A store that also persists every result under `dir` (created on
    /// demand), surviving process restarts.
    pub fn with_dir(capacity: usize, dir: impl Into<PathBuf>) -> Self {
        let mut s = Self::in_memory(capacity);
        s.dir = Some(dir.into());
        s
    }

    /// The persistence directory, if any.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Looks `key` up: memory first, then disk (promoting a disk hit
    /// into memory). `None` means compute-and-[`put`](Self::put).
    pub fn get(&self, key: ContentKey) -> Option<Vec<u8>> {
        self.lookup(key, <[u8]>::to_vec)
    }

    /// Whether `key` is stored. The same lookup as [`get`](Self::get),
    /// minus the copy of the bytes: it touches the LRU, promotes a disk
    /// hit into memory and counts a hit or a miss exactly as `get` does.
    pub fn contains(&self, key: ContentKey) -> bool {
        self.lookup(key, |_| ()).is_some()
    }

    /// The one lookup path: `read` sees the bytes of a hit.
    fn lookup<T>(&self, key: ContentKey, read: impl FnOnce(&[u8]) -> T) -> Option<T> {
        {
            let mut mem = self.mem.lock().unwrap();
            if let Some(e) = mem.get_mut(&key) {
                e.last_used = self.clock.fetch_add(1, Ordering::Relaxed);
                self.stats.mem_hits.fetch_add(1, Ordering::Relaxed);
                return Some(read(&e.bytes));
            }
        }
        if let Some(bytes) = self.read_disk(key) {
            self.stats.disk_hits.fetch_add(1, Ordering::Relaxed);
            let out = read(&bytes);
            self.insert_mem(key, bytes);
            return Some(out);
        }
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Stores `bytes` under `key` in memory (evicting the LRU entry at
    /// capacity) and on disk when a directory is configured.
    pub fn put(&self, key: ContentKey, bytes: Vec<u8>) {
        self.write_disk(key, &bytes);
        self.insert_mem(key, bytes);
    }

    /// Number of entries currently resident in memory.
    pub fn mem_len(&self) -> usize {
        self.mem.lock().unwrap().len()
    }

    /// The keys currently resident in memory — the working set a
    /// departing cluster node hands off to the keys' new owners.
    /// (Disk-resident entries are not enumerated: determinism makes
    /// dropping them safe, the bytes recompute identically on demand.)
    pub fn mem_keys(&self) -> Vec<ContentKey> {
        self.mem.lock().unwrap().keys().copied().collect()
    }

    fn insert_mem(&self, key: ContentKey, bytes: Vec<u8>) {
        let mut mem = self.mem.lock().unwrap();
        let last_used = self.tick();
        if mem.len() >= self.capacity && !mem.contains_key(&key) {
            if let Some(victim) = mem.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| *k) {
                mem.remove(&victim);
                self.stats.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        mem.insert(key, MemEntry { bytes, last_used });
    }

    /// The store key of an engine checkpoint: domain-separated from
    /// result keys (an `STCK` tag) over the checkpoint's configuration
    /// hash and cycle. Determinism makes this sound for the same reason
    /// result caching is: `(configuration, cycle)` fully determines the
    /// canonical checkpoint bytes, so a cached blob can seed any
    /// prefix-forked run of that configuration forever.
    pub fn checkpoint_key(spec_hash: [u8; 16], cycle: u64) -> ContentKey {
        let mut e = Enc::with_capacity(28);
        e.raw(b"STCK");
        (spec_hash, cycle).put(&mut e);
        ContentKey::of(&e.into_bytes())
    }

    /// Looks up a cached checkpoint blob for `(spec_hash, cycle)`.
    ///
    /// Fail-closed: the returned blob's *embedded* configuration hash
    /// and cycle must echo the requested pair. A checksum-valid entry
    /// filed under the wrong key (a buggy writer, a copied cache file)
    /// would otherwise seed a resume of the wrong configuration — the
    /// one corruption the transport checksum cannot catch. Mismatches
    /// count as [`StoreStats::corrupt_discards`] and miss, so the
    /// caller recomputes from cycle 0 exactly like `resume` itself
    /// refuses a foreign checkpoint.
    pub fn get_checkpoint(&self, spec_hash: [u8; 16], cycle: u64) -> Option<Vec<u8>> {
        let bytes = self.get(Self::checkpoint_key(spec_hash, cycle))?;
        let embedded = synchro_tokens::Checkpoint::from_canonical_bytes(&bytes)
            .ok()
            .map(|c| (c.spec_hash(), c.cycle()));
        if embedded != Some((spec_hash, cycle)) {
            self.stats.corrupt_discards.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        Some(bytes)
    }

    /// Caches a checkpoint's canonical bytes under `(spec_hash, cycle)`.
    pub fn put_checkpoint(&self, spec_hash: [u8; 16], cycle: u64, bytes: Vec<u8>) {
        self.put(Self::checkpoint_key(spec_hash, cycle), bytes);
    }

    fn entry_path(&self, key: ContentKey) -> Option<PathBuf> {
        Some(self.dir.as_ref()?.join(format!("{}.stres", key.to_hex())))
    }

    /// Disk entry layout (all integers LE):
    /// `magic(4) version(1) key(16) payload_len(8) checksum(8) payload`.
    fn write_disk(&self, key: ContentKey, bytes: &[u8]) {
        let Some(path) = self.entry_path(key) else {
            return;
        };
        let Some(dir) = self.dir.as_ref() else {
            return;
        };
        if fs::create_dir_all(dir).is_err() {
            return;
        }
        let mut e = Enc::with_capacity(37 + bytes.len());
        e.raw(DISK_MAGIC);
        e.u8(DISK_VERSION);
        (key.0, bytes.len() as u64, fnv1a64(bytes)).put(&mut e);
        e.raw(bytes);
        let blob = e.into_bytes();
        // Write-to-temp + rename so a crash mid-write can never leave a
        // plausible-looking half entry under the final name.
        let tmp = path.with_extension("tmp");
        let ok = fs::File::create(&tmp)
            .and_then(|mut f| f.write_all(&blob))
            .and_then(|()| fs::rename(&tmp, &path));
        if ok.is_err() {
            let _ = fs::remove_file(&tmp);
        }
    }

    fn read_disk(&self, key: ContentKey) -> Option<Vec<u8>> {
        let path = self.entry_path(key)?;
        let blob = fs::read(&path).ok()?;
        match Self::decode_entry(key, &blob) {
            Some(payload) => Some(payload),
            None => {
                // Corrupt: discard so the recomputed entry replaces it.
                let _ = fs::remove_file(&path);
                self.stats.corrupt_discards.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn decode_entry(key: ContentKey, blob: &[u8]) -> Option<Vec<u8>> {
        let mut d = Dec::new(blob);
        d.magic(DISK_MAGIC).ok()?;
        let (version, entry_key, len, checksum) = <(u8, [u8; 16], u64, u64)>::get(&mut d).ok()?;
        if version != DISK_VERSION || entry_key != key.0 || len != d.remaining() as u64 {
            return None;
        }
        let payload = d.take(d.remaining()).ok()?;
        (fnv1a64(payload) == checksum).then(|| payload.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u8) -> ContentKey {
        ContentKey::of(&[n])
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("st-serve-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let store = ResultStore::in_memory(2);
        store.put(key(1), vec![1]);
        store.put(key(2), vec![2]);
        // Touch 1 so 2 becomes the LRU victim.
        assert_eq!(store.get(key(1)), Some(vec![1]));
        store.put(key(3), vec![3]);
        assert_eq!(store.mem_len(), 2);
        assert_eq!(store.get(key(2)), None, "victim was the LRU entry");
        assert_eq!(store.get(key(1)), Some(vec![1]));
        assert_eq!(store.get(key(3)), Some(vec![3]));
        assert_eq!(store.stats.evictions.load(Ordering::Relaxed), 1);
        assert_eq!(store.stats.misses.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn contains_counts_touches_and_promotes_like_get() {
        // Drive two stores through the same lookups, one with `get` and
        // one with `contains`: the counters, the LRU victim and the
        // disk promotion must agree.
        type Seen = ([bool; 4], [u64; 4], Vec<ContentKey>);
        fn drive(tag: &str, found: fn(&ResultStore, ContentKey) -> bool) -> Seen {
            let dir = tempdir(tag);
            let store = ResultStore::with_dir(2, &dir);
            store.put(key(1), vec![1]);
            store.put(key(2), vec![2]);
            store.put(key(3), vec![3]); // evicts key 1 from memory
            let hits = [
                found(&store, key(2)), // memory hit; key 3 is now the LRU
                found(&store, key(1)), // disk hit, promoted; evicts key 3
                found(&store, key(9)), // miss
                found(&store, key(1)), // memory hit after the promotion
            ];
            let s = &store.stats;
            let r = |a: &AtomicU64| a.load(Ordering::Relaxed);
            let mut resident = store.mem_keys();
            resident.sort_by_key(|k| k.0);
            let _ = fs::remove_dir_all(&dir);
            (
                hits,
                [
                    r(&s.mem_hits),
                    r(&s.disk_hits),
                    r(&s.misses),
                    r(&s.evictions),
                ],
                resident,
            )
        }
        let seen = [
            drive("probe-get", |s, k| s.get(k).is_some()),
            drive("probe-contains", ResultStore::contains),
        ];
        assert_eq!(seen[0], seen[1]);
        let mut resident = vec![key(1), key(2)];
        resident.sort_by_key(|k| k.0);
        assert_eq!(seen[0], ([true, true, false, true], [2, 1, 1, 2], resident));
    }

    #[test]
    fn reinserting_existing_key_does_not_evict() {
        let store = ResultStore::in_memory(2);
        store.put(key(1), vec![1]);
        store.put(key(2), vec![2]);
        store.put(key(2), vec![2, 2]);
        assert_eq!(store.mem_len(), 2);
        assert_eq!(store.stats.evictions.load(Ordering::Relaxed), 0);
        assert_eq!(store.get(key(2)), Some(vec![2, 2]));
    }

    #[test]
    fn disk_layer_survives_memory_eviction_and_restart() {
        let dir = tempdir("persist");
        let payload = vec![7u8; 100];
        {
            let store = ResultStore::with_dir(1, &dir);
            store.put(key(1), payload.clone());
            store.put(key(2), vec![8]); // evicts key 1 from memory
            assert_eq!(
                store.get(key(1)).as_deref(),
                Some(&payload[..]),
                "served from disk after eviction"
            );
            assert_eq!(store.stats.disk_hits.load(Ordering::Relaxed), 1);
        }
        // "Restart": a fresh store over the same directory.
        let store = ResultStore::with_dir(4, &dir);
        assert_eq!(store.get(key(1)).as_deref(), Some(&payload[..]));
        assert_eq!(store.stats.disk_hits.load(Ordering::Relaxed), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_disk_entries_are_discarded_not_served() {
        st_conformance::witnesses!(["ST-STORE-011"]);
        let dir = tempdir("corrupt");
        let store = ResultStore::with_dir(1, &dir);
        store.put(key(1), b"golden".to_vec());
        store.put(key(2), vec![0]); // push key 1 out of memory
        let path = store.entry_path(key(1)).unwrap();

        // Flip one payload bit on disk.
        let mut blob = fs::read(&path).unwrap();
        *blob.last_mut().unwrap() ^= 1;
        fs::write(&path, &blob).unwrap();
        assert_eq!(store.get(key(1)), None, "checksum mismatch is a miss");
        assert!(!path.exists(), "corrupt entry deleted");
        assert_eq!(store.stats.corrupt_discards.load(Ordering::Relaxed), 1);

        // Recompute path: the rewritten entry serves again.
        store.put(key(1), b"golden".to_vec());
        store.put(key(3), vec![0]);
        assert_eq!(store.get(key(1)).as_deref(), Some(&b"golden"[..]));

        // Truncation is also a miss. (The get above promoted key 1
        // back into memory; push it out first.)
        store.put(key(3), vec![0]);
        let blob = fs::read(&path).unwrap();
        fs::write(&path, &blob[..10]).unwrap();
        assert_eq!(store.get(key(1)), None);

        // A full entry filed under the wrong name (key echo mismatch).
        store.put(key(4), b"other".to_vec());
        fs::copy(
            store.entry_path(key(4)).unwrap(),
            store.entry_path(key(5)).unwrap(),
        )
        .unwrap();
        store.put(key(6), vec![0]);
        store.put(key(7), vec![0]); // ensure key 5 is not in memory
        assert_eq!(store.get(key(5)), None, "key echo must match file name");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_cache_round_trips_engine_blobs() {
        use synchro_tokens::prelude::*;
        use synchro_tokens::scenarios::{pingpong_spec, MixerLogic};

        let spec = pingpong_spec();
        let builder = || {
            let mut b = SystemBuilder::new(spec.clone())
                .unwrap()
                .with_trace_limit(64);
            for i in 0..spec.sbs.len() {
                b = b.with_logic(SbId(i), MixerLogic::new(0x1000 * i as u64));
            }
            b
        };
        let mut sys = builder().build_backend(Backend::Compiled);
        sys.run_until_cycles(12, st_sim::time::SimDuration::us(3000))
            .unwrap();
        let ckpt = sys.checkpoint().unwrap();

        let store = ResultStore::in_memory(4);
        assert_eq!(store.get_checkpoint(ckpt.spec_hash(), ckpt.cycle()), None);
        store.put_checkpoint(ckpt.spec_hash(), ckpt.cycle(), ckpt.to_canonical_bytes());
        let bytes = store
            .get_checkpoint(ckpt.spec_hash(), ckpt.cycle())
            .expect("cached checkpoint");
        let cached = synchro_tokens::Checkpoint::from_canonical_bytes(&bytes).unwrap();
        assert!(AnySystem::resume(builder(), &cached).is_ok());

        // The key is domain-separated and cycle-sensitive: a different
        // cycle is a different entry, and the raw payload's result key
        // can never collide with a checkpoint key.
        assert_eq!(
            store.get_checkpoint(ckpt.spec_hash(), ckpt.cycle() + 1),
            None
        );
        assert_ne!(
            ResultStore::checkpoint_key(ckpt.spec_hash(), ckpt.cycle()),
            ContentKey::of(&bytes)
        );
    }

    #[test]
    fn checkpoint_lookup_fails_closed_on_embedded_identity_mismatch() {
        st_conformance::witnesses!(["ST-STORE-012", "ST-CKPT-007"]);
        use synchro_tokens::prelude::*;
        use synchro_tokens::scenarios::{pingpong_spec, MixerLogic};

        let spec = pingpong_spec();
        let mut b = SystemBuilder::new(spec.clone())
            .unwrap()
            .with_trace_limit(64);
        for i in 0..spec.sbs.len() {
            b = b.with_logic(SbId(i), MixerLogic::new(0x1000 * i as u64));
        }
        let mut sys = b.build_backend(Backend::Event);
        sys.run_until_cycles(12, st_sim::time::SimDuration::us(3000))
            .unwrap();
        let ckpt = sys.checkpoint().unwrap();
        let bytes = ckpt.to_canonical_bytes();

        let store = ResultStore::in_memory(8);
        // A checksum-valid blob filed under the wrong cycle: the store
        // transport layer cannot see the problem (put/get agree on the
        // key), only the embedded identity check can.
        store.put_checkpoint(ckpt.spec_hash(), ckpt.cycle() + 5, bytes.clone());
        assert_eq!(
            store.get_checkpoint(ckpt.spec_hash(), ckpt.cycle() + 5),
            None,
            "embedded cycle mismatch must miss, not serve"
        );
        assert_eq!(store.stats.corrupt_discards.load(Ordering::Relaxed), 1);

        // Same blob under a foreign configuration hash.
        let mut other = ckpt.spec_hash();
        other[0] ^= 0xFF;
        store.put_checkpoint(other, ckpt.cycle(), bytes.clone());
        assert_eq!(store.get_checkpoint(other, ckpt.cycle()), None);
        assert_eq!(store.stats.corrupt_discards.load(Ordering::Relaxed), 2);

        // Garbage that decodes as no checkpoint at all also misses.
        store.put_checkpoint(ckpt.spec_hash(), 99, b"not a checkpoint".to_vec());
        assert_eq!(store.get_checkpoint(ckpt.spec_hash(), 99), None);
        assert_eq!(store.stats.corrupt_discards.load(Ordering::Relaxed), 3);

        // The honestly-filed entry still serves.
        store.put_checkpoint(ckpt.spec_hash(), ckpt.cycle(), bytes.clone());
        assert_eq!(
            store.get_checkpoint(ckpt.spec_hash(), ckpt.cycle()),
            Some(bytes)
        );
        assert_eq!(store.stats.corrupt_discards.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn unwritable_dir_degrades_to_memory_only() {
        let store = ResultStore::with_dir(4, "/proc/definitely-not-writable/st-serve");
        store.put(key(1), vec![1]);
        assert_eq!(store.get(key(1)), Some(vec![1]), "memory front still works");
    }
}
