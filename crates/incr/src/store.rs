//! The memo [`Store`]: per-task cached fingerprints and outputs, plus
//! the content-hash primitives that define what "unchanged" means.
//!
//! The store is the PIE-style half of the incremental layer: one
//! [`TaskRecord`] per task key, remembering the **fingerprint** the
//! task last ran under and the **output contents** it produced. A
//! re-run validates a task by recomputing its fingerprint from current
//! input contents — if it matches, the cached outputs are spliced in
//! and the task is *not* resubmitted (early cutoff); if not, the task
//! re-executes and the record is refreshed.
//!
//! Everything is expressed over simulated 64-bit *contents*: every
//! (resource, version) has a `u64` content, initial contents derive
//! from a per-resource seed, and task outputs are a pure function of
//! the task's function pointer and its input contents. Fingerprints
//! hash **contents and resource names, never version numbers** — a
//! structural edit that renumbers versions without changing any
//! producer relationship or content is therefore invisible to
//! validation, which is exactly the early-cutoff property the
//! edit-sequence differential pins down.
//!
//! The hash primitives ([`initial_contents`], [`task_output`],
//! [`fingerprint`]) are public: they are the *contract* between the
//! incremental layer and the differential oracle, which shares the
//! hashes but independently re-implements resolution, ordering, and
//! invalidation. The crate's re-run path uses their `_hashed` forms,
//! which take the resource name's [`hash_bytes`] instead of the name:
//! it keeps one name hash per resource and never re-hashes a string.
//! The named forms are defined through them, so both give
//! bit-identical values.
//!
//! The crate's own maps, keyed by task keys and `(resource, version)`
//! pairs, hash with a fixed integer hasher (`IntHasher`): the keys come
//! from the caller's own program, so a fast deterministic hash replaces
//! the default DoS-resistant SipHash on the per-task re-run path.

use nexuspp_core::Priority;
use nexuspp_frontend::ResourceId;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// 64-bit FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// 64-bit FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Deterministic 64-bit hash of a byte string (FNV-1a), the base
/// primitive every content hash builds on. Stable across runs,
/// platforms, and — crucially — across the incremental layer and the
/// test oracle.
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Fold one more 64-bit word into a running hash.
pub fn hash_mix(h: u64, word: u64) -> u64 {
    let mut h = h;
    for b in word.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The simulated initial contents (version 0) of a resource: a pure
/// function of its *name* and the current initial-contents `seed`
/// (edited by `Edit::SetInitial`).
pub fn initial_contents(name: &str, seed: u64) -> u64 {
    initial_contents_hashed(hash_bytes(name.as_bytes()), seed)
}

/// [`initial_contents`] of the resource whose name hashes (by
/// [`hash_bytes`]) to `name_hash`.
pub(crate) fn initial_contents_hashed(name_hash: u64, seed: u64) -> u64 {
    hash_mix(name_hash, seed)
}

/// The simulated content a task writes to resource `name`: a pure
/// function of the task's `fptr`, the written resource's name, and the
/// task's input contents in declaration order. Deliberately **not** a
/// function of the task key — re-keying or re-tagging a task does not
/// change what it computes.
pub fn task_output(fptr: u64, name: &str, inputs: &[u64]) -> u64 {
    task_output_hashed(fptr, hash_bytes(name.as_bytes()), inputs.iter().copied())
}

/// [`task_output`] for the resource whose name hashes (by
/// [`hash_bytes`]) to `name_hash`, over inputs in declaration order.
pub(crate) fn task_output_hashed(
    fptr: u64,
    name_hash: u64,
    inputs: impl IntoIterator<Item = u64>,
) -> u64 {
    inputs.into_iter().fold(hash_mix(name_hash, fptr), hash_mix)
}

/// The validation fingerprint of one task execution: hashes the
/// simulated function (`fptr`), the priority, each read as
/// `(resource-name hash, content)` in declaration order, and each
/// written resource's name hash. Version numbers are absent on
/// purpose — see the [module docs](self).
pub fn fingerprint(
    fptr: u64,
    priority: Priority,
    reads: &[(u64, u64)],
    write_names: &[u64],
) -> u64 {
    let mut h = hash_mix(FNV_OFFSET, fptr);
    h = hash_mix(h, priority as u64);
    h = hash_mix(h, reads.len() as u64);
    for &(name_hash, content) in reads {
        h = hash_mix(h, name_hash);
        h = hash_mix(h, content);
    }
    for &name_hash in write_names {
        h = hash_mix(h, name_hash);
    }
    h
}

/// A fixed multiply-rotate hasher for the crate's integer-keyed maps
/// (task keys, `(ResourceId, Version)` pairs): a couple of
/// instructions per word where SipHash spends dozens. Deterministic and
/// not collision-resistant against chosen keys — the keys are the
/// caller's own program, never untrusted input.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct IntHasher(u64);

/// Odd multiplier with well-spread bits (the golden-ratio constant).
const INT_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

impl IntHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(INT_MUL);
    }
}

impl Hasher for IntHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // The table indexes buckets by the low bits; fold the
        // well-mixed high bits down into them.
        self.0 ^ (self.0 >> 32)
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// A `HashMap` hashed by [`IntHasher`].
pub(crate) type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;
/// A `HashSet` hashed by [`IntHasher`].
pub(crate) type IntSet<K> = HashSet<K, BuildHasherDefault<IntHasher>>;

/// One task's memo: the fingerprint it last validated or ran under and
/// the contents it produced, keyed by the written resource's id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskRecord {
    /// Fingerprint of the last consistent execution (see
    /// [`fingerprint`]).
    pub fingerprint: u64,
    /// Content produced per written resource. Keyed by [`ResourceId`]
    /// (stable across edits), **not** by version (renumbered by
    /// structural edits).
    pub outputs: Vec<(ResourceId, u64)>,
}

impl TaskRecord {
    /// The cached content this task wrote to `r`, if it writes `r`.
    pub fn output(&self, r: ResourceId) -> Option<u64> {
        self.outputs.iter().find(|&&(o, _)| o == r).map(|&(_, c)| c)
    }
}

/// The memo store: task key → [`TaskRecord`]. An empty store makes
/// every task dirty, so a from-scratch run is just the degenerate case
/// of an incremental one.
///
/// The store has a **single writer**: it is mutated only through
/// `IncrementalProgram`'s `&mut self` re-run path, never from executor
/// threads (executors receive pre-planned submissions and report back;
/// the store commit happens on the caller's thread).
#[derive(Debug, Clone, Default)]
pub struct Store {
    records: IntMap<u64, TaskRecord>,
}

impl Store {
    /// An empty store (everything dirty).
    pub fn new() -> Store {
        Store::default()
    }

    /// The record for task `key`, if it has ever run.
    pub fn record(&self, key: u64) -> Option<&TaskRecord> {
        self.records.get(&key)
    }

    /// Insert or replace the record for `key`.
    pub fn put(&mut self, key: u64, record: TaskRecord) {
        self.records.insert(key, record);
    }

    /// Replace the record for `key` in place, reusing its outputs
    /// buffer: the re-run path's refresh of an invalidated task.
    pub(crate) fn refresh(
        &mut self,
        key: u64,
        fingerprint: u64,
        outputs: impl IntoIterator<Item = (ResourceId, u64)>,
    ) {
        let rec = self.records.entry(key).or_insert_with(|| TaskRecord {
            fingerprint,
            outputs: Vec::new(),
        });
        rec.fingerprint = fingerprint;
        rec.outputs.clear();
        rec.outputs.extend(outputs);
    }

    /// Drop the record for `key` (the task was removed or must re-run
    /// unconditionally). Returns `true` if a record existed.
    pub fn evict(&mut self, key: u64) -> bool {
        self.records.remove(&key).is_some()
    }

    /// Drop everything: the next re-run is from scratch.
    pub fn clear(&mut self) {
        self.records.clear();
    }

    /// Number of memoized tasks.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// No memoized tasks at all?
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashes_are_deterministic_and_name_sensitive() {
        assert_eq!(hash_bytes(b"grid"), hash_bytes(b"grid"));
        assert_ne!(hash_bytes(b"grid"), hash_bytes(b"grip"));
        assert_ne!(initial_contents("a", 0), initial_contents("a", 1));
        assert_ne!(initial_contents("a", 0), initial_contents("b", 0));
    }

    #[test]
    fn task_output_depends_on_fptr_and_inputs_only() {
        let a = task_output(0x10, "out", &[1, 2]);
        assert_eq!(a, task_output(0x10, "out", &[1, 2]));
        assert_ne!(a, task_output(0x11, "out", &[1, 2]));
        assert_ne!(a, task_output(0x10, "out", &[2, 1]), "input order matters");
        assert_ne!(a, task_output(0x10, "out2", &[1, 2]));
    }

    #[test]
    fn hashed_forms_equal_the_named_primitives() {
        for name in ["", "a", "grid", "cell/0123456789abcdef"] {
            let h = hash_bytes(name.as_bytes());
            for seed in [0, 1, u64::MAX] {
                assert_eq!(
                    initial_contents(name, seed),
                    initial_contents_hashed(h, seed)
                );
            }
            for inputs in [&[][..], &[7], &[1, 2, 3]] {
                assert_eq!(
                    task_output(0x10, name, inputs),
                    task_output_hashed(0x10, h, inputs.iter().copied())
                );
            }
        }
    }

    #[test]
    fn int_maps_key_tasks_and_versions() {
        let mut m: IntMap<(ResourceId, u32), u64> = IntMap::default();
        for r in 0..64u32 {
            for v in 0..64u32 {
                m.insert((ResourceId(r), v), u64::from(r * 64 + v));
            }
        }
        assert_eq!(m.len(), 64 * 64);
        assert_eq!(m[&(ResourceId(3), 5)], 3 * 64 + 5);
        let s: IntSet<u64> = (0..1000).map(|k| k * 4096).collect();
        assert!(s.contains(&4096) && !s.contains(&4097));
    }

    #[test]
    fn fingerprint_sees_contents_not_versions() {
        let n = hash_bytes(b"x");
        let f = fingerprint(7, Priority::Normal, &[(n, 100)], &[n]);
        // Same contents, same fingerprint — no version number anywhere
        // to disagree on.
        assert_eq!(f, fingerprint(7, Priority::Normal, &[(n, 100)], &[n]));
        assert_ne!(f, fingerprint(7, Priority::Normal, &[(n, 101)], &[n]));
        assert_ne!(f, fingerprint(7, Priority::High, &[(n, 100)], &[n]));
        assert_ne!(f, fingerprint(8, Priority::Normal, &[(n, 100)], &[n]));
    }

    #[test]
    fn store_roundtrips_and_evicts() {
        let mut s = Store::new();
        assert!(s.is_empty());
        let rec = TaskRecord {
            fingerprint: 42,
            outputs: vec![(ResourceId(3), 99)],
        };
        s.put(7, rec.clone());
        assert_eq!(s.len(), 1);
        assert_eq!(s.record(7), Some(&rec));
        assert_eq!(s.record(7).unwrap().output(ResourceId(3)), Some(99));
        assert_eq!(s.record(7).unwrap().output(ResourceId(4)), None);
        assert!(s.evict(7));
        assert!(!s.evict(7));
        s.put(1, rec);
        s.clear();
        assert!(s.is_empty());
    }
}
