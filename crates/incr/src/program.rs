//! The [`IncrementalProgram`]: an editable, memoized task program.
//!
//! An `IncrementalProgram` is the mutable counterpart of the frontend's
//! append-only [`Program`](nexuspp_frontend::Program): it holds the
//! *current* set of task declarations keyed by a caller-chosen stable
//! task key, accepts [`Edit`]s (change a resource's initial contents,
//! add / remove / retarget a task), and — through the re-run path in
//! [`crate::exec`] — resubmits **only the invalidated cone** to a
//! backend, splicing memoized outputs in for everything still clean.
//!
//! # How edits commit
//!
//! The program keeps its resolution current in place, the way a
//! Nexus++ Dependence Table is updated per task rather than rebuilt:
//!
//! * every declaration carries a stable **sequence number** — `AddTask`
//!   appends a fresh one, `Retarget` keeps it — which fixes its place in
//!   declaration order;
//! * each resource has a **timeline** of its writers (sequence → minted
//!   version) and of the tasks that read its latest version, so "latest
//!   version at declaration" is a predecessor lookup;
//! * a `(resource, version)` → readers index, the producer map, and the
//!   true-dependency (RAW) edges — held by the order maintainer — stay
//!   current across edits.
//!
//! A structural edit re-binds (resolves afresh, with the frontend's
//! rules: reads bind to latest-at-declaration, writes mint versions)
//! only the edited tasks and the tasks declared after the first change
//! on any resource whose writer set changed — renumbering that suffix is
//! what the versioning semantics require. Its edge delta comes from
//! those re-bindings and from the readers of renumbered versions alone,
//! and is fed *incrementally* to the Pearce–Kelly order maintainer
//! ([`DynamicTopo`]). Everything is staged read-only first; only if
//! every pinned read has a producer and every inserted edge is acyclic
//! does the edit commit. A cycle-creating edit is rejected at
//! declaration time with [`IncrError::Cycle`], the order maintainer
//! rolled back, and the declarations, bindings, producers, edges, dirty
//! marks and memo store left exactly as they were. An edit therefore
//! pays for the re-bound tasks and the affected region of the order,
//! never for the whole program; [`IncrReport::rebind_ops`] and
//! [`IncrReport::order_maintenance_ops`] count both.
//!
//! [`IncrReport::rebind_ops`]: crate::IncrReport::rebind_ops
//! [`IncrReport::order_maintenance_ops`]: crate::IncrReport::order_maintenance_ops
//!
//! # Resource identity
//!
//! Resource names are interned once, in first-mention order, and the
//! interner only ever grows — so a [`ResourceId`] is stable across
//! every edit, and the memo store can key cached outputs by it.
//! Reading a resource that no current task writes is always legal: it
//! binds to version 0, the resource's initial contents (a deliberate
//! divergence from the bare frontend, where a never-mentioned name is an
//! error).

use crate::exec::WarmRuntime;
use crate::order::{DynamicTopo, OrderError};
use crate::store::{self, IntMap, IntSet, Store};
use nexuspp_core::Priority;
use nexuspp_frontend::{ResourceId, TaskDecl, Version};
use nexuspp_obs::{CounterGroup, MetricsRegistry};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

/// One declared access in an [`Edit`] — the name-based form the
/// frontend's builder accepts, kept symbolic so declarations can be
/// re-bound after any edit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Access {
    /// Read the resource's latest version as of this declaration.
    Read(String),
    /// Read a pinned version (0 = initial contents; pins may name
    /// versions minted by later tasks, which is how edits can create —
    /// and the order maintainer must reject — cycles).
    ReadVersion(String, Version),
    /// Write the resource, minting a fresh version.
    Write(String),
    /// Read the latest version, then mint a fresh one.
    ReadWrite(String),
}

impl Access {
    /// The resource name this access touches.
    pub fn name(&self) -> &str {
        match self {
            Access::Read(n)
            | Access::ReadVersion(n, _)
            | Access::Write(n)
            | Access::ReadWrite(n) => n,
        }
    }
}

/// One edit to an [`IncrementalProgram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Edit {
    /// Change a resource's initial contents (version 0). Dirties every
    /// current reader of version 0 of that resource.
    SetInitial {
        /// Resource name (interned on first mention).
        resource: String,
        /// New initial-contents seed.
        seed: u64,
    },
    /// Add a task under a fresh key, appended in declaration order.
    AddTask {
        /// Caller-chosen stable key (also the backend tag). Must be
        /// unused.
        key: u64,
        /// Simulated function pointer.
        fptr: u64,
        /// Scheduling priority.
        priority: Priority,
        /// The task's declared accesses.
        accesses: Vec<Access>,
    },
    /// Remove the task under `key`; its memo is evicted and downstream
    /// readers re-bind.
    RemoveTask {
        /// Key of the task to remove.
        key: u64,
    },
    /// Replace the access list of the task under `key` (retarget which
    /// resources it reads/writes), keeping its key, fptr, and priority.
    Retarget {
        /// Key of the task to retarget.
        key: u64,
        /// The replacement access list.
        accesses: Vec<Access>,
    },
}

/// Errors surfaced when an [`Edit`] is applied. A failed edit commits
/// **nothing**: declarations, memo store, and maintained order are
/// exactly as before.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IncrError {
    /// `AddTask` reused a key that is already declared.
    DuplicateKey(u64),
    /// `RemoveTask` / `Retarget` named a key that is not declared.
    UnknownKey(u64),
    /// A pinned read names a version no current task mints.
    UnknownProducer {
        /// The resource read.
        resource: String,
        /// The version nobody writes.
        version: Version,
        /// Key of the reading task.
        reader: u64,
    },
    /// The edit would close a dependency cycle; rejected at declaration
    /// time by the online order maintainer.
    Cycle {
        /// Producer end of the rejected edge.
        from: u64,
        /// Consumer end of the rejected edge.
        to: u64,
    },
}

impl fmt::Display for IncrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IncrError::DuplicateKey(k) => write!(f, "task key {k} is already declared"),
            IncrError::UnknownKey(k) => write!(f, "no task is declared under key {k}"),
            IncrError::UnknownProducer {
                resource,
                version,
                reader,
            } => write!(
                f,
                "task {reader} reads {resource:?} version {version}, which no task produces"
            ),
            IncrError::Cycle { from, to } => write!(
                f,
                "edit would close a dependency cycle through edge {from} -> {to}"
            ),
        }
    }
}

impl std::error::Error for IncrError {}

/// Payload size of every resource on lowered parameters: the frontend's
/// default (`Program::resource`), which every declaration here uses.
pub(crate) const RESOURCE_SIZE: u32 = 64;

/// One symbolic task declaration (pre-resolution) and its place in
/// declaration order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct DeclSpec {
    /// Declaration sequence number: `AddTask` appends a fresh one and
    /// `Retarget` keeps it, so declarations never move relative to
    /// each other.
    pub(crate) seq: u64,
    pub(crate) fptr: u64,
    pub(crate) priority: Priority,
    pub(crate) accesses: Vec<Access>,
}

impl DeclSpec {
    /// Names this declaration writes (`Write` / `ReadWrite`).
    fn written(&self) -> impl Iterator<Item = &str> {
        self.accesses.iter().filter_map(|a| match a {
            Access::Write(n) | Access::ReadWrite(n) => Some(n.as_str()),
            _ => None,
        })
    }

    /// Names this declaration reads at their latest version (`Read` /
    /// `ReadWrite`).
    fn reads_latest(&self) -> impl Iterator<Item = &str> {
        self.accesses.iter().filter_map(|a| match a {
            Access::Read(n) | Access::ReadWrite(n) => Some(n.as_str()),
            _ => None,
        })
    }
}

/// One resource's history in declaration order.
#[derive(Debug, Default)]
pub(crate) struct Timeline {
    /// Writers: declaration sequence → (task key, minted version).
    writers: BTreeMap<u64, (u64, Version)>,
    /// Tasks binding the latest version (`Read` / `ReadWrite`):
    /// declaration sequence → task key.
    latest_readers: BTreeMap<u64, u64>,
}

impl Timeline {
    /// The latest minted version (0 until first written).
    fn latest(&self) -> Version {
        self.writers.last_key_value().map_or(0, |(_, &(_, v))| v)
    }

    /// The version a latest-read declared at `seq` binds: the last one
    /// minted by an earlier declaration.
    fn latest_before(&self, seq: u64) -> Version {
        self.writers
            .range(..seq)
            .next_back()
            .map_or(0, |(_, &(_, v))| v)
    }
}

/// The rewritten tail of one resource's writer timeline: every writer
/// declared at or after `from`, renumbered from `base + 1`.
struct Suffix {
    /// Sequence of the earliest changed writer.
    from: u64,
    /// Version minted last before `from` (unchanged by the edit).
    base: Version,
    /// `(sequence, key)` of the tail's writers, in declaration order.
    writers: Vec<(u64, u64)>,
}

/// key → its declaration after a batch of structural edits (`None`:
/// removed).
type StagedDecls = BTreeMap<u64, Option<DeclSpec>>;

/// A structural batch, staged: everything its commit writes.
struct Delta {
    suffixes: IntMap<ResourceId, Suffix>,
    /// key → new resolution of every re-bound declaration.
    rebound: BTreeMap<u64, TaskDecl>,
    removed_nodes: Vec<u64>,
    added_nodes: Vec<u64>,
    removed_edges: Vec<(u64, u64)>,
    /// Sorted.
    added_edges: Vec<(u64, u64)>,
}

/// The program as a staged edit would leave it: the committed
/// timelines with the staged suffixes laid over them. Read-only, so a
/// rejected edit has nothing to undo.
struct Staged<'a> {
    ip: &'a IncrementalProgram,
    suffixes: IntMap<ResourceId, Suffix>,
}

impl Staged<'_> {
    fn latest_before(&self, r: ResourceId, seq: u64) -> Version {
        match self.suffixes.get(&r) {
            Some(s) if seq > s.from => {
                s.base + s.writers.partition_point(|&(w, _)| w < seq) as Version
            }
            _ => self.ip.timelines[r.0 as usize].latest_before(seq),
        }
    }

    /// The version the writer declared at `seq` mints on `r`.
    fn minted(&self, r: ResourceId, seq: u64) -> Version {
        match self.suffixes.get(&r) {
            Some(s) if seq >= s.from => {
                let i = s
                    .writers
                    .binary_search_by_key(&seq, |&(w, _)| w)
                    .expect("a staged writer sits in its resource's suffix");
                s.base + 1 + i as Version
            }
            _ => self.ip.timelines[r.0 as usize].writers[&seq].1,
        }
    }

    fn producer(&self, r: ResourceId, v: Version) -> Option<u64> {
        match self.suffixes.get(&r) {
            Some(s) if v > s.base => s.writers.get((v - s.base - 1) as usize).map(|&(_, k)| k),
            _ => self.ip.producers.get(&(r, v)).copied(),
        }
    }

    /// Bind one declaration with the frontend's two passes: reads (a
    /// `ReadWrite` included) bind the latest version declared before
    /// it, or their pin, deduplicated; then each written resource mints
    /// one version.
    fn resolve(&self, key: u64, d: &DeclSpec) -> TaskDecl {
        let id = |n: &str| self.ip.by_name[n];
        let mut reads: Vec<(ResourceId, Version)> = Vec::new();
        for a in &d.accesses {
            let rv = match a {
                Access::Read(n) | Access::ReadWrite(n) => {
                    let r = id(n);
                    (r, self.latest_before(r, d.seq))
                }
                Access::ReadVersion(n, v) => (id(n), *v),
                Access::Write(_) => continue,
            };
            if !reads.contains(&rv) {
                reads.push(rv);
            }
        }
        let mut writes: Vec<(ResourceId, Version)> = Vec::new();
        for n in d.written() {
            let r = id(n);
            if !writes.iter().any(|&(w, _)| w == r) {
                writes.push((r, self.minted(r, d.seq)));
            }
        }
        TaskDecl {
            tag: key,
            fptr: d.fptr,
            priority: d.priority,
            reads,
            writes,
        }
    }
}

/// An editable, memoized program of resource-declaring tasks. See the
/// [module docs](self) for the commit/rollback discipline and
/// [`crate::exec`] for re-running it on a backend.
///
/// ```
/// use nexuspp_incr::{Access, Edit, IncrementalProgram};
///
/// let mut ip = IncrementalProgram::new();
/// ip.edit(Edit::AddTask {
///     key: 0,
///     fptr: 0x10,
///     priority: Default::default(),
///     accesses: vec![
///         Access::Read("in".into()),
///         Access::Write("out".into()),
///     ],
/// })
/// .unwrap();
/// assert_eq!(ip.len(), 1);
/// // Editing "in"'s initial contents dirties the reader.
/// ip.edit(Edit::SetInitial { resource: "in".into(), seed: 7 }).unwrap();
/// assert_eq!(ip.dirty_cone(), vec![0]);
/// ```
pub struct IncrementalProgram {
    /// Interned resource names, first-mention order; grows only.
    pub(crate) interner: Vec<String>,
    pub(crate) by_name: HashMap<String, ResourceId>,
    /// Per-resource name hash (parallel to `interner`).
    pub(crate) name_hashes: Vec<u64>,
    /// Per-resource initial-contents seed (parallel to `interner`).
    pub(crate) seeds: Vec<u64>,
    /// Per-resource writer and latest-reader timelines (parallel to
    /// `interner`).
    pub(crate) timelines: Vec<Timeline>,
    /// key → current symbolic declaration.
    pub(crate) decls: IntMap<u64, DeclSpec>,
    /// Sequence number the next `AddTask` receives.
    pub(crate) next_seq: u64,
    /// key → resolved declaration.
    pub(crate) resolved: IntMap<u64, TaskDecl>,
    /// (resource, version) → minting task key.
    pub(crate) producers: IntMap<(ResourceId, Version), u64>,
    /// (resource, version) → keys of the tasks whose resolved reads
    /// include it.
    pub(crate) readers: IntMap<(ResourceId, Version), Vec<u64>>,
    /// The incrementally maintained topological order over task keys;
    /// its edges are exactly the current true-dependency edges.
    pub(crate) topo: DynamicTopo<u64>,
    /// The memo store (single writer: this struct, on the caller's
    /// thread).
    pub(crate) store: Store,
    /// Keys dirtied by edits since the last re-run.
    pub(crate) touched: BTreeSet<u64>,
    /// Live counters, if attached via
    /// [`register_metrics`](Self::register_metrics).
    pub(crate) metrics: Option<Arc<CounterGroup>>,
    /// `topo.ops()` as of the last report (for per-run deltas).
    pub(crate) ops_reported: u64,
    /// Declarations re-bound by committed edits since the last report.
    pub(crate) rebinds: u64,
    /// The threaded runtime the last [`Backend::Runtime`] re-run used,
    /// kept alive for the next one with the same shape (see
    /// [`crate::exec`]); joined when the program drops.
    ///
    /// [`Backend::Runtime`]: crate::Backend::Runtime
    pub(crate) runtime: Option<WarmRuntime>,
}

impl Default for IncrementalProgram {
    fn default() -> Self {
        Self::new()
    }
}

/// Counter names in the group [`register_metrics`] registers.
/// `runtime_starts` counts the threaded runtimes the program started:
/// one per change of [`Backend::Runtime`] shape, not one per re-run.
///
/// [`register_metrics`]: IncrementalProgram::register_metrics
/// [`Backend::Runtime`]: crate::Backend::Runtime
pub const METRIC_NAMES: [&str; 7] = [
    "runs",
    "total",
    "dirtied",
    "reran",
    "reused",
    "order_ops",
    "runtime_starts",
];

impl IncrementalProgram {
    /// An empty program with an empty memo store (so the first re-run
    /// is the degenerate from-scratch case).
    pub fn new() -> IncrementalProgram {
        IncrementalProgram {
            interner: Vec::new(),
            by_name: HashMap::new(),
            name_hashes: Vec::new(),
            seeds: Vec::new(),
            timelines: Vec::new(),
            decls: IntMap::default(),
            next_seq: 0,
            resolved: IntMap::default(),
            producers: IntMap::default(),
            readers: IntMap::default(),
            topo: DynamicTopo::new(),
            store: Store::new(),
            touched: BTreeSet::new(),
            metrics: None,
            ops_reported: 0,
            rebinds: 0,
            runtime: None,
        }
    }

    /// Number of declared tasks.
    pub fn len(&self) -> usize {
        self.decls.len()
    }

    /// No tasks declared?
    pub fn is_empty(&self) -> bool {
        self.decls.is_empty()
    }

    /// The declared task keys, sorted.
    pub fn keys(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.decls.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// The current true-dependency edges, as sorted (producer key,
    /// consumer key) pairs.
    pub fn edges(&self) -> Vec<(u64, u64)> {
        self.topo.edges()
    }

    /// The resolved declaration of the task under `key`: its bound
    /// reads and minted writes. `None` if no such task is declared.
    pub fn decl(&self, key: u64) -> Option<&TaskDecl> {
        self.resolved.get(&key)
    }

    /// Key of the task minting version `v` of `r`, if any current task
    /// does.
    pub fn producer(&self, r: ResourceId, v: Version) -> Option<u64> {
        self.producers.get(&(r, v)).copied()
    }

    /// The latest minted version of resource `name` (0 until a current
    /// task writes it). `None` if the name was never mentioned.
    pub fn latest_version(&self, name: &str) -> Option<Version> {
        let &r = self.by_name.get(name)?;
        Some(self.timelines[r.0 as usize].latest())
    }

    /// The memo store (read-only; mutation goes through re-runs and
    /// edits).
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// The maintained topological order (read-only).
    pub fn topo(&self) -> &DynamicTopo<u64> {
        &self.topo
    }

    /// Keys dirtied by edits since the last re-run, sorted: the roots
    /// [`dirty_cone`](Self::dirty_cone) closes over.
    pub fn dirty_roots(&self) -> Vec<u64> {
        self.touched.iter().copied().collect()
    }

    /// Keys currently dirtied by edits plus their forward closure over
    /// the true-dependency edges — exactly the set the next
    /// [`rerun`](Self::rerun) will validate, in sorted key order.
    pub fn dirty_cone(&self) -> Vec<u64> {
        let mut cone: Vec<u64> = self.cone_in_order().into_iter().map(|(_, k)| k).collect();
        cone.sort_unstable();
        cone
    }

    /// The dirty cone as `(order index, key)` pairs sorted by the
    /// maintained order: the re-run's validation sequence. Each member's
    /// order index is looked up once, during the walk.
    pub(crate) fn cone_in_order(&self) -> Vec<(u64, u64)> {
        let ord = |k: u64| self.topo.ord(k).expect("cone keys are declared tasks");
        let mut seen: IntSet<u64> = self.touched.iter().copied().collect();
        let mut cone: Vec<(u64, u64)> = self.touched.iter().map(|&k| (ord(k), k)).collect();
        let mut stack: Vec<u64> = self.touched.iter().copied().collect();
        while let Some(k) = stack.pop() {
            for to in self.topo.successors(k) {
                if seen.insert(to) {
                    cone.push((ord(to), to));
                    stack.push(to);
                }
            }
        }
        cone.sort_unstable();
        cone
    }

    /// Drop every memo and dirty every task: the next re-run is a full
    /// from-scratch execution (the empty-store degenerate case).
    pub fn invalidate_all(&mut self) {
        self.store.clear();
        self.touched.extend(self.resolved.keys().copied());
    }

    /// Create the live counter group ([`METRIC_NAMES`]) and register it
    /// in `reg` under `group`. Each re-run adds that run's totals, so
    /// snapshots taken mid-session show the cumulative reuse funnel.
    pub fn register_metrics(&mut self, reg: &MetricsRegistry, group: &str) -> Arc<CounterGroup> {
        let g = self
            .metrics
            .get_or_insert_with(|| Arc::new(CounterGroup::new(&METRIC_NAMES)))
            .clone();
        g.register_in(reg, group);
        g
    }

    /// Intern `name`, returning its stable [`ResourceId`].
    pub(crate) fn intern(&mut self, name: &str) -> ResourceId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = ResourceId(self.interner.len() as u32);
        self.interner.push(name.to_string());
        self.name_hashes.push(store::hash_bytes(name.as_bytes()));
        self.seeds.push(0);
        self.timelines.push(Timeline::default());
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// The interned name of `r`.
    pub fn resource_name(&self, r: ResourceId) -> &str {
        &self.interner[r.0 as usize]
    }

    /// All interned resource names, in [`ResourceId`] order.
    pub fn resource_names(&self) -> &[String] {
        &self.interner
    }

    /// The simulated content of `(r, v)` as memoized: initial contents
    /// for version 0, the producer's cached output otherwise.
    ///
    /// # Panics
    ///
    /// Panics if the producer of a non-zero version has no memo yet —
    /// callers resolve contents only for versions whose producers are
    /// clean or already re-validated (the re-run walks in dependency
    /// order, which guarantees it).
    pub(crate) fn content_of(&self, r: ResourceId, v: Version) -> u64 {
        if v == 0 {
            return self.initial_content(r);
        }
        self.memo_output(self.producers[&(r, v)], r)
    }

    /// The current initial contents (version 0) of `r`, from its cached
    /// name hash.
    pub(crate) fn initial_content(&self, r: ResourceId) -> u64 {
        let i = r.0 as usize;
        store::initial_contents_hashed(self.name_hashes[i], self.seeds[i])
    }

    /// The memoized content task `p` wrote to `r`.
    pub(crate) fn memo_output(&self, p: u64, r: ResourceId) -> u64 {
        self.store
            .record(p)
            .expect("producer memoized before its consumers resolve")
            .output(r)
            .expect("producer record covers each written resource")
    }

    /// The current content of resource `name` (its latest version), as
    /// of the last re-run. `None` if the name was never mentioned.
    pub fn contents(&self, name: &str) -> Option<u64> {
        let &r = self.by_name.get(name)?;
        Some(self.content_of(r, self.timelines[r.0 as usize].latest()))
    }

    /// Final contents of every interned resource, in [`ResourceId`]
    /// order, as of the last re-run — the observable the edit-sequence
    /// differential compares against from-scratch execution and the
    /// oracle.
    pub fn final_contents(&self) -> Vec<(String, u64)> {
        self.interner
            .iter()
            .map(|n| (n.clone(), self.contents(n).expect("interned")))
            .collect()
    }

    /// Apply one [`Edit`]. On error, **nothing** changed — see the
    /// [module docs](self) for the staged-commit discipline.
    pub fn edit(&mut self, edit: Edit) -> Result<(), IncrError> {
        self.edit_batch([edit])
    }

    /// Apply several [`Edit`]s as one all-or-nothing transaction with a
    /// single staging pass and one order-maintenance diff — the bulk
    /// path for ingesting whole programs. Its cost is linear in the
    /// declarations it re-binds (an n-task build re-binds n). On any
    /// error the whole batch is rolled back.
    ///
    /// Later edits in the batch see earlier ones: an `AddTask` may
    /// reuse a key a preceding `RemoveTask` freed.
    pub fn edit_batch(&mut self, edits: impl IntoIterator<Item = Edit>) -> Result<(), IncrError> {
        let mut staged = StagedDecls::new();
        let mut edited_keys: Vec<u64> = Vec::new();
        let mut seed_updates: Vec<(String, u64)> = Vec::new();
        let mut next_seq = self.next_seq;
        // A key's declaration as the batch so far leaves it.
        fn current<'a>(
            staged: &'a StagedDecls,
            decls: &'a IntMap<u64, DeclSpec>,
            key: u64,
        ) -> Option<&'a DeclSpec> {
            match staged.get(&key) {
                Some(d) => d.as_ref(),
                None => decls.get(&key),
            }
        }
        for edit in edits {
            match edit {
                Edit::SetInitial { resource, seed } => {
                    seed_updates.push((resource, seed));
                }
                Edit::AddTask {
                    key,
                    fptr,
                    priority,
                    accesses,
                } => {
                    if current(&staged, &self.decls, key).is_some() {
                        return Err(IncrError::DuplicateKey(key));
                    }
                    let d = DeclSpec {
                        seq: next_seq,
                        fptr,
                        priority,
                        accesses,
                    };
                    next_seq += 1;
                    staged.insert(key, Some(d));
                    edited_keys.push(key);
                }
                Edit::RemoveTask { key } => {
                    if current(&staged, &self.decls, key).is_none() {
                        return Err(IncrError::UnknownKey(key));
                    }
                    staged.insert(key, None);
                }
                Edit::Retarget { key, accesses } => {
                    let Some(d) = current(&staged, &self.decls, key) else {
                        return Err(IncrError::UnknownKey(key));
                    };
                    let d = DeclSpec {
                        seq: d.seq,
                        fptr: d.fptr,
                        priority: d.priority,
                        accesses,
                    };
                    staged.insert(key, Some(d));
                    edited_keys.push(key);
                }
            }
        }
        if staged.is_empty() {
            // Seed-only batch: the resolution stays valid as it is.
            for (name, seed) in seed_updates {
                self.set_initial(&name, seed);
            }
            return Ok(());
        }
        self.commit_structural(staged, edited_keys, seed_updates, next_seq)
    }

    /// Set `name`'s initial-contents seed and dirty every current
    /// reader of its version 0.
    fn set_initial(&mut self, name: &str, seed: u64) {
        let r = self.intern(name);
        self.seeds[r.0 as usize] = seed;
        if let Some(readers) = self.readers.get(&(r, 0)) {
            self.touched.extend(readers.iter().copied());
        }
    }

    /// Commit a structural batch: stage it read-only, feed its edge
    /// delta to the order maintainer (rolled back on a cycle), then
    /// write declarations, timelines, bindings, seeds and dirty marks.
    fn commit_structural(
        &mut self,
        staged: StagedDecls,
        edited_keys: Vec<u64>,
        seed_updates: Vec<(String, u64)>,
        next_seq: u64,
    ) -> Result<(), IncrError> {
        // Intern every name the staged declarations mention, in
        // declaration order. The interner only grows, so this is safe
        // even if the edit is later rejected — ids already handed out
        // never move.
        let mut fresh: Vec<&DeclSpec> = staged.values().flatten().collect();
        fresh.sort_unstable_by_key(|d| d.seq);
        for d in fresh {
            for a in &d.accesses {
                self.intern(a.name());
            }
        }
        let delta = self.stage(&staged)?;
        self.apply_to_order(&delta)?;

        // Committed: write the staged state.
        for (r, s) in delta.suffixes {
            let tl = &mut self.timelines[r.0 as usize];
            for (_, (_, v)) in tl.writers.split_off(&s.from) {
                self.producers.remove(&(r, v));
            }
            for (i, (seq, key)) in s.writers.into_iter().enumerate() {
                let v = s.base + 1 + i as Version;
                tl.writers.insert(seq, (key, v));
                self.producers.insert((r, v), key);
            }
        }
        for (key, new) in staged {
            if let Some(old) = self.decls.remove(&key) {
                for n in old.reads_latest() {
                    let r = self.by_name[n];
                    self.timelines[r.0 as usize].latest_readers.remove(&old.seq);
                }
            }
            match new {
                Some(d) => {
                    for n in d.reads_latest() {
                        let r = self.by_name[n];
                        self.timelines[r.0 as usize]
                            .latest_readers
                            .insert(d.seq, key);
                    }
                    self.decls.insert(key, d);
                }
                None => {
                    if let Some(old) = self.resolved.remove(&key) {
                        self.unindex_reads(key, &old.reads);
                    }
                }
            }
        }
        // Dirty the edited tasks and every task whose resolved binding
        // changed — version numbers included, so a renumbered binding
        // lands in the structural cone and the content fingerprint then
        // decides whether anything *semantically* changed.
        self.rebinds += delta.rebound.len() as u64;
        for (key, new) in delta.rebound {
            match self.resolved.remove(&key) {
                Some(old) => {
                    if decl_changed(&old, &new) {
                        self.touched.insert(key);
                    }
                    self.unindex_reads(key, &old.reads);
                }
                None => {
                    self.touched.insert(key);
                }
            }
            for &rv in &new.reads {
                self.readers.entry(rv).or_default().push(key);
            }
            self.resolved.insert(key, new);
        }
        self.touched.extend(
            edited_keys
                .into_iter()
                .filter(|k| self.decls.contains_key(k)),
        );
        for (name, seed) in seed_updates {
            self.set_initial(&name, seed);
        }
        for &k in &delta.removed_nodes {
            self.store.evict(k);
            self.touched.remove(&k);
        }
        self.next_seq = next_seq;
        Ok(())
    }

    /// Stage a structural batch without mutating anything: the
    /// rewritten writer suffixes, the re-bound declarations, and the
    /// node and edge delta. Fails with the unbound pin a replay of the
    /// whole list in declaration order would report first.
    fn stage(&self, staged: &StagedDecls) -> Result<Delta, IncrError> {
        let view = Staged {
            ip: self,
            suffixes: self.suffixes(staged),
        };
        let present = |k: u64| staged.get(&k).is_none_or(Option::is_some);
        let spec = |k: u64| match staged.get(&k) {
            Some(d) => d.as_ref().expect("only present keys are re-bound"),
            None => &self.decls[&k],
        };

        // Re-bind the edited tasks and, on every resource whose writer
        // set changed, each later writer and latest-reader.
        let mut rebind: BTreeSet<u64> = staged
            .iter()
            .filter(|(_, d)| d.is_some())
            .map(|(&k, _)| k)
            .collect();
        for (&r, s) in &view.suffixes {
            let tl = &self.timelines[r.0 as usize];
            rebind.extend(s.writers.iter().map(|&(_, k)| k));
            rebind.extend(
                tl.latest_readers
                    .range(s.from..)
                    .map(|(_, &k)| k)
                    .filter(|&k| present(k)),
            );
        }
        let rebound: BTreeMap<u64, TaskDecl> = rebind
            .iter()
            .map(|&k| (k, view.resolve(k, spec(k))))
            .collect();

        // Consumers whose incoming edges may change: the re-bound, the
        // removed, and every reader of a renumbered version.
        let removed_nodes: Vec<u64> = staged
            .iter()
            .filter(|&(k, d)| d.is_none() && self.decls.contains_key(k))
            .map(|(&k, _)| k)
            .collect();
        let mut consumers = rebind;
        consumers.extend(removed_nodes.iter().copied());
        for (&r, s) in &view.suffixes {
            for v in s.base + 1..=self.timelines[r.0 as usize].latest() {
                consumers.extend(self.readers.get(&(r, v)).into_iter().flatten());
            }
        }
        let mut removed_edges: Vec<(u64, u64)> = Vec::new();
        let mut added_edges: Vec<(u64, u64)> = Vec::new();
        // (declaration sequence, error) of the earliest unbound pin.
        let mut missing: Option<(u64, IncrError)> = None;
        for &c in &consumers {
            let reads: &[(ResourceId, Version)] = match rebound.get(&c) {
                Some(d) => &d.reads,
                None if present(c) => &self.resolved[&c].reads,
                None => &[],
            };
            let mut new_in: BTreeSet<u64> = BTreeSet::new();
            for &(r, v) in reads.iter().filter(|&&(_, v)| v > 0) {
                match view.producer(r, v) {
                    Some(p) if p != c => {
                        new_in.insert(p);
                    }
                    Some(_) => {}
                    None => {
                        let seq = spec(c).seq;
                        if missing.as_ref().is_none_or(|&(s, _)| seq < s) {
                            let err = IncrError::UnknownProducer {
                                resource: self.interner[r.0 as usize].clone(),
                                version: v,
                                reader: c,
                            };
                            missing = Some((seq, err));
                        }
                        break;
                    }
                }
            }
            for p in self.topo.predecessors(c) {
                if !new_in.remove(&p) {
                    removed_edges.push((p, c));
                }
            }
            added_edges.extend(new_in.into_iter().map(|p| (p, c)));
        }
        if let Some((_, err)) = missing {
            return Err(err);
        }
        // Sorted, so the order maintainer sees insertions in one
        // deterministic order.
        added_edges.sort_unstable();
        let added_nodes: Vec<u64> = staged
            .iter()
            .filter(|&(k, d)| d.is_some() && !self.decls.contains_key(k))
            .map(|(&k, _)| k)
            .collect();
        Ok(Delta {
            suffixes: view.suffixes,
            rebound,
            removed_nodes,
            added_nodes,
            removed_edges,
            added_edges,
        })
    }

    /// The rewritten writer-timeline suffix of every resource a staged
    /// batch starts or stops writing.
    fn suffixes(&self, staged: &StagedDecls) -> IntMap<ResourceId, Suffix> {
        // Per resource: `(seq, Some(key))` joins its timeline,
        // `(seq, None)` leaves it.
        let mut changes: IntMap<ResourceId, Vec<(u64, Option<u64>)>> = IntMap::default();
        let written = |d: &DeclSpec| -> BTreeSet<ResourceId> {
            d.written().map(|n| self.by_name[n]).collect()
        };
        for (&key, new) in staged {
            let old = self.decls.get(&key);
            let (old_w, new_w) = (
                old.map(written).unwrap_or_default(),
                new.as_ref().map(written).unwrap_or_default(),
            );
            // A retarget keeps its sequence: only resources it starts
            // or stops writing change. A removal (or a re-add under a
            // fresh sequence) leaves every timeline it was on.
            let kept = matches!((old, new), (Some(o), Some(n)) if o.seq == n.seq);
            if let Some(o) = old {
                for &r in old_w.iter().filter(|&r| !(kept && new_w.contains(r))) {
                    changes.entry(r).or_default().push((o.seq, None));
                }
            }
            if let Some(n) = new {
                for &r in new_w.iter().filter(|&r| !(kept && old_w.contains(r))) {
                    changes.entry(r).or_default().push((n.seq, Some(key)));
                }
            }
        }
        changes
            .into_iter()
            .map(|(r, ops)| {
                let tl = &self.timelines[r.0 as usize];
                let from = ops.iter().map(|&(s, _)| s).min().expect("a change has ops");
                let mut tail: BTreeMap<u64, u64> = tl
                    .writers
                    .range(from..)
                    .map(|(&s, &(k, _))| (s, k))
                    .collect();
                for (s, op) in ops {
                    match op {
                        Some(k) => tail.insert(s, k),
                        None => tail.remove(&s),
                    };
                }
                let suffix = Suffix {
                    from,
                    base: tl.latest_before(from),
                    writers: tail.into_iter().collect(),
                };
                (r, suffix)
            })
            .collect()
    }

    /// Feed a staged delta to Pearce–Kelly. On a cycle, roll the order
    /// maintainer back and report the rejected edge.
    fn apply_to_order(&mut self, delta: &Delta) -> Result<(), IncrError> {
        for &(f, t) in &delta.removed_edges {
            self.topo.remove_edge(f, t);
        }
        for &n in &delta.removed_nodes {
            self.topo.remove_node(n);
        }
        for &n in &delta.added_nodes {
            self.topo.add_node(n);
        }
        for (i, &(f, t)) in delta.added_edges.iter().enumerate() {
            match self.topo.add_edge(f, t) {
                Ok(_) => {}
                Err(OrderError::Cycle { from, to }) => {
                    // Roll back in reverse: drop what we added, restore
                    // what we removed. Restoring edges that were valid
                    // before cannot cycle (the graph is a subgraph of
                    // the old one at that point).
                    for &(f2, t2) in &delta.added_edges[..i] {
                        self.topo.remove_edge(f2, t2);
                    }
                    for &n in &delta.added_nodes {
                        self.topo.remove_node(n);
                    }
                    for &n in &delta.removed_nodes {
                        self.topo.add_node(n);
                    }
                    for &(f2, t2) in &delta.removed_edges {
                        self.topo
                            .add_edge(f2, t2)
                            .expect("restoring previously valid edges cannot cycle");
                    }
                    return Err(IncrError::Cycle { from, to });
                }
                Err(OrderError::MissingNode(_)) => {
                    unreachable!("edge endpoints are declared tasks")
                }
            }
        }
        Ok(())
    }

    /// Drop `key` from the readers index of each of `reads`.
    fn unindex_reads(&mut self, key: u64, reads: &[(ResourceId, Version)]) {
        for rv in reads {
            let keys = self.readers.get_mut(rv).expect("indexed read");
            let i = keys.iter().position(|&k| k == key).expect("indexed reader");
            keys.swap_remove(i);
            if keys.is_empty() {
                self.readers.remove(rv);
            }
        }
    }
}

/// Did a task's resolved binding change across an edit? Version
/// numbers participate deliberately: a renumbered binding lands the
/// task in the structural cone, and the content-based fingerprint then
/// decides whether anything *semantically* changed (early cutoff).
fn decl_changed(old: &TaskDecl, new: &TaskDecl) -> bool {
    old.fptr != new.fptr
        || old.priority != new.priority
        || old.reads != new.reads
        || old.writes != new.writes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn add(key: u64, fptr: u64, accesses: Vec<Access>) -> Edit {
        Edit::AddTask {
            key,
            fptr,
            priority: Priority::Normal,
            accesses,
        }
    }

    #[test]
    fn adds_build_edges_and_duplicates_are_rejected() {
        let mut ip = IncrementalProgram::new();
        ip.edit(add(1, 0x10, vec![Access::Write("a".into())]))
            .unwrap();
        ip.edit(add(
            2,
            0x11,
            vec![Access::Read("a".into()), Access::Write("b".into())],
        ))
        .unwrap();
        assert_eq!(ip.edges(), vec![(1, 2)]);
        assert!(ip.topo().is_before(1, 2));
        assert_eq!(
            ip.edit(add(1, 0x12, vec![])).unwrap_err(),
            IncrError::DuplicateKey(1)
        );
        assert_eq!(ip.len(), 2);
    }

    #[test]
    fn cycle_creating_edit_rolls_back_completely() {
        let mut ip = IncrementalProgram::new();
        // t1 mints a v1 reading a pinned future b v1; t2 would mint b
        // v1 reading a v1 — a two-task cycle through version pins.
        ip.edit(add(
            1,
            0x10,
            vec![
                Access::ReadVersion("b".into(), 1),
                Access::Write("a".into()),
            ],
        ))
        .unwrap_err(); // b v1 has no producer yet
        ip.edit(add(1, 0x10, vec![Access::Write("a".into())]))
            .unwrap();
        ip.edit(add(
            2,
            0x11,
            vec![Access::Read("a".into()), Access::Write("b".into())],
        ))
        .unwrap();
        let edges = ip.edges();
        let order = ip.topo().topo_order();
        let err = ip
            .edit(Edit::Retarget {
                key: 1,
                accesses: vec![
                    Access::ReadVersion("b".into(), 1),
                    Access::Write("a".into()),
                ],
            })
            .unwrap_err();
        assert!(matches!(err, IncrError::Cycle { .. }));
        // Declarations, edges, order, store: all untouched.
        assert_eq!(ip.edges(), edges);
        assert_eq!(ip.topo().topo_order(), order);
        assert_eq!(ip.len(), 2);
        assert!(ip.topo().is_valid());
    }

    #[test]
    fn set_initial_dirties_exactly_the_v0_readers() {
        let mut ip = IncrementalProgram::new();
        ip.edit(add(
            1,
            0x10,
            vec![Access::Read("in".into()), Access::Write("mid".into())],
        ))
        .unwrap();
        ip.edit(add(
            2,
            0x11,
            vec![Access::Read("mid".into()), Access::Write("out".into())],
        ))
        .unwrap();
        ip.edit(add(3, 0x12, vec![Access::Write("other".into())]))
            .unwrap();
        ip.touched.clear(); // pretend a re-run happened
        ip.edit(Edit::SetInitial {
            resource: "in".into(),
            seed: 99,
        })
        .unwrap();
        // Task 1 reads in@v0; the cone pulls in its consumer 2 but not
        // the unrelated 3.
        assert_eq!(ip.dirty_cone(), vec![1, 2]);
    }

    #[test]
    fn removal_rebinds_downstream_readers() {
        let mut ip = IncrementalProgram::new();
        ip.edit(add(1, 0x10, vec![Access::Write("x".into())]))
            .unwrap();
        ip.edit(add(2, 0x11, vec![Access::Write("x".into())]))
            .unwrap();
        ip.edit(add(3, 0x12, vec![Access::Read("x".into())]))
            .unwrap();
        assert_eq!(ip.edges(), vec![(2, 3)]);
        ip.touched.clear();
        ip.edit(Edit::RemoveTask { key: 2 }).unwrap();
        // Reader 3 now consumes task 1's mint.
        assert_eq!(ip.edges(), vec![(1, 3)]);
        assert!(ip.dirty_cone().contains(&3));
        assert_eq!(
            ip.edit(Edit::RemoveTask { key: 2 }).unwrap_err(),
            IncrError::UnknownKey(2)
        );
    }

    #[test]
    fn removing_a_mid_timeline_writer_rebinds_only_the_suffix() {
        let mut ip = IncrementalProgram::new();
        ip.edit(add(0, 0x10, vec![Access::Read("x".into())]))
            .unwrap();
        for k in 1..=3 {
            ip.edit(add(k, 0x10, vec![Access::Write("x".into())]))
                .unwrap();
        }
        ip.edit(add(
            4,
            0x11,
            vec![Access::Read("x".into()), Access::Write("y".into())],
        ))
        .unwrap();
        ip.edit(add(5, 0x12, vec![Access::Read("y".into())]))
            .unwrap();
        assert_eq!(ip.edges(), vec![(3, 4), (4, 5)]);
        ip.touched.clear();
        ip.rebinds = 0;
        ip.edit(Edit::RemoveTask { key: 2 }).unwrap();
        // Writer 3 now mints x v2 and reader 4 binds it; reader 0 sits
        // before the change, and nothing about y moved.
        assert_eq!(ip.rebinds, 2);
        assert_eq!(ip.resolved[&3].writes, vec![(ResourceId(0), 2)]);
        assert_eq!(ip.resolved[&4].reads, vec![(ResourceId(0), 2)]);
        assert_eq!(ip.producers.get(&(ResourceId(0), 3)), None);
        assert_eq!(ip.edges(), vec![(3, 4), (4, 5)]);
        assert_eq!(ip.dirty_roots(), vec![3, 4]);
    }

    #[test]
    fn never_written_reads_bind_to_initial_contents() {
        let mut ip = IncrementalProgram::new();
        ip.edit(Edit::SetInitial {
            resource: "cfg".into(),
            seed: 5,
        })
        .unwrap();
        ip.edit(add(
            1,
            0x10,
            vec![Access::Read("cfg".into()), Access::Write("o".into())],
        ))
        .unwrap();
        let d = &ip.resolved[&1];
        assert_eq!(d.reads, vec![(ResourceId(0), 0)]);
    }
}
