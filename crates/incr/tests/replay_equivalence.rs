//! Replay equivalence: the bindings, producers, edges and dirty marks
//! an [`IncrementalProgram`] maintains in place across edits are exactly
//! what replaying its whole declaration list would compute.
//!
//! The reference is the replay-and-diff commit: every edit rebuilds the
//! declaration list, replays it through a fresh frontend [`Program`]
//! (reads bind to latest-at-declaration, writes mint versions), diffs
//! the resulting edge set against the previous one, feeds that diff to
//! its own [`DynamicTopo`] (rolling back on a cycle), and dirties the
//! edited tasks, the version-0 readers of re-seeded resources and every
//! task whose binding changed. Random edit sequences — pins (including
//! pins of versions nobody mints and of versions later tasks mint),
//! `ReadWrite`, removals of mid-timeline writers, retargets that close
//! cycles, and batches that remove and re-add a key — drive both. After
//! every edit they must agree on the verdict, the resolved declaration
//! of every task, the producer of every version, the edge set, the
//! dirty roots, the maintained order and its maintenance work; a
//! rejected edit must leave every one of those unchanged.

use nexuspp_core::Priority;
use nexuspp_frontend::{Lowering, Program, ResourceId, TaskDecl, Version};
use nexuspp_incr::{Access, Backend, DynamicTopo, Edit, IncrError, IncrementalProgram, OrderError};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};

const RESOURCES: u8 = 4;

fn rname(r: u8) -> String {
    format!("r{r}")
}

/// One symbolic declaration, as the reference keeps it.
#[derive(Debug, Clone)]
struct Decl {
    key: u64,
    fptr: u64,
    priority: Priority,
    accesses: Vec<Access>,
}

/// Everything one replay derives from a declaration list.
struct Replay {
    resolved: HashMap<u64, TaskDecl>,
    producers: HashMap<(ResourceId, Version), u64>,
    latest: Vec<Version>,
    edges: BTreeSet<(u64, u64)>,
}

/// Replay `decls` through a fresh frontend program, pre-registering
/// every interned name so ids match the program under test and
/// never-written reads bind to version 0.
fn replay(names: &[String], decls: &[Decl]) -> Result<Replay, IncrError> {
    let mut p = Program::new();
    for name in names {
        p.resource(name);
    }
    for d in decls {
        let mut b = p.task(d.fptr).tag(d.key).priority(d.priority);
        for a in &d.accesses {
            b = match a {
                Access::Read(n) => b.reads(n),
                Access::ReadVersion(n, v) => b.reads_version(n, *v),
                Access::Write(n) => b.writes(n),
                Access::ReadWrite(n) => b.read_writes(n),
            };
        }
        b.submit().expect("every name pre-interned");
    }
    let mut resolved = HashMap::new();
    let mut producers = HashMap::new();
    for t in p.tasks() {
        for &(r, v) in &t.writes {
            producers.insert((r, v), t.tag);
        }
        resolved.insert(t.tag, t.clone());
    }
    let mut edges = BTreeSet::new();
    for t in p.tasks() {
        for &(r, v) in &t.reads {
            if v == 0 {
                continue;
            }
            let &prod = producers
                .get(&(r, v))
                .ok_or_else(|| IncrError::UnknownProducer {
                    resource: p.resource_name(r).to_string(),
                    version: v,
                    reader: t.tag,
                })?;
            if prod != t.tag {
                edges.insert((prod, t.tag));
            }
        }
    }
    let latest = names
        .iter()
        .map(|n| p.latest_version(n).expect("registered"))
        .collect();
    Ok(Replay {
        resolved,
        producers,
        latest,
        edges,
    })
}

/// Did a task's resolved binding change between two replays?
fn decl_changed(old: &TaskDecl, new: &TaskDecl) -> bool {
    old.fptr != new.fptr
        || old.priority != new.priority
        || old.reads != new.reads
        || old.writes != new.writes
}

/// The replay-and-diff reference.
struct Reference {
    decls: Vec<Decl>,
    current: Replay,
    topo: DynamicTopo<u64>,
    touched: BTreeSet<u64>,
}

impl Reference {
    fn new() -> Reference {
        Reference {
            decls: Vec::new(),
            current: replay(&[], &[]).expect("empty replay"),
            topo: DynamicTopo::new(),
            touched: BTreeSet::new(),
        }
    }

    fn v0_readers(st: &Replay, names: &[String], name: &str) -> Vec<u64> {
        let Some(i) = names.iter().position(|n| n == name) else {
            return Vec::new();
        };
        let r = ResourceId(i as u32);
        st.resolved
            .values()
            .filter(|d| d.reads.contains(&(r, 0)))
            .map(|d| d.tag)
            .collect()
    }

    /// Apply a batch the replay-and-diff way; `names` is the interner
    /// of the program under test after it applied the same batch.
    fn edit_batch(&mut self, names: &[String], edits: &[Edit]) -> Result<(), IncrError> {
        let mut scratch = self.decls.clone();
        let mut edited: Vec<u64> = Vec::new();
        let mut seeded: Vec<&str> = Vec::new();
        let mut structural = false;
        for e in edits {
            match e {
                Edit::SetInitial { resource, .. } => seeded.push(resource),
                Edit::AddTask {
                    key,
                    fptr,
                    priority,
                    accesses,
                } => {
                    structural = true;
                    if scratch.iter().any(|d| d.key == *key) {
                        return Err(IncrError::DuplicateKey(*key));
                    }
                    scratch.push(Decl {
                        key: *key,
                        fptr: *fptr,
                        priority: *priority,
                        accesses: accesses.clone(),
                    });
                    edited.push(*key);
                }
                Edit::RemoveTask { key } => {
                    structural = true;
                    if !scratch.iter().any(|d| d.key == *key) {
                        return Err(IncrError::UnknownKey(*key));
                    }
                    scratch.retain(|d| d.key != *key);
                }
                Edit::Retarget { key, accesses } => {
                    structural = true;
                    let Some(d) = scratch.iter_mut().find(|d| d.key == *key) else {
                        return Err(IncrError::UnknownKey(*key));
                    };
                    d.accesses = accesses.clone();
                    edited.push(*key);
                }
            }
        }
        if !structural {
            for name in seeded {
                let readers = Self::v0_readers(&self.current, names, name);
                self.touched.extend(readers);
            }
            return Ok(());
        }
        let next = replay(names, &scratch)?;
        let old_keys: BTreeSet<u64> = self.decls.iter().map(|d| d.key).collect();
        let new_keys: BTreeSet<u64> = scratch.iter().map(|d| d.key).collect();
        let removed_nodes: Vec<u64> = old_keys.difference(&new_keys).copied().collect();
        let added_nodes: Vec<u64> = new_keys.difference(&old_keys).copied().collect();
        let removed_edges: Vec<(u64, u64)> = self
            .current
            .edges
            .difference(&next.edges)
            .copied()
            .collect();
        let added_edges: Vec<(u64, u64)> = next
            .edges
            .difference(&self.current.edges)
            .copied()
            .collect();
        for &(f, t) in &removed_edges {
            self.topo.remove_edge(f, t);
        }
        for &n in &removed_nodes {
            self.topo.remove_node(n);
        }
        for &n in &added_nodes {
            self.topo.add_node(n);
        }
        for (i, &(f, t)) in added_edges.iter().enumerate() {
            if let Err(OrderError::Cycle { from, to }) = self.topo.add_edge(f, t) {
                for &(f2, t2) in &added_edges[..i] {
                    self.topo.remove_edge(f2, t2);
                }
                for &n in &added_nodes {
                    self.topo.remove_node(n);
                }
                for &n in &removed_nodes {
                    self.topo.add_node(n);
                }
                for &(f2, t2) in &removed_edges {
                    self.topo.add_edge(f2, t2).expect("previously valid");
                }
                return Err(IncrError::Cycle { from, to });
            }
        }
        self.touched
            .extend(edited.iter().copied().filter(|k| new_keys.contains(k)));
        for name in seeded {
            self.touched.extend(Self::v0_readers(&next, names, name));
        }
        for d in &scratch {
            let new = &next.resolved[&d.key];
            match self.current.resolved.get(&d.key) {
                Some(old) if !decl_changed(old, new) => {}
                _ => {
                    self.touched.insert(d.key);
                }
            }
        }
        for k in &removed_nodes {
            self.touched.remove(k);
        }
        self.decls = scratch;
        self.current = next;
        Ok(())
    }
}

/// One resolved declaration: (key, fptr, priority, reads, writes).
type Binding = (
    u64,
    u64,
    Priority,
    Vec<(ResourceId, Version)>,
    Vec<(ResourceId, Version)>,
);

/// Everything the program under test maintains that the reference
/// computes, read through its public accessors.
#[derive(Debug, PartialEq)]
struct Observed {
    keys: Vec<u64>,
    decls: Vec<Binding>,
    latest: Vec<Version>,
    producers: Vec<((ResourceId, Version), Option<u64>)>,
    edges: Vec<(u64, u64)>,
    dirty_roots: Vec<u64>,
    order: Vec<u64>,
    order_ops: u64,
}

fn observe(ip: &IncrementalProgram) -> Observed {
    let keys = ip.keys();
    let decls = keys
        .iter()
        .map(|&k| {
            let d = ip.decl(k).expect("declared key resolves");
            assert_eq!(d.tag, k);
            (k, d.fptr, d.priority, d.reads.clone(), d.writes.clone())
        })
        .collect();
    let names = ip.resource_names();
    let latest: Vec<Version> = names
        .iter()
        .map(|n| ip.latest_version(n).expect("interned"))
        .collect();
    // Every version up to one past the latest: the last must have no
    // producer.
    let producers = latest
        .iter()
        .enumerate()
        .flat_map(|(i, &l)| {
            let r = ResourceId(i as u32);
            (1..=l + 1).map(move |v| ((r, v), ip.producer(r, v)))
        })
        .collect();
    Observed {
        keys,
        decls,
        latest,
        producers,
        edges: ip.edges(),
        dirty_roots: ip.dirty_roots(),
        order: ip.topo().topo_order(),
        order_ops: ip.topo().ops(),
    }
}

fn expected(rf: &Reference, names: &[String]) -> Observed {
    let mut keys: Vec<u64> = rf.decls.iter().map(|d| d.key).collect();
    keys.sort_unstable();
    let st = &rf.current;
    let decls = keys
        .iter()
        .map(|k| {
            let d = &st.resolved[k];
            (*k, d.fptr, d.priority, d.reads.clone(), d.writes.clone())
        })
        .collect();
    // Names interned after the replay (seeds of fresh names) have no
    // writers yet.
    let latest: Vec<Version> = (0..names.len())
        .map(|i| st.latest.get(i).copied().unwrap_or(0))
        .collect();
    let producers = latest
        .iter()
        .enumerate()
        .flat_map(|(i, &l)| {
            let r = ResourceId(i as u32);
            (1..=l + 1).map(move |v| ((r, v), st.producers.get(&(r, v)).copied()))
        })
        .collect();
    Observed {
        keys,
        decls,
        latest,
        producers,
        edges: st.edges.iter().copied().collect(),
        dirty_roots: rf.touched.iter().copied().collect(),
        order: rf.topo.topo_order(),
        order_ops: rf.topo.ops(),
    }
}

#[derive(Debug, Clone, Copy)]
enum GenAcc {
    Read(u8),
    Write(u8),
    ReadWrite(u8),
    /// A pin with a raw selector, concretized against the current
    /// latest version (one past it is a version nobody mints).
    Pin(u8, u16),
}

#[derive(Debug, Clone)]
enum GenEdit {
    SetInitial(u8, u64),
    AddTask(Vec<GenAcc>),
    RemoveTask(u16),
    Retarget(u16, Vec<GenAcc>),
    /// Remove a task and re-add its key at the end, in one batch.
    Readd(u16, Vec<GenAcc>),
    /// Retarget a task to also pin a version minted downstream of it:
    /// always a cycle, when it has a downstream writer.
    Loop(u16),
    /// A key nobody declared.
    RemoveUnknown,
    /// Several edits in one batch.
    Batch(Vec<GenEdit>),
}

fn acc_strategy() -> impl Strategy<Value = GenAcc> {
    let r = 0..RESOURCES;
    prop_oneof![
        r.clone().prop_map(GenAcc::Read),
        r.clone().prop_map(GenAcc::Write),
        r.clone().prop_map(GenAcc::ReadWrite),
        (r, any::<u16>()).prop_map(|(a, s)| GenAcc::Pin(a, s)),
    ]
}

fn single_strategy() -> impl Strategy<Value = GenEdit> {
    let accs = || prop::collection::vec(acc_strategy(), 1..=3);
    prop_oneof![
        (0..RESOURCES, any::<u64>()).prop_map(|(r, s)| GenEdit::SetInitial(r, s)),
        // Adds appear three times so programs actually grow.
        accs().prop_map(GenEdit::AddTask),
        accs().prop_map(GenEdit::AddTask),
        accs().prop_map(GenEdit::AddTask),
        any::<u16>().prop_map(GenEdit::RemoveTask),
        (any::<u16>(), accs()).prop_map(|(w, a)| GenEdit::Retarget(w, a)),
        (any::<u16>(), accs()).prop_map(|(w, a)| GenEdit::Readd(w, a)),
        any::<u16>().prop_map(GenEdit::Loop),
        Just(GenEdit::RemoveUnknown),
    ]
}

fn edit_strategy() -> impl Strategy<Value = GenEdit> {
    // Three single edits to every batch.
    prop_oneof![
        single_strategy(),
        single_strategy(),
        single_strategy(),
        prop::collection::vec(single_strategy(), 2..=4).prop_map(GenEdit::Batch),
    ]
}

/// Concretize a generated edit against the reference's committed state
/// (`names`: the interner of the program under test).
fn concretize(
    e: &GenEdit,
    rf: &Reference,
    names: &[String],
    next_key: &mut u64,
    out: &mut Vec<Edit>,
) {
    let latest = |r: u8| -> Version {
        names
            .iter()
            .position(|n| *n == rname(r))
            .and_then(|i| rf.current.latest.get(i).copied())
            .unwrap_or(0)
    };
    let access = |a: &GenAcc| match *a {
        GenAcc::Read(r) => Access::Read(rname(r)),
        GenAcc::Write(r) => Access::Write(rname(r)),
        GenAcc::ReadWrite(r) => Access::ReadWrite(rname(r)),
        // One pin in eight names the version one past the latest, one
        // in eight the latest itself (often minted downstream of the
        // pinning task: a cycle).
        GenAcc::Pin(r, s) if s % 8 == 0 => Access::ReadVersion(rname(r), latest(r) + 1),
        GenAcc::Pin(r, s) if s % 8 == 1 => Access::ReadVersion(rname(r), latest(r)),
        GenAcc::Pin(r, s) => Access::ReadVersion(rname(r), u32::from(s / 8) % (latest(r) + 1)),
    };
    let pick = |w: u16| -> Option<u64> {
        (!rf.decls.is_empty()).then(|| rf.decls[w as usize % rf.decls.len()].key)
    };
    match e {
        GenEdit::SetInitial(r, s) => out.push(Edit::SetInitial {
            resource: rname(*r),
            seed: *s,
        }),
        GenEdit::AddTask(accs) => {
            let key = *next_key;
            *next_key += 1;
            out.push(Edit::AddTask {
                key,
                fptr: 0x9000 + (key % 5) * 0x10,
                priority: if key.is_multiple_of(3) {
                    Priority::High
                } else {
                    Priority::Normal
                },
                accesses: accs.iter().map(access).collect(),
            });
        }
        GenEdit::RemoveTask(w) => out.extend(pick(*w).map(|key| Edit::RemoveTask { key })),
        GenEdit::Retarget(w, accs) => out.extend(pick(*w).map(|key| Edit::Retarget {
            key,
            accesses: accs.iter().map(access).collect(),
        })),
        GenEdit::Readd(w, accs) => {
            if let Some(key) = pick(*w) {
                out.push(Edit::RemoveTask { key });
                out.push(Edit::AddTask {
                    key,
                    fptr: 0x7000,
                    priority: Priority::Normal,
                    accesses: accs.iter().map(access).collect(),
                });
            }
        }
        GenEdit::Loop(w) => {
            let Some(key) = pick(*w) else { return };
            let mut seen = BTreeSet::from([key]);
            let mut stack = vec![key];
            let mut downstream = None;
            while let Some(k) = stack.pop() {
                for &(_, t) in rf.current.edges.range((k, 0)..=(k, u64::MAX)) {
                    if seen.insert(t) {
                        stack.push(t);
                        downstream = rf.current.resolved[&t].writes.first().or(downstream);
                    }
                }
            }
            if let Some(&(r, v)) = downstream {
                let d = rf.decls.iter().find(|d| d.key == key).expect("picked");
                let mut accesses = d.accesses.clone();
                accesses.push(Access::ReadVersion(names[r.0 as usize].clone(), v));
                out.push(Edit::Retarget { key, accesses });
            }
        }
        GenEdit::RemoveUnknown => out.push(Edit::RemoveTask { key: u64::MAX }),
        GenEdit::Batch(es) => {
            for e in es {
                concretize(e, rf, names, next_key, out);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn maintained_state_equals_replay_after_every_edit(
        edits in prop::collection::vec(edit_strategy(), 1..=40)
    ) {
        let mut ip = IncrementalProgram::new();
        let mut rf = Reference::new();
        let mut next_key = 0u64;
        let mut committed = 0usize;
        for (step, e) in edits.iter().enumerate() {
            let mut batch = Vec::new();
            concretize(e, &rf, ip.resource_names(), &mut next_key, &mut batch);
            if batch.is_empty() {
                continue;
            }
            let before = observe(&ip);
            let got = ip.edit_batch(batch.clone());
            let names = ip.resource_names().to_vec();
            let want = rf.edit_batch(&names, &batch);
            prop_assert_eq!(&got, &want, "step {} verdict for {:?}", step, batch);
            let now = observe(&ip);
            prop_assert_eq!(&now, &expected(&rf, &names), "step {} state after {:?}", step, batch);
            prop_assert!(ip.topo().is_valid());
            if got.is_err() {
                // Interning may grow on a rejected edit; nothing else may
                // move.
                prop_assert_eq!(&now.keys, &before.keys);
                prop_assert_eq!(&now.decls, &before.decls);
                prop_assert_eq!(&now.edges, &before.edges);
                prop_assert_eq!(&now.dirty_roots, &before.dirty_roots);
                prop_assert_eq!(
                    &now.producers[..before.producers.len()],
                    &before.producers[..]
                );
            } else {
                committed += 1;
            }
            // Re-run now and then, so dirty marks accumulate from a
            // clean slate as well as across edits.
            if committed % 5 == 4 {
                let report = ip.rerun(Lowering::Renamed, &Backend::Engine { shards: 2 });
                prop_assert_eq!(report.total, ip.len());
                prop_assert!(ip.dirty_roots().is_empty());
                rf.touched.clear();
            }
        }
    }
}
