//! One-copy serializability checking.
//!
//! The paper proves its protocols correct by showing the **one-copy
//! serialization graph** of every execution is acyclic [BG87, BHG87]. This
//! module turns that proof technique into a runtime checker: the simulation
//! records every committed transaction's reads (with the version each read
//! observed) and writes, plus each replica's per-key write install order,
//! and [`HistoryRecorder::check`] verifies
//!
//! 1. **replica agreement** — all sites installed the writes of each key in
//!    the same order (one-copy equivalence), and
//! 2. **acyclicity** of the serialization graph built from
//!    write-write (install order), write-read (reads-from) and read-write
//!    (anti-dependency) edges.
//!
//! Any violation is reported with a witness, which makes protocol bugs in
//! the replication layer loudly visible in tests.

use crate::graph::{bucket, DenseGraph};
use crate::storage::{InstallOrders, Store};
use crate::types::{Key, TxnId, WriteOp};
use bcastdb_sim::SiteId;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// A read observation: which committed version (by writer) a read saw.
/// `None` is the initial (unwritten) version.
pub type ObservedVersion = Option<TxnId>;

/// "No such entry" in the checker's `u32` tables.
const NONE: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct CommittedTxn<'a> {
    txn: TxnId,
    reads: Cow<'a, [(Key, ObservedVersion)]>,
    writes: Cow<'a, [WriteOp]>,
}

/// Why a history is not one-copy serializable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SgViolation {
    /// Two sites installed the writes of `key` in different orders.
    DivergentInstallOrder {
        /// The disagreeing object.
        key: Key,
        /// First site and its order.
        site_a: (SiteId, Vec<TxnId>),
        /// Second site and its order.
        site_b: (SiteId, Vec<TxnId>),
    },
    /// A committed transaction read a version written by a transaction that
    /// never committed.
    ReadFromUncommitted {
        /// The reader.
        reader: TxnId,
        /// The object read.
        key: Key,
        /// The phantom writer.
        writer: TxnId,
    },
    /// A committed transaction's write never appeared in any replica's
    /// install order (the commit was decided but not applied).
    CommittedWriteNotInstalled {
        /// The committed writer.
        writer: TxnId,
        /// The object whose write is missing.
        key: Key,
    },
    /// The one-copy serialization graph has a cycle.
    Cycle(Vec<TxnId>),
}

impl fmt::Display for SgViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SgViolation::DivergentInstallOrder {
                key,
                site_a,
                site_b,
            } => write!(
                f,
                "replicas diverge on {key}: {} installed {:?}, {} installed {:?}",
                site_a.0, site_a.1, site_b.0, site_b.1
            ),
            SgViolation::ReadFromUncommitted {
                reader,
                key,
                writer,
            } => {
                write!(f, "{reader} read {key} from uncommitted {writer}")
            }
            SgViolation::CommittedWriteNotInstalled { writer, key } => {
                write!(
                    f,
                    "{writer} committed a write of {key} that no replica installed"
                )
            }
            SgViolation::Cycle(c) => {
                write!(f, "serialization graph cycle:")?;
                for t in c {
                    write!(f, " {t}")?;
                }
                Ok(())
            }
        }
    }
}

/// What one check did, as counts that depend on the history alone: a test
/// can hold the checker to linear work on a machine too noisy to time it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SgWork {
    /// Install-order entries examined to place the committed reads and
    /// writes: each looks through one writer's installs, not a key's order.
    pub order_entries_examined: u64,
    /// Edges of the serialization graph (ww, wr and rw, parallel ones each).
    pub edges: u64,
}

/// Records a replicated execution and checks it for one-copy
/// serializability.
///
/// The recorder borrows: a replica's install orders are read from its
/// [`Store`] in place, and [`HistoryRecorder::record_commit_ref`] keeps
/// slices of the caller's read and write sets, so recording an execution
/// copies nothing.
#[derive(Debug, Clone, Default)]
pub struct HistoryRecorder<'a> {
    committed: Vec<CommittedTxn<'a>>,
    sites: BTreeMap<SiteId, &'a Store>,
}

impl<'a> HistoryRecorder<'a> {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a committed transaction (update or read-only) with the
    /// versions its reads observed. The check goes by a transaction's last
    /// record.
    pub fn record_commit(
        &mut self,
        txn: TxnId,
        reads: Vec<(Key, ObservedVersion)>,
        writes: Vec<WriteOp>,
    ) {
        let (reads, writes) = (Cow::Owned(reads), Cow::Owned(writes));
        self.committed.push(CommittedTxn { txn, reads, writes });
    }

    /// [`HistoryRecorder::record_commit`] without the copies: the recorder
    /// keeps the caller's slices.
    pub fn record_commit_ref(
        &mut self,
        txn: TxnId,
        reads: &'a [(Key, ObservedVersion)],
        writes: &'a [WriteOp],
    ) {
        let (reads, writes) = (Cow::Borrowed(reads), Cow::Borrowed(writes));
        self.committed.push(CommittedTxn { txn, reads, writes });
    }

    /// Captures a replica's per-key install order — read from `store` when
    /// the history is checked, so record it after the run quiesces.
    /// Recording a site again replaces its earlier store.
    pub fn record_site_order(&mut self, site: SiteId, store: &'a Store) {
        self.sites.insert(site, store);
    }

    /// Number of commit records.
    pub fn committed_count(&self) -> usize {
        self.committed.len()
    }

    /// Produces an equivalent *serial* order of the committed transactions
    /// — a topological order of the one-copy serialization graph. This is
    /// the constructive form of the correctness proof: the returned order
    /// executed serially would produce the same reads and final state.
    ///
    /// # Errors
    /// Returns the violation if the history is not one-copy serializable.
    pub fn serialization_order(&self) -> Result<Vec<TxnId>, SgViolation> {
        let sg = self.graph(true)?;
        sg.acyclic()?;
        let order = sg.graph.topo_order().expect("acyclic");
        // A node without a commit record (a writer known only from an
        // install order, a number nobody used) joins the order only where
        // an edge ties it in.
        let mut placed: Vec<bool> = sg.commit_of.iter().map(|&c| c != NONE).collect();
        for from in 0..sg.graph.node_count() {
            for &to in sg.graph.successors(from as u32) {
                placed[from] = true;
                placed[to as usize] = true;
            }
        }
        let order = order.into_iter().filter(|&v| placed[v as usize]);
        Ok(order.map(|v| sg.nodes.txn(v)).collect())
    }

    /// Renders the one-copy serialization graph in Graphviz `dot` format
    /// (committed transactions as nodes, conflict edges as arrows) — handy
    /// for inspecting small histories.
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph sg {\n  rankdir=LR;\n");
        let Ok(sg) = self.graph(false) else {
            return out + "}\n";
        };
        let committed = |v: &u32| sg.commit_of[*v as usize] != NONE;
        let nodes: Vec<u32> = (0..sg.commit_of.len() as u32).filter(committed).collect();
        for &v in &nodes {
            out.push_str(&format!("  \"{}\";\n", sg.nodes.txn(v)));
        }
        for &from in &nodes {
            let mut row = sg.graph.successors(from).to_vec();
            row.dedup();
            for to in row.into_iter().filter(committed) {
                let (a, b) = (sg.nodes.txn(from), sg.nodes.txn(to));
                out.push_str(&format!("  \"{a}\" -> \"{b}\";\n"));
            }
        }
        out.push_str("}\n");
        out
    }

    /// Verifies the recorded history, returning the first violation found
    /// or `Ok(())`. "First" is a contract (DESIGN.md §6), the same on every
    /// call and in every process: a divergent install order (lowest
    /// disagreeing site, its smallest such key, against the first site
    /// holding it), else a committed write no replica installed
    /// (transactions ascending, writes in order), else a read from an
    /// uncommitted writer (readers ascending, reads in order), else a cycle
    /// (depth-first from the transactions ascending, successors ascending).
    ///
    /// # Errors
    /// Returns an [`SgViolation`] describing the witness when the history is
    /// not one-copy serializable.
    pub fn check(&self) -> Result<(), SgViolation> {
        self.check_work().map(drop)
    }

    /// [`HistoryRecorder::check`], also reporting the work it took.
    ///
    /// # Errors
    /// As [`HistoryRecorder::check`].
    pub fn check_work(&self) -> Result<SgWork, SgViolation> {
        let sg = self.graph(true)?;
        sg.acyclic().map(|()| sg.work)
    }

    /// Step 1: all sites must agree on each key's install order; a site's
    /// order of a key is compared with the first site's, the one kept.
    fn agreed_orders(&self) -> Result<InstallOrders<'a>, SgViolation> {
        let mut orders = InstallOrders::default();
        for (&site, store) in &self.sites {
            if let Err((k, order)) = orders.add(site, store) {
                return Err(SgViolation::DivergentInstallOrder {
                    key: orders.keys[k].0.clone(),
                    site_a: (orders.keys[k].1, orders.first(k).to_vec()),
                    site_b: (site, order),
                });
            }
        }
        orders.last = Default::default(); // scratch, freed before the graph's arrays
        Ok(orders)
    }

    /// Everything of [`HistoryRecorder::check`] but the search for a cycle
    /// (the installed-writes step on request), and the graph to search.
    /// Linear in the committed reads and writes plus every site's install
    /// orders; allocates a fixed number of arrays.
    fn graph(&self, check_installed: bool) -> Result<Sg, SgViolation> {
        let orders = self.agreed_orders()?;
        let nodes = Nodes::of(self.committed.iter().map(|c| &c.txn).chain(&orders.kept));
        let node = |txn: &TxnId| nodes.get(*txn).expect("numbered above");
        let n = nodes.len();
        let mut commit_of = vec![NONE; n];
        for (i, rec) in self.committed.iter().enumerate() {
            commit_of[node(&rec.txn) as usize] = i as u32;
        }
        let committed = || {
            let recorded = commit_of.iter().enumerate().filter(|(_, &c)| c != NONE);
            recorded.map(|(v, &c)| (v as u32, &self.committed[c as usize]))
        };

        // The next-writer index: every entry of a canonical order, filed
        // under its writer as (key, writer of the key's next version). The
        // counting sort keeps key-then-position order, so a probe meets a
        // writer's earliest install of a key first.
        let entries = (0..orders.keys.len()).flat_map(|k| {
            let order = orders.first(k);
            (0..order.len()).map(move |pos| {
                let next = order.get(pos + 1).map_or(NONE, node);
                (node(&order[pos]), (k as u32, next))
            })
        });
        let (installed_at, installed) = bucket(n, entries, Default::default());
        let installed_by = |v: u32| {
            &installed[installed_at[v as usize] as usize..installed_at[v as usize + 1] as usize]
        };
        let mut work = SgWork::default();
        // The writer of the version of `key` after `writer`'s (`NONE` after
        // the last), or `None` if `writer` never installed `key`.
        let mut next_writer = |writer: u32, key: &Key| -> Option<u32> {
            let row = installed_by(writer);
            let at = row
                .iter()
                .position(|&(k, _)| orders.keys[k as usize].0 == key);
            work.order_entries_examined += row.len() as u64;
            at.map(|at| row[at].1)
        };

        // Step 2: every committed write must actually have been installed
        // somewhere (only checked when replica orders were recorded at all).
        if check_installed && !self.sites.is_empty() {
            for (v, rec) in committed() {
                let lost = |w: &&WriteOp| next_writer(v, &w.key).is_none();
                if let Some(wop) = rec.writes.iter().find(lost) {
                    return Err(SgViolation::CommittedWriteNotInstalled {
                        writer: rec.txn,
                        key: wop.key.clone(),
                    });
                }
            }
        }

        // Step 3: ww edges between consecutive writers of a key, wr edges
        // from a version's writer to its readers, rw edges from a reader to
        // the writer of the next version.
        let reads: usize = self.committed.iter().map(|c| c.reads.len()).sum();
        let mut edges: Vec<(u32, u32)> = Vec::with_capacity(installed.len() + 2 * reads);
        for v in 0..n as u32 {
            let later = installed_by(v).iter().filter(|&&(_, next)| next != NONE);
            edges.extend(later.map(|&(_, next)| (v, next)));
        }
        for (reader, rec) in committed() {
            for (key, observed) in rec.reads.iter() {
                let Some(writer) = observed else {
                    // Read the initial version: precedes the first writer.
                    if let Some(&k) = orders.index.get(key) {
                        let first = node(&orders.first(k as usize)[0]);
                        if first != reader {
                            edges.push((reader, first));
                        }
                    }
                    continue;
                };
                let committed = |w: &u32| commit_of[*w as usize] != NONE;
                let Some(w) = nodes.get(*writer).filter(committed) else {
                    return Err(SgViolation::ReadFromUncommitted {
                        reader: rec.txn,
                        key: key.clone(),
                        writer: *writer,
                    });
                };
                if w != reader {
                    edges.push((w, reader)); // wr
                }
                // rw: reader precedes the writer of the NEXT version.
                match next_writer(w, key) {
                    Some(next) if next != NONE && next != reader => edges.push((reader, next)),
                    _ => {}
                }
            }
        }
        work.edges = edges.len() as u64;
        let graph = DenseGraph::from_edges(n, &edges);
        Ok(Sg {
            nodes,
            commit_of,
            graph,
            work,
        })
    }
}

/// A dense numbering of the transactions a history mentions: node
/// `base[origin] + num`. `TxnId::num` is a per-origin counter, so the
/// numbering has no holes worth a map (a number nobody used — an aborted
/// transaction — is a node without edges), and ascending node order is
/// ascending `TxnId` order.
struct Nodes {
    /// Prefix sums of the per-origin row lengths (largest `num` + 1).
    base: Vec<u32>,
}

impl Nodes {
    fn of<'t>(txns: impl Iterator<Item = &'t TxnId> + Clone) -> Self {
        // Sized before it is filled, so that what is allocated does not
        // depend on the order the stores yield their keys in.
        let origins = txns.clone().map(|t| t.origin.0 + 1).max().unwrap_or(0);
        let mut base = vec![0u32; origins + 1];
        for t in txns {
            let row = u32::try_from(t.num).ok().and_then(|num| num.checked_add(1));
            let row = row.expect("transaction numbers fit u32");
            base[t.origin.0 + 1] = base[t.origin.0 + 1].max(row);
        }
        for origin in 0..origins {
            let end = base[origin].checked_add(base[origin + 1]);
            base[origin + 1] = end.expect("fewer than 2^32 transaction numbers");
        }
        Nodes { base }
    }

    fn len(&self) -> usize {
        self.base[self.base.len() - 1] as usize
    }

    /// The node of `txn`, `None` beyond the numbered range.
    fn get(&self, txn: TxnId) -> Option<u32> {
        let row = self.base.get(txn.origin.0..txn.origin.0 + 2)?;
        let num = u32::try_from(txn.num).ok()?;
        (num < row[1] - row[0]).then(|| row[0] + num)
    }

    fn txn(&self, node: u32) -> TxnId {
        let origin = self.base.partition_point(|&b| b <= node) - 1;
        TxnId::new(SiteId(origin), u64::from(node - self.base[origin]))
    }
}

/// The serialization graph of an agreed history over [`Nodes`].
struct Sg {
    nodes: Nodes,
    /// Per node: its record in `HistoryRecorder::committed`, `NONE` without.
    commit_of: Vec<u32>,
    graph: DenseGraph,
    work: SgWork,
}

impl Sg {
    fn acyclic(&self) -> Result<(), SgViolation> {
        let Some(cycle) = self.graph.find_cycle() else {
            return Ok(());
        };
        let cycle = cycle.iter().map(|&v| self.nodes.txn(v));
        Err(SgViolation::Cycle(cycle.collect()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::hashed::DiGraph;
    use proptest::prelude::*;
    use std::collections::HashMap;

    type Reads = Vec<(Key, ObservedVersion)>;

    /// The checker as it was before the dense rewrite — hashed graph,
    /// cloned install orders, a `position`/`contains` scan per read and
    /// write — kept as the reference the differential test below compares
    /// verdicts, witnesses, orders and renderings against. One change: it
    /// walks the committed transactions in ascending order where it used
    /// to walk a randomly seeded map, so that its `ReadFromUncommitted`
    /// witness is the documented one.
    struct Oracle {
        committed: BTreeMap<TxnId, (Reads, Vec<WriteOp>)>,
        site_orders: BTreeMap<SiteId, HashMap<Key, Vec<TxnId>>>,
    }

    impl Oracle {
        fn of(h: &HistoryRecorder<'_>) -> Self {
            let committed = h
                .committed
                .iter()
                .map(|c| (c.txn, (c.reads.to_vec(), c.writes.to_vec())))
                .collect();
            let orders = |st: &Store| crate::storage::tests::install_orders(st).into_iter();
            Oracle {
                committed,
                site_orders: h
                    .sites
                    .iter()
                    .map(|(&s, &st)| (s, orders(st).collect()))
                    .collect(),
            }
        }

        fn serialization_order(&self) -> Result<Vec<TxnId>, SgViolation> {
            self.check()?;
            let canonical = self.check_replica_agreement()?;
            let graph = self.build_graph(&canonical)?;
            graph
                .topo_order()
                .ok_or_else(|| SgViolation::Cycle(graph.find_cycle().unwrap_or_default()))
        }

        fn to_dot(&self) -> String {
            let mut out = String::from("digraph sg {\n  rankdir=LR;\n");
            let canonical = match self.check_replica_agreement() {
                Ok(c) => c,
                Err(_) => return out + "}\n",
            };
            let Ok(graph) = self.build_graph(&canonical) else {
                return out + "}\n";
            };
            let txns: Vec<&TxnId> = self.committed.keys().collect();
            for t in &txns {
                out.push_str(&format!("  \"{t}\";\n"));
            }
            for a in &txns {
                for b in &txns {
                    if graph.has_edge(a, b) {
                        out.push_str(&format!("  \"{a}\" -> \"{b}\";\n"));
                    }
                }
            }
            out.push_str("}\n");
            out
        }

        fn check(&self) -> Result<(), SgViolation> {
            let canonical = self.check_replica_agreement()?;
            if !self.site_orders.is_empty() {
                for (&txn, (_, writes)) in &self.committed {
                    for wop in writes {
                        let installed = canonical
                            .get(&wop.key)
                            .is_some_and(|order| order.contains(&txn));
                        if !installed {
                            return Err(SgViolation::CommittedWriteNotInstalled {
                                writer: txn,
                                key: wop.key.clone(),
                            });
                        }
                    }
                }
            }
            let graph = self.build_graph(&canonical)?;
            match graph.find_cycle() {
                Some(c) => Err(SgViolation::Cycle(c)),
                None => Ok(()),
            }
        }

        fn check_replica_agreement(&self) -> Result<HashMap<Key, Vec<TxnId>>, SgViolation> {
            let mut canonical: HashMap<Key, (SiteId, Vec<TxnId>)> = HashMap::new();
            for (&site, per_key) in &self.site_orders {
                let mut keys: Vec<&Key> = per_key.keys().collect();
                keys.sort();
                for key in keys {
                    let order = &per_key[key];
                    match canonical.get(key) {
                        None => {
                            canonical.insert(key.clone(), (site, order.clone()));
                        }
                        Some((first_site, first_order)) => {
                            if first_order != order {
                                return Err(SgViolation::DivergentInstallOrder {
                                    key: key.clone(),
                                    site_a: (*first_site, first_order.clone()),
                                    site_b: (site, order.clone()),
                                });
                            }
                        }
                    }
                }
            }
            Ok(canonical.into_iter().map(|(k, (_, o))| (k, o)).collect())
        }

        fn build_graph(
            &self,
            install: &HashMap<Key, Vec<TxnId>>,
        ) -> Result<DiGraph<TxnId>, SgViolation> {
            let mut g = DiGraph::new();
            for &txn in self.committed.keys() {
                g.add_node(txn);
            }
            for order in install.values() {
                for pair in order.windows(2) {
                    g.add_edge(pair[0], pair[1]);
                }
            }
            for (&reader, (reads, _)) in &self.committed {
                for (key, observed) in reads {
                    let order = install.get(key).map(Vec::as_slice).unwrap_or(&[]);
                    match observed {
                        Some(writer) => {
                            if !self.committed.contains_key(writer) {
                                return Err(SgViolation::ReadFromUncommitted {
                                    reader,
                                    key: key.clone(),
                                    writer: *writer,
                                });
                            }
                            if *writer != reader {
                                g.add_edge(*writer, reader);
                            }
                            if let Some(pos) = order.iter().position(|t| t == writer) {
                                if let Some(&next) = order.get(pos + 1) {
                                    if next != reader {
                                        g.add_edge(reader, next);
                                    }
                                }
                            }
                        }
                        None => {
                            if let Some(&first) = order.first() {
                                if first != reader {
                                    g.add_edge(reader, first);
                                }
                            }
                        }
                    }
                }
            }
            Ok(g)
        }
    }

    /// One transaction of a generated history: `(read mask, write mask,
    /// fault, argument)` over four keys.
    type Gene = (u8, u8, u8, u8);

    /// What each site installed and what was recorded as committed, grown
    /// from a serial execution with faults injected along the way: stale
    /// and initial-version reads (lost updates, write skew, read-only
    /// anomalies), reads from a transaction that never committed, writers
    /// installed without a commit record (the orphans of a crashed
    /// origin), commit records whose writes no replica installed, a key
    /// written twice by one transaction, installs swapped or skipped at one
    /// site (divergent orders, partial placement).
    struct Generated {
        commits: Vec<(TxnId, Reads, Vec<WriteOp>)>,
        stores: Vec<Store>,
    }

    fn generate(genes: &[Gene], sites: usize, swaps: &[(u8, u8)], skips: &[(u8, u8)]) -> Generated {
        const KEYS: [&str; 4] = ["a", "b", "c", "d"];
        let mut versions: [Vec<TxnId>; 4] = Default::default();
        let mut commits = Vec::new();
        let mut installs: Vec<(TxnId, Vec<WriteOp>)> = Vec::new();
        for (i, &(read_mask, write_mask, fault, arg)) in genes.iter().enumerate() {
            let txn = t(i % 3, (i / 3 + 1) as u64);
            let mut reads = Vec::new();
            for (ki, name) in KEYS.iter().enumerate() {
                if read_mask >> ki & 1 == 0 {
                    continue;
                }
                let seen = &versions[ki];
                let observed = match fault {
                    8 => seen.len().checked_sub(2).map(|at| seen[at]),
                    9 => None,
                    10 => Some(t(5, 40 + u64::from(arg) + ki as u64)),
                    _ => seen.last().copied(),
                };
                reads.push((k(name), observed));
            }
            let mut writes: Vec<WriteOp> = (0..KEYS.len())
                .filter(|ki| write_mask >> ki & 1 == 1)
                .map(|ki| w(KEYS[ki], i as i64))
                .collect();
            if fault == 13 {
                writes.extend(writes.first().cloned());
            }
            if fault == 14 {
                continue; // aborted: no trace anywhere
            }
            if fault != 12 {
                for wop in &writes {
                    let ki = KEYS.iter().position(|n| *n == wop.key.as_str()).unwrap();
                    versions[ki].push(txn);
                }
                installs.push((txn, writes.clone()));
            }
            if fault != 11 {
                commits.push((txn, reads, writes));
            }
        }
        let stores = (0..sites)
            .map(|site| {
                let mut seq = installs.clone();
                for &(at_site, pos) in swaps {
                    let pos = pos as usize;
                    if at_site as usize % sites == site && pos + 1 < seq.len() {
                        seq.swap(pos, pos + 1);
                    }
                }
                let mut store = Store::new();
                for (txn, mut writes) in seq {
                    writes.retain(|wop| {
                        !skips.iter().any(|&(at_site, ki)| {
                            at_site as usize % sites == site
                                && KEYS[ki as usize % 4] == wop.key.as_str()
                        })
                    });
                    store.apply(txn, &writes);
                }
                store
            })
            .collect();
        Generated { commits, stores }
    }

    proptest! {
        /// The dense checker and the one it replaced agree on every
        /// generated history: same verdict, same witness, same serial
        /// order, same rendering.
        #[test]
        fn dense_checker_agrees_with_the_oracle(
            genes in proptest::collection::vec((0u8..16, 0u8..16, 0u8..16, 0u8..4), 1..28),
            sites in 0usize..4,
            swaps in proptest::collection::vec((0u8..4, 0u8..28), 0..3),
            skips in proptest::collection::vec((0u8..4, 0u8..4), 0..2),
        ) {
            let history = generate(&genes, sites, &swaps, &skips);
            let mut h = HistoryRecorder::new();
            for (i, (txn, reads, writes)) in history.commits.iter().enumerate() {
                if i % 2 == 0 {
                    h.record_commit(*txn, reads.clone(), writes.clone());
                } else {
                    h.record_commit_ref(*txn, reads, writes);
                }
            }
            // Highest site first: the recorder orders them itself.
            for (site, store) in history.stores.iter().enumerate().rev() {
                h.record_site_order(SiteId(site), store);
            }
            let oracle = Oracle::of(&h);
            prop_assert_eq!(h.check(), oracle.check());
            prop_assert_eq!(h.serialization_order(), oracle.serialization_order());
            prop_assert_eq!(h.to_dot(), oracle.to_dot());
        }
    }

    /// The differential test is only worth its name if the generator
    /// reaches every kind of verdict.
    #[test]
    fn generated_histories_reach_every_verdict() {
        let mut seen = [0usize; 5];
        for case in 0..256u32 {
            let mut rng = proptest::TestRng::for_case(case);
            let genes = Strategy::sample(
                &proptest::collection::vec((0u8..16, 0u8..16, 0u8..16, 0u8..4), 1..28),
                &mut rng,
            );
            let sites = Strategy::sample(&(0usize..4), &mut rng);
            let swaps = Strategy::sample(
                &proptest::collection::vec((0u8..4, 0u8..28), 0..3),
                &mut rng,
            );
            let skips =
                Strategy::sample(&proptest::collection::vec((0u8..4, 0u8..4), 0..2), &mut rng);
            let history = generate(&genes, sites, &swaps, &skips);
            let mut h = HistoryRecorder::new();
            for (txn, reads, writes) in &history.commits {
                h.record_commit_ref(*txn, reads, writes);
            }
            for (site, store) in history.stores.iter().enumerate() {
                h.record_site_order(SiteId(site), store);
            }
            seen[match h.check() {
                Ok(()) => 0,
                Err(SgViolation::DivergentInstallOrder { .. }) => 1,
                Err(SgViolation::CommittedWriteNotInstalled { .. }) => 2,
                Err(SgViolation::ReadFromUncommitted { .. }) => 3,
                Err(SgViolation::Cycle(_)) => 4,
            }] += 1;
        }
        assert!(seen.iter().all(|&n| n >= 8), "verdicts reached: {seen:?}");
    }

    fn t(site: usize, n: u64) -> TxnId {
        TxnId::new(SiteId(site), n)
    }

    fn k(s: &str) -> Key {
        Key::new(s)
    }

    fn w(key: &str, v: i64) -> WriteOp {
        WriteOp {
            key: k(key),
            value: v,
        }
    }

    /// Builds stores for `sites` replicas all applying the same sequence.
    fn uniform_stores(sites: usize, seq: &[(TxnId, Vec<WriteOp>)]) -> Vec<Store> {
        (0..sites)
            .map(|_| {
                let mut s = Store::new();
                for (txn, writes) in seq {
                    s.apply(*txn, writes);
                }
                s
            })
            .collect()
    }

    #[test]
    fn empty_history_is_serializable() {
        let h = HistoryRecorder::new();
        assert_eq!(h.check(), Ok(()));
    }

    #[test]
    fn serial_execution_passes() {
        let mut h = HistoryRecorder::new();
        let t1 = t(0, 1);
        let t2 = t(1, 1);
        // t1 writes x; t2 reads t1's x and writes y.
        h.record_commit(t1, vec![], vec![w("x", 1)]);
        h.record_commit(t2, vec![(k("x"), Some(t1))], vec![w("y", 2)]);
        let seq = vec![(t1, vec![w("x", 1)]), (t2, vec![w("y", 2)])];
        let stores = uniform_stores(3, &seq);
        for (i, s) in stores.iter().enumerate() {
            h.record_site_order(SiteId(i), s);
        }
        assert_eq!(h.check(), Ok(()));
    }

    #[test]
    fn divergent_install_order_is_caught() {
        let mut h = HistoryRecorder::new();
        let t1 = t(0, 1);
        let t2 = t(1, 1);
        h.record_commit(t1, vec![], vec![w("x", 1)]);
        h.record_commit(t2, vec![], vec![w("x", 2)]);
        let mut s0 = Store::new();
        s0.apply(t1, &[w("x", 1)]);
        s0.apply(t2, &[w("x", 2)]);
        let mut s1 = Store::new();
        s1.apply(t2, &[w("x", 2)]);
        s1.apply(t1, &[w("x", 1)]);
        h.record_site_order(SiteId(0), &s0);
        h.record_site_order(SiteId(1), &s1);
        assert!(matches!(
            h.check(),
            Err(SgViolation::DivergentInstallOrder { .. })
        ));
    }

    /// With divergences at two sites on three keys the witness is the
    /// lowest disagreeing site and its smallest disagreeing key, whatever
    /// order the sites were recorded in and the keys were installed in.
    #[test]
    fn divergence_witness_is_the_lowest_site_and_its_smallest_key() {
        let (t1, t2) = (t(0, 1), t(1, 1));
        // Installed c, b, a: the keys' indices run against their order.
        let all = [w("c", 1), w("b", 1), w("a", 1)];
        let mut canonical = Store::new();
        canonical.apply(t1, &all);
        canonical.apply(t2, &all);
        // b and c swapped (c installed first), a agreed.
        let mut low = Store::new();
        low.apply(t2, &[w("c", 2), w("b", 2)]);
        low.apply(t1, &all);
        low.apply(t2, &[w("a", 2)]);
        // a swapped: a smaller key, at a higher site.
        let mut high = Store::new();
        high.apply(t2, &[w("a", 2)]);
        high.apply(t1, &all);
        high.apply(t2, &[w("b", 2), w("c", 2)]);
        let mut h = HistoryRecorder::new();
        h.record_commit(t1, vec![], all.to_vec());
        h.record_commit(t2, vec![], all.to_vec());
        for (site, store) in [(2, &high), (1, &low), (0, &canonical)] {
            h.record_site_order(SiteId(site), store);
        }
        let want = SgViolation::DivergentInstallOrder {
            key: k("b"),
            site_a: (SiteId(0), vec![t1, t2]),
            site_b: (SiteId(1), vec![t2, t1]),
        };
        assert_eq!(h.check(), Err(want.clone()));
        assert_eq!(Oracle::of(&h).check(), Err(want));
    }

    #[test]
    fn lost_update_cycle_is_caught() {
        // Classic lost update: both read initial x, both write x.
        // rw edges: t1 → t2 and t2 → t1 ... with install order t1,t2 the
        // edges are t1→t2 (ww), t2→t1 (rw from t2's read of initial before
        // t1's write) — a cycle.
        let mut h = HistoryRecorder::new();
        let t1 = t(0, 1);
        let t2 = t(1, 1);
        h.record_commit(t1, vec![(k("x"), None)], vec![w("x", 1)]);
        h.record_commit(t2, vec![(k("x"), None)], vec![w("x", 2)]);
        let seq = vec![(t1, vec![w("x", 1)]), (t2, vec![w("x", 2)])];
        let stores = uniform_stores(2, &seq);
        for (i, s) in stores.iter().enumerate() {
            h.record_site_order(SiteId(i), s);
        }
        match h.check() {
            Err(SgViolation::Cycle(c)) => assert_eq!(c.len(), 2),
            other => panic!("expected cycle, got {other:?}"),
        }
    }

    #[test]
    fn write_skew_cycle_is_caught() {
        // t1 reads y (initial), writes x; t2 reads x (initial), writes y.
        let mut h = HistoryRecorder::new();
        let t1 = t(0, 1);
        let t2 = t(1, 1);
        h.record_commit(t1, vec![(k("y"), None)], vec![w("x", 1)]);
        h.record_commit(t2, vec![(k("x"), None)], vec![w("y", 1)]);
        let seq = vec![(t1, vec![w("x", 1)]), (t2, vec![w("y", 1)])];
        let stores = uniform_stores(2, &seq);
        for (i, s) in stores.iter().enumerate() {
            h.record_site_order(SiteId(i), s);
        }
        match h.check() {
            Err(SgViolation::Cycle(c)) => assert_eq!(c.len(), 2),
            other => panic!("expected cycle, got {other:?}"),
        }
    }

    #[test]
    fn read_from_uncommitted_is_caught() {
        let mut h = HistoryRecorder::new();
        let t1 = t(0, 1);
        let ghost = t(9, 9);
        h.record_commit(t1, vec![(k("x"), Some(ghost))], vec![]);
        assert!(matches!(
            h.check(),
            Err(SgViolation::ReadFromUncommitted { .. })
        ));
    }

    /// With two phantom reads the witness is the smaller reader's, whatever
    /// order the commits were recorded in — on every recorder instance (the
    /// checker once walked a randomly seeded map here).
    #[test]
    fn phantom_read_witness_is_the_same_every_time() {
        let (ghost_a, ghost_b) = (t(9, 9), t(8, 8));
        for round in 0..32 {
            let mut h = HistoryRecorder::new();
            let mut commits = vec![
                (t(2, 1), vec![(k("y"), Some(ghost_b))]),
                (t(1, 7), vec![(k("w"), None), (k("x"), Some(ghost_a))]),
                (t(0, 3), vec![(k("z"), None)]),
            ];
            commits.rotate_left(round % 3);
            for (txn, reads) in commits {
                h.record_commit(txn, reads, vec![]);
            }
            assert_eq!(
                h.check(),
                Err(SgViolation::ReadFromUncommitted {
                    reader: t(1, 7),
                    key: k("x"),
                    writer: ghost_a,
                })
            );
        }
    }

    /// A site or a transaction recorded twice is checked by its last record.
    #[test]
    fn recording_again_replaces() {
        let (t1, t2) = (t(0, 1), t(1, 1));
        let mut stale = Store::new();
        stale.apply(t2, &[w("x", 2)]);
        stale.apply(t1, &[w("x", 1)]);
        let mut store = Store::new();
        store.apply(t1, &[w("x", 1)]);
        store.apply(t2, &[w("x", 2)]);
        let mut h = HistoryRecorder::new();
        h.record_commit(t1, vec![(k("x"), Some(t(7, 7)))], vec![]);
        h.record_commit(t1, vec![], vec![w("x", 1)]);
        h.record_commit(t2, vec![(k("x"), Some(t1))], vec![w("x", 2)]);
        h.record_site_order(SiteId(0), &store);
        h.record_site_order(SiteId(1), &stale);
        h.record_site_order(SiteId(1), &store);
        assert_eq!(h.check(), Ok(()));
        assert_eq!(h.serialization_order(), Ok(vec![t1, t2]));
    }

    #[test]
    fn read_only_transactions_join_the_graph() {
        // Serializable: reader sees t1's write, then t2 overwrites.
        let mut h = HistoryRecorder::new();
        let t1 = t(0, 1);
        let t2 = t(1, 1);
        let ro = t(2, 1);
        h.record_commit(t1, vec![], vec![w("x", 1)]);
        h.record_commit(t2, vec![], vec![w("x", 2)]);
        h.record_commit(ro, vec![(k("x"), Some(t1))], vec![]);
        let seq = vec![(t1, vec![w("x", 1)]), (t2, vec![w("x", 2)])];
        let stores = uniform_stores(2, &seq);
        for (i, s) in stores.iter().enumerate() {
            h.record_site_order(SiteId(i), s);
        }
        assert_eq!(h.check(), Ok(()));
    }

    #[test]
    fn read_only_anomaly_is_caught() {
        // ro reads x from t2 but y initial, while t2 wrote both x and y:
        // wr: t2→ro (x); rw: ro→t2 (y initial before t2's write) — cycle.
        let mut h = HistoryRecorder::new();
        let t2 = t(1, 1);
        let ro = t(2, 1);
        h.record_commit(t2, vec![], vec![w("x", 2), w("y", 2)]);
        h.record_commit(ro, vec![(k("x"), Some(t2)), (k("y"), None)], vec![]);
        let seq = vec![(t2, vec![w("x", 2), w("y", 2)])];
        let stores = uniform_stores(2, &seq);
        for (i, s) in stores.iter().enumerate() {
            h.record_site_order(SiteId(i), s);
        }
        match h.check() {
            Err(SgViolation::Cycle(c)) => assert_eq!(c.len(), 2),
            other => panic!("expected cycle, got {other:?}"),
        }
    }

    #[test]
    fn long_serial_chain_passes() {
        let mut h = HistoryRecorder::new();
        let mut seq = Vec::new();
        let mut prev: Option<TxnId> = None;
        for i in 1..=20 {
            let ti = t(0, i);
            let reads = vec![(k("x"), prev)];
            h.record_commit(ti, reads, vec![w("x", i as i64)]);
            seq.push((ti, vec![w("x", i as i64)]));
            prev = Some(ti);
        }
        let stores = uniform_stores(3, &seq);
        for (i, s) in stores.iter().enumerate() {
            h.record_site_order(SiteId(i), s);
        }
        assert_eq!(h.check(), Ok(()));
        assert_eq!(h.committed_count(), 20);
    }

    #[test]
    fn committed_but_uninstalled_write_is_caught() {
        let mut h = HistoryRecorder::new();
        let t1 = t(0, 1);
        let t2 = t(0, 2);
        h.record_commit(t1, vec![], vec![w("x", 1)]);
        h.record_commit(t2, vec![], vec![w("x", 2), w("y", 2)]);
        // Replicas only ever installed t1 and t2's x — t2's y went missing.
        let mut s = Store::new();
        s.apply(t1, &[w("x", 1)]);
        s.apply(t2, &[w("x", 2)]);
        h.record_site_order(SiteId(0), &s);
        assert_eq!(
            h.check(),
            Err(SgViolation::CommittedWriteNotInstalled {
                writer: t2,
                key: k("y"),
            })
        );
    }

    #[test]
    fn serialization_order_respects_dependencies() {
        let mut h = HistoryRecorder::new();
        let t1 = t(0, 1);
        let t2 = t(1, 1);
        let ro = t(2, 1);
        h.record_commit(t1, vec![], vec![w("x", 1)]);
        h.record_commit(t2, vec![(k("x"), Some(t1))], vec![w("y", 2)]);
        h.record_commit(ro, vec![(k("y"), Some(t2))], vec![]);
        let seq = vec![(t1, vec![w("x", 1)]), (t2, vec![w("y", 2)])];
        let stores = uniform_stores(2, &seq);
        for (i, s) in stores.iter().enumerate() {
            h.record_site_order(SiteId(i), s);
        }
        let order = h.serialization_order().expect("serializable");
        let pos = |x: TxnId| order.iter().position(|&n| n == x).unwrap();
        assert!(pos(t1) < pos(t2), "wr dependency respected");
        assert!(pos(t2) < pos(ro), "reader after its writer");
    }

    #[test]
    fn serialization_order_fails_on_cycle() {
        let mut h = HistoryRecorder::new();
        let t1 = t(0, 1);
        let t2 = t(1, 1);
        h.record_commit(t1, vec![(k("x"), None)], vec![w("x", 1)]);
        h.record_commit(t2, vec![(k("x"), None)], vec![w("x", 2)]);
        let seq = vec![(t1, vec![w("x", 1)]), (t2, vec![w("x", 2)])];
        let stores = uniform_stores(2, &seq);
        for (i, s) in stores.iter().enumerate() {
            h.record_site_order(SiteId(i), s);
        }
        assert!(h.serialization_order().is_err());
    }

    #[test]
    fn dot_export_contains_nodes_and_edges() {
        let mut h = HistoryRecorder::new();
        let t1 = t(0, 1);
        let t2 = t(1, 1);
        h.record_commit(t1, vec![], vec![w("x", 1)]);
        h.record_commit(t2, vec![(k("x"), Some(t1))], vec![]);
        let seq = vec![(t1, vec![w("x", 1)])];
        let stores = uniform_stores(2, &seq);
        for (i, s) in stores.iter().enumerate() {
            h.record_site_order(SiteId(i), s);
        }
        let dot = h.to_dot();
        assert!(dot.contains("digraph sg"));
        assert!(dot.contains("\"T0.1\""));
        assert!(dot.contains("\"T0.1\" -> \"T1.1\""));
    }

    #[test]
    fn violation_display_is_informative() {
        let v = SgViolation::Cycle(vec![t(0, 1), t(1, 1)]);
        let s = v.to_string();
        assert!(s.contains("cycle"));
        assert!(s.contains("T0.1"));
    }
}
