//! The checker's history, kept by the [`Cluster`](crate::Cluster) and not
//! by the replicas: what each origin committed, with the versions its
//! reads observed and its write set.

use crate::state::LocalTxn;
use bcastdb_db::sg::ObservedVersion;
use bcastdb_db::{Arena, HistoryRecorder, Key, Run, Store, TxnId, WriteOp};
use bcastdb_sim::SiteId;

/// One commit at its origin: a run of the versions its reads observed, and
/// the write set moved out of its specification.
type Commit = (Run, Vec<WriteOp>);

/// Every transaction committed at its origin, recorded there
/// (`SiteState::history`), by origin and transaction number.
#[derive(Debug, Default)]
pub struct History {
    origins: Vec<Vec<Option<Commit>>>,
    reads: Arena<(Key, ObservedVersion)>,
}

impl History {
    pub(crate) fn record(&mut self, txn: LocalTxn) {
        let reads = self.reads.push_run(txn.observed());
        let (origin, at) = (txn.id.origin.0, txn.id.num as usize - 1);
        if self.origins.len() <= origin {
            self.origins.resize_with(origin + 1, Vec::new);
        }
        let of = &mut self.origins[origin];
        if of.len() <= at {
            of.resize_with(at + 1, || None);
        }
        of[at] = Some((reads, txn.spec.into_writes()));
    }

    /// Every recorded commit: the transaction, the versions its reads
    /// observed and its write set; origins ascending, then numbers.
    pub fn commits(&self) -> impl Iterator<Item = (TxnId, &[(Key, ObservedVersion)], &[WriteOp])> {
        let origins = self.origins.iter().enumerate();
        let numbered = origins.flat_map(|(o, of)| (1..).zip(of).map(move |(n, c)| (o, n, c)));
        numbered.filter_map(|(origin, num, commit)| {
            let ((reads, writes), txn) = (commit.as_ref()?, TxnId::new(SiteId(origin), num));
            Some((txn, self.reads.run(reads), &writes[..]))
        })
    }

    fn recorded(&self, txn: TxnId) -> bool {
        let of = self.origins.get(txn.origin.0);
        of.and_then(|of| of.get(txn.num as usize - 1))
            .is_some_and(Option::is_some)
    }

    /// The history as seen from `sites`: the commits of the surveyed
    /// origins, the surveyed stores' install orders, and a bare commit (no
    /// reads, no writes) for every writer installed there without such a
    /// record — its origin is not surveyed, or crashed before applying it.
    /// Its writes are in the install orders already, and its reads were
    /// made where nobody surveyed them.
    pub(crate) fn recorder<'a>(
        &'a self,
        sites: &[SiteId],
        stores: impl Fn(SiteId) -> &'a Store,
    ) -> HistoryRecorder<'a> {
        let mut surveyed = vec![false; sites.iter().map(|s| s.0 + 1).max().unwrap_or(0)];
        sites.iter().for_each(|site| surveyed[site.0] = true);
        let surveyed = |txn: &TxnId| surveyed.get(txn.origin.0) == Some(&true);
        let mut h = HistoryRecorder::new();
        for (txn, reads, writes) in self.commits().filter(|c| surveyed(&c.0)) {
            h.record_commit_ref(txn, reads, writes);
        }
        for &site in sites {
            let mut last = None; // a writer's installs at a store are adjacent
            for (_, writer) in stores(site).installs() {
                let recorded = surveyed(&writer) && self.recorded(writer);
                if !recorded && last.replace(writer) != Some(writer) {
                    h.record_commit(writer, Vec::new(), Vec::new());
                }
            }
            h.record_site_order(site, stores(site));
        }
        h
    }
}
