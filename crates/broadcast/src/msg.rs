//! Common message plumbing shared by the broadcast engines.

use bcastdb_sim::SiteId;
use std::fmt;

/// Globally unique identifier of a broadcast message: the originating site
/// plus a per-origin sequence number.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct MsgId {
    /// Site that initiated the broadcast.
    pub origin: SiteId,
    /// Per-origin broadcast sequence number, starting at 1.
    pub seq: u64,
}

impl fmt::Display for MsgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.origin, self.seq)
    }
}

/// Where an [`Outbound`] wire message should be sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dest {
    /// Every site, including the caller.
    All,
    /// Every site except the caller.
    Others,
    /// One specific site.
    Site(SiteId),
}

/// A wire message the engine wants the transport to carry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outbound<W> {
    /// Destination selector.
    pub dest: Dest,
    /// The wire payload.
    pub wire: W,
}

impl<W> Outbound<W> {
    /// Convenience constructor for a message to everyone (incl. self).
    pub fn all(wire: W) -> Self {
        Outbound {
            dest: Dest::All,
            wire,
        }
    }

    /// Convenience constructor for a message to everyone else.
    pub fn others(wire: W) -> Self {
        Outbound {
            dest: Dest::Others,
            wire,
        }
    }

    /// Convenience constructor for a unicast.
    pub fn to(site: SiteId, wire: W) -> Self {
        Outbound {
            dest: Dest::Site(site),
            wire,
        }
    }
}

/// Non-allocating iterator over the concrete destinations of a [`Dest`];
/// see [`dest_iter`].
#[derive(Debug, Clone)]
pub struct DestIter {
    next: usize,
    end: usize,
    /// Site index to skip (`usize::MAX` when nothing is skipped).
    skip: usize,
}

impl Iterator for DestIter {
    type Item = SiteId;

    fn next(&mut self) -> Option<SiteId> {
        while self.next < self.end {
            let i = self.next;
            self.next += 1;
            if i != self.skip {
                return Some(SiteId(i));
            }
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let span = self.end - self.next;
        let n = span - usize::from(self.skip >= self.next && self.skip < self.end);
        (n, Some(n))
    }
}

impl ExactSizeIterator for DestIter {}

/// Iterates the concrete site ids a [`Dest`] names in a system of `n`
/// sites with the caller at `me`, in ascending site order — the
/// allocation-free form of [`expand_dest`], used on the per-send fan-out
/// hot path.
pub fn dest_iter(dest: Dest, me: SiteId, n: usize) -> DestIter {
    match dest {
        Dest::All => DestIter {
            next: 0,
            end: n,
            skip: usize::MAX,
        },
        Dest::Others => DestIter {
            next: 0,
            end: n,
            skip: me.0,
        },
        Dest::Site(s) => DestIter {
            next: s.0,
            end: s.0 + 1,
            skip: usize::MAX,
        },
    }
}

/// Expands a [`Dest`] into concrete site ids for a system of `n` sites with
/// the caller at `me`. Allocates; prefer [`dest_iter`] on hot paths.
pub fn expand_dest(dest: Dest, me: SiteId, n: usize) -> Vec<SiteId> {
    dest_iter(dest, me, n).collect()
}

/// Every message an engine has seen (sent or received), kept for
/// retransmission to peers that lost their copies: per origin, a vector
/// indexed by `seq - 1`. Kept whole on purpose: a sync request can be a
/// delayed duplicate of an old one, so no watermark a peer has reported
/// since bounds what the next request asks for — and how many wires an
/// answer holds is part of the run's message counts.
#[derive(Debug)]
pub(crate) struct Archive<T> {
    by_origin: Vec<Vec<Option<T>>>,
    len: usize,
}

impl<T> Archive<T> {
    /// An empty archive for origins `0..n`. With `n == 0` it keeps nothing:
    /// only loss-recovery deployments ask for retransmissions, so the
    /// others skip a copy per message.
    pub(crate) fn new(n: usize) -> Self {
        let by_origin = (0..n).map(|_| Vec::new()).collect();
        Archive { by_origin, len: 0 }
    }

    /// Keeps `item()` as message `id`, replacing an earlier copy.
    pub(crate) fn keep(&mut self, id: MsgId, item: impl FnOnce() -> T) {
        let Some(row) = self.by_origin.get_mut(id.origin.0) else {
            return;
        };
        let i = (id.seq - 1) as usize;
        if row.len() <= i {
            row.resize_with(i + 1, || None);
        }
        self.len += usize::from(row[i].replace(item()).is_none());
    }

    fn get(&self, id: MsgId) -> Option<&T> {
        let row = self.by_origin.get(id.origin.0)?;
        row.get(id.seq.checked_sub(1)? as usize)?.as_ref()
    }

    /// Number of messages kept.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Kept messages a peer at per-origin delivery watermarks `marks` is
    /// missing, made wires by `wire`: at most `cap`, round-robin across
    /// origins, gap-first within each.
    pub(crate) fn missing<W>(
        &self,
        marks: impl IntoIterator<Item = u64>,
        cap: usize,
        wire: impl Fn(MsgId, &T) -> W,
    ) -> Vec<W> {
        // One cursor per origin with at least one kept successor.
        let mut cursors: Vec<MsgId> = (marks.into_iter().enumerate())
            .map(|(o, mark)| MsgId {
                origin: SiteId(o),
                seq: mark + 1,
            })
            .filter(|&id| self.get(id).is_some())
            .collect();
        let mut out = Vec::new();
        while out.len() < cap && !cursors.is_empty() {
            cursors.retain_mut(|id| match self.get(*id) {
                Some(item) if out.len() < cap => {
                    out.push(wire(*id, item));
                    id.seq += 1;
                    true
                }
                _ => false, // capped, or we do not have it (or no gap)
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The store `Archive` replaced: one map over `(origin, seq)`, and the
    /// round-robin cursor loop both engines ran over it.
    fn oracle_retransmissions(
        map: &BTreeMap<(SiteId, u64), u32>,
        marks: &[u64],
        cap: usize,
    ) -> Vec<(MsgId, u32)> {
        let mut cursors: Vec<(SiteId, u64)> = (marks.iter().enumerate())
            .map(|(origin, &wm)| (SiteId(origin), wm + 1))
            .filter(|&(origin, next)| map.contains_key(&(origin, next)))
            .collect();
        let mut out = Vec::new();
        while out.len() < cap && !cursors.is_empty() {
            cursors.retain_mut(|(origin, next)| {
                if out.len() >= cap {
                    return false;
                }
                match map.get(&(*origin, *next)) {
                    Some(&p) => {
                        let id = MsgId {
                            origin: *origin,
                            seq: *next,
                        };
                        out.push((id, p));
                        *next += 1;
                        true
                    }
                    None => false,
                }
            });
        }
        out
    }

    proptest! {
        /// Inserts from four origins out of order, with gaps and repeats,
        /// then questions at random watermarks and caps: the same count
        /// and the same wires in the same order as the map.
        #[test]
        fn archive_agrees_with_the_map(
            inserts in proptest::collection::vec((0usize..4, 1u64..24, any::<u32>()), 0..120),
            questions in proptest::collection::vec(
                (proptest::collection::vec(0u64..26, 0..6), 0usize..40),
                1..8,
            ),
        ) {
            let mut archive = Archive::new(4);
            let mut map = BTreeMap::new();
            for (o, seq, p) in inserts {
                let id = MsgId { origin: SiteId(o), seq };
                archive.keep(id, || p);
                map.insert((id.origin, seq), p);
                prop_assert_eq!(archive.len(), map.len());
            }
            for (marks, cap) in questions {
                let got = archive.missing(marks.iter().copied(), cap, |id, &p| (id, p));
                prop_assert_eq!(got, oracle_retransmissions(&map, &marks, cap));
            }
            let mut off = Archive::new(0);
            off.keep(MsgId { origin: SiteId(0), seq: 1 }, || 7);
            prop_assert_eq!(off.len(), 0);
            prop_assert!(off.missing([0; 4], 8, |id, _| id).is_empty());
        }
    }

    #[test]
    fn msg_id_orders_by_origin_then_seq() {
        let a = MsgId {
            origin: SiteId(0),
            seq: 9,
        };
        let b = MsgId {
            origin: SiteId(1),
            seq: 1,
        };
        assert!(a < b);
        assert_eq!(a.to_string(), "s0#9");
    }

    #[test]
    fn expand_all_includes_me() {
        assert_eq!(
            expand_dest(Dest::All, SiteId(1), 3),
            vec![SiteId(0), SiteId(1), SiteId(2)]
        );
    }

    #[test]
    fn expand_others_excludes_me() {
        assert_eq!(
            expand_dest(Dest::Others, SiteId(1), 3),
            vec![SiteId(0), SiteId(2)]
        );
    }

    #[test]
    fn expand_site_is_singleton() {
        assert_eq!(
            expand_dest(Dest::Site(SiteId(2)), SiteId(0), 5),
            vec![SiteId(2)]
        );
    }

    #[test]
    fn dest_iter_matches_expand_dest() {
        for n in 1..6 {
            for me in 0..n {
                for dest in [Dest::All, Dest::Others, Dest::Site(SiteId(n - 1))] {
                    let it = dest_iter(dest, SiteId(me), n);
                    assert_eq!(it.len(), expand_dest(dest, SiteId(me), n).len());
                    assert_eq!(
                        it.collect::<Vec<_>>(),
                        expand_dest(dest, SiteId(me), n),
                        "dest={dest:?} me={me} n={n}"
                    );
                }
            }
        }
    }

    #[test]
    fn outbound_constructors() {
        assert_eq!(Outbound::all(7u8).dest, Dest::All);
        assert_eq!(Outbound::others(7u8).dest, Dest::Others);
        assert_eq!(Outbound::to(SiteId(3), 7u8).dest, Dest::Site(SiteId(3)));
    }
}
