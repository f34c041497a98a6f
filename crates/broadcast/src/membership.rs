//! Group membership with majority-quorum views.
//!
//! The paper delegates fault tolerance to the communication layer: "the
//! communication layer maintains a view of the current system configuration.
//! As site failures and recovery occur, the view is dynamically restructured
//! using the notion of majority quorums. As long as the view has majority
//! membership, the system remains operational" [Bv94, SS94].
//!
//! [`ViewManager`] is a heartbeat-based implementation of that service:
//! every site periodically broadcasts a heartbeat; a site silent for longer
//! than the suspicion timeout is suspected; a suspicion triggers a view
//! proposal (the unsuspected members, with a higher view id), and sites
//! adopt the highest-id proposal that (a) includes them and (b) contains a
//! **majority of the full site set**. A site finding itself outside every
//! majority view knows it is partitioned away and must block.
//!
//! This is deliberately simpler than full virtual synchrony (no flush
//! protocol / message stability exchange); the replication protocols in
//! `bcastdb-core` re-evaluate in-flight transactions on view change, which
//! makes the weaker service sufficient for the paper's experiments.

use crate::msg::Outbound;
use bcastdb_sim::{SimDuration, SimTime, SiteId};
use std::collections::BTreeSet;

/// A system configuration: a numbered set of live members.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct View {
    /// Monotonically increasing view number.
    pub id: u64,
    /// Members of the view, sorted.
    pub members: BTreeSet<SiteId>,
}

impl View {
    /// The initial view containing all `n` sites.
    pub fn initial(n: usize) -> Self {
        View {
            id: 0,
            members: (0..n).map(SiteId).collect(),
        }
    }

    /// True iff `site` belongs to the view.
    pub fn contains(&self, site: SiteId) -> bool {
        self.members.contains(&site)
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True iff the view has no members (never produced by the manager).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// True iff the view holds a strict majority of a system of `n` sites.
    pub fn has_majority_of(&self, n: usize) -> bool {
        2 * self.members.len() > n
    }

    /// The lowest-numbered member — used as the deterministic coordinator
    /// (e.g. the atomic-broadcast sequencer) within a view.
    pub fn coordinator(&self) -> Option<SiteId> {
        self.members.iter().next().copied()
    }
}

/// Wire messages of the membership service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemberWire {
    /// Periodic liveness beacon.
    Heartbeat,
    /// Proposal to install a new view.
    Propose(View),
}

impl crate::batch::WireSize for MemberWire {
    fn wire_size(&self) -> usize {
        match self {
            MemberWire::Heartbeat => 1,
            // tag + view id + one site id per member.
            MemberWire::Propose(v) => 1 + 8 + 8 * v.members.len(),
        }
    }
}

/// Events the membership service reports to its embedding node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemberEvent {
    /// A new view was installed locally.
    ViewInstalled(View),
    /// This site is not in any majority view and must block.
    Isolated,
}

/// A sans-IO heartbeat failure detector plus view installer for one site.
#[derive(Debug)]
pub struct ViewManager {
    me: SiteId,
    n: usize,
    view: View,
    heartbeat_every: SimDuration,
    suspect_after: SimDuration,
    last_heard: Vec<SimTime>,
    last_beat: SimTime,
    operational: bool,
}

impl ViewManager {
    /// Creates a manager for site `me` of an `n`-site system.
    ///
    /// `heartbeat_every` is the beacon period; a site silent for
    /// `suspect_after` is suspected. `suspect_after` should be a small
    /// multiple of `heartbeat_every` plus the worst-case network delay.
    ///
    /// # Panics
    /// Panics if `me` is out of range or the timeouts are zero.
    pub fn new(
        me: SiteId,
        n: usize,
        heartbeat_every: SimDuration,
        suspect_after: SimDuration,
    ) -> Self {
        assert!(me.0 < n, "site {me} out of range for {n} sites");
        assert!(!heartbeat_every.is_zero() && !suspect_after.is_zero());
        ViewManager {
            me,
            n,
            view: View::initial(n),
            heartbeat_every,
            suspect_after,
            last_heard: vec![SimTime::ZERO; n],
            last_beat: SimTime::ZERO,
            operational: true,
        }
    }

    /// The currently installed view.
    pub fn view(&self) -> &View {
        &self.view
    }

    /// True while this site belongs to a majority view.
    pub fn is_operational(&self) -> bool {
        self.operational
    }

    /// Advances local time: emits a heartbeat when due and runs suspicion
    /// checks. Call this from a periodic timer.
    pub fn tick(&mut self, now: SimTime) -> (Vec<MemberEvent>, Vec<Outbound<MemberWire>>) {
        let mut outbound = Vec::new();
        let mut events = Vec::new();
        if now.saturating_since(self.last_beat) >= self.heartbeat_every {
            self.last_beat = now;
            outbound.push(Outbound::others(MemberWire::Heartbeat));
        }
        // Compared in place, ascending both: a set is built only to change.
        let heard = |s: &SiteId| now.saturating_since(self.last_heard[s.0]) < self.suspect_after;
        let alive = || {
            (0..self.n)
                .map(SiteId)
                .filter(|s| *s == self.me || heard(s))
        };
        if !alive().eq(self.view.members.iter().copied()) {
            let proposal = View {
                id: self.view.id + 1,
                members: alive().collect(),
            };
            outbound.push(Outbound::others(MemberWire::Propose(proposal.clone())));
            self.try_install(proposal, now, &mut events);
        }
        (events, outbound)
    }

    /// The view members this site's failure detector currently suspects:
    /// in the installed view, but silent for longer than the suspicion
    /// timeout.
    pub fn suspected(&self, now: SimTime) -> BTreeSet<SiteId> {
        self.view
            .members
            .iter()
            .copied()
            .filter(|&s| {
                s != self.me && now.saturating_since(self.last_heard[s.0]) >= self.suspect_after
            })
            .collect()
    }

    /// Handles an incoming membership wire message.
    pub fn on_wire(
        &mut self,
        from: SiteId,
        wire: MemberWire,
        now: SimTime,
    ) -> (Vec<MemberEvent>, Vec<Outbound<MemberWire>>) {
        self.last_heard[from.0] = now;
        let mut events = Vec::new();
        match wire {
            MemberWire::Heartbeat => {}
            MemberWire::Propose(v) => {
                self.try_install(v, now, &mut events);
            }
        }
        (events, Vec::new())
    }

    /// Records direct evidence of liveness (any application message counts
    /// as a heartbeat).
    pub fn heard_from(&mut self, site: SiteId, now: SimTime) {
        self.last_heard[site.0] = now;
    }

    /// Re-initialises a recovered site from a donor's view (state
    /// transfer): adopts the view, marks every member freshly heard so the
    /// detector does not immediately suspect the whole world, and restores
    /// operation if the view holds a majority.
    pub fn resume(&mut self, view: View, now: SimTime) {
        self.operational = view.contains(self.me) && view.has_majority_of(self.n);
        self.view = view;
        for t in self.last_heard.iter_mut() {
            *t = now;
        }
        self.last_beat = now;
    }

    fn try_install(&mut self, v: View, now: SimTime, events: &mut Vec<MemberEvent>) {
        if v.id <= self.view.id {
            return;
        }
        if !v.contains(self.me) {
            // Someone evicted us: we are on the wrong side of a partition.
            self.operational = false;
            events.push(MemberEvent::Isolated);
            return;
        }
        if !v.has_majority_of(self.n) {
            self.operational = false;
            events.push(MemberEvent::Isolated);
            return;
        }
        // Installing a view is liveness evidence for every member it
        // re-admits: the proposal quotes someone who heard them. Without
        // this refresh a rejoining member this site has not yet heard
        // directly would be re-suspected on the very next tick — before
        // its first heartbeat lands — and the view would flap.
        for &s in &v.members {
            if !self.view.contains(s) && self.last_heard[s.0] < now {
                self.last_heard[s.0] = now;
            }
        }
        self.view = v;
        self.operational = true;
        events.push(MemberEvent::ViewInstalled(self.view.clone()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> SimDuration {
        SimDuration::from_millis(x)
    }

    fn t(x: u64) -> SimTime {
        SimTime::from_micros(x * 1000)
    }

    #[test]
    fn initial_view_contains_everyone() {
        let v = View::initial(5);
        assert_eq!(v.id, 0);
        assert_eq!(v.len(), 5);
        assert!(v.has_majority_of(5));
        assert_eq!(v.coordinator(), Some(SiteId(0)));
    }

    #[test]
    fn majority_is_strict() {
        let mut v = View::initial(4);
        v.members.remove(&SiteId(3));
        v.members.remove(&SiteId(2));
        assert!(!v.has_majority_of(4), "2 of 4 is not a majority");
        v.members.insert(SiteId(2));
        assert!(v.has_majority_of(4), "3 of 4 is a majority");
    }

    #[test]
    fn heartbeats_emitted_on_schedule() {
        let mut m = ViewManager::new(SiteId(0), 3, ms(10), ms(50));
        // Fresh liveness so nothing is suspected during the test.
        for s in 0..3 {
            m.heard_from(SiteId(s), t(0));
        }
        let (_, out) = m.tick(t(10));
        assert!(out.iter().any(|o| matches!(o.wire, MemberWire::Heartbeat)));
        // Immediately after, no new beat.
        let (_, out) = m.tick(t(11));
        assert!(!out.iter().any(|o| matches!(o.wire, MemberWire::Heartbeat)));
    }

    #[test]
    fn silent_site_gets_suspected_and_view_shrinks() {
        let mut m = ViewManager::new(SiteId(0), 3, ms(10), ms(50));
        // Sites 1 and 2 heard at t=0; site 2 then goes silent.
        m.heard_from(SiteId(1), t(0));
        m.heard_from(SiteId(2), t(0));
        // Keep site 1 alive.
        m.heard_from(SiteId(1), t(40));
        let (events, out) = m.tick(t(55));
        assert!(
            out.iter()
                .any(|o| matches!(&o.wire, MemberWire::Propose(v) if !v.contains(SiteId(2)))),
            "proposal excluding the silent site"
        );
        assert!(matches!(events[..], [MemberEvent::ViewInstalled(_)]));
        assert_eq!(m.view().len(), 2);
        assert!(m.is_operational(), "2 of 3 is a majority");
    }

    #[test]
    fn losing_majority_isolates() {
        let mut m = ViewManager::new(SiteId(0), 5, ms(10), ms(50));
        // Everyone else goes silent.
        let (events, _) = m.tick(t(60));
        assert!(events.contains(&MemberEvent::Isolated));
        assert!(!m.is_operational());
    }

    #[test]
    fn proposal_with_higher_id_wins() {
        let mut m = ViewManager::new(SiteId(1), 3, ms(10), ms(50));
        let v = View {
            id: 3,
            members: [SiteId(0), SiteId(1)].into_iter().collect(),
        };
        let (events, _) = m.on_wire(SiteId(0), MemberWire::Propose(v.clone()), t(1));
        assert_eq!(events, vec![MemberEvent::ViewInstalled(v.clone())]);
        // A stale lower-id proposal is ignored.
        let stale = View {
            id: 2,
            members: [SiteId(1)].into_iter().collect(),
        };
        let (events, _) = m.on_wire(SiteId(2), MemberWire::Propose(stale), t(2));
        assert!(events.is_empty());
        assert_eq!(m.view(), &v);
    }

    #[test]
    fn eviction_proposal_isolates_me() {
        let mut m = ViewManager::new(SiteId(2), 3, ms(10), ms(50));
        let v = View {
            id: 1,
            members: [SiteId(0), SiteId(1)].into_iter().collect(),
        };
        let (events, _) = m.on_wire(SiteId(0), MemberWire::Propose(v), t(1));
        assert_eq!(events, vec![MemberEvent::Isolated]);
        assert!(!m.is_operational());
    }

    #[test]
    fn application_traffic_counts_as_liveness() {
        let mut m = ViewManager::new(SiteId(0), 2, ms(10), ms(50));
        m.heard_from(SiteId(1), t(45));
        let (events, _) = m.tick(t(60));
        assert!(events.is_empty(), "recent app message prevents suspicion");
        assert_eq!(m.view().len(), 2);
    }

    #[test]
    fn heartbeat_wire_refreshes_liveness() {
        let mut m = ViewManager::new(SiteId(0), 2, ms(10), ms(50));
        m.on_wire(SiteId(1), MemberWire::Heartbeat, t(48));
        let (events, _) = m.tick(t(60));
        assert!(events.is_empty());
    }

    /// Crash → recover → rejoin: a site installing a view that re-admits a
    /// recovered member it has not heard from directly must not re-suspect
    /// that member on its next tick. Pre-fix, the install left
    /// `last_heard` stale, so the tick right after it proposed the
    /// member's eviction again and the view flapped.
    #[test]
    fn readmitted_member_is_not_instantly_resuspected() {
        let mut m = ViewManager::new(SiteId(0), 3, ms(10), ms(50));
        m.heard_from(SiteId(1), t(0));
        m.heard_from(SiteId(2), t(0));
        // Site 2 crashes; keep site 1 alive past the suspicion timeout.
        m.heard_from(SiteId(1), t(40));
        let (events, _) = m.tick(t(55));
        assert!(matches!(events[..], [MemberEvent::ViewInstalled(_)]));
        assert_eq!(m.view().len(), 2, "view shrank to the survivors");
        // Site 1 stays alive; site 2 recovers much later and site 1 (who
        // heard its first heartbeat) proposes re-admission. Site 0 has not
        // heard site 2 itself yet — its last_heard[2] is stale.
        m.heard_from(SiteId(1), t(90));
        let readmit = View {
            id: m.view().id + 1,
            members: [SiteId(0), SiteId(1), SiteId(2)].into_iter().collect(),
        };
        let (events, _) = m.on_wire(SiteId(1), MemberWire::Propose(readmit.clone()), t(100));
        assert_eq!(events, vec![MemberEvent::ViewInstalled(readmit.clone())]);
        // The very next tick must keep the rejoiner: installing the view
        // counted as hearing it.
        let (events, out) = m.tick(t(101));
        assert!(
            events.is_empty(),
            "rejoiner re-suspected before its first heartbeat: {events:?}"
        );
        assert!(
            !out.iter()
                .any(|o| matches!(&o.wire, MemberWire::Propose(v) if !v.contains(SiteId(2)))),
            "tick right after re-admission proposed evicting the rejoiner"
        );
        assert_eq!(m.view(), &readmit);
    }

    /// The suspected set is exactly the stale view members, never me.
    #[test]
    fn suspected_set_tracks_stale_members() {
        let mut m = ViewManager::new(SiteId(0), 3, ms(10), ms(50));
        m.heard_from(SiteId(1), t(40));
        m.heard_from(SiteId(2), t(1));
        let s = m.suspected(t(60));
        assert_eq!(s.into_iter().collect::<Vec<_>>(), vec![SiteId(2)]);
        assert!(m.suspected(t(41)).is_empty());
    }

    #[test]
    fn coordinator_moves_after_eviction() {
        let v = View {
            id: 1,
            members: [SiteId(1), SiteId(2)].into_iter().collect(),
        };
        assert_eq!(v.coordinator(), Some(SiteId(1)));
    }
}
