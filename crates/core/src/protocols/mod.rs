//! The four replication protocols.
//!
//! Each protocol module owns the state that is specific to its commitment
//! scheme and drives the shared per-site state
//! machinery. Protocols are *sans-IO*: they emit [`Effects`] (destination +
//! message pairs) that the [`ReplicaNode`](crate::engine::ReplicaNode)
//! flushes into the simulated network.

pub mod atomic;
pub mod causal;
pub mod p2p;
pub mod reliable;

use crate::payload::ReplicaMsg;
use bcastdb_broadcast::msg::Dest;
use bcastdb_sim::SiteId;

/// Outbound messages produced while handling one input.
#[derive(Debug, Default)]
pub struct Effects {
    /// `(destination, message)` pairs, in emission order.
    pub sends: Vec<(Dest, ReplicaMsg)>,
    /// Local transactions pausing for read-phase think time; the engine
    /// schedules their next step.
    pub pauses: Vec<bcastdb_db::TxnId>,
    /// Local transactions pausing between write-operation broadcasts; the
    /// engine schedules their next step.
    pub write_pauses: Vec<bcastdb_db::TxnId>,
}

/// Bounded exponential backoff over the engine's tick cadence, used by the
/// loss-recovery retransmit solicitations (reliable `RSync` watermarks and
/// causal gap-reporting nulls).
///
/// With a fixed tick interval every undecided transaction costs one
/// solicitation broadcast per tick cluster-wide, even when nothing was lost.
/// Backoff keeps the first solicitation immediate and then doubles the gap
/// between repeats — 1, 2, 4, … [`RetransmitBackoff::MAX_EXP`] ticks — while
/// any sign of progress (the protocol's delivery frontier moving) snaps the
/// cadence back to every tick. A deterministic per-site jitter derived from
/// `(site, attempt)` desynchronizes the herd without consuming simulator
/// randomness, preserving the replayability contract.
///
/// Disabled (the default) it fires on every tick, byte-identical to the
/// fixed-interval behavior that predates it.
#[derive(Debug)]
pub struct RetransmitBackoff {
    enabled: bool,
    site: usize,
    /// Consecutive solicitations without observed progress (capped).
    attempt: u32,
    /// Ticks still to skip before the next solicitation may fire.
    skip: u32,
}

impl RetransmitBackoff {
    /// Cap on the exponent: the base gap never exceeds `2^MAX_EXP` ticks
    /// (jitter can at most double it, keeping the cadence bounded).
    pub const MAX_EXP: u32 = 4;

    /// Creates a disabled (fire-every-tick) backoff for `site`.
    pub fn new(site: SiteId) -> Self {
        RetransmitBackoff {
            enabled: false,
            site: site.0,
            attempt: 0,
            skip: 0,
        }
    }

    /// Switches the exponential cadence on.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Records protocol progress: the next solicitation fires on the very
    /// next tick again.
    pub fn reset(&mut self) {
        self.attempt = 0;
        self.skip = 0;
    }

    /// Called once per engine tick; returns whether the solicitation
    /// should fire on this tick.
    pub fn due(&mut self) -> bool {
        if !self.enabled {
            return true;
        }
        if self.skip > 0 {
            self.skip -= 1;
            return false;
        }
        let exp = self.attempt.min(Self::MAX_EXP);
        let gap = 1u32 << exp;
        // Deterministic jitter in `0..gap`: a hash of (site, attempt), so
        // sites that backed off together do not re-solicit in lockstep.
        let jitter = if gap > 1 {
            let h = (self.site as u32)
                .wrapping_mul(2654435761)
                .wrapping_add(self.attempt.wrapping_mul(40503));
            h % gap
        } else {
            0
        };
        self.skip = gap - 1 + jitter;
        self.attempt = self.attempt.saturating_add(1);
        true
    }
}

impl Effects {
    /// Creates an empty effect set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues a message to every other site.
    pub fn send_others(&mut self, msg: ReplicaMsg) {
        self.sends.push((Dest::Others, msg));
    }

    /// Queues a unicast.
    pub fn send_to(&mut self, site: SiteId, msg: ReplicaMsg) {
        self.sends.push((Dest::Site(site), msg));
    }

    /// Queues a message according to an explicit destination selector.
    pub fn send(&mut self, dest: Dest, msg: ReplicaMsg) {
        self.sends.push((dest, msg));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every kind of protocol payload about `txn`, as a late duplicate would
    /// carry it: what the per-protocol tests hand to a site that has already
    /// decided `txn`, to check that nothing brings it back.
    pub(crate) fn stale_payloads(
        txn: bcastdb_db::TxnId,
    ) -> Vec<std::sync::Arc<crate::payload::Payload>> {
        use crate::payload::{Payload, TxnPriority};
        let prio = TxnPriority {
            ts: 1,
            origin: txn.origin,
            num: txn.num,
        };
        let site = SiteId(1);
        [
            Payload::Write {
                txn,
                prio,
                op: bcastdb_db::WriteOp {
                    key: "x".into(),
                    value: 1,
                },
                index: 0,
                of: 1,
            },
            Payload::CommitReq {
                txn,
                prio,
                n_writes: 1,
                read_versions: Vec::new(),
                write_versions: Vec::new(),
            },
            Payload::Vote {
                txn,
                site,
                yes: true,
            },
            Payload::Vote {
                txn,
                site,
                yes: false,
            },
            Payload::Nack { txn, site },
            Payload::AbortDecision { txn },
        ]
        .map(std::sync::Arc::new)
        .to_vec()
    }
    use crate::payload::{P2pMsg, ReplicaMsg};
    use bcastdb_db::TxnId;

    #[test]
    fn backoff_disabled_fires_every_tick() {
        let mut b = RetransmitBackoff::new(SiteId(3));
        assert!((0..32).all(|_| b.due()));
    }

    #[test]
    fn backoff_gaps_grow_exponentially_and_stay_bounded() {
        let mut b = RetransmitBackoff::new(SiteId(0));
        b.enable();
        // Collect the tick indices that fire over a long stall.
        let fire_ticks: Vec<usize> = (0..200usize).filter(|_| b.due()).collect();
        assert_eq!(fire_ticks[0], 0, "first solicitation is immediate");
        let gaps: Vec<usize> = fire_ticks.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(
            gaps.windows(2).all(|w| w[1] >= w[0] || w[0] >= 16),
            "gaps never shrink before the cap: {gaps:?}"
        );
        let max_gap = 2 * (1usize << RetransmitBackoff::MAX_EXP);
        assert!(
            gaps.iter().all(|&g| g <= max_gap),
            "gap bounded by 2*2^MAX_EXP (jitter included): {gaps:?}"
        );
        assert!(
            gaps.iter().any(|&g| g > 1),
            "the cadence actually backs off: {gaps:?}"
        );
    }

    #[test]
    fn backoff_reset_snaps_back_to_next_tick() {
        let mut b = RetransmitBackoff::new(SiteId(1));
        b.enable();
        assert!(b.due());
        // Walk into a long gap, then signal progress mid-gap.
        for _ in 0..3 {
            while !b.due() {}
        }
        assert!(!b.due(), "deep in a gap now");
        b.reset();
        assert!(b.due(), "progress makes the next tick fire again");
    }

    #[test]
    fn backoff_jitter_desynchronizes_sites() {
        // Two sites that stall in lockstep must not fire in lockstep
        // forever: at some attempt their jitter separates them.
        let fire = |site: usize| {
            let mut b = RetransmitBackoff::new(SiteId(site));
            b.enable();
            (0..400).filter(|_| b.due()).count()
        };
        let schedules: Vec<usize> = (0..4).map(fire).collect();
        assert!(
            schedules.windows(2).any(|w| w[0] != w[1]),
            "per-site jitter must differentiate schedules: {schedules:?}"
        );
    }

    #[test]
    fn effects_preserve_emission_order() {
        let mut fx = Effects::new();
        let t = TxnId::new(SiteId(0), 1);
        fx.send_others(ReplicaMsg::P2p(P2pMsg::Abort { txn: t }));
        fx.send_to(SiteId(2), ReplicaMsg::P2p(P2pMsg::Abort { txn: t }));
        assert_eq!(fx.sends.len(), 2);
        assert_eq!(fx.sends[0].0, Dest::Others);
        assert_eq!(fx.sends[1].0, Dest::Site(SiteId(2)));
    }
}
