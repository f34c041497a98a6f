//! The simulation driver: owns the nodes, the event queue, and the network,
//! and runs the discrete-event loop.

use crate::event::{EventKind, EventQueue};
use crate::net::{Network, NetworkConfig, Transit};
use crate::stats::{Sample, SampleWriter, StatsRegistry};
use crate::{DetRng, SimDuration, SimTime, SiteId};

/// A deterministic state machine living at one site of the simulated system.
///
/// Nodes communicate only through [`Ctx::send`] / [`Ctx::send_sized`] and
/// receive input through [`Node::on_message`] and [`Node::on_timer`]. All
/// randomness must come from [`Ctx::rng`] so runs stay reproducible.
pub trait Node {
    /// Message type exchanged between nodes.
    type Msg: Clone;
    /// Tag type for local timers.
    type Timer: Clone;

    /// Called when a message from `from` is delivered to this node.
    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg, Self::Timer>,
        from: SiteId,
        msg: Self::Msg,
    );

    /// Called when a timer previously set with [`Ctx::set_timer`] fires
    /// (or one scheduled externally via [`Simulation::schedule_timer`]).
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Timer>, tag: Self::Timer);

    /// Contributes this node's series to a metrics sample. Called by the
    /// driver at each sampling boundary when metrics are enabled (see
    /// [`Simulation::enable_stats`]); the default contributes nothing.
    /// Implementations must only *read* state — sampling must never change
    /// the simulation's behavior.
    fn sample_stats(&self, sample: &mut SampleWriter) {
        let _ = sample;
    }
}

/// Execution context handed to a node while it processes an event.
///
/// Provides the current virtual time, the node's identity, deterministic
/// randomness, and the only legal ways to produce output: sending messages
/// and setting timers.
pub struct Ctx<'a, M, T> {
    now: SimTime,
    me: SiteId,
    n_sites: usize,
    net: &'a mut Network,
    rng: &'a mut DetRng,
    queue: &'a mut EventQueue<M, T>,
    default_msg_size: usize,
}

impl<'a, M: Clone, T: Clone> Ctx<'a, M, T> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The identity of the node processing this event.
    pub fn me(&self) -> SiteId {
        self.me
    }

    /// Total number of sites in the system.
    pub fn n_sites(&self) -> usize {
        self.n_sites
    }

    /// Deterministic random source for this run.
    pub fn rng(&mut self) -> &mut DetRng {
        self.rng
    }

    /// Sends `msg` to `to` over the simulated network (may be lost or
    /// delayed according to the network configuration). Sending to self is
    /// allowed and goes through the network like any other message.
    /// Returns whether the network accepted the message, so callers can
    /// trace losses; most ignore the result.
    pub fn send(&mut self, to: SiteId, msg: M) -> SendOutcome {
        self.send_sized(to, msg, self.default_msg_size)
    }

    /// Like [`Ctx::send`] but records `size` bytes against traffic counters.
    pub fn send_sized(&mut self, to: SiteId, msg: M, size: usize) -> SendOutcome {
        match self.net.transit(self.now, self.me, to, size, self.rng) {
            Transit::DeliverAt(t) | Transit::Delayed(t) => {
                self.queue.schedule(
                    t,
                    EventKind::Deliver {
                        from: self.me,
                        to,
                        msg,
                    },
                );
                SendOutcome::Accepted
            }
            Transit::Duplicated { first, second } => {
                // A duplicated packet is *two* deliveries of one logical
                // message: the receiver's duplicate suppression (not the
                // network) is what keeps semantics exactly-once.
                self.queue.schedule(
                    first,
                    EventKind::Deliver {
                        from: self.me,
                        to,
                        msg: msg.clone(),
                    },
                );
                self.queue.schedule(
                    second,
                    EventKind::Deliver {
                        from: self.me,
                        to,
                        msg,
                    },
                );
                SendOutcome::Duplicated
            }
            Transit::Dropped => SendOutcome::Dropped,
        }
    }

    /// Schedules `tag` to fire at this node after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, tag: T) {
        self.queue
            .schedule(self.now + delay, EventKind::Timer { at: self.me, tag });
    }
}

/// What the network did with a message handed to [`Ctx::send`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// The message was accepted and will be delivered.
    Accepted,
    /// The message was lost (random loss, crash, or partition).
    Dropped,
    /// A fault-plan `Duplicate` clause fired: the message was accepted
    /// and will be delivered *twice*.
    Duplicated,
}

/// Why a run loop returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained before the deadline.
    Quiesced {
        /// Virtual time of the last processed event.
        at: SimTime,
    },
    /// The deadline was reached with events still pending.
    DeadlineReached,
}

/// A complete simulated system: `n` nodes, a network, and an event queue.
pub struct Simulation<N: Node> {
    nodes: Vec<N>,
    net: Network,
    rng: DetRng,
    queue: EventQueue<N::Msg, N::Timer>,
    now: SimTime,
    events_processed: u64,
    default_msg_size: usize,
    /// The metric store, when metrics are on.
    stats: Option<StatsRegistry>,
    /// Next virtual-time sampling boundary (meaningful only with `stats`).
    next_sample_at: SimTime,
    /// Reused by every sample.
    sampler: SampleWriter,
}

impl<N: Node> Simulation<N> {
    /// Creates a simulation over the given nodes (site `i` is `nodes[i]`).
    pub fn new(seed: u64, config: NetworkConfig, nodes: Vec<N>) -> Self {
        // Pre-size the event queue's pool and far heap for a broadcast-heavy
        // workload: every step of an N-site cluster can fan out O(N)
        // deliveries, and in-flight timers add a few more per site. 64·N
        // is a starting size, not a bound: a lossy 4-site P-RB run holds
        // up to 758 cells, so its pool doubles twice while warming up and
        // then keeps its peak; a saturated 32-site ring holds up to 2 141
        // events, half of them far, and needs 349 cells. Capacity never
        // affects ordering.
        let cap = nodes.len().saturating_mul(64).max(256);
        Simulation {
            nodes,
            net: Network::new(config),
            rng: DetRng::new(seed),
            queue: EventQueue::with_capacity(cap),
            now: SimTime::ZERO,
            events_processed: 0,
            default_msg_size: 64,
            stats: None,
            next_sample_at: SimTime::ZERO,
            sampler: SampleWriter::default(),
        }
    }

    /// Starts the virtual-time sampler, one sample every `interval`.
    ///
    /// The driver takes one sample per interval, always *between*
    /// events: before processing the first event at or past a boundary (so
    /// the sample sees the state the boundary was crossed with), and up to
    /// the deadline when a run ends with [`RunOutcome::DeadlineReached`].
    /// Sampling never schedules events, so enabling metrics cannot change
    /// event sequence numbers, delivery order, or any simulation output —
    /// only the sample stream itself. Boundaries are derived from the
    /// attach-time clock: the first sample lands one interval after `now`.
    ///
    /// Samples are only taken inside [`Simulation::run_until`] (and
    /// [`Simulation::run_to_quiescence`]); manual [`Simulation::step`]
    /// loops bypass the sampler.
    ///
    /// # Panics
    /// Panics if `interval` is zero.
    pub fn enable_stats(&mut self, interval: SimDuration) {
        self.stats = Some(StatsRegistry::new(interval));
        self.next_sample_at = self.now + interval;
    }

    /// The samples taken so far, oldest first (empty when metrics are off).
    pub fn samples(&self) -> Vec<Sample> {
        self.stats.iter().flat_map(StatsRegistry::samples).collect()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of sites.
    pub fn n_sites(&self) -> usize {
        self.nodes.len()
    }

    /// Immutable access to a node's state (for assertions and metrics).
    ///
    /// # Panics
    /// Panics if `site` is out of range.
    pub fn node(&self, site: SiteId) -> &N {
        &self.nodes[site.0]
    }

    /// Mutable access to a node's state (for test setup).
    ///
    /// # Panics
    /// Panics if `site` is out of range.
    pub fn node_mut(&mut self, site: SiteId) -> &mut N {
        &mut self.nodes[site.0]
    }

    /// Iterates over `(SiteId, &N)` pairs.
    pub fn nodes(&self) -> impl Iterator<Item = (SiteId, &N)> {
        self.nodes.iter().enumerate().map(|(i, n)| (SiteId(i), n))
    }

    /// The network substrate (for failure injection and traffic counters).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Mutable network access (crash/recover/partition).
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Injects a message from outside the system (e.g. a client request);
    /// it is delivered through the network like any other message.
    pub fn send_external(&mut self, from: SiteId, to: SiteId, msg: N::Msg) {
        match self
            .net
            .transit(self.now, from, to, self.default_msg_size, &mut self.rng)
        {
            Transit::DeliverAt(t) | Transit::Delayed(t) => {
                self.queue.schedule(t, EventKind::Deliver { from, to, msg });
            }
            Transit::Duplicated { first, second } => {
                self.queue.schedule(
                    first,
                    EventKind::Deliver {
                        from,
                        to,
                        msg: msg.clone(),
                    },
                );
                self.queue
                    .schedule(second, EventKind::Deliver { from, to, msg });
            }
            Transit::Dropped => {}
        }
    }

    /// Schedules a timer to fire at `site` at absolute time `at`. Used by
    /// workload drivers to inject transaction arrivals.
    pub fn schedule_timer(&mut self, at: SimTime, site: SiteId, tag: N::Timer) {
        self.queue.schedule(at, EventKind::Timer { at: site, tag });
    }

    /// Processes the next event if one exists, returning `false` when the
    /// queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(ev) = self.queue.pop() else {
            return false;
        };
        debug_assert!(ev.time >= self.now, "time went backwards");
        self.now = ev.time;
        self.events_processed += 1;
        match ev.kind {
            EventKind::Deliver { from, to, msg } => {
                // A site that crashed after the message was scheduled
                // receives nothing.
                if self.net.is_crashed(to) {
                    return true;
                }
                let mut ctx = Ctx {
                    now: self.now,
                    me: to,
                    n_sites: self.nodes.len(),
                    net: &mut self.net,
                    rng: &mut self.rng,
                    queue: &mut self.queue,
                    default_msg_size: self.default_msg_size,
                };
                self.nodes[to.0].on_message(&mut ctx, from, msg);
            }
            EventKind::Timer { at, tag } => {
                if self.net.is_crashed(at) {
                    return true;
                }
                let mut ctx = Ctx {
                    now: self.now,
                    me: at,
                    n_sites: self.nodes.len(),
                    net: &mut self.net,
                    rng: &mut self.rng,
                    queue: &mut self.queue,
                    default_msg_size: self.default_msg_size,
                };
                self.nodes[at.0].on_timer(&mut ctx, tag);
            }
        }
        true
    }

    /// Runs until the queue drains or virtual time would exceed `deadline`.
    ///
    /// On [`RunOutcome::DeadlineReached`], virtual time is advanced to the
    /// deadline itself, so repeated calls with increasing deadlines make
    /// progress even through quiet periods.
    pub fn run_until(&mut self, deadline: SimTime) -> RunOutcome {
        if let Some(stats) = &self.stats {
            return self.run_until_sampled(deadline, stats.interval());
        }
        loop {
            match self.queue.peek_time() {
                None => return RunOutcome::Quiesced { at: self.now },
                Some(t) if t > deadline => {
                    self.now = self.now.max(deadline);
                    return RunOutcome::DeadlineReached;
                }
                Some(_) => {
                    self.step();
                }
            }
        }
    }

    /// The metrics-enabled run loop: identical event processing to
    /// [`Simulation::run_until`], plus a sample at every elapsed boundary.
    /// Kept separate so the metrics-off hot loop pays nothing.
    fn run_until_sampled(&mut self, deadline: SimTime, interval: SimDuration) -> RunOutcome {
        loop {
            match self.queue.peek_time() {
                None => return RunOutcome::Quiesced { at: self.now },
                Some(t) if t > deadline => {
                    while self.next_sample_at <= deadline {
                        self.take_sample(interval);
                    }
                    self.now = self.now.max(deadline);
                    return RunOutcome::DeadlineReached;
                }
                Some(t) => {
                    while self.next_sample_at <= t {
                        self.take_sample(interval);
                    }
                    self.step();
                }
            }
        }
    }

    /// Takes the sample for the boundary at `next_sample_at` and advances
    /// the boundary by one interval.
    fn take_sample(&mut self, interval: SimDuration) {
        let at = self.next_sample_at;
        let sample = &mut self.sampler;
        sample.set("queue_depth", self.queue.len() as u64);
        sample.set("events_processed", self.events_processed);
        let ws = self.queue.wheel_stats();
        sample.set("wheel.sched_near", ws.sched_near);
        sample.set("wheel.sched_far", ws.sched_far);
        sample.set("wheel.sched_past", ws.sched_past);
        sample.set("wheel.far_len", ws.far_len as u64);
        sample.set("wheel.past_len", ws.past_len as u64);
        self.net.sample_into(at, sample);
        for node in &self.nodes {
            node.sample_stats(sample);
        }
        if let Some(stats) = &mut self.stats {
            stats.commit_sample(at, sample);
        }
        self.next_sample_at = at + interval;
    }

    /// The queue's timing-wheel placement statistics (see
    /// [`crate::WheelStats`]).
    pub fn wheel_stats(&self) -> crate::WheelStats {
        self.queue.wheel_stats()
    }

    /// Runs until the queue drains, but at most `budget` of virtual time
    /// past the current instant (a safety valve against livelock bugs).
    pub fn run_to_quiescence(&mut self, budget: SimDuration) -> RunOutcome {
        let deadline = self.now + budget;
        self.run_until(deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Node that counts pings and replies with pongs a fixed number of times.
    struct PingPong {
        pings: usize,
        pongs: usize,
        replies_left: usize,
    }

    #[derive(Clone, Debug, PartialEq)]
    enum Msg {
        Ping,
        Pong,
    }

    impl Node for PingPong {
        type Msg = Msg;
        type Timer = u32;
        fn on_message(&mut self, ctx: &mut Ctx<'_, Msg, u32>, from: SiteId, msg: Msg) {
            match msg {
                Msg::Ping => {
                    self.pings += 1;
                    if self.replies_left > 0 {
                        self.replies_left -= 1;
                        ctx.send(from, Msg::Pong);
                    }
                }
                Msg::Pong => self.pongs += 1,
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg, u32>, tag: u32) {
            // On timer `k`, ping everyone else `k` times.
            let me = ctx.me();
            for _ in 0..tag {
                for to in (0..ctx.n_sites()).map(SiteId).filter(|&to| to != me) {
                    ctx.send(to, Msg::Ping);
                }
            }
        }
    }

    fn mk(n: usize) -> Simulation<PingPong> {
        let nodes = (0..n)
            .map(|_| PingPong {
                pings: 0,
                pongs: 0,
                replies_left: 100,
            })
            .collect();
        Simulation::new(
            7,
            NetworkConfig::deterministic(SimDuration::from_millis(1)),
            nodes,
        )
    }

    #[test]
    fn ping_generates_pong() {
        let mut sim = mk(2);
        sim.send_external(SiteId(0), SiteId(1), Msg::Ping);
        let out = sim.run_to_quiescence(SimDuration::from_secs(1));
        assert!(matches!(out, RunOutcome::Quiesced { .. }));
        assert_eq!(sim.node(SiteId(1)).pings, 1);
        assert_eq!(sim.node(SiteId(0)).pongs, 1);
    }

    #[test]
    fn timers_fire_at_scheduled_site() {
        let mut sim = mk(3);
        sim.schedule_timer(SimTime::from_micros(10), SiteId(2), 1);
        sim.run_to_quiescence(SimDuration::from_secs(1));
        // Site 2 pinged sites 0 and 1; both replied.
        assert_eq!(sim.node(SiteId(0)).pings, 1);
        assert_eq!(sim.node(SiteId(1)).pings, 1);
        assert_eq!(sim.node(SiteId(2)).pongs, 2);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut sim = mk(4);
            for i in 0..4 {
                sim.schedule_timer(SimTime::from_micros(i as u64), SiteId(i), 3);
            }
            sim.run_to_quiescence(SimDuration::from_secs(1));
            (
                sim.events_processed(),
                sim.now(),
                sim.network().messages_sent(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn crashed_node_stops_receiving() {
        let mut sim = mk(2);
        sim.network_mut().crash(SiteId(1));
        sim.send_external(SiteId(0), SiteId(1), Msg::Ping);
        sim.run_to_quiescence(SimDuration::from_secs(1));
        assert_eq!(sim.node(SiteId(1)).pings, 0);
    }

    #[test]
    fn crash_after_scheduling_suppresses_delivery() {
        let mut sim = mk(2);
        sim.send_external(SiteId(0), SiteId(1), Msg::Ping);
        // Crash before the event fires (delivery takes 1ms).
        sim.network_mut().crash(SiteId(1));
        sim.run_to_quiescence(SimDuration::from_secs(1));
        assert_eq!(sim.node(SiteId(1)).pings, 0);
    }

    #[test]
    fn deadline_stops_the_loop() {
        let mut sim = mk(2);
        sim.schedule_timer(SimTime::from_micros(5_000_000), SiteId(0), 1);
        let out = sim.run_until(SimTime::from_micros(100));
        assert_eq!(out, RunOutcome::DeadlineReached);
        assert_eq!(sim.events_processed(), 0);
    }

    #[test]
    fn sampler_does_not_perturb_the_run() {
        let run = |sampled: bool| {
            let mut sim = mk(4);
            if sampled {
                sim.enable_stats(SimDuration::from_millis(1));
            }
            for i in 0..4 {
                sim.schedule_timer(SimTime::from_micros(i as u64), SiteId(i), 3);
            }
            sim.run_to_quiescence(SimDuration::from_secs(1));
            (
                sim.events_processed(),
                sim.now(),
                sim.network().messages_sent(),
                sim.samples(),
            )
        };
        let (ev_off, now_off, sent_off, samples_off) = run(false);
        let (ev_on, now_on, sent_on, samples_on) = run(true);
        // Sampling must be an observer: identical run, plus samples.
        assert_eq!((ev_off, now_off, sent_off), (ev_on, now_on, sent_on));
        assert!(samples_off.is_empty());
        assert!(!samples_on.is_empty(), "sampled run produced no samples");
        // Boundaries are exact multiples of the interval.
        for (i, s) in samples_on.iter().enumerate() {
            assert_eq!(s.at.as_micros(), (i as u64 + 1) * 1_000);
            assert!(s.values.contains_key("queue_depth"));
            assert!(s.values.contains_key("net.msgs_sent"));
        }
        // And the stream itself is deterministic.
        let (_, _, _, samples_again) = run(true);
        assert_eq!(samples_on, samples_again);
    }

    #[test]
    fn deadline_flushes_samples_up_to_the_deadline() {
        let mut sim = mk(2);
        sim.enable_stats(SimDuration::from_millis(1));
        // One far-future event keeps the queue non-empty past the deadline.
        sim.schedule_timer(SimTime::from_micros(10_000_000), SiteId(0), 1);
        let out = sim.run_until(SimTime::from_micros(5_500));
        assert_eq!(out, RunOutcome::DeadlineReached);
        let samples = sim.samples();
        let ats: Vec<u64> = samples.iter().map(|s| s.at.as_micros()).collect();
        assert_eq!(ats, vec![1_000, 2_000, 3_000, 4_000, 5_000]);
    }

    #[test]
    fn virtual_time_advances_monotonically() {
        let mut sim = mk(3);
        for i in 0..3 {
            sim.schedule_timer(SimTime::from_micros(i as u64 * 7), SiteId(i), 2);
        }
        let mut last = SimTime::ZERO;
        while sim.step() {
            assert!(sim.now() >= last);
            last = sim.now();
        }
    }
}
