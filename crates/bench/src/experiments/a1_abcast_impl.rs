//! **A1 (ablation) — Atomic broadcast as a bandwidth problem.**
//!
//! The paper stresses that atomic broadcast is "both expensive and complex
//! to implement", but its cost model counts messages, not bytes. This
//! saturation sweep drives the three total-order engines directly on the
//! simulator under the F6 bandwidth model — every NIC transmits at
//! 200 kB/s — with a closed-loop workload (each site keeps a fixed number
//! of its own broadcasts outstanding) over N ∈ {3..32} × payload ∈
//! {64 B, 1 kB, 8 kB}, and reports *delivered payload bytes per second per
//! site* against the analytic single-link bound:
//!
//! - **sequencer** funnels every payload through the leader's NIC (the
//!   leader retransmits N-1 copies), so throughput collapses as ~1/N;
//! - **isis** disseminates from each origin (N-1 copies of that origin's
//!   own payloads), which spreads the byte cost but triples the message
//!   count;
//! - **ring** forwards each payload exactly once per NIC regardless of N,
//!   so it stays within a constant factor of the link bound at any group
//!   size.
//!
//! `--smoke` runs only the N=32 × 8 kB column (the acceptance point) for
//! the CI gate. This is the one experiment without a `Cluster` — the
//! engines run on a bare [`Simulation`] — so `--trace-out` and
//! `--metrics-out` have nothing to write here.

use super::Run;
use crate::Table;
use bcastdb_broadcast::atomic::{IsisAbcast, Output, SequencerAbcast};
use bcastdb_broadcast::msg::{dest_iter, Outbound};
use bcastdb_broadcast::ring::RingAbcast;
use bcastdb_broadcast::{AtomicBcast, WireSize};
use bcastdb_sim::{Ctx, NetworkConfig, Node, SimDuration, SimTime, Simulation, SiteId};

/// Per-sender NIC rate of the saturation model, in bytes per simulated
/// second (the F6 bandwidth profile's 200 kB/s).
const NIC_BYTES_PER_SEC: u64 = 200_000;
/// Own broadcasts each site keeps outstanding (closed loop). Below the
/// ring's pipeline window so the closed loop, not the window, paces
/// submission.
const OUTSTANDING: usize = 4;
/// Measurement starts here — everything before is pipeline warm-up. At
/// N=32 the first payload alone takes 31 × 41 ms of hops to circulate, so
/// the ramp to a full pipeline is measured in seconds.
const WARMUP_US: u64 = 8_000_000;
/// Submission and measurement both stop here.
const END_US: u64 = 20_000_000;
/// Pacing-timer period. Sites whose engine delivers their own broadcasts
/// inline (the sequencer itself; a solo ring) never see a network
/// round-trip per submission, so the closed loop alone would spin — the
/// timer caps their offered load at `OUTSTANDING` per period, still far
/// above what a 200 kB/s NIC drains.
const PACE_US: u64 = 5_000;

/// An opaque payload: `wire_size` is its length, nothing is materialized.
#[derive(Debug, Clone, Copy)]
struct Blob(usize);

impl WireSize for Blob {
    fn wire_size(&self) -> usize {
        self.0
    }
}

/// One site of the saturation rig: an atomic-broadcast engine plus the
/// closed-loop driver and the in-window delivery accounting.
struct AbNode<A> {
    engine: A,
    n: usize,
    payload: usize,
    /// Own broadcasts submitted but not yet self-delivered.
    outstanding: usize,
    /// Payload bytes delivered inside the measurement window.
    delivered_bytes: u64,
    /// Deliveries (any origin) inside the measurement window.
    delivered_msgs: u64,
    /// Wire messages sent inside the measurement window.
    sent_msgs: u64,
}

impl<A: AtomicBcast<Blob>> AbNode<A>
where
    A::Wire: WireSize,
{
    fn new(engine: A, n: usize, payload: usize) -> Self {
        AbNode {
            engine,
            n,
            payload,
            outstanding: 0,
            delivered_bytes: 0,
            delivered_msgs: 0,
            sent_msgs: 0,
        }
    }

    fn in_window(now: SimTime) -> bool {
        let t = now.as_micros();
        (WARMUP_US..END_US).contains(&t)
    }

    /// Routes an engine's output: fan out the wire messages (sized, so the
    /// NIC model sees the real bytes) and account the deliveries. Returns
    /// how many of the deliveries were this site's own broadcasts.
    fn route(&mut self, ctx: &mut Ctx<'_, A::Wire, ()>, out: Output<Blob, A::Wire>) -> usize {
        let now = ctx.now();
        let me = ctx.me();
        let counted = Self::in_window(now);
        for Outbound { dest, wire } in out.outbound {
            let size = wire.wire_size();
            for to in dest_iter(dest, me, self.n) {
                if counted {
                    self.sent_msgs += 1;
                }
                ctx.send_sized(to, wire.clone(), size);
            }
        }
        let mut own = 0;
        for d in out.deliveries {
            if counted {
                self.delivered_bytes += d.payload.0 as u64;
                self.delivered_msgs += 1;
            }
            if d.id.origin == me {
                own += 1;
            }
        }
        own
    }

    /// The closed loop: top up to `OUTSTANDING` of our own broadcasts in
    /// flight (submission stops at the measurement horizon). Single pass —
    /// a submission the engine delivers back inline counts as one attempt,
    /// so a site with zero-feedback self-delivery cannot spin here.
    fn refill(&mut self, ctx: &mut Ctx<'_, A::Wire, ()>) {
        let mut attempts = OUTSTANDING.saturating_sub(self.outstanding);
        while attempts > 0 && ctx.now().as_micros() < END_US {
            attempts -= 1;
            self.outstanding += 1;
            let (_, out) = self.engine.broadcast(Blob(self.payload));
            self.outstanding -= self.route(ctx, out);
        }
    }
}

impl<A: AtomicBcast<Blob>> Node for AbNode<A>
where
    A::Wire: WireSize,
{
    type Msg = A::Wire;
    type Timer = ();

    fn on_message(&mut self, ctx: &mut Ctx<'_, A::Wire, ()>, from: SiteId, msg: A::Wire) {
        let out = self.engine.on_wire(from, msg);
        let own = self.route(ctx, out);
        self.outstanding -= own;
        if own > 0 {
            self.refill(ctx);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, A::Wire, ()>, _tag: ()) {
        self.refill(ctx);
        if ctx.now().as_micros() < END_US {
            ctx.set_timer(SimDuration::from_micros(PACE_US), ());
        }
    }
}

/// One measured cell of the sweep.
struct Cell {
    bytes_per_sec: f64,
    msgs_per_delivery: f64,
    events: u64,
}

fn run_one<A: AtomicBcast<Blob>>(n: usize, payload: usize, engine: fn(SiteId, usize) -> A) -> Cell
where
    A::Wire: WireSize,
{
    let net = NetworkConfig::lan().with_nic_bandwidth(NIC_BYTES_PER_SEC);
    let nodes: Vec<AbNode<A>> = (0..n)
        .map(|i| AbNode::new(engine(SiteId(i), n), n, payload))
        .collect();
    let mut sim = Simulation::new(41, net, nodes);
    for i in 0..n {
        // Staggered kick-off so the first wave is not perfectly aligned.
        sim.schedule_timer(SimTime::from_micros(7 * i as u64), SiteId(i), ());
    }
    sim.run_until(SimTime::from_micros(END_US));
    let window_secs = (END_US - WARMUP_US) as f64 / 1e6;
    let (mut min_bytes, mut deliveries, mut sends) = (u64::MAX, 0u64, 0u64);
    for i in 0..n {
        let node = sim.node(SiteId(i));
        min_bytes = min_bytes.min(node.delivered_bytes);
        deliveries += node.delivered_msgs;
        sends += node.sent_msgs;
    }
    assert!(deliveries > 0, "{n}x{payload}: nothing delivered");
    Cell {
        // Payload bytes per second at the *slowest* site — the rate at
        // which the whole group learns the total order. (The sequencer
        // delivers its own submissions to itself for free; the min keeps
        // that from inflating a leader-bound backend's number.)
        bytes_per_sec: min_bytes as f64 / window_secs,
        msgs_per_delivery: sends as f64 * n as f64 / deliveries as f64,
        events: sim.events_processed(),
    }
}

/// One engine's instantiation of the rig: `(sites, payload)` to a cell.
type Rig = fn(usize, usize) -> Cell;

/// The three engines under test.
const BACKENDS: [(&str, Rig); 3] = [
    ("sequencer", |n, payload| {
        run_one(n, payload, SequencerAbcast::new)
    }),
    ("isis", |n, payload| run_one(n, payload, IsisAbcast::new)),
    ("ring", |n, payload| run_one(n, payload, RingAbcast::new)),
];

pub(super) fn run(run: &mut Run) {
    let mut configs = Vec::new();
    let (sites, payloads): (&[usize], &[usize]) = if run.smoke() {
        (&[32], &[8_192])
    } else {
        (&[3, 8, 16, 24, 32], &[64, 1_024, 8_192])
    };
    for &n in sites {
        for &payload in payloads {
            for (name, rig) in BACKENDS {
                configs.push((n, payload, name, rig));
            }
        }
    }
    let per_run = |_: &Run, &(n, payload, name, rig): &(usize, usize, &str, Rig)| {
        let cell = rig(n, payload);
        let cells = vec![
            n.to_string(),
            payload.to_string(),
            name.to_string(),
            format!("{:.0}", cell.bytes_per_sec),
            format!(
                "{:.1}",
                100.0 * cell.bytes_per_sec / NIC_BYTES_PER_SEC as f64
            ),
            format!("{:.1}", cell.msgs_per_delivery),
        ];
        (cells, cell.bytes_per_sec, cell.events)
    };
    let results = run.measure("a1_abcast_impl", configs.clone(), per_run, |r| r.2);
    let at = |n: usize, payload: usize, name: &str| -> f64 {
        configs
            .iter()
            .zip(&results)
            .find(|((s, p, b, _), _)| *s == n && *p == payload && *b == name)
            .map(|(_, (_, bps, _))| *bps)
            .expect("config present")
    };
    // The acceptance point: at N=32 with 8 kB payloads the ring sustains at
    // least twice the sequencer's delivered rate and stays within 20% of
    // the 200 kB/s single-link bound.
    let ring = at(32, 8_192, "ring");
    let seq = at(32, 8_192, "sequencer");
    assert!(
        ring >= 2.0 * seq,
        "ring must beat the sequencer 2x at N=32/8kB: ring={ring:.0} seq={seq:.0}"
    );
    assert!(
        ring >= 0.8 * NIC_BYTES_PER_SEC as f64,
        "ring must reach 80% of the link bound at N=32/8kB: {ring:.0}"
    );
    let mut table = Table::new(
        "a1_abcast_impl",
        &[
            "sites",
            "payload",
            "impl",
            "delivered_bytes_per_sec",
            "link_bound_pct",
            "msgs_per_broadcast",
        ],
    );
    for (cells, _, _) in &results {
        table.row_strings(cells);
    }
    run.emit(&table);
}
