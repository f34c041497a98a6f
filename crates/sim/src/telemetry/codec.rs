//! The JSONL wire format of a trace file: how each field type of the
//! [`TraceEvent`] schema table is written and read back ([`Wire`]), the
//! line-level entry points, and the [`TraceMeta`] trailer a finished file
//! ends in. All parsing and escaping is [`crate::json`]'s.

use super::{Phase, TraceEvent, TxnRef};
use crate::json::{self, Field};
use crate::{SimTime, SiteId};
use std::borrow::Cow;
use std::fmt;

/// A field type of the schema table.
pub(super) trait Wire: Sized {
    /// Appends the field to the line being written: `key`, which arrives
    /// as the ready-made `,"key":`, then the value, integers spelled by `D`.
    fn put<D: Digits>(&self, key: &str, out: &mut String);
    /// Reads the field back from a parsed line.
    fn take(line: Field<'_>, key: &'static str) -> Result<Self, String>;
}

/// How a line spells an unsigned integer: [`Pairs`]; tests use `core::fmt`.
pub(super) trait Digits {
    fn put(out: &mut String, v: u64);
}

/// Decimal two digits per division, from a table, without `core::fmt`.
pub(super) enum Pairs {}

const PAIRS: &[u8; 200] = b"00010203040506070809101112131415161718192021222324252627282930313233343536373839404142434445464748495051525354555657585960616263646566676869707172737475767778798081828384858687888990919293949596979899";

impl Digits for Pairs {
    fn put(out: &mut String, mut v: u64) {
        let (mut buf, mut at) = ([0u8; 20], 20);
        // Zero, too, is one pair; a last pair below 10 leads with a zero.
        while v > 0 || at == buf.len() {
            let pair = 2 * (v % 100) as usize;
            at -= 2;
            buf[at..at + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
            v /= 100;
        }
        at += usize::from(buf[at] == b'0');
        out.extend(buf[at..].iter().map(|&digit| char::from(digit)));
    }
}

impl Wire for u64 {
    fn put<D: Digits>(&self, key: &str, out: &mut String) {
        out.push_str(key);
        D::put(out, *self);
    }
    fn take(line: Field<'_>, key: &'static str) -> Result<Self, String> {
        line.get(key)?.u64()
    }
}

impl Wire for bool {
    fn put<D: Digits>(&self, key: &str, out: &mut String) {
        out.push_str(key);
        out.push_str(if *self { "true" } else { "false" });
    }
    fn take(line: Field<'_>, key: &'static str) -> Result<Self, String> {
        line.get(key)?.bool()
    }
}

impl Wire for SimTime {
    fn put<D: Digits>(&self, key: &str, out: &mut String) {
        self.as_micros().put::<D>(key, out);
    }
    fn take(line: Field<'_>, key: &'static str) -> Result<Self, String> {
        u64::take(line, key).map(SimTime::from_micros)
    }
}

impl Wire for SiteId {
    fn put<D: Digits>(&self, key: &str, out: &mut String) {
        (self.0 as u64).put::<D>(key, out);
    }
    fn take(line: Field<'_>, key: &'static str) -> Result<Self, String> {
        site(line.get(key)?)
    }
}

/// Readers size per-link tables by the largest site index they are shown
/// (`TraceInvariants`: its square), so a line cannot name an absurd one.
const MAX_SITES: u64 = 1 << 10;

fn site(value: Field<'_>) -> Result<SiteId, String> {
    match value.u64()? {
        index if index < MAX_SITES => Ok(SiteId(index as usize)),
        index => Err(format!("site index {index} is out of range")),
    }
}

/// A transaction is two fields on the wire, whatever the schema calls it.
impl Wire for TxnRef {
    fn put<D: Digits>(&self, _key: &str, out: &mut String) {
        self.origin.put::<D>(",\"origin\":", out);
        self.num.put::<D>(",\"num\":", out);
    }
    fn take(line: Field<'_>, _key: &'static str) -> Result<Self, String> {
        Ok(TxnRef {
            origin: Wire::take(line, "origin")?,
            num: Wire::take(line, "num")?,
        })
    }
}

impl Wire for Phase {
    fn put<D: Digits>(&self, key: &str, out: &mut String) {
        out.push_str(key);
        out.push('"');
        out.push_str(self.name());
        out.push('"');
    }
    fn take(line: Field<'_>, key: &'static str) -> Result<Self, String> {
        let name = line.get(key)?.str()?;
        Phase::from_name(name).ok_or_else(|| format!("unknown phase {name:?}"))
    }
}

impl Wire for Cow<'static, str> {
    fn put<D: Digits>(&self, key: &str, out: &mut String) {
        out.push_str(key);
        json::write_str(out, self);
    }
    fn take(line: Field<'_>, key: &'static str) -> Result<Self, String> {
        line.get(key)?.str().map(|s| Cow::Owned(s.to_owned()))
    }
}

impl Wire for Vec<SiteId> {
    fn put<D: Digits>(&self, key: &str, out: &mut String) {
        out.push_str(key);
        out.push('[');
        for (i, site) in self.iter().enumerate() {
            site.put::<D>(if i > 0 { "," } else { "" }, out);
        }
        out.push(']');
    }
    fn take(line: Field<'_>, key: &'static str) -> Result<Self, String> {
        line.get(key)?.arr()?.map(site).collect()
    }
}

impl TraceEvent {
    /// Serializes the event as one JSON object (no trailing newline); see
    /// [`TraceEvent::write_jsonl`], which a hot path calls with a reused
    /// buffer instead.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(96);
        self.write_jsonl(&mut out);
        out
    }

    /// Parses one JSON line produced by [`TraceEvent::to_jsonl`].
    ///
    /// # Errors
    /// Returns a description of the first syntactic or semantic problem.
    pub fn from_jsonl(line: &str) -> Result<TraceEvent, String> {
        match TraceLine::from_jsonl(line)? {
            TraceLine::Event(ev) => Ok(ev),
            TraceLine::Meta(_) => Err("a trace_meta trailer is not an event".into()),
        }
    }
}

/// The trailer the harness appends to a finished trace file, so offline
/// tools can tell a complete file from a truncated one. Its `Display` is
/// the line, `{"type":"trace_meta",...}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceMeta {
    /// Number of event lines written before the trailer.
    pub events: u64,
    /// How many events the run's in-memory ring evicted.
    pub ring_evicted: u64,
}

impl fmt::Display for TraceMeta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (events, evicted) = (self.events, self.ring_evicted);
        write!(
            f,
            "{{\"type\":\"trace_meta\",\"events\":{events},\"ring_evicted\":{evicted}}}"
        )
    }
}

/// One line of a trace file.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceLine {
    /// An event.
    Event(TraceEvent),
    /// The closing trailer.
    Meta(TraceMeta),
}

impl TraceLine {
    /// Parses one line of a trace file: an object with a `type` is the
    /// trailer, any other must be an event.
    ///
    /// # Errors
    /// Returns a description of the first syntactic or semantic problem.
    pub fn from_jsonl(line: &str) -> Result<TraceLine, String> {
        let root = json::parse(line)?;
        let line = root.named("trace line");
        let Some(kind) = line.obj()?.get("type") else {
            return TraceEvent::from_fields(line.get("ev")?.str()?, line).map(TraceLine::Event);
        };
        match kind.named("type").str()? {
            "trace_meta" => Ok(TraceLine::Meta(TraceMeta {
                events: line.get("events")?.u64()?,
                ring_evicted: line.get("ring_evicted")?.u64()?,
            })),
            other => Err(format!("unknown line type {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{sample_events, t, txn};
    use super::super::JsonlSink;
    use super::*;
    use proptest::prelude::*;
    use std::fmt::Write as _;

    /// `core::fmt`'s decimal, which every integer field went through
    /// before the pair table.
    enum Fmt {}

    impl Digits for Fmt {
        fn put(out: &mut String, v: u64) {
            let _ = write!(out, "{v}");
        }
    }

    /// 0, `u64::MAX`, and 10^k - 1, 10^k and 10^k + 1 for every k that fits.
    fn edges() -> Vec<u64> {
        let mut out = vec![0, u64::MAX];
        let mut power = 1u64;
        while let Some(next) = power.checked_mul(10) {
            power = next;
            out.extend([power - 1, power, power + 1]);
        }
        out
    }

    /// One event of each of the 16 variants, every integer field one of
    /// `a`, `b`, `c`, `d`.
    fn every_variant(a: u64, b: u64, c: u64, d: u64) -> Vec<TraceEvent> {
        let (at, site, other) = (t(a), SiteId(b as usize), SiteId(c as usize));
        let txn = txn(c as usize, d);
        let (from, to, phase) = (site, other, Phase::Decision);
        vec![
            TraceEvent::Send {
                at,
                from,
                to,
                phase,
            },
            TraceEvent::Deliver {
                at,
                from,
                to,
                phase,
            },
            TraceEvent::Drop {
                at,
                from,
                to,
                phase,
            },
            TraceEvent::BatchFlushed {
                at,
                from,
                to,
                msgs: c,
                bytes: d,
            },
            TraceEvent::Submit {
                at,
                txn,
                read_only: a.is_multiple_of(2),
            },
            TraceEvent::LocksAcquired { at, txn },
            TraceEvent::CommitReqOut { at, txn },
            TraceEvent::Vote {
                at,
                site,
                txn,
                yes: true,
            },
            TraceEvent::Decided {
                at,
                site,
                txn,
                commit: false,
            },
            TraceEvent::Commit { at, site, txn },
            TraceEvent::Abort {
                at,
                site,
                txn,
                reason: "abort_timeout".into(),
            },
            TraceEvent::TotalOrder {
                at,
                site,
                txn,
                gseq: b,
            },
            TraceEvent::ViewChange {
                at,
                site,
                members: vec![site, other, SiteId(d as usize)],
            },
            TraceEvent::Crash { at, site },
        ]
    }

    proptest! {
        /// The pair table spells every line exactly as `core::fmt` did, at
        /// the digit-count edges and at the extremes.
        #[test]
        fn pair_table_lines_equal_fmt_lines(picks in proptest::collection::vec(any::<usize>(), 4usize)) {
            let edges = edges();
            let v: Vec<u64> = picks.iter().map(|&i| edges[i % edges.len()]).collect();
            for ev in every_variant(v[0], v[1], v[2], v[3]) {
                let (mut table, mut fmt) = (String::new(), String::new());
                ev.write_jsonl(&mut table);
                ev.encode::<Fmt>(&mut fmt);
                prop_assert_eq!(table, fmt);
            }
        }
    }

    #[test]
    fn jsonl_round_trip_preserves_every_variant() {
        let mut all = sample_events();
        all.push(TraceEvent::Drop {
            at: t(8),
            from: SiteId(1),
            to: SiteId(2),
            phase: Phase::Retransmit,
        });
        all.push(TraceEvent::Abort {
            at: t(9),
            site: SiteId(0),
            txn: txn(0, 2),
            reason: "abort_wounded".into(),
        });
        all.push(TraceEvent::ViewChange {
            at: t(10),
            site: SiteId(1),
            members: vec![SiteId(0), SiteId(1)],
        });
        all.push(TraceEvent::Crash {
            at: t(11),
            site: SiteId(2),
        });
        all.push(TraceEvent::BatchFlushed {
            at: t(12),
            from: SiteId(0),
            to: SiteId(1),
            msgs: 3,
            bytes: 200,
        });
        let mut sink = JsonlSink::new(Vec::new());
        for ev in &all {
            sink.ingest(ev);
        }
        assert_eq!(sink.lines(), all.len() as u64);
        let bytes = sink.into_inner().expect("no I/O errors on a Vec");
        let text = String::from_utf8(bytes).expect("utf8");
        let parsed: Vec<TraceEvent> = text
            .lines()
            .map(|l| TraceEvent::from_jsonl(l).expect("parse"))
            .collect();
        assert_eq!(parsed, all);
    }

    #[test]
    fn jsonl_rejects_malformed_lines() {
        assert!(TraceEvent::from_jsonl("not json").is_err());
        assert!(
            TraceEvent::from_jsonl("{\"ev\":\"send\"}").is_err(),
            "missing fields"
        );
        assert!(
            TraceEvent::from_jsonl("{\"ev\":\"warp\",\"at\":1}").is_err(),
            "unknown event type"
        );
        assert!(
            TraceEvent::from_jsonl(
                "{\"ev\":\"send\",\"at\":1,\"from\":0,\"to\":1,\"phase\":\"warp\"}"
            )
            .is_err(),
            "unknown phase"
        );
    }
}
