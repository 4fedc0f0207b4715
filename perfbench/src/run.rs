//! The open-loop generator: one thread that offers a workload's seeded
//! schedule to a formed cluster, collects every member's events, and
//! hands the logs to the checker.

use crate::check::{self, MsgId, Seen, Sub, Verdict};
use crate::cluster::{Counters, Member};
use crate::gen::{self, Offer};
use crate::procfs;
use bytes::Bytes;
use raincore::session::SessionEvent;
use raincore::types::DeliveryMode;
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

/// Latency limit: a message that reaches its last member later than this
/// after its scheduled send time counts as failed.
pub const LIMIT_NS: u64 = 100_000_000;
/// Percentiles and CPU are taken per window of the offered phase this
/// long and reported as the median over the windows, so one scheduling
/// hiccup on a shared host moves one window, not the run.
pub const WINDOW_NS: u64 = 2_000_000_000;
/// The generator looks for events at least this often, which bounds how
/// late it timestamps one.
const OBSERVE_NS: u64 = 100_000;

/// A real-socket workload.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// Nodes that offer load (`0..origins`).
    pub origins: usize,
    /// Offered multicasts per second, all origins together.
    pub rate: f64,
    /// Payload bytes.
    pub payload: usize,
    /// One message in every `safe_every` is `Safe`.
    pub safe_every: u64,
    /// Share of the measured window spent offering; the rest drains.
    pub offered_share: f64,
}

/// Whether `bytes` is exactly the seeded payload of message `idx`.
pub fn intact(seed: u64, idx: u64, len: usize, bytes: &[u8]) -> bool {
    bytes.len() == len
        && gen::stamped_idx(bytes) == Some(idx)
        && bytes == gen::payload(seed, idx, len)
}

/// Everything one offered phase produced.
pub struct Phase {
    /// The offered schedule.
    pub offers: Vec<Offer>,
    /// What was submitted, per offer.
    pub subs: Vec<Sub>,
    /// `MulticastAtomic` at the origin: offer index → time (ns).
    pub atomic: HashMap<usize, u64>,
    /// Generator lateness per submit (ns).
    pub lag_ns: Vec<f64>,
    /// Time spent inside `multicast` per submit (ns).
    pub submit_call_ns: Vec<f64>,
    /// Length of the offered phase (ns).
    pub offered_ns: u64,
    /// When collection stopped (ns after the phase start).
    pub end_ns: u64,
    /// CPU of the node threads from phase start to collection end (ns).
    pub cpu_ns: u64,
    /// CPU of the node threads at each window boundary of the offered
    /// phase, starting at 0 (ns).
    pub cpu_marks: Vec<u64>,
    /// Per-node counter deltas over the phase.
    pub counters: Vec<Counters>,
    /// The checker's verdict.
    pub verdict: Verdict,
    /// The instant every `_ns` field of the phase counts from.
    pub t0: Instant,
}

/// Offers `spec`'s seeded schedule for `offered_s` seconds and collects
/// until every accepted message reached every member (or `drain_s`
/// more seconds have passed).
pub fn drive<M: Member>(
    members: &[M],
    spec: &Spec,
    seed: u64,
    offered_s: f64,
    drain_s: f64,
    warm_up: MsgId,
) -> Phase {
    let offers = gen::schedule(seed, spec.origins, spec.rate, offered_s, spec.safe_every);
    let before: Vec<Counters> = members
        .iter()
        .map(|m| m.counters().unwrap_or_default())
        .collect();
    let tids = procfs::node_threads();
    let cpu0 = procfs::cpu_ns(&tids);
    let mut c = Collector {
        seed,
        len: spec.payload,
        idx_of: HashMap::with_capacity(offers.len()),
        logs: vec![Vec::with_capacity(offers.len()); members.len()],
        atomic: HashMap::with_capacity(offers.len()),
        delivered: 0,
    };
    let mut subs = Vec::with_capacity(offers.len());
    let mut lag_ns = Vec::with_capacity(offers.len());
    let mut submit_call_ns = Vec::with_capacity(offers.len());
    let offered_ns = (offered_s * 1e9) as u64;
    let drain_until = offered_ns + (drain_s * 1e9) as u64;
    let mut cpu_marks = vec![cpu0];
    let t0 = Instant::now();
    let ns = || t0.elapsed().as_nanos() as u64;
    let mut next = 0;
    loop {
        while let Some(o) = offers.get(next).filter(|o| o.due_ns <= ns()) {
            let payload = Bytes::from(gen::payload(seed, o.idx, spec.payload));
            let a = ns();
            let r = members[o.origin].multicast(o.mode, payload);
            let b = ns();
            lag_ns.push(a.saturating_sub(o.due_ns) as f64);
            submit_call_ns.push((b - a) as f64);
            let id = r.ok().map(|s| (o.origin as u32, s.0));
            if let Some(id) = id {
                c.idx_of.insert(id, next);
            }
            subs.push(Sub {
                id,
                due_ns: o.due_ns,
                safe: o.mode == DeliveryMode::Safe,
            });
            next += 1;
        }
        c.drain(members, &ns);
        let now = ns();
        let mark = cpu_marks.len() as u64 * WINDOW_NS;
        if now >= mark && mark <= offered_ns {
            cpu_marks.push(procfs::cpu_ns(&tids));
        }
        if next == offers.len() {
            let accepted = c.idx_of.len();
            let done = c.delivered == accepted * members.len() && c.atomic.len() == accepted;
            if done || now > drain_until {
                break;
            }
        }
        // Wake for the next offer, and at least every OBSERVE_NS to
        // timestamp events.
        let wake = offers.get(next).map_or(u64::MAX, |o| o.due_ns);
        if wake > now {
            std::thread::sleep(Duration::from_nanos((wake - now).min(OBSERVE_NS)));
        }
    }
    let end_ns = ns();
    let cpu_ns = procfs::cpu_ns(&tids).saturating_sub(cpu0);
    let counters = before
        .iter()
        .zip(members)
        .map(|(b, m)| b.delta(&m.counters().unwrap_or_default()))
        .collect();
    let verdict = check::check(&subs, &c.logs, LIMIT_NS, &HashSet::from([warm_up]));
    Phase {
        offers,
        subs,
        atomic: c.atomic,
        lag_ns,
        submit_call_ns,
        offered_ns,
        end_ns,
        cpu_ns,
        cpu_marks,
        counters,
        verdict,
        t0,
    }
}

/// Event collection state of the generator thread.
struct Collector {
    seed: u64,
    len: usize,
    idx_of: HashMap<MsgId, usize>,
    logs: Vec<Vec<Seen>>,
    atomic: HashMap<usize, u64>,
    delivered: usize,
}

impl Collector {
    fn drain<M: Member>(&mut self, members: &[M], ns: &impl Fn() -> u64) {
        for (n, m) in members.iter().enumerate() {
            while let Some(ev) = m.try_event() {
                let at_ns = ns();
                match ev {
                    SessionEvent::Delivery(d) => {
                        let id = (d.origin.0, d.seq.0);
                        let intact = match self.idx_of.get(&id) {
                            Some(&i) => {
                                self.delivered += 1;
                                intact(self.seed, i as u64, self.len, &d.payload)
                            }
                            None => true, // warm-up, or flagged as unoffered
                        };
                        self.logs[n].push(Seen { id, at_ns, intact });
                    }
                    SessionEvent::MulticastAtomic { seq } => {
                        if let Some(&i) = self.idx_of.get(&(n as u32, seq.0)) {
                            self.atomic.insert(i, at_ns);
                        }
                    }
                    _ => {}
                }
            }
        }
    }
}
