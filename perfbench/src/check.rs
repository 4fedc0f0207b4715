//! Correctness checker and failure accounting for one real-socket run.
//!
//! A run *fails* (the benchmark prints `"correct": false`) when a member
//! delivers a message twice, delivers a message nobody offered, delivers
//! a corrupted or truncated payload, or when members disagree on the
//! delivery order or break an origin's FIFO order. Messages that were
//! refused by `multicast`, never reached every member, or reached the
//! last member after the latency limit are not errors: they are counted
//! against the offered total in `failed_frac`.

use std::collections::{HashMap, HashSet};

/// A message identity: `(origin node, origin sequence)`.
pub type MsgId = (u32, u64);

/// One offered message as the generator submitted it.
#[derive(Clone, Copy, Debug)]
pub struct Sub {
    /// Identity assigned by `multicast`; `None` if it was refused.
    pub id: Option<MsgId>,
    /// Scheduled send time (ns after the phase start).
    pub due_ns: u64,
    /// Whether it was sent `Safe`.
    pub safe: bool,
}

/// One delivery observed at a member.
#[derive(Clone, Copy, Debug)]
pub struct Seen {
    /// Delivered message.
    pub id: MsgId,
    /// Observation time (ns after the phase start).
    pub at_ns: u64,
    /// Payload matched the seeded bytes for this message.
    pub intact: bool,
}

/// What the checker concluded.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Correctness violations; any entry fails the run.
    pub errors: Vec<String>,
    /// Messages offered.
    pub offered: usize,
    /// Refused by `multicast`.
    pub refused: usize,
    /// Accepted but not delivered to every member.
    pub lost: usize,
    /// Delivered everywhere, but later than the limit.
    pub late: usize,
    /// `(offered index, last-member delivery time)` of every message
    /// that reached every member.
    pub complete: Vec<(usize, u64)>,
}

impl Verdict {
    /// Share of offered messages refused, lost or late.
    pub fn failed_frac(&self) -> f64 {
        (self.refused + self.lost + self.late) as f64 / self.offered.max(1) as f64
    }
}

/// Checks the per-member delivery logs `logs` against the offered
/// messages `subs`, with a latency limit of `limit_ns` from each
/// message's scheduled time. Deliveries of ids in `ignore` (warm-up
/// traffic) are skipped.
pub fn check(subs: &[Sub], logs: &[Vec<Seen>], limit_ns: u64, ignore: &HashSet<MsgId>) -> Verdict {
    let mut v = Verdict {
        offered: subs.len(),
        ..Verdict::default()
    };
    let index: HashMap<MsgId, usize> = subs
        .iter()
        .enumerate()
        .filter_map(|(i, s)| s.id.map(|id| (id, i)))
        .collect();
    v.refused = subs.len() - index.len();
    // Per-offered-message: members reached and the latest arrival.
    let mut reached = vec![0usize; subs.len()];
    let mut last_at = vec![0u64; subs.len()];
    let mut orders: Vec<Vec<MsgId>> = Vec::with_capacity(logs.len());
    for (node, log) in logs.iter().enumerate() {
        let mut seen = HashSet::new();
        let mut fifo: HashMap<u32, u64> = HashMap::new();
        let mut order = Vec::with_capacity(log.len());
        for d in log.iter().filter(|d| !ignore.contains(&d.id)) {
            let Some(&i) = index.get(&d.id) else {
                v.errors
                    .push(format!("node {node} delivered unoffered {:?}", d.id));
                continue;
            };
            if !seen.insert(d.id) {
                v.errors
                    .push(format!("node {node} delivered {:?} twice", d.id));
                continue;
            }
            if !d.intact {
                v.errors
                    .push(format!("node {node} got a corrupt payload for {:?}", d.id));
            }
            if let Some(prev) = fifo.insert(d.id.0, d.id.1) {
                if prev >= d.id.1 {
                    v.errors.push(format!(
                        "node {node} broke origin {} FIFO: seq {} after {prev}",
                        d.id.0, d.id.1
                    ));
                }
            }
            reached[i] += 1;
            last_at[i] = last_at[i].max(d.at_ns);
            order.push(d.id);
        }
        orders.push(order);
    }
    // Agreed order: every member's sequence is a prefix of the longest.
    if let Some(longest) = orders.iter().max_by_key(|o| o.len()) {
        for (node, o) in orders.iter().enumerate() {
            if let Some(k) = o.iter().zip(longest).position(|(a, b)| a != b) {
                v.errors.push(format!(
                    "node {node} diverged from the agreed order at position {k}: {:?} vs {:?}",
                    o[k], longest[k]
                ));
            }
        }
    }
    for (i, s) in subs.iter().enumerate() {
        if s.id.is_none() {
            continue;
        }
        if reached[i] < logs.len() {
            v.lost += 1;
        } else {
            if last_at[i].saturating_sub(s.due_ns) > limit_ns {
                v.late += 1;
            }
            v.complete.push((i, last_at[i]));
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIMIT: u64 = 100_000_000;

    fn subs(n: u64) -> Vec<Sub> {
        (0..n)
            .map(|i| Sub {
                id: Some((0, i + 1)),
                due_ns: i * 1_000_000,
                safe: false,
            })
            .collect()
    }

    fn seen(seq: u64, at_ns: u64) -> Seen {
        Seen {
            id: (0, seq),
            at_ns,
            intact: true,
        }
    }

    fn clean_logs(n: u64, members: usize) -> Vec<Vec<Seen>> {
        (0..members)
            .map(|_| {
                (1..=n)
                    .map(|s| seen(s, s * 1_000_000 + 5_000_000))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn clean_run_passes() {
        let v = check(&subs(5), &clean_logs(5, 3), LIMIT, &HashSet::new());
        assert!(v.errors.is_empty(), "{:?}", v.errors);
        assert_eq!((v.offered, v.refused, v.lost, v.late), (5, 0, 0, 0));
        assert_eq!(v.complete.len(), 5);
        assert_eq!(v.failed_frac(), 0.0);
    }

    #[test]
    fn duplicate_is_rejected() {
        let mut logs = clean_logs(5, 3);
        logs[1].insert(3, seen(3, 9_000_000));
        let v = check(&subs(5), &logs, LIMIT, &HashSet::new());
        assert!(
            v.errors.iter().any(|e| e.contains("twice")),
            "{:?}",
            v.errors
        );
    }

    #[test]
    fn reorder_is_rejected() {
        let mut logs = clean_logs(5, 3);
        logs[2].swap(1, 2);
        let v = check(&subs(5), &logs, LIMIT, &HashSet::new());
        assert!(
            v.errors.iter().any(|e| e.contains("FIFO")),
            "{:?}",
            v.errors
        );
        assert!(v.errors.iter().any(|e| e.contains("agreed order")));
    }

    #[test]
    fn cross_origin_disagreement_is_rejected() {
        // FIFO holds per origin, but two members order the origins
        // differently: only the agreed-order check can catch it.
        let s = vec![
            Sub {
                id: Some((0, 1)),
                due_ns: 0,
                safe: false,
            },
            Sub {
                id: Some((1, 1)),
                due_ns: 0,
                safe: false,
            },
        ];
        let a = |o: u32| Seen {
            id: (o, 1),
            at_ns: 1,
            intact: true,
        };
        let logs = vec![vec![a(0), a(1)], vec![a(1), a(0)]];
        let v = check(&s, &logs, LIMIT, &HashSet::new());
        assert!(
            v.errors.iter().any(|e| e.contains("agreed order")),
            "{:?}",
            v.errors
        );
    }

    #[test]
    fn truncated_payload_is_rejected() {
        let seed = 11;
        let full = crate::gen::payload(seed, 2, 1024);
        assert!(crate::run::intact(seed, 2, 1024, &full));
        assert!(!crate::run::intact(seed, 2, 1024, &full[..1000]));
        let mut logs = clean_logs(5, 3);
        logs[0][1].intact = false;
        let v = check(&subs(5), &logs, LIMIT, &HashSet::new());
        assert!(
            v.errors.iter().any(|e| e.contains("corrupt")),
            "{:?}",
            v.errors
        );
    }

    #[test]
    fn failed_frac_counts_refused_lost_and_late() {
        let mut s = subs(10);
        s[0].id = None; // refused
        let mut logs = clean_logs(10, 3);
        for log in &mut logs {
            log.retain(|d| d.id.1 != 1); // the refused one never existed
        }
        logs[2].pop(); // seq 10 never reached member 2: lost
        for log in &mut logs {
            for d in log.iter_mut().filter(|d| d.id.1 == 5) {
                d.at_ns = 4_000_000 + LIMIT + 1; // due 4 ms: late
            }
        }
        let v = check(&s, &logs, LIMIT, &HashSet::new());
        assert!(v.errors.is_empty(), "{:?}", v.errors);
        assert_eq!((v.refused, v.lost, v.late), (1, 1, 1));
        assert!((v.failed_frac() - 0.3).abs() < 1e-12);
        // Late messages still count as delivered everywhere.
        assert_eq!(v.complete.len(), 8);
    }

    #[test]
    fn warm_up_traffic_is_ignored() {
        let mut logs = clean_logs(3, 3);
        for log in &mut logs {
            log.insert(
                0,
                Seen {
                    id: (2, 1),
                    at_ns: 0,
                    intact: true,
                },
            );
        }
        let ignore = HashSet::from([(2, 1)]);
        assert!(check(&subs(3), &logs, LIMIT, &ignore).errors.is_empty());
        assert!(!check(&subs(3), &logs, LIMIT, &HashSet::new())
            .errors
            .is_empty());
    }
}
