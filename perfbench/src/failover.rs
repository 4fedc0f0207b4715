//! `failover`: the deterministic simulator's Rainwall cable-unplug
//! fail-over (§3.2), as in `experiments::failover`: 2 gateways, 6
//! clients, 6 servers, 4 VIPs; gateway 1's cable is pulled at t = 5 s and
//! its critical-resource monitor trips 100 ms later.
//!
//! Two choices differ from the experiment binary. The seed moves the
//! unplug by up to 200 ms past t = 5 s, so it changes where in the token
//! rotation and in the clients' request cycles the fault lands (the sim
//! net itself has no loss or jitter here, so its own seed would change
//! nothing). And the goodput series is kept in 1 ms buckets and smoothed
//! over a trailing 100 ms window, so the gap is resolved to 1 ms instead
//! of 100 ms.

use crate::gen::Rng;
use raincore::net::Addr;
use raincore::rainwall::scenario::{Scenario, ScenarioCfg};
use raincore::sim::Cluster;
use raincore::types::{Duration, NodeId, Time, VipId};
use std::collections::BTreeMap;
use std::time::Instant;

/// Seeded fail-over trials per run; the reported figures are medians.
pub const TRIALS: usize = 7;
/// The paper's bound on the fail-over gap (§3.2).
pub const GAP_LIMIT_S: f64 = 2.0;
const VICTIM: NodeId = NodeId(1);
const SURVIVOR: NodeId = NodeId(0);
const UNPLUG_S: u64 = 5;
/// The seed moves the unplug by up to this many microseconds.
const UNPLUG_SPREAD_US: u64 = 200_000;
const TAIL_S: u64 = 3;
const BUCKET_MS: u64 = 1;
/// Trailing window (in buckets) the goodput is smoothed over.
const WINDOW: u64 = 100;
/// Wall-clock guard against a simulation that stops making progress.
const WALL_LIMIT_S: f64 = 30.0;

/// Virtual milliseconds from the unplug to each step of the recovery;
/// only the traced trials record them.
#[derive(Clone, Copy, Debug, Default)]
pub struct Phases {
    /// Unplug → the survivor first reports a failure (a transport
    /// failure-on-delivery or a session-level detection).
    pub failure_detect_ms: f64,
    /// Unplug → the survivor's ring no longer holds the victim.
    pub membership_change_ms: f64,
    /// Membership change → every VIP resolves to a live gateway.
    pub vip_reassign_ms: f64,
    /// VIPs reassigned → goodput back above half.
    pub resume_ms: f64,
}

/// One trial's results.
#[derive(Clone, Debug)]
pub struct Trial {
    /// Time with goodput below half the pre-fault average (virtual s).
    pub gap_s: f64,
    /// Client goodput over the 2 s before the unplug (virtual Mbit/s).
    pub goodput_mbps: f64,
    /// Client flows abandoned and retried.
    pub retried: u64,
    /// Client flows started (completed + retried).
    pub flows: u64,
    /// 911 calls sent by the gateways.
    pub calls911: u64,
    /// Wall-clock seconds to build and simulate it.
    pub run_s: f64,
    /// Recovery steps (traced trials only).
    pub phases: Option<Phases>,
}

/// The seed of trial `k` of a run seeded `seed`.
fn trial_seed(seed: u64, k: usize) -> u64 {
    let mut r = Rng::new(seed ^ 0xFA11_0FE5);
    (0..=k).map(|_| r.next_u64()).last().unwrap_or(seed)
}

/// Runs the [`TRIALS`] seeded trials of a run, checking each.
pub fn trials(seed: u64, traced: bool) -> Result<Vec<Trial>, String> {
    (0..TRIALS)
        .map(|k| trial(trial_seed(seed, k), traced))
        .collect()
}

/// Runs one fail-over trial; `seed` places the unplug.
pub fn trial(seed: u64, traced: bool) -> Result<Trial, String> {
    let mut cfg = ScenarioCfg {
        gateways: 2,
        clients: 6,
        servers: 6,
        vips: 4,
        ..Default::default()
    };
    cfg.bucket = Duration::from_millis(BUCKET_MS);
    let r0 = Instant::now();
    let mut s = Scenario::build(cfg).map_err(|e| format!("scenario build failed: {e:?}"))?;
    let unplug = Time::ZERO
        + Duration::from_secs(UNPLUG_S)
        + Duration::from_micros(Rng::new(seed).below(UNPLUG_SPREAD_US));
    let end = unplug + Duration::from_secs(TAIL_S);
    let pool: Vec<VipId> = (0..s.cfg.vips).map(VipId).collect();
    let mut watch = Watch::default();
    run_guarded(&mut s.cluster, unplug, r0, |_| {})?;
    s.cluster.set_nic(Addr::primary(VICTIM), false);
    let noticed = unplug + Duration::from_millis(100);
    let arp = s.arp.clone();
    let mut observe = |c: &Cluster| {
        if traced {
            watch.observe(c, |v| arp.resolve(v), &pool);
        }
    };
    run_guarded(&mut s.cluster, noticed, r0, &mut observe)?;
    {
        let victim = s
            .cluster
            .session_mut(VICTIM)
            .map_err(|e| format!("victim missing: {e:?}"))?;
        victim.add_critical_resource("nic0");
        victim.set_resource(noticed, "nic0", false);
    }
    run_guarded(&mut s.cluster, end, r0, &mut observe)?;
    let run_s = r0.elapsed().as_secs_f64();

    let (gap_start, gap_end) = gap(&s.bucket_series(), unplug)?;
    let gap_s = (gap_end - gap_start) as f64 * BUCKET_MS as f64 / 1e3;
    if gap_s >= GAP_LIMIT_S {
        return Err(format!(
            "fail-over gap {gap_s:.2} s ≥ {GAP_LIMIT_S} s (seed {seed})"
        ));
    }
    check_vips(&s, &pool)?;
    let phases = traced
        .then(|| watch.phases(unplug, gap_end * BUCKET_MS))
        .transpose()?;
    let calls911 = s
        .gateway_ids
        .iter()
        .map(|&g| s.cluster.metrics(g).calls911_sent)
        .sum();
    Ok(Trial {
        gap_s,
        goodput_mbps: s.goodput_mbps(unplug - Duration::from_secs(2), unplug),
        retried: s.retries(),
        flows: s.completed() + s.retries(),
        calls911,
        run_s,
        phases,
    })
}

/// Runs the cluster to `t` in 100 ms steps, failing if the simulation
/// takes more than [`WALL_LIMIT_S`] of wall clock since `started`.
fn run_guarded(
    c: &mut Cluster,
    t: Time,
    started: Instant,
    mut observe: impl FnMut(&Cluster),
) -> Result<(), String> {
    while c.now() < t {
        if started.elapsed().as_secs_f64() > WALL_LIMIT_S {
            return Err(format!("simulation stalled at {:?}", c.now()));
        }
        let step = (c.now() + Duration::from_millis(100)).min(t);
        c.run_until_with(step, &mut observe);
    }
    Ok(())
}

/// The fail-over gap as bucket indices `[start, end)`: from the first
/// trailing window after the unplug whose goodput is below half the
/// pre-fault average, to the first one back at or above half.
pub fn gap(series: &BTreeMap<u64, u64>, unplug: Time) -> Result<(u64, u64), String> {
    let at = |b: u64| series.get(&b).copied().unwrap_or(0) as f64;
    let ub = unplug.as_nanos() / (BUCKET_MS * 1_000_000);
    let pre_buckets = 2_000 / BUCKET_MS;
    let pre = (ub - pre_buckets..ub).map(at).sum::<f64>() / pre_buckets as f64;
    let window = |e: u64| (e + 1 - WINDOW..=e).map(at).sum::<f64>() / WINDOW as f64;
    let last = ub + TAIL_S * 1_000 / BUCKET_MS;
    let start = (ub..last)
        .find(|&e| window(e) < pre * 0.5)
        .ok_or("goodput never dropped below half after the unplug")?;
    let end = (start..last)
        .find(|&e| window(e) >= pre * 0.5)
        .ok_or("goodput never recovered after the unplug")?;
    Ok((start, end))
}

/// After recovery every VIP resolves to exactly one live gateway, and
/// every live gateway's VIP manager agrees on that owner.
fn check_vips(s: &Scenario, pool: &[VipId]) -> Result<(), String> {
    for &v in pool {
        let owner = s.arp.resolve(v).ok_or(format!("{v:?} unresolvable"))?;
        if owner == VICTIM || !s.cluster.is_alive(owner) {
            return Err(format!("{v:?} resolves to dead gateway {owner:?}"));
        }
        for (&g, mgr) in &s.vip_mgrs {
            if s.cluster.is_alive(g) && mgr.borrow().owner_of(v) != Some(owner) {
                return Err(format!("gateway {g:?} disagrees on the owner of {v:?}"));
            }
        }
    }
    Ok(())
}

/// First virtual times (ns) at which each recovery step was observed.
#[derive(Default)]
struct Watch {
    detected: Option<u64>,
    membership: Option<u64>,
    reassigned: Option<u64>,
    base_failures: Option<u64>,
}

impl Watch {
    fn observe(&mut self, c: &Cluster, resolve: impl Fn(VipId) -> Option<NodeId>, pool: &[VipId]) {
        let now = c.now().as_nanos();
        let failures =
            c.metrics(SURVIVOR).failures_detected + c.transport_stats(SURVIVOR).msgs_failed;
        let base = *self.base_failures.get_or_insert(failures);
        if self.detected.is_none() && failures > base {
            self.detected = Some(now);
        }
        if self.membership.is_none()
            && c.session(SURVIVOR)
                .is_some_and(|n| !n.ring().contains(VICTIM))
        {
            self.membership = Some(now);
        }
        if self.membership.is_some()
            && self.reassigned.is_none()
            && pool
                .iter()
                .all(|&v| resolve(v).is_some_and(|g| g != VICTIM && c.is_alive(g)))
        {
            self.reassigned = Some(now);
        }
    }

    fn phases(&self, unplug: Time, gap_end_ms: u64) -> Result<Phases, String> {
        let u = unplug.as_nanos();
        let ms = |t: Option<u64>, what: &str| {
            t.map(|t| t as f64 / 1e6)
                .ok_or(format!("traced trial never saw {what}"))
        };
        let membership = ms(self.membership, "the membership change")?;
        let reassigned = ms(self.reassigned, "the VIPs reassigned")?;
        Ok(Phases {
            failure_detect_ms: ms(self.detected, "a failure detection")? - u as f64 / 1e6,
            membership_change_ms: membership - u as f64 / 1e6,
            vip_reassign_ms: reassigned - membership,
            resume_ms: gap_end_ms as f64 - reassigned,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_spans_the_dip() {
        // 100 units per 1 ms bucket before t = 5 s, nothing for 300 ms,
        // then full rate again.
        let ub = 5_000;
        let series: BTreeMap<u64, u64> = (0..ub + 3_000)
            .filter(|b| !(ub..ub + 300).contains(b))
            .map(|b| (b, 100))
            .collect();
        let (s, e) = gap(&series, Time::ZERO + Duration::from_secs(5)).unwrap();
        // The trailing 100 ms window falls below half 50 buckets in and
        // is back at half 50 buckets after the traffic returns.
        assert_eq!((s, e), (ub + 50, ub + 349));
    }
}
