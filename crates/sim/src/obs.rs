//! Cluster-wide observability.
//!
//! The harness owns one [`Registry`](raincore_obs::Registry) per cluster.
//! [`Cluster::collect_metrics`] refreshes it from every node — counters and
//! gauges from [`SessionMetrics`](raincore_session::SessionMetrics) /
//! transport stats, plus the latency histograms the protocol layers record
//! natively (token rotation, HUNGRY→EATING wait, 911 recovery, RTT,
//! failure-on-delivery). Because histogram handles share their buckets,
//! attaching them once per collection costs nothing and survives node
//! restarts (re-attaching replaces the stale handle).
//!
//! [`Cluster::run_checked`] runs the simulation under an invariant checker
//! sampled after **every** quantum; on the first violation it renders a
//! post-mortem report — cluster state dump plus the merged, time-ordered
//! trace journal of every node — so the token-seq causality leading up to
//! the incident is on screen, not lost in flat counters.

use crate::cluster::Cluster;
use raincore_obs::{
    merge_journals, render_events_text, render_waterfall, TraceEvent, WaterfallOpts,
};
use raincore_types::Time;

/// An invariant violation caught by [`Cluster::run_checked`], carrying the
/// full post-mortem report.
#[derive(Debug)]
pub struct InvariantFailure {
    /// Virtual time at which the checker tripped.
    pub at: Time,
    /// Quanta processed when it tripped.
    pub steps: u64,
    /// The checker's explanation.
    pub reason: String,
    /// Rendered report: state dump + merged trace journal.
    pub report: String,
}

impl std::fmt::Display for InvariantFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invariant violated at t={} (step {}): {}",
            self.at, self.steps, self.reason
        )
    }
}

impl std::error::Error for InvariantFailure {}

/// The harness's standard cross-node invariant: within each group at most
/// one member is EATING (the paper's mutual-exclusion property, §2.7).
pub fn standard_invariants(c: &Cluster) -> Result<(), String> {
    if let Some(g) = c.eating_violation() {
        return Err(format!("more than one EATING node in group {g}"));
    }
    Ok(())
}

impl Cluster {
    /// Refreshes the metric registry from every node: protocol and
    /// transport counters, cluster/node gauges, and the natively recorded
    /// latency histograms (attached by handle, so they are always live).
    pub fn collect_metrics(&self) {
        let r = self.registry();
        r.set_gauge("raincore_sim_time_ns", &[], self.now().as_nanos() as i64);
        r.set_gauge("raincore_sim_steps", &[], self.steps() as i64);
        r.set_gauge(
            "raincore_sim_live_members",
            &[],
            self.live_members().len() as i64,
        );
        r.set_gauge("raincore_sim_groups", &[], self.groups().len() as i64);
        for id in self.member_ids() {
            let Some(s) = self.session(id) else { continue };
            let node = id.0.to_string();
            let labels: &[(&str, &str)] = &[("node", node.as_str())];
            r.set_gauge("raincore_node_alive", labels, i64::from(self.is_alive(id)));
            r.set_gauge("raincore_node_eating", labels, i64::from(s.is_eating()));
            r.set_gauge("raincore_node_ring_size", labels, s.ring().len() as i64);
            r.set_gauge("raincore_node_group", labels, i64::from(s.group_id().0 .0));
            r.set_gauge("raincore_node_copy_seq", labels, s.last_copy_seq() as i64);
            // Counters are mirrored by delta so they stay monotonic in the
            // registry even across a node restart (which zeroes the
            // node-local snapshot; the delta is then simply 0 for a while).
            for (name, v) in s.metrics().fields() {
                let c = r.counter(&format!("raincore_session_{name}"), labels);
                c.add(v.saturating_sub(c.get()));
            }
            let ts = s.transport_stats();
            for (name, v) in [
                ("msgs_sent", ts.msgs_sent),
                ("msgs_delivered", ts.msgs_delivered),
                ("msgs_failed", ts.msgs_failed),
                ("msgs_received", ts.msgs_received),
                ("retransmissions", ts.retransmissions),
                ("duplicates_dropped", ts.duplicates_dropped),
            ] {
                let c = r.counter(&format!("raincore_transport_{name}"), labels);
                c.add(v.saturating_sub(c.get()));
            }
            let o = s.obs();
            // Journal overflow is surfaced, never silent: the eviction
            // count is a first-class counter next to everything else.
            let dropped = r.counter("raincore_trace_dropped_events", labels);
            dropped.add(o.journal().dropped().saturating_sub(dropped.get()));
            for stage in raincore_obs::Stage::ALL {
                let sl: &[(&str, &str)] = &[("node", node.as_str()), ("stage", stage.label())];
                r.attach_histogram("raincore_hop_stage_ns", sl, o.hop_stages.get(stage).clone());
            }
            r.attach_histogram(
                "raincore_token_rotation_ns",
                labels,
                o.token_rotation.clone(),
            );
            r.attach_histogram("raincore_hungry_wait_ns", labels, o.hungry_wait.clone());
            r.attach_histogram("raincore_token_hold_late_ns", labels, o.hold_late.clone());
            r.attach_histogram("raincore_911_recovery_ns", labels, o.recovery_911.clone());
            r.attach_histogram(
                "raincore_token_encode_bytes",
                labels,
                o.token_encode_bytes.clone(),
            );
            for (mode, deliver, atomic) in [
                (
                    "agreed",
                    &o.submit_to_deliver_agreed,
                    &o.submit_to_atomic_agreed,
                ),
                ("safe", &o.submit_to_deliver_safe, &o.submit_to_atomic_safe),
            ] {
                let ml: &[(&str, &str)] = &[("node", node.as_str()), ("mode", mode)];
                r.attach_histogram("raincore_submit_to_deliver_ns", ml, deliver.clone());
                r.attach_histogram("raincore_submit_to_atomic_ns", ml, atomic.clone());
            }
            let t = s.transport_obs();
            r.attach_histogram("raincore_transport_rtt_ns", labels, t.rtt.clone());
            r.attach_histogram(
                "raincore_transport_failure_latency_ns",
                labels,
                t.failure_latency.clone(),
            );
        }
    }

    /// Collects and renders the registry in the Prometheus text format.
    pub fn prometheus(&self) -> String {
        self.collect_metrics();
        self.registry().snapshot().to_prometheus()
    }

    /// Collects and renders the registry as a JSON document.
    pub fn json_snapshot(&self) -> String {
        self.collect_metrics();
        self.registry().snapshot().to_json()
    }

    /// Every node's trace journal merged into one time-ordered event list.
    pub fn merged_journal(&self) -> Vec<TraceEvent> {
        merge_journals(
            self.member_ids()
                .iter()
                .filter_map(|&id| self.session(id))
                .map(|s| s.obs().journal())
                .collect::<Vec<_>>(),
        )
    }

    /// Pretty-text dump of the merged trace journal.
    pub fn journal_text(&self) -> String {
        render_events_text(&self.merged_journal())
    }

    /// Renders a post-mortem report for an invariant violation: the
    /// violation, the per-node state dump and the merged trace journal.
    pub fn invariant_report(&self, reason: &str) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "INVARIANT VIOLATED at t={} (step {}): {reason}\n",
            self.now(),
            self.steps(),
        ));
        out.push_str("--- cluster state ---\n");
        out.push_str(&self.dump_state());
        out.push_str("--- merged trace journal ---\n");
        out.push_str(&self.journal_text());
        out.push_str("--- flight recorder ---\n");
        out.push_str(&self.flight().render_text());
        out.push_str("--- token waterfall ---\n");
        out.push_str(&render_waterfall(
            &self.merged_journal(),
            &WaterfallOpts::default(),
        ));
        out
    }

    /// The merged journal rendered as a JSON array — the input format of
    /// the `tracectl` waterfall CLI.
    pub fn journal_json(&self) -> String {
        raincore_obs::render_events_json(&self.merged_journal())
    }

    /// Runs until `t_end` with `check` sampled after every quantum. On the
    /// first violation the post-mortem report is printed to stderr and
    /// returned in the [`InvariantFailure`]; the simulation still runs to
    /// `t_end` so the cluster stays usable for further inspection.
    pub fn run_checked(
        &mut self,
        t_end: Time,
        mut check: impl FnMut(&Cluster) -> Result<(), String>,
    ) -> Result<(), InvariantFailure> {
        let mut failure: Option<InvariantFailure> = None;
        self.run_until_with(t_end, |c| {
            if failure.is_some() {
                return;
            }
            if let Err(reason) = check(c) {
                let report = c.invariant_report(&reason);
                eprintln!("{report}");
                failure = Some(InvariantFailure {
                    at: c.now(),
                    steps: c.steps(),
                    reason,
                    report,
                });
            }
        });
        match failure {
            Some(f) => Err(f),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::tests_shared::fast;
    use raincore_types::{Duration, NodeId};

    fn secs(s: u64) -> Time {
        Time::ZERO + Duration::from_secs(s)
    }

    #[test]
    fn healthy_run_passes_standard_invariants() {
        let mut c = Cluster::founding(4, fast()).unwrap();
        c.run_checked(secs(1), standard_invariants).unwrap();
    }

    #[test]
    fn prometheus_export_covers_every_layer_and_node() {
        let mut c = Cluster::founding(3, fast()).unwrap();
        c.run_for(Duration::from_secs(1));
        let text = c.prometheus();
        assert!(
            text.contains("# TYPE raincore_token_rotation_ns histogram"),
            "{text}"
        );
        assert!(text.contains("raincore_token_rotation_ns_p99{node=\"0\"}"));
        assert!(text.contains("raincore_token_rotation_ns_p50{node=\"2\"}"));
        assert!(text.contains("raincore_session_tokens_received{node=\"1\"}"));
        assert!(text.contains("raincore_transport_rtt_ns_count{node=\"1\"}"));
        assert!(text.contains("raincore_submit_to_deliver_ns_count{mode=\"agreed\",node=\"0\"}"));
        assert!(text.contains("raincore_session_token_body_cache_hits{node=\"0\"}"));
        assert!(text.contains("raincore_session_token_body_cache_misses{node=\"0\"}"));
        assert!(text.contains("raincore_token_encode_bytes_count{node=\"1\"}"));
        assert!(text.contains("raincore_token_hold_late_ns_count{node=\"2\"}"));
        assert!(text.contains("raincore_sim_live_members 3"));
        let json = c.json_snapshot();
        assert!(json.contains("\"name\":\"raincore_token_rotation_ns\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn rotation_histogram_matches_token_counters() {
        let mut c = Cluster::founding(3, fast()).unwrap();
        c.run_for(Duration::from_secs(1));
        for id in c.member_ids() {
            let tokens = c.metrics(id).tokens_received;
            let h = c.session(id).unwrap().obs().token_rotation.summary();
            // One rotation interval per accept, minus the very first.
            assert_eq!(h.count, tokens - 1, "node {id}");
            assert!(h.p50 > 0 && h.p99 >= h.p50 && h.max >= h.p99, "{h:?}");
        }
    }

    #[test]
    fn hold_lateness_is_zero_under_exact_ticks() {
        let mut c = Cluster::founding(3, fast()).unwrap();
        c.run_for(Duration::from_secs(1));
        for id in c.member_ids() {
            let h = c.session(id).unwrap().obs().hold_late.summary();
            // Every pass is recorded, and the simulator ticks each node
            // exactly at its hold deadline.
            assert!(h.count > 0, "node {id}");
            assert_eq!(h.max, 0, "node {id}: {h:?}");
        }
    }

    #[test]
    fn forced_invariant_failure_dumps_token_causality() {
        let mut c = Cluster::founding(3, fast()).unwrap();
        // A deliberately false invariant forces the post-mortem path once
        // the token has made a few rounds.
        let err = c
            .run_checked(secs(1), |c| {
                if c.metrics(NodeId(0)).tokens_received > 5 {
                    Err("forced: node 0 accepted more than 5 tokens".into())
                } else {
                    Ok(())
                }
            })
            .expect_err("checker must trip");
        assert!(err.reason.contains("forced"));
        assert!(err.report.contains("--- cluster state ---"));
        assert!(err.report.contains("--- merged trace journal ---"));
        assert!(err.report.contains("TOKEN_RX"), "{}", err.report);
        assert!(err.report.contains("TOKEN_TX"));
        // Token-seq causality is visible and consistent: TOKEN_RX lines in
        // the time-ordered merged journal quote non-decreasing seqs.
        let seqs: Vec<u64> = err
            .report
            .lines()
            .filter(|l| l.contains("TOKEN_RX"))
            .filter_map(|l| {
                l.split("seq=")
                    .nth(1)?
                    .split_whitespace()
                    .next()?
                    .parse()
                    .ok()
            })
            .collect();
        assert!(seqs.len() >= 3, "several accepts recorded: {seqs:?}");
        assert!(
            seqs.windows(2).all(|w| w[0] <= w[1]),
            "seqs out of order: {seqs:?}"
        );
    }
}
