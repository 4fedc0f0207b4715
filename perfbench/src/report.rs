//! Metric names, units, and the result line.

use crate::cluster::{Counters, BULK_THRESHOLD, NODES};
use crate::failover::Trial;
use crate::run::{Phase, Spec, WINDOW_NS};
use crate::stats;

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("deliver_p50_ms", "ms"),
    ("safe_p50_ms", "ms"),
    ("atomic_p50_ms", "ms"),
    ("delivered_per_s", "msg/s"),
    ("failover_gap_s", "s"),
    ("goodput_mbps", "Mbit/s"),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`). The
/// first three are end-to-end quantities whose run-to-run spread on a
/// shared host is too wide to bound; they are reported here unbounded.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("deliver_p99_ms", "ms"),
    ("safe_p99_ms", "ms"),
    ("cpu_ms_per_kmsg", "ms"),
    ("gen.lag_p99_ms", "ms"),
    ("gen.failed_frac", "ratio"),
    ("runtime.submit_call_p50_us", "us"),
    ("runtime.submit_call_p99_us", "us"),
    ("core.token_wait_p50_ms", "ms"),
    ("core.token_wait_p99_ms", "ms"),
    ("core.order_to_deliver_p50_ms", "ms"),
    ("core.order_to_deliver_p99_ms", "ms"),
    ("core.safe_extra_p50_ms", "ms"),
    ("core.idle_visit_frac", "ratio"),
    ("core.msgs_per_token_visit", "count"),
    ("core.token_visits_per_s", "1/s"),
    ("core.bulk_nacks_per_kmsg", "1/kmsg"),
    ("core.bulk_duplicates_per_kmsg", "1/kmsg"),
    ("core.task_switches_per_kmsg", "1/kmsg"),
    ("core.busy_us_per_msg", "us/msg"),
    ("core.on_datagram_us", "us"),
    ("core.on_tick_us", "us"),
    ("transport.retransmissions_per_kmsg", "1/kmsg"),
    ("transport.duplicates_per_kmsg", "1/kmsg"),
    ("shard.flush_us", "us"),
    ("shard.recv_busy_us", "us"),
    ("shard.idle_frac", "ratio"),
    ("net.packets_per_msg", "1/msg"),
    ("net.send_syscalls_per_packet", "ratio"),
    ("net.recv_syscalls_per_packet", "ratio"),
    ("net.poll_syscalls_per_packet", "ratio"),
    ("net.send_batch_mean", "count"),
    ("net.recv_batch_mean", "count"),
    ("net.send_dropped", "count"),
    ("transport.failure_detect_ms", "ms"),
    ("core.membership_change_ms", "ms"),
    ("vip.reassign_ms", "ms"),
    ("rainwall.resume_ms", "ms"),
    ("core.calls911", "count"),
    ("rainwall.flows_retried", "count"),
    ("rainwall.failed_frac", "ratio"),
    ("sim.run_s", "s"),
    ("trace.overhead_deliver_p50_ms", "ms"),
    ("trace.overhead_cpu_ms_per_kmsg", "ms"),
    ("trace.unspanned_frac", "ratio"),
];

/// The end-to-end figures of one real-socket phase, kept so a traced run
/// can subtract the untraced ones.
#[derive(Clone, Copy, Debug, Default)]
pub struct Headline {
    /// Agreed submit → last-member delivery p50 (ms).
    pub deliver_p50_ms: f64,
    /// Node-thread CPU per 1000 delivered messages (ms).
    pub cpu_ms_per_kmsg: f64,
}

/// Collects one run's metrics, checks and human-readable lines.
pub struct Report {
    /// Prepended to every metric name recorded (see [`Report::prefixed`]).
    prefix: &'static str,
    errors: Vec<String>,
    attempted: u64,
    failed: u64,
    values: Vec<(String, f64)>,
    lines: Vec<String>,
}

impl Report {
    /// An empty report for `workload` seeded `seed`.
    pub fn new(workload: &str, seed: u64) -> Report {
        Report {
            prefix: "",
            errors: Vec::new(),
            attempted: 0,
            failed: 0,
            values: Vec::new(),
            lines: vec![format!("perfbench workload={workload} seed={seed}")],
        }
    }

    /// Adds a free-form human-readable line.
    pub fn note(&mut self, line: &str) {
        self.lines.push(format!("  {line}"));
    }

    /// Starts a titled group of human-readable lines.
    pub fn section(&mut self, title: &str) {
        self.lines.push(format!(" {title}:"));
    }

    /// Records a correctness failure.
    pub fn error(&mut self, e: impl Into<String>) {
        self.errors.push(e.into());
    }

    /// True if no check failed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// Records metrics under `prefix` from now on, so a second phase of
    /// the same run does not overwrite the first one's figures.
    pub fn prefixed(&mut self, prefix: &'static str) {
        self.prefix = prefix;
    }

    /// Records metric `name`; `note` goes to the human-readable line.
    pub fn set(&mut self, name: &str, value: f64, note: &str) {
        let unit = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .find(|(n, _)| *n == name)
            .map_or("", |(_, u)| u);
        let name = format!("{}{name}", self.prefix);
        self.lines
            .push(format!("  {name:<36} {value:>14.4} {unit:<7} {note}"));
        self.values.retain(|(n, _)| *n != name);
        self.values.push((name, value));
    }

    /// Records percentile `p` of `samples`, failing the run if fewer
    /// than [`stats::MIN_BEYOND`] samples lie beyond it.
    pub fn set_pct(&mut self, name: &str, samples: &mut [f64], p: f64) -> Option<f64> {
        stats::sort(samples);
        let got = stats::percentile(samples, p);
        match got {
            Some(v) => self.set(name, v, &format!("(p{p} of {} samples)", samples.len())),
            None => self.error(format!(
                "{name}: {} samples cannot support p{p}",
                samples.len()
            )),
        }
        got
    }

    /// Records a latency percentile taken per [`WINDOW_NS`] window of
    /// the offered phase (samples are `(due_ns, ms)`), as the median over
    /// the windows; fails the run if a window is too small for `p`.
    pub fn set_windowed(
        &mut self,
        name: &str,
        samples: &[(u64, f64)],
        span_ns: u64,
        p: f64,
    ) -> f64 {
        match stats::windowed(samples, WINDOW_NS, span_ns, p) {
            Some(w) => {
                let per: Vec<String> = w.per_window.iter().map(|v| format!("{v:.2}")).collect();
                let note = format!(
                    "(median over {} windows of p{p}; {} samples, ≥ {} per window: {})",
                    w.windows,
                    w.count,
                    w.min_count,
                    per.join(" ")
                );
                self.set(name, w.value, &note);
                w.value
            }
            None => {
                self.error(format!(
                    "{name}: {} samples cannot support p{p} per window",
                    samples.len()
                ));
                f64::NAN
            }
        }
    }

    /// Records the median set-up time.
    pub fn setup(&mut self, setup_s: f64, setups: usize) {
        self.set("setup_s", setup_s, &format!("(median of {setups} set-ups)"));
    }

    /// Records the end-to-end metrics, checks and mechanism guards of a
    /// real-socket phase; returns the headline figures.
    pub fn real_phase(&mut self, spec: &Spec, p: &Phase) -> Headline {
        let v = &p.verdict;
        for e in v.errors.iter().take(20) {
            self.error(e.clone());
        }
        self.attempted += v.offered as u64;
        self.failed += (v.refused + v.lost) as u64;
        let due_ms = |i: usize, at: u64| at.saturating_sub(p.subs[i].due_ns) as f64 / 1e6;
        let (mut agreed, mut safe) = (Vec::new(), Vec::new());
        for &(i, at) in &v.complete {
            let s = if p.subs[i].safe {
                &mut safe
            } else {
                &mut agreed
            };
            s.push((p.subs[i].due_ns, due_ms(i, at)));
        }
        let atomic: Vec<(u64, f64)> = p
            .atomic
            .iter()
            .map(|(&i, &at)| (p.subs[i].due_ns, due_ms(i, at)))
            .collect();
        let deliver_p50_ms = self.set_windowed("deliver_p50_ms", &agreed, p.offered_ns, 50.0);
        self.set_windowed("deliver_p99_ms", &agreed, p.offered_ns, 99.0);
        self.set_windowed("safe_p50_ms", &safe, p.offered_ns, 50.0);
        self.set_windowed("safe_p99_ms", &safe, p.offered_ns, 99.0);
        self.set_windowed("atomic_p50_ms", &atomic, p.offered_ns, 50.0);
        let in_phase = v
            .complete
            .iter()
            .filter(|&&(_, at)| at <= p.offered_ns)
            .count();
        self.set(
            "delivered_per_s",
            in_phase as f64 / (p.offered_ns as f64 / 1e9),
            &format!(
                "({in_phase} of {} offered reached every member in the offered phase)",
                v.offered
            ),
        );
        // CPU per window over the messages due in it, median of windows.
        let per_window: Vec<f64> = p
            .cpu_marks
            .windows(2)
            .enumerate()
            .map(|(k, m)| {
                let lo = k as u64 * WINDOW_NS;
                let due = p
                    .subs
                    .iter()
                    .filter(|s| (lo..lo + WINDOW_NS).contains(&s.due_ns))
                    .count();
                (m[1] - m[0]) as f64 / 1e6 / (due.max(1) as f64 / 1e3)
            })
            .collect();
        let listed: Vec<String> = per_window.iter().map(|v| format!("{v:.1}")).collect();
        self.note(&format!("cpu ms/kmsg per window: {}", listed.join(" ")));
        let windows = per_window.len();
        let cpu_ms_per_kmsg = stats::median_of(per_window);
        self.set(
            "cpu_ms_per_kmsg",
            cpu_ms_per_kmsg,
            &format!(
                "(median of {} windows; whole phase {:.1} ms node-thread CPU / {} messages)",
                windows,
                p.cpu_ns as f64 / 1e6,
                v.complete.len()
            ),
        );
        self.set(
            "gen.failed_frac",
            v.failed_frac(),
            &format!(
                "(refused {} + lost {} + late {} of {})",
                v.refused, v.lost, v.late, v.offered
            ),
        );
        let mut lag = p.lag_ns.iter().map(|ns| ns / 1e6).collect::<Vec<_>>();
        self.set_pct("gen.lag_p99_ms", &mut lag, 99.0);
        self.guard(spec, p);
        Headline {
            deliver_p50_ms,
            cpu_ms_per_kmsg,
        }
    }

    /// Mechanism guards: a bulk workload must send every message out of
    /// band, a token workload must send none.
    fn guard(&mut self, spec: &Spec, p: &Phase) {
        let bulk = spec.payload >= BULK_THRESHOLD;
        for o in 0..spec.origins {
            let sent = p.counters[o].get("bulk_frames_sent");
            let msgs = p
                .verdict
                .complete
                .iter()
                .filter(|&&(i, _)| p.offers[i].origin == o)
                .count() as u64;
            let need = (u64::from(NODES) - 1) * msgs;
            if bulk && sent < need {
                self.error(format!(
                    "guard: node {o} sent {sent} bulk frames for {msgs} delivered bulk messages (need ≥ {need})"
                ));
            }
        }
        let total = Counters::sum(&p.counters).get("bulk_frames_sent");
        if !bulk && total != 0 {
            self.error(format!("guard: token workload sent {total} bulk frames"));
        }
        self.lines.push(format!(
            "  guard: {} bulk frames sent ({})",
            total,
            if bulk {
                "every message out of band"
            } else {
                "none expected"
            }
        ));
    }

    /// Records the fail-over metrics: medians over the trials for the
    /// end-to-end figures, means for the per-layer counts.
    pub fn failover(&mut self, trials: &[Trial]) {
        let mean = |f: &dyn Fn(&Trial) -> f64| {
            stats::mean(&trials.iter().map(f).collect::<Vec<_>>()).unwrap_or(f64::NAN)
        };
        let median = |f: &dyn Fn(&Trial) -> f64| stats::median_of(trials.iter().map(f).collect());
        let gaps: Vec<String> = trials.iter().map(|t| format!("{:.2}", t.gap_s)).collect();
        let n = trials.len();
        self.set(
            "failover_gap_s",
            median(&|t| t.gap_s),
            &format!("(virtual, median of {n} trials: {})", gaps.join(" ")),
        );
        self.set(
            "goodput_mbps",
            median(&|t| t.goodput_mbps),
            &format!("(virtual, median of {n})"),
        );
        self.set("core.calls911", mean(&|t| t.calls911 as f64), "(per trial)");
        self.set(
            "rainwall.flows_retried",
            mean(&|t| t.retried as f64),
            "(per trial)",
        );
        self.set(
            "rainwall.failed_frac",
            mean(&|t| t.retried as f64 / t.flows.max(1) as f64),
            "(retried / started flows)",
        );
        self.set("sim.run_s", mean(&|t| t.run_s), "(wall clock per trial)");
    }

    /// Prints the human-readable lines, then the result line with the
    /// end-to-end (`trace == false`) or per-layer metrics.
    pub fn print(&mut self, trace: bool) {
        let wanted: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut metrics = Vec::new();
        for &(name, unit) in wanted {
            match self.values.iter().find(|(n, _)| n == name) {
                Some(&(_, v)) if v.is_finite() => metrics.push(format!(
                    "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
                )),
                _ => self.errors.push(format!("metric {name} was not measured")),
            }
        }
        for l in &self.lines {
            println!("{l}");
        }
        for e in &self.errors {
            println!("  ERROR: {e}");
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.errors.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The quoted values following each `"key": ` in `text`, in order.
    fn values<'a>(text: &'a str, key: &str) -> Vec<&'a str> {
        let pat = format!("\"{key}\": \"");
        text.match_indices(&pat)
            .filter_map(|(i, _)| {
                let rest = &text[i + pat.len()..];
                rest.find('"').map(|end| &rest[..end])
            })
            .collect()
    }

    /// `BENCHMARK.json` at the repository root declares exactly the
    /// metrics, units and workloads this program prints and runs.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let e2e_at = text.find("\"end_to_end\"").expect("end_to_end");
        let layer_at = text.find("\"per_layer\"").expect("per_layer");
        let pairs = |section: &str| -> Vec<(String, String)> {
            values(section, "name")
                .into_iter()
                .zip(values(section, "unit"))
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        let want = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(pairs(&text[e2e_at..layer_at]), want(&END_TO_END));
        assert_eq!(pairs(&text[layer_at..]), want(&PER_LAYER));
        for w in values(&text[..e2e_at], "name") {
            assert!(
                crate::WORKLOADS.iter().any(|s| s.name == w),
                "BENCHMARK.json names unknown workload {w}"
            );
        }
    }
}
