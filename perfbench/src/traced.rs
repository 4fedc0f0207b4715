//! The traced run (`--trace 1`): per-layer metrics measured from
//! outside the program, by timing calls into the layers' public
//! functions.
//!
//! [`TracedNode`] is a copy of the per-node driver loop of
//! `raincore::runtime::RuntimeNode` that makes the same calls in the same
//! order, one thread per node, and wraps each call into `SessionNode`
//! (`multicast`, `on_tick`, `poll_outgoing`, `poll_event`, `on_datagram`)
//! and `IoShard` (`enqueue`, `flush`, `pump_recv`) in a span, and so
//! each operation on the runtime's command and event queues. The copy
//! goes once the program records these spans itself.
//!
//! Spans live in memory until the run ends. Spans of one multicast (its
//! `multicast` call at the origin, its `poll_event` deliveries at every
//! member) carry its `(origin, seq)` and are kept one by one; the
//! per-call spans of the loop are summed per name as they close, which
//! keeps memory bounded at any run length.
//!
//! A traced run first repeats the untraced real-socket phase over
//! `RuntimeNode` (for the production-path counters and the tracing
//! overhead), then the traced phase, then the fail-over trials both
//! untraced and watched step by step.

use crate::check::MsgId;
use crate::cluster::{Counters, Member};
use crate::failover::{self, Trial};
use crate::procfs;
use crate::report::{Headline, Report};
use crate::run::{self, Phase, Spec};
use crate::stats;
use crate::{form_median, window, Args, SETUPS};
use bytes::Bytes;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use raincore::net::batch::{BatchConfig, IoWaker};
use raincore::net::UdpNet;
use raincore::runtime::RuntimeNode;
use raincore::session::{SessionEvent, SessionNode};
use raincore::shard::{IoShard, DEFAULT_OUT_CAP};
use raincore::types::{DeliveryMode, OriginSeq, Time};
use std::collections::HashMap;
use std::sync::OnceLock;
use std::thread::JoinHandle;
use std::time::Instant;

/// The instant every span timestamp counts from.
pub fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// CPU time of the calling thread (ns), from `CLOCK_THREAD_CPUTIME_ID`.
fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call, laid out as the C ABI expects on 64-bit Linux.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
    } else {
        0
    }
}

/// Span names: the calls the loop makes into each layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Name {
    /// `runtime`: a command-queue receive, a reply or an event send.
    Queue,
    Multicast,
    OnTick,
    PollOutgoing,
    PollEvent,
    OnDatagram,
    Enqueue,
    Flush,
    PumpRecv,
}

impl Name {
    const ALL: [Name; 9] = [
        Name::Queue,
        Name::Multicast,
        Name::OnTick,
        Name::PollOutgoing,
        Name::PollEvent,
        Name::OnDatagram,
        Name::Enqueue,
        Name::Flush,
        Name::PumpRecv,
    ];

    fn label(self) -> &'static str {
        match self {
            Name::Queue => "runtime.queue",
            Name::Multicast => "core.multicast",
            Name::OnTick => "core.on_tick",
            Name::PollOutgoing => "core.poll_outgoing",
            Name::PollEvent => "core.poll_event",
            Name::OnDatagram => "core.on_datagram",
            Name::Enqueue => "shard.enqueue",
            Name::Flush => "shard.flush",
            Name::PumpRecv => "shard.pump_recv",
        }
    }

    /// True for calls into `SessionNode` (the `core` layer).
    fn is_core(self) -> bool {
        !matches!(
            self,
            Name::Queue | Name::Enqueue | Name::Flush | Name::PumpRecv
        )
    }
}

/// One span kept individually: a call that concerned one multicast.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Which call.
    pub name: Name,
    /// Start (ns since [`epoch`]).
    pub start_ns: u64,
    /// End (ns since [`epoch`]).
    pub end_ns: u64,
    /// The parent: the driver-loop iteration the call was made in.
    pub iteration: u64,
    /// The multicast it concerned.
    pub msg: MsgId,
}

/// Sum of the spans of one name.
#[derive(Clone, Copy, Debug, Default)]
pub struct Agg {
    /// Spans closed.
    pub count: u64,
    /// Summed duration (ns).
    pub total_ns: u64,
}

/// One token visit at a node: EATING from `start_ns` to `end_ns`, and
/// how many of its multicasts the node had attached by the pass.
#[derive(Clone, Copy, Debug)]
pub struct Visit {
    /// EATING began.
    pub start_ns: u64,
    /// EATING ended (the token was passed on).
    pub end_ns: u64,
    /// Cumulative `multicasts_sent` at the pass.
    pub attached_total: u64,
}

/// Everything a traced node thread recorded.
#[derive(Debug, Default)]
pub struct NodeTrace {
    /// Node index.
    pub node: u32,
    /// Per-name sums.
    pub agg: Vec<(Name, Agg)>,
    /// Per-message spans.
    pub spans: Vec<Span>,
    /// Token visits.
    pub visits: Vec<Visit>,
    /// `flush` calls that found frames queued, and their summed time.
    pub flush_busy: Agg,
    /// Thread CPU spent inside `pump_recv` (ns).
    pub recv_cpu_ns: u64,
    /// Thread lifetime (ns).
    pub wall_ns: u64,
    /// Thread CPU over its lifetime, read from procfs at exit (ns).
    pub procfs_cpu_ns: u64,
}

/// Records spans for one node thread.
struct Tracer {
    t: NodeTrace,
    iteration: u64,
    eating_since: Option<u64>,
    born_ns: u64,
}

impl Tracer {
    fn new(node: u32) -> Tracer {
        Tracer {
            t: NodeTrace {
                node,
                agg: Name::ALL.iter().map(|&n| (n, Agg::default())).collect(),
                ..NodeTrace::default()
            },
            iteration: 0,
            eating_since: None,
            born_ns: now_ns(),
        }
    }

    /// Closes a span begun at `start_ns`; returns its duration.
    fn close(&mut self, name: Name, start_ns: u64, msg: Option<MsgId>) -> u64 {
        let end_ns = now_ns();
        let wall = end_ns - start_ns;
        if let Some((_, a)) = self.t.agg.iter_mut().find(|(n, _)| *n == name) {
            a.count += 1;
            a.total_ns += wall;
        }
        if let Some(msg) = msg {
            self.t.spans.push(Span {
                name,
                start_ns,
                end_ns,
                iteration: self.iteration,
                msg,
            });
        }
        wall
    }

    /// Notes EATING transitions after a call that may have caused one.
    fn watch(&mut self, node: &SessionNode) {
        match (self.eating_since, node.is_eating()) {
            (None, true) => self.eating_since = Some(now_ns()),
            (Some(start_ns), false) => {
                self.eating_since = None;
                self.t.visits.push(Visit {
                    start_ns,
                    end_ns: now_ns(),
                    attached_total: node.metrics().multicasts_sent,
                });
            }
            _ => {}
        }
    }

    fn finish(mut self) -> NodeTrace {
        self.t.wall_ns = now_ns() - self.born_ns;
        self.t.procfs_cpu_ns = std::fs::read_to_string("/proc/thread-self/schedstat")
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse().ok())
            .unwrap_or_else(thread_cpu_ns);
        self.t
    }
}

enum Cmd {
    Multicast(
        DeliveryMode,
        Bytes,
        Sender<raincore::types::Result<OriginSeq>>,
    ),
    Counters(Sender<Counters>),
    Leave,
}

/// A session node driven by the traced copy of the runtime's loop.
pub struct TracedNode {
    cmd_tx: Sender<Cmd>,
    event_rx: Receiver<SessionEvent>,
    waker: IoWaker,
    handle: Option<JoinHandle<NodeTrace>>,
}

impl TracedNode {
    /// Spawns the traced driver thread (named like the runtime's).
    pub fn spawn(mut node: SessionNode, net: UdpNet) -> std::io::Result<TracedNode> {
        // The same observability set-up as the runtime.
        node.obs_mut()
            .set_stage_clock(raincore::obs::StageClock::monotonic());
        node.obs_mut()
            .set_recorder(raincore::runtime::process_flight_recorder().clone());
        let mut shard = IoShard::new(net.into_batch_io(BatchConfig::default())?, DEFAULT_OUT_CAP);
        let waker = shard.waker()?;
        let (cmd_tx, cmd_rx) = bounded::<Cmd>(256);
        let (event_tx, event_rx) = unbounded::<SessionEvent>();
        let id = node.id().0;
        let handle = std::thread::Builder::new()
            .name(format!("{}{id}", procfs::NODE_THREAD))
            .spawn(move || {
                let mut tr = Tracer::new(id);
                let start = Instant::now();
                let now = |start: Instant| Time(start.elapsed().as_nanos() as u64);
                loop {
                    tr.iteration += 1;
                    let t = now(start);
                    let mut leaving = false;
                    loop {
                        let s = now_ns();
                        let cmd = cmd_rx.try_recv();
                        tr.close(Name::Queue, s, None);
                        let Ok(cmd) = cmd else { break };
                        match cmd {
                            Cmd::Multicast(mode, payload, reply) => {
                                let s = now_ns();
                                let r = node.multicast(mode, payload);
                                tr.close(Name::Multicast, s, r.as_ref().ok().map(|q| (id, q.0)));
                                tr.watch(&node);
                                let s = now_ns();
                                let _ = reply.send(r);
                                tr.close(Name::Queue, s, None);
                            }
                            Cmd::Counters(reply) => {
                                let _ = reply.send(Counters::read(&node, shard.metrics()));
                            }
                            Cmd::Leave => {
                                node.leave(t);
                                leaving = true;
                            }
                        }
                    }
                    let s = now_ns();
                    node.on_tick(t);
                    tr.close(Name::OnTick, s, None);
                    tr.watch(&node);
                    loop {
                        let s = now_ns();
                        let d = node.poll_outgoing();
                        tr.close(Name::PollOutgoing, s, None);
                        let Some(d) = d else { break };
                        let s = now_ns();
                        shard.enqueue(d);
                        tr.close(Name::Enqueue, s, None);
                    }
                    let queued = shard.queued() > 0;
                    let s = now_ns();
                    shard.flush();
                    let wall = tr.close(Name::Flush, s, None);
                    if queued {
                        tr.t.flush_busy.count += 1;
                        tr.t.flush_busy.total_ns += wall;
                    }
                    loop {
                        let s = now_ns();
                        let ev = node.poll_event();
                        let msg = match &ev {
                            Some(SessionEvent::Delivery(d)) => Some((d.origin.0, d.seq.0)),
                            _ => None,
                        };
                        tr.close(Name::PollEvent, s, msg);
                        let Some(ev) = ev else { break };
                        let s = now_ns();
                        let _ = event_tx.send(ev);
                        tr.close(Name::Queue, s, None);
                    }
                    if leaving || node.is_down() {
                        while let Some(d) = node.poll_outgoing() {
                            shard.enqueue(d);
                        }
                        shard.flush();
                        return tr.finish();
                    }
                    let budget = node
                        .next_wakeup()
                        .map(|w| w.since(now(start)).to_std())
                        .unwrap_or(std::time::Duration::from_millis(50))
                        .min(std::time::Duration::from_millis(50));
                    // The thread's CPU clock splits `pump_recv` into
                    // receive work and idle waiting in `poll`.
                    let s = now_ns();
                    let c0 = thread_cpu_ns();
                    let burst = shard.pump_recv(budget);
                    tr.t.recv_cpu_ns += thread_cpu_ns() - c0;
                    tr.close(Name::PumpRecv, s, None);
                    for d in burst {
                        let s = now_ns();
                        node.on_datagram(now(start), d);
                        tr.close(Name::OnDatagram, s, None);
                        tr.watch(&node);
                    }
                }
            })?;
        Ok(TracedNode {
            cmd_tx,
            event_rx,
            waker,
            handle: Some(handle),
        })
    }

    fn send_cmd(&self, cmd: Cmd) -> Option<()> {
        self.cmd_tx.send(cmd).ok()?;
        self.waker.wake();
        Some(())
    }

    /// Leaves the group and returns what the thread recorded.
    pub fn stop(mut self) -> Option<NodeTrace> {
        self.send_cmd(Cmd::Leave);
        self.handle.take()?.join().ok()
    }
}

impl Member for TracedNode {
    fn multicast(&self, mode: DeliveryMode, payload: Bytes) -> raincore::types::Result<OriginSeq> {
        let (tx, rx) = bounded(1);
        self.send_cmd(Cmd::Multicast(mode, payload, tx))
            .ok_or(raincore::types::Error::ShutDown)?;
        rx.recv().map_err(|_| raincore::types::Error::ShutDown)?
    }

    fn try_event(&self) -> Option<SessionEvent> {
        self.event_rx.try_recv().ok()
    }

    fn counters(&self) -> Option<Counters> {
        let (tx, rx) = bounded(1);
        self.send_cmd(Cmd::Counters(tx))?;
        rx.recv().ok()
    }
}

impl Drop for TracedNode {
    fn drop(&mut self) {
        if let Some(h) = self.handle.take() {
            let _ = self.cmd_tx.try_send(Cmd::Leave);
            self.waker.wake();
            let _ = h.join();
        }
    }
}

/// The traced run of a real-socket workload.
pub fn run(spec: &Spec, args: &Args, report: &mut Report) -> Result<(), String> {
    let (offered_s, drain_s) = window(spec, args.seconds);
    // Untraced reference over the production driver.
    report.section("untraced phase (RuntimeNode)");
    let (formed, setup_s) = form_median(RuntimeNode::spawn)?;
    let plain = run::drive(
        &formed.members,
        spec,
        args.seed,
        offered_s,
        drain_s,
        formed.warm_up,
    );
    drop(formed);
    report.setup(setup_s, SETUPS);
    let untraced = report.real_phase(spec, &plain);
    counter_metrics(report, &plain);
    let mut submit: Vec<f64> = plain.submit_call_ns.iter().map(|ns| ns / 1e3).collect();
    report.set_pct("runtime.submit_call_p50_us", &mut submit, 50.0);
    report.set_pct("runtime.submit_call_p99_us", &mut submit, 99.0);

    // Traced phase over the copied loop.
    report.section("traced phase (copied driver loop)");
    // Start the span clock before the phase so every span maps into it.
    let _ = epoch();
    let (formed, _) = form_median(TracedNode::spawn)?;
    let phase = run::drive(
        &formed.members,
        spec,
        args.seed,
        offered_s,
        drain_s,
        formed.warm_up,
    );
    let traces: Vec<NodeTrace> = formed
        .members
        .into_iter()
        .map(|m| m.stop().ok_or("a traced node thread panicked"))
        .collect::<Result<_, _>>()?;
    report.prefixed("traced.");
    let traced = report.real_phase(spec, &phase);
    match write_spans(spec.name, &traces) {
        Ok(path) => report.note(&format!("spans written to {path}")),
        Err(e) => report.error(format!("could not write the spans: {e}")),
    }
    report.prefixed("");
    span_metrics(report, spec, &phase, &traces)?;
    report.set(
        "trace.overhead_deliver_p50_ms",
        traced.deliver_p50_ms - untraced.deliver_p50_ms,
        &format!(
            "(traced {:.3} − untraced {:.3})",
            traced.deliver_p50_ms, untraced.deliver_p50_ms
        ),
    );
    overhead_cpu(report, &traced, &untraced);

    report.section("fail-over trials");
    // Fail-over: untraced and watched trials must agree exactly.
    let plain = failover::trials(args.seed, false)?;
    report.failover(&plain);
    let watched = failover::trials(args.seed, true)?;
    for (a, b) in plain.iter().zip(&watched) {
        if a.gap_s != b.gap_s {
            report.error(format!(
                "watched fail-over gap {} s differs from the untraced {} s",
                b.gap_s, a.gap_s
            ));
        }
    }
    failover_phases(report, &watched)
}

/// Writes every recorded span, per-name sum and token visit as
/// tab-separated lines to `<target dir>/perfbench-trace/<workload>.tsv`,
/// where the target dir is `$CARGO_TARGET_DIR` (default `.bench_build`).
fn write_spans(workload: &str, traces: &[NodeTrace]) -> std::io::Result<String> {
    use std::fmt::Write as _;
    let dir = std::path::PathBuf::from(
        std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into()),
    )
    .join("perfbench-trace");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{workload}.tsv"));
    let mut out =
        String::from("# kind\tnode\tname\tstart_ns\tend_ns\tparent_iteration\torigin\tseq\n");
    for t in traces {
        for s in &t.spans {
            let _ = writeln!(
                out,
                "span\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                t.node,
                s.name.label(),
                s.start_ns,
                s.end_ns,
                s.iteration,
                s.msg.0,
                s.msg.1
            );
        }
        for (n, a) in &t.agg {
            let _ = writeln!(
                out,
                "sum\t{}\t{}\tcount={}\ttotal_ns={}",
                t.node,
                n.label(),
                a.count,
                a.total_ns
            );
        }
        for v in &t.visits {
            let _ = writeln!(
                out,
                "visit\t{}\teating\t{}\t{}\tattached_total={}",
                t.node, v.start_ns, v.end_ns, v.attached_total
            );
        }
    }
    std::fs::write(&path, out)?;
    Ok(path.display().to_string())
}

fn overhead_cpu(report: &mut Report, traced: &Headline, untraced: &Headline) {
    report.set(
        "trace.overhead_cpu_ms_per_kmsg",
        traced.cpu_ms_per_kmsg - untraced.cpu_ms_per_kmsg,
        &format!(
            "(traced {:.3} − untraced {:.3})",
            traced.cpu_ms_per_kmsg, untraced.cpu_ms_per_kmsg
        ),
    );
}

/// Per-layer metrics from the production nodes' counter deltas.
fn counter_metrics(report: &mut Report, p: &Phase) {
    let c = Counters::sum(&p.counters);
    let msgs = p.verdict.complete.len().max(1) as f64;
    let per_k = |n: &str| c.get(n) as f64 / (msgs / 1e3);
    let ratio = |a: &str, b: &str| c.get(a) as f64 / c.get(b).max(1) as f64;
    let secs = p.end_ns as f64 / 1e9;
    report.set(
        "core.token_visits_per_s",
        c.get("tokens_received") as f64 / secs,
        "(all nodes, offered phase + drain)",
    );
    report.set("core.bulk_nacks_per_kmsg", per_k("bulk_nacks_sent"), "");
    report.set(
        "core.bulk_duplicates_per_kmsg",
        per_k("bulk_duplicates"),
        "",
    );
    report.set("core.task_switches_per_kmsg", per_k("task_switches"), "");
    report.set(
        "transport.retransmissions_per_kmsg",
        per_k("retransmissions"),
        "",
    );
    report.set(
        "transport.duplicates_per_kmsg",
        per_k("duplicates_dropped"),
        "",
    );
    report.set(
        "net.packets_per_msg",
        c.get("packets_sent") as f64 / msgs,
        "(all nodes)",
    );
    report.set(
        "net.send_syscalls_per_packet",
        ratio("syscalls_send", "packets_sent"),
        "",
    );
    report.set(
        "net.recv_syscalls_per_packet",
        ratio("syscalls_recv", "packets_recv"),
        "",
    );
    report.set(
        "net.poll_syscalls_per_packet",
        ratio("syscalls_poll", "packets_recv"),
        "",
    );
    report.set(
        "net.send_batch_mean",
        ratio("packets_sent", "syscalls_send"),
        "",
    );
    report.set(
        "net.recv_batch_mean",
        ratio("packets_recv", "syscalls_recv"),
        "",
    );
    report.set("net.send_dropped", c.get("send_dropped") as f64, "");
}

/// Per-layer metrics from the spans, and the reconciliation checks.
fn span_metrics(
    report: &mut Report,
    spec: &Spec,
    p: &Phase,
    traces: &[NodeTrace],
) -> Result<(), String> {
    // Span clock → phase clock.
    let shift = p.t0.duration_since(epoch()).as_nanos() as u64;
    let to_phase = |ns: u64| ns.saturating_sub(shift);
    let agg = |name: Name| {
        traces.iter().fold(Agg::default(), |mut s, t| {
            if let Some((_, a)) = t.agg.iter().find(|(n, _)| *n == name) {
                s.count += a.count;
                s.total_ns += a.total_ns;
            }
            s
        })
    };
    let mean_us = |a: Agg| a.total_ns as f64 / a.count.max(1) as f64 / 1e3;
    let msgs = p.verdict.complete.len().max(1) as f64;

    // core: self time of the SessionNode calls.
    let core_ns: u64 = Name::ALL
        .iter()
        .filter(|n| n.is_core())
        .map(|&n| agg(n).total_ns)
        .sum();
    report.set(
        "core.busy_us_per_msg",
        core_ns as f64 / 1e3 / msgs,
        "(SessionNode call time / message)",
    );
    report.set(
        "core.on_datagram_us",
        mean_us(agg(Name::OnDatagram)),
        "(mean per call)",
    );
    report.set(
        "core.on_tick_us",
        mean_us(agg(Name::OnTick)),
        "(mean per call)",
    );

    // shard: flush time, receive CPU and idle share.
    let flush = traces.iter().fold(Agg::default(), |mut s, t| {
        s.count += t.flush_busy.count;
        s.total_ns += t.flush_busy.total_ns;
        s
    });
    report.set(
        "shard.flush_us",
        mean_us(flush),
        "(mean per non-empty flush)",
    );
    let recv = agg(Name::PumpRecv);
    let recv_cpu: u64 = traces.iter().map(|t| t.recv_cpu_ns).sum();
    report.set(
        "shard.recv_busy_us",
        recv_cpu as f64 / 1e3 / recv.count.max(1) as f64,
        "(thread CPU per pump_recv call)",
    );
    let wall: u64 = traces.iter().map(|t| t.wall_ns).sum();
    report.set(
        "shard.idle_frac",
        recv.total_ns.saturating_sub(recv_cpu) as f64 / wall.max(1) as f64,
        "(pump_recv wall − CPU, of thread wall)",
    );

    // Reconciliation, per node thread. Wall time: the spans plus the gaps
    // between them. CPU time: the busy spans (`pump_recv` counted at its
    // CPU, i.e. without its idle wait) against procfs. Busy spans are
    // wall-clock, so time a thread spent preempted inside one counts as
    // busy; the accepted range allows for that.
    let mut worst_unspanned: f64 = 0.0;
    let (mut busy_total, mut cpu_total) = (0u64, 0u64);
    for t in traces {
        let spanned: u64 = t.agg.iter().map(|(_, a)| a.total_ns).sum();
        let unspanned = 1.0 - spanned as f64 / t.wall_ns.max(1) as f64;
        worst_unspanned = worst_unspanned.max(unspanned);
        if unspanned > UNSPANNED_LIMIT {
            report.error(format!(
                "node {}: spans + pump_recv idle cover only {:.1}% of the thread's wall time",
                t.node,
                100.0 * (1.0 - unspanned)
            ));
        }
        let pump = t
            .agg
            .iter()
            .find(|(n, _)| *n == Name::PumpRecv)
            .map_or(0, |(_, a)| a.total_ns);
        let busy = spanned - pump + t.recv_cpu_ns;
        busy_total += busy;
        cpu_total += t.procfs_cpu_ns;
        let ratio = busy as f64 / t.procfs_cpu_ns.max(1) as f64;
        if !(BUSY_CPU_RANGE.0..=BUSY_CPU_RANGE.1).contains(&ratio) {
            report.error(format!(
                "node {}: busy spans {:.1} ms vs procfs CPU {:.1} ms (ratio {ratio:.3})",
                t.node,
                busy as f64 / 1e6,
                t.procfs_cpu_ns as f64 / 1e6
            ));
        }
    }
    report.set(
        "trace.unspanned_frac",
        worst_unspanned,
        "(worst node thread)",
    );
    report.set(
        "trace.busy_cpu_ratio",
        busy_total as f64 / cpu_total.max(1) as f64,
        "(busy spans / procfs CPU, all node threads)",
    );

    // core: token wait and ordering, from the origins' visits.
    let submit_at: HashMap<MsgId, u64> = traces
        .iter()
        .flat_map(|t| t.spans.iter())
        .filter(|s| s.name == Name::Multicast)
        .map(|s| (s.msg, to_phase(s.end_ns)))
        .collect();
    let index: HashMap<MsgId, usize> = p
        .subs
        .iter()
        .enumerate()
        .filter_map(|(i, s)| s.id.map(|id| (id, i)))
        .collect();
    let last_at: HashMap<usize, u64> = p.verdict.complete.iter().copied().collect();
    let (mut wait, mut o2d_agreed, mut o2d_safe) = (Vec::new(), Vec::new(), Vec::new());
    let (mut visits, mut idle_visits, mut attached) = (0u64, 0u64, 0u64);
    for t in traces.iter().filter(|t| (t.node as usize) < spec.origins) {
        // Origin sequences count from 0, so the multicast with sequence
        // k - 1 is the node's k-th and was attached at the first pass whose
        // cumulative `multicasts_sent` reached k.
        let mut mine: Vec<(u64, MsgId)> = t
            .spans
            .iter()
            .filter(|s| s.name == Name::Multicast)
            .map(|s| (s.msg.1 + 1, s.msg))
            .collect();
        mine.sort_unstable();
        let mut prev = 0;
        for v in &t.visits {
            visits += 1;
            let n = v.attached_total - prev;
            idle_visits += u64::from(n == 0);
            attached += n;
            let lo = mine.partition_point(|&(k, _)| k <= prev);
            let hi = mine.partition_point(|&(k, _)| k <= v.attached_total);
            for &(_, id) in &mine[lo..hi] {
                let (Some(&sub), Some(&i)) = (submit_at.get(&id), index.get(&id)) else {
                    continue; // the warm-up message
                };
                let pass = to_phase(v.end_ns);
                wait.push(pass.saturating_sub(sub) as f64 / 1e6);
                if let Some(&last) = last_at.get(&i) {
                    let o2d = last.saturating_sub(pass) as f64 / 1e6;
                    if p.subs[i].safe {
                        o2d_safe.push(o2d);
                    } else {
                        o2d_agreed.push(o2d);
                    }
                }
            }
            prev = v.attached_total;
        }
    }
    report.set_pct("core.token_wait_p50_ms", &mut wait, 50.0);
    report.set_pct("core.token_wait_p99_ms", &mut wait, 99.0);
    let agreed_p50 = report.set_pct("core.order_to_deliver_p50_ms", &mut o2d_agreed, 50.0);
    report.set_pct("core.order_to_deliver_p99_ms", &mut o2d_agreed, 99.0);
    stats::sort(&mut o2d_safe);
    let safe_p50 = stats::percentile(&o2d_safe, 50.0);
    if let (Some(s), Some(a)) = (safe_p50, agreed_p50) {
        report.set(
            "core.safe_extra_p50_ms",
            s - a,
            &format!("(Safe order→deliver p50 {s:.3} − Agreed {a:.3})"),
        );
    }
    report.set(
        "core.idle_visit_frac",
        idle_visits as f64 / visits.max(1) as f64,
        &format!("({idle_visits} of {visits} visits at origins attached nothing)"),
    );
    report.set(
        "core.msgs_per_token_visit",
        attached as f64 / visits.max(1) as f64,
        "(at origins)",
    );
    Ok(())
}

/// Spans plus `pump_recv` idle time must cover at least this share of
/// each node thread's wall time.
const UNSPANNED_LIMIT: f64 = 0.10;
/// Accepted range of busy span time over procfs CPU time per thread: at
/// most a fifth of the CPU may fall outside the spans, and preemption
/// inside spans may inflate them by up to 60 %.
const BUSY_CPU_RANGE: (f64, f64) = (0.8, 1.6);

/// Per-layer fail-over metrics from the watched trials, and the check
/// that the recovery steps add up to the gap.
fn failover_phases(report: &mut Report, watched: &[Trial]) -> Result<(), String> {
    let phases: Vec<failover::Phases> = watched
        .iter()
        .map(|t| {
            t.phases
                .ok_or("a watched trial recorded no phases".to_string())
        })
        .collect::<Result<_, _>>()?;
    for (t, ph) in watched.iter().zip(&phases) {
        let sum = ph.membership_change_ms + ph.vip_reassign_ms + ph.resume_ms;
        if (sum - t.gap_s * 1e3).abs() > 100.0 {
            report.error(format!(
                "recovery steps add to {sum:.0} ms but the gap is {:.0} ms",
                t.gap_s * 1e3
            ));
        }
    }
    let mean = |f: fn(&failover::Phases) -> f64| {
        stats::mean(&phases.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    report.set(
        "transport.failure_detect_ms",
        mean(|p| p.failure_detect_ms),
        "(virtual)",
    );
    report.set(
        "core.membership_change_ms",
        mean(|p| p.membership_change_ms),
        "(virtual)",
    );
    report.set("vip.reassign_ms", mean(|p| p.vip_reassign_ms), "(virtual)");
    report.set("rainwall.resume_ms", mean(|p| p.resume_ms), "(virtual)");
    Ok(())
}
