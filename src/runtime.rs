//! Threaded real-time driver: runs a [`SessionNode`] over real UDP
//! sockets.
//!
//! The protocol stack is sans-io; this module supplies the production
//! driver the paper's deployment implies — one **I/O shard** per node
//! (see [`crate::shard`]): a single pump thread that owns the node's
//! sockets outright, drains `poll_outgoing()` into `sendmmsg` batches,
//! blocks in one `ppoll(2)` across sockets + a wake fd, and feeds
//! received bursts and wall-clock time straight into the state machine.
//! No per-socket reader threads, no per-datagram channel hop. The
//! deterministic simulator (`raincore-sim`) drives the *same* state
//! machine; nothing protocol-level lives here.
//!
//! Command flow is bounded end to end: the command queue is a bounded
//! channel (senders block when the driver falls behind — backpressure,
//! not unbounded buffering) and each request carries a bounded
//! one-shot reply. The event channel stays unbounded on purpose:
//! dropping a `Delivery` event would silently violate the atomic
//! multicast contract the conformance harness audits, so event memory
//! is bounded by the consumer, not by discarding.
//!
//! See the `udp_cluster` example for a three-node cluster exchanging
//! multicasts over localhost UDP.

use crate::shard::{IoShard, DEFAULT_OUT_CAP};
use crossbeam::channel::{bounded, unbounded, Receiver, Sender, TrySendError};
use raincore_net::batch::{BatchConfig, IoMetrics, IoWaker};
use raincore_net::udp::UdpNet;
use raincore_obs::{FlightRecorder, StageClock};
use raincore_session::{SessionEvent, SessionNode};
use raincore_types::{DeliveryMode, OriginSeq, Time};
use std::sync::OnceLock;
use std::thread::JoinHandle;
use std::time::Instant;

/// Commands queued ahead of a stalled driver before senders block.
const CMD_QUEUE_CAP: usize = 256;

/// The process-wide flight recorder: every [`RuntimeNode`] spawned in
/// this process records into the same always-on ring, so a post-mortem
/// dump interleaves the last moments of all local nodes.
pub fn process_flight_recorder() -> &'static FlightRecorder {
    static FLIGHT: OnceLock<FlightRecorder> = OnceLock::new();
    FLIGHT.get_or_init(FlightRecorder::default)
}

enum Cmd {
    Multicast(
        DeliveryMode,
        bytes::Bytes,
        Sender<raincore_types::Result<OriginSeq>>,
    ),
    RequestMaster,
    ReleaseMaster,
    ObsDump(Sender<ObsDump>),
    Leave,
}

/// Point-in-time observability snapshot of a running node: renderable
/// metric exports plus the structured trace journal, produced on the
/// driver thread without stopping the protocol.
#[derive(Clone, Debug)]
pub struct ObsDump {
    /// Prometheus text exposition: session/transport counters and the
    /// latency histograms (token rotation, hungry wait, 911 recovery,
    /// RTT, failure-on-delivery), labeled with the node id.
    pub prometheus: String,
    /// The same registry as a JSON document.
    pub json: String,
    /// Pretty-text trace journal (oldest first).
    pub journal: String,
    /// The trace journal as a JSON array.
    pub journal_json: String,
    /// The process-wide flight recorder ring, rendered as text (newest
    /// records, with the last hop before the dump named up front).
    pub flight: String,
}

/// Builds the node's metric registry and renders the dump.
fn dump_node_obs(node: &SessionNode, io: &IoMetrics) -> ObsDump {
    let r = raincore_obs::Registry::new();
    let id = node.id().0.to_string();
    let labels: &[(&str, &str)] = &[("node", id.as_str())];
    // I/O engine instrumentation: syscalls and packets counted
    // separately per direction so syscalls-per-packet is a first-class
    // metric, plus the per-flush batch-size distributions and the pool
    // and drop counters. All of it rides into the procher export via the
    // same JSON document.
    for (op, c) in [
        ("send", &io.syscalls_send),
        ("recv", &io.syscalls_recv),
        ("poll", &io.syscalls_poll),
    ] {
        r.counter("raincore_io_syscalls", &[("node", id.as_str()), ("op", op)])
            .add(c.get());
    }
    for (op, c) in [("send", &io.packets_sent), ("recv", &io.packets_recv)] {
        r.counter("raincore_io_packets", &[("node", id.as_str()), ("op", op)])
            .add(c.get());
    }
    r.attach_histogram(
        "raincore_io_batch_size",
        &[("node", id.as_str()), ("dir", "send")],
        io.send_batch.clone(),
    );
    r.attach_histogram(
        "raincore_io_batch_size",
        &[("node", id.as_str()), ("dir", "recv")],
        io.recv_batch.clone(),
    );
    r.counter("raincore_io_send_dropped", labels)
        .add(io.send_dropped.get());
    r.counter("raincore_io_decode_dropped", labels)
        .add(io.decode_dropped.get());
    r.counter("raincore_io_pool_reused", labels)
        .add(io.pool_reused.get());
    r.counter("raincore_io_pool_grown", labels)
        .add(io.pool_grown.get());
    r.gauge("raincore_io_syscalls_per_packet_milli", labels)
        .set(io.syscalls_per_packet_milli() as i64);
    for (name, v) in node.metrics().fields() {
        r.counter(&format!("raincore_session_{name}"), labels)
            .add(v);
    }
    let ts = node.transport_stats();
    for (name, v) in [
        ("msgs_sent", ts.msgs_sent),
        ("msgs_delivered", ts.msgs_delivered),
        ("msgs_failed", ts.msgs_failed),
        ("msgs_received", ts.msgs_received),
        ("retransmissions", ts.retransmissions),
        ("duplicates_dropped", ts.duplicates_dropped),
    ] {
        r.counter(&format!("raincore_transport_{name}"), labels)
            .add(v);
    }
    let o = node.obs();
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
    // Trace health: silent journal overflow becomes a visible counter,
    // and the per-stage hop latency histograms ride along per stage.
    r.counter("raincore_trace_dropped_events", labels)
        .add(o.journal().dropped());
    for stage in raincore_obs::Stage::ALL {
        r.attach_histogram(
            "raincore_hop_stage_ns",
            &[("node", id.as_str()), ("stage", stage.label())],
            o.hop_stages.get(stage).clone(),
        );
    }
    let t = node.transport_obs();
    r.attach_histogram("raincore_transport_rtt_ns", labels, t.rtt.clone());
    r.attach_histogram(
        "raincore_transport_failure_latency_ns",
        labels,
        t.failure_latency.clone(),
    );
    // Point-in-time protocol status as gauges, so an out-of-process
    // auditor (the real-socket conformance harness) can rebuild an
    // `AuditView` of this node from the JSON export alone.
    r.gauge("raincore_status_group", labels)
        .set(i64::from(node.group_id().0 .0));
    r.gauge("raincore_status_eating", labels)
        .set(i64::from(node.is_eating()));
    r.gauge("raincore_status_down", labels)
        .set(i64::from(node.is_down()));
    r.gauge("raincore_status_copy_seq", labels)
        .set(node.last_copy_seq() as i64);
    for m in node.ring().iter() {
        let member = m.0.to_string();
        r.gauge(
            "raincore_status_ring_member",
            &[("node", id.as_str()), ("member", member.as_str())],
        )
        .set(1);
    }
    let snap = r.snapshot();
    ObsDump {
        prometheus: snap.to_prometheus(),
        json: snap.to_json(),
        journal: o.journal().render_text(),
        journal_json: o.journal().render_json(),
        flight: o
            .recorder()
            .map(FlightRecorder::render_text)
            .unwrap_or_default(),
    }
}

/// Handle to a session node running on its own thread over UDP.
///
/// Dropping the handle asks the node to leave the group and joins the
/// thread.
pub struct RuntimeNode {
    cmd_tx: Sender<Cmd>,
    event_rx: Receiver<SessionEvent>,
    waker: IoWaker,
    handle: Option<JoinHandle<()>>,
}

impl RuntimeNode {
    /// Spawns the driver thread for `node` over `net` with the default
    /// batched I/O configuration.
    ///
    /// `node` should have been constructed with the same local addresses
    /// that `net` has bound.
    pub fn spawn(node: SessionNode, net: UdpNet) -> std::io::Result<RuntimeNode> {
        RuntimeNode::spawn_with(node, net, BatchConfig::default())
    }

    /// Spawns the driver thread with explicit I/O engine tuning (batch
    /// size, pool depth, backend choice — see [`BatchConfig`]).
    ///
    /// The sockets bound in `net` are handed to a single [`IoShard`]
    /// pump owned by the driver thread. Datagrams that reached them
    /// before the spawn wait in the kernel socket buffer and are the
    /// first ones the pump receives.
    pub fn spawn_with(
        mut node: SessionNode,
        net: UdpNet,
        cfg: BatchConfig,
    ) -> std::io::Result<RuntimeNode> {
        // Real deployments get real per-stage hop timings and share the
        // process-wide flight recorder ring; both are always on.
        node.obs_mut().set_stage_clock(StageClock::monotonic());
        node.obs_mut()
            .set_recorder(process_flight_recorder().clone());
        let mut shard = IoShard::new(net.into_batch_io(cfg)?, DEFAULT_OUT_CAP);
        let waker = shard.waker()?;
        let (cmd_tx, cmd_rx) = bounded::<Cmd>(CMD_QUEUE_CAP);
        let (event_tx, event_rx) = unbounded::<SessionEvent>();
        let name = format!("raincore-node-{}", node.id());
        let handle = std::thread::Builder::new().name(name).spawn(move || {
            let start = Instant::now();
            let now = |start: Instant| Time(start.elapsed().as_nanos() as u64);
            loop {
                let t = now(start);
                // Process commands.
                let mut leaving = false;
                while let Ok(cmd) = cmd_rx.try_recv() {
                    match cmd {
                        Cmd::Multicast(mode, payload, reply) => {
                            let _ = reply.send(node.multicast(mode, payload));
                        }
                        Cmd::RequestMaster => {
                            let _ = node.request_master();
                        }
                        Cmd::ReleaseMaster => {
                            let _ = node.release_master(t);
                        }
                        Cmd::ObsDump(reply) => {
                            let _ = reply.send(dump_node_obs(&node, shard.metrics()));
                        }
                        Cmd::Leave => {
                            node.leave(t);
                            leaving = true;
                        }
                    }
                }
                // Drive timers, then gather this round's outgoing frames
                // into one batched flush (the shard auto-flushes if the
                // protocol produces more than the queue bound).
                node.on_tick(t);
                while let Some(d) = node.poll_outgoing() {
                    shard.enqueue(d);
                }
                shard.flush();
                while let Some(ev) = node.poll_event() {
                    let _ = event_tx.send(ev);
                }
                if leaving || node.is_down() {
                    // Flush the handoff token, then stop.
                    while let Some(d) = node.poll_outgoing() {
                        shard.enqueue(d);
                    }
                    shard.flush();
                    return;
                }
                // Block until the next protocol wakeup, a received
                // burst, or a command poke on the wake socket —
                // whichever comes first.
                let budget = node
                    .next_wakeup()
                    .map(|w| w.since(now(start)).to_std())
                    .unwrap_or(std::time::Duration::from_millis(50))
                    .min(std::time::Duration::from_millis(50));
                for d in shard.pump_recv(budget) {
                    node.on_datagram(now(start), d);
                }
            }
        })?;
        Ok(RuntimeNode {
            cmd_tx,
            event_rx,
            waker,
            handle: Some(handle),
        })
    }

    /// Enqueues a command (blocking briefly if the bounded queue is
    /// full — that is the backpressure) and pokes the driver's wake
    /// socket so a thread blocked in `ppoll` handles it immediately.
    fn send_cmd(&self, cmd: Cmd) -> Result<(), ()> {
        self.cmd_tx.send(cmd).map_err(|_| ())?;
        self.waker.wake();
        Ok(())
    }

    /// Queues a reliable atomic multicast; returns its origin sequence.
    pub fn multicast(
        &self,
        mode: DeliveryMode,
        payload: bytes::Bytes,
    ) -> raincore_types::Result<OriginSeq> {
        let (tx, rx) = bounded(1);
        self.send_cmd(Cmd::Multicast(mode, payload, tx))
            .map_err(|()| raincore_types::Error::ShutDown)?;
        rx.recv().map_err(|_| raincore_types::Error::ShutDown)?
    }

    /// Requests the master lock (granted via [`SessionEvent::MasterAcquired`]).
    pub fn request_master(&self) {
        let _ = self.send_cmd(Cmd::RequestMaster);
    }

    /// Releases the master lock.
    pub fn release_master(&self) {
        let _ = self.send_cmd(Cmd::ReleaseMaster);
    }

    /// Leaves the group gracefully and stops the thread.
    pub fn leave(&self) {
        let _ = self.send_cmd(Cmd::Leave);
    }

    /// Snapshots the node's observability state (Prometheus text, JSON
    /// metrics, trace journal, I/O engine counters) from the driver
    /// thread. `None` if the node has stopped.
    pub fn obs_dump(&self) -> Option<ObsDump> {
        let (tx, rx) = bounded(1);
        self.send_cmd(Cmd::ObsDump(tx)).ok()?;
        rx.recv().ok()
    }

    /// Receives the next session event, waiting up to `timeout`.
    ///
    /// An already-queued event is returned immediately — even with a zero
    /// timeout, and even after the driver thread has stopped (events sent
    /// before shutdown stay receivable). Only an *empty* queue waits.
    pub fn recv_event(&self, timeout: std::time::Duration) -> Option<SessionEvent> {
        match self.event_rx.try_recv() {
            Ok(ev) => Some(ev),
            Err(_) if timeout.is_zero() => None,
            Err(_) => self.event_rx.recv_timeout(timeout).ok(),
        }
    }

    /// Receives a pending session event without blocking.
    pub fn try_recv_event(&self) -> Option<SessionEvent> {
        self.event_rx.try_recv().ok()
    }

    /// True once the driver thread has exited (after a leave, a protocol
    /// shutdown, or a crash). Queued events may still be pending.
    pub fn is_finished(&self) -> bool {
        self.handle.as_ref().is_none_or(JoinHandle::is_finished)
    }
}

impl Drop for RuntimeNode {
    fn drop(&mut self) {
        // Best effort: ask the node to leave, then join.
        match self.cmd_tx.try_send(Cmd::Leave) {
            Ok(()) | Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {}
        }
        self.waker.wake();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raincore_net::Addr;
    use raincore_session::StartMode;
    use raincore_transport::PeerTable;
    use raincore_types::{Duration, Incarnation, NodeId, Ring, SessionConfig, TransportConfig};
    use std::collections::HashMap;
    use std::net::SocketAddr;

    fn loopback() -> SocketAddr {
        "127.0.0.1:0".parse().unwrap()
    }

    #[test]
    fn three_nodes_form_group_and_multicast_over_udp() {
        let n = 3u32;
        let ids: Vec<NodeId> = (0..n).map(NodeId).collect();
        // Bind all sockets first so every node can learn every address.
        let nets: Vec<UdpNet> = ids
            .iter()
            .map(|&id| UdpNet::bind(&[(Addr::primary(id), loopback())], HashMap::new()).unwrap())
            .collect();
        let saddrs: Vec<SocketAddr> = ids
            .iter()
            .zip(&nets)
            .map(|(&id, net)| net.local_socket_addr(Addr::primary(id)).unwrap())
            .collect();
        let ring = Ring::from_iter(ids.iter().copied());
        let mut cfg = SessionConfig::for_cluster(n);
        cfg.token_hold = Duration::from_millis(5);
        cfg.hungry_timeout = Duration::from_millis(500);
        let mut nodes = Vec::new();
        for (i, mut net) in nets.into_iter().enumerate() {
            for (j, &s) in saddrs.iter().enumerate() {
                if i != j {
                    net.add_peer(Addr::primary(ids[j]), s);
                }
            }
            let node = SessionNode::new(
                ids[i],
                Incarnation::FIRST,
                cfg.clone(),
                TransportConfig::default(),
                vec![Addr::primary(ids[i])],
                PeerTable::full_mesh(ids.iter().copied(), 1),
                StartMode::Founding(ring.clone()),
                Time::ZERO,
            )
            .unwrap();
            nodes.push(RuntimeNode::spawn(node, net).unwrap());
        }
        // Multicast from node 1 and expect delivery events on node 2.
        std::thread::sleep(std::time::Duration::from_millis(300));
        nodes[1]
            .multicast(DeliveryMode::Agreed, bytes::Bytes::from_static(b"over-udp"))
            .unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        let mut delivered = false;
        while std::time::Instant::now() < deadline && !delivered {
            if let Some(SessionEvent::Delivery(d)) =
                nodes[2].recv_event(std::time::Duration::from_millis(200))
            {
                assert_eq!(&d.payload[..], b"over-udp");
                assert_eq!(d.origin, NodeId(1));
                delivered = true;
            }
        }
        assert!(delivered, "multicast crossed real UDP sockets");
        // The running node can be snapshotted without stopping it.
        let dump = nodes[2].obs_dump().expect("obs dump");
        assert!(dump
            .prometheus
            .contains("raincore_session_tokens_received{node=\"2\"}"));
        assert!(dump
            .prometheus
            .contains("# TYPE raincore_token_rotation_ns histogram"));
        // Hold lateness is exported under the same name as in the sim.
        assert!(dump
            .prometheus
            .contains("raincore_token_hold_late_ns_count{node=\"2\"}"));
        assert!(dump.journal.contains("TOKEN_RX"), "{}", dump.journal);
        assert!(dump.json.contains("\"name\":\"raincore_transport_rtt_ns\""));
        assert!(dump.journal_json.starts_with('['));
        // Trace health and the causal hop pipeline are in the same dump:
        // overflow counter, per-stage latency, spans with real timings,
        // and the process-wide flight recorder naming the last hop.
        assert!(dump
            .prometheus
            .contains("raincore_trace_dropped_events{node=\"2\"} 0"));
        assert!(dump
            .prometheus
            .contains("raincore_hop_stage_ns_count{node=\"2\",stage=\"protocol\"}"));
        assert!(dump.journal.contains("HOP_SPAN"), "{}", dump.journal);
        assert!(
            dump.flight.contains("last hop before dump: circ="),
            "{}",
            dump.flight
        );
        // The batched I/O engine's instrumentation is in the same dump:
        // syscalls vs packets per direction, the batch-size histograms,
        // and the derived syscalls-per-packet gauge.
        assert!(dump
            .prometheus
            .contains("raincore_io_syscalls{node=\"2\",op=\"recv\"}"));
        assert!(dump
            .prometheus
            .contains("raincore_io_packets{node=\"2\",op=\"send\"}"));
        assert!(dump
            .prometheus
            .contains("raincore_io_batch_size_count{dir=\"recv\",node=\"2\"}"));
        assert!(dump
            .prometheus
            .contains("raincore_io_syscalls_per_packet_milli{node=\"2\"}"));
        assert!(dump.json.contains("\"name\":\"raincore_io_syscalls\""));
        for n in &nodes {
            n.leave();
        }
    }
}

#[cfg(test)]
mod master_lock_udp_tests {
    use super::*;
    use raincore_net::Addr;
    use raincore_session::StartMode;
    use raincore_transport::PeerTable;
    use raincore_types::{Duration, Incarnation, NodeId, Ring, SessionConfig, TransportConfig};
    use std::collections::HashMap;
    use std::net::SocketAddr;

    #[test]
    fn master_lock_round_trips_over_udp() {
        let loopback: SocketAddr = "127.0.0.1:0".parse().unwrap();
        let ids = [NodeId(0), NodeId(1)];
        let nets: Vec<UdpNet> = ids
            .iter()
            .map(|&id| UdpNet::bind(&[(Addr::primary(id), loopback)], HashMap::new()).unwrap())
            .collect();
        let saddrs: Vec<SocketAddr> = ids
            .iter()
            .zip(&nets)
            .map(|(&id, n)| n.local_socket_addr(Addr::primary(id)).unwrap())
            .collect();
        let ring = Ring::from([0, 1]);
        let mut cfg = SessionConfig::for_cluster(2);
        cfg.token_hold = Duration::from_millis(5);
        cfg.hungry_timeout = Duration::from_millis(500);
        let mut nodes = Vec::new();
        for (i, mut net) in nets.into_iter().enumerate() {
            let j = 1 - i;
            net.add_peer(Addr::primary(ids[j]), saddrs[j]);
            let node = SessionNode::new(
                ids[i],
                Incarnation::FIRST,
                cfg.clone(),
                TransportConfig::default(),
                vec![Addr::primary(ids[i])],
                PeerTable::full_mesh(ids, 1),
                StartMode::Founding(ring.clone()),
                Time::ZERO,
            )
            .unwrap();
            nodes.push(RuntimeNode::spawn(node, net).unwrap());
        }
        std::thread::sleep(std::time::Duration::from_millis(200));
        nodes[1].request_master();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        let mut acquired = false;
        while std::time::Instant::now() < deadline && !acquired {
            if let Some(SessionEvent::MasterAcquired) =
                nodes[1].recv_event(std::time::Duration::from_millis(100))
            {
                acquired = true;
            }
        }
        assert!(acquired, "master lock acquired over real UDP");
        nodes[1].release_master();
        let mut released = false;
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while std::time::Instant::now() < deadline && !released {
            if let Some(SessionEvent::MasterReleased) =
                nodes[1].recv_event(std::time::Duration::from_millis(100))
            {
                released = true;
            }
        }
        assert!(released);
        for n in &nodes {
            n.leave();
        }
    }
}
