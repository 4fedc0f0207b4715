//! The real-socket cluster every real workload runs on: three session
//! nodes over loopback UDP, 2 ms token hold, 512 B bulk threshold.

use bytes::Bytes;
use raincore::net::{Addr, UdpNet};
use raincore::runtime::RuntimeNode;
use raincore::session::{SessionEvent, SessionNode, StartMode};
use raincore::transport::PeerTable;
use raincore::types::{
    DeliveryMode, Duration, Incarnation, NodeId, OriginSeq, Ring, SessionConfig, Time,
    TransportConfig,
};
use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::time::Instant;

/// Cluster size.
pub const NODES: u32 = 3;
/// Payloads at or above this many bytes travel out of band.
pub const BULK_THRESHOLD: usize = 512;
/// How long set-up may wait for the warm-up multicast.
const WARM_UP_LIMIT: std::time::Duration = std::time::Duration::from_secs(10);

/// The session configuration of every node.
pub fn session_config() -> SessionConfig {
    let mut cfg = SessionConfig::for_cluster(NODES);
    cfg.token_hold = Duration::from_millis(2);
    cfg.bulk_threshold = BULK_THRESHOLD;
    cfg
}

/// Binds one loopback socket per node, tells every node every peer, and
/// builds the founding session nodes.
pub fn bind_nodes() -> std::io::Result<Vec<(SessionNode, UdpNet)>> {
    let ids: Vec<NodeId> = (0..NODES).map(NodeId).collect();
    let loopback: SocketAddr = ([127, 0, 0, 1], 0).into();
    let nets = ids
        .iter()
        .map(|&id| UdpNet::bind(&[(Addr::primary(id), loopback)], HashMap::new()))
        .collect::<std::io::Result<Vec<UdpNet>>>()?;
    let saddrs: Vec<SocketAddr> = ids
        .iter()
        .zip(&nets)
        .map(|(&id, net)| net.local_socket_addr(Addr::primary(id)))
        .collect::<Option<_>>()
        .ok_or_else(|| std::io::Error::other("socket not bound"))?;
    let ring = Ring::from_iter(ids.iter().copied());
    let cfg = session_config();
    let mut out = Vec::new();
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
        .map_err(|e| std::io::Error::other(format!("{e:?}")))?;
        out.push((node, net));
    }
    Ok(out)
}

/// Counters of one node, by name (see [`Counters::NAMES`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counters(pub BTreeMap<&'static str, u64>);

impl Counters {
    /// Every counter the benchmark reads.
    pub const NAMES: [&'static str; 14] = [
        "bulk_frames_sent",
        "bulk_nacks_sent",
        "bulk_duplicates",
        "tokens_received",
        "task_switches",
        "calls911_sent",
        "retransmissions",
        "duplicates_dropped",
        "packets_sent",
        "packets_recv",
        "syscalls_send",
        "syscalls_recv",
        "syscalls_poll",
        "send_dropped",
    ];

    /// Reads the counters straight off a node and its I/O engine.
    pub fn read(node: &SessionNode, io: &raincore::net::batch::IoMetrics) -> Counters {
        let m = node.metrics();
        let t = node.transport_stats();
        Counters(BTreeMap::from([
            ("bulk_frames_sent", m.bulk_frames_sent),
            ("bulk_nacks_sent", m.bulk_nacks_sent),
            ("bulk_duplicates", m.bulk_duplicates),
            ("tokens_received", m.tokens_received),
            ("task_switches", m.task_switches),
            ("calls911_sent", m.calls911_sent),
            ("retransmissions", t.retransmissions),
            ("duplicates_dropped", t.duplicates_dropped),
            ("packets_sent", io.packets_sent.get()),
            ("packets_recv", io.packets_recv.get()),
            ("syscalls_send", io.syscalls_send.get()),
            ("syscalls_recv", io.syscalls_recv.get()),
            ("syscalls_poll", io.syscalls_poll.get()),
            ("send_dropped", io.send_dropped.get()),
        ]))
    }

    /// Parses the counters out of a node's Prometheus dump.
    pub fn from_prometheus(text: &str) -> Counters {
        let mut c = Counters::default();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let Some((key, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let Ok(value) = value.parse::<u64>() else {
                continue;
            };
            let (name, labels) = key.split_once('{').unwrap_or((key, ""));
            let op = |o: &str| labels.contains(&format!("op=\"{o}\""));
            let field = match name {
                "raincore_io_syscalls" if op("send") => "syscalls_send",
                "raincore_io_syscalls" if op("recv") => "syscalls_recv",
                "raincore_io_syscalls" if op("poll") => "syscalls_poll",
                "raincore_io_packets" if op("send") => "packets_sent",
                "raincore_io_packets" if op("recv") => "packets_recv",
                "raincore_io_send_dropped" => "send_dropped",
                _ => {
                    let short = name
                        .strip_prefix("raincore_session_")
                        .or_else(|| name.strip_prefix("raincore_transport_"))
                        .unwrap_or("");
                    match Counters::NAMES.iter().find(|&&n| n == short) {
                        Some(n) => n,
                        None => continue,
                    }
                }
            };
            c.0.insert(field, value);
        }
        c
    }

    /// `later - self`, per counter.
    pub fn delta(&self, later: &Counters) -> Counters {
        Counters(
            Counters::NAMES
                .iter()
                .map(|&n| (n, later.get(n).saturating_sub(self.get(n))))
                .collect(),
        )
    }

    /// One counter (0 if absent).
    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }

    /// Sum over nodes.
    pub fn sum(all: &[Counters]) -> Counters {
        let mut s = Counters::default();
        for c in all {
            for &n in &Counters::NAMES {
                *s.0.entry(n).or_default() += c.get(n);
            }
        }
        s
    }
}

/// What the generator needs from a cluster member, whichever driver
/// runs it.
pub trait Member {
    /// Queues a multicast (see [`SessionNode::multicast`]).
    fn multicast(&self, mode: DeliveryMode, payload: Bytes) -> raincore::types::Result<OriginSeq>;
    /// The next pending event, without blocking.
    fn try_event(&self) -> Option<SessionEvent>;
    /// A snapshot of the node's counters.
    fn counters(&self) -> Option<Counters>;
}

impl Member for RuntimeNode {
    fn multicast(&self, mode: DeliveryMode, payload: Bytes) -> raincore::types::Result<OriginSeq> {
        RuntimeNode::multicast(self, mode, payload)
    }

    fn try_event(&self) -> Option<SessionEvent> {
        self.try_recv_event()
    }

    fn counters(&self) -> Option<Counters> {
        self.obs_dump()
            .map(|d| Counters::from_prometheus(&d.prometheus))
    }
}

/// A formed cluster and how long forming it took.
pub struct Formed<M> {
    /// The members, node `i` at index `i`.
    pub members: Vec<M>,
    /// Seconds from the first bind until a warm-up multicast from node 0
    /// had reached every member.
    pub setup_s: f64,
    /// The warm-up message's id.
    pub warm_up: (u32, u64),
}

/// Binds, spawns every node with `spawn`, and waits until a warm-up
/// multicast has reached every member.
pub fn form<M: Member>(
    spawn: impl Fn(SessionNode, UdpNet) -> std::io::Result<M>,
) -> Result<Formed<M>, String> {
    let t0 = Instant::now();
    let members: Vec<M> = bind_nodes()
        .and_then(|nodes| nodes.into_iter().map(|(n, net)| spawn(n, net)).collect())
        .map_err(|e| format!("cluster set-up failed: {e}"))?;
    let seq = members[0]
        .multicast(DeliveryMode::Agreed, Bytes::from_static(b"warm-up"))
        .map_err(|e| format!("warm-up multicast refused: {e:?}"))?;
    let mut reached = vec![false; members.len()];
    while !reached.iter().all(|&r| r) {
        if t0.elapsed() > WARM_UP_LIMIT {
            return Err("warm-up multicast did not reach every member".into());
        }
        for (i, m) in members.iter().enumerate() {
            while let Some(ev) = m.try_event() {
                if let SessionEvent::Delivery(d) = ev {
                    reached[i] |= d.origin == NodeId(0) && d.seq == seq;
                }
            }
        }
        std::thread::sleep(std::time::Duration::from_micros(100));
    }
    Ok(Formed {
        members,
        setup_s: t0.elapsed().as_secs_f64(),
        warm_up: (0, seq.0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_parse_from_a_prometheus_dump() {
        let dump = "\
# TYPE raincore_io_syscalls counter
raincore_io_syscalls{node=\"0\",op=\"send\"} 7
raincore_io_syscalls{node=\"0\",op=\"recv\"} 9
raincore_io_packets{node=\"0\",op=\"send\"} 40
raincore_session_bulk_frames_sent{node=\"0\"} 12
raincore_transport_retransmissions{node=\"0\"} 3
raincore_transport_rtt_ns_count{node=\"0\"} 99
raincore_status_eating{node=\"0\"} 1
";
        let c = Counters::from_prometheus(dump);
        assert_eq!(c.get("syscalls_send"), 7);
        assert_eq!(c.get("syscalls_recv"), 9);
        assert_eq!(c.get("packets_sent"), 40);
        assert_eq!(c.get("bulk_frames_sent"), 12);
        assert_eq!(c.get("retransmissions"), 3);
        assert_eq!(
            c.0.len(),
            5,
            "histograms and gauges are not counters: {c:?}"
        );
        let later = Counters::from_prometheus(&dump.replace("} 12", "} 20"));
        assert_eq!(c.delta(&later).get("bulk_frames_sent"), 8);
    }
}
