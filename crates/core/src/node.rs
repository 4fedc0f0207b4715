//! The Raincore session node: one instance per cluster member.
//!
//! [`SessionNode`] implements §2.2–2.7 of the paper as a sans-io state
//! machine over the Raincore Transport Service. A driver (the
//! deterministic simulator, or the threaded UDP runtime) feeds it
//! datagrams and time and drains datagrams and [`SessionEvent`]s.
//!
//! ## State machine
//!
//! A node is HUNGRY (no token), EATING (holds the token) or STARVING
//! (HUNGRY past the timeout — token suspected lost, 911 in progress).
//! Normal operation alternates HUNGRY ↔ EATING as the token circulates.
//!
//! ## Implementation notes beyond the paper's text
//!
//! The paper's proofs assume an accurate failure-on-delivery detector.
//! Over a real lossy network the detector can false-alarm *after the
//! target actually received the token* (all acknowledgements lost), which
//! would briefly create two tokens. Three rules restore convergence and
//! are documented here because they are load-bearing:
//!
//! * **Strictly-newer acceptance** — a node accepts a (non-TBM) token
//!   only if its sequence number exceeds `last_seen_seq`, the maximum of
//!   every sequence number this node has ever *received or sent*. The two
//!   tokens produced by a false alarm carry the same hop count, so
//!   whichever reaches a common node second is discarded and the ring
//!   converges back to one token.
//! * **911 compares copy seqs** — a 911 call carries the seq of the
//!   caller's last *received copy* (not `last_seen_seq`): regeneration
//!   must happen from the newest surviving copy so piggybacked multicast
//!   messages are not lost. Ties (both zero at bootstrap) break toward
//!   the lower node id.
//! * **Regeneration jumps the seq by copy+2** — the regenerated token
//!   must out-rank `last_seen_seq` on every live node, and a node that
//!   *sent* the lost token has `last_seen_seq = copy_seq + 1`.
//!
//! TBM (to-be-merged) tokens belong to a *different* group's numbering
//! and skip the staleness check entirely; the merge assigns the merged
//! token `max(seq_a, seq_b) + 1` so both sides accept it.

use crate::events::{Delivery, SessionEvent};
use crate::metrics::SessionMetrics;
use crate::obs::NodeObs;
use crate::typestate::{Role, TimerFired, VerdictOutcome, VoteProgress};
use bytes::Bytes;
use raincore_net::Addr;
use raincore_net::Datagram;
use raincore_obs::TraceKind;
use raincore_transport::dedup::DedupWindow;
use raincore_transport::{BulkDedup, BulkId, BulkStore, Endpoint, PeerTable, TransportEvent};
use raincore_types::config::DetectionMode;
use raincore_types::wire::{WireDecode, WireEncode};
use raincore_types::{
    Attached, AttachedBody, BodyOdor, BulkData, BulkNack, Call911, DeliveryMode, DigestInto, Error,
    GroupId, Incarnation, MsgId, NodeId, OriginSeq, Reply911, Result, Ring, SessionConfig,
    SessionMsg, StateDigest, Time, Token, TokenEncoder, TraceCtx, TransportConfig, Verdict911,
};
use std::collections::{BTreeSet, HashMap, VecDeque};

/// How a node enters the world.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StartMode {
    /// Start with a configured initial membership; the lowest id in the
    /// ring founds the token. This is how a cluster is normally booted.
    Founding(Ring),
    /// Start alone with no token and ask to join via the 911 protocol
    /// (§2.3): "When a new node wishes to participate in the membership,
    /// it sends a 911 message to any node in the group."
    Joining,
    /// Start as a singleton group holding its own token; rely on the
    /// discovery/merge protocol (§2.4) to coalesce with others.
    Isolated,
}

/// What an in-flight transport send was carrying, so completion and
/// failure notifications can be routed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SendKind {
    Token,
    Call911 { req_id: u64 },
    Reply,
    Beacon,
}

#[derive(Debug)]
struct Forwarding {
    msg_id: MsgId,
    token: Token,
}

#[derive(Debug)]
struct PendingDelivery {
    origin: NodeId,
    seq: OriginSeq,
    mode: DeliveryMode,
    /// The payload, once in hand. Inline (piggybacked) messages are born
    /// with it; out-of-band messages start at `None` and fill when the
    /// bulk frame arrives — a missing payload blocks delivery (and, at
    /// the queue front, everything behind it: dissemination is decoupled
    /// from ordering, delivery is not).
    payload: Option<Bytes>,
    /// Agreed messages are born ready; safe messages become ready when
    /// this node observes that every member has received them.
    ready: bool,
    /// Next NACK-pull deadline for a missing out-of-band payload.
    pull_at: Option<Time>,
    /// NACK pulls fired so far; rotates the pull target (origin first,
    /// then the other holders).
    pull_tries: u32,
    /// Members known to hold the payload (the manifest entry's seen set,
    /// which is payload-gated for out-of-band entries), refreshed at each
    /// token pass. Positional order is the ring traversal order.
    holders: Vec<NodeId>,
}

impl PendingDelivery {
    fn key(&self) -> BulkId {
        (self.origin, self.seq)
    }
}

/// The Raincore Distributed Session Service endpoint for one node.
///
/// See the crate documentation for the protocol description and the
/// module documentation for the state machine.
#[derive(Debug)]
pub struct SessionNode {
    id: NodeId,
    cfg: SessionConfig,
    transport: Endpoint,
    /// The typestate protocol core: HUNGRY/EATING/STARVING/DOWN. All
    /// state transitions go through [`crate::typestate`]'s typed edges.
    role: Role,
    /// Local view of the membership, refreshed from each token.
    ring: Ring,
    /// Local copy of the last received token (§2.3: "each node makes a
    /// local copy of the TOKEN after each time the node receives it").
    last_copy: Option<Token>,
    /// Max token seq ever received *or sent* — acceptance high-water mark.
    last_seen_seq: u64,
    /// Token currently in flight to a successor, until acknowledged.
    forwarding: Option<Forwarding>,
    /// Patch-per-hop token wire encoder: pooled scratch buffer + cached
    /// body, so quiescent hops re-encode only the seq header.
    codec: TokenEncoder,
    /// TBM token held while waiting for our own group's token (§2.4).
    held_tbm: Option<Token>,
    /// Node we should hand a TBM token to at the next pass (we saw its
    /// BODYODOR and its group id is lower than ours).
    merge_target: Option<NodeId>,
    /// Join requests (from 911s of non-members) to add at the next pass.
    pending_joins: Vec<NodeId>,
    /// Multicasts queued until we next hold the token.
    outgoing: VecDeque<(OriginSeq, DeliveryMode, Bytes)>,
    next_origin_seq: OriginSeq,
    /// Exactly-once delivery tracking per origin.
    delivered: HashMap<NodeId, DedupWindow>,
    /// Relay-side deduplication of open-group submissions (§2.6).
    open_dedup: HashMap<NodeId, DedupWindow>,
    /// Hold-back queue: messages seen but not yet delivered, in token
    /// order. The front blocks the rest until it is deliverable, which
    /// keeps the total order consistent across delivery modes.
    holdback: VecDeque<PendingDelivery>,
    /// Out-of-band payload cache (DESIGN.md §13): origin-side retransmit
    /// cache and receiver-side buffer for payloads that raced the token.
    bulk_store: BulkStore,
    /// Exactly-once acceptance of bulk frames by bulk id — retransmits
    /// travel under fresh wire ids, so the transport window cannot see
    /// them as duplicates.
    bulk_dedup: BulkDedup,
    /// Kind of every in-flight transport send.
    inflight: HashMap<MsgId, SendKind>,
    req_counter: u64,
    /// Round-robin index over `eligible` for join probes.
    join_probe_idx: usize,
    /// Join probes sent since we last held a token (total-copy-loss
    /// bootstrap counter, compared against `bootstrap_probe_limit`).
    unanswered_probes: u32,
    next_beacon: Time,
    master_requested: bool,
    master_held: bool,
    /// Critical resources (§2.4): name → up. Any `false` shuts the node
    /// down.
    resources: HashMap<String, bool>,
    events: VecDeque<SessionEvent>,
    metrics: SessionMetrics,
    obs: NodeObs,
}

impl SessionNode {
    /// Creates a session node.
    ///
    /// * `local_addrs` — this node's physical addresses (one per NIC).
    /// * `peers` — physical addresses of every node we may talk to
    ///   (normally the whole eligible membership).
    /// * `start` — see [`StartMode`].
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: NodeId,
        inc: Incarnation,
        cfg: SessionConfig,
        tcfg: TransportConfig,
        local_addrs: Vec<Addr>,
        peers: PeerTable,
        start: StartMode,
        now: Time,
    ) -> Result<Self> {
        cfg.validate().map_err(Error::Config)?;
        let transport = Endpoint::new(id, inc, local_addrs, peers, tcfg)?;
        let mut node = SessionNode {
            id,
            transport,
            role: Role::hungry(now),
            ring: Ring::from_iter([id]),
            last_copy: None,
            last_seen_seq: 0,
            forwarding: None,
            codec: TokenEncoder::new(),
            held_tbm: None,
            merge_target: None,
            pending_joins: Vec::new(),
            outgoing: VecDeque::new(),
            next_origin_seq: OriginSeq::default(),
            delivered: HashMap::new(),
            open_dedup: HashMap::new(),
            holdback: VecDeque::new(),
            bulk_store: BulkStore::new(cfg.bulk_cache_entries),
            bulk_dedup: BulkDedup::new(),
            inflight: HashMap::new(),
            req_counter: 0,
            join_probe_idx: 0,
            unanswered_probes: 0,
            next_beacon: now + cfg.beacon_period,
            master_requested: false,
            master_held: false,
            resources: HashMap::new(),
            events: VecDeque::new(),
            metrics: SessionMetrics::default(),
            obs: NodeObs::new(id.0, now),
            cfg,
        };
        match start {
            StartMode::Founding(ring) => {
                if !ring.contains(id) {
                    return Err(Error::Config("initial ring must contain the local node"));
                }
                node.ring = ring.clone();
                if ring.group_id() == Some(GroupId(id)) {
                    // Lowest id founds the token.
                    let token = Token::founding(ring);
                    node.last_seen_seq = token.seq;
                    node.last_copy = Some(token.clone());
                    node.become_eating(now, token);
                }
            }
            StartMode::Joining => {
                node.send_join_probe(now);
                let retry_at = now + node.cfg.starving_retry;
                node.role.begin_starving_probe(retry_at);
            }
            StartMode::Isolated => {
                let token = Token::founding(Ring::from_iter([id]));
                node.last_seen_seq = token.seq;
                node.last_copy = Some(token.clone());
                node.become_eating(now, token);
            }
        }
        Ok(node)
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The active configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.cfg
    }

    /// Local view of the group membership.
    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    /// This node's current group id (lowest member of its view).
    pub fn group_id(&self) -> GroupId {
        self.ring.group_id().unwrap_or(GroupId(self.id))
    }

    /// True while the node holds the token (EATING, §2.2).
    pub fn is_eating(&self) -> bool {
        self.role.is_eating()
    }

    /// True once the node has shut itself down.
    pub fn is_down(&self) -> bool {
        self.role.is_down()
    }

    /// Current state name, for traces and tests.
    pub fn state_name(&self) -> &'static str {
        self.role.name()
    }

    /// The typestate protocol core (read-only: state fingerprinting and
    /// assertions; all mutation goes through the session logic).
    pub fn role(&self) -> &Role {
        &self.role
    }

    /// Feeds every behavior-relevant piece of session state (and the
    /// embedded transport endpoint) into a model-checker state digest.
    ///
    /// `payload_digest` handles opaque wire bytes held inside the
    /// transport (see [`Endpoint::digest_into`]). Application multicast
    /// payloads (`outgoing`, `holdback`) are hashed raw — they are opaque
    /// to the protocol and never contain node ids. Deliberately excluded:
    /// `cfg` (constant), `codec` (a cache of already-digested token
    /// state), and `metrics`/`obs` (observability only). `join_probe_idx`
    /// is digested as a plain number: probe order over `cfg.eligible` is
    /// positional, so two id-permuted states with the same index probe
    /// the "same" slot — see DESIGN.md §12 for the soundness argument.
    pub fn digest_into(
        &self,
        now: Time,
        d: &mut StateDigest,
        payload_digest: &dyn Fn(&[u8], &mut StateDigest),
    ) {
        d.node(self.id);
        self.role.digest_into(d, now);
        self.ring.digest_into(d);
        match &self.last_copy {
            Some(t) => {
                d.write_bool(true);
                t.digest_into(d);
            }
            None => d.write_bool(false),
        }
        d.write_u64(self.last_seen_seq);
        match &self.forwarding {
            Some(f) => {
                d.write_bool(true);
                d.write_u64(f.msg_id.0);
                f.token.digest_into(d);
            }
            None => d.write_bool(false),
        }
        match &self.held_tbm {
            Some(t) => {
                d.write_bool(true);
                t.digest_into(d);
            }
            None => d.write_bool(false),
        }
        d.opt_node(self.merge_target);
        // Join order matters (it is the ring insertion order), so digest
        // the list positionally, not sorted.
        d.write_len(self.pending_joins.len());
        for &j in &self.pending_joins {
            d.node(j);
        }
        d.write_len(self.outgoing.len());
        for (seq, mode, payload) in &self.outgoing {
            seq.digest_into(d);
            d.tag(matches!(mode, DeliveryMode::Safe) as u8);
            d.write_bytes(payload);
        }
        self.next_origin_seq.digest_into(d);
        for (label, map) in [(0u8, &self.delivered), (1u8, &self.open_dedup)] {
            d.tag(label);
            let mut ids: Vec<NodeId> = map.keys().copied().collect();
            ids.sort_unstable_by(|a, b| d.canon_cmp(*a, *b));
            d.write_len(ids.len());
            for id in ids {
                d.node(id);
                map[&id].digest_into(d);
            }
        }
        d.write_len(self.holdback.len());
        for p in &self.holdback {
            d.node(p.origin);
            p.seq.digest_into(d);
            d.tag(matches!(p.mode, DeliveryMode::Safe) as u8);
            d.write_bool(p.ready);
            match &p.payload {
                Some(bytes) => {
                    d.write_bool(true);
                    d.write_bytes(bytes);
                }
                None => d.write_bool(false),
            }
            match p.pull_at {
                Some(t) => {
                    d.write_bool(true);
                    d.time_rel(t, now);
                }
                None => d.write_bool(false),
            }
            d.write_u32(p.pull_tries);
            // Holder order is the rotation order — positional.
            d.write_len(p.holders.len());
            for &h in &p.holders {
                d.node(h);
            }
        }
        // Buffered-bulk state: two states differing only in which
        // payloads are resident (or which bulk ids were accepted) behave
        // differently under loss and must not merge.
        self.bulk_store.digest_into(d);
        self.bulk_dedup.digest_into(d);
        let mut inflight: Vec<(MsgId, SendKind)> =
            self.inflight.iter().map(|(k, v)| (*k, *v)).collect();
        inflight.sort_unstable_by_key(|(k, _)| *k);
        d.write_len(inflight.len());
        for (msg_id, kind) in inflight {
            d.write_u64(msg_id.0);
            match kind {
                SendKind::Token => d.tag(0),
                SendKind::Call911 { req_id } => {
                    d.tag(1);
                    d.write_u64(req_id);
                }
                SendKind::Reply => d.tag(2),
                SendKind::Beacon => d.tag(3),
            }
        }
        d.write_u64(self.req_counter);
        d.write_len(self.join_probe_idx);
        d.write_u32(self.unanswered_probes);
        d.time_rel(self.next_beacon, now);
        d.write_bool(self.master_requested);
        d.write_bool(self.master_held);
        let mut resources: Vec<(&String, bool)> =
            self.resources.iter().map(|(k, v)| (k, *v)).collect();
        resources.sort_unstable_by_key(|(k, _)| *k);
        d.write_len(resources.len());
        for (name, up) in resources {
            d.write_bytes(name.as_bytes());
            d.write_bool(up);
        }
        // Undrained event queues must never let two different states
        // merge; drained (the normal case) this contributes a constant.
        d.write_len(self.events.len());
        self.transport.digest_into(now, d, payload_digest);
    }

    /// Sequence number of the last received token copy (0 = never).
    pub fn last_copy_seq(&self) -> u64 {
        self.last_copy.as_ref().map_or(0, |t| t.seq)
    }

    /// Counter snapshot.
    pub fn metrics(&self) -> SessionMetrics {
        self.metrics
    }

    /// Observability side-car: trace journal and latency histograms.
    pub fn obs(&self) -> &NodeObs {
        &self.obs
    }

    /// Mutable observability access (e.g. to push harness-level events
    /// into this node's trace journal).
    pub fn obs_mut(&mut self) -> &mut NodeObs {
        &mut self.obs
    }

    /// Transport-layer counter snapshot.
    pub fn transport_stats(&self) -> raincore_transport::TransportStats {
        self.transport.stats()
    }

    /// Transport-layer latency histograms (RTT, failure-on-delivery).
    pub fn transport_obs(&self) -> &raincore_transport::TransportObs {
        self.transport.obs()
    }

    /// Mutable access to the transport peer table — e.g. to register the
    /// addresses of a late joiner or of an external open-group client so
    /// it can be acknowledged (§2.6).
    pub fn transport_peers_mut(&mut self) -> &mut PeerTable {
        self.transport.peers_mut()
    }

    /// True if the master lock is currently held by this node.
    pub fn holds_master(&self) -> bool {
        self.master_held
    }

    // ------------------------------------------------------------------
    // Application API
    // ------------------------------------------------------------------

    /// Queues `payload` for reliable atomic multicast to the whole group
    /// with the requested consistency `mode` (§2.6). The message is
    /// attached to the token at the next pass. Returns the origin
    /// sequence number; [`SessionEvent::MulticastAtomic`] fires with the
    /// same number once every member has received the message.
    pub fn multicast(&mut self, mode: DeliveryMode, payload: Bytes) -> Result<OriginSeq> {
        if self.is_down() {
            return Err(Error::ShutDown);
        }
        if payload.len() > self.cfg.max_payload {
            return Err(Error::PayloadTooLarge {
                size: payload.len(),
                max: self.cfg.max_payload,
            });
        }
        let seq = self.next_origin_seq;
        self.next_origin_seq = seq.next();
        self.obs.submitted(seq, mode);
        self.outgoing.push_back((seq, mode, payload));
        Ok(seq)
    }

    /// Requests the master lock (§2.7). The lock is granted the next time
    /// this node holds the token ([`SessionEvent::MasterAcquired`]); the
    /// token is then *retained* — pausing the ring — until
    /// [`SessionNode::release_master`].
    pub fn request_master(&mut self) -> Result<()> {
        if self.is_down() {
            return Err(Error::ShutDown);
        }
        self.master_requested = true;
        if self.is_eating() && !self.master_held {
            self.master_held = true;
            self.events.push_back(SessionEvent::MasterAcquired);
        }
        Ok(())
    }

    /// Releases the master lock and immediately forwards the token.
    pub fn release_master(&mut self, now: Time) -> Result<()> {
        if !self.master_held {
            return Err(Error::InvalidLockOp("master lock not held"));
        }
        self.master_requested = false;
        self.master_held = false;
        self.events.push_back(SessionEvent::MasterReleased);
        if self.is_eating() {
            self.pass_token(now);
        }
        Ok(())
    }

    /// Declares a named critical resource (§2.4), initially up.
    pub fn add_critical_resource(&mut self, name: impl Into<String>) {
        self.resources.insert(name.into(), true);
    }

    /// Updates a critical resource's health. If any resource is down the
    /// node shuts itself down — the paper's split-brain prevention: only
    /// the partition that still reaches the shared resource survives.
    pub fn set_resource(&mut self, now: Time, name: &str, up: bool) {
        self.resources.insert(name.to_string(), up);
        if !up && !self.is_down() {
            self.shutdown(now, format!("critical resource '{name}' lost"));
        }
    }

    /// Voluntarily leaves the group and shuts down. If this node holds
    /// the token it removes itself from the membership and forwards the
    /// token so the ring continues without interruption.
    pub fn leave(&mut self, now: Time) {
        if !self.is_down() {
            self.shutdown(now, "voluntary leave".to_string());
        }
    }

    fn shutdown(&mut self, now: Time, reason: String) {
        if let Some(mut token) = self.role.shut_down() {
            token.ring.remove(self.id);
            if !token.ring.is_empty() {
                // Hand the token off cleanly before going dark: the first
                // member after our old ring position that is still in the
                // (self-removed) membership.
                token.seq += 1;
                token.trace.hop += 1;
                let next = self
                    .ring
                    .successors_of(self.id)
                    .into_iter()
                    .find(|n| token.ring.contains(*n));
                if let Some(next) = next {
                    let msg = self.encode_token(&token);
                    if let Ok(mid) = self.transport.send(now, next, msg) {
                        self.inflight.insert(mid, SendKind::Token);
                        self.metrics.tokens_sent += 1;
                    }
                }
            }
        }
        self.master_held = false;
        self.master_requested = false;
        self.obs.tick(now);
        self.obs.shut_down();
        self.events.push_back(SessionEvent::ShutDown { reason });
    }

    // ------------------------------------------------------------------
    // Driver interface (sans-io)
    // ------------------------------------------------------------------

    /// Feeds a received datagram into the node.
    pub fn on_datagram(&mut self, now: Time, dgram: Datagram) {
        if self.is_down() {
            return;
        }
        self.obs.tick(now);
        self.obs.hop_arrival(); // stage b0: datagram in hand
        self.transport.on_datagram(now, dgram);
        self.drain_transport(now);
    }

    /// Advances timers to `now`.
    pub fn on_tick(&mut self, now: Time) {
        if self.is_down() {
            return;
        }
        self.obs.tick(now);
        self.transport.on_tick(now);
        self.drain_transport(now);
        if self.is_down() {
            return;
        }

        match self
            .role
            .timer(now, self.cfg.hungry_timeout, self.master_held)
        {
            TimerFired::PassToken => self.pass_token(now),
            TimerFired::Starve => self.enter_starving(now),
            TimerFired::Retry911 => self.retry_starving(now),
            TimerFired::Idle => {}
        }

        self.fire_bulk_pulls(now);

        if now >= self.next_beacon {
            self.send_beacons(now);
            self.next_beacon = now + self.cfg.beacon_period;
        }
    }

    /// Earliest instant at which [`SessionNode::on_tick`] has work to do.
    pub fn next_wakeup(&self) -> Option<Time> {
        if self.is_down() {
            return None;
        }
        let mut earliest = self.transport.next_wakeup();
        let mut consider = |t: Time| {
            earliest = Some(earliest.map_or(t, |e: Time| e.min(t)));
        };
        if let Some(t) = self
            .role
            .next_deadline(self.cfg.hungry_timeout, self.master_held)
        {
            consider(t);
        }
        if self.has_absent_eligible() {
            consider(self.next_beacon);
        }
        for p in &self.holdback {
            if p.payload.is_none() {
                if let Some(t) = p.pull_at {
                    consider(t);
                }
            }
        }
        earliest
    }

    /// Drains one outgoing datagram, if any.
    pub fn poll_outgoing(&mut self) -> Option<Datagram> {
        self.transport.poll_outgoing()
    }

    /// Drains one application event, if any.
    pub fn poll_event(&mut self) -> Option<SessionEvent> {
        self.events.pop_front()
    }

    // ------------------------------------------------------------------
    // Transport event handling
    // ------------------------------------------------------------------

    fn drain_transport(&mut self, now: Time) {
        while let Some(ev) = self.transport.poll_event() {
            if self.is_down() {
                return;
            }
            match ev {
                TransportEvent::Received { from, payload } => {
                    self.obs.hop_payload(); // stage b1: about to decode
                    if let Ok(msg) = SessionMsg::decode_from_bytes(&payload) {
                        self.metrics.task_switches += 1;
                        self.on_session_msg(now, from, msg);
                    }
                }
                TransportEvent::Delivered { msg_id, .. } => {
                    self.inflight.remove(&msg_id);
                    if self.forwarding.as_ref().is_some_and(|f| f.msg_id == msg_id) {
                        self.forwarding = None;
                    }
                }
                TransportEvent::DeliveryFailed { msg_id, to } => {
                    let kind = self.inflight.remove(&msg_id);
                    self.on_delivery_failed(now, msg_id, to, kind);
                }
            }
        }
    }

    fn on_session_msg(&mut self, now: Time, from: NodeId, msg: SessionMsg) {
        match msg {
            SessionMsg::Token(t) => self.on_token(now, t),
            SessionMsg::Call911(c) => self.on_call911(now, from, c),
            SessionMsg::Reply911(r) => self.on_reply911(now, r),
            SessionMsg::BodyOdor(b) => self.on_beacon(b),
            SessionMsg::Open(o) => self.on_open(o),
            SessionMsg::Bulk(b) => self.on_bulk(b),
            SessionMsg::BulkNack(n) => self.on_bulk_nack(now, n),
        }
    }

    // ------------------------------------------------------------------
    // Out-of-band bulk dissemination (DESIGN.md §13)
    // ------------------------------------------------------------------

    /// A bulk payload frame arrived (original send or a NACK answer).
    /// Buffer it and fill any hold-back entry waiting on this id.
    fn on_bulk(&mut self, b: BulkData) {
        self.metrics.bulk_frames_received += 1;
        let key = (b.origin, b.seq);
        let fresh = self.bulk_dedup.insert(b.origin, b.seq);
        if !fresh {
            self.metrics.bulk_duplicates += 1;
            // A duplicate can still plug a hole: the first copy may have
            // been evicted from the bounded store before the manifest
            // ordered it — the NACK pull re-requests exactly this id.
            let waiting = self
                .holdback
                .iter()
                .any(|p| p.key() == key && p.payload.is_none());
            if !waiting {
                return;
            }
        }
        if self
            .delivered
            .get(&b.origin)
            .is_some_and(|w| w.contains(MsgId(b.seq.0)))
        {
            return; // late retransmit of an already-delivered payload
        }
        self.bulk_store.insert(key, b.payload.clone());
        let mut filled = false;
        for p in self.holdback.iter_mut() {
            if p.key() == key && p.payload.is_none() {
                p.payload = Some(b.payload.clone());
                p.pull_at = None;
                filled = true;
            }
        }
        if filled {
            self.drain_holdback();
        }
    }

    /// A member is missing a bulk payload we may hold: answer from the
    /// store, best-effort. Any holder may serve the pull — the requester
    /// rotates targets, so the origin being dead does not strand it.
    fn on_bulk_nack(&mut self, now: Time, n: BulkNack) {
        let key = (n.origin, n.seq);
        if let Some(payload) = self.bulk_store.get(key).cloned() {
            let msg = SessionMsg::Bulk(BulkData {
                origin: n.origin,
                seq: n.seq,
                payload,
            })
            .encode_to_bytes();
            if self.transport.send_unreliable(now, n.from, msg).is_ok() {
                self.metrics.bulk_nacks_served += 1;
            }
        }
    }

    /// Unicasts the payload frame for a newly attached out-of-band
    /// multicast to every other member. Fire-and-forget: a lost frame is
    /// recovered by the receiver's NACK pull, never by the transport's
    /// failure-on-delivery detector (bulk loss must not look like a
    /// member failure).
    fn send_bulk_frames(&mut self, now: Time, ring: &Ring, seq: OriginSeq, payload: &Bytes) {
        let msg = SessionMsg::Bulk(BulkData {
            origin: self.id,
            seq,
            payload: payload.clone(),
        })
        .encode_to_bytes();
        for member in ring.iter().filter(|&m| m != self.id) {
            if self
                .transport
                .send_unreliable(now, member, msg.clone())
                .is_ok()
            {
                self.metrics.bulk_frames_sent += 1;
            }
        }
    }

    /// Fires NACK pulls for hold-back entries whose out-of-band payload
    /// is overdue, rotating the target: the origin first (it release-gates
    /// its copy on retirement), then the other members the manifest shows
    /// as holders.
    fn fire_bulk_pulls(&mut self, now: Time) {
        let mut pulls: Vec<(NodeId, BulkNack)> = Vec::new();
        let me = self.id;
        let period = self.cfg.bulk_pull_timeout;
        for p in self.holdback.iter_mut() {
            if p.payload.is_some() {
                continue;
            }
            let Some(at) = p.pull_at else { continue };
            if now < at {
                continue;
            }
            let mut candidates: Vec<NodeId> = vec![p.origin];
            candidates.extend(
                p.holders
                    .iter()
                    .copied()
                    .filter(|&h| h != me && h != p.origin),
            );
            let target = candidates[(p.pull_tries as usize) % candidates.len()];
            p.pull_tries = p.pull_tries.wrapping_add(1);
            p.pull_at = Some(now + period);
            pulls.push((
                target,
                BulkNack {
                    from: me,
                    origin: p.origin,
                    seq: p.seq,
                },
            ));
        }
        for (to, n) in pulls {
            let bytes = SessionMsg::BulkNack(n).encode_to_bytes();
            if self.transport.send_unreliable(now, to, bytes).is_ok() {
                self.metrics.bulk_nacks_sent += 1;
            }
        }
    }

    /// Open group communication (§2.6): a non-member handed us a message
    /// to forward to the whole group. Deduplicate per (sender, seq) —
    /// the external client may retry toward us — and multicast the
    /// payload in an envelope that preserves the external origin.
    fn on_open(&mut self, o: raincore_types::messages::OpenSubmit) {
        if !self.ring.contains(self.id) {
            return;
        }
        let fresh = self
            .open_dedup
            .entry(o.from)
            .or_default()
            .insert(MsgId(o.seq.0));
        if !fresh {
            return;
        }
        let envelope = crate::open::wrap_open(o.from, o.seq, &o.payload);
        if self.multicast(DeliveryMode::Agreed, envelope).is_ok() {
            self.metrics.open_relayed += 1;
        }
    }

    fn on_delivery_failed(&mut self, now: Time, msg_id: MsgId, to: NodeId, kind: Option<SendKind>) {
        match kind {
            Some(SendKind::Token) => {
                self.metrics.failures_detected += 1;
                self.obs.tick(now);
                self.obs.trace(TraceKind::PeerFailed { peer: to.0 });
                let aggressive = self.cfg.detection == DetectionMode::Aggressive;
                match self.forwarding.take() {
                    Some(mut f) if f.msg_id == msg_id => {
                        // The pass we are blocked on failed: skip the dead
                        // successor and hand the token onward (§2.2).
                        if aggressive {
                            f.token.ring.remove(to);
                            self.remove_member_locally(to);
                        }
                        self.resend_token(now, f.token, to);
                    }
                    other => {
                        self.forwarding = other;
                        if aggressive {
                            // A stale pass failed after we already moved on:
                            // still treat it as a failure detection of `to`.
                            self.remove_member_locally(to);
                            self.role.remove_from_held(to);
                        }
                    }
                }
            }
            Some(SendKind::Call911 { .. }) => {
                // A 911 voter is unreachable. Failure-on-delivery is a
                // failure detection of the *target* (§2.2) no matter
                // which request carried it — the starving-retry period
                // can be shorter than the transport's detection time, so
                // the notification may belong to an earlier call and must
                // still count against the current vote.
                self.obs.tick(now);
                self.obs.trace(TraceKind::PeerFailed { peer: to.0 });
                if self.cfg.detection == DetectionMode::Aggressive {
                    self.remove_member_locally(to);
                }
                match self.role.vote_peer_failed(to) {
                    VoteProgress::NotVoting => {}
                    VoteProgress::Recorded {
                        was_awaiting,
                        vote_complete,
                    } => {
                        if was_awaiting {
                            // The vote proceeds without the dead voter.
                            self.metrics.retransmissions_acted += 1;
                        }
                        if vote_complete {
                            self.regenerate(now);
                        }
                    }
                }
            }
            Some(SendKind::Reply) | Some(SendKind::Beacon) | None => {
                // Verdicts and beacons are best-effort.
            }
        }
    }

    // ------------------------------------------------------------------
    // Token handling
    // ------------------------------------------------------------------

    fn on_token(&mut self, now: Time, t: Token) {
        self.obs.hop_decoded(); // stage b2: the payload was a token
        if t.tbm {
            self.on_tbm_token(now, t);
            return;
        }
        if t.seq <= self.last_seen_seq {
            // Duplicate-token elimination (see module docs).
            self.metrics.stale_tokens_dropped += 1;
            self.obs.trace(TraceKind::TokenStale {
                seq: t.seq,
                newest: self.last_seen_seq,
            });
            return;
        }
        if !t.ring.contains(self.id) {
            // We are not in this membership (we were excluded and the 911
            // rejoin has not completed). Do not touch the token.
            self.metrics.stale_tokens_dropped += 1;
            self.obs.trace(TraceKind::TokenStale {
                seq: t.seq,
                newest: self.last_seen_seq,
            });
            return;
        }
        self.last_seen_seq = t.seq;
        self.last_copy = Some(t.clone());
        // If two tokens converged on us (false-alarm fork), absorb: keep
        // the newer ring, preserve any messages only the old one had.
        let mut t = t;
        self.role.absorb_fork(&mut t);
        self.become_eating(now, t);
    }

    fn on_tbm_token(&mut self, now: Time, mut t: Token) {
        if let Some(ours) = self.role.take_token(now) {
            // Our own token is in hand: merge right away.
            let merged = self.merge_tokens(ours, t);
            self.last_copy = Some(merged.clone());
            self.last_seen_seq = merged.seq;
            self.become_eating(now, merged);
        } else if self.last_copy.is_none() {
            // We never had a token of our own (fresh joiner): the TBM
            // token simply becomes ours.
            t.tbm = false;
            t.seq += 1;
            t.trace.hop += 1;
            self.last_seen_seq = t.seq;
            self.last_copy = Some(t.clone());
            self.metrics.merges += 1;
            self.become_eating(now, t);
        } else {
            // Hold it until our own group's token arrives (§2.4).
            self.held_tbm = Some(t);
        }
    }

    /// Merges our token with a held TBM token (§2.4): union membership,
    /// concatenate multicast messages, out-rank both sequence numbers.
    fn merge_tokens(&mut self, mut ours: Token, mut other: Token) -> Token {
        // The absorbed group is the other token's membership *without* us
        // (a TBM token already contains the node it was handed to).
        let absorbed = other
            .ring
            .iter()
            .filter(|&n| n != self.id)
            .min()
            .map(GroupId)
            .unwrap_or(GroupId(self.id));
        for m in other.msgs.take_all() {
            if !ours.msgs.iter().any(|x| x.key() == m.key()) {
                ours.msgs.push(m);
            }
        }
        ours.ring.merge(&other.ring);
        // A merge ends both lineages and mints a fresh circulation whose
        // causal parent is whichever lineage had progressed furthest.
        let parent_ctx = if other.trace.hop > ours.trace.hop {
            other.trace
        } else {
            ours.trace
        };
        ours.seq = ours.seq.max(other.seq) + 1;
        ours.trace = TraceCtx::mint(self.id, ours.seq, parent_ctx.hop);
        self.obs.hop_minted(parent_ctx, ours.trace);
        ours.tbm = false;
        self.metrics.merges += 1;
        self.obs.trace(TraceKind::Merged {
            absorbed_group: absorbed.0 .0,
        });
        self.events.push_back(SessionEvent::Merged { absorbed });
        ours
    }

    /// Accepts `token` and enters EATING: refresh membership, process
    /// piggybacked messages, grant a pending master request.
    fn become_eating(&mut self, now: Time, mut token: Token) {
        self.obs.tick(now);
        self.unanswered_probes = 0;
        if let Some(tbm) = self.held_tbm.take() {
            token = self.merge_tokens(token, tbm);
            self.last_copy = Some(token.clone());
            self.last_seen_seq = token.seq;
        }
        let hungry_since = self.role.hungry_since();
        let hop = token.ring.iter().position(|n| n == self.id).unwrap_or(0) as u64;
        self.obs
            .token_accepted(token.seq, hop, token.ring.len() as u64, hungry_since);
        self.obs.hop_accepted(token.trace); // stage b3: protocol accepted
        self.sync_membership(&token.ring);
        self.process_attachments(now, &mut token);
        self.metrics.tokens_received += 1;
        let deadline = now + self.cfg.token_hold;
        self.role.accept_token(token, deadline);
        if self.master_requested && !self.master_held {
            self.master_held = true;
            self.events.push_back(SessionEvent::MasterAcquired);
        }
    }

    /// Marks, buffers, delivers and retires piggybacked multicast
    /// messages (§2.6).
    ///
    /// Delivery order is the *token order*: messages enter a local
    /// hold-back queue the first time they are seen (the token's message
    /// list is append-only modulo retirement, so every member buffers
    /// them in the same global order), and the queue drains strictly from
    /// the front. A safe message that is not yet known to be received by
    /// everyone blocks everything queued behind it — this is what makes
    /// the total order hold *across* delivery modes, exactly as "the
    /// message ordering on the token decides the message ordering on each
    /// of the nodes".
    fn process_attachments(&mut self, now: Time, token: &mut Token) {
        let ring = token.ring.clone();
        for m in token.msgs.iter_mut() {
            // Payload-gated acknowledgement (DESIGN.md §13): an
            // out-of-band entry is marked seen only once its payload is
            // actually in hand, so `seen_by_all` certifies every member
            // can deliver — the stability watermark that makes retirement
            // (and the origin dropping its retransmit cache) safe without
            // any new wire state.
            let have_payload = match &m.body {
                AttachedBody::Inline(_) => true,
                AttachedBody::Oob { .. } => {
                    self.bulk_store.contains(m.key())
                        || self
                            .delivered
                            .get(&m.origin)
                            .is_some_and(|w| w.contains(MsgId(m.seq.0)))
                        || self
                            .holdback
                            .iter()
                            .any(|p| p.key() == m.key() && p.payload.is_some())
                }
            };
            if have_payload {
                m.mark_seen(self.id);
            }
            self.buffer_message(now, m);
            if let Some(p) = self.holdback.iter_mut().find(|p| p.key() == m.key()) {
                // Refresh the holder snapshot for NACK-pull rotation.
                p.holders.clone_from(&m.seen);
            }
            if m.mode == DeliveryMode::Safe && m.seen_by_all(&ring) {
                // Every member has it: deliverable (§2.6's extra round).
                m.mark_confirmed(self.id);
                if let Some(p) = self.holdback.iter_mut().find(|p| p.key() == m.key()) {
                    p.ready = true;
                }
            }
        }
        self.drain_holdback();
        // Retire completed messages. The *originator* retires its own
        // (and emits the atomicity confirmation); anyone may retire a
        // message whose originator has left the membership.
        let mut retired: Vec<OriginSeq> = Vec::new();
        let my_id = self.id;
        token.msgs.retain(|m| {
            let done = match m.mode {
                DeliveryMode::Agreed => m.seen_by_all(&ring),
                DeliveryMode::Safe => m.confirmed_by_all(&ring),
            };
            let responsible = m.origin == my_id || !ring.contains(m.origin);
            if done && responsible {
                if m.origin == my_id {
                    retired.push(m.seq);
                }
                false
            } else {
                true
            }
        });
        for seq in retired {
            self.obs.own_atomic(seq);
            self.events.push_back(SessionEvent::MulticastAtomic { seq });
        }
        // Release bulk payloads whose manifest entries have retired: an
        // entry retires only once every member marked it seen, and an
        // out-of-band entry is marked seen only with the payload in hand,
        // so no member can still need to pull it.
        let on_token: BTreeSet<BulkId> = token
            .msgs
            .iter()
            .filter(|m| m.is_oob())
            .map(|m| m.key())
            .collect();
        let resident: Vec<BulkId> = self.bulk_store.keys().collect();
        for k in resident {
            let delivered = self
                .delivered
                .get(&k.0)
                .is_some_and(|w| w.contains(MsgId(k.1 .0)));
            if delivered && !on_token.contains(&k) {
                self.bulk_store.remove(k);
            }
        }
    }

    /// Adds a newly seen message to the hold-back queue (idempotent).
    fn buffer_message(&mut self, now: Time, m: &Attached) {
        let key = m.key();
        let already_delivered = self
            .delivered
            .get(&m.origin)
            .is_some_and(|w| w.contains(MsgId(m.seq.0)));
        if already_delivered || self.holdback.iter().any(|p| p.key() == key) {
            return;
        }
        if m.mode == DeliveryMode::Safe {
            self.metrics.safe_held_back += 1;
            self.obs.trace(TraceKind::SafeHeld {
                origin: m.origin.0,
                seq: m.seq.0,
            });
        }
        // Two-phase delivery: inline entries carry their payload on the
        // token; an out-of-band id is deliverable only once the bulk
        // frame (which races the token) is in hand, with the NACK pull
        // timer as the loss backstop.
        let (payload, pull_at) = match m.inline_payload() {
            Some(p) => (Some(p.clone()), None),
            None => match self.bulk_store.get(key).cloned() {
                Some(p) => (Some(p), None),
                None => (None, Some(now + self.cfg.bulk_pull_timeout)),
            },
        };
        self.holdback.push_back(PendingDelivery {
            origin: m.origin,
            seq: m.seq,
            mode: m.mode,
            payload,
            ready: m.mode == DeliveryMode::Agreed,
            pull_at,
            pull_tries: 0,
            holders: m.seen.clone(),
        });
    }

    /// Delivers the ready prefix of the hold-back queue, in token order.
    /// "Ready" means ordered (agreed, or safe-confirmed) *and* the
    /// payload is in hand — unless the `bulk_blind_delivery` fault dial
    /// is set, which deliberately re-opens the dropped-payload /
    /// delivered-id gap so the model checker can demonstrate it.
    fn drain_holdback(&mut self) {
        let blind = self.cfg.bulk_blind_delivery;
        while self
            .holdback
            .front()
            .is_some_and(|front| front.ready && (front.payload.is_some() || blind))
        {
            let Some(p) = self.holdback.pop_front() else {
                return;
            };
            let fresh = self
                .delivered
                .entry(p.origin)
                .or_default()
                .insert(MsgId(p.seq.0));
            if fresh {
                self.metrics.deliveries += 1;
                self.obs.trace(TraceKind::Delivered {
                    origin: p.origin.0,
                    seq: p.seq.0,
                    safe: p.mode == DeliveryMode::Safe,
                });
                if p.origin == self.id {
                    self.obs.own_delivered(p.seq);
                }
                self.events.push_back(SessionEvent::Delivery(Delivery {
                    origin: p.origin,
                    seq: p.seq,
                    mode: p.mode,
                    payload: p.payload.unwrap_or_default(),
                }));
            }
        }
    }

    /// Forwards the token to the next member: attach queued multicasts,
    /// admit pending joiners, hand off a TBM token if a merge is due.
    fn pass_token(&mut self, now: Time) {
        let hold_deadline = self.role.hold_deadline();
        let Some(mut token) = self.role.take_token(now) else {
            return;
        };
        if let Some(deadline) = hold_deadline {
            self.obs.hold_late.record(now.since(deadline).as_nanos());
        }
        // Stage b3': pass-side work begins. The EATING hold between b3
        // and here is deliberately not a stage — it measures the
        // application's token-hold budget, not the pipeline.
        self.obs.hop_pass_begin();

        // Attach queued multicasts at the latest possible moment. The
        // attach position *is* the message's place in the agreed total
        // order; the originator buffers its own message here and delivers
        // it through the same hold-back discipline as everyone else (so
        // an earlier not-yet-safe message still blocks it). The token has
        // bounded capacity: what does not fit waits for a later pass
        // (backpressure that keeps hop latency bounded under bursts).
        let mut attached_any = false;
        while token.msgs.len() < self.cfg.max_attached {
            let Some((seq, mode, payload)) = self.outgoing.pop_front() else {
                break;
            };
            // Size-threshold dial (DESIGN.md §13): payloads at or above
            // `bulk_threshold` are disseminated out-of-band — the token
            // carries only the id manifest while the payload is unicast
            // to every member and cached for NACK retransmission until
            // the manifest entry retires. Small payloads keep riding the
            // token (piggyback fallback).
            let a = if self.cfg.bulk_threshold > 0 && payload.len() >= self.cfg.bulk_threshold {
                self.bulk_store.insert((self.id, seq), payload.clone());
                self.send_bulk_frames(now, &token.ring, seq, &payload);
                Attached::new_oob(self.id, seq, mode, payload.len() as u64)
            } else {
                Attached::new(self.id, seq, mode, payload)
            };
            self.buffer_message(now, &a);
            token.msgs.push(a);
            self.metrics.multicasts_sent += 1;
            attached_any = true;
        }
        if attached_any {
            self.drain_holdback();
        }

        // Admit joiners right after ourselves so the token reaches them
        // immediately (§2.3: "it then sends the TOKEN to the new node").
        let joins: Vec<NodeId> = std::mem::take(&mut self.pending_joins);
        for j in joins {
            if j != self.id {
                token.ring.insert_after(self.id, j);
            }
        }

        // Merge handoff (§2.4): add the BODYODOR sender, flag the token
        // TBM, and send it to that node instead of our normal successor.
        if let Some(target) = self.merge_target.take() {
            if !token.ring.contains(target) {
                token.ring.insert_after(self.id, target);
                token.tbm = true;
                token.seq += 1;
                token.trace.hop += 1;
                self.last_seen_seq = self.last_seen_seq.max(token.seq);
                self.sync_membership(&token.ring);
                self.obs.trace(TraceKind::MergeHandoff { to: target.0 });
                self.send_token(now, token, target);
                return;
            }
        }

        self.sync_membership(&token.ring);
        token.seq += 1;
        token.trace.hop += 1;
        self.last_seen_seq = self.last_seen_seq.max(token.seq);
        let next = token.ring.next_after(self.id).unwrap_or(self.id);
        if next == self.id {
            // Singleton ring: the pass is a self-pass.
            self.metrics.self_passes += 1;
            self.last_copy = Some(token.clone());
            self.become_eating(now, token);
        } else {
            self.send_token(now, token, next);
        }
    }

    /// Encodes the token wire image via the patch-per-hop codec,
    /// recording the encode size and body-cache counters.
    fn encode_token(&mut self, token: &Token) -> Bytes {
        let bytes = self.codec.encode(token);
        self.metrics.token_body_cache_hits = self.codec.cache_hits();
        self.metrics.token_body_cache_misses = self.codec.cache_misses();
        self.obs.token_encode_bytes.record(bytes.len() as u64);
        self.obs.hop_encoded(); // stage b4: wire image ready
        bytes
    }

    fn send_token(&mut self, now: Time, token: Token, to: NodeId) {
        // Refresh our local copy with the outgoing token: it carries the
        // multicasts we just attached, and if the receiver dies with the
        // only post-attach copy, regeneration must not lose them. One
        // snapshot feeds both the copy (a CoW share) and the wire image
        // (patch-per-hop encoder), so a quiescent hop allocates only the
        // output buffer.
        let bytes = self.encode_token(&token);
        self.last_copy = Some(token.clone());
        match self.transport.send(now, to, bytes) {
            Ok(msg_id) => {
                self.obs.trace(TraceKind::TokenTx {
                    seq: token.seq,
                    to: to.0,
                });
                // Stage b5: the hop is complete — emit its span under the
                // outgoing header (hop seq as sent).
                self.obs.hop_sent(token.trace);
                self.inflight.insert(msg_id, SendKind::Token);
                self.forwarding = Some(Forwarding { msg_id, token });
                self.metrics.tokens_sent += 1;
                self.role.rearm_hungry(now);
            }
            Err(_) => {
                // No transport addresses for the successor: treat exactly
                // like an immediate failure-on-delivery.
                self.metrics.failures_detected += 1;
                let mut token = token;
                if self.cfg.detection == DetectionMode::Aggressive {
                    token.ring.remove(to);
                    self.remove_member_locally(to);
                }
                self.resend_token(now, token, to);
            }
        }
    }

    /// Re-sends the token after a failed pass, walking successors.
    fn resend_token(&mut self, now: Time, mut token: Token, failed: NodeId) {
        self.metrics.retransmissions_acted += 1;
        // If the failed pass was a TBM handoff the merge is aborted: the
        // token must not reach a normal successor still flagged TBM.
        token.tbm = false;
        let next = if self.cfg.detection == DetectionMode::Aggressive {
            token.ring.next_after(self.id)
        } else {
            // Timeout-only mode keeps the dead member in the ring and
            // merely skips it for this pass.
            self.ring
                .successors_of(self.id)
                .into_iter()
                .find(|&n| n != failed && token.ring.contains(n))
        };
        match next {
            Some(n) if n != self.id => self.send_token(now, token, n),
            _ => {
                // Nobody else reachable. Under aggressive detection we
                // are now a singleton group; under timeout-only we keep
                // the membership and retry on the next pass.
                if self.cfg.detection == DetectionMode::Aggressive {
                    token.ring = Ring::from_iter([self.id]);
                }
                self.sync_membership(&token.ring);
                self.last_copy = Some(token.clone());
                self.become_eating(now, token);
            }
        }
    }

    fn remove_member_locally(&mut self, node: NodeId) {
        if self.ring.remove(node) {
            let ring = self.ring.clone();
            self.obs
                .member_changed(self.obs.last_trace(), node.0, false);
            self.events.push_back(SessionEvent::MembershipChanged {
                ring,
                added: Vec::new(),
                removed: vec![node],
            });
        }
        if let Some(copy) = &mut self.last_copy {
            copy.ring.remove(node);
        }
    }

    fn sync_membership(&mut self, new_ring: &Ring) {
        if self.ring == *new_ring {
            return;
        }
        let added: Vec<NodeId> = new_ring
            .iter()
            .filter(|n| !self.ring.contains(*n))
            .collect();
        let removed: Vec<NodeId> = self
            .ring
            .iter()
            .filter(|n| !new_ring.contains(*n))
            .collect();
        self.ring = new_ring.clone();
        if added.is_empty() && removed.is_empty() {
            return; // same members, new order — not an application-visible change
        }
        let ctx = self.obs.last_trace();
        for n in &added {
            self.obs.member_changed(ctx, n.0, true);
        }
        for n in &removed {
            self.obs.member_changed(ctx, n.0, false);
        }
        self.events.push_back(SessionEvent::MembershipChanged {
            ring: new_ring.clone(),
            added,
            removed,
        });
    }

    // ------------------------------------------------------------------
    // 911: token recovery and join (§2.3)
    // ------------------------------------------------------------------

    fn enter_starving(&mut self, now: Time) {
        self.events.push_back(SessionEvent::Starving);
        self.obs.tick(now);
        self.obs.starving();
        if self.ring.len() <= 1 {
            // No membership to poll: probe the eligible list for a group
            // to join. If a whole round-robin sweep (and then some) of
            // probes has gone unanswered and we hold no token copy, every
            // copy in the cluster may be gone — e.g. all copy holders
            // crashed while this node was down. No 911 vote can
            // regenerate what nobody remembers, so found a fresh
            // singleton group instead, exactly like
            // [`StartMode::Isolated`]; survivors that bootstrapped
            // concurrently are glued back together by discovery and
            // merge (§2.4).
            let limit = self.cfg.bootstrap_probe_limit;
            if limit > 0 && self.unanswered_probes >= limit && self.last_copy.is_none() {
                self.metrics.bootstrap_foundings += 1;
                let token = Token::founding(Ring::from_iter([self.id]));
                self.last_seen_seq = token.seq;
                self.last_copy = Some(token.clone());
                self.become_eating(now, token);
                return;
            }
            self.send_join_probe(now);
            let retry_at = now + self.cfg.starving_retry;
            self.role.begin_starving_probe(retry_at);
            return;
        }
        self.req_counter += 1;
        let req_id = self.req_counter;
        let call = Call911 {
            from: self.id,
            last_token_seq: self.last_copy_seq(),
            req_id,
        };
        let bytes = SessionMsg::Call911(call).encode_to_bytes();
        let mut awaiting = BTreeSet::new();
        for member in self.ring.iter().filter(|&m| m != self.id) {
            match self.transport.send(now, member, bytes.clone()) {
                Ok(mid) => {
                    self.inflight.insert(mid, SendKind::Call911 { req_id });
                    awaiting.insert(member);
                    self.metrics.calls911_sent += 1;
                }
                Err(_) => {
                    // Unknown address: cannot vote, exclude.
                }
            }
        }
        self.obs.trace(TraceKind::Call911Tx {
            req_id,
            last_seq: self.last_copy_seq(),
            polled: awaiting.len() as u64,
        });
        self.obs.called_911(req_id, self.last_copy_seq());
        let retry_at = now + self.cfg.starving_retry;
        let empty = awaiting.is_empty();
        self.role.begin_starving_vote(req_id, awaiting, retry_at);
        if empty {
            // Nobody to ask: regenerate alone.
            self.regenerate(now);
        }
    }

    /// The STARVING retry fired. Re-calling 911 while a vote is standing
    /// is a *retransmission* of that vote, not a new vote: the local
    /// copy cannot change while STARVING (accepting a token leaves the
    /// state), so the call content is identical and verdicts from the
    /// earlier transmission must still count. Minting a fresh req id on
    /// every retry livelocks when some voter's reply path is slower than
    /// the retry period — e.g. its first NIC is down and every exchange
    /// pays the redundant-address failover — because each retry discards
    /// the grants already in flight. Only the still-awaiting voters are
    /// re-polled.
    fn retry_starving(&mut self, now: Time) {
        let Some((req_id, targets)) = self.role.standing_vote() else {
            // Join probing (no standing vote) or a fully-answered
            // vote: start over.
            self.enter_starving(now);
            return;
        };
        let call = Call911 {
            from: self.id,
            last_token_seq: self.last_copy_seq(),
            req_id,
        };
        let bytes = SessionMsg::Call911(call).encode_to_bytes();
        let polled = targets.len() as u64;
        for member in targets {
            if let Ok(mid) = self.transport.send(now, member, bytes.clone()) {
                self.inflight.insert(mid, SendKind::Call911 { req_id });
                self.metrics.calls911_sent += 1;
            }
        }
        self.obs.tick(now);
        self.obs.trace(TraceKind::Call911Tx {
            req_id,
            last_seq: self.last_copy_seq(),
            polled,
        });
        self.obs.called_911(req_id, self.last_copy_seq());
        self.role.rearm_starving(now + self.cfg.starving_retry);
    }

    fn send_join_probe(&mut self, now: Time) {
        let candidates: Vec<NodeId> = self
            .cfg
            .eligible
            .iter()
            .copied()
            .filter(|&n| n != self.id)
            .collect();
        if candidates.is_empty() {
            return;
        }
        let target = candidates[self.join_probe_idx % candidates.len()];
        self.join_probe_idx += 1;
        self.unanswered_probes = self.unanswered_probes.saturating_add(1);
        self.req_counter += 1;
        let call = Call911 {
            from: self.id,
            last_token_seq: self.last_copy_seq(),
            req_id: self.req_counter,
        };
        if let Ok(mid) =
            self.transport
                .send(now, target, SessionMsg::Call911(call).encode_to_bytes())
        {
            self.inflight.insert(
                mid,
                SendKind::Call911 {
                    req_id: self.req_counter,
                },
            );
            self.metrics.calls911_sent += 1;
            self.obs.tick(now);
            self.obs.trace(TraceKind::Call911Tx {
                req_id: self.req_counter,
                last_seq: self.last_copy_seq(),
                polled: 1,
            });
            self.obs.called_911(self.req_counter, self.last_copy_seq());
        }
    }

    fn on_call911(&mut self, now: Time, _wire_from: NodeId, call: Call911) {
        self.metrics.calls911_received += 1;
        if call.from == self.id {
            return;
        }
        self.obs.trace(TraceKind::Call911Rx {
            from: call.from.0,
            last_seq: call.last_token_seq,
        });
        if !self.ring.contains(call.from) {
            // §2.3: a 911 from a non-member is a join request. This also
            // heals link failures and failure-detector false alarms.
            if self.cfg.eligible.contains(&call.from) && !self.pending_joins.contains(&call.from) {
                self.pending_joins.push(call.from);
                self.obs.trace(TraceKind::JoinRequest { from: call.from.0 });
            }
            // Still answer the vote. We hold no copy of the caller's
            // token lineage, so we cannot deny — and the caller may
            // legitimately have us in its ring while we do not have it
            // in ours: a member that crashed and restarted before the
            // group purged it stays reachable (so failure-on-delivery
            // never excludes it) but would otherwise never reply,
            // hanging every 911 vote in the old group forever.
            self.obs.trace(TraceKind::Verdict911Tx {
                to: call.from.0,
                granted: true,
                newer_seq: 0,
            });
            let reply = Reply911 {
                from: self.id,
                req_id: call.req_id,
                verdict: Verdict911::Grant,
            };
            if let Ok(mid) = self.transport.send(
                now,
                call.from,
                SessionMsg::Reply911(reply).encode_to_bytes(),
            ) {
                self.inflight.insert(mid, SendKind::Reply);
            }
            return;
        }
        // Regeneration vote. Deny if the token demonstrably exists here
        // (we hold or are forwarding it), if our local copy is more
        // recent, or — on a tie — if our id is lower (bootstrap
        // tie-break; distinct real copies always have distinct seqs).
        let my_copy = self.last_copy_seq();
        let verdict = if self.role.holds_token() || self.forwarding.is_some() {
            Verdict911::Deny {
                newer_seq: self.last_seen_seq,
            }
        } else if my_copy > call.last_token_seq
            || (my_copy == call.last_token_seq && self.id < call.from)
        {
            Verdict911::Deny { newer_seq: my_copy }
        } else {
            Verdict911::Grant
        };
        let (granted, newer_seq) = match &verdict {
            Verdict911::Grant => (true, 0),
            Verdict911::Deny { newer_seq } => (false, *newer_seq),
        };
        if !granted {
            self.metrics.denials_911 += 1;
        }
        self.obs.trace(TraceKind::Verdict911Tx {
            to: call.from.0,
            granted,
            newer_seq,
        });
        let reply = Reply911 {
            from: self.id,
            req_id: call.req_id,
            verdict,
        };
        if let Ok(mid) = self.transport.send(
            now,
            call.from,
            SessionMsg::Reply911(reply).encode_to_bytes(),
        ) {
            self.inflight.insert(mid, SendKind::Reply);
        }
    }

    fn on_reply911(&mut self, now: Time, reply: Reply911) {
        let outcome = self
            .role
            .on_verdict(reply.from, reply.req_id, &reply.verdict, now);
        if outcome == VerdictOutcome::Ignored {
            return; // not voting, or a stale verdict from an earlier call
        }
        self.obs.trace(TraceKind::Verdict911Rx {
            from: reply.from.0,
            granted: matches!(reply.verdict, Verdict911::Grant),
        });
        match outcome {
            // Ignored returned above; grouping it with Waiting keeps the
            // match total without a panicking arm.
            VerdictOutcome::Ignored | VerdictOutcome::Waiting => {}
            VerdictOutcome::Won => self.regenerate(now),
            VerdictOutcome::Denied => {
                // Someone has a newer copy or the token itself; it (or
                // its holder) will keep the ring alive. The role is back
                // to HUNGRY with a fresh timeout.
                self.obs.starving_resolved();
            }
        }
    }

    /// Won the vote: regenerate the token from our local copy (§2.3).
    fn regenerate(&mut self, now: Time) {
        let Some(excluded) = self.role.win_vote(now) else {
            return;
        };
        let mut token = self
            .last_copy
            .clone()
            .unwrap_or_else(|| Token::founding(Ring::from_iter([self.id])));
        for x in excluded {
            token.ring.remove(x);
        }
        token.ring.push(self.id); // ensure we are present
        token.tbm = false;
        // Out-rank every live node's acceptance mark (see module docs).
        let parent_ctx = token.trace;
        token.seq = token.seq.max(self.last_seen_seq) + 2;
        // Regeneration mints a fresh circulation, causally descending
        // from the dead lineage's last hop we hold a copy of.
        token.trace = TraceCtx::mint(self.id, token.seq, parent_ctx.hop);
        self.last_seen_seq = token.seq;
        self.last_copy = Some(token.clone());
        self.metrics.regenerations += 1;
        self.obs.tick(now);
        self.obs.hop_minted(parent_ctx, token.trace);
        self.obs.recovered(token.seq);
        self.obs
            .trace(TraceKind::TokenRegenerated { seq: token.seq });
        self.events
            .push_back(SessionEvent::TokenRegenerated { seq: token.seq });
        self.become_eating(now, token);
    }

    // ------------------------------------------------------------------
    // Discovery and merge (§2.4)
    // ------------------------------------------------------------------

    fn has_absent_eligible(&self) -> bool {
        self.cfg
            .eligible
            .iter()
            .any(|&n| n != self.id && !self.ring.contains(n))
    }

    fn send_beacons(&mut self, now: Time) {
        // Only a node that is actually part of a functioning group (it
        // has or has seen a token) advertises itself.
        if self.last_copy.is_none() {
            return;
        }
        let beacon = BodyOdor {
            from: self.id,
            group: self.group_id(),
        };
        let bytes = SessionMsg::BodyOdor(beacon).encode_to_bytes();
        let absent: Vec<NodeId> = self
            .cfg
            .eligible
            .iter()
            .copied()
            .filter(|&n| n != self.id && !self.ring.contains(n))
            .collect();
        for n in absent {
            if let Ok(mid) = self.transport.send(now, n, bytes.clone()) {
                self.inflight.insert(mid, SendKind::Beacon);
                self.metrics.beacons_sent += 1;
            }
        }
    }

    fn on_beacon(&mut self, b: BodyOdor) {
        self.metrics.beacons_received += 1;
        self.obs.trace(TraceKind::BeaconRx {
            from: b.from.0,
            group: b.group.0 .0,
        });
        if b.from == self.id || self.ring.contains(b.from) {
            return;
        }
        if !self.cfg.eligible.contains(&b.from) {
            return;
        }
        // §2.4 tie-break: the beacon is a join request iff the sender's
        // group id is lower than ours — the higher group hands its token
        // down, so multi-way merges cannot deadlock.
        if b.group < self.group_id() {
            self.merge_target = Some(b.from);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raincore_types::Duration;

    fn cfg(n: u32) -> SessionConfig {
        SessionConfig::for_cluster(n)
    }

    fn mk(id: u32, n: u32, start: StartMode) -> SessionNode {
        let nodes: Vec<NodeId> = (0..n).map(NodeId).collect();
        SessionNode::new(
            NodeId(id),
            Incarnation::FIRST,
            cfg(n),
            TransportConfig::default(),
            vec![Addr::primary(NodeId(id))],
            PeerTable::full_mesh(nodes, 1),
            start,
            Time::ZERO,
        )
        .unwrap()
    }

    fn drain(n: &mut SessionNode) -> Vec<SessionEvent> {
        let mut out = vec![];
        while let Some(e) = n.poll_event() {
            out.push(e);
        }
        out
    }

    #[test]
    fn lowest_id_founds_token() {
        let ring = Ring::from([0, 1, 2]);
        let a = mk(0, 3, StartMode::Founding(ring.clone()));
        assert!(a.is_eating());
        assert_eq!(a.state_name(), "EATING");
        let b = mk(1, 3, StartMode::Founding(ring));
        assert!(!b.is_eating());
        assert_eq!(b.state_name(), "HUNGRY");
    }

    #[test]
    fn founding_requires_self_in_ring() {
        let nodes: Vec<NodeId> = (0..3).map(NodeId).collect();
        let err = SessionNode::new(
            NodeId(9),
            Incarnation::FIRST,
            cfg(3),
            TransportConfig::default(),
            vec![Addr::primary(NodeId(9))],
            PeerTable::full_mesh(nodes, 1),
            StartMode::Founding(Ring::from([0, 1, 2])),
            Time::ZERO,
        )
        .unwrap_err();
        assert!(matches!(err, Error::Config(_)));
    }

    #[test]
    fn isolated_node_is_singleton_group() {
        let a = mk(5, 8, StartMode::Isolated);
        assert!(a.is_eating());
        assert_eq!(a.ring().as_slice(), &[NodeId(5)]);
        assert_eq!(a.group_id(), GroupId(NodeId(5)));
    }

    #[test]
    fn singleton_multicast_delivers_on_self_pass() {
        let mut a = mk(0, 1, StartMode::Isolated);
        let seq = a
            .multicast(DeliveryMode::Agreed, Bytes::from_static(b"solo"))
            .unwrap();
        assert_eq!(seq, OriginSeq(0));
        // Self-pass happens at the token-hold deadline.
        a.on_tick(Time::ZERO + a.config().token_hold);
        let evs = drain(&mut a);
        assert!(
            evs.iter().any(|e| matches!(e, SessionEvent::Delivery(d) if d.payload == Bytes::from_static(b"solo"))),
            "got {evs:?}"
        );
        assert!(evs
            .iter()
            .any(|e| matches!(e, SessionEvent::MulticastAtomic { seq: OriginSeq(0) })));
        assert_eq!(a.metrics().self_passes, 1);
    }

    #[test]
    fn singleton_safe_multicast_also_completes() {
        let mut a = mk(0, 1, StartMode::Isolated);
        a.multicast(DeliveryMode::Safe, Bytes::from_static(b"safe"))
            .unwrap();
        a.on_tick(Time::ZERO + a.config().token_hold);
        // Safe needs a second look: one more self-pass.
        a.on_tick(Time::ZERO + a.config().token_hold.saturating_mul(2));
        let evs = drain(&mut a);
        assert!(
            evs.iter().any(|e| matches!(e, SessionEvent::Delivery(_))),
            "{evs:?}"
        );
        assert!(evs
            .iter()
            .any(|e| matches!(e, SessionEvent::MulticastAtomic { .. })));
    }

    #[test]
    fn payload_size_enforced() {
        let mut a = mk(0, 1, StartMode::Isolated);
        let huge = Bytes::from(vec![0u8; a.config().max_payload + 1]);
        assert!(matches!(
            a.multicast(DeliveryMode::Agreed, huge),
            Err(Error::PayloadTooLarge { .. })
        ));
    }

    #[test]
    fn master_lock_holds_the_ring() {
        let mut a = mk(0, 1, StartMode::Isolated);
        a.request_master().unwrap();
        let evs = drain(&mut a);
        assert!(
            evs.contains(&SessionEvent::MasterAcquired),
            "eating node acquires at once"
        );
        assert!(a.holds_master());
        // Deadline passes but the lock pins the token.
        a.on_tick(Time::ZERO + Duration::from_secs(10));
        assert!(a.is_eating());
        assert_eq!(a.metrics().self_passes, 0);
        a.release_master(Time::ZERO + Duration::from_secs(10))
            .unwrap();
        assert!(drain(&mut a).contains(&SessionEvent::MasterReleased));
        assert!(!a.holds_master());
        assert_eq!(a.metrics().self_passes, 1, "release forwards the token");
        assert!(a.release_master(Time::ZERO).is_err());
    }

    #[test]
    fn hungry_node_starves_and_regenerates_alone() {
        // Node 1 in a 2-ring; node 0 never speaks (it is not running).
        let mut b = mk(1, 2, StartMode::Founding(Ring::from([0, 1])));
        assert_eq!(b.state_name(), "HUNGRY");
        let t1 = Time::ZERO + b.config().hungry_timeout;
        b.on_tick(t1);
        assert_eq!(b.state_name(), "STARVING");
        assert!(drain(&mut b).contains(&SessionEvent::Starving));
        // The 911 to node 0 fails on delivery → node 0 excluded → b
        // regenerates as a singleton.
        let mut now = t1;
        for _ in 0..200 {
            if let Some(w) = b.next_wakeup() {
                now = w.max(now);
                b.on_tick(now);
                while b.poll_outgoing().is_some() {} // node 0 is a black hole
            }
            if b.is_eating() {
                break;
            }
        }
        assert!(
            b.is_eating(),
            "regenerated after failure-on-delivery of the 911"
        );
        assert_eq!(b.ring().as_slice(), &[NodeId(1)]);
        assert_eq!(b.metrics().regenerations, 1);
        let evs = drain(&mut b);
        assert!(evs
            .iter()
            .any(|e| matches!(e, SessionEvent::TokenRegenerated { .. })));
    }

    #[test]
    fn deny_when_copy_is_newer() {
        let mut a = mk(0, 3, StartMode::Founding(Ring::from([0, 1, 2])));
        // a founded and is EATING → must deny.
        a.on_call911(
            Time::ZERO,
            NodeId(1),
            Call911 {
                from: NodeId(1),
                last_token_seq: 0,
                req_id: 1,
            },
        );
        let out = a.poll_outgoing().expect("a reply datagram");
        // The reply is a transport DATA frame; decode through the frame.
        let f = raincore_transport::Frame::decode_from_bytes(&out.payload).unwrap();
        let raincore_transport::Frame::Data { payload, .. } = f else {
            panic!()
        };
        let SessionMsg::Reply911(r) = SessionMsg::decode_from_bytes(&payload).unwrap() else {
            panic!()
        };
        assert!(matches!(r.verdict, Verdict911::Deny { .. }));
    }

    #[test]
    fn equal_seq_tie_breaks_toward_lower_id() {
        // Node 1 (HUNGRY, copy seq 0) votes on calls with seq 0.
        let b = mk(1, 6, StartMode::Founding(Ring::from([1, 2, 5])));
        assert_eq!(b.state_name(), "EATING"); // 1 is lowest → founded
                                              // Make a non-eating voter: node 2.
        let mut c = mk(2, 6, StartMode::Founding(Ring::from([1, 2, 5])));
        assert_eq!(c.state_name(), "HUNGRY");
        // Caller id 5 > voter id 2 → voter denies (lower id has priority).
        c.on_call911(
            Time::ZERO,
            NodeId(5),
            Call911 {
                from: NodeId(5),
                last_token_seq: 0,
                req_id: 7,
            },
        );
        let out = c.poll_outgoing().expect("reply");
        let f = raincore_transport::Frame::decode_from_bytes(&out.payload).unwrap();
        let raincore_transport::Frame::Data { payload, .. } = f else {
            panic!()
        };
        let SessionMsg::Reply911(r) = SessionMsg::decode_from_bytes(&payload).unwrap() else {
            panic!()
        };
        assert!(matches!(r.verdict, Verdict911::Deny { .. }));
        // Caller id 1 < voter id 2 → but 1 is a member… caller 1 with
        // equal seq gets a Grant from 2.
        let mut c2 = mk(2, 6, StartMode::Founding(Ring::from([1, 2, 5])));
        c2.on_call911(
            Time::ZERO,
            NodeId(1),
            Call911 {
                from: NodeId(1),
                last_token_seq: 0,
                req_id: 8,
            },
        );
        let out = c2.poll_outgoing().expect("reply");
        let f = raincore_transport::Frame::decode_from_bytes(&out.payload).unwrap();
        let raincore_transport::Frame::Data { payload, .. } = f else {
            panic!()
        };
        let SessionMsg::Reply911(r) = SessionMsg::decode_from_bytes(&payload).unwrap() else {
            panic!()
        };
        assert_eq!(r.verdict, Verdict911::Grant);
        let _ = b;
    }

    #[test]
    fn call911_from_non_member_is_join_request() {
        let mut a = mk(0, 4, StartMode::Founding(Ring::from([0, 1])));
        a.on_call911(
            Time::ZERO,
            NodeId(3),
            Call911 {
                from: NodeId(3),
                last_token_seq: 0,
                req_id: 1,
            },
        );
        // The vote is still answered — with a Grant, since we hold no
        // copy of the caller's lineage. A member that crashed and
        // restarted before the group purged it would otherwise hang
        // every 911 vote in its old group forever.
        let out = a.poll_outgoing().expect("non-member call gets a verdict");
        let f = raincore_transport::Frame::decode_from_bytes(&out.payload).unwrap();
        let raincore_transport::Frame::Data { payload, .. } = f else {
            panic!()
        };
        let SessionMsg::Reply911(r) = SessionMsg::decode_from_bytes(&payload).unwrap() else {
            panic!()
        };
        assert_eq!(r.verdict, Verdict911::Grant);
        // Next pass admits the joiner right after us: ring 0,3,1.
        a.on_tick(Time::ZERO + a.config().token_hold);
        assert_eq!(a.ring().as_slice(), &[NodeId(0), NodeId(3), NodeId(1)]);
    }

    #[test]
    fn ineligible_node_cannot_join() {
        let mut a = mk(0, 2, StartMode::Founding(Ring::from([0, 1])));
        a.on_call911(
            Time::ZERO,
            NodeId(77),
            Call911 {
                from: NodeId(77),
                last_token_seq: 0,
                req_id: 1,
            },
        );
        a.on_tick(Time::ZERO + a.config().token_hold);
        assert!(!a.ring().contains(NodeId(77)));
    }

    #[test]
    fn stale_token_discarded() {
        let mut a = mk(0, 2, StartMode::Founding(Ring::from([0, 1])));
        let seen = a.metrics().tokens_received;
        // A token with seq 1 == our last_seen (we founded with seq 1).
        a.on_token(Time::ZERO, Token::founding(Ring::from([0, 1])));
        assert_eq!(a.metrics().stale_tokens_dropped, 1);
        assert_eq!(a.metrics().tokens_received, seen);
    }

    #[test]
    fn token_without_self_not_touched() {
        let mut b = mk(1, 3, StartMode::Founding(Ring::from([0, 1, 2])));
        let mut t = Token::founding(Ring::from([0, 2]));
        t.seq = 50;
        b.on_token(Time::ZERO, t);
        assert_eq!(b.state_name(), "HUNGRY");
        assert_eq!(b.metrics().stale_tokens_dropped, 1);
    }

    #[test]
    fn beacon_from_lower_group_triggers_merge_handoff() {
        // Node 2 is an isolated singleton group g2.
        let mut c = mk(2, 4, StartMode::Isolated);
        // Beacon from node 0, group g0 < g2 → on our next pass we hand a
        // TBM token to node 0.
        c.on_beacon(BodyOdor {
            from: NodeId(0),
            group: GroupId(NodeId(0)),
        });
        c.on_tick(Time::ZERO + c.config().token_hold);
        let d = c.poll_outgoing().expect("TBM token datagram");
        let f = raincore_transport::Frame::decode_from_bytes(&d.payload).unwrap();
        let raincore_transport::Frame::Data { payload, .. } = f else {
            panic!()
        };
        let SessionMsg::Token(t) = SessionMsg::decode_from_bytes(&payload).unwrap() else {
            panic!()
        };
        assert!(t.tbm);
        assert!(t.ring.contains(NodeId(0)));
        assert!(t.ring.contains(NodeId(2)));
        assert_eq!(d.dst.node, NodeId(0));
    }

    #[test]
    fn beacon_from_higher_group_ignored() {
        let mut a = mk(0, 4, StartMode::Isolated);
        a.on_beacon(BodyOdor {
            from: NodeId(3),
            group: GroupId(NodeId(3)),
        });
        a.on_tick(Time::ZERO + a.config().token_hold);
        // Self-pass, no TBM handoff.
        assert!(a.is_eating());
        assert_eq!(a.metrics().self_passes, 1);
        assert!(!a.ring().contains(NodeId(3)));
    }

    #[test]
    fn tbm_token_merges_with_held_token() {
        // Node 0 is isolated (eating its own token, group g0).
        let mut a = mk(0, 4, StartMode::Isolated);
        // TBM token arrives from group {2,3} with node 0 added.
        let mut tbm = Token::founding(Ring::from([2, 3, 0]));
        tbm.seq = 9;
        tbm.tbm = true;
        a.on_token(Time::ZERO, tbm);
        assert!(a.is_eating());
        assert_eq!(a.metrics().merges, 1);
        let evs = drain(&mut a);
        assert!(evs.iter().any(|e| matches!(
            e,
            SessionEvent::Merged {
                absorbed: GroupId(NodeId(2))
            }
        )));
        assert!(a.ring().contains(NodeId(2)));
        assert!(a.ring().contains(NodeId(3)));
        assert_eq!(a.group_id(), GroupId(NodeId(0)));
        // Merged seq out-ranks both sides.
        assert!(a.last_copy_seq() >= 10);
    }

    #[test]
    fn joiner_accepts_tbm_directly() {
        let mut j = mk(3, 4, StartMode::Joining);
        assert_eq!(j.state_name(), "STARVING");
        let mut tbm = Token::founding(Ring::from([0, 1, 3]));
        tbm.seq = 4;
        tbm.tbm = true;
        j.on_token(Time::ZERO, tbm);
        assert!(j.is_eating());
        assert!(j.ring().contains(NodeId(0)));
    }

    #[test]
    fn critical_resource_loss_shuts_down() {
        let mut a = mk(0, 2, StartMode::Isolated);
        a.add_critical_resource("uplink");
        a.set_resource(Time::ZERO, "uplink", false);
        assert!(a.is_down());
        let evs = drain(&mut a);
        assert!(evs
            .iter()
            .any(|e| matches!(e, SessionEvent::ShutDown { reason } if reason.contains("uplink"))));
        // Down node refuses everything.
        assert!(matches!(
            a.multicast(DeliveryMode::Agreed, Bytes::new()),
            Err(Error::ShutDown)
        ));
        assert_eq!(a.next_wakeup(), None);
    }

    #[test]
    fn leaving_while_eating_forwards_token_without_self() {
        let ring = Ring::from([0, 1, 2]);
        let mut a = mk(0, 3, StartMode::Founding(ring));
        assert!(a.is_eating());
        a.leave(Time::ZERO);
        assert!(a.is_down());
        let d = a.poll_outgoing().expect("token handoff on leave");
        assert_eq!(d.dst.node, NodeId(1));
        let f = raincore_transport::Frame::decode_from_bytes(&d.payload).unwrap();
        let raincore_transport::Frame::Data { payload, .. } = f else {
            panic!()
        };
        let SessionMsg::Token(t) = SessionMsg::decode_from_bytes(&payload).unwrap() else {
            panic!()
        };
        assert!(!t.ring.contains(NodeId(0)));
        assert_eq!(t.ring.as_slice(), &[NodeId(1), NodeId(2)]);
    }

    #[test]
    fn next_wakeup_covers_state_deadlines() {
        let a = mk(1, 2, StartMode::Founding(Ring::from([0, 1])));
        // HUNGRY → wakeup at hungry timeout (beacons not needed: full ring).
        assert_eq!(
            a.next_wakeup(),
            Some(Time::ZERO + a.config().hungry_timeout)
        );
        let b = mk(0, 1, StartMode::Isolated);
        assert_eq!(b.next_wakeup(), Some(Time::ZERO + b.config().token_hold));
    }

    #[test]
    fn beacons_go_to_absent_eligible_only() {
        let mut a = mk(0, 3, StartMode::Isolated); // eligible {0,1,2}, ring {0}
        a.on_tick(Time::ZERO + a.config().beacon_period);
        let mut dsts = vec![];
        while let Some(d) = a.poll_outgoing() {
            let f = raincore_transport::Frame::decode_from_bytes(&d.payload).unwrap();
            if let raincore_transport::Frame::Data { payload, .. } = f {
                if let Ok(SessionMsg::BodyOdor(b)) = SessionMsg::decode_from_bytes(&payload) {
                    assert_eq!(b.from, NodeId(0));
                    assert_eq!(b.group, GroupId(NodeId(0)));
                    dsts.push(d.dst.node);
                }
            }
        }
        dsts.sort();
        assert_eq!(dsts, vec![NodeId(1), NodeId(2)]);
        assert_eq!(a.metrics().beacons_sent, 2);
    }
}

#[cfg(test)]
mod holdback_tests {
    //! Direct token-injection tests of the hold-back delivery discipline
    //! (§2.6 cross-mode total order).

    use super::*;
    use raincore_types::{Attached, Duration};

    fn mk(id: u32) -> SessionNode {
        let nodes: Vec<NodeId> = (0..3).map(NodeId).collect();
        SessionNode::new(
            NodeId(id),
            Incarnation::FIRST,
            SessionConfig::for_cluster(3),
            TransportConfig::default(),
            vec![Addr::primary(NodeId(id))],
            PeerTable::full_mesh(nodes, 1),
            StartMode::Founding(Ring::from([0, 1, 2])),
            Time::ZERO,
        )
        .unwrap()
    }

    fn deliveries(n: &mut SessionNode) -> Vec<(NodeId, OriginSeq)> {
        let mut out = vec![];
        while let Some(ev) = n.poll_event() {
            if let SessionEvent::Delivery(d) = ev {
                out.push((d.origin, d.seq));
            }
        }
        out
    }

    fn attached(origin: u32, seq: u64, mode: DeliveryMode, seen: &[u32]) -> Attached {
        let mut a = Attached::new(
            NodeId(origin),
            OriginSeq(seq),
            mode,
            Bytes::from_static(b"p"),
        );
        a.seen = seen.iter().map(|&i| NodeId(i)).collect();
        a
    }

    #[test]
    fn incomplete_safe_message_blocks_later_agreed() {
        let mut n = mk(1); // HUNGRY (node 0 founded)
        let mut t = Token::founding(Ring::from([0, 1, 2]));
        t.seq = 10;
        t.msgs = vec![
            attached(0, 0, DeliveryMode::Safe, &[0]), // not seen by all yet
            attached(2, 0, DeliveryMode::Agreed, &[2, 0]),
        ]
        .into();
        n.on_token(Time::ZERO, t);
        assert!(n.is_eating());
        assert_eq!(
            deliveries(&mut n),
            vec![],
            "safe head blocks the agreed message"
        );

        // Next round: the safe message is now seen by everyone.
        let mut t = Token::founding(Ring::from([0, 1, 2]));
        t.seq = 13;
        t.msgs = vec![
            attached(0, 0, DeliveryMode::Safe, &[0, 2, 1]),
            attached(2, 0, DeliveryMode::Agreed, &[2, 0, 1]),
        ]
        .into();
        n.on_token(Time::ZERO + Duration::from_millis(20), t);
        assert_eq!(
            deliveries(&mut n),
            vec![(NodeId(0), OriginSeq(0)), (NodeId(2), OriginSeq(0))],
            "both delivered, in token order"
        );
    }

    #[test]
    fn agreed_before_safe_delivers_immediately() {
        let mut n = mk(1);
        let mut t = Token::founding(Ring::from([0, 1, 2]));
        t.seq = 10;
        t.msgs = vec![
            attached(0, 0, DeliveryMode::Agreed, &[0]),
            attached(0, 1, DeliveryMode::Safe, &[0]),
        ]
        .into();
        n.on_token(Time::ZERO, t);
        assert_eq!(
            deliveries(&mut n),
            vec![(NodeId(0), OriginSeq(0))],
            "the agreed head delivers; only the safe tail waits"
        );
    }

    #[test]
    fn own_attachment_behind_blocked_safe_waits_too() {
        let mut n = mk(1);
        // Queue a local multicast while hungry.
        n.multicast(DeliveryMode::Agreed, Bytes::from_static(b"mine"))
            .unwrap();
        // Token arrives with a blocked safe message at the head.
        let mut t = Token::founding(Ring::from([0, 1, 2]));
        t.seq = 10;
        t.msgs = vec![attached(0, 0, DeliveryMode::Safe, &[0])].into();
        n.on_token(Time::ZERO, t);
        // Pass the token: our message attaches *behind* the safe one.
        n.on_tick(Time::ZERO + n.config().token_hold);
        assert_eq!(
            deliveries(&mut n),
            vec![],
            "own agreed message must not jump the blocked safe message"
        );
        // Once the safe message completes, both deliver in order.
        let mut t = Token::founding(Ring::from([0, 1, 2]));
        t.seq = 20;
        t.msgs = vec![
            attached(0, 0, DeliveryMode::Safe, &[0, 1, 2]),
            attached(1, 0, DeliveryMode::Agreed, &[1, 0, 2]),
        ]
        .into();
        n.on_token(Time::ZERO + Duration::from_millis(50), t);
        assert_eq!(
            deliveries(&mut n),
            vec![(NodeId(0), OriginSeq(0)), (NodeId(1), OriginSeq(0))]
        );
    }

    #[test]
    fn duplicate_attachment_across_rounds_delivers_once() {
        let mut n = mk(1);
        let mut t = Token::founding(Ring::from([0, 1, 2]));
        t.seq = 10;
        t.msgs = vec![attached(0, 0, DeliveryMode::Agreed, &[0])].into();
        n.on_token(Time::ZERO, t);
        // The same message rides the next round too (not yet retired).
        let mut t = Token::founding(Ring::from([0, 1, 2]));
        t.seq = 13;
        t.msgs = vec![attached(0, 0, DeliveryMode::Agreed, &[0, 1, 2])].into();
        n.on_token(Time::ZERO + Duration::from_millis(20), t);
        assert_eq!(
            deliveries(&mut n).len(),
            1,
            "exactly-once despite re-seeing it"
        );
    }

    #[test]
    fn safe_readiness_survives_token_retirement() {
        // A safe message observed incomplete, then the token arrives with
        // it already complete AND retires it in the same pass at another
        // node — this node must still deliver from its hold-back copy.
        let mut n = mk(1);
        let mut t = Token::founding(Ring::from([0, 1, 2]));
        t.seq = 10;
        t.msgs = vec![attached(0, 0, DeliveryMode::Safe, &[0])].into();
        n.on_token(Time::ZERO, t);
        assert_eq!(deliveries(&mut n), vec![]);
        // Next round: message now seen by all (still on token).
        let mut t = Token::founding(Ring::from([0, 1, 2]));
        t.seq = 13;
        t.msgs = vec![attached(0, 0, DeliveryMode::Safe, &[0, 2, 1])].into();
        n.on_token(Time::ZERO + Duration::from_millis(20), t);
        assert_eq!(deliveries(&mut n), vec![(NodeId(0), OriginSeq(0))]);
    }
}

#[cfg(test)]
mod bulk_tests {
    //! Two-phase (out-of-band) delivery: id manifests ride the token,
    //! payloads travel around it (DESIGN.md §13).

    use super::*;
    use raincore_types::Duration;

    fn mk_bulk(id: u32, mutate: impl FnOnce(&mut SessionConfig)) -> SessionNode {
        let nodes: Vec<NodeId> = (0..3).map(NodeId).collect();
        let mut cfg = SessionConfig::for_cluster(3);
        mutate(&mut cfg);
        SessionNode::new(
            NodeId(id),
            Incarnation::FIRST,
            cfg,
            TransportConfig::default(),
            vec![Addr::primary(NodeId(id))],
            PeerTable::full_mesh(nodes, 1),
            StartMode::Founding(Ring::from([0, 1, 2])),
            Time::ZERO,
        )
        .unwrap()
    }

    fn oob(origin: u32, seq: u64, mode: DeliveryMode, len: u64, seen: &[u32]) -> Attached {
        let mut a = Attached::new_oob(NodeId(origin), OriginSeq(seq), mode, len);
        a.seen = seen.iter().map(|&i| NodeId(i)).collect();
        a
    }

    fn inline(origin: u32, seq: u64, mode: DeliveryMode, seen: &[u32]) -> Attached {
        let mut a = Attached::new(
            NodeId(origin),
            OriginSeq(seq),
            mode,
            Bytes::from_static(b"inl"),
        );
        a.seen = seen.iter().map(|&i| NodeId(i)).collect();
        a
    }

    fn deliveries(n: &mut SessionNode) -> Vec<(NodeId, OriginSeq, Bytes)> {
        let mut out = vec![];
        while let Some(ev) = n.poll_event() {
            if let SessionEvent::Delivery(d) = ev {
                out.push((d.origin, d.seq, d.payload));
            }
        }
        out
    }

    /// Decoded session messages drained from the outgoing queue, with
    /// their destinations.
    fn outgoing_msgs(n: &mut SessionNode) -> Vec<(NodeId, SessionMsg)> {
        let mut out = vec![];
        while let Some(d) = n.poll_outgoing() {
            let f = raincore_transport::Frame::decode_from_bytes(&d.payload).unwrap();
            if let raincore_transport::Frame::Data {
                payload,
                frag_index: 0,
                frag_count: 1,
                ..
            } = f
            {
                if let Ok(m) = SessionMsg::decode_from_bytes(&payload) {
                    out.push((d.dst.node, m));
                }
            }
        }
        out
    }

    #[test]
    fn manifest_without_payload_blocks_until_frame_arrives() {
        let mut n = mk_bulk(1, |_| {});
        let mut t = Token::founding(Ring::from([0, 1, 2]));
        t.seq = 10;
        t.msgs = vec![
            oob(0, 0, DeliveryMode::Agreed, 4, &[0]),
            inline(2, 0, DeliveryMode::Agreed, &[2, 0]),
        ]
        .into();
        n.on_token(Time::ZERO, t);
        assert_eq!(
            deliveries(&mut n),
            vec![],
            "ordered id without payload must block the queue"
        );
        // The bulk frame arrives out of band: both deliver, token order.
        n.on_bulk(BulkData {
            origin: NodeId(0),
            seq: OriginSeq(0),
            payload: Bytes::from_static(b"wxyz"),
        });
        let got = deliveries(&mut n);
        assert_eq!(got.len(), 2);
        assert_eq!(
            got[0],
            (NodeId(0), OriginSeq(0), Bytes::from_static(b"wxyz"))
        );
        assert_eq!(got[1].0, NodeId(2));
    }

    #[test]
    fn payload_arriving_before_manifest_delivers_at_ordering_time() {
        let mut n = mk_bulk(1, |_| {});
        // Bulk frames race the token by design.
        n.on_bulk(BulkData {
            origin: NodeId(0),
            seq: OriginSeq(0),
            payload: Bytes::from_static(b"early"),
        });
        assert_eq!(deliveries(&mut n), vec![], "no delivery before ordering");
        let mut t = Token::founding(Ring::from([0, 1, 2]));
        t.seq = 10;
        t.msgs = vec![oob(0, 0, DeliveryMode::Agreed, 5, &[0])].into();
        n.on_token(Time::ZERO, t);
        assert_eq!(
            deliveries(&mut n),
            vec![(NodeId(0), OriginSeq(0), Bytes::from_static(b"early"))]
        );
    }

    #[test]
    fn oob_entry_marked_seen_only_with_payload_in_hand() {
        let mut n = mk_bulk(1, |_| {});
        let mut t = Token::founding(Ring::from([0, 1, 2]));
        t.seq = 10;
        t.msgs = vec![oob(0, 0, DeliveryMode::Agreed, 4, &[0])].into();
        n.on_token(Time::ZERO, t);
        n.on_tick(Time::ZERO + n.config().token_hold);
        let toks: Vec<_> = outgoing_msgs(&mut n)
            .into_iter()
            .filter_map(|(_, m)| match m {
                SessionMsg::Token(t) => Some(t),
                _ => None,
            })
            .collect();
        let entry = toks[0].msgs.iter().next().unwrap();
        assert!(
            !entry.seen.contains(&NodeId(1)),
            "must not acknowledge a payload we do not hold: {:?}",
            entry.seen
        );
        // With the payload in hand the next pass acknowledges.
        n.on_bulk(BulkData {
            origin: NodeId(0),
            seq: OriginSeq(0),
            payload: Bytes::from_static(b"wxyz"),
        });
        let mut t = Token::founding(Ring::from([0, 1, 2]));
        t.seq = 20;
        t.msgs = vec![oob(0, 0, DeliveryMode::Agreed, 4, &[0])].into();
        n.on_token(Time::ZERO + Duration::from_millis(40), t);
        n.on_tick(Time::ZERO + Duration::from_millis(40) + n.config().token_hold);
        let toks: Vec<_> = outgoing_msgs(&mut n)
            .into_iter()
            .filter_map(|(_, m)| match m {
                SessionMsg::Token(t) => Some(t),
                _ => None,
            })
            .collect();
        let entry = toks[0].msgs.iter().next().unwrap();
        assert!(entry.seen.contains(&NodeId(1)));
    }

    #[test]
    fn origin_splits_large_payloads_and_piggybacks_small_ones() {
        // Node 0 founds the 3-ring and holds the token.
        let mut n = mk_bulk(0, |c| c.bulk_threshold = 8);
        n.multicast(DeliveryMode::Agreed, Bytes::from(vec![7u8; 64]))
            .unwrap();
        n.multicast(DeliveryMode::Agreed, Bytes::from_static(b"tiny"))
            .unwrap();
        n.on_tick(Time::ZERO + n.config().token_hold);
        let msgs = outgoing_msgs(&mut n);
        let bulk_dsts: Vec<NodeId> = msgs
            .iter()
            .filter_map(|(dst, m)| match m {
                SessionMsg::Bulk(b) => {
                    assert_eq!(b.origin, NodeId(0));
                    assert_eq!(b.payload.len(), 64);
                    Some(*dst)
                }
                _ => None,
            })
            .collect();
        assert_eq!(bulk_dsts, vec![NodeId(1), NodeId(2)]);
        assert_eq!(n.metrics().bulk_frames_sent, 2);
        let token = msgs
            .iter()
            .find_map(|(_, m)| match m {
                SessionMsg::Token(t) => Some(t.clone()),
                _ => None,
            })
            .expect("token pass");
        let entries: Vec<&Attached> = token.msgs.iter().collect();
        assert_eq!(entries.len(), 2);
        assert!(entries[0].is_oob(), "64B >= threshold goes out-of-band");
        assert_eq!(entries[0].payload_len(), 64);
        assert!(!entries[1].is_oob(), "4B < threshold stays piggybacked");
        assert_eq!(
            token.payload_bytes(),
            4,
            "token carries only the inline payload bytes"
        );
    }

    #[test]
    fn missing_payload_fires_rotating_nack_pulls() {
        let mut n = mk_bulk(1, |_| {});
        let mut t = Token::founding(Ring::from([0, 1, 2]));
        t.seq = 10;
        // Node 2 also holds the payload (it is in the seen set).
        t.msgs = vec![oob(0, 0, DeliveryMode::Agreed, 4, &[0, 2])].into();
        n.on_token(Time::ZERO, t);
        let pull = n.config().bulk_pull_timeout;
        assert!(
            n.next_wakeup().is_some_and(|w| w <= Time::ZERO + pull),
            "wakeup must cover the pull deadline"
        );
        let nack_dsts = |msgs: Vec<(NodeId, SessionMsg)>| -> Vec<NodeId> {
            msgs.into_iter()
                .filter_map(|(dst, m)| match m {
                    SessionMsg::BulkNack(nk) => {
                        assert_eq!(nk.from, NodeId(1));
                        assert_eq!((nk.origin, nk.seq), (NodeId(0), OriginSeq(0)));
                        Some(dst)
                    }
                    _ => None,
                })
                .collect()
        };
        n.on_tick(Time::ZERO + pull);
        assert_eq!(nack_dsts(outgoing_msgs(&mut n)), vec![NodeId(0)]);
        n.on_tick(Time::ZERO + pull + pull);
        assert_eq!(
            nack_dsts(outgoing_msgs(&mut n)),
            vec![NodeId(2)],
            "second pull rotates to another holder"
        );
        n.on_tick(Time::ZERO + pull + pull + pull);
        assert_eq!(nack_dsts(outgoing_msgs(&mut n)), vec![NodeId(0)]);
        assert_eq!(n.metrics().bulk_nacks_sent, 3);
    }

    #[test]
    fn any_holder_serves_a_nack_from_its_store() {
        let mut n = mk_bulk(1, |_| {});
        n.on_bulk(BulkData {
            origin: NodeId(0),
            seq: OriginSeq(3),
            payload: Bytes::from_static(b"data"),
        });
        n.on_bulk_nack(
            Time::ZERO,
            BulkNack {
                from: NodeId(2),
                origin: NodeId(0),
                seq: OriginSeq(3),
            },
        );
        let msgs = outgoing_msgs(&mut n);
        let served: Vec<_> = msgs
            .iter()
            .filter_map(|(dst, m)| match m {
                SessionMsg::Bulk(b) => Some((*dst, b.payload.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(served, vec![(NodeId(2), Bytes::from_static(b"data"))]);
        assert_eq!(n.metrics().bulk_nacks_served, 1);
        // A NACK for something we do not hold is silently ignored.
        n.on_bulk_nack(
            Time::ZERO,
            BulkNack {
                from: NodeId(2),
                origin: NodeId(0),
                seq: OriginSeq(99),
            },
        );
        assert!(outgoing_msgs(&mut n).is_empty());
        assert_eq!(n.metrics().bulk_nacks_served, 1);
    }

    #[test]
    fn duplicate_bulk_frames_deliver_exactly_once() {
        let mut n = mk_bulk(1, |_| {});
        let frame = BulkData {
            origin: NodeId(0),
            seq: OriginSeq(0),
            payload: Bytes::from_static(b"wxyz"),
        };
        n.on_bulk(frame.clone());
        n.on_bulk(frame.clone()); // origin resend
        assert_eq!(n.metrics().bulk_duplicates, 1);
        let mut t = Token::founding(Ring::from([0, 1, 2]));
        t.seq = 10;
        t.msgs = vec![oob(0, 0, DeliveryMode::Agreed, 4, &[0])].into();
        n.on_token(Time::ZERO, t);
        n.on_bulk(frame); // NACK answer racing in after delivery
        assert_eq!(deliveries(&mut n).len(), 1);
        assert_eq!(n.metrics().deliveries, 1);
    }

    #[test]
    fn blind_delivery_dial_reopens_the_payload_gap() {
        // The seeded protocol bug the model checker must find: delivering
        // an ordered id whose payload never arrived.
        let mut n = mk_bulk(1, |c| c.bulk_blind_delivery = true);
        let mut t = Token::founding(Ring::from([0, 1, 2]));
        t.seq = 10;
        t.msgs = vec![oob(0, 0, DeliveryMode::Agreed, 4, &[0])].into();
        n.on_token(Time::ZERO, t);
        assert_eq!(
            deliveries(&mut n),
            vec![(NodeId(0), OriginSeq(0), Bytes::new())],
            "blind delivery hands the application an empty payload"
        );
    }
}
