//! Typestate protocol core: HUNGRY / EATING / STARVING as types.
//!
//! §2.2 of the paper defines the per-node protocol state machine. This
//! module encodes each role state as its own type — [`Hungry`],
//! [`Eating`], [`Starving`], [`Down`] — whose transition methods *consume*
//! `self` and return the only legal successor states. The compiler now
//! proves what used to be a lint rule or a model-check counterexample:
//!
//! * a node that does not hold the token cannot send it — there is no
//!   `pass` method on [`Hungry`] or [`Starving`], so "send the token
//!   while HUNGRY" is a type error, not a runtime bug;
//! * every protocol message has a handler in every state *by
//!   construction* — the sealed [`ProtocolState`] trait requires
//!   `on_token_accept`, `on_grant`, `on_deny`, `on_peer_failed` and
//!   `holds_token` of each state type, so an unhandled 911 verdict or
//!   membership-change notification in some state fails `cargo build`;
//! * verdict outcomes are `#[must_use]`: ignoring a 911 grant while
//!   STARVING is rejected under `deny(unused_must_use)`.
//!
//! The driver layer ([`Role`]) wraps the typed states in a private enum so
//! [`crate::node::SessionNode`] can hold "whatever state we are in" while
//! every actual transition still goes through the typed methods. The state
//! types' fields are private to this module: no code outside it can
//! construct a role state or take one apart with a `match` — enforced by
//! the compiler here, and by `raincore-lint`'s `typestate-escape` rule
//! against textual regressions (e.g. someone re-adding a raw state enum).
//!
//! ```compile_fail
//! // ILLEGAL: sending the token while HUNGRY. `Hungry` has no `pass`
//! // method — only `Eating` can hand the token on — so this is a
//! // compile error, not a protocol violation at runtime.
//! fn illegal(h: raincore_session::typestate::Hungry) {
//!     let _ = h.pass(raincore_types::Time(0));
//! }
//! ```
//!
//! ```compile_fail
//! #![deny(unused_must_use)]
//! // ILLEGAL: ignoring a 911 verdict while STARVING. `VerdictOutcome`
//! // is #[must_use]; dropping it on the floor fails the build.
//! fn illegal(r: &mut raincore_session::typestate::Role) {
//!     r.on_verdict(
//!         raincore_types::NodeId(1),
//!         1,
//!         &raincore_types::Verdict911::Grant,
//!         raincore_types::Time(0),
//!     );
//! }
//! ```

use raincore_types::digest::StateDigest;
use raincore_types::{Duration, NodeId, Time, Token, Verdict911};
use std::collections::BTreeSet;

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::Hungry {}
    impl Sealed for super::Eating {}
    impl Sealed for super::Starving {}
    impl Sealed for super::Down {}
}

/// A standing 911 vote (private to the typestate core: only a
/// [`Starving`] node votes, and only its handlers may touch the ballot).
#[derive(Debug)]
struct Vote911 {
    req_id: u64,
    awaiting: BTreeSet<NodeId>,
    /// Members that failed-on-delivery during the vote; excluded from the
    /// regenerated membership.
    excluded: Vec<NodeId>,
}

/// HUNGRY: the node does not hold the token (§2.2).
#[derive(Debug)]
pub struct Hungry {
    since: Time,
}

/// EATING: the node holds the token (§2.2).
#[derive(Debug)]
pub struct Eating {
    token: Token,
    deadline: Time,
}

/// STARVING: HUNGRY past the timeout — token suspected lost, 911 vote or
/// join probing in progress (§2.3).
#[derive(Debug)]
pub struct Starving {
    /// `None` while the node has no membership to poll (a fresh joiner
    /// probing the group with join-911s).
    vote: Option<Vote911>,
    retry_at: Time,
}

/// DOWN: terminal. The node shut itself down (§2.4) and handles nothing.
#[derive(Debug)]
pub struct Down {
    _sealed: (),
}

/// What a 911 verdict did to the role state. `#[must_use]`: a STARVING
/// node that ignores a verdict livelocks (grants) or splits the ring
/// (denials), so the compiler insists the caller act on the outcome.
#[must_use = "a 911 verdict changes the vote; the caller must act on the outcome"]
#[derive(Debug, PartialEq, Eq)]
pub enum VerdictOutcome {
    /// Not voting, or the verdict belongs to an earlier call.
    Ignored,
    /// Grant recorded; the vote is still open.
    Waiting,
    /// Every polled member granted: the caller must regenerate the token
    /// ([`Role::win_vote`]).
    Won,
    /// A member denied — somebody holds a newer copy or the token itself.
    /// The role is back to HUNGRY with a fresh timeout.
    Denied,
}

/// What a failure-on-delivery notification did to a standing vote.
#[must_use = "a failed voter changes the ballot; the caller must act on the outcome"]
#[derive(Debug, PartialEq, Eq)]
pub enum VoteProgress {
    /// No standing vote; nothing to record.
    NotVoting,
    /// The dead peer was struck from the ballot and excluded from the
    /// regenerated membership.
    Recorded {
        /// The peer had not answered yet (its removal advanced the vote).
        was_awaiting: bool,
        /// The ballot is now fully answered: the caller must regenerate.
        vote_complete: bool,
    },
}

/// Which protocol timer fired at a tick.
#[derive(Debug, PartialEq, Eq)]
pub enum TimerFired {
    /// EATING past the token-hold deadline: pass the token.
    PassToken,
    /// HUNGRY past the hungry timeout: enter STARVING.
    Starve,
    /// STARVING past the retry deadline: re-call 911.
    Retry911,
    /// No protocol timer due.
    Idle,
}

/// Message handlers every role state must provide *by construction*.
///
/// The trait is sealed: exactly the four role states implement it, and a
/// new state cannot be added without answering every protocol message —
/// an unhandled 911 verdict or membership change in some state is a
/// missing-method compile error, not a runtime fall-through.
pub trait ProtocolState: sealed::Sealed + Sized {
    /// A token was accepted while in this state (the successor is always
    /// EATING; §2.2's HUNGRY → EATING edge, plus re-accept while EATING
    /// for false-alarm fork absorption).
    fn on_token_accept(self, token: Token, deadline: Time) -> Eating;
    /// A 911 GRANT verdict for request `req_id` arrived from `from`.
    fn on_grant(self, from: NodeId, req_id: u64) -> (Role, VerdictOutcome);
    /// A 911 DENY verdict for request `req_id` arrived.
    fn on_deny(self, req_id: u64, now: Time) -> (Role, VerdictOutcome);
    /// Failure-on-delivery of a 911 call to `to` — a failure detection of
    /// that member (§2.2) and thus a membership change for the vote.
    fn on_peer_failed(self, to: NodeId) -> (Role, VoteProgress);
    /// Does this state demonstrably hold the token? (Grounds for denying
    /// someone else's 911, §2.3.)
    fn holds_token(&self) -> bool;
}

impl Hungry {
    /// When the node went hungry.
    pub fn since(&self) -> Time {
        self.since
    }

    /// HUNGRY → STARVING with no membership to poll (join probing).
    pub fn starve_probe(self, retry_at: Time) -> Starving {
        Starving {
            vote: None,
            retry_at,
        }
    }

    /// HUNGRY → STARVING with a standing 911 vote over `awaiting`.
    pub fn starve_vote(self, req_id: u64, awaiting: BTreeSet<NodeId>, retry_at: Time) -> Starving {
        Starving {
            vote: Some(Vote911 {
                req_id,
                awaiting,
                excluded: Vec::new(),
            }),
            retry_at,
        }
    }

    /// HUNGRY → DOWN (shutdown without a token to hand off).
    pub fn shut_down(self) -> Down {
        Down { _sealed: () }
    }
}

impl ProtocolState for Hungry {
    fn on_token_accept(self, token: Token, deadline: Time) -> Eating {
        Eating { token, deadline }
    }
    fn on_grant(self, _from: NodeId, _req_id: u64) -> (Role, VerdictOutcome) {
        (Role::from(self), VerdictOutcome::Ignored)
    }
    fn on_deny(self, _req_id: u64, _now: Time) -> (Role, VerdictOutcome) {
        (Role::from(self), VerdictOutcome::Ignored)
    }
    fn on_peer_failed(self, _to: NodeId) -> (Role, VoteProgress) {
        (Role::from(self), VoteProgress::NotVoting)
    }
    fn holds_token(&self) -> bool {
        false
    }
}

impl Eating {
    /// The held token.
    pub fn token(&self) -> &Token {
        &self.token
    }

    /// The pass deadline (end of the token-hold budget).
    pub fn deadline(&self) -> Time {
        self.deadline
    }

    /// EATING → HUNGRY: hand the token out for forwarding. This is the
    /// *only* way to obtain the token for a send — no other state has it.
    pub fn pass(self, now: Time) -> (Token, Hungry) {
        (self.token, Hungry { since: now })
    }

    /// EATING → DOWN: shutdown surrenders the held token so the caller
    /// can hand it off cleanly before going dark.
    pub fn shut_down(self) -> (Token, Down) {
        (self.token, Down { _sealed: () })
    }

    /// False-alarm fork absorption (module docs of `node`): a second
    /// token converged on us; preserve any messages only our held copy
    /// had by moving them into `incoming` (dedup by key). Leaves the held
    /// message list empty — the caller re-accepts `incoming` right after.
    pub fn absorb_fork(&mut self, incoming: &mut Token) {
        for m in self.token.msgs.take_all() {
            if !incoming.msgs.iter().any(|x| x.key() == m.key()) {
                incoming.msgs.push(m);
            }
        }
    }
}

impl ProtocolState for Eating {
    fn on_token_accept(self, token: Token, deadline: Time) -> Eating {
        Eating { token, deadline }
    }
    fn on_grant(self, _from: NodeId, _req_id: u64) -> (Role, VerdictOutcome) {
        (Role::from(self), VerdictOutcome::Ignored)
    }
    fn on_deny(self, _req_id: u64, _now: Time) -> (Role, VerdictOutcome) {
        (Role::from(self), VerdictOutcome::Ignored)
    }
    fn on_peer_failed(self, _to: NodeId) -> (Role, VoteProgress) {
        (Role::from(self), VoteProgress::NotVoting)
    }
    fn holds_token(&self) -> bool {
        true
    }
}

impl Starving {
    /// The retry deadline.
    pub fn retry_at(&self) -> Time {
        self.retry_at
    }

    /// STARVING → HUNGRY: the vote was won (or is being force-completed
    /// by failure detections); surrender the exclusion list so the caller
    /// regenerates the token without the dead voters.
    pub fn win(self, now: Time) -> (Vec<NodeId>, Hungry) {
        let excluded = self.vote.map(|v| v.excluded).unwrap_or_default();
        (excluded, Hungry { since: now })
    }

    /// STARVING → DOWN.
    pub fn shut_down(self) -> Down {
        Down { _sealed: () }
    }
}

impl ProtocolState for Starving {
    fn on_token_accept(self, token: Token, deadline: Time) -> Eating {
        Eating { token, deadline }
    }

    fn on_grant(mut self, from: NodeId, req_id: u64) -> (Role, VerdictOutcome) {
        let Some(v) = self.vote.as_mut() else {
            // Join probing: replies are ignored, the join completes via
            // token delivery.
            return (Role::from(self), VerdictOutcome::Ignored);
        };
        if req_id != v.req_id {
            return (Role::from(self), VerdictOutcome::Ignored);
        }
        v.awaiting.remove(&from);
        let outcome = if v.awaiting.is_empty() {
            VerdictOutcome::Won
        } else {
            VerdictOutcome::Waiting
        };
        (Role::from(self), outcome)
    }

    fn on_deny(self, req_id: u64, now: Time) -> (Role, VerdictOutcome) {
        match &self.vote {
            Some(v) if v.req_id == req_id => {
                // Someone has a newer copy or the token itself; it (or
                // its holder) will keep the ring alive. Back to HUNGRY
                // with a fresh timeout.
                (Role::from(Hungry { since: now }), VerdictOutcome::Denied)
            }
            _ => (Role::from(self), VerdictOutcome::Ignored),
        }
    }

    fn on_peer_failed(mut self, to: NodeId) -> (Role, VoteProgress) {
        let Some(v) = self.vote.as_mut() else {
            return (Role::from(self), VoteProgress::NotVoting);
        };
        let was_awaiting = v.awaiting.remove(&to);
        if !v.excluded.contains(&to) {
            v.excluded.push(to);
        }
        let vote_complete = v.awaiting.is_empty();
        (
            Role::from(self),
            VoteProgress::Recorded {
                was_awaiting,
                vote_complete,
            },
        )
    }

    fn holds_token(&self) -> bool {
        false
    }
}

impl ProtocolState for Down {
    fn on_token_accept(self, token: Token, deadline: Time) -> Eating {
        // Unreachable in practice: the node gates every input on
        // `is_down`. Typing it as a transition keeps the trait total; a
        // resurrecting driver would simply start eating.
        Eating { token, deadline }
    }
    fn on_grant(self, _from: NodeId, _req_id: u64) -> (Role, VerdictOutcome) {
        (Role::from(self), VerdictOutcome::Ignored)
    }
    fn on_deny(self, _req_id: u64, _now: Time) -> (Role, VerdictOutcome) {
        (Role::from(self), VerdictOutcome::Ignored)
    }
    fn on_peer_failed(self, _to: NodeId) -> (Role, VoteProgress) {
        (Role::from(self), VoteProgress::NotVoting)
    }
    fn holds_token(&self) -> bool {
        false
    }
}

/// The four role states, erased for storage in [`crate::node::SessionNode`].
///
/// Private on purpose: pattern-matching raw states outside this module is
/// exactly the ad-hoc dispatch the typestate refactor retired.
#[derive(Debug)]
enum RoleInner {
    Hungry(Hungry),
    Eating(Eating),
    Starving(Starving),
    Down(Down),
}

/// Driver-facing wrapper over the typed role states.
///
/// [`crate::node::SessionNode`] needs to hold "whichever state the node is
/// in"; `Role` stores that erased, but every mutation routes through the
/// consuming typed transitions, so the set of reachable state changes is
/// exactly the typed edges.
#[derive(Debug)]
pub struct Role {
    inner: RoleInner,
}

impl From<Hungry> for Role {
    fn from(s: Hungry) -> Role {
        Role {
            inner: RoleInner::Hungry(s),
        }
    }
}
impl From<Eating> for Role {
    fn from(s: Eating) -> Role {
        Role {
            inner: RoleInner::Eating(s),
        }
    }
}
impl From<Starving> for Role {
    fn from(s: Starving) -> Role {
        Role {
            inner: RoleInner::Starving(s),
        }
    }
}
impl From<Down> for Role {
    fn from(s: Down) -> Role {
        Role {
            inner: RoleInner::Down(s),
        }
    }
}

impl Role {
    /// A fresh HUNGRY role (the initial state of every node).
    pub fn hungry(now: Time) -> Role {
        Role::from(Hungry { since: now })
    }

    fn inner(&self) -> &RoleInner {
        &self.inner
    }

    /// Applies a typed transition to the current state, storing whatever
    /// role it returns. The inert DOWN state stands in while the
    /// transition runs (no `Option`, no unwrap); the successor replaces
    /// it before returning, and a panic inside `f` leaves the role
    /// safely DOWN rather than poisoned.
    fn step<T>(&mut self, f: impl FnOnce(RoleInner) -> (Role, T)) -> T {
        let cur = std::mem::replace(&mut self.inner, RoleInner::Down(Down { _sealed: () }));
        let (next, out) = f(cur);
        self.inner = next.inner;
        out
    }

    /// Current state name, for traces and tests.
    pub fn name(&self) -> &'static str {
        match self.inner() {
            RoleInner::Hungry(_) => "HUNGRY",
            RoleInner::Eating(_) => "EATING",
            RoleInner::Starving(_) => "STARVING",
            RoleInner::Down(_) => "DOWN",
        }
    }

    /// True while the node holds the token (EATING, §2.2).
    pub fn is_eating(&self) -> bool {
        matches!(self.inner(), RoleInner::Eating(_))
    }

    /// True once the node has shut itself down.
    pub fn is_down(&self) -> bool {
        matches!(self.inner(), RoleInner::Down(_))
    }

    /// Does the current state demonstrably hold the token? (Dispatches
    /// the per-state [`ProtocolState::holds_token`] handler.)
    pub fn holds_token(&self) -> bool {
        match self.inner() {
            RoleInner::Hungry(s) => s.holds_token(),
            RoleInner::Eating(s) => s.holds_token(),
            RoleInner::Starving(s) => s.holds_token(),
            RoleInner::Down(s) => s.holds_token(),
        }
    }

    /// When the node went hungry, if it is HUNGRY (feeds the hungry-wait
    /// histogram on token acceptance).
    pub fn hungry_since(&self) -> Option<Time> {
        match self.inner() {
            RoleInner::Hungry(s) => Some(s.since()),
            _ => None,
        }
    }

    /// The token-hold deadline, if EATING (feeds the hold-lateness
    /// histogram when the token is passed).
    pub fn hold_deadline(&self) -> Option<Time> {
        match self.inner() {
            RoleInner::Eating(s) => Some(s.deadline()),
            _ => None,
        }
    }

    /// Which protocol timer fired at `now`, if any.
    pub fn timer(&self, now: Time, hungry_timeout: Duration, master_held: bool) -> TimerFired {
        match self.inner() {
            RoleInner::Eating(s) => {
                if now >= s.deadline() && !master_held {
                    TimerFired::PassToken
                } else {
                    TimerFired::Idle
                }
            }
            RoleInner::Hungry(s) => {
                if now.since(s.since()) >= hungry_timeout {
                    TimerFired::Starve
                } else {
                    TimerFired::Idle
                }
            }
            RoleInner::Starving(s) => {
                if now >= s.retry_at() {
                    TimerFired::Retry911
                } else {
                    TimerFired::Idle
                }
            }
            RoleInner::Down(_) => TimerFired::Idle,
        }
    }

    /// The next protocol deadline of the current state, if any.
    pub fn next_deadline(&self, hungry_timeout: Duration, master_held: bool) -> Option<Time> {
        match self.inner() {
            RoleInner::Eating(s) => (!master_held).then(|| s.deadline()),
            RoleInner::Hungry(s) => Some(s.since() + hungry_timeout),
            RoleInner::Starving(s) => Some(s.retry_at()),
            RoleInner::Down(_) => None,
        }
    }

    /// Accepts a token: any state → EATING via the per-state
    /// [`ProtocolState::on_token_accept`] handler.
    pub fn accept_token(&mut self, token: Token, deadline: Time) {
        self.step(|cur| {
            let eating = match cur {
                RoleInner::Hungry(s) => s.on_token_accept(token, deadline),
                RoleInner::Eating(s) => s.on_token_accept(token, deadline),
                RoleInner::Starving(s) => s.on_token_accept(token, deadline),
                RoleInner::Down(s) => s.on_token_accept(token, deadline),
            };
            (Role::from(eating), ())
        })
    }

    /// EATING → HUNGRY: takes the held token out for forwarding (or for
    /// an immediate merge). `None` — and no state change — otherwise.
    pub fn take_token(&mut self, now: Time) -> Option<Token> {
        self.step(|cur| match cur {
            RoleInner::Eating(s) => {
                let (token, hungry) = s.pass(now);
                (Role::from(hungry), Some(token))
            }
            other => (Role { inner: other }, None),
        })
    }

    /// If EATING, absorbs a false-alarm fork: moves messages only the
    /// held token had into `incoming` (see [`Eating::absorb_fork`]).
    pub fn absorb_fork(&mut self, incoming: &mut Token) {
        if let RoleInner::Eating(s) = &mut self.inner {
            s.absorb_fork(incoming);
        }
    }

    /// If EATING, removes a failed member from the held token's
    /// membership (aggressive failure detection on a stale pass).
    pub fn remove_from_held(&mut self, node: NodeId) {
        if let RoleInner::Eating(s) = &mut self.inner {
            s.token.ring.remove(node);
        }
    }

    /// Re-arms HUNGRY with a fresh `since`. Used after handing the token
    /// to the transport (the pass is in flight) and on the
    /// failure-on-delivery resend path, where a node that had already
    /// moved to STARVING reclaims forwarding responsibility.
    pub fn rearm_hungry(&mut self, now: Time) {
        self.step(|_| (Role::hungry(now), ()));
    }

    /// HUNGRY/STARVING → STARVING with no vote (join probing).
    pub fn begin_starving_probe(&mut self, retry_at: Time) {
        self.step(|cur| {
            let s = match cur {
                RoleInner::Hungry(h) => h.starve_probe(retry_at),
                RoleInner::Starving(_) => Starving {
                    vote: None,
                    retry_at,
                },
                other => {
                    debug_assert!(false, "begin_starving_probe from {other:?}");
                    return (Role { inner: other }, ());
                }
            };
            (Role::from(s), ())
        })
    }

    /// HUNGRY/STARVING → STARVING with a standing vote over `awaiting`.
    pub fn begin_starving_vote(&mut self, req_id: u64, awaiting: BTreeSet<NodeId>, retry_at: Time) {
        self.step(|cur| {
            let s = match cur {
                RoleInner::Hungry(h) => h.starve_vote(req_id, awaiting, retry_at),
                RoleInner::Starving(_) => Starving {
                    vote: Some(Vote911 {
                        req_id,
                        awaiting,
                        excluded: Vec::new(),
                    }),
                    retry_at,
                },
                other => {
                    debug_assert!(false, "begin_starving_vote from {other:?}");
                    return (Role { inner: other }, ());
                }
            };
            (Role::from(s), ())
        })
    }

    /// The standing vote's request id and still-awaiting voters, if the
    /// node is STARVING with an unanswered ballot (drives the 911
    /// retransmission path).
    pub fn standing_vote(&self) -> Option<(u64, Vec<NodeId>)> {
        match self.inner() {
            RoleInner::Starving(Starving { vote: Some(v), .. }) if !v.awaiting.is_empty() => {
                Some((v.req_id, v.awaiting.iter().copied().collect()))
            }
            _ => None,
        }
    }

    /// Pushes the STARVING retry deadline (after a retransmission).
    pub fn rearm_starving(&mut self, retry_at: Time) {
        if let RoleInner::Starving(s) = &mut self.inner {
            s.retry_at = retry_at;
        }
    }

    /// Routes a 911 verdict to the current state's handler.
    pub fn on_verdict(
        &mut self,
        from: NodeId,
        req_id: u64,
        verdict: &Verdict911,
        now: Time,
    ) -> VerdictOutcome {
        self.step(|cur| match (cur, verdict) {
            (RoleInner::Hungry(s), Verdict911::Grant) => s.on_grant(from, req_id),
            (RoleInner::Hungry(s), Verdict911::Deny { .. }) => s.on_deny(req_id, now),
            (RoleInner::Eating(s), Verdict911::Grant) => s.on_grant(from, req_id),
            (RoleInner::Eating(s), Verdict911::Deny { .. }) => s.on_deny(req_id, now),
            (RoleInner::Starving(s), Verdict911::Grant) => s.on_grant(from, req_id),
            (RoleInner::Starving(s), Verdict911::Deny { .. }) => s.on_deny(req_id, now),
            (RoleInner::Down(s), Verdict911::Grant) => s.on_grant(from, req_id),
            (RoleInner::Down(s), Verdict911::Deny { .. }) => s.on_deny(req_id, now),
        })
    }

    /// Routes a failure-on-delivery of a 911 call to the current state's
    /// handler.
    pub fn vote_peer_failed(&mut self, to: NodeId) -> VoteProgress {
        self.step(|cur| match cur {
            RoleInner::Hungry(s) => s.on_peer_failed(to),
            RoleInner::Eating(s) => s.on_peer_failed(to),
            RoleInner::Starving(s) => s.on_peer_failed(to),
            RoleInner::Down(s) => s.on_peer_failed(to),
        })
    }

    /// STARVING → HUNGRY: the vote was won; returns the members excluded
    /// by failure detections during the vote. `None` — and no state
    /// change — if the node is not STARVING.
    pub fn win_vote(&mut self, now: Time) -> Option<Vec<NodeId>> {
        self.step(|cur| match cur {
            RoleInner::Starving(s) => {
                let (excluded, hungry) = s.win(now);
                (Role::from(hungry), Some(excluded))
            }
            other => (Role { inner: other }, None),
        })
    }

    /// Any state → DOWN. Returns the held token if the node was EATING so
    /// the caller can hand it off cleanly before going dark.
    pub fn shut_down(&mut self) -> Option<Token> {
        self.step(|cur| {
            let token = match cur {
                RoleInner::Eating(s) => {
                    let (token, _down) = s.shut_down();
                    Some(token)
                }
                RoleInner::Hungry(s) => {
                    let _ = s.shut_down();
                    None
                }
                RoleInner::Starving(s) => {
                    let _ = s.shut_down();
                    None
                }
                RoleInner::Down(_) => None,
            };
            (Role::from(Down { _sealed: () }), token)
        })
    }

    /// Digests the role state for the model checker's canonical state
    /// fingerprint. Times are digested relative to `now`; the vote's
    /// member sets are digested in canonical id order so symmetric votes
    /// merge.
    pub fn digest_into(&self, d: &mut StateDigest, now: Time) {
        match self.inner() {
            RoleInner::Hungry(s) => {
                d.tag(0);
                d.time_rel(s.since, now);
            }
            RoleInner::Eating(s) => {
                d.tag(1);
                use raincore_types::digest::DigestInto;
                s.token.digest_into(d);
                d.time_rel(s.deadline, now);
            }
            RoleInner::Starving(s) => {
                d.tag(2);
                d.time_rel(s.retry_at, now);
                match &s.vote {
                    None => d.tag(0),
                    Some(v) => {
                        d.tag(1);
                        d.write_u64(v.req_id);
                        let mut awaiting: Vec<NodeId> = v.awaiting.iter().copied().collect();
                        awaiting.sort_by(|a, b| d.canon_cmp(*a, *b));
                        d.write_len(awaiting.len());
                        for n in awaiting {
                            d.node(n);
                        }
                        // Exclusions act as a set (each is removed from
                        // the regenerated ring); digest order-insensitive.
                        let mut excluded = v.excluded.clone();
                        excluded.sort_by(|a, b| d.canon_cmp(*a, *b));
                        d.write_len(excluded.len());
                        for n in excluded {
                            d.node(n);
                        }
                    }
                }
            }
            RoleInner::Down(_) => d.tag(3),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raincore_types::Ring;

    fn token() -> Token {
        Token::founding(Ring::from([0, 1, 2]))
    }

    #[test]
    fn typed_pass_is_the_only_token_exit() {
        let mut r = Role::hungry(Time(0));
        assert_eq!(r.take_token(Time(1)), None, "HUNGRY holds no token");
        r.accept_token(token(), Time(5));
        assert!(r.is_eating());
        assert_eq!(r.hold_deadline(), Some(Time(5)));
        let t = r.take_token(Time(5)).expect("EATING hands the token out");
        assert_eq!(t.ring.len(), 3);
        assert_eq!(r.name(), "HUNGRY");
        assert_eq!(r.hungry_since(), Some(Time(5)));
    }

    #[test]
    fn verdicts_ignored_outside_a_vote() {
        let mut r = Role::hungry(Time(0));
        assert_eq!(
            r.on_verdict(NodeId(1), 7, &Verdict911::Grant, Time(0)),
            VerdictOutcome::Ignored
        );
        r.begin_starving_probe(Time(10));
        assert_eq!(
            r.on_verdict(NodeId(1), 7, &Verdict911::Grant, Time(0)),
            VerdictOutcome::Ignored,
            "probing starvation has no ballot"
        );
        assert_eq!(r.name(), "STARVING");
    }

    #[test]
    fn vote_wins_when_every_grant_lands() {
        let mut r = Role::hungry(Time(0));
        r.begin_starving_vote(3, BTreeSet::from([NodeId(1), NodeId(2)]), Time(40));
        assert_eq!(
            r.on_verdict(NodeId(1), 99, &Verdict911::Grant, Time(1)),
            VerdictOutcome::Ignored,
            "stale req id"
        );
        assert_eq!(
            r.on_verdict(NodeId(1), 3, &Verdict911::Grant, Time(1)),
            VerdictOutcome::Waiting
        );
        assert_eq!(
            r.on_verdict(NodeId(2), 3, &Verdict911::Grant, Time(2)),
            VerdictOutcome::Won
        );
        assert_eq!(
            r.name(),
            "STARVING",
            "winning leaves regeneration to the caller"
        );
        assert_eq!(r.win_vote(Time(2)), Some(vec![]));
        assert_eq!(r.name(), "HUNGRY");
    }

    #[test]
    fn deny_rearms_hungry() {
        let mut r = Role::hungry(Time(0));
        r.begin_starving_vote(4, BTreeSet::from([NodeId(1)]), Time(40));
        assert_eq!(
            r.on_verdict(NodeId(1), 4, &Verdict911::Deny { newer_seq: 9 }, Time(7)),
            VerdictOutcome::Denied
        );
        assert_eq!(r.name(), "HUNGRY");
        assert_eq!(r.hungry_since(), Some(Time(7)));
    }

    #[test]
    fn failed_voters_complete_the_ballot() {
        let mut r = Role::hungry(Time(0));
        r.begin_starving_vote(5, BTreeSet::from([NodeId(1), NodeId(2)]), Time(40));
        assert_eq!(
            r.vote_peer_failed(NodeId(2)),
            VoteProgress::Recorded {
                was_awaiting: true,
                vote_complete: false
            }
        );
        assert_eq!(
            r.vote_peer_failed(NodeId(2)),
            VoteProgress::Recorded {
                was_awaiting: false,
                vote_complete: false
            },
            "an already-struck voter still counts as recorded"
        );
        assert_eq!(
            r.vote_peer_failed(NodeId(1)),
            VoteProgress::Recorded {
                was_awaiting: true,
                vote_complete: true
            }
        );
        assert_eq!(
            r.win_vote(Time(9)),
            Some(vec![NodeId(2), NodeId(1)]),
            "exclusions in detection order"
        );
    }

    #[test]
    fn shutdown_surrenders_the_token_only_when_eating() {
        let mut r = Role::hungry(Time(0));
        assert_eq!(r.shut_down(), None);
        assert!(r.is_down());
        let mut r = Role::hungry(Time(0));
        r.accept_token(token(), Time(5));
        assert!(r.shut_down().is_some());
        assert!(r.is_down());
        assert_eq!(r.shut_down(), None, "already down");
    }

    #[test]
    fn timers_fire_per_state() {
        let ht = Duration(100);
        let mut r = Role::hungry(Time(0));
        assert_eq!(r.timer(Time(99), ht, false), TimerFired::Idle);
        assert_eq!(r.timer(Time(100), ht, false), TimerFired::Starve);
        r.accept_token(token(), Time(10));
        assert_eq!(r.timer(Time(10), ht, false), TimerFired::PassToken);
        assert_eq!(
            r.timer(Time(10), ht, true),
            TimerFired::Idle,
            "master lock pins"
        );
        assert_eq!(r.next_deadline(ht, false), Some(Time(10)));
        assert_eq!(r.next_deadline(ht, true), None);
        let _ = r.take_token(Time(10));
        r.begin_starving_probe(Time(50));
        assert_eq!(r.timer(Time(49), ht, false), TimerFired::Idle);
        assert_eq!(r.timer(Time(50), ht, false), TimerFired::Retry911);
    }

    #[test]
    fn digest_distinguishes_states_and_merges_time_shifts() {
        use raincore_types::StateDigest;
        let fp = |r: &Role, now: Time| {
            let mut d = StateDigest::identity();
            r.digest_into(&mut d, now);
            d.finish()
        };
        let h0 = Role::hungry(Time(0));
        let h5 = Role::hungry(Time(5));
        assert_eq!(
            fp(&h0, Time(3)),
            fp(&h5, Time(8)),
            "same hungry age at different absolute times"
        );
        let mut e = Role::hungry(Time(0));
        e.accept_token(token(), Time(5));
        assert_ne!(fp(&h0, Time(3)), fp(&e, Time(3)));
    }
}
