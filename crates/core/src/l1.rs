//! **Algorithm L1** — Lamport's mutual exclusion executed directly on the
//! mobile hosts (the baseline of Section 3.1.1).
//!
//! Each of the `N` participating MHs keeps a logical clock and a replicated
//! request queue. To enter the critical section a participant broadcasts a
//! timestamped `Request` to the other `N − 1` participants, waits for a
//! message with a larger timestamp from each of them, and enters when its
//! request heads the queue. On exit it broadcasts `Release`.
//!
//! Every message travels MH→MH, costing `2·C_wireless + C_search` and
//! draining battery at both endpoints — the paper's argument for why the
//! overall cost is `3(N−1)(2·C_wireless + C_search)` per execution with
//! energy proportional to `6(N−1)`, and why the algorithm has no answer to
//! disconnection (the run simply stalls).
//!
//! Each participant's state is indexed by participant position, so a
//! received message costs O(1) apart from the queue update: `last_seen` and
//! `queued` rows hold each peer's latest timestamp and queued request, and a
//! counter of peers already heard from "later" than the own request turns
//! the grant condition into one comparison.
//!
//! Grant keys pack a timestamp as `counter << 16 | process`, so participant
//! ids must be below 2¹⁶ ([`L1::new`] checks this).

use crate::algorithm::{AlgoCtx, MutexAlgorithm};
use mobidist_clock::{LamportClock, Timestamp};
use mobidist_net::ids::{MhId, MssId};
use mobidist_net::proto::Src;
use std::collections::BTreeSet;

/// L1 protocol messages (all MH→MH).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L1Msg {
    /// Timestamped request for the critical section.
    Request(Timestamp),
    /// Acknowledgement carrying the replier's clock.
    Reply(Timestamp),
    /// The sender has left the critical section.
    Release(Timestamp),
}

impl L1Msg {
    fn timestamp(&self) -> Timestamp {
        match *self {
            L1Msg::Request(t) | L1Msg::Reply(t) | L1Msg::Release(t) => t,
        }
    }
}

/// Per-participant replicated state (lives *on the MH*, which is exactly the
/// paper's objection). The two rows are indexed by peer position and stay
/// empty until the participant first hears from a peer.
#[derive(Debug)]
struct Participant {
    clock: LamportClock,
    /// The replicated request queue: totally ordered by timestamp.
    queue: BTreeSet<(Timestamp, MhId)>,
    /// Largest timestamp seen from each peer.
    last_seen: Vec<Option<Timestamp>>,
    /// Each peer's queued request, so a `Release` removes it without a scan.
    queued: Vec<Option<Timestamp>>,
    /// Queue entries `queued` does not point at. A `Release` the transport
    /// cancelled (this MH was disconnected) leaves the peer's old request
    /// behind its next one; the peer's next `Release` removes both.
    stale: usize,
    /// Own outstanding request, if any.
    own: Option<Timestamp>,
    /// Peers whose `last_seen` exceeds `own`.
    later: usize,
    granted: bool,
}

impl Participant {
    /// Records a message from the peer at position `from` and keeps
    /// `later` current.
    fn note_seen(&mut self, peers: usize, from: usize, ts: Timestamp) {
        if self.last_seen.is_empty() {
            self.last_seen = vec![None; peers];
            self.queued = vec![None; peers];
        }
        let seen = &mut self.last_seen[from];
        if seen.is_some_and(|s| s >= ts) {
            return;
        }
        if let Some(own) = self.own {
            if ts > own && seen.is_none_or(|s| s <= own) {
                self.later += 1;
            }
        }
        *seen = Some(ts);
    }
}

/// Lamport's algorithm on mobile hosts. See the module docs.
#[derive(Debug)]
pub struct L1 {
    participants: Vec<MhId>,
    /// Participant position by `MhId` index.
    position: Vec<Option<u32>>,
    state: Vec<Participant>,
}

impl L1 {
    /// Creates an instance over the given participant set.
    ///
    /// # Panics
    ///
    /// Panics if `participants` is empty, names an MH twice, or names an MH
    /// whose id is not below 2¹⁶ (the grant key's tiebreak field).
    pub fn new(participants: Vec<MhId>) -> Self {
        assert!(
            !participants.is_empty(),
            "L1 needs at least one participant"
        );
        let mut position = Vec::new();
        for (i, mh) in participants.iter().enumerate() {
            assert!(mh.0 < 1 << 16, "L1 participant ids must be below 2^16");
            if position.len() <= mh.index() {
                position.resize(mh.index() + 1, None);
            }
            assert!(
                position[mh.index()].replace(i as u32).is_none(),
                "L1 participants must be distinct"
            );
        }
        let state = participants
            .iter()
            .map(|mh| Participant {
                clock: LamportClock::new(mh.0),
                queue: BTreeSet::new(),
                last_seen: Vec::new(),
                queued: Vec::new(),
                stale: 0,
                own: None,
                later: 0,
                granted: false,
            })
            .collect();
        L1 {
            participants,
            position,
            state,
        }
    }

    /// The participant set.
    pub fn participants(&self) -> &[MhId] {
        &self.participants
    }

    fn position(&self, mh: MhId) -> usize {
        self.position
            .get(mh.index())
            .copied()
            .flatten()
            .expect("known participant") as usize
    }

    /// Sends `msg` from the participant at position `me` to every other
    /// participant, in participant order.
    fn broadcast(&self, ctx: &mut AlgoCtx<'_, '_, L1Msg, ()>, me: usize, msg: L1Msg) {
        let src = self.participants[me];
        for (j, &dst) in self.participants.iter().enumerate() {
            if j != me {
                // Each is an MH→MH message: 2·C_wireless + C_search.
                let _ = ctx.mh_send_to_mh(src, dst, msg);
            }
        }
    }

    /// Lamport's grant condition: own request heads the queue and a message
    /// with a larger timestamp has arrived from every other participant.
    fn try_grant(&mut self, ctx: &mut AlgoCtx<'_, '_, L1Msg, ()>, me: usize) {
        let mh = self.participants[me];
        let p = &mut self.state[me];
        let Some(own_ts) = p.own else { return };
        if p.granted || p.later + 1 != self.participants.len() {
            return;
        }
        if p.queue.first() != Some(&(own_ts, mh)) {
            return;
        }
        p.granted = true;
        ctx.grant_with_key(mh, own_ts.counter << 16 | u64::from(own_ts.process));
    }
}

impl MutexAlgorithm for L1 {
    type Msg = L1Msg;
    type Timer = ();

    fn name(&self) -> &'static str {
        "L1"
    }

    fn request(&mut self, ctx: &mut AlgoCtx<'_, '_, L1Msg, ()>, mh: MhId) {
        let me = self.position(mh);
        let p = &mut self.state[me];
        debug_assert!(p.own.is_none(), "one outstanding request per MH");
        let ts = p.clock.tick();
        p.own = Some(ts);
        p.granted = false;
        p.queue.insert((ts, mh));
        p.later = p
            .last_seen
            .iter()
            .filter(|s| s.is_some_and(|s| s > ts))
            .count();
        self.broadcast(ctx, me, L1Msg::Request(ts));
        self.try_grant(ctx, me);
    }

    fn release(&mut self, ctx: &mut AlgoCtx<'_, '_, L1Msg, ()>, mh: MhId) {
        let me = self.position(mh);
        let p = &mut self.state[me];
        let Some(own_ts) = p.own.take() else { return };
        p.granted = false;
        p.queue.remove(&(own_ts, mh));
        let ts = p.clock.tick();
        self.broadcast(ctx, me, L1Msg::Release(ts));
    }

    fn on_mss_msg(&mut self, _: &mut AlgoCtx<'_, '_, L1Msg, ()>, _: MssId, _: Src, _: L1Msg) {
        unreachable!("L1 exchanges messages only between mobile hosts");
    }

    fn on_mh_msg(&mut self, ctx: &mut AlgoCtx<'_, '_, L1Msg, ()>, at: MhId, src: Src, msg: L1Msg) {
        let from = src.as_mh().expect("L1 peers are MHs");
        let (me, f) = (self.position(at), self.position(from));
        let peers = self.participants.len();
        let p = &mut self.state[me];
        let ts = msg.timestamp();
        p.note_seen(peers, f, ts);
        p.clock.witness(ts);
        match msg {
            L1Msg::Request(req_ts) => {
                p.queue.insert((req_ts, from));
                if p.queued[f].replace(req_ts).is_some() {
                    p.stale += 1;
                }
                let reply_ts = p.clock.tick();
                let _ = ctx.mh_send_to_mh(at, from, L1Msg::Reply(reply_ts));
            }
            L1Msg::Reply(_) => {}
            L1Msg::Release(_) => {
                // Remove the releaser's queued request(s).
                if let Some(req_ts) = p.queued[f].take() {
                    p.queue.remove(&(req_ts, from));
                    if p.stale > 0 {
                        let before = p.queue.len();
                        p.queue.retain(|&(_, who)| who != from);
                        p.stale -= before - p.queue.len();
                    }
                }
            }
        }
        self.try_grant(ctx, me);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn participants_are_recorded() {
        let l1 = L1::new(vec![MhId(2), MhId(5), MhId(7)]);
        assert_eq!(l1.participants(), &[MhId(2), MhId(5), MhId(7)]);
        assert_eq!(l1.position(MhId(5)), 1);
        assert_eq!(l1.name(), "L1");
    }

    #[test]
    #[should_panic(expected = "at least one participant")]
    fn empty_participants_rejected() {
        let _ = L1::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "below 2^16")]
    fn participant_ids_must_fit_the_grant_key() {
        // Equal-counter requests from MhId(1) and MhId(1 + 2^16) would get
        // keys ordered by the truncated tiebreak, not the timestamp.
        let _ = L1::new(vec![MhId(1), MhId(1 << 16)]);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn duplicate_participants_rejected() {
        let _ = L1::new(vec![MhId(3), MhId(3)]);
    }

    #[test]
    fn message_timestamps_extracted() {
        let ts = Timestamp::new(4, 1);
        assert_eq!(L1Msg::Request(ts).timestamp(), ts);
        assert_eq!(L1Msg::Reply(ts).timestamp(), ts);
        assert_eq!(L1Msg::Release(ts).timestamp(), ts);
    }
}
