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
//! Timestamps are stored as packed keys, `counter << 16 | process` in a
//! `u64` with 0 meaning none: the rows, the request queue and the grant key
//! all use the same word. A clock's process is its MH's id, which
//! [`L1::new`] checks is below 2¹⁶, so key order is exactly
//! `(Timestamp, MhId)` order.

use crate::algorithm::{AlgoCtx, MutexAlgorithm};
use mobidist_clock::{LamportClock, Timestamp};
use mobidist_net::ids::{MhId, MssId};
use mobidist_net::proto::Src;
use std::collections::BTreeSet;

/// Packs `ts` into its key: counter above, process in the low 16 bits.
/// Every key is nonzero, because a clock's counter is at least 1 once it
/// has stamped anything.
fn key(ts: Timestamp) -> u64 {
    debug_assert!(ts.counter < 1 << 48, "L1 clock counter overflows its key");
    debug_assert!(ts.process < 1 << 16);
    ts.counter << 16 | u64::from(ts.process)
}

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
/// paper's objection). Timestamps are packed [`key`]s, 0 meaning none. The
/// two rows are indexed by peer position and stay empty until the
/// participant first hears from a peer.
#[derive(Debug)]
struct Participant {
    clock: LamportClock,
    /// The replicated request queue: totally ordered by timestamp.
    queue: BTreeSet<u64>,
    /// Largest timestamp seen from each peer.
    last_seen: Vec<u64>,
    /// Each peer's queued request, so a `Release` removes it without a scan.
    queued: Vec<u64>,
    /// Queue entries `queued` does not point at. A `Release` the transport
    /// cancelled (this MH was disconnected) leaves the peer's old request
    /// behind its next one; the peer's next `Release` removes both.
    stale: usize,
    /// Own outstanding request.
    own: u64,
    /// Peers whose `last_seen` exceeds `own`.
    later: usize,
    granted: bool,
}

impl Participant {
    /// Records a message stamped `ts` from the peer at position `from` and
    /// keeps `later` current.
    fn note_seen(&mut self, peers: usize, from: usize, ts: u64) {
        if self.last_seen.is_empty() {
            self.last_seen = vec![0; peers];
            self.queued = vec![0; peers];
        }
        let seen = &mut self.last_seen[from];
        if *seen >= ts {
            return;
        }
        if self.own != 0 && ts > self.own && *seen <= self.own {
            self.later += 1;
        }
        *seen = ts;
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
                own: 0,
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
        if p.own == 0 || p.granted || p.later + 1 != self.participants.len() {
            return;
        }
        if p.queue.first() != Some(&p.own) {
            return;
        }
        p.granted = true;
        ctx.grant_with_key(mh, p.own);
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
        debug_assert!(p.own == 0, "one outstanding request per MH");
        let ts = p.clock.tick();
        let own = key(ts);
        p.own = own;
        p.granted = false;
        p.queue.insert(own);
        p.later = p.last_seen.iter().filter(|&&s| s > own).count();
        self.broadcast(ctx, me, L1Msg::Request(ts));
        self.try_grant(ctx, me);
    }

    fn release(&mut self, ctx: &mut AlgoCtx<'_, '_, L1Msg, ()>, mh: MhId) {
        let me = self.position(mh);
        let p = &mut self.state[me];
        let own = std::mem::take(&mut p.own);
        if own == 0 {
            return;
        }
        p.granted = false;
        p.queue.remove(&own);
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
        p.note_seen(peers, f, key(ts));
        p.clock.witness(ts);
        match msg {
            L1Msg::Request(req_ts) => {
                debug_assert_eq!(
                    req_ts.process, from.0,
                    "a request carries its sender's clock"
                );
                let req = key(req_ts);
                p.queue.insert(req);
                if std::mem::replace(&mut p.queued[f], req) != 0 {
                    p.stale += 1;
                }
                let reply_ts = p.clock.tick();
                let _ = ctx.mh_send_to_mh(at, from, L1Msg::Reply(reply_ts));
            }
            L1Msg::Reply(_) => {}
            L1Msg::Release(_) => {
                // Remove the releaser's queued request(s).
                let req = std::mem::take(&mut p.queued[f]);
                if req != 0 {
                    p.queue.remove(&req);
                    if p.stale > 0 {
                        let before = p.queue.len();
                        p.queue.retain(|&k| k & 0xffff != u64::from(from.0));
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
    fn key_order_is_timestamp_order() {
        let ts = [
            Timestamp::new(1, 0),
            Timestamp::new(1, 9),
            Timestamp::new(2, 0),
            Timestamp::new(2, 65_535),
            Timestamp::new(3, 1),
        ];
        for w in ts.windows(2) {
            assert!(key(w[0]) < key(w[1]), "{} vs {}", w[0], w[1]);
        }
        assert!(ts.iter().all(|&t| key(t) != 0), "0 means none");
    }

    #[test]
    fn message_timestamps_extracted() {
        let ts = Timestamp::new(4, 1);
        assert_eq!(L1Msg::Request(ts).timestamp(), ts);
        assert_eq!(L1Msg::Reply(ts).timestamp(), ts);
        assert_eq!(L1Msg::Release(ts).timestamp(), ts);
    }
}
