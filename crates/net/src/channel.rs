//! FIFO channel machinery.
//!
//! The system model requires: reliable FIFO delivery between any two MSSs
//! (with arbitrary latency), FIFO delivery on each wireless channel between
//! an MSS and a local MH, and — for algorithms like L1 that run directly on
//! MHs — a *logical* FIFO channel between any pair of MHs regardless of
//! location. The first two are enforced by [`FifoChains`]: a delivery may
//! never be scheduled before the previous delivery on the same directed
//! channel. The third is enforced end-to-end by [`ReorderBuffers`], which
//! releases MH→MH messages to the destination in send order even when
//! re-searches make them arrive out of order. The paper calls this an
//! "additional burden on the underlying network protocols" of L1; the buffer
//! occupancy counter quantifies it.

use crate::hash::FxHashMap;
use crate::ids::{MhId, MssId};
use crate::time::SimTime;
use std::collections::{BTreeMap, BTreeSet};

/// A directed channel on which FIFO order must hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChainKey {
    /// Wired channel between two MSSs (directed).
    Fixed(MssId, MssId),
    /// Wireless downlink from an MSS to a local MH.
    Down(MssId, MhId),
    /// Wireless uplink from an MH to its local MSS.
    Up(MhId, MssId),
}

/// Tracks the last scheduled delivery per directed channel and clamps new
/// deliveries to preserve FIFO order.
///
/// Storage is three flat arrays indexed by topology, not a hash map — the
/// schedule/reset pair sits on the per-message hot path:
///
/// * `Fixed(a, b)` → `fixed[a * num_mss + b]` (every directed MSS pair);
/// * `Down(_, mh)` → `down[mh]` and `Up(mh, _)` → `up[mh]`: at any instant
///   an MH has at most one live wireless channel in each direction (to its
///   serving cell), and the kernel resets both chains whenever the MH leaves
///   or disconnects, so one slot per MH per direction is exact.
///
/// `SimTime::ZERO` is the "no history" sentinel; it never clamps, because no
/// delivery can be scheduled before the epoch.
///
/// # Examples
///
/// ```
/// use mobidist_net::channel::{ChainKey, FifoChains};
/// use mobidist_net::ids::MssId;
/// use mobidist_net::time::SimTime;
///
/// let mut f = FifoChains::new(2, 2);
/// let k = ChainKey::Fixed(MssId(0), MssId(1));
/// let t1 = f.schedule(k, SimTime::from_ticks(10));
/// let t2 = f.schedule(k, SimTime::from_ticks(5)); // would overtake: clamped
/// assert!(t2 >= t1);
/// ```
#[derive(Debug, Clone)]
pub struct FifoChains {
    num_mss: usize,
    fixed: Vec<SimTime>,
    down: Vec<SimTime>,
    up: Vec<SimTime>,
    /// Channels currently holding a (nonzero) recorded delivery time.
    recorded: usize,
}

impl FifoChains {
    /// Creates chains for a topology of `num_mss` stations and `num_mh`
    /// hosts, all without history.
    pub fn new(num_mss: usize, num_mh: usize) -> Self {
        let mut f = FifoChains {
            num_mss: 0,
            fixed: Vec::new(),
            down: Vec::new(),
            up: Vec::new(),
            recorded: 0,
        };
        f.reset_topology(num_mss, num_mh);
        f
    }

    /// Clears all history and re-sizes for a (possibly different) topology,
    /// retaining the allocations when they already fit.
    pub fn reset_topology(&mut self, num_mss: usize, num_mh: usize) {
        self.num_mss = num_mss;
        self.fixed.clear();
        self.fixed.resize(num_mss * num_mss, SimTime::ZERO);
        self.down.clear();
        self.down.resize(num_mh, SimTime::ZERO);
        self.up.clear();
        self.up.resize(num_mh, SimTime::ZERO);
        self.recorded = 0;
    }

    #[inline]
    fn slot_mut(&mut self, key: ChainKey) -> &mut SimTime {
        match key {
            ChainKey::Fixed(a, b) => &mut self.fixed[a.index() * self.num_mss + b.index()],
            ChainKey::Down(_, mh) => &mut self.down[mh.index()],
            ChainKey::Up(mh, _) => &mut self.up[mh.index()],
        }
    }

    /// Returns the actual delivery time for a message that would naively
    /// arrive at `earliest`, clamping so it cannot overtake the previous
    /// message on the same channel, and records it.
    pub fn schedule(&mut self, key: ChainKey, earliest: SimTime) -> SimTime {
        let slot = self.slot_mut(key);
        let prev = *slot;
        let t = if prev > earliest { prev } else { earliest };
        *slot = t;
        if prev == SimTime::ZERO && t > SimTime::ZERO {
            self.recorded += 1;
        }
        t
    }

    /// Forgets a channel's history (used when an MH leaves a cell: the
    /// wireless channel to the old cell ceases to exist).
    pub fn reset(&mut self, key: ChainKey) {
        let slot = self.slot_mut(key);
        if *slot > SimTime::ZERO {
            *slot = SimTime::ZERO;
            self.recorded -= 1;
        }
    }

    /// Number of channels with recorded history.
    pub fn len(&self) -> usize {
        self.recorded
    }

    /// True when no channel has history.
    pub fn is_empty(&self) -> bool {
        self.recorded == 0
    }
}

/// Both ends' sequencing state for one (source MH, destination MH) pair:
/// the sender's counter and the receiver's next expected number share one
/// 16-byte map entry, so an in-order message touches one entry at each end.
#[derive(Debug, Clone, Copy, Default)]
struct Pair {
    /// Next sequence number the source assigns.
    next_tx: u64,
    /// Next sequence number the destination releases, with [`PARKED`] set
    /// while the pair has an entry in the side map of parked state.
    next_rx: u64,
}

/// Marker bit on [`Pair::next_rx`]. Sequence numbers stay below it, so an
/// arrival equal to `next_rx` is both in order and on a pair with nothing
/// parked: the fast path is one comparison.
const PARKED: u64 = 1 << 63;

impl Pair {
    fn expected(&self) -> u64 {
        self.next_rx & !PARKED
    }
}

/// What a pair holds back: arrivals ahead of its next expected message, and
/// sequence numbers the transport aborted (e.g. the destination was
/// disconnected), which are skipped rather than waited for.
#[derive(Debug, Clone)]
struct Parked<M> {
    held: BTreeMap<u64, M>,
    cancelled: BTreeSet<u64>,
}

impl<M> Default for Parked<M> {
    fn default() -> Self {
        Parked {
            held: BTreeMap::new(),
            cancelled: BTreeSet::new(),
        }
    }
}

impl<M> Parked<M> {
    /// Releases every in-order held message to `deliver`, skipping
    /// cancelled slots and advancing `next_rx` past both. Returns how many
    /// held entries were drained.
    fn drain(&mut self, next_rx: &mut u64, deliver: &mut impl FnMut(M)) -> usize {
        let mut drained = 0;
        loop {
            let next = *next_rx & !PARKED;
            if let Some(m) = self.held.remove(&next) {
                // A cancelled message that arrived after all is released,
                // and its cancellation must not outlive it.
                self.cancelled.remove(&next);
                *next_rx += 1;
                drained += 1;
                deliver(m);
            } else if self.cancelled.remove(&next) {
                *next_rx += 1;
            } else {
                return drained;
            }
        }
    }

    fn is_empty(&self) -> bool {
        self.held.is_empty() && self.cancelled.is_empty()
    }
}

/// End-to-end reorder buffers realising logical FIFO channels between MH
/// pairs.
///
/// The sender side assigns a per-pair sequence number with [`next_seq`]; the
/// receiver side passes arrivals to [`accept`], which hands every message
/// now deliverable to a callback, in order.
///
/// Each pair that ever carried traffic has one 16-byte entry holding both
/// counters. Held-back and cancelled messages live in a side map that has
/// an entry for a pair only while it holds or has cancelled something; the
/// entry is removed once drained. A marker bit in the pair entry says
/// whether the side map needs consulting, so an in-order arrival on a pair
/// with nothing parked touches exactly one entry and allocates nothing.
///
/// [`next_seq`]: ReorderBuffers::next_seq
/// [`accept`]: ReorderBuffers::accept
///
/// # Examples
///
/// ```
/// use mobidist_net::channel::ReorderBuffers;
/// use mobidist_net::ids::MhId;
///
/// let mut b: ReorderBuffers<&'static str> = ReorderBuffers::default();
/// let (a, z) = (MhId(0), MhId(1));
/// let s0 = b.next_seq(a, z);
/// let s1 = b.next_seq(a, z);
/// let mut out = Vec::new();
/// b.accept(a, z, s1, "second", |m| out.push(m)); // held back
/// assert!(out.is_empty());
/// b.accept(a, z, s0, "first", |m| out.push(m));
/// assert_eq!(out, ["first", "second"]);
/// ```
#[derive(Debug, Clone)]
pub struct ReorderBuffers<M> {
    // Keyed lookups only — never iterated.
    pairs: FxHashMap<(MhId, MhId), Pair>,
    parked: FxHashMap<(MhId, MhId), Parked<M>>,
    /// Peak number of simultaneously-held (out-of-order) messages.
    peak_held: usize,
    currently_held: usize,
}

impl<M> Default for ReorderBuffers<M> {
    fn default() -> Self {
        ReorderBuffers {
            pairs: FxHashMap::default(),
            parked: FxHashMap::default(),
            peak_held: 0,
            currently_held: 0,
        }
    }
}

impl<M> ReorderBuffers<M> {
    /// Allocates the next sequence number for the `src → dst` pair.
    pub fn next_seq(&mut self, src: MhId, dst: MhId) -> u64 {
        let p = self.pairs.entry((src, dst)).or_default();
        let s = p.next_tx;
        debug_assert!(s < PARKED, "sequence numbers stay below 2^63");
        p.next_tx += 1;
        s
    }

    /// Accepts an arrival and passes every message now deliverable to
    /// `deliver`, in send order (none if `seq` is ahead of the next expected
    /// message).
    ///
    /// Duplicate or already-delivered sequence numbers are ignored.
    pub fn accept(&mut self, src: MhId, dst: MhId, seq: u64, msg: M, mut deliver: impl FnMut(M)) {
        let pair = self.pairs.entry((src, dst)).or_default();
        if seq == pair.next_rx {
            // In order with nothing parked. It counts as momentarily held.
            self.peak_held = self.peak_held.max(self.currently_held + 1);
            pair.next_rx += 1;
            deliver(msg);
            return;
        }
        if seq < pair.expected() {
            return; // duplicate
        }
        pair.next_rx |= PARKED;
        let side = self.parked.entry((src, dst)).or_default();
        if side.held.contains_key(&seq) {
            return; // duplicate
        }
        side.held.insert(seq, msg);
        self.currently_held += 1;
        self.peak_held = self.peak_held.max(self.currently_held);
        self.settle(src, dst, &mut deliver);
    }

    /// Marks `seq` as aborted by the transport (its message will never
    /// arrive) and passes any successors that become deliverable to
    /// `deliver`.
    pub fn cancel(&mut self, src: MhId, dst: MhId, seq: u64, mut deliver: impl FnMut(M)) {
        let pair = self.pairs.entry((src, dst)).or_default();
        if seq < pair.expected() {
            return; // already delivered or skipped
        }
        pair.next_rx |= PARKED;
        self.parked
            .entry((src, dst))
            .or_default()
            .cancelled
            .insert(seq);
        self.settle(src, dst, &mut deliver);
    }

    /// Drains a parked pair as far as it is now in order, and removes its
    /// side entry (and marker) once nothing is left parked.
    fn settle(&mut self, src: MhId, dst: MhId, deliver: &mut impl FnMut(M)) {
        let pair = self.pairs.get_mut(&(src, dst)).expect("parked pair exists");
        let side = self
            .parked
            .get_mut(&(src, dst))
            .expect("parked pair has a side entry");
        self.currently_held -= side.drain(&mut pair.next_rx, deliver);
        if side.is_empty() {
            self.parked.remove(&(src, dst));
            pair.next_rx &= !PARKED;
        }
    }

    /// Messages currently held back waiting for a predecessor.
    pub fn held(&self) -> usize {
        self.currently_held
    }

    /// Peak of [`held`](ReorderBuffers::held) over the run — the buffering
    /// burden L1 places on the network layer.
    pub fn peak_held(&self) -> usize {
        self.peak_held
    }

    /// Forgets all sequencing state and statistics, retaining the map
    /// allocations for reuse.
    pub fn clear(&mut self) {
        self.pairs.clear();
        self.parked.clear();
        self.peak_held = 0;
        self.currently_held = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use std::collections::HashMap;

    fn accept<M>(b: &mut ReorderBuffers<M>, src: MhId, dst: MhId, seq: u64, msg: M) -> Vec<M> {
        let mut out = Vec::new();
        b.accept(src, dst, seq, msg, |m| out.push(m));
        out
    }

    fn cancel<M>(b: &mut ReorderBuffers<M>, src: MhId, dst: MhId, seq: u64) -> Vec<M> {
        let mut out = Vec::new();
        b.cancel(src, dst, seq, |m| out.push(m));
        out
    }

    #[test]
    fn fifo_chain_clamps_overtaking() {
        let mut f = FifoChains::new(2, 2);
        let k = ChainKey::Fixed(MssId(0), MssId(1));
        assert_eq!(f.schedule(k, SimTime::from_ticks(10)).ticks(), 10);
        assert_eq!(f.schedule(k, SimTime::from_ticks(4)).ticks(), 10);
        assert_eq!(f.schedule(k, SimTime::from_ticks(12)).ticks(), 12);
    }

    #[test]
    fn distinct_chains_do_not_interact() {
        let mut f = FifoChains::new(2, 2);
        let ab = ChainKey::Fixed(MssId(0), MssId(1));
        let ba = ChainKey::Fixed(MssId(1), MssId(0));
        f.schedule(ab, SimTime::from_ticks(100));
        assert_eq!(f.schedule(ba, SimTime::from_ticks(3)).ticks(), 3);
        assert_eq!(f.len(), 2);
        assert!(!f.is_empty());
    }

    #[test]
    fn reset_forgets_history() {
        let mut f = FifoChains::new(2, 2);
        let k = ChainKey::Down(MssId(0), MhId(1));
        f.schedule(k, SimTime::from_ticks(50));
        f.reset(k);
        assert_eq!(f.schedule(k, SimTime::from_ticks(2)).ticks(), 2);
    }

    #[test]
    fn reset_topology_clears_history() {
        let mut f = FifoChains::new(2, 2);
        f.schedule(ChainKey::Up(MhId(1), MssId(0)), SimTime::from_ticks(9));
        f.schedule(ChainKey::Fixed(MssId(1), MssId(0)), SimTime::from_ticks(9));
        assert_eq!(f.len(), 2);
        f.reset_topology(4, 8);
        assert!(f.is_empty());
        // Larger topology is addressable after the reset.
        assert_eq!(
            f.schedule(ChainKey::Fixed(MssId(3), MssId(2)), SimTime::from_ticks(1))
                .ticks(),
            1
        );
        assert_eq!(
            f.schedule(ChainKey::Down(MssId(0), MhId(7)), SimTime::from_ticks(1))
                .ticks(),
            1
        );
    }

    #[test]
    fn reorder_clear_forgets_everything() {
        let mut b: ReorderBuffers<u32> = ReorderBuffers::default();
        let (a, z) = (MhId(0), MhId(1));
        let s0 = b.next_seq(a, z);
        let s1 = b.next_seq(a, z);
        assert!(accept(&mut b, a, z, s1, 1).is_empty());
        b.clear();
        assert_eq!(b.held(), 0);
        assert_eq!(b.peak_held(), 0);
        // Sequence numbers restart, as on a fresh buffer.
        assert_eq!(b.next_seq(a, z), 0);
        assert_eq!(accept(&mut b, a, z, s0, 0), vec![0]);
    }

    #[test]
    fn reorder_in_order_passthrough() {
        let mut b: ReorderBuffers<u32> = ReorderBuffers::default();
        let (a, z) = (MhId(0), MhId(1));
        for i in 0..5u64 {
            let s = b.next_seq(a, z);
            assert_eq!(s, i);
            assert_eq!(accept(&mut b, a, z, s, i as u32), vec![i as u32]);
        }
        assert_eq!(b.held(), 0);
        assert_eq!(b.peak_held(), 1);
    }

    #[test]
    fn reorder_releases_in_send_order() {
        let mut b: ReorderBuffers<u32> = ReorderBuffers::default();
        let (a, z) = (MhId(2), MhId(3));
        let s: Vec<u64> = (0..4).map(|_| b.next_seq(a, z)).collect();
        assert!(accept(&mut b, a, z, s[2], 2).is_empty());
        assert!(accept(&mut b, a, z, s[1], 1).is_empty());
        assert_eq!(b.held(), 2);
        assert_eq!(accept(&mut b, a, z, s[0], 0), vec![0, 1, 2]);
        assert_eq!(accept(&mut b, a, z, s[3], 3), vec![3]);
        assert_eq!(b.held(), 0);
        assert!(b.peak_held() >= 2);
    }

    #[test]
    fn pair_entry_fits_sixteen_bytes() {
        assert!(std::mem::size_of::<Pair>() <= 16);
    }

    #[test]
    fn drained_pair_leaves_the_side_map() {
        let mut b: ReorderBuffers<u32> = ReorderBuffers::default();
        let (a, z) = (MhId(0), MhId(1));
        let s: Vec<u64> = (0..4).map(|_| b.next_seq(a, z)).collect();
        assert!(accept(&mut b, a, z, s[1], 1).is_empty());
        assert!(cancel(&mut b, a, z, s[3]).is_empty());
        assert_eq!(b.parked.len(), 1);
        assert_eq!(accept(&mut b, a, z, s[0], 0), vec![0, 1]);
        assert_eq!(b.parked.len(), 1, "the cancelled seq 3 is still ahead");
        assert_eq!(accept(&mut b, a, z, s[2], 2), vec![2]);
        assert!(b.parked.is_empty());
        // The marker is cleared, so the pair is back on the fast path.
        assert_eq!(b.pairs[&(a, z)].next_rx, 4);
    }

    #[test]
    fn reorder_ignores_duplicates() {
        let mut b: ReorderBuffers<u32> = ReorderBuffers::default();
        let (a, z) = (MhId(0), MhId(1));
        let s0 = b.next_seq(a, z);
        assert_eq!(accept(&mut b, a, z, s0, 7), vec![7]);
        assert!(accept(&mut b, a, z, s0, 7).is_empty());
    }

    #[test]
    fn pairs_are_independent_and_directed() {
        let mut b: ReorderBuffers<u32> = ReorderBuffers::default();
        let (a, z) = (MhId(0), MhId(1));
        let s_az = b.next_seq(a, z);
        let s_za = b.next_seq(z, a);
        assert_eq!(s_az, 0);
        assert_eq!(s_za, 0);
        assert_eq!(accept(&mut b, z, a, s_za, 9), vec![9]);
        assert_eq!(accept(&mut b, a, z, s_az, 8), vec![8]);
    }

    /// Reference model without the in-order fast path: every arrival is
    /// inserted into the held map, then drained out of it into a `Vec`.
    #[derive(Default)]
    struct Reference {
        rx: HashMap<(MhId, MhId), RefPair>,
        held: usize,
        peak: usize,
    }

    #[derive(Default)]
    struct RefPair {
        next: u64,
        held: BTreeMap<u64, u32>,
        cancelled: BTreeSet<u64>,
    }

    impl RefPair {
        fn drain(&mut self) -> Vec<u32> {
            let mut out = Vec::new();
            loop {
                if let Some(m) = self.held.remove(&self.next) {
                    self.next += 1;
                    out.push(m);
                } else if self.cancelled.remove(&self.next) {
                    self.next += 1;
                } else {
                    return out;
                }
            }
        }
    }

    impl Reference {
        /// Pairs that hold a message or have a cancelled sequence number
        /// still ahead of them.
        fn parked_pairs(&self) -> usize {
            self.rx
                .values()
                .filter(|p| !p.held.is_empty() || p.cancelled.range(p.next..).next().is_some())
                .count()
        }

        fn accept(&mut self, src: MhId, dst: MhId, seq: u64, msg: u32) -> Vec<u32> {
            let st = self.rx.entry((src, dst)).or_default();
            if seq < st.next || st.held.contains_key(&seq) {
                return Vec::new();
            }
            st.held.insert(seq, msg);
            self.held += 1;
            self.peak = self.peak.max(self.held);
            let out = st.drain();
            self.held -= out.len();
            out
        }

        fn cancel(&mut self, src: MhId, dst: MhId, seq: u64) -> Vec<u32> {
            let st = self.rx.entry((src, dst)).or_default();
            if seq < st.next {
                return Vec::new();
            }
            st.cancelled.insert(seq);
            let out = st.drain();
            self.held -= out.len();
            out
        }
    }

    #[test]
    fn reorder_matches_insert_then_drain_reference() {
        let mhs = [MhId(0), MhId(1), MhId(2)];
        let pairs: Vec<(MhId, MhId)> = mhs
            .iter()
            .flat_map(|&a| mhs.iter().filter(move |&&z| z != a).map(move |&z| (a, z)))
            .collect();
        for seed in 0..8 {
            let mut rng = SimRng::seed_from(seed);
            let mut b: ReorderBuffers<u32> = ReorderBuffers::default();
            let mut r = Reference::default();
            // Per pair: sequence numbers sent but not yet arrived or
            // cancelled, and every sequence number sent so far.
            let mut in_flight: Vec<Vec<u64>> = vec![Vec::new(); pairs.len()];
            let mut sent: Vec<u64> = vec![0; pairs.len()];
            for step in 0..4_000 {
                let p = rng.below(pairs.len() as u64) as usize;
                let (src, dst) = pairs[p];
                let flight = &mut in_flight[p];
                let msg = |seq: u64| (p as u32) << 20 | seq as u32;
                let (got, want) = match rng.below(10) {
                    0..=3 => {
                        let seq = b.next_seq(src, dst);
                        assert_eq!(seq, sent[p]);
                        sent[p] += 1;
                        flight.push(seq);
                        continue;
                    }
                    // Arrival: mostly the oldest in flight (in order),
                    // otherwise any of them (ahead of the next expected).
                    4..=7 if !flight.is_empty() => {
                        let k = if rng.chance(0.6) {
                            0
                        } else {
                            rng.below(flight.len() as u64) as usize
                        };
                        let seq = flight.remove(k);
                        (
                            accept(&mut b, src, dst, seq, msg(seq)),
                            r.accept(src, dst, seq, msg(seq)),
                        )
                    }
                    8 if !flight.is_empty() => {
                        let k = rng.below(flight.len() as u64) as usize;
                        let seq = flight.remove(k);
                        (cancel(&mut b, src, dst, seq), r.cancel(src, dst, seq))
                    }
                    // Duplicate of anything sent so far (arrived, cancelled
                    // or still in flight).
                    _ if sent[p] > 0 => {
                        let seq = rng.below(sent[p]);
                        (
                            accept(&mut b, src, dst, seq, msg(seq)),
                            r.accept(src, dst, seq, msg(seq)),
                        )
                    }
                    _ => continue,
                };
                assert_eq!(got, want, "seed {seed} step {step}: delivered order");
                assert_eq!(b.held(), r.held, "seed {seed} step {step}: held");
                assert_eq!(b.peak_held(), r.peak, "seed {seed} step {step}: peak");
                assert_eq!(
                    b.parked.len(),
                    r.parked_pairs(),
                    "seed {seed} step {step}: side-map entries"
                );
            }
            assert!(r.peak >= 2, "seed {seed}: traffic never ran out of order");
        }
    }
}
