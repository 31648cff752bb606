//! Timing wrappers that measure the layers from outside, through the
//! public extension points only: a [`Protocol`] around the mutex harness, a
//! [`MutexAlgorithm`] around the algorithm, and a [`TraceSink`] handed to
//! the sharded engine. Each wrapper forwards every call unchanged, so a
//! wrapped run simulates exactly what the unwrapped run does (pinned by the
//! `wrapped_runs_are_identical` tests).

use crate::measure::Hist;
use mobidist_core::prelude::*;
use mobidist_net::obs::{TraceEvent, TraceSink};
use mobidist_net::prelude::{Ctx, MhId, MsgBatch, MssId, Protocol, SimTime, Src};
use std::any::Any;
use std::time::Instant;

/// Per-callback-kind host time spent inside a wrapped protocol.
#[derive(Debug, Default, Clone)]
pub struct CallbackStats {
    /// `on_mss_msg` calls from the kernel.
    pub mss_msg: Hist,
    /// `on_mss_batch` calls (one per coalesced run).
    pub mss_batch: Hist,
    /// `on_mh_msg` calls.
    pub mh_msg: Hist,
    /// `on_timer` calls.
    pub timer: Hist,
    /// Every other callback (start, mobility, faults).
    pub other: Hist,
    /// Logical messages delivered inside `on_mss_batch`.
    pub batched_msgs: u64,
}

impl CallbackStats {
    /// Host nanoseconds spent inside all callbacks.
    pub fn total_ns(&self) -> u64 {
        [
            &self.mss_msg,
            &self.mss_batch,
            &self.mh_msg,
            &self.timer,
            &self.other,
        ]
        .iter()
        .map(|h| h.total_ns)
        .sum()
    }

    /// Folds `other` into these statistics.
    pub fn merge(&mut self, other: &CallbackStats) {
        self.mss_msg.merge(&other.mss_msg);
        self.mss_batch.merge(&other.mss_batch);
        self.mh_msg.merge(&other.mh_msg);
        self.timer.merge(&other.timer);
        self.other.merge(&other.other);
        self.batched_msgs += other.batched_msgs;
    }
}

/// A [`Protocol`] that forwards every callback to `inner` and records the
/// host time spent inside it, by callback kind.
#[derive(Debug)]
pub struct Timed<P> {
    inner: P,
    /// What the wrapped protocol cost, by callback kind.
    pub stats: CallbackStats,
}

impl<P> Timed<P> {
    /// Wraps `inner`.
    pub fn new(inner: P) -> Self {
        Timed {
            inner,
            stats: CallbackStats::default(),
        }
    }

    /// The wrapped protocol.
    pub fn inner(&self) -> &P {
        &self.inner
    }
}

type PCtx<'a, P> = Ctx<'a, <P as Protocol>::Msg, <P as Protocol>::Timer>;

impl<P: Protocol> Protocol for Timed<P> {
    type Msg = P::Msg;
    type Timer = P::Timer;

    fn on_start(&mut self, ctx: &mut PCtx<'_, P>) {
        let t0 = Instant::now();
        self.inner.on_start(ctx);
        self.stats.other.since(t0);
    }

    fn on_mss_msg(&mut self, ctx: &mut PCtx<'_, P>, at: MssId, src: Src, msg: P::Msg) {
        let t0 = Instant::now();
        self.inner.on_mss_msg(ctx, at, src, msg);
        self.stats.mss_msg.since(t0);
    }

    fn on_mh_msg(&mut self, ctx: &mut PCtx<'_, P>, at: MhId, src: Src, msg: P::Msg) {
        let t0 = Instant::now();
        self.inner.on_mh_msg(ctx, at, src, msg);
        self.stats.mh_msg.since(t0);
    }

    fn on_mss_batch(&mut self, ctx: &mut PCtx<'_, P>, at: MssId, batch: MsgBatch<'_, P::Msg>) {
        self.stats.batched_msgs += batch.len() as u64;
        let t0 = Instant::now();
        self.inner.on_mss_batch(ctx, at, batch);
        self.stats.mss_batch.since(t0);
    }

    fn on_timer(&mut self, ctx: &mut PCtx<'_, P>, timer: P::Timer) {
        let t0 = Instant::now();
        self.inner.on_timer(ctx, timer);
        self.stats.timer.since(t0);
    }

    fn on_mh_joined(&mut self, ctx: &mut PCtx<'_, P>, mh: MhId, mss: MssId, prev: Option<MssId>) {
        let t0 = Instant::now();
        self.inner.on_mh_joined(ctx, mh, mss, prev);
        self.stats.other.since(t0);
    }

    fn on_mh_left(&mut self, ctx: &mut PCtx<'_, P>, mh: MhId, mss: MssId) {
        let t0 = Instant::now();
        self.inner.on_mh_left(ctx, mh, mss);
        self.stats.other.since(t0);
    }

    fn on_mh_disconnected(&mut self, ctx: &mut PCtx<'_, P>, mh: MhId, mss: MssId) {
        let t0 = Instant::now();
        self.inner.on_mh_disconnected(ctx, mh, mss);
        self.stats.other.since(t0);
    }

    fn on_mh_reconnected(
        &mut self,
        ctx: &mut PCtx<'_, P>,
        mh: MhId,
        mss: MssId,
        prev: Option<MssId>,
    ) {
        let t0 = Instant::now();
        self.inner.on_mh_reconnected(ctx, mh, mss, prev);
        self.stats.other.since(t0);
    }

    fn on_search_failed(
        &mut self,
        ctx: &mut PCtx<'_, P>,
        origin: MssId,
        target: MhId,
        msg: P::Msg,
    ) {
        let t0 = Instant::now();
        self.inner.on_search_failed(ctx, origin, target, msg);
        self.stats.other.since(t0);
    }

    fn on_wireless_lost(&mut self, ctx: &mut PCtx<'_, P>, mss: MssId, mh: MhId, msg: P::Msg) {
        let t0 = Instant::now();
        self.inner.on_wireless_lost(ctx, mss, mh, msg);
        self.stats.other.since(t0);
    }

    fn on_mss_crashed(&mut self, ctx: &mut PCtx<'_, P>, mss: MssId) {
        let t0 = Instant::now();
        self.inner.on_mss_crashed(ctx, mss);
        self.stats.other.since(t0);
    }

    fn on_mss_recovered(&mut self, ctx: &mut PCtx<'_, P>, mss: MssId) {
        let t0 = Instant::now();
        self.inner.on_mss_recovered(ctx, mss);
        self.stats.other.since(t0);
    }
}

/// A [`MutexAlgorithm`] that forwards every call to `inner` and records the
/// host time spent inside the algorithm.
#[derive(Debug)]
pub struct TimedAlgo<A> {
    inner: A,
    /// Every algorithm call, as one kind.
    pub calls: Hist,
}

impl<A> TimedAlgo<A> {
    /// Wraps `inner`.
    pub fn new(inner: A) -> Self {
        TimedAlgo {
            inner,
            calls: Hist::default(),
        }
    }
}

type ACtx<'a, 'k, A> = AlgoCtx<'a, 'k, <A as MutexAlgorithm>::Msg, <A as MutexAlgorithm>::Timer>;

impl<A: MutexAlgorithm> MutexAlgorithm for TimedAlgo<A> {
    type Msg = A::Msg;
    type Timer = A::Timer;

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_start(&mut self, ctx: &mut ACtx<'_, '_, A>) {
        let t0 = Instant::now();
        self.inner.on_start(ctx);
        self.calls.since(t0);
    }

    fn request(&mut self, ctx: &mut ACtx<'_, '_, A>, mh: MhId) {
        let t0 = Instant::now();
        self.inner.request(ctx, mh);
        self.calls.since(t0);
    }

    fn release(&mut self, ctx: &mut ACtx<'_, '_, A>, mh: MhId) {
        let t0 = Instant::now();
        self.inner.release(ctx, mh);
        self.calls.since(t0);
    }

    fn on_mss_msg(&mut self, ctx: &mut ACtx<'_, '_, A>, at: MssId, src: Src, msg: A::Msg) {
        let t0 = Instant::now();
        self.inner.on_mss_msg(ctx, at, src, msg);
        self.calls.since(t0);
    }

    fn on_mh_msg(&mut self, ctx: &mut ACtx<'_, '_, A>, at: MhId, src: Src, msg: A::Msg) {
        let t0 = Instant::now();
        self.inner.on_mh_msg(ctx, at, src, msg);
        self.calls.since(t0);
    }

    fn on_timer(&mut self, ctx: &mut ACtx<'_, '_, A>, timer: A::Timer) {
        let t0 = Instant::now();
        self.inner.on_timer(ctx, timer);
        self.calls.since(t0);
    }

    fn on_search_failed(
        &mut self,
        ctx: &mut ACtx<'_, '_, A>,
        origin: MssId,
        target: MhId,
        msg: A::Msg,
    ) {
        let t0 = Instant::now();
        self.inner.on_search_failed(ctx, origin, target, msg);
        self.calls.since(t0);
    }

    fn on_mh_joined(
        &mut self,
        ctx: &mut ACtx<'_, '_, A>,
        mh: MhId,
        mss: MssId,
        prev: Option<MssId>,
    ) {
        let t0 = Instant::now();
        self.inner.on_mh_joined(ctx, mh, mss, prev);
        self.calls.since(t0);
    }

    fn on_mh_disconnected(&mut self, ctx: &mut ACtx<'_, '_, A>, mh: MhId, mss: MssId) {
        let t0 = Instant::now();
        self.inner.on_mh_disconnected(ctx, mh, mss);
        self.calls.since(t0);
    }

    fn on_mh_reconnected(&mut self, ctx: &mut ACtx<'_, '_, A>, mh: MhId, mss: MssId) {
        let t0 = Instant::now();
        self.inner.on_mh_reconnected(ctx, mh, mss);
        self.calls.since(t0);
    }
}

/// A per-shard [`TraceSink`] for the sharded engine: stamps host time at
/// every `shard_sync` (the end of a processed window, barrier wait
/// included) and counts the shard's other events. Keeps only a histogram
/// and the raw window durations of one run, so memory stays bounded by the
/// window count.
#[derive(Debug, Default)]
pub struct WindowSink {
    last: Option<Instant>,
    /// Host nanoseconds between consecutive `shard_sync`s (the first
    /// window, which has no start stamp, is not measured).
    pub windows_ns: Vec<u64>,
    /// The same durations, folded.
    pub windows: Hist,
    /// Non-sync events the shard executed and traced.
    pub events: u64,
}

impl TraceSink for WindowSink {
    fn record(&mut self, _at: SimTime, _seq: u64, ev: &TraceEvent) {
        if let TraceEvent::ShardSync { .. } = ev {
            let now = Instant::now();
            if let Some(last) = self.last {
                let ns = now.duration_since(last).as_nanos() as u64;
                self.windows_ns.push(ns);
                self.windows.record(ns);
            }
            self.last = Some(now);
        } else {
            self.events += 1;
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
