//! The outside-in layer ladder, built only from public APIs. Each rung adds
//! one layer to the one below, at `serve_mss`'s population:
//!
//! 1. a hold-model [`EventQueue`] (the timing wheel alone);
//! 2. a null ping [`Protocol`] on [`Simulation`] (plus dispatch, FIFO
//!    chains and ledger charges);
//! 3. the same ping with a [`RingSink`];
//! 4. the same ping with a [`JsonlSink`] writing to `io::sink()`;
//! 5. `MutexHarness<L2>` on `serve_mss`'s configuration.
//!
//! Rungs run interleaved, round after round, and each reports the median
//! over rounds, so drift on the host lands on every rung alike.

use crate::measure::median;
use crate::report::Report;
use crate::serve::{cell_specs, derive};
use mobidist_core::prelude::*;
use mobidist_net::event::EventQueue;
use mobidist_net::obs::{JsonlSink, RingSink, RunMeta};
use mobidist_net::prelude::*;
use std::hint::black_box;
use std::time::Instant;

/// Hold operations timed per rung-1 sample.
const HOLD_OPS: usize = 1 << 20;
/// Simulated ticks of one ping sample (about 0.5M events at N = 1024).
const PING_TICKS: u64 = 1_000;
/// Interleaved rounds over all rungs.
const ROUNDS: usize = 5;

/// Every MH bounces one message off its MSS for as long as the run lasts.
#[derive(Debug)]
pub struct Ping;

impl Protocol for Ping {
    type Msg = u32;
    type Timer = ();

    fn on_start(&mut self, ctx: &mut Ctx<'_, u32, ()>) {
        for mh in ctx.mh_ids().collect::<Vec<_>>() {
            ctx.send_wireless_up(mh, 0).expect("MHs start connected");
        }
    }

    fn on_mss_msg(&mut self, ctx: &mut Ctx<'_, u32, ()>, at: MssId, src: Src, msg: u32) {
        if let Src::Mh(mh) = src {
            ctx.send_wireless_down(at, mh, msg + 1)
                .expect("ping MHs never move");
        }
    }

    fn on_mh_msg(&mut self, ctx: &mut Ctx<'_, u32, ()>, at: MhId, _: Src, msg: u32) {
        ctx.send_wireless_up(at, msg + 1)
            .expect("ping MHs never disconnect");
    }
}

/// Median host nanoseconds per operation of each rung.
#[derive(Debug, Clone, Copy)]
pub struct Rungs {
    /// Rung 1: per hold operation (one pop plus one push).
    pub hold: f64,
    /// Rung 2: per logical event of the null ping.
    pub null: f64,
    /// Rung 3: per event, ping with a ring sink.
    pub ring: f64,
    /// Rung 4: per event, ping with a JSONL sink.
    pub jsonl: f64,
    /// Rung 5: per event of `MutexHarness<L2>`.
    pub l2: f64,
}

fn hold_model(population: usize, seed: u64) -> f64 {
    let mut q: EventQueue<u32> = EventQueue::new();
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    // Think-time scale delays, as the serving requesters' timers have.
    for i in 0..population {
        q.push(SimTime::from_ticks(next() % 2_000), i as u32);
    }
    let t0 = Instant::now();
    for _ in 0..HOLD_OPS {
        let (t, v) = q.pop().expect("population stays constant");
        q.push(SimTime::from_ticks(t.ticks() + 1 + next() % 2_000), v);
    }
    let ns = t0.elapsed().as_nanos() as f64 / HOLD_OPS as f64;
    black_box(q.len());
    ns
}

fn ping_cfg(seed: u64, n: usize, m: usize) -> NetworkConfig {
    NetworkConfig::new(m, n).with_seed(derive(seed, 0x1ADD_E500))
}

/// Host ns per event of one ping sample, with `sink` installed if any.
fn ping(cfg: &NetworkConfig, sink: Option<Box<dyn TraceSink>>) -> f64 {
    let mut sim = Simulation::new(cfg.clone(), Ping);
    if let Some(s) = sink {
        sim.set_trace_sink(s);
    }
    let t0 = Instant::now();
    sim.run_until(SimTime::from_ticks(PING_TICKS));
    let ns = t0.elapsed().as_nanos() as f64;
    ns / sim.kernel().events_processed().max(1) as f64
}

fn l2_harness(cfg: &NetworkConfig, wl: &WorkloadConfig) -> f64 {
    let target = (wl.requesters.len() * wl.requests_per_mh) as u64;
    let mut sim = Simulation::new(
        cfg.clone(),
        MutexHarness::new(L2::new(cfg.num_mss), wl.clone()),
    );
    let t0 = Instant::now();
    let mut t = 0;
    while sim.protocol().report().completed < target {
        t += 100_000;
        sim.run_until(SimTime::from_ticks(t));
    }
    let ns = t0.elapsed().as_nanos() as f64;
    ns / sim.kernel().events_processed().max(1) as f64
}

/// Runs every rung `ROUNDS` times, interleaved.
pub fn run(seed: u64, n: usize, m: usize) -> Rungs {
    let cfg = ping_cfg(seed, n, m);
    let (l2_cfg, l2_wl) = cell_specs(seed, 1, m, n, 2).remove(0);
    let mut samples: [Vec<f64>; 5] = Default::default();
    for _ in 0..ROUNDS {
        samples[0].push(hold_model(n, derive(seed, 0x401D)));
        samples[1].push(ping(&cfg, None));
        samples[2].push(ping(&cfg, Some(Box::new(RingSink::new(4096)))));
        let jsonl = JsonlSink::new(std::io::sink(), RunMeta::new(0, "ladder", &cfg))
            .expect("io::sink never fails");
        samples[3].push(ping(&cfg, Some(Box::new(jsonl))));
        samples[4].push(l2_harness(&l2_cfg, &l2_wl));
    }
    Rungs {
        hold: median(&samples[0]),
        null: median(&samples[1]),
        ring: median(&samples[2]),
        jsonl: median(&samples[3]),
        l2: median(&samples[4]),
    }
}

impl Rungs {
    /// Reports each rung's difference from the rung it builds on, and the
    /// share of `serve_l2_ns` (L2's ns/event in the full workload) that the
    /// ladder's top rung does not account for.
    pub fn report(&self, rep: &mut Report, serve_l2_ns: f64) {
        rep.set("net.event.hold_ns", self.hold);
        rep.set("net.sim.null_ns_per_event", self.null - self.hold);
        rep.set("net.obs.ring_ns_per_event", self.ring - self.null);
        rep.set("net.obs.jsonl_ns_per_event", self.jsonl - self.null);
        rep.set("core.ladder_ns_per_event", self.l2 - self.null);
        rep.set("ladder.residual", (serve_l2_ns - self.l2) / serve_l2_ns);
        rep.samples.insert("ladder", ROUNDS);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sinks_do_not_change_the_ping() {
        let cfg = ping_cfg(1, 32, 4);
        let run = |sink: Option<Box<dyn TraceSink>>| {
            let mut sim = Simulation::new(cfg.clone(), Ping);
            if let Some(s) = sink {
                sim.set_trace_sink(s);
            }
            sim.run_until(SimTime::from_ticks(200));
            (sim.kernel().events_processed(), sim.ledger().clone())
        };
        let plain = run(None);
        assert!(plain.0 > 1_000);
        assert_eq!(run(Some(Box::new(RingSink::new(16)))), plain);
        let jsonl = JsonlSink::new(std::io::sink(), RunMeta::new(0, "t", &cfg)).unwrap();
        assert_eq!(run(Some(Box::new(jsonl))), plain);
    }
}
