//! `serve_mss`: fixed-work, closed-loop serving on the MSS tier.
//!
//! 1024 requesters over 8 MSSs (think 1000, hold 10, E13c's saturated
//! headline shape) run L2, L2C and R2 on one thread. The work is fixed by
//! requests per MH and by the number of network seeds; each (algorithm,
//! seed) cell is one op. The workload stresses the generic kernel's MSS
//! tier — wired broadcast, same-tick batching, L2C's cell fan-out — plus
//! `core`, and does almost no search, reorder, shard, cache or group work.

use crate::check;
use crate::ladder;
use crate::measure::{median, peak_rss_mb, timed, Hist, Interval};
use crate::replay;
use crate::report::Report;
use crate::spans::{SpanId, Tracer};
use crate::wrap::{CallbackStats, Timed, TimedAlgo};
use crate::RunCfg;
use mobidist_core::prelude::*;
use mobidist_net::fingerprint::{CanonHasher, Fingerprint};
use mobidist_net::ledger::CostLedger;
use mobidist_net::prelude::*;
use mobidist_runcache::codec::Codec;
use std::time::Instant;

/// Fixed hosts.
pub const M: usize = 8;
/// Closed-loop requesters (every MH requests).
pub const N: usize = 1024;
/// Requests each MH issues per cell.
pub const REQS: usize = 8;
/// Network seeds per pass; each runs all three algorithms.
pub const SEEDS: usize = 16;
const THINK: u64 = 1_000;
const HOLD: u64 = 10;
/// Completion is checked at fixed chunk boundaries, as E13 does.
const CHUNK: u64 = 100_000;
const HORIZON: u64 = 500_000_000;
/// Untraced passes a run makes at least, whatever `--seconds` says.
const MIN_PASSES: usize = 3;
/// Replay samples taken between two passes.
const REPLAY_BURST: usize = 8;

/// The algorithms the workload serves with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Lamport at the MSS proxies.
    L2,
    /// L2 with per-MSS request combining.
    L2c,
    /// Token ring over the MSSs.
    R2,
}

impl Algo {
    /// Run order within a seed; L2 precedes L2C, which is checked against it.
    pub const ALL: [Algo; 3] = [Algo::L2, Algo::L2c, Algo::R2];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Algo::L2 => "L2",
            Algo::L2c => "L2C",
            Algo::R2 => "R2",
        }
    }
}

/// Simulated outcome of one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOut {
    /// Algorithm served with.
    pub algo: Algo,
    /// Entries the fixed work asks for.
    pub target: u64,
    /// Harness report (safety, order, liveness).
    pub report: MutexReport,
    /// Logical events the kernel processed.
    pub events: u64,
    /// Final cost ledger.
    pub ledger: CostLedger,
    /// Digest of the ledger, the event count and every CS episode.
    pub digest: Fingerprint,
}

/// SplitMix64 finaliser: derives independent seeds from the benchmark's
/// seed argument.
pub fn derive(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Network and workload of each seed's cells.
pub fn cell_specs(
    seed: u64,
    seeds: usize,
    m: usize,
    n: usize,
    reqs: usize,
) -> Vec<(NetworkConfig, WorkloadConfig)> {
    (0..seeds)
        .map(|i| {
            (
                NetworkConfig::new(m, n).with_seed(derive(seed, 0x5E57_0000 + i as u64)),
                WorkloadConfig::all_mhs(n, reqs)
                    .with_think(THINK)
                    .with_hold(HOLD),
            )
        })
        .collect()
}

/// A protocol whose mutex-harness report can be read after the run.
pub trait Served: Protocol {
    /// The harness report.
    fn harness(&self) -> MutexReport;
    /// The harness's recorded CS episodes.
    fn episodes(&self) -> &[Episode];
}

impl<A: MutexAlgorithm> Served for MutexHarness<A> {
    fn harness(&self) -> MutexReport {
        self.report()
    }
    fn episodes(&self) -> &[Episode] {
        self.checker().episodes()
    }
}

impl<P: Served> Served for Timed<P> {
    fn harness(&self) -> MutexReport {
        self.inner().harness()
    }
    fn episodes(&self) -> &[Episode] {
        self.inner().episodes()
    }
}

/// Runs `sim` in fixed chunks until the fixed work is done (or the
/// horizon passes), opening one span per `run_until` chunk when traced.
/// Returns the outcome and the host nanoseconds spent in `run_until`.
fn drive<P: Served>(
    sim: &mut Simulation<P>,
    algo: Algo,
    target: u64,
    mut trace: Option<(&mut Tracer, SpanId, u64)>,
) -> (CellOut, u64) {
    let mut run_ns = 0u64;
    let mut t = CHUNK;
    loop {
        let until = SimTime::from_ticks(t.min(HORIZON));
        match trace.as_mut() {
            Some((tracer, parent, cell)) => {
                let span = tracer.open("run_until", Some(*parent), *cell);
                sim.run_until(until);
                run_ns += tracer.close(span);
            }
            None => sim.run_until(until),
        }
        if sim.protocol().harness().completed >= target || t >= HORIZON {
            break;
        }
        t += CHUNK;
    }
    let report = sim.protocol().harness();
    let events = sim.kernel().events_processed();
    let ledger = sim.ledger().clone();
    let mut h = CanonHasher::new();
    h.write_bytes(algo.name().as_bytes());
    h.write_u64(events);
    let mut bytes = Vec::new();
    ledger.encode(&mut bytes);
    h.write_bytes(&bytes);
    for ep in sim.protocol().episodes() {
        h.write_u64(ep.mh.0 as u64);
        h.write_u64(ep.requested_at.ticks());
        h.write_u64(ep.granted_at.ticks());
        h.write_u64(ep.released_at.map_or(u64::MAX, |t| t.ticks()));
        h.write_u64(ep.key.unwrap_or(u64::MAX));
    }
    let out = CellOut {
        algo,
        target,
        report,
        events,
        ledger,
        digest: h.finish(),
    };
    (out, run_ns)
}

fn target_of(wl: &WorkloadConfig) -> u64 {
    (wl.requesters.len() * wl.requests_per_mh) as u64
}

/// A built, not yet started, unwrapped cell.
type Ready = Box<dyn FnOnce() -> CellOut>;

fn ready<A: MutexAlgorithm>(algo: Algo, a: A, cfg: &NetworkConfig, wl: &WorkloadConfig) -> Ready {
    let target = target_of(wl);
    let mut sim = Simulation::new(cfg.clone(), MutexHarness::new(a, wl.clone()));
    Box::new(move || drive(&mut sim, algo, target, None).0)
}

fn build(algo: Algo, cfg: &NetworkConfig, wl: &WorkloadConfig) -> Ready {
    let m = cfg.num_mss;
    match algo {
        Algo::L2 => ready(algo, L2::new(m), cfg, wl),
        Algo::L2c => ready(algo, L2c::new(m), cfg, wl),
        Algo::R2 => ready(algo, R2::new(m, RingGuard::Plain), cfg, wl),
    }
}

/// Runs one unwrapped cell.
#[cfg(test)]
pub fn run_cell(algo: Algo, cfg: &NetworkConfig, wl: &WorkloadConfig) -> CellOut {
    build(algo, cfg, wl)()
}

/// Host time a wrapped cell spent per layer.
#[derive(Debug, Default)]
pub struct Layers {
    /// Inside `Simulation::run_until`.
    pub run_until_ns: u64,
    /// Inside the harness callbacks, by kind.
    pub callbacks: CallbackStats,
    /// Inside the algorithm.
    pub algo: Hist,
}

fn wrapped<A: MutexAlgorithm>(
    algo: Algo,
    a: A,
    cfg: &NetworkConfig,
    wl: &WorkloadConfig,
    trace: (&mut Tracer, SpanId, u64),
) -> (CellOut, Layers) {
    let target = target_of(wl);
    let harness = MutexHarness::new(TimedAlgo::new(a), wl.clone());
    let mut sim = Simulation::new(cfg.clone(), Timed::new(harness));
    let (out, run_until_ns) = drive(&mut sim, algo, target, Some(trace));
    let timed = sim.protocol();
    let layers = Layers {
        run_until_ns,
        callbacks: timed.stats.clone(),
        algo: timed.inner().algorithm().calls.clone(),
    };
    (out, layers)
}

/// Runs one cell under the timing wrappers, with spans under `parent`.
pub fn run_cell_wrapped(
    algo: Algo,
    cfg: &NetworkConfig,
    wl: &WorkloadConfig,
    trace: (&mut Tracer, SpanId, u64),
) -> (CellOut, Layers) {
    let m = cfg.num_mss;
    match algo {
        Algo::L2 => wrapped(algo, L2::new(m), cfg, wl, trace),
        Algo::L2c => wrapped(algo, L2c::new(m), cfg, wl, trace),
        Algo::R2 => wrapped(algo, R2::new(m, RingGuard::Plain), cfg, wl, trace),
    }
}

/// One untraced pass over the fixed work.
struct Pass {
    cells: Vec<CellOut>,
    /// Building configs and simulations.
    setup: Interval,
    /// Running them.
    run: Interval,
    /// Host seconds of the L2 cells alone, for the ladder's residual.
    l2_wall: f64,
}

fn untraced_pass(seed: u64) -> Pass {
    let (readies, setup) = timed(|| {
        let specs = cell_specs(seed, SEEDS, M, N, REQS);
        let mut readies = Vec::new();
        for (cfg, wl) in &specs {
            for algo in Algo::ALL {
                readies.push((algo, build(algo, cfg, wl)));
            }
        }
        readies
    });
    let mut l2_wall = 0.0;
    let (cells, run) = timed(|| {
        readies
            .into_iter()
            .map(|(algo, go)| {
                let t0 = Instant::now();
                let out = go();
                if algo == Algo::L2 {
                    l2_wall += t0.elapsed().as_secs_f64();
                }
                out
            })
            .collect()
    });
    Pass {
        cells,
        setup,
        run,
        l2_wall,
    }
}

fn pass_digest(cells: &[CellOut]) -> Fingerprint {
    let mut h = CanonHasher::new();
    for c in cells {
        h.write_u64(c.digest.hi);
        h.write_u64(c.digest.lo);
    }
    h.finish()
}

/// Counts one op per cell: the cell's own checks, plus agreement with the
/// reference pass when there is one.
fn check_pass(rep: &mut Report, cells: &[CellOut], reference: Option<&[CellOut]>) {
    for (i, c) in cells.iter().enumerate() {
        let peer = (c.algo == Algo::L2c).then(|| &cells[i - 1]);
        let mut outcome = check::serve_cell(c, M, peer);
        if let (Ok(()), Some(r)) = (&outcome, reference) {
            outcome = check::same_digest(c.algo.name(), c.digest, r[i].digest);
        }
        rep.op(outcome);
    }
}

fn events(cells: &[CellOut]) -> u64 {
    cells.iter().map(|c| c.events).sum()
}

/// The `serve_mss` workload.
pub fn run(cfg: &RunCfg, rep: &mut Report) {
    if cfg.traced {
        return run_traced(cfg, rep);
    }
    let start = Instant::now();
    let first = untraced_pass(cfg.seed);
    check_pass(rep, &first.cells, None);
    rep.set("peak_rss_mb", peak_rss_mb());
    let records = first
        .cells
        .iter()
        .enumerate()
        .map(|(i, c)| replay::record("serve_mss", cfg.seed, i, &c.ledger, c.digest))
        .collect();
    let mut replayer = replay::Replayer::new(cfg.work.join("serve-cache"), records);
    let mut passes = vec![(first.setup, first.run, events(&first.cells))];
    while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < cfg.seconds {
        replayer.burst(REPLAY_BURST);
        let p = untraced_pass(cfg.seed);
        check_pass(rep, &p.cells, Some(&first.cells));
        passes.push((p.setup, p.run, events(&p.cells)));
    }
    let walls: Vec<f64> = passes.iter().map(|(s, r, _)| s.wall + r.wall).collect();
    let cpus: Vec<f64> = passes.iter().map(|(s, r, _)| s.cpu + r.cpu).collect();
    let setups: Vec<f64> = passes.iter().map(|(s, _, _)| s.wall).collect();
    let rates: Vec<f64> = passes.iter().map(|(_, r, e)| *e as f64 / r.wall).collect();
    rep.set_median("wall_s", &walls);
    rep.set_median("cpu_s", &cpus);
    rep.set_median("setup_s", &setups);
    rep.set_median("events_per_s", &rates);

    let (replays, ok) = replayer.finish();
    rep.op(ok);
    rep.set_median("replay_s", &replays);
    rep.digest = pass_digest(&first.cells).to_hex();
}

/// Per-event layer costs accumulated over traced passes.
#[derive(Debug, Default)]
struct Acc {
    events: u64,
    entries: u64,
    fixed: u64,
    wireless: u64,
    run_until_ns: u64,
    callbacks: CallbackStats,
    algo: [Hist; 3],
    algo_events: [u64; 3],
    l2c_entries: u64,
    l2c_batches: u64,
}

fn run_traced(cfg: &RunCfg, rep: &mut Report) {
    let start = Instant::now();
    let mut tracer = Tracer::default();
    let root = tracer.open("workload:serve_mss", None, 0);
    let specs = cell_specs(cfg.seed, SEEDS, M, N, REQS);
    let mut acc = Acc::default();
    let (mut untraced, mut traced, mut l2_ns_per_event) = (Vec::new(), Vec::new(), Vec::new());
    let mut reference: Option<Vec<CellOut>> = None;
    while untraced.len() < 2 || start.elapsed().as_secs_f64() < cfg.seconds * 0.7 {
        // Untraced and traced passes alternate, so drift cancels out of
        // `trace.overhead`.
        let p = untraced_pass(cfg.seed);
        check_pass(rep, &p.cells, reference.as_deref());
        untraced.push(p.setup.wall + p.run.wall);
        let l2_events: u64 = p
            .cells
            .iter()
            .filter(|c| c.algo == Algo::L2)
            .map(|c| c.events)
            .sum();
        l2_ns_per_event.push(p.l2_wall * 1e9 / l2_events as f64);
        let reference = reference.get_or_insert(p.cells);

        let t0 = Instant::now();
        let pass = tracer.open("pass", Some(root), 0);
        let mut cells = Vec::new();
        for (s, (net, wl)) in specs.iter().enumerate() {
            for (a, algo) in Algo::ALL.into_iter().enumerate() {
                let id = (s * Algo::ALL.len() + a) as u64;
                let span = tracer.open(format!("cell:{}", algo.name()), Some(pass), id);
                let (out, layers) = run_cell_wrapped(algo, net, wl, (&mut tracer, span, id));
                tracer.close(span);
                acc.events += out.events;
                acc.entries += out.report.completed;
                acc.fixed += out.ledger.fixed_msgs;
                acc.wireless += out.ledger.wireless_msgs;
                acc.run_until_ns += layers.run_until_ns;
                acc.algo[a].merge(&layers.algo);
                acc.algo_events[a] += out.events;
                if algo == Algo::L2c {
                    acc.l2c_entries += out.report.completed;
                    acc.l2c_batches += out.ledger.custom("combine_batches");
                }
                acc.callbacks.merge(&layers.callbacks);
                cells.push(out);
            }
        }
        tracer.close(pass);
        traced.push(t0.elapsed().as_secs_f64());
        // The traced run must simulate exactly what the untraced one did.
        for (c, r) in cells.iter().zip(reference.iter()) {
            rep.op(check::same_digest("traced serve cell", c.digest, r.digest));
        }
    }
    rep.digest = pass_digest(reference.as_deref().unwrap_or(&[])).to_hex();
    rep.set("trace.overhead", median(&traced) / median(&untraced));
    rep.samples.insert("trace.overhead", traced.len());

    let cb = &acc.callbacks;
    tracer.fold("callback.mss_msg", &cb.mss_msg);
    tracer.fold("callback.mss_batch", &cb.mss_batch);
    tracer.fold("callback.mh_msg", &cb.mh_msg);
    tracer.fold("callback.timer", &cb.timer);
    tracer.fold("callback.other", &cb.other);
    for (algo, h) in Algo::ALL.iter().zip(&acc.algo) {
        tracer.fold(&format!("algo.{}", algo.name()), h);
    }
    let ev = acc.events.max(1) as f64;
    let wrapper_ns = cb.total_ns();
    let algo_total: u64 = acc.algo.iter().map(|h| h.total_ns).sum();
    // Nested intervals on one monotonic clock: the wrapper's time lies
    // inside `run_until`'s and the algorithm's inside the wrapper's.
    let kernel_self_ns = acc.run_until_ns.saturating_sub(wrapper_ns);
    let harness_ns = wrapper_ns.saturating_sub(algo_total);
    rep.set("net.kernel.self_ns_per_event", kernel_self_ns as f64 / ev);
    rep.set("core.harness_ns_per_event", harness_ns as f64 / ev);
    for (a, name) in [
        "core.l2.algo_ns_per_event",
        "core.l2c.algo_ns_per_event",
        "core.r2.algo_ns_per_event",
    ]
    .into_iter()
    .enumerate()
    {
        rep.set(
            name,
            acc.algo[a].total_ns as f64 / acc.algo_events[a].max(1) as f64,
        );
    }
    rep.set("core.callbacks.mss_msg", cb.mss_msg.count as f64);
    rep.set("core.callbacks.mss_batch", cb.mss_batch.count as f64);
    rep.set("core.callbacks.mh_msg", cb.mh_msg.count as f64);
    rep.set("core.callbacks.timer", cb.timer.count as f64);
    rep.set("net.kernel.batch_share", cb.batched_msgs as f64 / ev);
    rep.set(
        "net.kernel.batch_len_mean",
        cb.batched_msgs as f64 / cb.mss_batch.count.max(1) as f64,
    );
    let entries = acc.entries.max(1) as f64;
    rep.set("net.ledger.fixed_per_entry", acc.fixed as f64 / entries);
    rep.set(
        "net.ledger.wireless_per_entry",
        acc.wireless as f64 / entries,
    );
    rep.set(
        "core.l2c.combine_batch_mean",
        acc.l2c_entries as f64 / acc.l2c_batches.max(1) as f64,
    );
    rep.extra.push((
        "accounting",
        format!(
            "{{\"run_until_ns\":{},\"kernel_self_ns\":{kernel_self_ns},\
             \"harness_ns\":{harness_ns},\"algo_ns\":{algo_total}}}",
            acc.run_until_ns
        ),
    ));

    let span = tracer.open("ladder", Some(root), 0);
    let rungs = ladder::run(cfg.seed, N, M);
    tracer.close(span);
    rungs.report(rep, median(&l2_ns_per_event));
    tracer.close(root);
    rep.spans = Some(tracer);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrapped_runs_are_identical() {
        for (cfg, wl) in cell_specs(11, 2, 4, 32, 2) {
            for algo in Algo::ALL {
                let plain = run_cell(algo, &cfg, &wl);
                let mut tracer = Tracer::default();
                let root = tracer.open("cell", None, 0);
                let (wrapped, layers) = run_cell_wrapped(algo, &cfg, &wl, (&mut tracer, root, 0));
                assert_eq!(
                    plain,
                    wrapped,
                    "{} diverged under the wrappers",
                    algo.name()
                );
                assert!(layers.run_until_ns >= layers.callbacks.total_ns());
                assert!(layers.callbacks.total_ns() >= layers.algo.total_ns);
                assert!(layers.algo.count > 0);
            }
        }
    }

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(cell_specs(5, 2, 8, 16, 1), cell_specs(5, 2, 8, 16, 1));
        assert_ne!(cell_specs(5, 1, 8, 16, 1), cell_specs(6, 1, 8, 16, 1));
    }
}
