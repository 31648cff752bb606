//! `churn_1m`: E12's top point — 1,000,000 hosts churning over 1024 cells
//! under E12's synthetic mobility process — run through
//! `net::shard::run_scale` at `nproc` shards.
//!
//! The only workload on the sharded engine, its lanes and barrier, and
//! `net.mobility` at scale; it dominates `peak_rss_mb`, and it bypasses the
//! generic kernel and `core` entirely. Every run also makes one 1-shard run
//! of the same spec: each `nproc`-shard op must reproduce its digest and
//! ledger.

use crate::check;
use crate::measure::{median, peak_rss_mb, percentile, timed};
use crate::replay;
use crate::report::Report;
use crate::serve::derive;
use crate::spans::Tracer;
use crate::wrap::WindowSink;
use crate::RunCfg;
use mobidist_net::obs::TraceSink;
use mobidist_net::shard::{plan_partition, run_scale, run_scale_traced, ScaleReport, ScaleSpec};
use mobidist_runcache::codec::Codec;
use std::time::Instant;

/// Mobile hosts.
pub const HOSTS: usize = 1_000_000;
/// Cells (MSSs).
pub const CELLS: usize = 1_024;
/// `nproc`-shard runs a run makes at least, whatever `--seconds` says.
const MIN_REPS: usize = 3;
/// Set-ups timed at the start of a run, and then after every run of the
/// spec, so the samples spread over the whole run.
const SETUP_BURST: usize = 3;
/// Replay samples taken between two runs.
const REPLAY_BURST: usize = 8;

/// The workload's spec: E12's churn parameters, seed from `seed`.
pub fn spec(seed: u64, hosts: usize, cells: usize) -> ScaleSpec {
    ScaleSpec::new(cells, hosts).with_seed(derive(seed, 0xC4_0000))
}

/// Times `SETUP_BURST` builds of the spec and plans of its partition, the
/// set-up that precedes the first simulated event.
fn setup_burst(seed: u64, shards: usize, secs: &mut Vec<f64>) {
    for _ in 0..SETUP_BURST {
        let (plan, iv) = timed(|| plan_partition(&spec(seed, HOSTS, CELLS), shards));
        std::hint::black_box(plan);
        secs.push(iv.wall);
    }
}

fn matches(what: &str, got: &ScaleReport, want: &ScaleReport) -> Result<(), String> {
    check::same_digest(what, got.digest, want.digest)?;
    if got.ledger != want.ledger || got.events != want.events {
        return Err(format!(
            "{what}: ledger or event count differs from the 1-shard run"
        ));
    }
    Ok(())
}

/// The `churn_1m` workload.
pub fn run(cfg: &RunCfg, rep: &mut Report) {
    if cfg.traced {
        return run_traced(cfg, rep);
    }
    let start = Instant::now();
    let spec = spec(cfg.seed, HOSTS, CELLS);
    let mut setups = Vec::new();
    setup_burst(cfg.seed, cfg.nproc, &mut setups);
    let base = run_scale(&spec, 1);
    rep.op(Ok(()));
    // The op record carries the cell-to-shard partition the runs execute
    // under next to their outcome: a ledger-and-digest record alone is a
    // few dozen bytes, and replaying it times little but system calls.
    let mut record = replay::record("churn_1m", cfg.seed, 0, &base.ledger, base.digest);
    plan_partition(&spec, cfg.nproc).owner.encode(&mut record.1);
    let records = vec![record];
    let mut replayer = replay::Replayer::new(cfg.work.join("churn-cache"), records);
    let (mut walls, mut cpus, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    while walls.len() < MIN_REPS || start.elapsed().as_secs_f64() < cfg.seconds {
        replayer.burst(REPLAY_BURST);
        setup_burst(cfg.seed, cfg.nproc, &mut setups);
        let (r, iv) = timed(|| run_scale(&spec, cfg.nproc));
        rep.op(matches("churn_1m", &r, &base));
        walls.push(iv.wall);
        cpus.push(iv.cpu);
        rates.push(r.events as f64 / iv.wall);
        if walls.len() == 1 {
            rep.set("peak_rss_mb", peak_rss_mb());
        }
    }
    rep.set_median("setup_s", &setups);
    rep.set_median("wall_s", &walls);
    rep.set_median("cpu_s", &cpus);
    rep.set_median("events_per_s", &rates);
    let (replays, ok) = replayer.finish();
    rep.op(ok);
    rep.set_median("replay_s", &replays);
    rep.digest = base.digest.to_hex();
}

fn run_traced(cfg: &RunCfg, rep: &mut Report) {
    let start = Instant::now();
    let mut tracer = Tracer::default();
    let root = tracer.open("workload:churn_1m", None, 0);
    let spec = spec(cfg.seed, HOSTS, CELLS);
    let mut plan = Vec::new();
    setup_burst(cfg.seed, cfg.nproc, &mut plan);
    rep.set("net.shard.plan_ns", median(&plan) * 1e9);

    let span = tracer.open("run_scale:shards=1", Some(root), 0);
    let (base, one) = timed(|| run_scale(&spec, 1));
    tracer.close(span);
    rep.op(Ok(()));

    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let (mut windows_ns, mut imbalance) = (Vec::new(), Vec::new());
    let mut rep_no = 0u64;
    while traced.len() < 2 || start.elapsed().as_secs_f64() < cfg.seconds {
        rep_no += 1;
        // Untraced and traced runs alternate, so drift cancels out of
        // `trace.overhead`.
        let span = tracer.open("run_scale", Some(root), rep_no);
        let (r, iv) = timed(|| run_scale(&spec, cfg.nproc));
        tracer.close(span);
        rep.op(matches("churn_1m", &r, &base));
        untraced.push(iv.wall);

        let shards = cfg.nproc.clamp(1, CELLS);
        let sinks: Vec<Box<dyn TraceSink>> = (0..shards)
            .map(|_| Box::new(WindowSink::default()) as Box<dyn TraceSink>)
            .collect();
        let span = tracer.open("run_scale:traced", Some(root), rep_no);
        let ((r, sinks), iv) = timed(|| run_scale_traced(&spec, cfg.nproc, sinks));
        tracer.close(span);
        rep.op(matches("traced churn_1m", &r, &base));
        traced.push(iv.wall);
        let sinks: Vec<&WindowSink> = sinks
            .iter()
            .map(|s| s.as_any().downcast_ref().expect("benchmark-owned sink"))
            .collect();
        let counts: Vec<f64> = sinks.iter().map(|s| s.events as f64).collect();
        let mean = counts.iter().sum::<f64>() / counts.len() as f64;
        imbalance.push(counts.iter().cloned().fold(0.0, f64::max) / mean.max(1.0));
        for s in &sinks {
            windows_ns.extend_from_slice(&s.windows_ns);
            tracer.fold("shard.window", &s.windows);
        }
    }
    tracer.close(root);
    rep.set("trace.overhead", median(&traced) / median(&untraced));
    rep.samples.insert("trace.overhead", traced.len());
    rep.set(
        "net.shard.window_ns_p50",
        percentile(&windows_ns, 0.50) as f64,
    );
    rep.set(
        "net.shard.window_ns_p95",
        percentile(&windows_ns, 0.95) as f64,
    );
    rep.samples
        .insert("net.shard.window_ns_p50", windows_ns.len());
    rep.set("net.shard.imbalance", median(&imbalance));
    rep.set("net.shard.windows", base.windows as f64);
    rep.set("net.shard.skipped_windows", base.skipped_windows as f64);
    rep.set("net.shard.scaling", one.wall / median(&untraced));
    rep.set(
        "net.shard.bytes_per_host",
        base.state_bytes as f64 / HOSTS as f64,
    );
    rep.set(
        "net.mobility.move_fidelity",
        base.ledger.moves as f64 / spec.predicted_moves().max(1) as f64,
    );
    rep.digest = base.digest.to_hex();
    rep.spans = Some(tracer);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_sinks_leave_the_run_unchanged() {
        let spec = spec(3, 20_000, 64);
        let plain = run_scale(&spec, 2);
        let sinks: Vec<Box<dyn TraceSink>> = (0..2)
            .map(|_| Box::new(WindowSink::default()) as Box<dyn TraceSink>)
            .collect();
        let (traced, sinks) = run_scale_traced(&spec, 2, sinks);
        assert_eq!(traced, plain);
        assert_eq!(run_scale(&spec, 1).digest, plain.digest);
        let windows: usize = sinks
            .iter()
            .map(|s| {
                s.as_any()
                    .downcast_ref::<WindowSink>()
                    .unwrap()
                    .windows_ns
                    .len()
            })
            .sum();
        assert!(windows > 0);
    }

    #[test]
    fn a_diverging_shard_run_is_a_failed_op() {
        let spec = spec(3, 5_000, 32);
        let base = run_scale(&spec, 1);
        let mut bad = run_scale(&spec, 2);
        assert_eq!(matches("churn", &bad, &base), Ok(()));
        bad.ledger.moves += 1;
        let mut rep = Report::default();
        rep.op(matches("churn", &bad, &base));
        bad = run_scale(&spec.clone().with_seed(spec.seed + 1), 2);
        rep.op(matches("churn", &bad, &base));
        assert_eq!((rep.attempted, rep.failed), (2, 2));
    }
}
