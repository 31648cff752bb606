//! `paper_tables`: the shipped experiment suite, everything except E12,
//! called through the public `exp_*` functions with sweeps at `nproc` jobs.
//!
//! Its time is dominated by the MH-level L1 and R1 paths (wireless up and
//! down, search, the reorder buffers); it exercises `group`, `proxy`, the
//! fault plane, `SimPool` reuse and sweep fan-out, and it is the only
//! workload that both writes and reads `runcache`. It runs in three
//! passes: cold with no cache (`wall_s`), into a fresh run-cache directory
//! (writes the cache), and replays from the disk tier with the memory tier
//! cleared (`replay_s`). The seeds are part of the published table
//! definitions, so the seed argument does not change this workload.

use crate::measure::{peak_rss_mb, timed, Interval};
use crate::report::Report;
use crate::spans::{SpanId, Tracer};
use crate::RunCfg;
use mobidist_bench::{exp_fault, exp_group, exp_model, exp_mutex, exp_proxy, exp_serve, Table};
use mobidist_core::prelude::*;
use mobidist_net::fingerprint::{CanonHasher, Fingerprint};
use mobidist_net::prelude::{MhId, NetworkConfig, SimTime, Simulation};
use mobidist_runcache::store;
use mobidist_runcache::CACHE_ENV;
use std::path::Path;
use std::time::Instant;

/// One experiment: its id and its full (non-quick) table.
type Exp = (&'static str, fn() -> Table);

/// The suite, in `experiments all` order, without E12.
const EXPS: [Exp; 14] = [
    ("e0", exp_model::run),
    ("e1", || exp_mutex::e1_lamport(false)),
    ("e2", || exp_mutex::e2_ring(false)),
    ("e3", || exp_mutex::e3_energy(false)),
    ("e4", || exp_mutex::e4_search_ratio(false)),
    ("e5", || exp_group::e5_group_strategies(false)),
    ("e6", || exp_group::e6_locality(false)),
    ("e7", || exp_mutex::e7_disconnection(false)),
    ("e8", || exp_mutex::e8_doze(false)),
    ("e9", || exp_mutex::e9_fairness(false)),
    ("e10", || exp_proxy::e10_proxy(false)),
    ("e11", || exp_group::e11_exactly_once(false)),
    ("e13", || exp_serve::e13_serving(false)),
    ("e14", || exp_fault::e14_fault(false)),
];

/// Metric name of each experiment's traced time, in [`EXPS`] order.
const EXP_METRICS: [&str; 14] = [
    "bench.exp.e0_s",
    "bench.exp.e1_s",
    "bench.exp.e2_s",
    "bench.exp.e3_s",
    "bench.exp.e4_s",
    "bench.exp.e5_s",
    "bench.exp.e6_s",
    "bench.exp.e7_s",
    "bench.exp.e8_s",
    "bench.exp.e9_s",
    "bench.exp.e10_s",
    "bench.exp.e11_s",
    "bench.exp.e13_s",
    "bench.exp.e14_s",
];

/// Disk replays in one burst, at least.
const MIN_REPLAYS: usize = 5;
/// Host seconds one burst of disk replays lasts, after `MIN_REPLAYS`.
const REPLAY_BURST_S: f64 = 0.3;
/// Set-up samples taken before the first cold pass and after every one,
/// so they spread over the whole run.
const SETUP_BURST: usize = 10;
/// E1's grid: fixed hosts, and every N of the full table (seed 100 + N).
const E1_M: usize = 8;
const E1_NS: [usize; 6] = [4, 8, 16, 32, 64, 96];
/// E13c's largest cell: requesters, and its seed (1360 + cell index).
const E13_N: usize = 1024;
const E13_SEED: u64 = 1362;

/// The outcome of one pass over the suite.
struct Pass {
    /// Digest of each experiment's printed table.
    tables: Vec<Fingerprint>,
    /// Host seconds of each experiment.
    exp_s: Vec<f64>,
    /// Simulation runs each experiment computed (counted only while the
    /// cache is active: its misses).
    computed: Vec<u64>,
    iv: Interval,
}

fn digest(t: &Table) -> Fingerprint {
    let mut h = CanonHasher::new();
    h.write_bytes(t.to_string().as_bytes());
    h.finish()
}

/// Runs the suite once at `jobs` sweep workers, reading and writing the
/// run cache under `cache` when given.
fn pass(jobs: usize, cache: Option<&Path>, mut trace: Option<(&mut Tracer, SpanId)>) -> Pass {
    std::env::set_var("MOBIDIST_JOBS", jobs.to_string());
    match cache {
        Some(dir) => std::env::set_var(CACHE_ENV, dir),
        None => std::env::remove_var(CACHE_ENV),
    }
    let (mut tables, mut exp_s, mut computed) = (Vec::new(), Vec::new(), Vec::new());
    let (_, iv) = timed(|| {
        for (i, (id, run)) in EXPS.iter().enumerate() {
            let span = trace
                .as_mut()
                .map(|(t, parent)| t.open(format!("experiment:{id}"), Some(*parent), i as u64));
            let misses = store::global().stats().misses;
            let t0 = Instant::now();
            let table = run();
            exp_s.push(t0.elapsed().as_secs_f64());
            if let (Some((t, _)), Some(span)) = (trace.as_mut(), span) {
                t.close(span);
            }
            computed.push(store::global().stats().misses - misses);
            tables.push(digest(&table));
        }
    });
    std::env::remove_var(CACHE_ENV);
    Pass {
        tables,
        exp_s,
        computed,
        iv,
    }
}

/// Counts one op per simulation run of `p`: `runs[e]` per experiment `e`,
/// all failed when the experiment's table differs from the reference.
fn check(rep: &mut Report, what: &str, p: &Pass, reference: &[Fingerprint], runs: &[u64]) {
    for (e, (got, want)) in p.tables.iter().zip(reference).enumerate() {
        for _ in 0..runs[e].max(1) {
            rep.op(if got == want {
                Ok(())
            } else {
                Err(format!(
                    "{what}: {} table differs from the cold pass",
                    EXPS[e].0
                ))
            });
        }
    }
}

/// A built, not yet started, simulation of one of the suite's cells.
type Built = Box<dyn std::any::Any>;

fn sim<A: MutexAlgorithm + 'static>(cfg: &NetworkConfig, a: A, wl: &WorkloadConfig) -> Built {
    Box::new(Simulation::new(
        cfg.clone(),
        MutexHarness::new(a, wl.clone()),
    ))
}

/// The per-cell set-up of the suite's tables, as far as the public API
/// shows it: configs, workloads and fresh simulations of E1's grid (L1 and
/// L2 at every N) and of E13c's largest cell (L2, L2C, R1 and R2 with 1024
/// requesters; E13 skips L1 there). The simulations are returned so that
/// dropping them is not timed.
fn build_cells() -> Vec<Built> {
    let mut built = Vec::new();
    for n in E1_NS {
        let cfg = NetworkConfig::new(E1_M, n).with_seed(100 + n as u64);
        let wl = WorkloadConfig::all_mhs(n, 1).with_think(200);
        built.push(sim(&cfg, L1::new(wl.requesters.clone()), &wl));
        built.push(sim(&cfg, L2::new(E1_M), &wl));
    }
    let (m, n) = (E1_M, E13_N);
    let cfg = NetworkConfig::new(m, n).with_seed(E13_SEED);
    let wl = WorkloadConfig::all_mhs(n, 2)
        .with_think(1_000)
        .with_hold(10);
    let ring = (0..n as u32).map(MhId).collect();
    built.push(sim(&cfg, L2::new(m), &wl));
    built.push(sim(&cfg, L2c::new(m), &wl));
    built.push(sim(&cfg, R1::new(ring, R1DisconnectPolicy::Stall), &wl));
    built.push(sim(&cfg, R2::new(m, RingGuard::Plain), &wl));
    built
}

/// Times `SETUP_BURST` builds of the cells, after one untimed build that
/// warms code and allocator after whatever ran before.
fn setup_burst(secs: &mut Vec<f64>) {
    drop(build_cells());
    for _ in 0..SETUP_BURST {
        let (built, iv) = timed(build_cells);
        drop(built);
        secs.push(iv.wall);
    }
}

/// A fresh, empty run-cache directory with an empty memory tier: the
/// set-up a cached suite run pays before its first simulation.
fn fresh_cache(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("benchmark work directory is writable");
    store::global().clear_memory();
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Replays the suite from the disk tier (memory tier cleared first) for
/// `budget_s` host seconds, at least `MIN_REPLAYS` times. Pushes each
/// replay's host seconds onto `secs`.
fn disk_replays(
    rep: &mut Report,
    nproc: usize,
    dir: &Path,
    reference: &Pass,
    runs: &[u64],
    secs: &mut Vec<f64>,
) {
    let start = Instant::now();
    let mut n = 0;
    while n < MIN_REPLAYS || start.elapsed().as_secs_f64() < REPLAY_BURST_S {
        store::global().clear_memory();
        let p = pass(nproc, Some(dir), None);
        check(rep, "disk replay", &p, &reference.tables, runs);
        secs.push(p.iv.wall);
        n += 1;
    }
}

/// The `paper_tables` workload.
pub fn run(cfg: &RunCfg, rep: &mut Report) {
    std::env::set_var("MOBIDIST_SHARDS", cfg.nproc.to_string());
    if cfg.traced {
        return run_traced(cfg, rep);
    }
    let start = Instant::now();
    let dir = cfg.work.join("tables-cache");
    let mut setups = Vec::new();
    setup_burst(&mut setups);
    let first = pass(cfg.nproc, None, None);
    rep.set("peak_rss_mb", peak_rss_mb());
    fresh_cache(&dir);
    let stored = pass(cfg.nproc, Some(&dir), None);
    let runs = stored.computed.clone();
    check(rep, "cold pass", &first, &first.tables, &runs);
    check(rep, "store pass", &stored, &first.tables, &runs);
    let mut replays = Vec::new();
    disk_replays(rep, cfg.nproc, &dir, &first, &runs, &mut replays);
    // Further cold passes, each followed by a burst of set-ups and one of
    // replays, fill the run, so every kind of sample spreads over all of it.
    setup_burst(&mut setups);
    let mut colds = vec![first.iv];
    let next = 1.1 * first.iv.wall + REPLAY_BURST_S;
    while start.elapsed().as_secs_f64() + next < cfg.seconds {
        let p = pass(cfg.nproc, None, None);
        check(rep, "cold pass", &p, &first.tables, &runs);
        colds.push(p.iv);
        setup_burst(&mut setups);
        disk_replays(rep, cfg.nproc, &dir, &first, &runs, &mut replays);
    }
    let _ = std::fs::remove_dir_all(&dir);

    let walls: Vec<f64> = colds.iter().map(|iv| iv.wall).collect();
    let cpus: Vec<f64> = colds.iter().map(|iv| iv.cpu).collect();
    let total_runs: u64 = runs.iter().sum();
    let rates: Vec<f64> = walls.iter().map(|w| total_runs as f64 / w).collect();
    rep.set_median("wall_s", &walls);
    rep.set_median("cpu_s", &cpus);
    rep.set_median("events_per_s", &rates);
    rep.set_median("replay_s", &replays);
    rep.set_median("setup_s", &setups);
    rep.digest = suite_digest(&first.tables).to_hex();
    rep.extra.push(("runs_per_pass", total_runs.to_string()));
}

fn suite_digest(tables: &[Fingerprint]) -> Fingerprint {
    let mut h = CanonHasher::new();
    for t in tables {
        h.write_u64(t.hi);
        h.write_u64(t.lo);
    }
    h.finish()
}

/// Peak reorder-buffer occupancy of an L1 cell (E1's N = 64 point): the
/// FIFO burden MH-level Lamport places on the network layer. The cell is
/// one op, failed unless it finishes cleanly.
fn l1_reorder_peak(rep: &mut Report) -> usize {
    let cfg = NetworkConfig::new(8, 64).with_seed(164);
    let wl = WorkloadConfig::all_mhs(64, 1).with_think(200);
    let mut sim = Simulation::new(cfg, MutexHarness::new(L1::new(wl.requesters.clone()), wl));
    sim.run_until(SimTime::from_ticks(50_000_000));
    let r = sim.protocol().report();
    rep.op(if r.is_clean_and_live() && r.completed == 64 {
        Ok(())
    } else {
        Err(format!("L1 reorder probe: {r:?}"))
    });
    sim.kernel().reorder_peak()
}

fn run_traced(cfg: &RunCfg, rep: &mut Report) {
    let mut tracer = Tracer::default();
    let root = tracer.open("workload:paper_tables", None, 0);
    let dir = cfg.work.join("tables-cache");

    // Untraced and traced cold passes back to back give `trace.overhead`;
    // the traced one gives each experiment's time.
    let plain = pass(cfg.nproc, None, None);
    let span = tracer.open("pass:cold", Some(root), 0);
    let traced = pass(cfg.nproc, None, Some((&mut tracer, span)));
    tracer.close(span);
    for (name, s) in EXP_METRICS.iter().zip(&traced.exp_s) {
        rep.set(name, *s);
    }
    rep.set("trace.overhead", traced.iv.wall / plain.iv.wall);

    let span = tracer.open("pass:jobs=1", Some(root), 0);
    let serial = pass(1, None, None);
    tracer.close(span);
    rep.set(
        "bench.parallel.efficiency",
        serial.iv.wall / (cfg.nproc as f64 * plain.iv.wall),
    );

    fresh_cache(&dir);
    let before = store::global().stats();
    let span = tracer.open("pass:store", Some(root), 0);
    let stored = pass(cfg.nproc, Some(&dir), None);
    tracer.close(span);
    let after_store = store::global().stats();
    let runs = stored.computed.clone();
    for (what, p) in [
        ("cold pass", &plain),
        ("traced pass", &traced),
        ("jobs=1 pass", &serial),
    ] {
        check(rep, what, p, &plain.tables, &runs);
    }
    check(rep, "store pass", &stored, &plain.tables, &runs);
    rep.set(
        "runcache.misses",
        (after_store.misses - before.misses) as f64,
    );
    rep.set(
        "runcache.stores",
        (after_store.stores - before.stores) as f64,
    );
    rep.set("runcache.bytes", dir_bytes(&dir) as f64);
    rep.set("runcache.store_overhead", stored.iv.wall / plain.iv.wall);

    let span = tracer.open("pass:disk_replay", Some(root), 0);
    store::global().clear_memory();
    let before = store::global().stats();
    let disk = pass(cfg.nproc, Some(&dir), None);
    let after_disk = store::global().stats();
    tracer.close(span);
    check(rep, "disk replay", &disk, &plain.tables, &runs);
    rep.set(
        "runcache.disk_hits",
        (after_disk.disk_hits - before.disk_hits) as f64,
    );

    let span = tracer.open("pass:mem_replay", Some(root), 0);
    let mem = pass(cfg.nproc, Some(&dir), None);
    tracer.close(span);
    let after_mem = store::global().stats();
    check(rep, "memory replay", &mem, &plain.tables, &runs);
    rep.set(
        "runcache.mem_hits",
        (after_mem.mem_hits - after_disk.mem_hits) as f64,
    );
    rep.set("runcache.mem_replay_s", mem.iv.wall);
    rep.set(
        "runcache.corrupt",
        (after_mem.corrupt - before.corrupt) as f64,
    );
    let _ = std::fs::remove_dir_all(&dir);

    let span = tracer.open("probe:l1_reorder", Some(root), 0);
    let peak = l1_reorder_peak(rep);
    rep.set("net.channel.reorder_peak", peak as f64);
    tracer.close(span);
    tracer.close(root);
    rep.digest = suite_digest(&plain.tables).to_hex();
    rep.extra
        .push(("runs_per_pass", runs.iter().sum::<u64>().to_string()));
    rep.samples.insert("bench.exp", 1);
    rep.spans = Some(tracer);
}
