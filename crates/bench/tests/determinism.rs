//! Determinism guarantees the experiment engine relies on.
//!
//! The parallel sweep runner is only sound because every simulation run is a
//! pure function of its `(config, seed)` pair and results are reassembled in
//! input order. These tests pin both halves: identical seeds yield identical
//! execution traces, and worker count never changes a rendered table.

use mobidist_bench::{exp_fault, exp_group, exp_mutex, exp_proxy, exp_serve};
use mobidist_core::prelude::*;
use mobidist_net::prelude::*;
use mobidist_net::time::SimTime;

/// Runs a mobility-heavy mutex workload with the kernel trace on and returns
/// every trace entry plus the final ledger.
fn traced_run(seed: u64) -> (Vec<(SimTime, String)>, CostLedger) {
    let cfg = NetworkConfig::new(4, 12)
        .with_seed(seed)
        .with_mobility(MobilityConfig::moving(300));
    let wl = WorkloadConfig::all_mhs(12, 2);
    let mut sim = Simulation::new(cfg, MutexHarness::new(L2::new(4), wl));
    sim.kernel_mut().trace_mut().enable();
    sim.run_until(SimTime::from_ticks(200_000));
    let entries = sim.kernel().trace().entries().cloned().collect();
    (entries, sim.ledger().clone())
}

#[test]
fn same_seed_runs_produce_identical_traces() {
    let (trace_a, ledger_a) = traced_run(21);
    let (trace_b, ledger_b) = traced_run(21);
    assert!(
        !trace_a.is_empty(),
        "the workload must actually exercise the trace"
    );
    assert_eq!(trace_a.len(), trace_b.len());
    for (i, (a, b)) in trace_a.iter().zip(&trace_b).enumerate() {
        assert_eq!(a, b, "trace diverged at entry {i}");
    }
    assert_eq!(ledger_a, ledger_b, "cost ledgers must match exactly");

    // Different seed must actually change the execution — otherwise the
    // equality above proves nothing.
    let (trace_c, _) = traced_run(22);
    assert_ne!(trace_a, trace_c, "distinct seeds should diverge");
}

#[test]
fn tables_are_byte_identical_at_any_worker_count() {
    // MOBIDIST_JOBS is process-global, so both sweeps are compared inside
    // this single test; no other test in this binary reads the variable.
    let render = |jobs: &str| {
        std::env::set_var("MOBIDIST_JOBS", jobs);
        let tables = [
            ("E1", exp_mutex::e1_lamport(true)),
            ("E5", exp_group::e5_group_strategies(true)),
            ("E6", exp_group::e6_locality(true)),
            ("E7", exp_mutex::e7_disconnection(true)),
            ("E9", exp_mutex::e9_fairness(true)),
            ("E10", exp_proxy::e10_proxy(true)),
            ("E13", exp_serve::e13_serving(true)),
            ("E14", exp_fault::e14_fault(true)),
        ];
        std::env::remove_var("MOBIDIST_JOBS");
        tables.map(|(id, t)| (id, t.to_string(), t.to_csv()))
    };
    let seq = render("1");
    let par = render("4");
    for ((id, text, csv), (_, par_text, par_csv)) in seq.iter().zip(&par) {
        assert_eq!(
            text, par_text,
            "{id} table text differs between jobs=1 and jobs=4"
        );
        assert_eq!(csv, par_csv, "{id} CSV differs between jobs=1 and jobs=4");
    }
}
