//! The metric catalogue and the result line.
//!
//! The catalogue below is the benchmark's contract with `BENCHMARK.json`
//! (a test keeps the two in step). An untraced run reports every
//! end-to-end metric; a traced run reports every per-layer metric, with 0
//! for a layer the workload does not exercise (see README.md for which
//! workload drives which layer).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("events_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("replay_s", "s"),
];

/// Per-layer metrics: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ops", "count"),
    ("ops_failed", "count"),
    ("trace.overhead", "ratio"),
    // serve_mss: kernel, harness and algorithm self time.
    ("net.kernel.self_ns_per_event", "ns"),
    ("core.harness_ns_per_event", "ns"),
    ("core.l2.algo_ns_per_event", "ns"),
    ("core.l2c.algo_ns_per_event", "ns"),
    ("core.r2.algo_ns_per_event", "ns"),
    ("core.callbacks.mss_msg", "count"),
    ("core.callbacks.mss_batch", "count"),
    ("core.callbacks.mh_msg", "count"),
    ("core.callbacks.timer", "count"),
    ("net.kernel.batch_share", "ratio"),
    ("net.kernel.batch_len_mean", "msgs"),
    ("net.ledger.fixed_per_entry", "msgs"),
    ("net.ledger.wireless_per_entry", "msgs"),
    ("core.l2c.combine_batch_mean", "entries"),
    // serve_mss: the outside-in layer ladder.
    ("net.event.hold_ns", "ns"),
    ("net.sim.null_ns_per_event", "ns"),
    ("net.obs.ring_ns_per_event", "ns"),
    ("net.obs.jsonl_ns_per_event", "ns"),
    ("core.ladder_ns_per_event", "ns"),
    ("ladder.residual", "ratio"),
    // churn_1m: the sharded engine.
    ("net.shard.window_ns_p50", "ns"),
    ("net.shard.window_ns_p95", "ns"),
    ("net.shard.imbalance", "ratio"),
    ("net.shard.windows", "count"),
    ("net.shard.skipped_windows", "count"),
    ("net.shard.scaling", "ratio"),
    ("net.shard.plan_ns", "ns"),
    ("net.shard.bytes_per_host", "B"),
    ("net.mobility.move_fidelity", "ratio"),
    // paper_tables: experiments, sweeps, run cache, reorder buffers.
    ("net.channel.reorder_peak", "msgs"),
    ("bench.exp.e0_s", "s"),
    ("bench.exp.e1_s", "s"),
    ("bench.exp.e2_s", "s"),
    ("bench.exp.e3_s", "s"),
    ("bench.exp.e4_s", "s"),
    ("bench.exp.e5_s", "s"),
    ("bench.exp.e6_s", "s"),
    ("bench.exp.e7_s", "s"),
    ("bench.exp.e8_s", "s"),
    ("bench.exp.e9_s", "s"),
    ("bench.exp.e10_s", "s"),
    ("bench.exp.e11_s", "s"),
    ("bench.exp.e13_s", "s"),
    ("bench.exp.e14_s", "s"),
    ("bench.parallel.efficiency", "ratio"),
    ("runcache.misses", "count"),
    ("runcache.stores", "count"),
    ("runcache.disk_hits", "count"),
    ("runcache.mem_hits", "count"),
    ("runcache.corrupt", "count"),
    ("runcache.bytes", "B"),
    ("runcache.store_overhead", "ratio"),
    ("runcache.mem_replay_s", "s"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Simulation runs attempted (one op per run).
    pub attempted: u64,
    /// Ops whose output check failed.
    pub failed: u64,
    /// Why each failed op failed.
    pub failures: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
    /// Sample count behind each reported median, for the metadata line.
    pub samples: BTreeMap<&'static str, usize>,
    /// Digest of the workload's simulated output (recorded, not gated).
    pub digest: String,
    /// Extra metadata fields as `(key, JSON value)`.
    pub extra: Vec<(&'static str, String)>,
    /// The traced run's spans, written out when the run ends.
    pub spans: Option<crate::spans::Tracer>,
}

impl Report {
    /// Records metric `name`, which must be in the catalogue.
    ///
    /// # Panics
    ///
    /// Panics on a name outside [`END_TO_END`] and [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not in the catalogue"
        );
        self.metrics.insert(name, value);
    }

    /// Records the median of `xs` under `name` with its sample count.
    pub fn set_median(&mut self, name: &'static str, xs: &[f64]) {
        self.set(name, crate::measure::median(xs));
        self.samples.insert(name, xs.len());
    }

    /// The recorded value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// Counts one op, failed when `outcome` is an error.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            self.failures.push(why);
        }
    }

    /// The final result line: every end-to-end metric (`traced == false`)
    /// or every per-layer metric (`traced == true`).
    ///
    /// # Panics
    ///
    /// Panics when an untraced run left an end-to-end metric unmeasured.
    pub fn result_line(&self, traced: bool) -> String {
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        let mut metrics = Vec::new();
        for (name, unit) in catalogue {
            let value = match self.get(name) {
                Some(v) => v,
                None if traced => match *name {
                    "ops" => self.attempted as f64,
                    "ops_failed" => self.failed as f64,
                    _ => 0.0,
                },
                None => panic!("end-to-end metric {name} was not measured"),
            };
            metrics.push(format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_number(value)
            ));
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }

    /// The metadata line printed before the result line.
    pub fn meta_line(&self, fields: &[(&str, String)]) -> String {
        let mut out = String::from("{\"meta\":{");
        let extra = self.extra.iter().map(|(k, v)| (*k, v.clone()));
        for (k, v) in fields.iter().cloned().chain(extra) {
            let _ = write!(out, "\"{k}\":{v},");
        }
        let samples: Vec<String> = self
            .samples
            .iter()
            .map(|(k, n)| format!("\"{k}\":{n}"))
            .collect();
        let failures: Vec<String> = self
            .failures
            .iter()
            .map(|f| format!("\"{}\"", f.replace('\\', "\\\\").replace('"', "\\\"")))
            .collect();
        let _ = write!(
            out,
            "\"digest\":\"{}\",\"samples\":{{{}}},\"failures\":[{}]}}}}",
            self.digest,
            samples.join(","),
            failures.join(",")
        );
        out
    }
}

/// A finite JSON number with all its digits.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to the package");
        let compact: String = json.chars().filter(|c| !c.is_whitespace()).collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let names = compact.matches("\"name\":").count();
        let workloads = compact.matches("\"why\":").count();
        assert_eq!(names - workloads, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn failed_ops_make_the_result_incorrect() {
        let mut r = Report::default();
        for (name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        r.op(Ok(()));
        assert!(r
            .result_line(false)
            .starts_with("{\"correct\":true,\"attempted\":1,\"failed\":0,"));
        r.op(Err("perturbed".into()));
        assert!(r
            .result_line(false)
            .starts_with("{\"correct\":false,\"attempted\":2,\"failed\":1,"));
        let traced = r.result_line(true);
        assert!(traced.contains("\"ops_failed\":{\"value\":1.0,\"unit\":\"count\"}"));
        assert!(traced.contains("\"net.shard.windows\":{\"value\":0.0,"));
    }
}
