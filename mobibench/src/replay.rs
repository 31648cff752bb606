//! `replay_s` for the workloads that do not go through the experiment
//! suite's cache: each op's simulated outcome (ledger and digest) is stored
//! as a run-cache record in a fresh directory, then read back from the disk
//! tier with the memory tier cleared, as `paper_tables`' replays do.

use mobidist_net::fingerprint::Fingerprint;
use mobidist_net::ledger::CostLedger;
use mobidist_runcache::codec::Codec;
use mobidist_runcache::store::RunCache;
use std::path::PathBuf;
use std::time::Instant;

/// Host time one sample spans at least; a sample replays the whole record
/// set as many times as that takes and reports the time per replay, so
/// microsecond replays are not lost in timer resolution.
const SAMPLE_NS: u128 = 1_000_000;

/// One op's outcome keyed for the run cache.
pub fn record(
    workload: &str,
    seed: u64,
    op: usize,
    ledger: &CostLedger,
    digest: Fingerprint,
) -> (Fingerprint, Vec<u8>) {
    let fp = Fingerprint::of(&(workload, seed, op as u64));
    let mut bytes = Vec::new();
    digest.hi.encode(&mut bytes);
    digest.lo.encode(&mut bytes);
    ledger.encode(&mut bytes);
    (fp, bytes)
}

/// Replays a stored record set from the disk tier in bursts, so the
/// samples spread over the whole run instead of one moment of it.
#[derive(Debug)]
pub struct Replayer {
    dir: PathBuf,
    cache: RunCache,
    records: Vec<(Fingerprint, Vec<u8>)>,
    per_sample: u32,
    secs: Vec<f64>,
    outcome: Result<(), String>,
}

impl Replayer {
    /// Stores `records` in a fresh cache directory `dir`.
    pub fn new(dir: PathBuf, records: Vec<(Fingerprint, Vec<u8>)>) -> Self {
        let _ = std::fs::remove_dir_all(&dir);
        let cache = RunCache::new();
        for (fp, bytes) in &records {
            cache.put(Some(&dir), *fp, bytes.clone());
        }
        let mut r = Replayer {
            dir,
            cache,
            records,
            per_sample: 1,
            secs: Vec::new(),
            outcome: Ok(()),
        };
        let t0 = Instant::now();
        r.replay_once();
        let one = t0.elapsed().as_nanos().max(1);
        r.per_sample = (SAMPLE_NS / one).clamp(1, 1 << 16) as u32;
        r
    }

    fn replay_once(&mut self) {
        self.cache.clear_memory();
        for (fp, bytes) in &self.records {
            let hit = self.cache.get(Some(&self.dir), *fp);
            if hit.as_deref() != Some(bytes) && self.outcome.is_ok() {
                self.outcome = Err(format!("replay of record {} differs", fp.to_hex()));
            }
        }
    }

    /// Takes `samples` more samples.
    pub fn burst(&mut self, samples: usize) {
        for _ in 0..samples {
            let t0 = Instant::now();
            for _ in 0..self.per_sample {
                self.replay_once();
            }
            self.secs
                .push(t0.elapsed().as_secs_f64() / self.per_sample as f64);
        }
    }

    /// Seconds per replay of every sample, and whether every replay
    /// returned every record byte for byte from the disk tier. Removes the
    /// directory.
    pub fn finish(mut self) -> (Vec<f64>, Result<(), String>) {
        let replays = 1 + self.secs.len() as u64 * self.per_sample as u64;
        let hits = self.cache.stats().disk_hits;
        if hits != replays * self.records.len() as u64 && self.outcome.is_ok() {
            self.outcome = Err(format!("replays served {hits} disk hits"));
        }
        let _ = std::fs::remove_dir_all(&self.dir);
        (self.secs, self.outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_replay_from_disk() {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.bench_build/replay-test");
        let recs: Vec<_> = (0..3)
            .map(|i| record("t", 1, i, &CostLedger::new(2), Fingerprint::of(&(i as u64))))
            .collect();
        let mut r = Replayer::new(dir.clone(), recs);
        r.burst(3);
        r.burst(2);
        let (secs, ok) = r.finish();
        assert_eq!(ok, Ok(()));
        assert_eq!(secs.len(), 5);
        assert!(!dir.exists());
    }
}
