//! Per-op correctness checks. An op is one simulation run; it fails when
//! its simulated output breaks an invariant or a closed form of the paper,
//! or disagrees with the run it must reproduce.

use crate::serve::{Algo, CellOut};
use mobidist_cost::{l2_wireless_msgs, r2_wireless_ops_per_request};
use mobidist_net::fingerprint::Fingerprint;

/// Checks one serving cell. `l2_peer` is the L2 cell run on the same
/// network seed, against which an L2C cell must at least halve the
/// wireless messages per entry.
pub fn serve_cell(out: &CellOut, m: usize, l2_peer: Option<&CellOut>) -> Result<(), String> {
    let r = &out.report;
    let name = out.algo.name();
    if r.safety_violations != 0 || r.order_violations != 0 {
        return Err(format!(
            "{name}: {} safety and {} order violations",
            r.safety_violations, r.order_violations
        ));
    }
    if r.completed != out.target || r.outstanding != 0 {
        return Err(format!(
            "{name}: completed {} of {} entries ({} outstanding)",
            r.completed, out.target, r.outstanding
        ));
    }
    let entries = r.completed.max(1);
    let wireless = out.ledger.wireless_msgs;
    let fixed = out.ledger.fixed_msgs;
    match out.algo {
        Algo::L2 => {
            if wireless != l2_wireless_msgs() * entries {
                return Err(format!(
                    "L2: {wireless} wireless msgs for {entries} entries, expected {} per entry",
                    l2_wireless_msgs()
                ));
            }
            let per_entry = 3 * (m as u64 - 1);
            if fixed != per_entry * entries {
                return Err(format!(
                    "L2: {fixed} fixed msgs for {entries} entries, expected 3(M-1) = {per_entry} per entry"
                ));
            }
        }
        Algo::R2 => {
            if wireless != r2_wireless_ops_per_request() * entries {
                return Err(format!(
                    "R2: {wireless} wireless msgs for {entries} entries, expected {} per entry",
                    r2_wireless_ops_per_request()
                ));
            }
        }
        Algo::L2c => {
            let peer = l2_peer.ok_or("L2C: no L2 cell to compare against")?;
            // wireless/entries <= peer_wireless/(2·peer_entries), cross-multiplied.
            let peer_entries = peer.report.completed.max(1);
            if 2 * wireless * peer_entries > peer.ledger.wireless_msgs * entries {
                return Err(format!(
                    "L2C: {wireless} wireless msgs for {entries} entries does not halve L2's {} for {peer_entries}",
                    peer.ledger.wireless_msgs
                ));
            }
        }
    }
    Ok(())
}

/// Checks that a run reproduced the digest of the run it must match.
pub fn same_digest(what: &str, got: Fingerprint, want: Fingerprint) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{what}: digest {} differs from {}",
            got.to_hex(),
            want.to_hex()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Report;
    use crate::serve::{cell_specs, run_cell};

    fn cells() -> (CellOut, CellOut, CellOut) {
        let (cfg, wl) = cell_specs(3, 1, 8, 256, 1).remove(0);
        (
            run_cell(Algo::L2, &cfg, &wl),
            run_cell(Algo::L2c, &cfg, &wl),
            run_cell(Algo::R2, &cfg, &wl),
        )
    }

    #[test]
    fn correct_cells_pass() {
        let (l2, l2c, r2) = cells();
        assert_eq!(serve_cell(&l2, 8, None), Ok(()));
        assert_eq!(serve_cell(&l2c, 8, Some(&l2)), Ok(()));
        assert_eq!(serve_cell(&r2, 8, None), Ok(()));
    }

    #[test]
    fn perturbed_results_count_as_failed_ops() {
        let (l2, l2c, r2) = cells();
        let mut report = Report::default();

        let mut bad = l2.clone();
        bad.ledger.wireless_msgs += 1;
        report.op(serve_cell(&bad, 8, None));

        let mut bad = l2.clone();
        bad.ledger.fixed_msgs -= 1;
        report.op(serve_cell(&bad, 8, None));

        let mut bad = r2.clone();
        bad.report.safety_violations = 1;
        report.op(serve_cell(&bad, 8, None));

        let mut bad = r2.clone();
        bad.report.completed -= 1;
        report.op(serve_cell(&bad, 8, None));

        // An L2C that only matches L2's wireless bill has not halved it.
        let mut bad = l2c.clone();
        bad.ledger.wireless_msgs = l2.ledger.wireless_msgs;
        report.op(serve_cell(&bad, 8, Some(&l2)));

        report.op(same_digest(
            "churn",
            Fingerprint::of(&1u64),
            Fingerprint::of(&2u64),
        ));
        report.op(serve_cell(&l2, 8, None));

        assert_eq!((report.attempted, report.failed), (7, 6));
        assert!(report
            .result_line(true)
            .contains("\"ops_failed\":{\"value\":6.0"));
    }
}
