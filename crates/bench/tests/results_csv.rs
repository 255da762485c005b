//! The committed data series under `docs/results/` are exactly what the
//! `sweep` binary prints today: each of the five series is regenerated and
//! diffed byte for byte against its CSV. A change that moves any series
//! (an algorithm, a workload model, the RNG stream, the online executor
//! behind `switch-cost`) fails here until the CSV is regenerated with
//!
//! ```text
//! cargo run --release -p pobp-bench --bin sweep -- <series> > docs/results/<series>.csv
//! ```

use std::path::Path;
use std::process::Command;

const SERIES: [&str; 5] = ["kbas-loss", "fig4-price", "lsa-price", "k0-price", "switch-cost"];

#[test]
fn committed_result_series_match_the_sweep_binary() {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../docs/results");
    for series in SERIES {
        let out = Command::new(env!("CARGO_BIN_EXE_sweep")).arg(series).output().unwrap();
        assert!(out.status.success(), "sweep {series}: {}", String::from_utf8_lossy(&out.stderr));
        let committed = std::fs::read_to_string(results.join(format!("{series}.csv"))).unwrap();
        assert_eq!(
            String::from_utf8(out.stdout).unwrap(),
            committed,
            "docs/results/{series}.csv is stale; regenerate it with the sweep binary"
        );
    }
}
