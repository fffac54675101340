//! A row that judges its own shapes returns exactly the lines of
//! `results/claims.csv` for its claim ids, and writes its committed
//! golden byte for byte: a judge that drifts from the registry's
//! committed verdicts fails here, not only in a full regeneration.

use dlb_experiments::args::Args;
use dlb_experiments::exp::EXPERIMENTS;
use std::path::Path;

/// The two cheapest rows with shape claims, and the golden each writes.
const ROWS: [(&str, &str); 2] = [
    ("async_latency", "async_latency.csv"),
    ("ablation", "ablation.csv"),
];

#[test]
fn cheap_shape_rows_return_their_claims_csv_lines() {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let claims = std::fs::read_to_string(results.join("claims.csv")).expect("claims.csv");
    let dir = std::env::temp_dir().join("dlb_exp_shape_rows");
    std::fs::remove_dir_all(&dir).ok();
    for (name, golden) in ROWS {
        let row = EXPERIMENTS.iter().find(|e| e.name == name).expect(name);
        let program = format!("dlb-exp {name}");
        let argv = ["--out", dir.to_str().expect("UTF-8")].map(str::to_string);
        let args = Args::parse(&program, argv, row.keys).expect("--out is declared");
        // As `dlb-exp` does before it runs a row.
        args.create_out_dir_or_exit();
        let judged: Vec<String> = (row.run)(&args)
            .iter()
            .map(|fields| fields.join(","))
            .collect();
        let prefix = format!("{name}.");
        let committed: Vec<&str> = claims.lines().filter(|l| l.starts_with(&prefix)).collect();
        assert!(!committed.is_empty(), "claims.csv has no {prefix}* row");
        assert_eq!(judged, committed, "{name}");
        let written = std::fs::read(dir.join(golden)).expect("the row wrote its CSV");
        let expected = std::fs::read(results.join(golden)).expect("committed golden");
        assert!(
            written == expected,
            "{name} wrote other bytes than results/{golden}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
