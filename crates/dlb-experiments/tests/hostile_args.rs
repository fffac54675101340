//! Every `dlb-exp` row refuses `--n 1` the way it refuses an unknown
//! key: the reason, the usage line, exit 2, and nothing on stdout — no
//! panic, no partial table, no file written.

use dlb_experiments::exp::EXPERIMENTS;
use std::process::Command;

#[test]
fn every_row_refuses_a_one_processor_network_before_any_output() {
    // A row that ran anyway would write its CSV here, not under results/.
    let dir = std::env::temp_dir().join("dlb_exp_hostile_n");
    std::fs::create_dir_all(&dir).expect("scratch directory");
    for row in EXPERIMENTS {
        let out = Command::new(env!("CARGO_BIN_EXE_dlb-exp"))
            .args([row.name, "--n", "1"])
            .current_dir(&dir)
            .output()
            .expect("dlb-exp runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let name = row.name;
        assert_eq!(out.status.code(), Some(2), "{name}: {stderr}");
        assert!(out.stdout.is_empty(), "{name} printed before refusing");
        let reason = if row.keys.iter().any(|k| k.name == "n") {
            "error: --n 1: "
        } else {
            "error: unknown option --n\n"
        };
        assert!(stderr.starts_with(reason), "{name}: {stderr}");
        assert!(
            stderr.contains(&format!("usage: dlb-exp {name} ")),
            "{name}: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
