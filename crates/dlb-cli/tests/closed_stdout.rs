//! A reader that goes away (`dlb run scenarios/lossy_network.json |
//! head -1`) ends `dlb` quietly: status 141, what a shell reports for a
//! writer killed by `SIGPIPE`, and no panic on stderr.

use std::process::Command;

#[test]
fn a_closed_stdout_ends_every_command_quietly() {
    let scenarios = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
    let lossy = format!("{scenarios}/lossy_network.json");
    let service = format!("{scenarios}/service_diurnal.json");
    let commands: [&[&str]; 4] = [
        &["run", &lossy],
        &["demo"],
        &["template"],
        &["serve", &service, "--mode", "sim"],
    ];
    for args in commands {
        let (reader, writer) = std::io::pipe().expect("a pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_dlb"))
            .args(args)
            .stdout(writer)
            .output()
            .expect("dlb runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "dlb {args:?}: {stderr}");
        assert_eq!(out.status.code(), Some(141), "dlb {args:?}: {stderr}");
    }
}
