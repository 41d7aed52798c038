//! Exit status of the `frpt` binary: a good script exits 0, and a bad
//! command exits 1 with an `frpt:` message on stderr.

use std::process::{Command, Output};

fn frpt(script: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_frpt"))
        .args(["-e", script])
        .output()
        .expect("frpt binary runs")
}

#[test]
fn a_good_script_exits_zero() {
    let out = frpt("load b01 10x10; status; defrag; status");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn bad_input_exits_one_with_a_message() {
    for script in ["bogus", "unload 99", "move 5 1,1", "load b01 999x999"] {
        let out = frpt(script);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "`{script}`: {stderr}");
        assert!(stderr.starts_with("frpt: "), "`{script}`: {stderr}");
    }
}
