//! `HarnessArgs::parse` rejects a zero scale, flag or positional, with the
//! usage text and exit status 2, instead of running the paper shapes under
//! a `scale=1/0` headline.

use std::process::Command;

fn fig6(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_fig6_throughput"))
        .args(args)
        .output()
        .expect("fig6_throughput starts")
}

#[test]
fn a_zero_scale_is_rejected_with_the_usage_text() {
    for args in [&["--scale", "0"][..], &["0"][..]] {
        let output = fig6(args);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("positive integer"), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(output.stdout.is_empty(), "{args:?}: nothing runs");
    }
}
