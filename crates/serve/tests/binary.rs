//! End-to-end tests of the `eba-serve` binary's exit status.

use std::process::{Command, Stdio};

/// A closed stderr does not change the exit status: an unknown option
/// still exits 2, not 101 from a panic on the failed write.
#[test]
fn usage_error_keeps_status_two_when_stderr_is_closed() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let status = Command::new(env!("CARGO_BIN_EXE_eba-serve"))
        .arg("--bogus")
        .stdout(Stdio::null())
        .stderr(writer)
        .status()
        .expect("binary runs");
    assert_eq!(status.code(), Some(2));
}

/// `--help` on a stdout whose reader has gone exits 141, 128 + SIGPIPE,
/// like `eba-check`, not 101 from a panic on the failed write.
#[test]
fn help_ends_with_status_141_when_stdout_is_closed() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let output = Command::new(env!("CARGO_BIN_EXE_eba-serve"))
        .arg("--help")
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(141), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
