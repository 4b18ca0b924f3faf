//! Process-level contracts of the `prft-lab` binary.

use std::process::{Command, Stdio};

/// `prft-lab … | head -1`: a reader that goes away early is a normal end
/// of a pipeline — exit 0, nothing on stderr (it used to be a `println!`
/// panic with a backtrace and exit 101).
#[test]
fn closed_stdout_is_a_clean_exit() {
    for args in [&["list"][..], &["explore", "list"], &["claims", "fig2"]] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_prft-lab"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn prft-lab");
        // Close the read end before the child has had time to print.
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("wait for prft-lab");
        assert!(out.status.success(), "{args:?} exited {:?}", out.status);
        assert!(
            out.stderr.is_empty(),
            "{args:?} wrote to stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
