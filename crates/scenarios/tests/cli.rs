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

/// The quoted words of the binary's `COMMANDS` table: every command name
/// and every flag a command takes.
fn table_words(source: &str) -> Vec<&str> {
    let table = &source[source.find("const COMMANDS").expect("the flag table")..];
    let table = &table[..table.find("\n];").expect("end of the flag table")];
    table.split('"').skip(1).step_by(2).collect()
}

/// `usage()` is the CLI's only reference: every command and every flag of
/// the flag table must appear in it.
#[test]
fn usage_lists_every_command_and_flag() {
    let help = Command::new(env!("CARGO_BIN_EXE_prft-lab"))
        .arg("help")
        .output()
        .expect("run prft-lab help");
    assert!(help.status.success());
    let usage = String::from_utf8(help.stderr).expect("utf-8 usage");
    let words = table_words(include_str!("../src/bin/prft-lab.rs"));
    assert!(words.contains(&"explore run-all") && words.contains(&"--explain-reuse"));
    for word in words {
        let listed = usage.lines().any(|line| {
            let line = line.replace(['|', '[', ']', ','], " ");
            format!(" {line} ").contains(&format!(" {word} "))
        });
        assert!(listed, "usage() does not list `{word}`");
    }
}
