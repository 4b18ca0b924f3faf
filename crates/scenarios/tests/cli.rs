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

/// The string literals opening a match arm (`"run-all" => …`, `"--help" |
/// "-h" => …`) of the function starting at `from` in the binary's source.
fn arm_literals<'a>(source: &'a str, from: &str) -> Vec<&'a str> {
    let body = &source[source.find(from).expect("function in prft-lab.rs")..];
    let body = &body[..body.find("\n}\n").expect("end of function")];
    let arms = body
        .lines()
        .map(str::trim_start)
        .filter(|line| line.starts_with('"'))
        .filter_map(|line| line.split_once("=>"));
    arms.flat_map(|(pattern, _)| pattern.split('"').skip(1).step_by(2))
        .collect()
}

/// `usage()` is the CLI's only reference: every command `main` dispatches
/// and every flag `parse_options` accepts must appear in it.
#[test]
fn usage_lists_every_command_and_flag() {
    let source = include_str!("../src/bin/prft-lab.rs");
    let help = Command::new(env!("CARGO_BIN_EXE_prft-lab"))
        .arg("help")
        .output()
        .expect("run prft-lab help");
    assert!(help.status.success());
    let usage = String::from_utf8(help.stderr).expect("utf-8 usage");
    let commands = arm_literals(source, "fn main()");
    let mut flags = arm_literals(source, "fn parse_options(");
    flags.retain(|arm| arm.starts_with("--")); // not the value arms (`"json"`, `"on"`)
    assert!(commands.contains(&"claims") && commands.contains(&"run-all"));
    assert!(flags.contains(&"--seeds") && flags.contains(&"--explain-reuse"));
    for word in commands.iter().chain(&flags) {
        let listed = usage.lines().any(|line| {
            let mut words = line.split([' ', '|', '[', ']']);
            words.any(|w| w == *word)
        });
        assert!(listed, "usage() does not list `{word}`");
    }
}
