//! How `wfa-cli` ends when it cannot do what it was asked: an invalid
//! process or replica count is an error message and a non-zero exit, and a
//! reader that closed stdout early is no error at all. Neither may end in a
//! panic.

use std::io::pipe;
use std::process::{Command, Output, Stdio};

fn cli(args: &[&str], stdout: Stdio) -> Output {
    Command::new(env!("CARGO_BIN_EXE_wfa-cli"))
        .args(args)
        .stdout(stdout)
        .stderr(Stdio::piped())
        .output()
        .expect("wfa-cli runs")
}

#[test]
fn hierarchy_rejects_fewer_than_three_processes() {
    for n in ["0", "1", "2"] {
        let out = cli(&["hierarchy", "--n", n, "--runs", "1"], Stdio::piped());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "--n {n}: {stderr}");
        assert_eq!(stderr, format!("error: hierarchy needs --n 3 or more, got {n}\n"));
        assert!(out.stdout.is_empty(), "--n {n} printed a table");
    }
}

#[test]
fn replicated_soaks_reject_fewer_than_three_replicas() {
    // Below three replicas a single-replica fault window leaves no
    // majority: the soak would panic (0 nodes) or report false violations.
    for backend in ["net", "gossip"] {
        for nodes in ["0", "1", "2"] {
            let out =
                cli(&["faults", "soak", "--backend", backend, "--nodes", nodes], Stdio::piped());
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{backend} --nodes {nodes}: {stderr}");
            assert_eq!(
                stderr,
                format!("error: a {backend} soak needs --nodes 3 or more, got {nodes}\n")
            );
            assert!(out.stdout.is_empty(), "{backend} --nodes {nodes} printed a report");
        }
    }
}

#[test]
fn a_closed_stdout_ends_quietly() {
    // The pipe's read end is closed before the command starts, so its very
    // first write fails with a broken pipe.
    for args in [&["faults", "list"][..], &["help"][..]] {
        let (reader, writer) = pipe().expect("a pipe");
        drop(reader);
        let out = cli(args, writer.into());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {:?} {stderr}", out.status);
        assert!(stderr.is_empty(), "{args:?}: {stderr}");
    }
}
