//! Where `--shards` is taken, checked on the built binary's exit codes:
//! `analyze` runs a capture inline or on the one worker lane; `study` and
//! `packs` ingest generated traces inline, so they refuse the lane and
//! name `analyze` instead.

// Test helpers may abort, but must say why: a bare `panic!` outside a
// `#[test]` fn stays a clippy error.
#![allow(clippy::panic)]

use std::process::{Command, Output};

fn entreport(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_entreport"))
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("entreport {args:?} did not start: {e}"))
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn study_and_packs_refuse_the_lane_and_name_analyze() {
    for cmd in ["study", "packs"] {
        let out = entreport(&[cmd, "--shards", "1"]);
        assert_eq!(out.status.code(), Some(2), "{cmd}: {}", stderr(&out));
        assert!(
            stderr(&out).contains("analyze --shards 1"),
            "{cmd}: {}",
            stderr(&out)
        );
        assert!(out.stdout.is_empty(), "{cmd} ran before refusing the flag");
    }
}

#[test]
fn analyze_takes_no_second_lane() {
    // The flag is judged before the file is read: a missing file would
    // exit 1.
    let out = entreport(&["analyze", "no-such-capture.pcap", "--shards", "2"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("--shards 2"), "{}", stderr(&out));
}
