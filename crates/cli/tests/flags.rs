//! Which flags each command takes, checked on the built binary's exit
//! codes: a flag outside a command's list is refused by name. `analyze`
//! runs a capture inline or on the one worker lane (`--shards 0|1`);
//! `study` and `packs` ingest generated traces inline and take no
//! `--shards` at all.

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
fn shards_is_an_unknown_flag_to_study_and_packs() {
    for cmd in ["study", "packs"] {
        for value in ["0", "1"] {
            let out = entreport(&[cmd, "--shards", value]);
            assert_eq!(out.status.code(), Some(2), "{cmd}: {}", stderr(&out));
            assert!(stderr(&out).contains("unknown flag --shards"), "{cmd}: {}", stderr(&out));
            assert!(out.stdout.is_empty(), "{cmd} ran before refusing the flag");
        }
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

#[test]
fn every_command_refuses_a_misspelled_flag_naming_it() {
    // One typo per command, each next to the flag it misspells. The
    // command stops before reading a file or generating a trace.
    let cases: [&[&str]; 8] = [
        &["study", "--thread", "1"],
        &["packs", "--pack", "base"],
        &["generate", "--dataset", "D0", "--subnets", "3", "--out", "never.pcap"],
        &["analyze", "no-such-capture.pcap", "--shard", "1"],
        &["monitor", "no-such-capture.pcap", "--epoch-sec", "60"],
        &["anonymize", "in.pcap", "out.pcap", "--keys", "42"],
        &["obs-check", "no-such.json", "--strict"],
        &["bench-compare", "a.json", "b.json", "--keep-scanner"],
    ];
    for args in cases {
        let out = entreport(args);
        let typo = args.iter().find(|a| a.starts_with("--") && !["--dataset", "--out"].contains(a));
        let typo = typo.unwrap_or_else(|| panic!("{args:?} holds no typo"));
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        assert!(stderr(&out).contains(&format!("unknown flag {typo}")), "{args:?}: {}", stderr(&out));
        assert!(out.stdout.is_empty(), "{args:?} ran before refusing the flag");
    }
    assert!(!std::path::Path::new("never.pcap").exists(), "generate ran past the typo");
}

#[test]
fn a_value_flag_without_its_value_is_refused() {
    let out = entreport(&["monitor", "no-such-capture.pcap", "--epoch-secs"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("--epoch-secs needs a value"), "{}", stderr(&out));
}
