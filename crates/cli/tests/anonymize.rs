//! `entreport anonymize` streams a capture record by record; what it
//! writes is byte for byte what the owned-trace reference path
//! (`Trace::read_pcap` → `anonymize_trace` → `Trace::write_pcap`, in
//! `ent-integration`) writes, for a clean capture and for the same capture
//! cut mid-record.

// Test helpers may abort, but must say why: a bare `unwrap` outside a
// `#[test]` fn stays a clippy error.
#![allow(clippy::expect_used)]

use ent_gen::build::{build_site, generate_trace_into};
use ent_gen::dataset::dataset;
use ent_gen::GenConfig;
use ent_integration::{anonymize_trace, Trace};
use ent_pcap::PacketArena;
use std::path::Path;
use std::process::Command;

#[test]
fn anonymize_writes_what_the_whole_trace_path_writes() {
    let spec = dataset("D0").expect("D0 exists");
    let config = GenConfig {
        scale: 0.003,
        seed: 7,
        hosts_per_subnet: Some(8),
    };
    let (site, wan) = build_site(&spec, &config);
    let mut arena = PacketArena::unbounded();
    let subnet = spec.monitored.start;
    let (meta, _) = generate_trace_into(&site, &wan, &spec, subnet, 1, &config, &mut arena);
    let clean = arena.write_pcap(Vec::new()).expect("write pcap");
    let cut = &clean[..clean.len() - 100];
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    for (name, capture) in [("clean", &clean[..]), ("cut", cut)] {
        let (input, output) = (dir.join(format!("{name}.pcap")), dir.join(format!("{name}.anon.pcap")));
        std::fs::write(&input, capture).expect("write input capture");
        let run = Command::new(env!("CARGO_BIN_EXE_entreport"))
            .args(["anonymize".as_ref(), input.as_os_str(), output.as_os_str()])
            .args(["--key", "k3y"])
            .output()
            .expect("entreport starts");
        assert!(run.status.success(), "{name}: {}", String::from_utf8_lossy(&run.stderr));

        let (trace, _) = Trace::read_pcap(capture, meta.clone()).expect("header intact");
        let mut want = Vec::new();
        anonymize_trace(&trace, "k3y").write_pcap(&mut want).expect("write anonymized");
        let got = std::fs::read(&output).expect("read anonymized capture");
        assert!(got == want, "{name}: the streamed output differs from the whole-trace path");
    }
}
