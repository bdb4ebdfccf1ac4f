//! The experiment binaries' argument handling: a flag a binary does not
//! know is an error, never silently ignored.

use std::process::Command;

fn run(bin: &str, args: &[&str]) -> std::process::Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"))
}

#[test]
fn retired_trace_flag_is_rejected_by_e2_overhead() {
    let out = run(env!("CARGO_BIN_EXE_e2_overhead"), &["--trace", "1"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag: --trace"), "{stderr}");
    assert!(stderr.contains("usage: e2_overhead"), "{stderr}");
    assert!(out.stdout.is_empty(), "no table was printed");
}

#[test]
fn unknown_flags_are_rejected_by_every_traced_binary() {
    for bin in [
        env!("CARGO_BIN_EXE_e6_sheet"),
        env!("CARGO_BIN_EXE_e13_bulk_edits"),
        env!("CARGO_BIN_EXE_all_experiments"),
    ] {
        let out = run(bin, &["--bogus"]);
        assert_eq!(out.status.code(), Some(2), "{bin}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown flag: --bogus"), "{bin}: {stderr}");
    }
}

#[test]
fn metrics_sidecar_is_written_only_with_its_table() {
    let dir = std::env::temp_dir().join(format!("alphonse-bench-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bin = env!("CARGO_BIN_EXE_all_experiments");
    let quick = Command::new(bin)
        .args(["--quick", "e9"])
        .current_dir(&dir)
        .output()
        .unwrap();
    assert!(quick.status.success());
    assert!(
        std::fs::read_dir(&dir).unwrap().next().is_none(),
        "a run without --json writes nothing"
    );
    let json = Command::new(bin)
        .args(["--quick", "--json", "e9"])
        .current_dir(&dir)
        .output()
        .unwrap();
    assert!(json.status.success());
    assert!(dir.join("BENCH_E9.json").exists());
    let sidecar = std::fs::read_to_string(dir.join("METRICS_E9.json")).unwrap();
    assert!(sidecar.contains("wave_latency_ns"), "{sidecar}");
    std::fs::remove_dir_all(&dir).unwrap();
}
