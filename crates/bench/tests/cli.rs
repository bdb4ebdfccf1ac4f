//! `all_experiments` argument handling: a flag it does not know is an
//! error, never silently ignored, and files are written only on request.

use std::process::Command;

fn run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_all_experiments"))
        .args(args)
        .output()
        .expect("cannot run all_experiments")
}

#[test]
fn retired_trace_flag_is_rejected_with_the_usage_line() {
    let out = run(&["--trace", "1"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag: --trace"), "{stderr}");
    assert!(stderr.contains("usage: all_experiments"), "{stderr}");
    assert!(out.stdout.is_empty(), "no table was printed");
}

#[test]
fn unknown_flags_are_rejected() {
    for flag in ["--bogus", "--quik"] {
        let out = run(&[flag, "e9"]);
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flag: {flag}")),
            "{stderr}"
        );
        assert!(out.stdout.is_empty(), "{flag}: no table was printed");
    }
}

#[test]
fn tables_and_sidecars_are_written_only_with_json() {
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
