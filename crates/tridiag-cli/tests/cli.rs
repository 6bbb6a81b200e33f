//! End-to-end tests of the `tridiag` binary.

use std::process::Command;

fn run(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_tridiag"))
        .args(args)
        .output()
        .expect("spawn tridiag");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn solve_reports_residual_and_model_time() {
    let (ok, stdout, stderr) = run(&["solve", "--m", "4", "--n", "128", "--verbose"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("residual"), "{stdout}");
    assert!(stdout.contains("modeled time"), "{stdout}");
    assert!(stdout.contains("tiled_pcr") || stdout.contains("p_thomas"), "{stdout}");
}

#[test]
fn solve_cpu_engines_and_precisions() {
    for engine in ["cpu", "cpu-mt"] {
        let (ok, stdout, stderr) =
            run(&["solve", "--m", "3", "--n", "64", "--engine", engine]);
        assert!(ok, "{engine}: {stderr}");
        assert!(stdout.contains("residual"), "{stdout}");
    }
    let (ok, stdout, _) = run(&["solve", "--m", "2", "--n", "64", "--precision", "f32"]);
    assert!(ok);
    assert!(stdout.contains("(f32)"), "{stdout}");
}

#[test]
fn compare_lists_every_engine() {
    let (ok, stdout, stderr) = run(&["compare", "--m", "4", "--n", "128"]);
    assert!(ok, "stderr: {stderr}");
    for engine in ["cpu", "cpu-mt", "gpu", "davidson", "zhang"] {
        assert!(stdout.contains(engine), "missing {engine}: {stdout}");
    }
}

#[test]
fn info_prints_spec_for_every_device() {
    for device in ["gtx480", "gtx280", "c2050"] {
        let (ok, stdout, stderr) = run(&["info", "--device", device]);
        assert!(ok, "{device}: {stderr}");
        assert!(stdout.contains("occupancy sheet"), "{stdout}");
        assert!(stdout.contains("parallelism"), "{stdout}");
    }
}

#[test]
fn bad_input_fails_with_usage() {
    let (ok, _, stderr) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("usage"), "{stderr}");
    let (ok2, _, stderr2) = run(&["solve", "--engine", "abacus"]);
    assert!(!ok2);
    assert!(stderr2.contains("unknown engine"), "{stderr2}");
    let (ok3, _, stderr3) = run(&["solve", "--n", "banana"]);
    assert!(!ok3);
    assert!(stderr3.contains("cannot parse"), "{stderr3}");
}

#[test]
fn tune_single_device_matches_devices_1() {
    let args = ["tune", "--n", "64", "--m-list", "1,16", "--k-max", "2"];
    let (ok, single, stderr) = run(&args);
    assert!(ok, "stderr: {stderr}");
    let (ok1, grouped, stderr1) = run(&[&args[..], &["--devices", "1"]].concat());
    assert!(ok1, "stderr: {stderr1}");
    assert!(single.contains("best k"), "{single}");
    assert_eq!(
        single, grouped,
        "--devices 1 must tune exactly like one device"
    );
}
