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
    assert!(stdout.contains("fused_pcr_thomas"), "{stdout}");
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

/// Usage errors exit non-zero and say what was wrong — including the
/// retired `plan --sweep`, `verify --sweep` and `bench-service` (those
/// sweeps now live in the test suites), any option a command does not
/// read, and a `--precision` other than `f64`/`f32`.
#[test]
fn bad_input_fails_with_usage() {
    for (args, expected) in [
        (&["frobnicate"][..], "usage"),
        (&["bench-service"], "unknown command \"bench-service\""),
        (&["solve", "--engine", "abacus"], "unknown engine"),
        (&["solve", "--n", "banana"], "cannot parse"),
        (
            &["solve", "--preicsion", "f32"],
            "unknown option --preicsion",
        ),
        (&["plan", "--sweep"], "unknown option --sweep"),
        (&["verify", "--sweep"], "unknown option --sweep"),
        (
            &["verify", "--n", "512", "--sweeep"],
            "unknown option --sweeep",
        ),
        (&["solve", "--precision", "f16"], "--precision \"f16\""),
        (&["plan", "--precision", "f16"], "--precision \"f16\""),
        (&["verify", "--precision", "F32"], "--precision \"F32\""),
        (&["profile", "--precision", "f16"], "--precision \"f16\""),
    ] {
        let (ok, stdout, stderr) = run(args);
        assert!(!ok, "{args:?} ran: {stdout}");
        // `error:` is the exit-1 path; findings (exit 2) print `findings:`.
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert!(stderr.contains(expected), "{args:?}: {stderr}");
    }
}

/// `--split-n auto` splits only when the single-device planner rejects
/// the system as too large: both sides of that fallback, plan only.
#[test]
fn split_auto_plans_split_only_when_one_device_is_too_small() {
    let (ok, stdout, stderr) = run(&["plan", "--split-n", "auto", "--n", "40000000"]);
    assert!(ok, "stderr: {stderr}");
    assert!(
        stdout.starts_with("distributed plan: n=40000000 f64 across 2 device(s)"),
        "{stdout}"
    );
    let (ok, stdout, stderr) = run(&["plan", "--split-n", "auto", "--n", "4096"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.starts_with("plan: m=1 n=4096 f64"), "{stdout}");
    assert!(!stdout.contains("distributed"), "{stdout}");
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

/// `--layout interleaved` hands the batch over interleaved, so the
/// solve runs the conversion-elided plan: the dry run and `plan` must
/// show that plan, not a contiguous-host one with convert steps.
#[test]
fn interleaved_dry_run_shows_the_plan_the_solve_runs() {
    let geometry = ["--m", "64", "--n", "512", "--layout", "interleaved"];
    let (ok, dry, stderr) = run(&[&["solve"][..], &geometry, &["--dry-run"]].concat());
    assert!(ok, "stderr: {stderr}");
    assert!(!dry.contains("convert"), "{dry}");
    assert!(dry.contains("layout=Interleaved host=Interleaved"), "{dry}");
    let (ok, planned, stderr) = run(&[&["plan"][..], &geometry].concat());
    assert!(ok, "stderr: {stderr}");
    assert!(
        dry.starts_with(&planned),
        "plan:\n{planned}\ndry run:\n{dry}"
    );

    let json = |args: &[&str]| {
        let (ok, stdout, stderr) = run(&[args, &geometry, &["--json"]].concat());
        assert!(ok, "{args:?}: {stderr}");
        gpu_sim::json::parse(&stdout).expect("valid JSON")
    };
    let dry_plan = json(&["solve", "--dry-run"]);
    let report = json(&["solve"]);
    assert_eq!(report.get("plan"), Some(&dry_plan));
}
