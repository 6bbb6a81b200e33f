//! Distributed single-system scaling table: the modeled wall-clock of
//! one huge `N`-row solve split across homogeneous GTX480 groups of
//! 1, 2, 4 and 8 devices (`solve --split-n D`).
//!
//! Check to make: the split solutions agree with the single-device
//! solve (worst |Δx| column stays at round-off), the wall-clock drops
//! as `D` grows — in particular `D = 4` must beat `D = 2` at large `N`
//! — and the wall-clock stays below the serialized per-device sum (the
//! chunk pipeline really overlaps). The split does *not* conserve work
//! the way batch sharding does: each chunk solves three right-hand
//! sides (y, u, w), so the interior flops triple. Each chunk batches
//! the three into one `m = 3` run, which costs far less than three
//! `m = 1` runs, so the win is capacity plus wall-clock, not total
//! flops (DESIGN.md §15).
//!
//! Run: `cargo run --release -p bench --bin distributed_scaling
//!       [-- --fast] [-- --history FILE]`

use bench::table::TextTable;
use gpu_sim::{DeviceGroup, DeviceSpec};
use tridiag_core::generators::random_batch;
use tridiag_gpu::solver::GpuTridiagSolver;

/// Parse `--fast` and `--history FILE` from `args` (program name
/// already stripped). Anything else is an error naming it.
fn parse_from(args: impl IntoIterator<Item = String>) -> Result<(bool, Option<String>), String> {
    let mut fast = false;
    let mut history = None;
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--fast" => fast = true,
            "--history" => history = Some(args.next().ok_or("--history needs a file")?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok((fast, history))
}

fn main() {
    let (fast, history) = bench::exit_on_error(parse_from(std::env::args().skip(1)));

    let sizes: &[usize] = if fast { &[1 << 14] } else { &[1 << 15, 1 << 17] };
    let device_counts: &[usize] = if fast { &[1, 2, 4] } else { &[1, 2, 4, 8] };

    println!("== distributed single-system solve: modeled wall-clock vs device count (GTX480) ==");
    let solver = GpuTridiagSolver::gtx480();
    let mut t = TextTable::new([
        "N",
        "D",
        "wall [us]",
        "speedup",
        "serialized [us]",
        "reduced n",
        "worst |dx|",
        "residual",
    ]);
    let mut headline: Vec<(String, f64)> = Vec::new();
    for &n in sizes {
        let batch = random_batch::<f64>(1, n, 42);
        let (reference, base_report) = solver.solve_batch(&batch).expect("single-device solve");
        let mut base_us = 0.0f64;
        let mut wall_by_d: Vec<(usize, f64)> = Vec::new();
        for &d in device_counts {
            let group = DeviceGroup::homogeneous(DeviceSpec::gtx480(), d).expect("group");
            let (x, report) = solver
                .solve_batch_split::<f64>(&group, &batch)
                .expect("distributed solve");
            if d == 1 {
                base_us = report.total_us;
                assert_eq!(
                    report.total_us, base_report.total_us,
                    "D = 1 must be the identity path"
                );
            }
            let worst = reference
                .iter()
                .zip(&x)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            let resid = batch.max_relative_residual(&x).expect("residual");
            let (serialized, reduced_n) = report
                .distributed
                .as_ref()
                .map_or((report.total_us, 0), |s| (s.serialized_us, s.reduced_n));
            t.row([
                n.to_string(),
                d.to_string(),
                format!("{:.1}", report.total_us),
                format!("{:.2}x", base_us / report.total_us),
                format!("{serialized:.1}"),
                reduced_n.to_string(),
                format!("{worst:.2e}"),
                format!("{resid:.2e}"),
            ]);
            headline.push((format!("n{n}_d{d}_wall_us"), report.total_us));
            wall_by_d.push((d, report.total_us));
        }
        // The scaling claim this table exists for: more devices must
        // keep winning once the split is paid for.
        let wall = |d: usize| wall_by_d.iter().find(|(dd, _)| *dd == d).map(|(_, w)| *w);
        if let (Some(w2), Some(w4)) = (wall(2), wall(4)) {
            assert!(
                w4 < w2,
                "n={n}: D=4 wall-clock {w4:.1} us must beat D=2 {w2:.1} us"
            );
        }
    }
    print!("{}", t.render());
    println!();
    println!(
        "wall-clock falls with D (capacity + latency win); every chunk solves its three \
         right-hand sides (y, u, w) as one batched m=3 run, so the interior flops triple \
         but the launches do not"
    );
    if let Some(path) = history.as_deref() {
        bench::history::record(path, "distributed", headline);
    }
}

#[cfg(test)]
mod tests {
    use super::parse_from;

    fn parse(line: &str) -> Result<(bool, Option<String>), String> {
        parse_from(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parse_from_accepts_fast_and_history() {
        assert_eq!(parse(""), Ok((false, None)));
        assert_eq!(
            parse("--fast --history BENCH_history.jsonl"),
            Ok((true, Some("BENCH_history.jsonl".into())))
        );
    }

    #[test]
    fn parse_from_rejects_and_names_unknown_arguments() {
        assert_eq!(parse("--fast --out dir"), Err("unknown argument --out".into()));
        assert_eq!(parse("--history"), Err("--history needs a file".into()));
    }
}
