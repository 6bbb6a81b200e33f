//! Sub-tile scale study: the `c` parameter of Table I.
//!
//! A sub-tile holds `c·2^k` rows. Larger `c` amortises the per-sub-tile
//! barriers and cache-splice work over more rows and lengthens the
//! coalesced load runs, but grows the shared-memory window
//! (`4·(2f + c·2^k + …)` elements), which eventually cuts occupancy —
//! the same capacity-vs-parallelism tension the paper resolves in favour
//! of *small* tiles against Davidson's maximal ones. This binary sweeps
//! `c` and prints modeled time, occupancy and barrier counts.
//!
//! Run: `cargo run --release -p bench --bin tile_scale [-- --fast]`

use bench::table::{fmt_us, TextTable};
use bench::HarnessArgs;
use gpu_sim::DeviceSpec;
use tridiag_core::generators::random_batch;
use tridiag_core::transition::TransitionPolicy;
use tridiag_gpu::solver::{GpuSolverConfig, GpuTridiagSolver, MappingVariant};

fn main() {
    let args = HarnessArgs::parse();
    let (m, n, k) = if args.fast {
        (32usize, 2048usize, 5u32)
    } else {
        (64, 8192, 6)
    };
    let batch = random_batch::<f64>(m, n, 5);

    println!("== Sub-tile scale c (Table I): M = {m}, N = {n}, k = {k} ==");
    let mut t = TextTable::new([
        "c",
        "sub-tile",
        "shared B/block",
        "blocks/SM",
        "PCR waves",
        "PCR [us]",
        "total [us]",
    ]);
    let mut csv = Vec::new();
    let mut best: Option<(usize, f64)> = None;
    for c in [1usize, 2, 4, 8, 16] {
        let solver = GpuTridiagSolver::new(
            DeviceSpec::gtx480(),
            GpuSolverConfig {
                policy: TransitionPolicy::Fixed(k),
                sub_tile_scale: c,
                mapping: MappingVariant::BlockPerSystem,
                // The study reads the tiled-PCR launch (`kernels[0]`,
                // `REGS_TILED_PCR`), so it keeps the split pipeline.
                fused: false,
                ..Default::default()
            },
        );
        let Ok((x, report)) = solver.solve_batch(&batch) else {
            println!("c = {c}: window no longer fits shared memory — stop");
            break;
        };
        assert!(batch.max_relative_residual(&x).expect("resid") < 1e-9);
        let pcr = &report.kernels[0];
        t.row([
            c.to_string(),
            (c << k).to_string(),
            pcr.shared_bytes.to_string(),
            format!(
                "{}",
                gpu_sim::occupancy(&DeviceSpec::gtx480(), 1 << k, pcr.shared_bytes, 32)
                    .map(|o| o.blocks_per_sm)
                    .unwrap_or(0)
            ),
            pcr.timing.waves.to_string(),
            fmt_us(report.pcr_us()),
            fmt_us(report.total_us),
        ]);
        csv.push(format!(
            "{c},{},{},{:.3},{:.3}",
            c << k,
            pcr.shared_bytes,
            report.pcr_us(),
            report.total_us
        ));
        if best.map(|(_, t)| report.total_us < t).unwrap_or(true) {
            best = Some((c, report.total_us));
        }
    }
    print!("{}", t.render());
    if let Some((c, us)) = best {
        println!("\nbest c = {c} at {us:.1} us — small tiles keep occupancy, matching the paper's design choice");
    }
    args.write_csv(
        "tile_scale",
        "c,sub_tile,shared_bytes,pcr_us,total_us",
        &csv,
    )
    .expect("write csv");
}
