//! Portability check (Section III-A): "The ability to keep the number
//! of PCR steps under control expands the portability of our method to
//! virtually all GPUs."
//!
//! Runs the same workloads on the GTX480, the 16-KiB-shared GTX280 and
//! the full-rate-FP64 Tesla C2050, showing how the solver adapts: the
//! shared-memory clamp lowers `k` on the GTX280 (where the conventional
//! in-shared method's size cap also collapses), and the C2050 narrows
//! the f64/f32 gap.
//!
//! Run: `cargo run --release -p bench --bin portability [-- --fast]`

use bench::table::{fmt_us, TextTable};
use bench::HarnessArgs;
use gpu_sim::DeviceSpec;
use tridiag_core::generators::random_batch;
use tridiag_gpu::buffers::GpuScalar;
use tridiag_gpu::solver::{GpuSolverConfig, GpuTridiagSolver};
use tridiag_gpu::zhang;

fn run_on<S: GpuScalar>(spec: &DeviceSpec, m: usize, n: usize) -> (f64, u32) {
    let solver = GpuTridiagSolver::new(spec.clone(), GpuSolverConfig::default());
    let batch = random_batch::<S>(m, n, 77);
    let (x, report) = solver.solve_batch(&batch).expect("solve");
    let resid = batch.max_relative_residual(&x).expect("residual");
    assert!(
        resid < tridiag_core::verify::default_tolerance::<S>() * 1e3,
        "{}: residual {resid}",
        spec.name
    );
    (report.total_us, report.k)
}

fn main() {
    let args = HarnessArgs::parse();
    let devices = [
        DeviceSpec::gtx480(),
        DeviceSpec::gtx280(),
        DeviceSpec::c2050(),
    ];
    let workloads: &[(usize, usize)] = if args.fast {
        &[(16, 2048)]
    } else {
        &[(16, 8192), (256, 2048), (4096, 512)]
    };

    let mut csv = Vec::new();
    println!("== Portability: the same solver across three device generations ==");
    for &(m, n) in workloads {
        println!("\n-- workload M = {m}, N = {n} --");
        let mut t = TextTable::new([
            "device",
            "f64 [us]",
            "k (f64)",
            "f32 [us]",
            "k (f32)",
            "max k (f64, smem)",
            "zhang cap (f64 rows)",
        ]);
        for spec in &devices {
            let (t64, k64) = run_on::<f64>(spec, m, n);
            let (t32, k32) = run_on::<f32>(spec, m, n);
            let solver = GpuTridiagSolver::new(spec.clone(), GpuSolverConfig::default());
            let max_k = solver.max_k_for_shared(1, 8);
            let cap = zhang::max_system_size(spec, 8);
            t.row([
                spec.name.to_string(),
                fmt_us(t64),
                k64.to_string(),
                fmt_us(t32),
                k32.to_string(),
                max_k.to_string(),
                cap.to_string(),
            ]);
            csv.push(format!(
                "{},{m},{n},{t64:.3},{k64},{t32:.3},{k32},{max_k},{cap}",
                spec.name
            ));
        }
        print!("{}", t.render());
    }

    // Structural claims.
    let gtx280 = GpuTridiagSolver::new(DeviceSpec::gtx280(), GpuSolverConfig::default());
    let gtx480 = GpuTridiagSolver::new(DeviceSpec::gtx480(), GpuSolverConfig::default());
    assert!(
        gtx280.max_k_for_shared(1, 8) < gtx480.max_k_for_shared(1, 8),
        "16 KiB shared memory must clamp k harder"
    );
    assert!(
        zhang::max_system_size(&DeviceSpec::gtx280(), 8)
            < zhang::max_system_size(&DeviceSpec::gtx480(), 8)
    );
    println!("\nstructural checks: smaller shared memory clamps k and the in-shared cap ✓");
    println!("tiled PCR itself ran on every device — the paper's portability claim holds here.");

    args.write_csv(
        "portability",
        "device,m,n,f64_us,k64,f32_us,k32,max_k_f64,zhang_cap_f64",
        &csv,
    )
    .expect("write csv");
}
