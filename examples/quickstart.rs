//! Quickstart: build a batch of tridiagonal systems, solve it on the
//! CPU reference and on the simulated GTX480, and compare.
//!
//! Run: `cargo run --release --example quickstart`

use scalable_tridiag::cpu_ref;
use scalable_tridiag::tridiag_core::{generators, thomas, TridiagonalSystem};
use scalable_tridiag::tridiag_gpu::solver::GpuTridiagSolver;

fn main() {
    // --- one system, solved directly --------------------------------
    // | 2 1     | x = | 5 |
    // | 1 3 1   |     |10 |
    // |   1 2 1 |     | 8 |
    // |     1 4 |     |14 |
    let system = TridiagonalSystem::new(
        vec![0.0, 1.0, 1.0, 1.0],
        vec![2.0, 3.0, 2.0, 4.0],
        vec![1.0, 1.0, 1.0, 0.0],
        vec![5.0, 10.0, 8.0, 14.0],
    )
    .expect("well-formed system");
    let x = thomas::solve_typed(&system).expect("diagonally dominant");
    println!("single system solution: {x:?}");
    println!(
        "residual: {:.2e}",
        system.relative_residual(&x).expect("same length")
    );

    // --- a batch on CPU and simulated GPU ----------------------------
    let (m, n) = (256usize, 1024usize);
    let batch = generators::random_batch::<f64>(m, n, 42);

    let t0 = std::time::Instant::now();
    let x_cpu =
        cpu_ref::solve_batch_threaded(&batch, &cpu_ref::ThreadPool::per_cpu()).expect("cpu solve");
    let cpu_wall = t0.elapsed();

    let solver = GpuTridiagSolver::gtx480();
    let (x_gpu, report) = solver.solve_batch(&batch).expect("gpu solve");

    let max_diff = x_cpu
        .iter()
        .zip(&x_gpu)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!("\nbatch of {m} x {n} systems");
    println!("  CPU (threaded, host wall-clock): {cpu_wall:?}");
    println!(
        "  GPU (modeled GTX480):            {:.1} us, k = {} PCR steps, {} kernel(s)",
        report.total_us,
        report.k,
        report.kernels.len()
    );
    println!("  max |x_cpu - x_gpu| = {max_diff:.2e}");
    println!(
        "  batch residual (GPU solution): {:.2e}",
        batch.max_relative_residual(&x_gpu).expect("residual")
    );
    for kr in &report.kernels {
        println!(
            "  kernel {:>16}: {:8.1} us ({:?}-bound, {:.0}% occupancy, {:.1} MiB traffic)",
            kr.timing.name,
            kr.timing.total_us,
            kr.timing.bound,
            kr.timing.occupancy_fraction * 100.0,
            kr.traffic.traffic_mib,
        );
    }
}
