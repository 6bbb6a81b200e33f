//! Modeled-time ablations of the design choices the paper argues for:
//!
//! 1. **Kernel fusion** (Section III-C): fused vs split pipeline — and
//!    the regime where fusion stops paying (the register-pressure
//!    occupancy penalty the paper warns about).
//! 2. **Grid mapping** (Fig. 11): block-per-system vs block-group vs
//!    multi-system-per-block on workloads that favour each.
//! 3. **Dependency caching** (Section III-A): the sliding window vs
//!    naive halo tiling, in global-memory traffic.
//! 4. **Bank-conflict padding** (reference [10]): in-shared CR with and
//!    without the Göddeke padding.
//!
//! Run: `cargo run --release -p bench --bin ablations_model [-- --fast]`

use bench::table::{fmt_us, TextTable};
use bench::HarnessArgs;
use gpu_sim::{launch, DeviceSpec, GpuMemory, LaunchConfig, Precision};
use tridiag_core::generators::{dominant_random, random_batch};
use tridiag_core::tiled_pcr;
use tridiag_core::transition::TransitionPolicy;
use tridiag_gpu::kernels::cr_shared::CrSharedKernel;
use tridiag_gpu::solver::{GpuSolverConfig, GpuTridiagSolver, MappingVariant};
use tridiag_gpu::upload;

fn solver(policy: TransitionPolicy, fused: bool, mapping: MappingVariant) -> GpuTridiagSolver {
    GpuTridiagSolver::new(
        DeviceSpec::gtx480(),
        GpuSolverConfig {
            policy,
            fused,
            mapping,
            ..Default::default()
        },
    )
}

fn main() {
    let args = HarnessArgs::parse();
    let mut csv: Vec<String> = Vec::new();

    // ---- 1. fusion ---------------------------------------------------
    println!("== Ablation 1: kernel fusion (Section III-C) ==");
    let mut t = TextTable::new(["M", "N", "split [us]", "fused [us]", "fusion gain"]);
    let configs: &[(usize, usize)] = if args.fast {
        &[(16, 2048)]
    } else {
        &[(4, 4096), (16, 2048), (64, 2048), (256, 1024)]
    };
    for &(m, n) in configs {
        let batch = random_batch::<f64>(m, n, 1);
        let (_, split) = solver(
            TransitionPolicy::Fixed(6),
            false,
            MappingVariant::BlockPerSystem,
        )
        .solve_batch(&batch)
        .expect("split");
        let (_, fused) = solver(
            TransitionPolicy::Fixed(6),
            true,
            MappingVariant::BlockPerSystem,
        )
        .solve_batch(&batch)
        .expect("fused");
        t.row([
            m.to_string(),
            n.to_string(),
            fmt_us(split.total_us),
            fmt_us(fused.total_us),
            format!("{:+.0}%", (split.total_us / fused.total_us - 1.0) * 100.0),
        ]);
        csv.push(format!(
            "fusion,{m},{n},{:.3},{:.3}",
            split.total_us, fused.total_us
        ));
    }
    print!("{}", t.render());

    // ---- 2. grid mappings ---------------------------------------------
    println!("\n== Ablation 2: Fig. 11 grid mappings ==");
    let mut t = TextTable::new([
        "workload",
        "11a block/sys",
        "11b group/sys",
        "11c multi/blk",
    ]);
    let workloads: &[(&str, usize, usize)] = if args.fast {
        &[("few huge (2 x 256K)", 2, 1 << 18)]
    } else {
        &[
            ("few huge (2 x 256K)", 2, 1 << 18),
            ("some large (30 x 16K)", 30, 1 << 14),
            ("many medium (240 x 2K)", 240, 1 << 11),
        ]
    };
    for &(label, m, n) in workloads {
        let batch = random_batch::<f64>(m, n, 2);
        let mut cells = vec![label.to_string()];
        let mut times = Vec::new();
        for mapping in [
            MappingVariant::BlockPerSystem,
            MappingVariant::BlockGroupPerSystem(8),
            MappingVariant::MultiSystemPerBlock(2),
        ] {
            let (x, rep) = solver(TransitionPolicy::Fixed(6), false, mapping)
                .solve_batch(&batch)
                .expect("mapping run");
            assert!(batch.max_relative_residual(&x).expect("resid") < 1e-8);
            cells.push(fmt_us(rep.total_us));
            times.push(rep.total_us);
        }
        t.row(cells);
        csv.push(format!(
            "mapping,{m},{n},{:.3},{:.3},{:.3}",
            times[0], times[1], times[2]
        ));
    }
    print!("{}", t.render());

    // ---- 3. dependency caching (traffic, exact counters) --------------
    println!("\n== Ablation 3: sliding window vs naive tiling (rows loaded) ==");
    let mut t = TextTable::new(["k", "window", "naive", "overhead"]);
    let n = if args.fast { 8192 } else { 65536 };
    let sys = dominant_random::<f64>(n, 3);
    for k in [3u32, 5, 7] {
        let (_, w) = tiled_pcr::reduce_streamed(&sys, k, 1 << k).expect("window");
        let (_, nv) = tiled_pcr::reduce_naive_tiled(&sys, k, 1 << k).expect("naive");
        t.row([
            k.to_string(),
            w.rows_loaded.to_string(),
            nv.rows_loaded.to_string(),
            format!(
                "{:+.0}%",
                (nv.rows_loaded as f64 / w.rows_loaded as f64 - 1.0) * 100.0
            ),
        ]);
        csv.push(format!("caching,{k},{},{}", w.rows_loaded, nv.rows_loaded));
    }
    print!("{}", t.render());

    // ---- 4. CR bank-conflict padding ----------------------------------
    println!("\n== Ablation 4: in-shared CR, Goddeke padding (ref [10]) ==");
    let mut t = TextTable::new(["layout", "bank replays", "modeled [us]"]);
    let (m, n) = (32usize, 512usize);
    let host = random_batch::<f64>(m, n, 4);
    for padded in [false, true] {
        let mut mem = GpuMemory::new();
        let dev = upload(&mut mem, &host);
        let kernel = CrSharedKernel {
            input: [dev.a, dev.b, dev.c, dev.d],
            x: dev.x,
            n,
            padded,
        };
        let cfg = LaunchConfig::new("cr_shared", m, 256);
        let res = launch(&DeviceSpec::gtx480(), &cfg, &kernel, &mut mem).expect("cr");
        assert!(
            host.max_relative_residual(&mem.read(dev.x).expect("x"))
                .expect("resid")
                < 1e-9
        );
        let timing = gpu_sim::time_kernel(&DeviceSpec::gtx480(), &res, Precision::F64);
        t.row([
            if padded { "padded" } else { "plain" }.to_string(),
            res.stats.total.bank_conflict_replays.to_string(),
            fmt_us(timing.total_us),
        ]);
        csv.push(format!(
            "cr_padding,{padded},{},{:.3}",
            res.stats.total.bank_conflict_replays, timing.total_us
        ));
    }
    print!("{}", t.render());

    args.write_csv("ablations_model", "ablation,params...", &csv)
        .expect("write csv");
}
