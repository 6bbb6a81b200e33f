//! The whole kernel zoo must run clean under the sanitizer: no shared
//! races, no out-of-bounds lanes, no uninitialized reads, no divergent
//! barriers — across every mapping variant and both precisions.

use gpu_sim::exec::launch_with;
use gpu_sim::{DeviceSpec, ExecConfig, GpuMemory, LaunchConfig, LaunchResult};
use tridiag_core::generators::random_batch;
use tridiag_core::Layout;
use tridiag_gpu::buffers::upload;
use tridiag_gpu::kernels::cr_shared::CrSharedKernel;
use tridiag_gpu::kernels::fused::FusedKernel;
use tridiag_gpu::kernels::p_thomas::{AddrMap, PThomasKernel};
use tridiag_gpu::kernels::pcr_shared::PcrSharedKernel;
use tridiag_gpu::kernels::tiled_pcr::TiledPcrKernel;
use tridiag_gpu::plan::Step;
use tridiag_gpu::solver::GpuSolverConfig;
use tridiag_gpu::{PlanExecutor, SolvePlan};

fn assert_clean(res: &LaunchResult, ctx: &str) {
    assert!(
        res.stats.total.sanitizer.is_clean(),
        "{ctx}: sanitizer counts {:?}\nfirst reports:\n{}",
        res.stats.total.sanitizer,
        res.violations
            .iter()
            .take(5)
            .map(|v| format!("  - {v}"))
            .collect::<Vec<_>>()
            .join("\n"),
    );
    assert!(res.violations.is_empty(), "{ctx}: {:?}", res.violations);
}

fn exec() -> ExecConfig {
    ExecConfig::sanitized()
}

#[test]
fn pcr_shared_is_clean() {
    let (m, n) = (3usize, 128usize);
    let host = random_batch::<f64>(m, n, 11);
    let mut mem = GpuMemory::new();
    let dev = upload(&mut mem, &host);
    let kernel = PcrSharedKernel {
        input: [dev.a, dev.b, dev.c, dev.d],
        x: dev.x,
        n,
        q: 0,
        steps: None,
    };
    let cfg = LaunchConfig::new("pcr_shared", m, 128);
    let res = launch_with(&DeviceSpec::gtx480(), &cfg, &exec(), &kernel, &mut mem).unwrap();
    assert_clean(&res, "pcr_shared");
    assert!(
        host.max_relative_residual(&mem.read(dev.x).unwrap())
            .unwrap()
            < 1e-9
    );
}

/// With a subsystem stride `2^q` each block loads every `2^q`-th row:
/// an interleaved batch of `2^q` systems is one such system, so the
/// strided kernel solves it exactly.
#[test]
fn pcr_shared_strided_subsystems_are_clean() {
    let (systems, len, q) = (4usize, 40usize, 2u32);
    let host = random_batch::<f64>(systems, len, 17).to_layout(Layout::Interleaved);
    for steps in [Some(4), None] {
        let mut mem = GpuMemory::new();
        let dev = upload(&mut mem, &host);
        let kernel = PcrSharedKernel {
            input: [dev.a, dev.b, dev.c, dev.d],
            x: dev.x,
            n: systems * len,
            q,
            steps,
        };
        let cfg = LaunchConfig::new("pcr_shared_strided", systems, 64);
        let res = launch_with(&DeviceSpec::gtx480(), &cfg, &exec(), &kernel, &mut mem).unwrap();
        assert_clean(&res, &format!("pcr_shared q={q} steps={steps:?}"));
        let resid = host
            .max_relative_residual(&mem.read(dev.x).unwrap())
            .unwrap();
        assert!(resid < 1e-9, "steps={steps:?}: {resid}");
    }
}

#[test]
fn cr_shared_is_clean_padded_and_plain() {
    for padded in [false, true] {
        let (m, n) = (2usize, 256usize);
        let host = random_batch::<f64>(m, n, 13);
        let mut mem = GpuMemory::new();
        let dev = upload(&mut mem, &host);
        let kernel = CrSharedKernel {
            input: [dev.a, dev.b, dev.c, dev.d],
            x: dev.x,
            n,
            padded,
        };
        let cfg = LaunchConfig::new("cr_shared", m, 128);
        let res = launch_with(&DeviceSpec::gtx480(), &cfg, &exec(), &kernel, &mut mem).unwrap();
        assert_clean(&res, &format!("cr_shared padded={padded}"));
    }
}

#[test]
fn tiled_pcr_is_clean_across_mappings() {
    for (name, m, n, k, c, assignments, threads) in [
        (
            "11a",
            3usize,
            100usize,
            3u32,
            2usize,
            TiledPcrKernel::assign_block_per_system(3, 100),
            1u32 << 3,
        ),
        (
            "11b",
            1,
            256,
            3,
            1,
            TiledPcrKernel::assign_block_group_per_system(1, 256, 4),
            1u32 << 3,
        ),
        (
            "11c",
            4,
            64,
            2,
            1,
            TiledPcrKernel::assign_multi_system_per_block(4, 64, 2),
            2u32 << 2,
        ),
    ] {
        let host = random_batch::<f64>(m, n, 17);
        let mut mem = GpuMemory::new();
        let dev = upload(&mut mem, &host);
        let out = [
            mem.alloc(m * n),
            mem.alloc(m * n),
            mem.alloc(m * n),
            mem.alloc(m * n),
        ];
        let blocks = assignments.len();
        let kernel = TiledPcrKernel {
            input: [dev.a, dev.b, dev.c, dev.d],
            output: out,
            n,
            k,
            sub_tile: c << k,
            assignments,
        };
        let cfg = LaunchConfig::new("tiled_pcr", blocks, threads);
        let res = launch_with(&DeviceSpec::gtx480(), &cfg, &exec(), &kernel, &mut mem).unwrap();
        assert_clean(&res, &format!("tiled_pcr {name}"));
    }
}

#[test]
fn p_thomas_is_clean_interleaved_and_hybrid() {
    let (m, n) = (64usize, 64usize);
    let host = random_batch::<f64>(m, n, 19).to_layout(Layout::Interleaved);
    let mut mem = GpuMemory::new();
    let dev = upload(&mut mem, &host);
    let cp = mem.alloc(dev.total());
    let dp = mem.alloc(dev.total());
    let kernel = PThomasKernel {
        a: dev.a,
        b: dev.b,
        c: dev.c,
        d: dev.d,
        c_prime: cp,
        d_prime: dp,
        x: dev.x,
        map: AddrMap::Interleaved { m, n },
    };
    let cfg = LaunchConfig::new("p_thomas", 2, 32);
    let res = launch_with(&DeviceSpec::gtx480(), &cfg, &exec(), &kernel, &mut mem).unwrap();
    assert_clean(&res, "p_thomas interleaved");
}

#[test]
fn fused_is_clean() {
    let (m, n, k, c) = (2usize, 200usize, 3u32, 2usize);
    let host = random_batch::<f64>(m, n, 23);
    let mut mem = GpuMemory::new();
    let dev = upload(&mut mem, &host);
    let cp = mem.alloc(m * n);
    let dp = mem.alloc(m * n);
    let kernel = FusedKernel {
        input: [dev.a, dev.b, dev.c, dev.d],
        c_prime: cp,
        d_prime: dp,
        x: dev.x,
        n,
        k,
        sub_tile: c << k,
        m,
    };
    let cfg = LaunchConfig::new("fused", m, 1 << k);
    let res = launch_with(&DeviceSpec::gtx480(), &cfg, &exec(), &kernel, &mut mem).unwrap();
    assert_clean(&res, "fused");
    assert!(
        host.max_relative_residual(&mem.read(dev.x).unwrap())
            .unwrap()
            < 1e-9
    );
}

#[test]
fn window_engine_is_clean_under_multi_slot_streaming() {
    // The window engine is the shared streaming core; drive it through
    // the fused kernel (one slot) at f32 and through tiled PCR with
    // multiple slots per block, which exercises the carry/cache rolls
    // hardest.
    let (m, n, k) = (6usize, 96usize, 2u32);
    let host = random_batch::<f32>(m, n, 29);
    let mut mem = GpuMemory::new();
    let dev = upload(&mut mem, &host);
    let out = [
        mem.alloc(m * n),
        mem.alloc(m * n),
        mem.alloc(m * n),
        mem.alloc(m * n),
    ];
    let assignments = TiledPcrKernel::assign_multi_system_per_block(m, n, 3);
    let blocks = assignments.len();
    let kernel = TiledPcrKernel {
        input: [dev.a, dev.b, dev.c, dev.d],
        output: out,
        n,
        k,
        sub_tile: 2 << k,
        assignments,
    };
    let cfg = LaunchConfig::new("window_multi_slot", blocks, 3 << k);
    let res = launch_with(&DeviceSpec::gtx480(), &cfg, &exec(), &kernel, &mut mem).unwrap();
    assert_clean(&res, "window multi-slot f32");
}

#[test]
fn elided_solve_on_borrowed_inputs_is_clean() {
    // An interleaved host batch under a k = 0 interleaved plan needs no
    // layout change, so the executor borrows all four coefficient
    // arrays; initcheck must see them as fully initialized.
    let (m, n) = (2048usize, 64usize);
    let spec = DeviceSpec::gtx480();
    let plan = SolvePlan::build_for_host(
        &spec,
        &GpuSolverConfig::default(),
        Layout::Interleaved,
        m,
        n,
        8,
    )
    .unwrap();
    assert_eq!((plan.k, plan.layout), (0, Layout::Interleaved));
    assert!(
        !plan.steps.iter().any(|s| matches!(s, Step::Convert { .. })),
        "the plan should elide its layout conversion"
    );
    let host = random_batch::<f64>(m, n, 31).to_layout(Layout::Interleaved);
    let mut ex = PlanExecutor::new(spec, exec());
    let (x, report) = ex.run(&plan, &host).unwrap();
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert!(
        report.verify_mismatches.is_empty(),
        "{:?}",
        report.verify_mismatches
    );
    assert!(host.max_relative_residual(&x).unwrap() < 1e-9);
}
