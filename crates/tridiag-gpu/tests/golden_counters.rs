//! Golden-counter snapshots: every kernel's instrumentation counters
//! (flops, global transactions/bytes, access rounds, shared accesses,
//! bank-conflict replays, barriers, peak shared bytes) pinned to exact
//! values at fixed (N, M, k).
//!
//! These are change detectors for the *cost model's inputs*: an edit
//! that alters how a kernel touches memory or synchronizes shows up
//! here even when the numerics stay bit-identical. On an intentional
//! change, re-run with `--nocapture` and copy the printed actual line
//! into the golden.

use gpu_sim::{launch, BlockStats, DeviceSpec, GpuMemory, LaunchConfig};
use tridiag_core::generators::random_batch;
use tridiag_core::Layout;
use tridiag_gpu::buffers::upload;
use tridiag_gpu::kernels::cr_shared::CrSharedKernel;
use tridiag_gpu::kernels::fused::FusedKernel;
use tridiag_gpu::kernels::p_thomas::{AddrMap, PThomasKernel};
use tridiag_gpu::kernels::pcr_shared::PcrSharedKernel;
use tridiag_gpu::kernels::tiled_pcr::TiledPcrKernel;

/// One-line canonical rendering of the counters under test.
fn snapshot(t: &BlockStats) -> String {
    format!(
        "flops={} gld_t={} gst_t={} gld_b={} gst_b={} rounds={} sh={} replays={} barriers={} shmem={}",
        t.flops,
        t.global_load_transactions,
        t.global_store_transactions,
        t.global_load_bytes,
        t.global_store_bytes,
        t.global_access_rounds,
        t.shared_accesses,
        t.bank_conflict_replays,
        t.barriers,
        t.shared_bytes_peak,
    )
}

fn check(name: &str, total: &BlockStats, golden: &str) {
    let actual = snapshot(total);
    println!("{name}: {actual}");
    assert_eq!(actual, golden, "{name} counters drifted");
}

#[test]
fn pcr_shared_counters() {
    let (m, n) = (4usize, 128usize);
    let host = random_batch::<f64>(m, n, 41);
    let mut mem = GpuMemory::new();
    let dev = upload(&mut mem, &host);
    let kernel = PcrSharedKernel {
        input: [dev.a, dev.b, dev.c, dev.d],
        x: dev.x,
        n,
        steps: None,
    };
    let cfg = LaunchConfig::new("pcr_shared", m, 128);
    let res = launch(&DeviceSpec::gtx480(), &cfg, &kernel, &mut mem).unwrap();
    check(
        "pcr_shared m=4 n=128 f64",
        &res.stats.total,
        "flops=50688 gld_t=128 gst_t=32 gld_b=16384 gst_b=4096 rounds=20 sh=256 replays=1024 barriers=60 shmem=8192",
    );
}

#[test]
fn cr_shared_counters() {
    let (m, n) = (2usize, 256usize);
    let host = random_batch::<f64>(m, n, 43);
    let mut mem = GpuMemory::new();
    let dev = upload(&mut mem, &host);
    let kernel = CrSharedKernel {
        input: [dev.a, dev.b, dev.c, dev.d],
        x: dev.x,
        n,
        padded: true,
    };
    let cfg = LaunchConfig::new("cr_shared", m, 128);
    let res = launch(&DeviceSpec::gtx480(), &cfg, &kernel, &mut mem).unwrap();
    check(
        "cr_shared m=2 n=256 f64 padded",
        &res.stats.total,
        "flops=9652 gld_t=128 gst_t=32 gld_b=16384 gst_b=4096 rounds=20 sh=256 replays=448 barriers=30 shmem=8416",
    );
}

#[test]
fn tiled_pcr_counters() {
    let (m, n, k, c) = (3usize, 100usize, 3u32, 2usize);
    let host = random_batch::<f64>(m, n, 47);
    let mut mem = GpuMemory::new();
    let dev = upload(&mut mem, &host);
    let out = [
        mem.alloc(m * n),
        mem.alloc(m * n),
        mem.alloc(m * n),
        mem.alloc(m * n),
    ];
    let assignments = TiledPcrKernel::assign_block_per_system(m, n);
    let blocks = assignments.len();
    let kernel = TiledPcrKernel {
        input: [dev.a, dev.b, dev.c, dev.d],
        output: out,
        n,
        k,
        sub_tile: c << k,
        assignments,
    };
    let cfg = LaunchConfig::new("tiled_pcr", blocks, 1 << k);
    let res = launch(&DeviceSpec::gtx480(), &cfg, &kernel, &mut mem).unwrap();
    check(
        "tiled_pcr m=3 n=100 k=3 c=2 (11a)",
        &res.stats.total,
        "flops=14112 gld_t=180 gst_t=180 gld_b=9600 gst_b=9600 rounds=312 sh=3705 replays=45 barriers=255 shmem=1696",
    );
}

#[test]
fn p_thomas_counters() {
    let (m, n) = (64usize, 64usize);
    let host = random_batch::<f64>(m, n, 53).to_layout(Layout::Interleaved);
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
    let res = launch(&DeviceSpec::gtx480(), &cfg, &kernel, &mut mem).unwrap();
    check(
        "p_thomas m=64 n=64 f64 interleaved",
        &res.stats.total,
        "flops=40960 gld_t=1536 gst_t=768 gld_b=196608 gst_b=98304 rounds=1152 sh=0 replays=0 barriers=0 shmem=0",
    );
}

#[test]
fn fused_counters() {
    let (m, n, k, c) = (2usize, 200usize, 3u32, 2usize);
    let host = random_batch::<f64>(m, n, 59);
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
    let res = launch(&DeviceSpec::gtx480(), &cfg, &kernel, &mut mem).unwrap();
    check(
        "fused m=2 n=200 k=3 c=2 f64",
        &res.stats.total,
        "flops=21472 gld_t=300 gst_t=150 gld_b=19200 gst_b=9600 rounds=450 sh=4174 replays=6 barriers=288 shmem=1408",
    );
}

#[test]
fn window_multi_slot_counters() {
    let (m, n, k) = (6usize, 96usize, 2u32);
    let host = random_batch::<f32>(m, n, 61);
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
    let res = launch(&DeviceSpec::gtx480(), &cfg, &kernel, &mut mem).unwrap();
    check(
        "tiled_pcr m=6 n=96 k=2 q=3 f32 (11c)",
        &res.stats.total,
        "flops=17472 gld_t=384 gst_t=384 gld_b=9216 gst_b=9216 rounds=384 sh=3324 replays=960 barriers=236 shmem=1200",
    );
}
