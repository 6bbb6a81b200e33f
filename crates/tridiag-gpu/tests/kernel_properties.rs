//! Property tests of the kernels: for arbitrary shapes, mappings and
//! tile scales, the simulated GPU pipeline is *bit-exact* against the
//! host algorithms and its traffic counters obey the paper's accounting.

use gpu_sim::{launch, DeviceSpec, GpuMemory, LaunchConfig};
use proptest::prelude::*;
use tridiag_core::generators::random_batch;
use tridiag_core::pcr;
use tridiag_gpu::buffers::upload;
use tridiag_gpu::kernels::p_thomas::{AddrMap, PThomasKernel};
use tridiag_gpu::kernels::tiled_pcr::TiledPcrKernel;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Tiled PCR on the simulator equals host PCR bit-for-bit for any
    /// shape, step count, sub-tile scale and grid mapping.
    #[test]
    fn tiled_pcr_kernel_bit_exact(
        m in 1usize..5,
        n in 32usize..300,
        k in 1u32..5,
        c in 1usize..4,
        mapping in 0usize..3,
        seed in any::<u64>(),
    ) {
        prop_assume!((1usize << k) <= n);
        let host = random_batch::<f64>(m, n, seed);
        let mut mem = GpuMemory::new();
        let dev = upload(&mut mem, &host);
        let out = [mem.alloc(m * n), mem.alloc(m * n), mem.alloc(m * n), mem.alloc(m * n)];
        let st = c << k;
        let (assignments, threads) = match mapping {
            0 => (TiledPcrKernel::assign_block_per_system(m, n), 1u32 << k),
            1 => (TiledPcrKernel::assign_block_group_per_system(m, n, 3), 1u32 << k),
            _ => (TiledPcrKernel::assign_multi_system_per_block(m, n, 2), 2u32 << k),
        };
        let blocks = assignments.len();
        let kernel = TiledPcrKernel {
            input: [dev.a, dev.b, dev.c, dev.d],
            output: out,
            n,
            k,
            sub_tile: st,
            assignments,
        };
        let cfg = LaunchConfig::new("tiled_pcr", blocks, threads);
        launch(&DeviceSpec::gtx480(), &cfg, &kernel, &mut mem).unwrap();
        for sys in 0..m {
            let reference = pcr::reduce(&host.system(sys).unwrap(), k).unwrap();
            let (ra, rb, rc, rd) = reference.arrays();
            for row in 0..n {
                let g = sys * n + row;
                prop_assert_eq!(mem.read(out[0]).unwrap()[g], ra[row]);
                prop_assert_eq!(mem.read(out[1]).unwrap()[g], rb[row]);
                prop_assert_eq!(mem.read(out[2]).unwrap()[g], rc[row]);
                prop_assert_eq!(mem.read(out[3]).unwrap()[g], rd[row]);
            }
        }
    }

    /// p-Thomas solves arbitrary interleaved batches, and its useful
    /// traffic is exactly 9 element-moves per row (4 coefficient loads,
    /// c'/d' store + reload, x store).
    #[test]
    fn p_thomas_traffic_accounting(
        m in 1usize..200,
        n in 1usize..80,
        seed in any::<u64>(),
    ) {
        let host = random_batch::<f64>(m, n, seed)
            .to_layout(tridiag_core::Layout::Interleaved);
        let mut mem = GpuMemory::new();
        let dev = upload(&mut mem, &host);
        let cp = mem.alloc(m * n);
        let dp = mem.alloc(m * n);
        let kernel = PThomasKernel {
            a: dev.a, b: dev.b, c: dev.c, d: dev.d,
            c_prime: cp, d_prime: dp, x: dev.x,
            map: AddrMap::Interleaved { m, n },
        };
        let tpb = 128u32.min(m as u32).max(1);
        let cfg = LaunchConfig::new("p_thomas", m.div_ceil(tpb as usize), tpb);
        let res = launch(&DeviceSpec::gtx480(), &cfg, &kernel, &mut mem).unwrap();
        prop_assert!(host.max_relative_residual(&mem.read(dev.x).unwrap()).unwrap() < 1e-8);
        let rows = (m * n) as u64;
        prop_assert_eq!(res.stats.total.global_bytes(), 9 * rows * 8);
    }
}
