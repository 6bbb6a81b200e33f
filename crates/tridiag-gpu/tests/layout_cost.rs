//! The layout-aware-planning acceptance gate.
//!
//! Three properties, executed on the simulator (never just asserted on
//! the model's own arithmetic):
//!
//! 1. Whenever the planner selects the interleaved p-Thomas path for
//!    a sweep geometry (the transition rule's `k = 0`), the *measured*
//!    global transaction count of the executed kernel equals the closed-form
//!    coalesced minimum exactly — forward `6·n·cm(m)`, backward
//!    `3·n·cm(m)` with `cm` = [`coalesced_minimum`] per 128-byte
//!    segment.
//! 2. Forced-layout plans (both pins) carry exact resource
//!    certificates: the static verifier is clean and the certificate
//!    cross-checks against measured H2D/D2H/peak stats bit-exactly,
//!    single-device and sharded D ∈ {2, 4}. Default-config plans do
//!    too, on every sweep geometry at both widths and on the sharded
//!    sweep points.
//! 3. A batch handed over pre-interleaved solves through the
//!    conversion-elided plan to the same bits as the contiguous-host
//!    solve of the same systems.

use gpu_sim::memory::coalesced_minimum;
use gpu_sim::{DeviceGroup, DeviceSpec};
use tridiag_core::generators::random_batch;
use tridiag_core::transition::TransitionPolicy;
use tridiag_core::Layout;
use tridiag_gpu::plan::cost;
use tridiag_gpu::solver::{GpuSolverConfig, GpuTridiagSolver, LayoutChoice};
use tridiag_gpu::GpuScalar;

/// The figure-sweep geometries (Fig. 12/13).
const GEOMETRIES: &[(usize, usize)] = &[
    (64, 512),
    (256, 512),
    (1024, 512),
    (64, 2048),
    (256, 2048),
    (2048, 64),
    (256, 256),
    (16, 1024),
    (1, 16384),
];

/// Execute one interleaved-chosen point and check the measured
/// p-Thomas transaction counts against the closed-form floor.
fn check_coalesced_floor<S: GpuScalar>(m: usize, n: usize) {
    let spec = DeviceSpec::gtx480();
    let solver = GpuTridiagSolver::new(spec.clone(), GpuSolverConfig::default());
    let batch = random_batch::<S>(m, n, 42);
    let (_, report) = solver.solve_batch(&batch).unwrap();
    let elem_bytes = <S as gpu_sim::Elem>::BYTES;
    let cm = coalesced_minimum(
        m,
        spec.warp_size as usize,
        elem_bytes,
        spec.transaction_bytes,
    );
    let kr = report
        .kernels
        .iter()
        .find(|k| k.timing.name == "p_thomas")
        .unwrap_or_else(|| panic!("m={m} n={n}: no p_thomas kernel in the report"));
    for (label, accesses_per_row) in [("forward", 6u64), ("backward", 3u64)] {
        let phase = kr
            .timing
            .phases
            .iter()
            .find(|p| p.label == label)
            .unwrap_or_else(|| panic!("m={m} n={n}: no {label} phase"));
        let expected = accesses_per_row * n as u64 * cm;
        assert_eq!(
            phase.stats.global_transactions(),
            expected,
            "m={m} n={n} {}: measured {label} transactions != closed-form \
             coalesced minimum {accesses_per_row}*n*cm({m})",
            S::NAME,
        );
    }
}

/// Property 1: every sweep geometry the planner routes to the
/// interleaved p-Thomas path hits the coalesced floor exactly, at both
/// scalar widths.
#[test]
#[cfg_attr(debug_assertions, ignore = "slow simulation; run with --release")]
fn interleaved_choices_hit_the_coalesced_floor() {
    let solver = GpuTridiagSolver::gtx480();
    let mut interleaved_points = 0usize;
    for &(m, n) in GEOMETRIES {
        for bytes in [8usize, 4] {
            let plan = solver.plan_geometry(m, n, bytes).unwrap();
            if plan.layout != Layout::Interleaved {
                continue;
            }
            assert_eq!(
                plan.k, 0,
                "m={m} n={n}: interleaved plans are pure p-Thomas"
            );
            interleaved_points += 1;
            if bytes == 4 {
                check_coalesced_floor::<f32>(m, n);
            } else {
                check_coalesced_floor::<f64>(m, n);
            }
        }
    }
    assert!(
        interleaved_points >= 2,
        "planner never picked interleaved on the sweep — gate is vacuous"
    );
}

/// Run one point under `config` (the batch pre-interleaved when the
/// layout pin asks for it) and demand a clean verifier report, an exact
/// certificate cross-check and a residual within the precision's
/// tolerance.
fn assert_exact_certificate<S: GpuScalar>(
    config: GpuSolverConfig,
    group: Option<&DeviceGroup>,
    m: usize,
    n: usize,
) {
    let spec = DeviceSpec::gtx480();
    let label = format!("m={m} n={n} {} {:?}", S::NAME, config.layout);
    let solver = GpuTridiagSolver::new(spec, config);
    let batch = random_batch::<S>(m, n, 42);
    let batch = if config.layout == LayoutChoice::Interleaved {
        batch.to_layout(Layout::Interleaved)
    } else {
        batch
    };
    let (x, report) = match group {
        Some(g) => solver.solve_batch_group(g, &batch),
        None => solver.solve_batch(&batch),
    }
    .unwrap_or_else(|e| panic!("{label}: {e}"));
    assert!(
        report.verify.findings.is_empty(),
        "{label}: static findings: {:?}",
        report.verify.findings
    );
    assert!(
        report.verify_mismatches.is_empty(),
        "{label}: certificate drifted from measured stats: {:?}",
        report.verify_mismatches
    );
    let resid = batch.max_relative_residual(&x).unwrap();
    let tol = tridiag_core::verify::default_tolerance::<S>() * 1e3;
    assert!(resid <= tol, "{label}: residual {resid:.3e} > {tol:.3e}");
}

/// Property 2: forced-layout plans certify exactly — both pins,
/// single-device and sharded D ∈ {2, 4}.
#[test]
#[cfg_attr(debug_assertions, ignore = "slow simulation; run with --release")]
fn forced_layouts_carry_exact_certificates() {
    const POINTS: &[(usize, usize)] = &[(64, 512), (1024, 512), (2048, 64)];
    let spec = DeviceSpec::gtx480();
    for choice in [LayoutChoice::Contiguous, LayoutChoice::Interleaved] {
        let config = GpuSolverConfig {
            layout: choice,
            ..Default::default()
        };
        for &(m, n) in POINTS {
            assert_exact_certificate::<f64>(config, None, m, n);
            for devices in [2usize, 4] {
                let group = DeviceGroup::homogeneous(spec.clone(), devices).unwrap();
                assert_exact_certificate::<f64>(config, Some(&group), m, n);
            }
        }
    }
}

/// Property 2, default config: every sweep geometry at both widths on
/// one device, and the sharded sweep points at D ∈ {2, 4}, certify
/// exactly.
#[test]
#[cfg_attr(debug_assertions, ignore = "slow simulation; run with --release")]
fn default_plans_carry_exact_certificates() {
    const SHARDED: &[(usize, usize)] = &[(64, 512), (256, 2048), (16, 1024), (2048, 64)];
    let spec = DeviceSpec::gtx480();
    let config = GpuSolverConfig::default();
    for &(m, n) in GEOMETRIES {
        assert_exact_certificate::<f64>(config, None, m, n);
        assert_exact_certificate::<f32>(config, None, m, n);
    }
    for devices in [2usize, 4] {
        let group = DeviceGroup::homogeneous(spec.clone(), devices).unwrap();
        for &(m, n) in SHARDED {
            assert_exact_certificate::<f64>(config, Some(&group), m, n);
        }
    }
}

/// One row of the pinned p-Thomas layout ablation: global transactions
/// and `total_us` bits for the contiguous strawman and for the
/// coalesced interleaved layout.
struct LayoutPin {
    m: usize,
    contiguous_txn: u64,
    interleaved_txn: u64,
    contiguous_us: u64,
    interleaved_us: u64,
}

/// The layout ablation: forced-layout `k = 0` solves at N = 512, f64
/// (1320.63/333.91, 2335.98/333.91 and 4666.97/333.91 µs).
const LAYOUT_PINS: &[LayoutPin] = &[
    LayoutPin {
        m: 64,
        contiguous_txn: 294912,
        interleaved_txn: 18432,
        contiguous_us: 0x4094_a286_da2c_f364,
        interleaved_us: 0x4074_de86_da2c_f364,
    },
    LayoutPin {
        m: 256,
        contiguous_txn: 1179648,
        interleaved_txn: 73728,
        contiguous_us: 0x40a2_3ff8_29a5_3866,
        interleaved_us: 0x4074_de86_da2c_f364,
    },
    LayoutPin {
        m: 1024,
        contiguous_txn: 4718592,
        interleaved_txn: 294912,
        contiguous_us: 0x40b2_3af8_29a5_3866,
        interleaved_us: 0x4074_de86_da2c_f364,
    },
];

/// Property 4: the layout ablation is pinned exactly. Each row is pure
/// p-Thomas, its measured global transactions equal the closed form
/// [`cost::pthomas_transactions`] and the pinned literal, its modeled
/// time matches the pinned bits, its residual is within tolerance, and
/// interleaved beats contiguous on both transactions and time.
#[test]
#[cfg_attr(debug_assertions, ignore = "slow simulation; run with --release")]
fn layout_ablation_matches_pins() {
    const N: usize = 512;
    let spec = DeviceSpec::gtx480();
    let tol = tridiag_core::verify::default_tolerance::<f64>() * 1e3;
    for pin in LAYOUT_PINS {
        let m = pin.m;
        let batch = random_batch::<f64>(m, N, 42);
        let mut measured = [(0u64, 0.0f64); 2];
        let rows = [
            (
                LayoutChoice::Contiguous,
                Layout::Contiguous,
                pin.contiguous_txn,
                pin.contiguous_us,
            ),
            (
                LayoutChoice::Interleaved,
                Layout::Interleaved,
                pin.interleaved_txn,
                pin.interleaved_us,
            ),
        ];
        for (i, (choice, layout, pinned_txn, pinned_us)) in rows.into_iter().enumerate() {
            let label = format!("m={m} n={N} {layout:?}");
            let solver = GpuTridiagSolver::new(
                spec.clone(),
                GpuSolverConfig {
                    policy: TransitionPolicy::Fixed(0),
                    layout: choice,
                    ..Default::default()
                },
            );
            let (x, report) = solver
                .solve_batch(&batch)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_eq!(report.k, 0, "{label}: not pure p-Thomas");
            assert_eq!(report.plan.layout, layout, "{label}");
            let txn: u64 = report
                .kernels
                .iter()
                .flat_map(|k| &k.timing.phases)
                .map(|p| p.stats.global_transactions())
                .sum();
            assert_eq!(
                txn,
                cost::pthomas_transactions(&spec, layout, m, N, 8),
                "{label}: measured transactions != closed form"
            );
            assert_eq!(
                txn, pinned_txn,
                "{label}: transactions drifted from the pin"
            );
            assert_eq!(
                report.total_us.to_bits(),
                pinned_us,
                "{label}: total_us {:?} ({:#x}) drifted from the pin",
                report.total_us,
                report.total_us.to_bits()
            );
            let resid = batch.max_relative_residual(&x).unwrap();
            assert!(resid <= tol, "{label}: residual {resid:.3e} > {tol:.3e}");
            measured[i] = (txn, report.total_us);
        }
        let [contig, inter] = measured;
        assert!(
            inter.0 < contig.0,
            "m={m}: interleaved must move fewer transactions"
        );
        assert!(inter.1 < contig.1, "m={m}: interleaved must model faster");
    }
}

/// Property 3: the conversion-elided interleaved solve is bit-identical
/// to the contiguous-host solve of the same systems.
#[test]
#[cfg_attr(debug_assertions, ignore = "slow simulation; run with --release")]
fn elided_interleaved_solve_matches_contiguous_bits() {
    for &(m, n) in &[(1024usize, 512usize), (2048, 64)] {
        let spec = DeviceSpec::gtx480();
        let contig = random_batch::<f64>(m, n, 42);
        let inter = contig.to_layout(Layout::Interleaved);

        let auto = GpuTridiagSolver::new(spec.clone(), GpuSolverConfig::default());
        let (x_contig, r_contig) = auto.solve_batch(&contig).unwrap();

        let forced = GpuTridiagSolver::new(
            spec,
            GpuSolverConfig {
                layout: LayoutChoice::Interleaved,
                ..Default::default()
            },
        );
        let (x_inter, r_inter) = forced.solve_batch(&inter).unwrap();
        // The elided plan really elided: no layout conversions at all.
        assert!(
            !r_inter.plan.steps.iter().any(|s| matches!(
                s,
                tridiag_gpu::Step::Convert { .. } | tridiag_gpu::Step::ConvertBack { .. }
            )),
            "m={m} n={n}: forced-interleaved plan kept its Convert steps"
        );
        // Same layout decision on the device either way at these
        // geometries (the heuristic already picks interleaved), so the
        // kernel math is identical and the bits must agree.
        assert_eq!(r_contig.plan.layout, Layout::Interleaved, "m={m} n={n}");
        for sys in 0..m {
            for row in 0..n {
                let a = x_contig[sys * n + row];
                let b = x_inter[row * m + sys];
                assert!(
                    a.to_bits() == b.to_bits(),
                    "m={m} n={n} sys={sys} row={row}: {a:?} != {b:?}"
                );
            }
        }
    }
}
