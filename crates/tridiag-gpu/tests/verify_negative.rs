//! Negative suite for the plan verifier: hand-corrupt a known-good
//! plan one way per diagnostic class and demand [`verify_plan`] /
//! [`verify_sharded_plan`] / [`verify_distributed_plan`] catches each
//! with the right
//! [`FindingKind`] *and* the right step index — a verifier that fires
//! without attribution is barely better than one that stays silent.
//!
//! The base plan is 64 x 512 f64 on the GTX480: the split pipeline
//! (tiled PCR then pThomas), 11 slots, two launches — enough structure
//! to break in every direction. The fused plan the default config
//! builds there (7 slots, one launch) gets the dataflow corruptions
//! that apply to it too. Step indices are located by matching, not
//! hard-coded, so planner layout changes don't rot the suite.

use gpu_sim::{DeviceGroup, DeviceSpec, ExecConfig, SimError};
use tridiag_core::generators::random_batch;
use tridiag_core::Layout;
use tridiag_gpu::plan::{BufferDecl, KernelOp, Step};
use tridiag_gpu::solver::{GpuSolverConfig, GpuTridiagSolver};
use tridiag_gpu::{
    verify_distributed_plan, verify_plan, verify_sharded_plan, DistributedPlan, FindingKind,
    GroupVerifyReport, PlanExecutor, SolvePlan,
};

fn base_plan() -> (DeviceSpec, SolvePlan) {
    let device = DeviceSpec::gtx480();
    let config = GpuSolverConfig {
        fused: false,
        ..Default::default()
    };
    let solver = GpuTridiagSolver::new(device.clone(), config);
    let plan = solver.plan_geometry(64, 512, 8).unwrap();
    assert_eq!(
        plan.launches().count(),
        2,
        "the negative suite expects the split pipeline at 64x512 f64"
    );
    (device, plan)
}

/// The default plan at 64 x 512 f64: the fused pipeline.
fn fused_base_plan() -> (DeviceSpec, SolvePlan) {
    let device = DeviceSpec::gtx480();
    let solver = GpuTridiagSolver::new(device.clone(), GpuSolverConfig::default());
    let plan = solver.plan_geometry(64, 512, 8).unwrap();
    assert!(
        plan.fused,
        "the fused cases expect the fused pipeline at 64x512 f64"
    );
    (device, plan)
}

fn fused_launch_at(plan: &SolvePlan) -> usize {
    step_index(
        plan,
        |s| matches!(s, Step::Launch(l) if matches!(l.op, KernelOp::Fused { .. })),
    )
}

fn step_index(plan: &SolvePlan, pred: impl Fn(&Step) -> bool) -> usize {
    plan.steps
        .iter()
        .position(pred)
        .expect("expected step missing from the base plan")
}

fn tiled_launch_at(plan: &SolvePlan) -> usize {
    step_index(
        plan,
        |s| matches!(s, Step::Launch(l) if matches!(l.op, KernelOp::TiledPcr { .. })),
    )
}

fn thomas_launch_at(plan: &SolvePlan) -> usize {
    step_index(
        plan,
        |s| matches!(s, Step::Launch(l) if matches!(l.op, KernelOp::PThomas { .. })),
    )
}

/// The one finding of `kind`, with its attribution checked.
fn expect_finding(
    report: &tridiag_gpu::VerifyReport,
    kind: FindingKind,
    step: Option<usize>,
) -> String {
    let f = report
        .findings
        .iter()
        .find(|f| f.kind == kind)
        .unwrap_or_else(|| panic!("expected a {kind} finding, got: {:?}", report.findings));
    assert_eq!(f.step, step, "wrong step attribution for {kind}");
    f.to_string()
}

#[test]
fn use_before_def_fires_at_the_reading_launch() {
    let (device, base) = base_plan();
    let at = tiled_launch_at(&base);
    let mut plan = base.clone();
    if let Step::Launch(l) = &mut plan.steps[at] {
        if let KernelOp::TiledPcr { input, .. } = &mut l.op {
            // c' scratch: declared, but allocated only after this launch.
            input[0] = 9;
        }
    }
    let report = verify_plan(&device, &plan);
    let msg = expect_finding(&report, FindingKind::UseBeforeDef, Some(at));
    assert!(
        msg.contains("before it is created"),
        "unexpected message: {msg}"
    );
}

#[test]
fn unwritten_scratch_read_fires_at_the_reading_launch() {
    let (device, base) = base_plan();
    let at = tiled_launch_at(&base);
    let mut plan = base.clone();
    if let Step::Launch(l) = &mut plan.steps[at] {
        if let KernelOp::TiledPcr { input, .. } = &mut l.op {
            // x: allocated before the launch, but nothing wrote it yet.
            input[0] = 4;
        }
    }
    let report = verify_plan(&device, &plan);
    let msg = expect_finding(&report, FindingKind::UnwrittenScratchRead, Some(at));
    assert!(
        msg.contains("no prior step wrote"),
        "unexpected message: {msg}"
    );
}

#[test]
fn duplicate_def_fires_at_the_second_definition() {
    let (device, base) = base_plan();
    let x_alloc = step_index(&base, |s| matches!(s, Step::Alloc { slot: 4 }));
    let mut plan = base.clone();
    plan.steps.insert(x_alloc + 1, Step::Alloc { slot: 4 });
    let report = verify_plan(&device, &plan);
    expect_finding(&report, FindingKind::DuplicateDef, Some(x_alloc + 1));
}

#[test]
fn layout_mismatch_fires_at_the_convert_back() {
    let (device, base) = base_plan();
    let back_at = step_index(&base, |s| matches!(s, Step::ConvertBack { .. }));
    let mut plan = base.clone();
    if let Step::ConvertBack { from } = &mut plan.steps[back_at] {
        *from = match *from {
            Layout::Contiguous => Layout::Interleaved,
            Layout::Interleaved => Layout::Contiguous,
        };
    }
    let report = verify_plan(&device, &plan);
    expect_finding(&report, FindingKind::LayoutMismatch, Some(back_at));
}

#[test]
fn alias_hazard_fires_when_an_output_aliases_an_input() {
    let (device, base) = base_plan();
    let at = thomas_launch_at(&base);
    let mut plan = base.clone();
    if let Step::Launch(l) = &mut plan.steps[at] {
        if let KernelOp::PThomas { a, x, .. } = &mut l.op {
            *x = *a;
        }
    }
    let report = verify_plan(&device, &plan);
    let msg = expect_finding(&report, FindingKind::AliasHazard, Some(at));
    assert!(
        msg.contains("both input and output"),
        "unexpected message: {msg}"
    );
}

#[test]
fn input_write_fires_when_scratch_is_bound_to_an_uploaded_input() {
    let (device, base) = base_plan();
    let at = thomas_launch_at(&base);
    let mut plan = base.clone();
    if let Step::Launch(l) = &mut plan.steps[at] {
        if let KernelOp::PThomas { c_prime, .. } = &mut l.op {
            // Slot 0 is the uploaded sub-diagonal, which p-Thomas (reading
            // the tiled-PCR outputs) does not bind as an input.
            *c_prime = 0;
        }
    }
    let report = verify_plan(&device, &plan);
    let msg = expect_finding(&report, FindingKind::InputWrite, Some(at));
    assert!(
        msg.contains("uploaded read-only input"),
        "unexpected message: {msg}"
    );
    assert!(
        !report
            .findings
            .iter()
            .any(|f| f.kind == FindingKind::AliasHazard),
        "not an alias of the launch's own inputs: {:?}",
        report.findings
    );
    // The gate holds: no kernel ever stores into the borrowed array.
    let batch = random_batch::<f64>(64, 512, 7);
    let mut exec = PlanExecutor::new(device, ExecConfig::default());
    match exec.run(&plan, &batch).unwrap_err() {
        SimError::InvalidPlan(msg) => assert!(msg.contains("input-write"), "{msg}"),
        other => panic!("expected InvalidPlan, got {other:?}"),
    }
    assert!(exec.kernels.is_empty(), "a kernel launched");
}

#[test]
fn fused_use_before_def_fires_at_the_reading_launch() {
    let (device, base) = fused_base_plan();
    let d_upload = step_index(&base, |s| matches!(s, Step::Upload { slot: 3, .. }));
    let mut plan = base.clone();
    // Upload d only after the launch that reads it.
    let upload = plan.steps.remove(d_upload);
    let at = fused_launch_at(&plan);
    plan.steps.insert(at + 1, upload);
    let report = verify_plan(&device, &plan);
    let msg = expect_finding(&report, FindingKind::UseBeforeDef, Some(at));
    assert!(
        msg.contains("before it is created"),
        "unexpected message: {msg}"
    );
}

#[test]
fn fused_unwritten_c_prime_read_fires_at_the_reading_launch() {
    let (device, base) = fused_base_plan();
    let at = fused_launch_at(&base);
    let mut plan = base.clone();
    if let Step::Launch(l) = &mut plan.steps[at] {
        if let KernelOp::Fused { input, c_prime, .. } = &mut l.op {
            // c': allocated before the launch, but nothing wrote it yet.
            input[0] = *c_prime;
        }
    }
    let report = verify_plan(&device, &plan);
    let msg = expect_finding(&report, FindingKind::UnwrittenScratchRead, Some(at));
    assert!(msg.contains("c_prime"), "unexpected message: {msg}");
}

#[test]
fn fused_alias_hazard_fires_when_the_solution_aliases_an_input() {
    let (device, base) = fused_base_plan();
    let at = fused_launch_at(&base);
    let mut plan = base.clone();
    if let Step::Launch(l) = &mut plan.steps[at] {
        if let KernelOp::Fused { input, x, .. } = &mut l.op {
            *x = input[0];
        }
    }
    let report = verify_plan(&device, &plan);
    let msg = expect_finding(&report, FindingKind::AliasHazard, Some(at));
    assert!(
        msg.contains("both input and output"),
        "unexpected message: {msg}"
    );
}

#[test]
fn dangling_slot_fires_for_an_allocated_but_unused_buffer() {
    let (device, base) = base_plan();
    let x_alloc = step_index(&base, |s| matches!(s, Step::Alloc { slot: 4 }));
    let mut plan = base.clone();
    plan.buffers.push(BufferDecl {
        name: "orphan",
        elems: 64,
    });
    let orphan = plan.buffers.len() - 1;
    plan.steps.insert(x_alloc, Step::Alloc { slot: orphan });
    let report = verify_plan(&device, &plan);
    let msg = expect_finding(&report, FindingKind::DanglingSlot, Some(x_alloc));
    assert!(msg.contains("orphan"), "unexpected message: {msg}");

    // Declared but never created at all.
    let mut plan = base.clone();
    plan.buffers.push(BufferDecl {
        name: "orphan",
        elems: 64,
    });
    let report = verify_plan(&device, &plan);
    let msg = expect_finding(&report, FindingKind::DanglingSlot, None);
    assert!(
        msg.contains("declared but never created"),
        "unexpected message: {msg}"
    );
}

#[test]
fn slot_out_of_range_fires_at_the_binding_step() {
    let (device, base) = base_plan();
    let down_at = step_index(&base, |s| matches!(s, Step::Download { .. }));
    let mut plan = base.clone();
    if let Step::Download { slot } = &mut plan.steps[down_at] {
        *slot = 99;
    }
    let report = verify_plan(&device, &plan);
    let msg = expect_finding(&report, FindingKind::SlotOutOfRange, Some(down_at));
    assert!(msg.contains("99"), "unexpected message: {msg}");
}

/// Every degenerate plan skeleton is a `malformed-plan` finding, at the
/// step that causes it when one does.
#[test]
fn malformed_plan_fires_for_every_degenerate_skeleton() {
    let (device, base) = base_plan();
    let down_at = step_index(&base, |s| matches!(s, Step::Download { .. }));
    let tiled_at = tiled_launch_at(&base);
    let a_upload = step_index(&base, |s| matches!(s, Step::Upload { slot: 0, .. }));
    let malformed = |plan: &SolvePlan, step: Option<usize>, says: &str| {
        let report = verify_plan(&device, plan);
        let msg = expect_finding(&report, FindingKind::MalformedPlan, step);
        assert!(msg.contains(says), "unexpected message: {msg}");
    };

    let mut plan = base.clone();
    plan.buffers.clear();
    malformed(&plan, None, "no buffers");

    let mut plan = base.clone();
    plan.buffers[0].elems = 0;
    malformed(&plan, Some(a_upload), "zero elements");

    let mut plan = base.clone();
    if let Step::Launch(l) = &mut plan.steps[tiled_at] {
        l.threads_per_block = 0;
    }
    malformed(&plan, Some(tiled_at), "empty grid");

    let mut plan = base.clone();
    plan.steps.retain(|s| !matches!(s, Step::Launch(_)));
    malformed(&plan, None, "no kernel launches");

    let mut plan = base.clone();
    plan.steps.remove(down_at);
    malformed(&plan, None, "never downloads");

    let mut plan = base.clone();
    plan.steps.insert(down_at + 1, base.steps[down_at].clone());
    malformed(&plan, Some(down_at + 1), "second download");
}

#[test]
fn peak_memory_overflow_fires_at_the_peak_step() {
    let (_, base) = base_plan();
    let mut tiny = DeviceSpec::gtx480();
    tiny.global_mem_bytes = 1024;
    let report = verify_plan(&tiny, &base);
    let f = report
        .findings
        .iter()
        .find(|f| f.kind == FindingKind::PeakMemoryOverflow)
        .expect("expected a peak-memory-overflow finding");
    assert_eq!(
        f.step, report.prediction.peak_step,
        "overflow must be attributed to the step where the peak is reached"
    );
    assert!(
        f.message.contains("global memory"),
        "unexpected message: {}",
        f.message
    );
}

#[test]
fn shard_partition_violations_fire_with_shard_attribution() {
    let group = DeviceGroup::homogeneous(DeviceSpec::gtx480(), 2).unwrap();
    let solver = GpuTridiagSolver::new(DeviceSpec::gtx480(), GpuSolverConfig::default());
    let base = solver.plan_geometry_group(&group, 64, 512, 8).unwrap();

    // A gap: shard 1 starts one system late.
    let mut plan = base.clone();
    plan.shards[1].sys_start += 1;
    let report = verify_sharded_plan(&group, &plan);
    let f = report
        .findings
        .iter()
        .find(|f| f.kind == FindingKind::ShardPartition)
        .expect("expected a shard-partition finding");
    assert_eq!(f.shard, Some(1));

    // An overlap: shard 1 re-claims shard 0's last system.
    let mut plan = base.clone();
    plan.shards[1].sys_start -= 1;
    plan.shards[1].sys_count += 1;
    let report = verify_sharded_plan(&group, &plan);
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.kind == FindingKind::ShardPartition),
        "an overlapping partition must be rejected: {:?}",
        report.findings
    );
}

#[test]
fn shard_consistency_violations_fire_for_unpinned_decisions() {
    let group = DeviceGroup::homogeneous(DeviceSpec::gtx480(), 2).unwrap();
    let solver = GpuTridiagSolver::new(DeviceSpec::gtx480(), GpuSolverConfig::default());
    let base = solver.plan_geometry_group(&group, 64, 512, 8).unwrap();

    // k drifting above the pinned reference decision.
    let mut plan = base.clone();
    plan.shards[0].plan.k += 1;
    let report = verify_sharded_plan(&group, &plan);
    let f = report
        .findings
        .iter()
        .find(|f| f.kind == FindingKind::ShardConsistency)
        .expect("expected a shard-consistency finding");
    assert_eq!(f.shard, Some(0));

    // Fusion flipping off the pin.
    let mut plan = base.clone();
    plan.shards[1].plan.fused = !plan.shards[1].plan.fused;
    let report = verify_sharded_plan(&group, &plan);
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.kind == FindingKind::ShardConsistency),
        "a fusion flip must be rejected: {:?}",
        report.findings
    );
}

#[test]
fn shard_plan_geometry_drift_fires_shard_consistency() {
    let group = DeviceGroup::homogeneous(DeviceSpec::gtx480(), 2).unwrap();
    let solver = GpuTridiagSolver::new(DeviceSpec::gtx480(), GpuSolverConfig::default());
    let mut plan = solver.plan_geometry_group(&group, 64, 512, 8).unwrap();
    // Shard 0's plan claims to solve the whole batch, not its 32 systems.
    plan.shards[0].plan.m = 64;
    let report = verify_sharded_plan(&group, &plan);
    let f = report
        .findings
        .iter()
        .find(|f| f.kind == FindingKind::ShardConsistency)
        .expect("expected a shard-consistency finding");
    assert_eq!(f.shard, Some(0));
    assert!(f.message.contains("m = 64"), "{}", f.message);
}

/// A 512-row system split across two GTX480s: two 256-row chunks, each
/// with an interior plan, and a 4-unknown reduced plan.
fn split_plan() -> (DeviceGroup, GpuTridiagSolver, DistributedPlan) {
    let group = DeviceGroup::homogeneous(DeviceSpec::gtx480(), 2).unwrap();
    let solver = GpuTridiagSolver::new(DeviceSpec::gtx480(), GpuSolverConfig::default());
    let plan = solver.plan_geometry_split(&group, 512, 8).unwrap();
    assert!(verify_distributed_plan(&group, &plan).is_clean());
    (group, solver, plan)
}

#[test]
fn dropped_interior_plan_fires_interface_exchange_on_its_chunk() {
    let (group, _, mut plan) = split_plan();
    plan.chunks[0].interior = None;
    let report = verify_distributed_plan(&group, &plan);
    let f = report
        .findings
        .iter()
        .find(|f| f.kind == FindingKind::InterfaceExchange)
        .expect("expected an interface-exchange finding");
    assert_eq!(f.chunk, Some(0));
    assert!(
        f.message.contains("used before being defined"),
        "{}",
        f.message
    );
}

#[test]
fn interior_plan_with_wrong_rhs_count_fires_on_its_chunk() {
    let (group, solver, mut plan) = split_plan();
    let li = plan.chunks[1].interior_len();
    plan.chunks[1].interior = Some(solver.plan_geometry(2, li, 8).unwrap());
    let report = verify_distributed_plan(&group, &plan);
    let f = report
        .findings
        .iter()
        .find(|f| f.kind == FindingKind::ChunkConsistency)
        .expect("expected a chunk-consistency finding");
    assert_eq!(f.chunk, Some(1));
    assert!(f.message.contains("m = 2"), "{}", f.message);
}

#[test]
fn gapped_chunk_partition_fires_with_chunk_attribution() {
    let (group, _, mut plan) = split_plan();
    plan.chunks[1].row_start += 1;
    let report = verify_distributed_plan(&group, &plan);
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.kind == FindingKind::ChunkPartition && f.chunk == Some(1)),
        "expected a chunk-partition finding on chunk 1: {:?}",
        report.findings
    );
}

#[test]
fn wrong_size_reduced_plan_fires_reduced_system() {
    let (group, solver, mut plan) = split_plan();
    plan.reduced = Some(solver.plan_geometry(1, 2 * group.len() - 1, 8).unwrap());
    let report = verify_distributed_plan(&group, &plan);
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.kind == FindingKind::ReducedSystem),
        "expected a reduced-system finding: {:?}",
        report.findings
    );
}

/// Assert a cross-device finding of `kind` on `part` (a shard or chunk
/// index; `None` for the whole plan) whose message contains `says`.
fn expect_group_finding(
    report: &GroupVerifyReport,
    kind: FindingKind,
    part: Option<usize>,
    says: &str,
) {
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.kind == kind && f.shard.or(f.chunk) == part && f.message.contains(says)),
        "expected {kind} on {part:?} saying {says:?}: {:?}",
        report.findings
    );
}

/// The part-list invariants only the typed verifier checks: one part
/// per device, in device order, and at least one part.
#[test]
fn shard_list_violations_fire_on_the_typed_plan() {
    let group = DeviceGroup::homogeneous(DeviceSpec::gtx480(), 2).unwrap();
    let solver = GpuTridiagSolver::new(DeviceSpec::gtx480(), GpuSolverConfig::default());
    let base = solver.plan_geometry_group(&group, 64, 512, 8).unwrap();
    let check = |mutate: &dyn Fn(&mut tridiag_gpu::ShardedPlan), kind, part, says: &str| {
        let mut plan = base.clone();
        mutate(&mut plan);
        expect_group_finding(&verify_sharded_plan(&group, &plan), kind, part, says);
    };
    let consistency = FindingKind::ShardConsistency;
    check(
        &|p| drop(p.shards.pop()),
        consistency,
        None,
        "the group has 2 device(s)",
    );
    check(
        &|p| p.shards[1].device_index = 0,
        consistency,
        Some(1),
        "device order",
    );
    check(
        &|p| p.shards.clear(),
        FindingKind::ShardPartition,
        None,
        "no shards",
    );
}

/// The same part-list invariants for row-split chunks, plus what only
/// a distributed plan has: the identity path excludes chunks, a chunk's
/// interior plan solves exactly its interior rows, a 2-row chunk has no
/// interior plan, and the reduced plan is present.
#[test]
fn chunk_list_violations_fire_on_the_typed_plan() {
    let (group, solver, base) = split_plan();
    let check =
        |base: &DistributedPlan, mutate: &dyn Fn(&mut DistributedPlan), kind, part, says: &str| {
            let mut plan = base.clone();
            mutate(&mut plan);
            expect_group_finding(&verify_distributed_plan(&group, &plan), kind, part, says);
        };
    let consistency = FindingKind::ChunkConsistency;
    check(
        &base,
        &|p| drop(p.chunks.pop()),
        consistency,
        None,
        "the group has 2 device(s)",
    );
    check(
        &base,
        &|p| p.chunks[0].device_index = 1,
        consistency,
        Some(0),
        "device order",
    );
    check(
        &base,
        &|p| p.chunks.clear(),
        FindingKind::ChunkPartition,
        None,
        "no chunks",
    );
    let identity = solver.plan_geometry(1, 512, 8).unwrap();
    check(
        &base,
        &|p| p.identity = Some(identity.clone()),
        consistency,
        None,
        "identity plan present but 2 chunk(s)",
    );
    check(
        &base,
        &|p| p.reduced = None,
        FindingKind::ReducedSystem,
        None,
        "no reduced",
    );
    let li = base.chunks[1].interior_len();
    let long = solver.plan_geometry(3, li + 1, 8).unwrap();
    check(
        &base,
        &|p| p.chunks[1].interior = Some(long.clone()),
        consistency,
        Some(1),
        "but the chunk needs",
    );

    // Two 2-row chunks: interface only, so no interior plan.
    let tiny = solver.plan_geometry_split(&group, 4, 8).unwrap();
    assert!(verify_distributed_plan(&group, &tiny).is_clean());
    let interior = solver.plan_geometry(3, 2, 8).unwrap();
    check(
        &tiny,
        &|p| p.chunks[0].interior = Some(interior.clone()),
        FindingKind::InterfaceExchange,
        Some(0),
        "interface-only",
    );
}

/// The executor refuses to run a plan the verifier rejects — the gate
/// is load-bearing, not advisory.
#[test]
fn executor_refuses_an_uncertified_plan() {
    let (device, base) = base_plan();
    let at = tiled_launch_at(&base);
    let mut plan = base.clone();
    if let Step::Launch(l) = &mut plan.steps[at] {
        if let KernelOp::TiledPcr { input, .. } = &mut l.op {
            // Slot 4 (x) exists at launch time — only the verifier's
            // dataflow pass can see the read of unwritten scratch.
            input[0] = 4;
        }
    }
    let batch = random_batch::<f64>(64, 512, 7);
    let mut exec = PlanExecutor::new(device, ExecConfig::default());
    let err = exec.run(&plan, &batch).unwrap_err();
    match err {
        SimError::InvalidPlan(msg) => {
            assert!(
                msg.contains("static verification"),
                "unexpected error: {msg}"
            );
            assert!(
                msg.contains("unwritten-scratch-read"),
                "unexpected error: {msg}"
            );
        }
        other => panic!("expected InvalidPlan, got {other:?}"),
    }
}

/// A corrupted plan never reaches the kernels through the sharded path
/// either.
#[test]
fn sharded_executor_refuses_an_uncertified_plan() {
    let group = DeviceGroup::homogeneous(DeviceSpec::gtx480(), 2).unwrap();
    let solver = GpuTridiagSolver::new(DeviceSpec::gtx480(), GpuSolverConfig::default());
    let mut plan = solver.plan_geometry_group(&group, 64, 512, 8).unwrap();
    plan.shards[1].sys_start += 1;
    let batch = random_batch::<f64>(64, 512, 7);
    let exec = tridiag_gpu::ShardedExecutor::new(group.clone(), ExecConfig::default());
    let err = exec.run(&plan, &batch).unwrap_err();
    match err {
        SimError::InvalidPlan(msg) => {
            assert!(
                msg.contains("static verification"),
                "unexpected error: {msg}"
            );
            assert!(msg.contains("shard-partition"), "unexpected error: {msg}");
        }
        other => panic!("expected InvalidPlan, got {other:?}"),
    }
}

/// ...and the row-split path refuses one too.
#[test]
fn distributed_executor_refuses_an_uncertified_plan() {
    let (group, _, mut plan) = split_plan();
    plan.chunks[0].interior = None;
    let batch = random_batch::<f64>(1, 512, 7);
    let exec = tridiag_gpu::DistributedExecutor::new(group, ExecConfig::default());
    let err = exec.run(&plan, &batch).unwrap_err();
    match err {
        SimError::InvalidPlan(msg) => {
            assert!(
                msg.contains("static verification"),
                "unexpected error: {msg}"
            );
            assert!(
                msg.contains("interface-exchange"),
                "unexpected error: {msg}"
            );
        }
        other => panic!("expected InvalidPlan, got {other:?}"),
    }
}
