//! Stored seed-independent results: allocations, predicted and
//! noise-free measured virtual times, recovery overheads and exact
//! per-pass counts. Printed by the `emit_reference` test.

use crate::checks::Reference;
use crate::{Size, WorkloadKind};

/// The reference table of a workload at a size.
pub fn table(workload: WorkloadKind, size: Size) -> Reference {
    match (workload, size) {
        (WorkloadKind::Fig9Fig8a, Size::Full) => FIG9_FIG8A,
        (WorkloadKind::Fig9Fig8a, Size::Smoke) => FIG9_FIG8A_SMOKE,
        (WorkloadKind::CoupledStep, Size::Full) => COUPLED_STEP,
        (WorkloadKind::CoupledStep, Size::Smoke) => COUPLED_SMOKE,
    }
}

#[rustfmt::skip]
const FIG9_FIG8A: Reference = &[
    ("engine.Base.app0.ranks", 100),
    ("engine.Base.app1.ranks", 100),
    ("engine.Base.app2.ranks", 100),
    ("engine.Base.app3.ranks", 100),
    ("engine.Base.app4.ranks", 100),
    ("engine.Base.app5.ranks", 100),
    ("engine.Base.app6.ranks", 100),
    ("engine.Base.app7.ranks", 100),
    ("engine.Base.app8.ranks", 100),
    ("engine.Base.app9.ranks", 100),
    ("engine.Base.app10.ranks", 100),
    ("engine.Base.app11.ranks", 100),
    ("engine.Base.app12.ranks", 204),
    ("engine.Base.app13.ranks", 16847),
    ("engine.Base.app14.ranks", 204),
    ("engine.Base.app15.ranks", 408),
    ("engine.Base.cu0.ranks", 4),
    ("engine.Base.cu1.ranks", 13),
    ("engine.Base.cu2.ranks", 13),
    ("engine.Base.cu3.ranks", 13),
    ("engine.Base.cu4.ranks", 13),
    ("engine.Base.cu5.ranks", 13),
    ("engine.Base.cu6.ranks", 13),
    ("engine.Base.cu7.ranks", 13),
    ("engine.Base.cu8.ranks", 13),
    ("engine.Base.cu9.ranks", 13),
    ("engine.Base.cu10.ranks", 13),
    ("engine.Base.cu11.ranks", 13),
    ("engine.Base.cu12.ranks", 50),
    ("engine.Base.cu13.ranks", 50),
    ("engine.Base.cu14.ranks", 260),
    ("engine.Base.predicted_s", 0x40f2e811a1a98a75), // 77441.10196832738
    ("engine.Base.app0.measured_s", 0x40c0033632969252), // 8198.423418828435
    ("engine.Base.app1.measured_s", 0x40d804c56ae2602c), // 24595.08464869873
    ("engine.Base.app2.measured_s", 0x40d804db02a536b1), // 24595.422036460313
    ("engine.Base.app3.measured_s", 0x40d804f11bf81fa8), // 24595.76733210651
    ("engine.Base.app4.measured_s", 0x40d80507354b08a0), // 24596.112627752707
    ("engine.Base.app5.measured_s", 0x40d80540617e0250), // 24597.00595045305
    ("engine.Base.app6.measured_s", 0x40d805421b80f14a), // 24597.032928691515
    ("engine.Base.app7.measured_s", 0x40d805498143c385), // 24597.148514691293
    ("engine.Base.app8.measured_s", 0x40d8055f9a96ac7d), // 24597.49381033749
    ("engine.Base.app9.measured_s", 0x40d80575b3e99574), // 24597.839105983687
    ("engine.Base.app10.measured_s", 0x40d805aee01c8f24), // 24598.73242868403
    ("engine.Base.app11.measured_s", 0x40d805b09a1f7e1e), // 24598.759406922494
    ("engine.Base.app12.measured_s", 0x40f292ec81f21dc3), // 76078.78172504068
    ("engine.Base.app13.measured_s", 0x40f2e9009166feb8), // 77456.0354986143
    ("engine.Base.app14.measured_s", 0x40f292ed746e26cc), // 76078.8409253612
    ("engine.Base.app15.measured_s", 0x40f2bf1493a86080), // 76785.28604924865
    ("engine.Base.resilient_total_s", 0x40f4ccaa06979da8), // 85194.62660943589
    ("engine.Base.recovery_s", 0x40be3a975309ef00), // 7738.5911108215805
    ("engine.Base.faults_survived", 1),
    ("engine.Optimized.app0.ranks", 100),
    ("engine.Optimized.app1.ranks", 238),
    ("engine.Optimized.app2.ranks", 238),
    ("engine.Optimized.app3.ranks", 238),
    ("engine.Optimized.app4.ranks", 238),
    ("engine.Optimized.app5.ranks", 238),
    ("engine.Optimized.app6.ranks", 238),
    ("engine.Optimized.app7.ranks", 238),
    ("engine.Optimized.app8.ranks", 238),
    ("engine.Optimized.app9.ranks", 238),
    ("engine.Optimized.app10.ranks", 238),
    ("engine.Optimized.app11.ranks", 238),
    ("engine.Optimized.app12.ranks", 1490),
    ("engine.Optimized.app13.ranks", 31272),
    ("engine.Optimized.app14.ranks", 1490),
    ("engine.Optimized.app15.ranks", 2987),
    ("engine.Optimized.cu0.ranks", 1),
    ("engine.Optimized.cu1.ranks", 2),
    ("engine.Optimized.cu2.ranks", 2),
    ("engine.Optimized.cu3.ranks", 2),
    ("engine.Optimized.cu4.ranks", 2),
    ("engine.Optimized.cu5.ranks", 2),
    ("engine.Optimized.cu6.ranks", 2),
    ("engine.Optimized.cu7.ranks", 2),
    ("engine.Optimized.cu8.ranks", 2),
    ("engine.Optimized.cu9.ranks", 2),
    ("engine.Optimized.cu10.ranks", 2),
    ("engine.Optimized.cu11.ranks", 2),
    ("engine.Optimized.cu12.ranks", 5),
    ("engine.Optimized.cu13.ranks", 5),
    ("engine.Optimized.cu14.ranks", 10),
    ("engine.Optimized.predicted_s", 0x40c4bb843e944237), // 10615.033159763652
    ("engine.Optimized.app0.measured_s", 0x40c00343fb73201b), // 8198.531111136128
    ("engine.Optimized.app1.measured_s", 0x40c46c362083755f), // 10456.422867233572
    ("engine.Optimized.app2.measured_s", 0x40c46d899f628167), // 10459.07517653769
    ("engine.Optimized.app3.measured_s", 0x40c46e814df92965), // 10461.010192055905
    ("engine.Optimized.app4.measured_s", 0x40c46fa06c6646e2), // 10463.253308090792
    ("engine.Optimized.app5.measured_s", 0x40c470bf8ad3645f), // 10465.49642412568
    ("engine.Optimized.app6.measured_s", 0x40c471dea94081dc), // 10467.739540160568
    ("engine.Optimized.app7.measured_s", 0x40c47325378414d8), // 10470.29075671213
    ("engine.Optimized.app8.measured_s", 0x40c4744455f13254), // 10472.533872747015
    ("engine.Optimized.app9.measured_s", 0x40c47563745e4fd2), // 10474.776988781905
    ("engine.Optimized.app10.measured_s", 0x40c4765b22f4f7d0), // 10476.71200430012
    ("engine.Optimized.app11.measured_s", 0x40c4777a4162154d), // 10478.955120335007
    ("engine.Optimized.app12.measured_s", 0x40c4ea2dfe9e82e7), // 10708.359332860868
    ("engine.Optimized.app13.measured_s", 0x40c4ba8f2abdc9da), // 10613.118491862831
    ("engine.Optimized.app14.measured_s", 0x40c4e3e54e559cee), // 10695.79145307696
    ("engine.Optimized.app15.measured_s", 0x40c5074e000f6c48), // 10766.609376838562
    ("engine.Optimized.resilient_total_s", 0x40c6fcd65d09564b), // 11769.674714247833
    ("engine.Optimized.recovery_s", 0x408f5885cf9ea030), // 1003.0653374092708
    ("engine.Optimized.faults_survived", 1),
    ("fig8a.Base.app0.ranks", 835),
    ("fig8a.Base.app1.ranks", 835),
    ("fig8a.Base.app2.ranks", 3323),
    ("fig8a.Base.cu0.ranks", 6),
    ("fig8a.Base.cu1.ranks", 1),
    ("fig8a.Base.predicted_s", 0x409d5de753e20b23), // 1879.4759059256837
    ("fig8a.Base.app0.measured_s", 0x409d97b315674d72), // 1893.92488633547
    ("fig8a.Base.app1.measured_s", 0x409d9a2df94c1caa), // 1894.5448963062759
    ("fig8a.Base.app2.measured_s", 0x409d595425f5273c), // 1878.332176046867
    ("fig8a.Base.measured_total_s", 0x409d9a2df94c1caa), // 1894.5448963062759
    ("fig8a.Optimized.app0.ranks", 224),
    ("fig8a.Optimized.app1.ranks", 224),
    ("fig8a.Optimized.app2.ranks", 4549),
    ("fig8a.Optimized.cu0.ranks", 2),
    ("fig8a.Optimized.cu1.ranks", 1),
    ("fig8a.Optimized.predicted_s", 0x40bb4ccc8a493539), // 6988.798985076422
    ("fig8a.Optimized.app0.measured_s", 0x40bb19ac42114fc8), // 6937.672883111933
    ("fig8a.Optimized.app1.measured_s", 0x40bb1b6a80c611ca), // 6939.4160274308615
    ("fig8a.Optimized.app2.measured_s", 0x40bb4b2a8ab695e0), // 6987.1661790958315
    ("fig8a.Optimized.measured_total_s", 0x40bb4b2a8ab695e0), // 6987.1661790958315
    ("count.obs.critical.nodes", 1251060),
    ("count.machine.des.bytes", 13380941516860),
    ("count.machine.des.messages", 2347772),
    ("count.machine.trace.expanded_ops", 8010128),
    ("count.machine.trace.ops", 8010128),
];

#[rustfmt::skip]
const FIG9_FIG8A_SMOKE: Reference = &[
    ("engine.Base.app0.ranks", 100),
    ("engine.Base.app1.ranks", 100),
    ("engine.Base.app2.ranks", 100),
    ("engine.Base.app3.ranks", 100),
    ("engine.Base.app4.ranks", 100),
    ("engine.Base.app5.ranks", 100),
    ("engine.Base.app6.ranks", 100),
    ("engine.Base.app7.ranks", 100),
    ("engine.Base.app8.ranks", 100),
    ("engine.Base.app9.ranks", 100),
    ("engine.Base.app10.ranks", 100),
    ("engine.Base.app11.ranks", 100),
    ("engine.Base.app12.ranks", 100),
    ("engine.Base.app13.ranks", 2469),
    ("engine.Base.app14.ranks", 100),
    ("engine.Base.app15.ranks", 116),
    ("engine.Base.cu0.ranks", 1),
    ("engine.Base.cu1.ranks", 1),
    ("engine.Base.cu2.ranks", 1),
    ("engine.Base.cu3.ranks", 1),
    ("engine.Base.cu4.ranks", 1),
    ("engine.Base.cu5.ranks", 1),
    ("engine.Base.cu6.ranks", 1),
    ("engine.Base.cu7.ranks", 1),
    ("engine.Base.cu8.ranks", 1),
    ("engine.Base.cu9.ranks", 1),
    ("engine.Base.cu10.ranks", 1),
    ("engine.Base.cu11.ranks", 1),
    ("engine.Base.cu12.ranks", 1),
    ("engine.Base.cu13.ranks", 1),
    ("engine.Base.cu14.ranks", 1),
    ("engine.Base.predicted_s", 0x41106e801595f29b), // 269216.0210798175
    ("engine.Base.app0.measured_s", 0x40c00343fb73201d), // 8198.531111136132
    ("engine.Base.app1.measured_s", 0x40d804ef4d343b70), // 24595.739087160153
    ("engine.Base.app2.measured_s", 0x40d80ff53da9cbdf), // 24639.83188862714
    ("engine.Base.app3.measured_s", 0x40d81aed7398d29e), // 24683.710180478745
    ("engine.Base.app4.measured_s", 0x40d825e5a987d95c), // 24727.588472330346
    ("engine.Base.app5.measured_s", 0x40d830f055302c49), // 24771.755199473617
    ("engine.Base.app6.measured_s", 0x40d83bd61565e6db), // 24815.34505603356
    ("engine.Base.app7.measured_s", 0x40d846ce4b54ed99), // 24859.22334788516
    ("engine.Base.app8.measured_s", 0x40d851c68143f457), // 24903.10163973676
    ("engine.Base.app9.measured_s", 0x40d85cbeb732fb16), // 24946.979931588365
    ("engine.Base.app10.measured_s", 0x40d867c962db4e03), // 24991.146658731635
    ("engine.Base.app11.measured_s", 0x40d872af23110894), // 25034.736515291574
    ("engine.Base.app12.measured_s", 0x4102c47216fde92d), // 153742.261226484
    ("engine.Base.app13.measured_s", 0x41106eded142be5d), // 269239.70435616915
    ("engine.Base.app14.measured_s", 0x4102c48d3ab1a987), // 153745.65365917629
    ("engine.Base.app15.measured_s", 0x4110357965c5f2f6), // 265566.34938792826
    ("engine.Base.resilient_total_s", 0x4112145fdaae84d0), // 296215.9635563614
    ("engine.Base.recovery_s", 0x40da581096bc6730), // 26976.25920019223
    ("engine.Base.faults_survived", 1),
    ("engine.Optimized.app0.ranks", 100),
    ("engine.Optimized.app1.ranks", 100),
    ("engine.Optimized.app2.ranks", 100),
    ("engine.Optimized.app3.ranks", 100),
    ("engine.Optimized.app4.ranks", 100),
    ("engine.Optimized.app5.ranks", 100),
    ("engine.Optimized.app6.ranks", 100),
    ("engine.Optimized.app7.ranks", 100),
    ("engine.Optimized.app8.ranks", 100),
    ("engine.Optimized.app9.ranks", 100),
    ("engine.Optimized.app10.ranks", 100),
    ("engine.Optimized.app11.ranks", 100),
    ("engine.Optimized.app12.ranks", 114),
    ("engine.Optimized.app13.ranks", 2329),
    ("engine.Optimized.app14.ranks", 114),
    ("engine.Optimized.app15.ranks", 228),
    ("engine.Optimized.cu0.ranks", 1),
    ("engine.Optimized.cu1.ranks", 1),
    ("engine.Optimized.cu2.ranks", 1),
    ("engine.Optimized.cu3.ranks", 1),
    ("engine.Optimized.cu4.ranks", 1),
    ("engine.Optimized.cu5.ranks", 1),
    ("engine.Optimized.cu6.ranks", 1),
    ("engine.Optimized.cu7.ranks", 1),
    ("engine.Optimized.cu8.ranks", 1),
    ("engine.Optimized.cu9.ranks", 1),
    ("engine.Optimized.cu10.ranks", 1),
    ("engine.Optimized.cu11.ranks", 1),
    ("engine.Optimized.cu12.ranks", 1),
    ("engine.Optimized.cu13.ranks", 1),
    ("engine.Optimized.cu14.ranks", 1),
    ("engine.Optimized.predicted_s", 0x4100a88349872af3), // 136464.4109023433
    ("engine.Optimized.app0.measured_s", 0x40c00343fb73201d), // 8198.531111136132
    ("engine.Optimized.app1.measured_s", 0x40d804ef4d343b70), // 24595.739087160153
    ("engine.Optimized.app2.measured_s", 0x40d80ff53da9cbdf), // 24639.83188862714
    ("engine.Optimized.app3.measured_s", 0x40d81aed7398d29e), // 24683.710180478745
    ("engine.Optimized.app4.measured_s", 0x40d825e5a987d95c), // 24727.588472330346
    ("engine.Optimized.app5.measured_s", 0x40d830f055302c49), // 24771.755199473617
    ("engine.Optimized.app6.measured_s", 0x40d83bd61565e6db), // 24815.34505603356
    ("engine.Optimized.app7.measured_s", 0x40d846ce4b54ed99), // 24859.22334788516
    ("engine.Optimized.app8.measured_s", 0x40d851c68143f457), // 24903.10163973676
    ("engine.Optimized.app9.measured_s", 0x40d85cbeb732fb16), // 24946.979931588365
    ("engine.Optimized.app10.measured_s", 0x40d867c962db4e03), // 24991.146658731635
    ("engine.Optimized.app11.measured_s", 0x40d872af23110894), // 25034.736515291574
    ("engine.Optimized.app12.measured_s", 0x41007dfd8fa7fc8e), // 135103.69514462765
    ("engine.Optimized.app13.measured_s", 0x4100a7397fcf35c3), // 136423.18740694047
    ("engine.Optimized.app14.measured_s", 0x41007e18b35bbce8), // 135107.08757731994
    ("engine.Optimized.app15.measured_s", 0x4100a4dba0de70b2), // 136347.45354927104
    ("engine.Optimized.resilient_total_s", 0x4100aff7b55c99a2), // 136702.96355552698
    ("engine.Optimized.recovery_s", 0x40717c6b1ac7be00), // 279.77614858650486
    ("engine.Optimized.faults_survived", 1),
    ("fig8a.Base.app0.ranks", 272),
    ("fig8a.Base.app1.ranks", 272),
    ("fig8a.Base.app2.ranks", 654),
    ("fig8a.Base.cu0.ranks", 1),
    ("fig8a.Base.cu1.ranks", 1),
    ("fig8a.Base.predicted_s", 0x4091e44fa03325e0), // 1145.0777595512263
    ("fig8a.Base.app0.measured_s", 0x40b6604b6d777922), // 5728.294639079164
    ("fig8a.Base.app1.measured_s", 0x40b66840bf3eef3a), // 5736.252918179898
    ("fig8a.Base.app2.measured_s", 0x40b65987d8360140), // 5721.530642867379
    ("fig8a.Base.measured_total_s", 0x40b66840bf3eef3a), // 5736.252918179898
    ("fig8a.Optimized.app0.ranks", 100),
    ("fig8a.Optimized.app1.ranks", 100),
    ("fig8a.Optimized.app2.ranks", 998),
    ("fig8a.Optimized.cu0.ranks", 1),
    ("fig8a.Optimized.cu1.ranks", 1),
    ("fig8a.Optimized.predicted_s", 0x40b8dc69476d0614), // 6364.411246122345
    ("fig8a.Optimized.app0.measured_s", 0x40ce0614acadfb90), // 15372.161519763788
    ("fig8a.Optimized.app1.measured_s", 0x40ce0a0f5591b69c), // 15380.119798864522
    ("fig8a.Optimized.app2.measured_s", 0x40df12b4022fb430), // 31818.8126334438
    ("fig8a.Optimized.measured_total_s", 0x40df12b4022fb430), // 31818.8126334438
    ("count.obs.critical.nodes", 158276),
    ("count.machine.des.bytes", 1537802061536),
    ("count.machine.des.messages", 111848),
    ("count.machine.trace.expanded_ops", 319762),
    ("count.machine.trace.ops", 319762),
];

#[rustfmt::skip]
const COUPLED_STEP: Reference = &[
    ("count.amg.pcg_iters", 451),
    ("count.coupler.unit.remaps", 25),
    ("count.mgcfd.cells", 98304),
    ("count.pressure.spray.bytes", 300000000),
    ("count.simpic.push.flops", 286720000),
];

#[rustfmt::skip]
const COUPLED_SMOKE: Reference = &[
    ("count.amg.pcg_iters", 300),
    ("count.coupler.unit.remaps", 25),
    ("count.mgcfd.cells", 1536),
    ("count.pressure.spray.bytes", 6000000),
    ("count.simpic.push.flops", 17920000),
];
