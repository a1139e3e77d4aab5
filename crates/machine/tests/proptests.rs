//! Property-based tests for the virtual testbed.
//!
//! The DES replayer and the task-graph forward pass are two schedulers
//! of one program; on generated programs they must agree bit for bit.
//! Generated programs are built round by round from a seed, so they
//! never deadlock: a message round posts every rank's sends before any
//! of its receives, a collective round has every member of one group
//! post the same collective, and a compute round advances each rank on
//! its own. Tags come from a small set and a round's receives are
//! shuffled, so one channel carries messages from top-level ops and
//! from `Repeat` bodies alike, and receives on different channels
//! interleave freely.

use proptest::prelude::*;

use cpx_machine::{
    build_task_graph, validate_against_des, CollectiveKind, KernelCost, Machine, MachineBuilder,
    Op, Replayer, TraceProgram,
};
use cpx_obs::Rescale;

/// A random ring program: compute + neighbour exchange + allreduce.
fn ring_program(n: usize, steps: u32, flops: f64, bytes: usize) -> TraceProgram {
    let mut p = TraceProgram::new(n);
    let g = p.add_world_group();
    for r in 0..n {
        let body = vec![
            Op::Compute(KernelCost::new(flops, flops / 2.0)),
            Op::Send {
                dst: (r + 1) % n,
                bytes,
                tag: 0,
            },
            Op::Recv {
                src: (r + n - 1) % n,
                tag: 0,
            },
            Op::Collective {
                kind: CollectiveKind::Allreduce,
                group: g,
                bytes: 8,
            },
        ];
        p.rank(r).ops.push(Op::Repeat { count: steps, body });
    }
    p
}

/// splitmix64 stream for the program generator.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

const KINDS: [CollectiveKind; 8] = [
    CollectiveKind::Barrier,
    CollectiveKind::Broadcast,
    CollectiveKind::Reduce,
    CollectiveKind::Allreduce,
    CollectiveKind::Allgather,
    CollectiveKind::Alltoall,
    CollectiveKind::Gather,
    CollectiveKind::Scatter,
];

const SIZES: [usize; 5] = [0, 8, 100, 4096, 1 << 20];

/// Three cores per node, so generated ranks mix intra- and inter-node
/// links; odd constants, so sums are not exact in binary.
fn machine() -> Machine {
    MachineBuilder::new("proptest")
        .cores_per_node(3)
        .flops_per_core(1.3e9)
        .mem_bw_per_core(2.7e9)
        .intra(3.1e-7, 1.1e10)
        .inter(1.7e-6, 6.3e9)
        .send_overhead(2.3e-7)
        .build()
}

fn generated_program(seed: u64, n: usize, rounds: usize) -> TraceProgram {
    let mut g = Gen(seed);
    let mut p = TraceProgram::new(n);
    let mut groups = vec![p.add_world_group()];
    for _ in 0..g.below(3) {
        let mut members: Vec<usize> = (0..n).filter(|_| g.below(2) == 0).collect();
        if members.is_empty() {
            members.push(g.below(n));
        }
        g.shuffle(&mut members);
        groups.push(p.add_group(members));
    }

    for _ in 0..rounds {
        let mut ops: Vec<Vec<Op>> = vec![Vec::new(); n];
        match g.below(3) {
            0 => {
                let mut recvs: Vec<Vec<Op>> = vec![Vec::new(); n];
                for _ in 0..=g.below(2 * n) {
                    let (src, dst, tag) = (g.below(n), g.below(n), g.below(3) as u32);
                    let bytes = SIZES[g.below(SIZES.len())];
                    ops[src].push(Op::Send { dst, bytes, tag });
                    recvs[dst].push(Op::Recv { src, tag });
                }
                for (r, mut rv) in recvs.into_iter().enumerate() {
                    g.shuffle(&mut rv);
                    ops[r].extend(rv);
                }
            }
            1 => {
                for rank_ops in &mut ops {
                    rank_ops.push(Op::Phase(g.below(4) as u16));
                    rank_ops.push(if g.below(2) == 0 {
                        Op::Compute(KernelCost::new(
                            g.below(5000) as f64 * 1e3,
                            g.below(5000) as f64 * 1e3,
                        ))
                    } else {
                        Op::ComputeSecs(g.below(1000) as f64 * 1.7e-6)
                    });
                }
            }
            _ => {
                let group = groups[g.below(groups.len())];
                let kind = KINDS[g.below(KINDS.len())];
                for &r in &p.groups[group] {
                    let bytes = SIZES[g.below(SIZES.len())];
                    ops[r].push(Op::Collective { kind, group, bytes });
                }
            }
        }
        if g.below(3) == 0 {
            let count = g.below(4) as u32;
            for (r, body) in ops.into_iter().enumerate() {
                p.rank(r).ops.push(Op::Repeat { count, body });
            }
        } else {
            for (r, body) in ops.into_iter().enumerate() {
                p.rank(r).ops.extend(body);
            }
        }
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn replay_is_deterministic(n in 2usize..32, steps in 1u32..8, bytes in 0usize..100_000) {
        let program = ring_program(n, steps, 1e6, bytes);
        let rep = Replayer::new(Machine::archer2());
        let a = rep.run(&program).unwrap();
        let b = rep.run(&program).unwrap();
        prop_assert_eq!(a.finish, b.finish);
        prop_assert_eq!(a.messages, b.messages);
    }

    #[test]
    fn makespan_bounds(n in 2usize..24, steps in 1u32..6, flops in 1e5f64..1e9) {
        let program = ring_program(n, steps, flops, 1024);
        let out = Replayer::new(Machine::archer2()).run(&program).unwrap();
        let m = Machine::archer2();
        // Lower bound: the pure compute time of one rank.
        let compute = m.kernel_time(KernelCost::new(flops, flops / 2.0)) * steps as f64;
        prop_assert!(out.makespan() >= compute * 0.999);
        // All clocks non-negative and ≤ makespan.
        for &f in &out.finish {
            prop_assert!(f >= 0.0 && f <= out.makespan() + 1e-15);
        }
        // Compute + comm accounts for each rank's elapsed time.
        for r in 0..n {
            let total = out.compute_time[r] + out.comm_time[r];
            prop_assert!((total - out.finish[r]).abs() < 1e-9 * out.finish[r].max(1.0));
        }
    }

    #[test]
    fn more_bytes_never_faster(n in 2usize..16, steps in 1u32..4) {
        let small = Replayer::new(Machine::archer2())
            .run(&ring_program(n, steps, 1e6, 64))
            .unwrap()
            .makespan();
        let big = Replayer::new(Machine::archer2())
            .run(&ring_program(n, steps, 1e6, 1 << 20))
            .unwrap()
            .makespan();
        prop_assert!(big >= small);
    }

    #[test]
    fn noise_is_one_sided_and_seeded(n in 2usize..12, seed in 0u64..1000) {
        let program = ring_program(n, 3, 1e7, 512);
        let clean = Replayer::new(Machine::archer2()).run(&program).unwrap();
        let noisy = Replayer::new(Machine::archer2())
            .with_noise(0.05, seed)
            .run(&program)
            .unwrap();
        let noisy2 = Replayer::new(Machine::archer2())
            .with_noise(0.05, seed)
            .run(&program)
            .unwrap();
        // Noise only slows things down.
        prop_assert!(noisy.makespan() >= clean.makespan());
        // And not by more than the amplitude bound (2·amp on compute).
        prop_assert!(noisy.makespan() <= clean.makespan() * 1.25);
        // Same seed ⇒ bit-identical replay.
        prop_assert_eq!(noisy.finish, noisy2.finish);
    }

    #[test]
    fn trace_stats_consistent_with_replay(n in 2usize..16, steps in 1u32..5) {
        let program = ring_program(n, steps, 1e6, 256);
        let stats = cpx_machine::TraceStats::of(&program);
        let out = Replayer::new(Machine::archer2()).run(&program).unwrap();
        prop_assert_eq!(stats.sends, out.messages);
        prop_assert_eq!(stats.send_bytes, out.bytes);
        prop_assert!(stats.messages_balanced());
    }

    #[test]
    fn des_finish_times_equal_the_task_graph_schedule(
        seed in 0u64..u64::MAX,
        n in 1usize..9,
        rounds in 1usize..14,
    ) {
        let m = machine();
        let prog = generated_program(seed, n, rounds);
        let (out, log) = Replayer::new(m.clone())
            .run_logged(&prog)
            .expect("generated programs never deadlock");
        let graph = build_task_graph(&prog, &m, &[]).expect("generated programs match up");
        let sched = graph.schedule(&Rescale::none()).expect("graph schedules");

        let mut finish = vec![0.0f64; n];
        for (id, node) in graph.nodes.iter().enumerate() {
            finish[node.rank] = sched.end[id];
        }
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&out.finish), bits(&finish), "seed {}", seed);
        prop_assert_eq!(out.makespan().to_bits(), sched.makespan.to_bits());
        prop_assert!(validate_against_des(&graph, &sched, &log).is_ok(), "seed {}", seed);
        // The plain replay is the logged one minus the log.
        prop_assert_eq!(bits(&Replayer::new(m).run(&prog).unwrap().finish), bits(&out.finish));
    }
}
