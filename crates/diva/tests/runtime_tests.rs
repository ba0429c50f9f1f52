//! End-to-end tests of the DIVA runtime: programs running on every simulated
//! processor, both data-management strategies, barriers, locks, explicit
//! message passing, measurement regions and determinism.

use dm_diva::{Counter, Diva, DivaConfig, EmbeddingMode, FaultPlan, StrategyKind, VarHandle};
use dm_mesh::{Mesh, NodeId, TreeShape};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

fn at_config(side: usize, shape: TreeShape) -> DivaConfig {
    DivaConfig::on(Mesh::square(side), StrategyKind::AccessTree(shape))
}

fn fh_config(side: usize) -> DivaConfig {
    DivaConfig::on(Mesh::square(side), StrategyKind::FixedHome)
}

fn all_strategies(side: usize) -> Vec<DivaConfig> {
    vec![
        at_config(side, TreeShape::binary()),
        at_config(side, TreeShape::quad()),
        at_config(side, TreeShape::hex16()),
        at_config(side, TreeShape::lk(2, 4)),
        fh_config(side),
    ]
}

#[test]
fn every_processor_reads_the_initial_value() {
    for cfg in all_strategies(4) {
        let mut diva = Diva::new(cfg);
        let v = diva.alloc(3, 400, vec![7u32; 100]);
        let outcome = diva
            .run_prototype(|ctx| ctx.read::<Vec<u32>>(v)[0])
            .expect_completed();
        assert_eq!(outcome.results, vec![7u32; 16]);
        assert!(outcome.report.total_time > 0);
        // 15 processors missed, one (the owner) may hit via the fast path.
        assert!(outcome.report.counter(Counter::ReadMiss) >= 15);
    }
}

#[test]
fn writes_are_visible_after_a_barrier() {
    for cfg in all_strategies(4) {
        let name = cfg.strategy.name();
        let mut diva = Diva::new(cfg);
        let v = diva.alloc(0, 64, 0u64);
        let outcome = diva
            .run_prototype(|ctx| {
                if ctx.proc_id() == 5 {
                    ctx.write(v, 42u64);
                }
                ctx.barrier();
                *ctx.read::<u64>(v)
            })
            .expect_completed();
        assert_eq!(outcome.results, vec![42u64; 16], "strategy {name}");
    }
}

#[test]
fn successive_write_read_phases_stay_consistent() {
    // Ping-pong between two writers with barriers in between; every processor
    // must observe every phase's value.
    for cfg in [at_config(4, TreeShape::quad()), fh_config(4)] {
        let mut diva = Diva::new(cfg);
        let v = diva.alloc(0, 64, 0u64);
        let outcome = diva
            .run_prototype(|ctx| {
                let mut seen = Vec::new();
                for round in 1..=4u64 {
                    let writer = (round as usize * 3) % ctx.num_procs();
                    if ctx.proc_id() == writer {
                        ctx.write(v, round * 100);
                    }
                    ctx.barrier();
                    seen.push(*ctx.read::<u64>(v));
                    ctx.barrier();
                }
                seen
            })
            .expect_completed();
        for seen in outcome.results {
            assert_eq!(seen, vec![100, 200, 300, 400]);
        }
    }
}

#[test]
fn barrier_separates_virtual_time() {
    // A processor that computes for a long time before the barrier must delay
    // everyone: after the barrier all processors' clocks are at least the slow
    // processor's pre-barrier time.
    let mut diva = Diva::new(at_config(4, TreeShape::quad()));
    let v = diva.alloc(0, 8, 0u8);
    let outcome = diva
        .run_prototype(|ctx| {
            if ctx.proc_id() == 7 {
                ctx.compute(1_000_000.0); // one virtual second
            }
            ctx.barrier();
            // Touch the variable so every processor does something measurable after
            // the barrier.
            let _ = ctx.read::<u8>(v);
        })
        .expect_completed();
    assert!(outcome.report.total_time >= 1_000_000_000);
}

#[test]
fn locks_provide_mutual_exclusion_on_read_modify_write() {
    // Without the lock this increment sequence would lose updates; with it the
    // final counter value must equal the number of processors times the number
    // of increments.
    for cfg in [at_config(4, TreeShape::quad()), fh_config(4)] {
        let name = cfg.strategy.name();
        let mut diva = Diva::new(cfg);
        let counter = diva.alloc(0, 8, 0u64);
        let increments = 3u64;
        let outcome = diva
            .run_prototype(|ctx| {
                for _ in 0..increments {
                    ctx.lock(counter);
                    let v = *ctx.read::<u64>(counter);
                    ctx.write(counter, v + 1);
                    ctx.unlock(counter);
                }
                ctx.barrier();
                *ctx.read::<u64>(counter)
            })
            .expect_completed();
        let expected = increments * 16;
        for v in outcome.results {
            assert_eq!(v, expected, "strategy {name}");
        }
        assert_eq!(outcome.report.counter(Counter::Locks), expected);
    }
}

#[test]
fn a_dead_lock_holder_is_force_released_to_its_waiters() {
    // Processor 1 takes the lock before a barrier, so after it 1 holds the
    // lock and 2 and 3 queue for it while 1 waits for a message nobody
    // sends. Its node fails inside the critical section: the runtime must
    // hand the lock to the waiters instead of leaving them wedged.
    for strategy in [
        StrategyKind::AccessTree(TreeShape::quad()),
        StrategyKind::FixedHome,
    ] {
        let plan = FaultPlan::new(1).fail_node(NodeId(1), 1_000_000_000);
        let mut diva = Diva::new(DivaConfig::on(Mesh::square(4), strategy).with_fault_plan(plan));
        let counter = diva.alloc(0, 8, 0u64);
        let outcome = diva.run_prototype(|ctx| {
            let me = ctx.proc_id();
            if me == 1 {
                ctx.lock(counter);
            }
            ctx.barrier();
            match me {
                1 => *ctx.recv_msg::<u64>(0, 0),
                2 | 3 => {
                    ctx.lock(counter);
                    let v = *ctx.read::<u64>(counter) + 1;
                    ctx.write(counter, v);
                    ctx.unlock(counter);
                    v
                }
                _ => 0,
            }
        });
        let name = strategy.name();
        let d = outcome.degraded().expect("the holder's node failed");
        assert_eq!(d.lost_procs, vec![NodeId(1)], "{name}");
        assert_eq!(d.report.faults.locks_force_released, 1, "{name}");
        let mut increments = [d.results[2], d.results[3]].map(|r| r.expect("a survivor"));
        increments.sort();
        assert_eq!(increments, [1, 2], "{name}");
    }
}

#[test]
fn freeing_a_held_lock_fails_loudly() {
    for strategy in [
        StrategyKind::AccessTree(TreeShape::quad()),
        StrategyKind::FixedHome,
    ] {
        let mut diva = Diva::new(DivaConfig::on(Mesh::square(2), strategy));
        let v = diva.alloc(0, 8, 0u64);
        let run = AssertUnwindSafe(|| {
            diva.run_prototype(|ctx| {
                if ctx.proc_id() == 3 {
                    ctx.lock(v);
                    ctx.free(v);
                }
            });
        });
        let payload = catch_unwind(run).expect_err("the free must panic");
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        assert!(msg.contains("lock is held"), "{}: {msg}", strategy.name());
    }
}

#[test]
fn explicit_message_passing_round_trip() {
    // Ring communication: each processor sends its id to the next and receives
    // from the previous.
    let diva = Diva::new(at_config(4, TreeShape::quad()));
    let outcome = diva
        .run_prototype(|ctx| {
            let p = ctx.proc_id();
            let n = ctx.num_procs();
            let next = (p + 1) % n;
            let prev = (p + n - 1) % n;
            ctx.send_msg(next, 64, 1, p as u64);

            *ctx.recv_msg::<u64>(prev, 1)
        })
        .expect_completed();
    for (p, got) in outcome.results.iter().enumerate() {
        assert_eq!(*got as usize, (p + 16 - 1) % 16);
    }
    assert!(outcome.report.messages_sent >= 16);
}

#[test]
fn message_passing_preserves_fifo_order_per_sender() {
    let diva = Diva::new(at_config(2, TreeShape::quad()));
    let outcome = diva
        .run_prototype(|ctx| {
            if ctx.proc_id() == 0 {
                for i in 0..10u64 {
                    ctx.send_msg(3, 32, 7, i);
                }
                Vec::new()
            } else if ctx.proc_id() == 3 {
                (0..10).map(|_| *ctx.recv_msg::<u64>(0, 7)).collect()
            } else {
                Vec::new()
            }
        })
        .expect_completed();
    assert_eq!(outcome.results[3], (0..10).collect::<Vec<u64>>());
}

#[test]
fn variables_can_be_allocated_during_the_run() {
    // Processor 0 allocates a variable, publishes its handle through a
    // pre-allocated "pointer" variable, and everyone else reads through it —
    // the same pattern the Barnes-Hut tree uses.
    for cfg in [at_config(4, TreeShape::quad()), fh_config(4)] {
        let mut diva = Diva::new(cfg);
        let pointer = diva.alloc(0, 8, VarHandle(u32::MAX));
        let outcome = diva
            .run_prototype(|ctx| {
                if ctx.proc_id() == 0 {
                    let data = ctx.alloc(256, vec![13u64; 32]);
                    ctx.write(pointer, data);
                }
                ctx.barrier();
                let handle = *ctx.read::<VarHandle>(pointer);
                ctx.read::<Vec<u64>>(handle)[31]
            })
            .expect_completed();
        assert_eq!(outcome.results, vec![13u64; 16]);
    }
}

#[test]
fn freed_variables_are_recycled_and_the_report_shows_it() {
    // Every processor repeatedly allocates a scratch variable, publishes work
    // through it, and retires it with end_epoch at the round barrier — the
    // Barnes-Hut lifecycle in miniature. The live-variable high-water must
    // stay at one round's worth of variables regardless of the round count.
    for cfg in [at_config(4, TreeShape::quad()), fh_config(4)] {
        let name = cfg.strategy.name();
        let run = |rounds: usize, cfg: DivaConfig| {
            let mut diva = Diva::new(cfg);
            let ptrs: Vec<VarHandle> = (0..16)
                .map(|p| diva.alloc(p, 8, VarHandle(u32::MAX)))
                .collect();
            let ptrs = Arc::new(ptrs);
            diva.run_prototype(move |ctx| {
                let me = ctx.proc_id();
                let mut sum = 0u64;
                for round in 0..rounds {
                    let scratch = ctx.alloc(128, (round * 100 + me) as u64);
                    ctx.write(ptrs[me], scratch);
                    ctx.barrier();
                    // Read the left neighbour's scratch variable.
                    let left = (me + 15) % 16;
                    let handle = *ctx.read::<VarHandle>(ptrs[left]);
                    sum += *ctx.read::<u64>(handle);
                    ctx.barrier();
                    ctx.end_epoch();
                }
                sum
            })
            .expect_completed()
        };
        let two = run(2, cfg.clone());
        let six = run(6, cfg);
        // Correctness across recycled handles.
        for (p, &sum) in two.results.iter().enumerate() {
            let left = (p + 15) % 16;
            assert_eq!(sum, left as u64 + (100 + left as u64), "{name}");
        }
        // Each round allocates 16 scratch vars; all are freed.
        assert_eq!(two.report.vars_freed, 32, "{name}");
        assert_eq!(six.report.vars_freed, 96, "{name}");
        // High-water is flat in the round count: 16 pointers + one round of
        // scratch variables (recycling keeps later rounds in the same slots).
        assert_eq!(
            two.report.live_vars_high_water, six.report.live_vars_high_water,
            "{name}"
        );
        assert!(six.report.live_vars_high_water <= 32, "{name}");
    }
}

#[test]
fn explicit_free_revokes_copies_everywhere() {
    // A variable read by every processor is freed by its owner; the freed
    // slot is recycled by a later allocation and must behave like a fresh
    // variable (no stale fast-path hits from the previous incarnation).
    for cfg in [at_config(4, TreeShape::quad()), fh_config(4)] {
        let name = cfg.strategy.name();
        let mut diva = Diva::new(cfg);
        let ptr = diva.alloc(0, 8, VarHandle(u32::MAX));
        let outcome = diva
            .run_prototype(move |ctx| {
                let first = if ctx.proc_id() == 0 {
                    let v = ctx.alloc(512, 7u64);
                    ctx.write(ptr, v);
                    v
                } else {
                    VarHandle(u32::MAX)
                };
                ctx.barrier();
                let v = *ctx.read::<VarHandle>(ptr);
                let got = *ctx.read::<u64>(v);
                ctx.barrier();
                if ctx.proc_id() == 0 {
                    ctx.free(first);
                    // The freed slot is recycled immediately: same handle, new
                    // incarnation with a different value and a clean copy set.
                    let again = ctx.alloc(512, 9u64);
                    assert_eq!(again, first, "slot must be recycled LIFO");
                    ctx.write(ptr, again);
                }
                ctx.barrier();
                let v2 = *ctx.read::<VarHandle>(ptr);
                got + *ctx.read::<u64>(v2)
            })
            .expect_completed();
        assert_eq!(outcome.results, vec![16u64; 16], "{name}");
        assert_eq!(outcome.report.vars_freed, 1, "{name}");
    }
}

#[test]
fn fast_path_hits_do_not_touch_the_network() {
    let mut diva = Diva::new(at_config(4, TreeShape::quad()));
    let v = diva.alloc(0, 1024, vec![1u8; 1024]);
    let outcome = diva
        .run_prototype(|ctx| {
            // First read misses (except on the owner), the remaining 99 hit.
            let mut sum = 0u64;
            for _ in 0..100 {
                sum += ctx.read::<Vec<u8>>(v)[0] as u64;
            }
            sum
        })
        .expect_completed();
    assert_eq!(outcome.results, vec![100u64; 16]);
    let hits = outcome.report.counter(Counter::ReadHit);
    let misses = outcome.report.counter(Counter::ReadMiss);
    assert!(hits >= 99 * 16, "hits = {hits}");
    assert!(misses <= 16, "misses = {misses}");
}

#[test]
fn runs_are_deterministic() {
    let run = || {
        let mut diva = Diva::new(at_config(4, TreeShape::binary()).with_seed(99));
        let vars: Vec<VarHandle> = (0..8)
            .map(|i| diva.alloc(i, 512, vec![i as u32; 128]))
            .collect();
        let vars = Arc::new(vars);
        let vars2 = Arc::clone(&vars);
        let outcome = diva
            .run_prototype(move |ctx| {
                let mut acc = 0u64;
                for (k, &v) in vars2.iter().enumerate() {
                    if (ctx.proc_id() + k) % 3 == 0 {
                        acc += ctx.read::<Vec<u32>>(v)[0] as u64;
                    }
                }
                ctx.barrier();
                if ctx.proc_id() < 8 {
                    ctx.write(vars2[ctx.proc_id()], vec![99u32; 128]);
                }
                ctx.barrier();
                acc
            })
            .expect_completed();
        (
            outcome.report.total_time,
            outcome.report.congestion_bytes(),
            outcome.report.messages_sent,
            outcome.results,
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "two identical runs must produce identical reports");
}

#[test]
fn different_seeds_change_placement_but_not_results() {
    let run = |seed: u64| {
        let mut diva = Diva::new(fh_config(4).with_seed(seed));
        let v = diva.alloc(0, 2048, vec![5u64; 256]);
        let outcome = diva
            .run_prototype(|ctx| *ctx.read::<Vec<u64>>(v).last().unwrap())
            .expect_completed();
        (outcome.results, outcome.report.congestion_bytes())
    };
    let (r1, c1) = run(1);
    let (r2, c2) = run(2);
    assert_eq!(r1, r2);
    // Placement differs, so congestion will generally differ (not guaranteed
    // for every seed pair, but these two differ).
    assert!(c1 > 0 && c2 > 0);
}

#[test]
fn regions_attribute_time_and_traffic_to_phases() {
    let mut diva = Diva::new(at_config(4, TreeShape::quad()));
    let v = diva.alloc(0, 4096, vec![0u8; 4096]);
    let outcome = diva
        .run_prototype(|ctx| {
            ctx.region("warmup");
            ctx.compute(100.0);
            ctx.barrier();
            ctx.region("reads");
            let _ = ctx.read::<Vec<u8>>(v);
            ctx.barrier();
            ctx.region("idle");
            ctx.barrier();
        })
        .expect_completed();
    let report = outcome.report;
    let reads = report.region("reads").expect("reads region missing");
    let warmup = report.region("warmup").expect("warmup region missing");
    let idle = report.region("idle").expect("idle region missing");
    // The data traffic happens in the "reads" region.
    assert!(reads.total_bytes > idle.total_bytes);
    assert!(reads.total_bytes > warmup.total_bytes);
    assert!(reads.wall_time > 0);
    assert!(warmup.compute_time >= 100_000);
}

#[test]
fn access_tree_beats_fixed_home_on_a_hot_shared_object() {
    // The paper's central qualitative claim, reproduced at small scale: when
    // every processor reads hot shared objects, the access tree's multicast
    // distribution produces less congestion — and, once the data volume is
    // large enough for bandwidth rather than startup cost to dominate, less
    // time — than the fixed home serving every reader itself. At this micro
    // scale a single unlucky random placement can flip the comparison, so the
    // claim is asserted over the aggregate of several seeds.
    let run = |strategy: StrategyKind, seed: u64| {
        let mut diva = Diva::new(DivaConfig::on(Mesh::square(8), strategy).with_seed(seed));
        let vars: Vec<VarHandle> = (0..4)
            .map(|i| diva.alloc(i, 16384, vec![1u8; 16384]))
            .collect();
        let vars = Arc::new(vars);
        let outcome = diva
            .run_prototype(move |ctx| {
                for &v in vars.iter() {
                    let _ = ctx.read::<Vec<u8>>(v);
                }
                ctx.barrier();
            })
            .expect_completed();
        outcome.report
    };
    let seeds = [1u64, 2, 3, 4, 5, 6, 7, 8];
    let mut at_congestion = 0u64;
    let mut fh_congestion = 0u64;
    let mut at_time = 0u64;
    let mut fh_time = 0u64;
    for &seed in &seeds {
        let at = run(StrategyKind::AccessTree(TreeShape::quad()), seed);
        let fh = run(StrategyKind::FixedHome, seed);
        at_congestion += at.congestion_bytes();
        fh_congestion += fh.congestion_bytes();
        at_time += at.total_time;
        fh_time += fh.total_time;
    }
    assert!(
        at_congestion < fh_congestion,
        "access tree congestion {at_congestion} should be below fixed home {fh_congestion}"
    );
    // For this micro-workload (one read per processor and variable) latency
    // rather than congestion dominates, so the access tree is only required
    // not to be meaningfully slower; its time advantage at application scale
    // is covered by the matrix-multiplication and sorting experiments.
    assert!(
        at_time as f64 <= fh_time as f64 * 1.25,
        "access tree time {at_time} should not exceed 1.25x fixed home {fh_time}"
    );
}

#[test]
fn random_embedding_mode_also_works_end_to_end() {
    let mut cfg = at_config(4, TreeShape::binary());
    cfg.embedding = EmbeddingMode::Random;
    let mut diva = Diva::new(cfg);
    let v = diva.alloc(0, 128, 3u32);
    let outcome = diva
        .run_prototype(|ctx| *ctx.read::<u32>(v))
        .expect_completed();
    assert_eq!(outcome.results, vec![3u32; 16]);
}

#[test]
fn single_processor_mesh_degenerates_gracefully() {
    let mut diva = Diva::new(at_config(1, TreeShape::quad()));
    let v = diva.alloc(0, 64, 10u32);
    let outcome = diva
        .run_prototype(|ctx| {
            ctx.write(v, 11u32);
            ctx.barrier();
            *ctx.read::<u32>(v)
        })
        .expect_completed();
    assert_eq!(outcome.results, vec![11]);
    assert_eq!(outcome.report.congestion_bytes(), 0);
}

#[test]
fn report_counters_are_consistent() {
    let mut diva = Diva::new(fh_config(4));
    let v = diva.alloc(0, 256, vec![0u32; 64]);
    let outcome = diva
        .run_prototype(|ctx| {
            let _ = ctx.read::<Vec<u32>>(v);
            ctx.barrier();
            if ctx.proc_id() == 1 {
                ctx.write(v, vec![1u32; 64]);
            }
            ctx.barrier();
        })
        .expect_completed();
    let r = outcome.report;
    assert_eq!(r.barriers, 2);
    assert!(r.counter(Counter::CopiesCreated) >= 15);
    assert!(r.counter(Counter::Invalidations) >= 14);
    assert!(r.messages_sent > 0);
    assert!(r.bytes_sent > 0);
    assert!(r.congestion_bytes() <= r.total_traffic_bytes());
    // The summary renders without panicking and mentions the strategy.
    assert!(r.summary().contains("fixed home"));
}

#[test]
#[should_panic(expected = "deadlock")]
fn missing_send_is_reported_as_deadlock() {
    let diva = Diva::new(at_config(2, TreeShape::quad()));
    let _ = diva
        .run_prototype(|ctx| {
            if ctx.proc_id() == 0 {
                // Waits forever: nobody sends with tag 9.
                let _ = ctx.recv_msg::<u64>(1, 9);
            }
        })
        .expect_completed();
}

#[test]
#[should_panic(expected = "boom early")]
fn a_closure_panic_while_its_peers_wait_is_the_runs_panic() {
    // The peers sit in a barrier the panicking processor never reaches; the
    // run must report the closure's panic, not the deadlock it leaves behind.
    let diva = Diva::new(at_config(2, TreeShape::quad()));
    let _ = diva.run_prototype(|ctx| {
        if ctx.proc_id() == 1 {
            panic!("boom early");
        }
        ctx.barrier();
    });
}

#[test]
#[should_panic(expected = "boom from 2")]
fn a_closure_panic_after_its_last_operation_is_the_runs_panic() {
    let diva = Diva::new(at_config(2, TreeShape::quad()));
    let _ = diva.run_prototype(|ctx| {
        ctx.barrier();
        if ctx.proc_id() == 2 {
            panic!("boom from 2");
        }
    });
}
