//! Cross-crate integration tests: the complete stack (kernel API → PE →
//! cache → bridge → arbiter → deflection NoC → MPMMU → DDR) exercised
//! through the facade crate, the way a downstream user would.

use medea::apps::jacobi::{self, JacobiConfig, JacobiVariant};
use medea::apps::pingpong::{self, PingPongTransport};
use medea::apps::reduce::{self, ReduceTransport};
use medea::core::system::{System, Task};
use medea::core::{AsyncEmpi, CachePolicy, CollectiveAlgo, FabricKind, SystemConfig};
use medea::sim::ids::Rank;

fn sys(pes: usize) -> SystemConfig {
    SystemConfig::builder()
        .compute_pes(pes)
        .cache_bytes(16 * 1024)
        .cycle_limit(400_000_000)
        .build()
        .expect("valid configuration")
}

#[test]
fn jacobi_all_variants_validate_at_scale() {
    for variant in [
        JacobiVariant::HybridFullMp,
        JacobiVariant::HybridSyncOnly,
        JacobiVariant::PureSharedMemory,
    ] {
        let jcfg = JacobiConfig::new(16, variant)
            .with_warmup_iters(1)
            .with_measured_iters(2)
            .with_validation();
        let outcome =
            jacobi::run(&sys(6), &jcfg).unwrap_or_else(|e| panic!("{variant} failed: {e}"));
        jacobi::validate_against_reference(&jcfg, &outcome)
            .unwrap_or_else(|e| panic!("{variant} wrong: {e}"));
    }
}

#[test]
fn jacobi_scales_with_cores_when_cache_fits() {
    let jcfg = JacobiConfig::new(24, JacobiVariant::HybridFullMp);
    let t2 = jacobi::run(&sys(2), &jcfg).unwrap().cycles_per_iter;
    let t8 = jacobi::run(&sys(8), &jcfg).unwrap().cycles_per_iter;
    assert!(t8 * 2 < t2, "8 cores ({t8}) should be at least 2x faster than 2 cores ({t2})");
}

#[test]
fn write_through_slower_than_write_back() {
    let mk = |policy| {
        SystemConfig::builder()
            .compute_pes(4)
            .cache_bytes(16 * 1024)
            .cache_policy(policy)
            .cycle_limit(400_000_000)
            .build()
            .unwrap()
    };
    let jcfg = JacobiConfig::new(16, JacobiVariant::HybridFullMp);
    let wb = jacobi::run(&mk(CachePolicy::WriteBack), &jcfg).unwrap().cycles_per_iter;
    let wt = jacobi::run(&mk(CachePolicy::WriteThrough), &jcfg).unwrap().cycles_per_iter;
    assert!(wt > wb * 2, "WT ({wt}) must be much slower than WB ({wb})");
}

#[test]
fn small_cache_hits_the_memory_wall() {
    let mk = |kb: usize| {
        SystemConfig::builder()
            .compute_pes(2)
            .cache_bytes(kb * 1024)
            .cycle_limit(400_000_000)
            .build()
            .unwrap()
    };
    let jcfg = JacobiConfig::new(24, JacobiVariant::HybridFullMp);
    let small = jacobi::run(&mk(2), &jcfg).unwrap();
    let large = jacobi::run(&mk(32), &jcfg).unwrap();
    assert!(
        small.cycles_per_iter > large.cycles_per_iter,
        "2 kB ({}) must be slower than 32 kB ({})",
        small.cycles_per_iter,
        large.cycles_per_iter
    );
    assert!(
        small.run.l1_miss_rate().unwrap() > large.run.l1_miss_rate().unwrap(),
        "miss rates must order accordingly"
    );
}

#[test]
fn hybrid_beats_pure_sm_and_sync_dominates() {
    // E5/E6 in miniature: full-MP ≥ sync-only ≥ ... both beat pure SM, and
    // the sync-only variant captures most of the gain.
    let n = 16;
    let run =
        |variant| jacobi::run(&sys(4), &JacobiConfig::new(n, variant)).unwrap().cycles_per_iter;
    let full = run(JacobiVariant::HybridFullMp);
    let sync_only = run(JacobiVariant::HybridSyncOnly);
    let pure = run(JacobiVariant::PureSharedMemory);
    assert!(pure > full, "pure SM {pure} must lose to hybrid {full}");
    assert!(pure > sync_only, "pure SM {pure} must lose to sync-only {sync_only}");
    let full_gain = pure as f64 / full as f64;
    let sync_gain = pure as f64 / sync_only as f64;
    assert!(
        sync_gain / full_gain > 0.5,
        "synchronization should account for most of the gain \
         (sync {sync_gain:.2}x of full {full_gain:.2}x)"
    );
}

#[test]
fn ideal_fabric_bounds_the_real_one() {
    let mk = |fabric| {
        SystemConfig::builder()
            .compute_pes(6)
            .cache_bytes(4 * 1024)
            .fabric(fabric)
            .cycle_limit(400_000_000)
            .build()
            .unwrap()
    };
    let jcfg = JacobiConfig::new(16, JacobiVariant::HybridFullMp);
    let real = jacobi::run(&mk(FabricKind::Deflection), &jcfg).unwrap().cycles_per_iter;
    let ideal = jacobi::run(&mk(FabricKind::Ideal), &jcfg).unwrap().cycles_per_iter;
    assert!(ideal <= real, "ideal {ideal} must not exceed real {real}");
}

#[test]
fn microbenchmarks_confirm_mp_advantage() {
    let s = sys(2);
    let mp = pingpong::run(&s, PingPongTransport::MessagePassing, 100).unwrap();
    let sm = pingpong::run(&s, PingPongTransport::SharedMemory, 100).unwrap();
    assert!(mp.cycles_per_round < sm.cycles_per_round);

    let s6 = sys(6);
    let mp_red = reduce::run(&s6, ReduceTransport::MessagePassing, |r| r as f64).unwrap();
    let sm_red = reduce::run(&s6, ReduceTransport::SharedMemory, |r| r as f64).unwrap();
    assert_eq!(mp_red.sum, 15.0);
    assert_eq!(sm_red.sum, 15.0);
    assert!(mp_red.cycles < sm_red.cycles);
}

#[test]
fn empi_collectives_compose() {
    // Ring pass-the-token, then the full collective surface back to back
    // across 5 ranks: barrier, bcast, scatter, gather, allreduce.
    let pes = 5;
    let kernels: Vec<Task> = (0..pes)
        .map(|r| {
            Task::new(move |api| async move {
                let comm = AsyncEmpi::new(api);
                let ranks = comm.ranks();
                let next = Rank::new(((r + 1) % ranks) as u8);
                let prev = Rank::new(((r + ranks - 1) % ranks) as u8);
                if r == 0 {
                    comm.send(next, &[1]).await;
                    let token = comm.recv(prev).await;
                    assert_eq!(token[0] as usize, ranks, "token incremented once per hop");
                } else {
                    let token = comm.recv(prev).await;
                    comm.send(next, &[token[0] + 1]).await;
                }
                comm.barrier().await;
                let root = Rank::new(2);
                let plan =
                    comm.bcast(root, if comm.rank() == root { &[7, 8, 9] } else { &[] }).await;
                assert_eq!(plan, vec![7, 8, 9]);
                let chunks: Vec<Vec<u32>> = (0..ranks).map(|k| vec![k as u32 * 11]).collect();
                let mine =
                    comm.scatter(root, if comm.rank() == root { &chunks } else { &[] }).await;
                assert_eq!(mine, vec![r as u32 * 11]);
                let gathered = comm.gather(root, &[mine[0] + 1]).await;
                if let Some(rows) = gathered {
                    for (k, row) in rows.iter().enumerate() {
                        assert_eq!(row, &vec![k as u32 * 11 + 1], "gather from {k}");
                    }
                }
                let sum = comm.allreduce(r as f64).await;
                assert_eq!(sum, (0..ranks).map(|k| k as f64).sum::<f64>());
            })
        })
        .collect();
    System::run(&sys(pes), &[], kernels).expect("ring");
}

#[test]
fn tree_collectives_run_the_full_stack() {
    // The non-default algorithms drive the same composed surface.
    for algo in [CollectiveAlgo::BinomialTree, CollectiveAlgo::RecursiveDoubling] {
        let cfg = SystemConfig::builder()
            .compute_pes(6)
            .collective_algo(algo)
            .cycle_limit(400_000_000)
            .build()
            .unwrap();
        let kernels: Vec<Task> = (0..6)
            .map(|r| {
                Task::new(move |api| async move {
                    let comm = AsyncEmpi::new(api);
                    comm.barrier().await;
                    let root = Rank::new(3);
                    let msg = comm.bcast(root, if comm.rank() == root { &[42] } else { &[] }).await;
                    assert_eq!(msg, vec![42]);
                    let sum = comm.reduce(root, 1.5).await;
                    if comm.rank() == root {
                        assert_eq!(sum.unwrap(), 9.0);
                    }
                    assert_eq!(comm.allreduce(r as f64 + 0.5).await, 18.0);
                    comm.barrier().await;
                })
            })
            .collect();
        System::run(&cfg, &[], kernels).unwrap_or_else(|e| panic!("{algo}: {e}"));
    }
}

#[test]
fn determinism_across_full_stack() {
    let jcfg = JacobiConfig::new(16, JacobiVariant::PureSharedMemory);
    let a = jacobi::run(&sys(5), &jcfg).unwrap();
    let b = jacobi::run(&sys(5), &jcfg).unwrap();
    assert_eq!(a.cycles_per_iter, b.cycles_per_iter);
    assert_eq!(a.run.divergence(&b.run), None);
}

#[test]
fn fifteen_pe_maximum_configuration() {
    // The largest system the 4-bit source-id field allows: 15 PEs + MPMMU.
    let jcfg = JacobiConfig::new(30, JacobiVariant::HybridFullMp).with_validation();
    let outcome = jacobi::run(&sys(15), &jcfg).unwrap();
    jacobi::validate_against_reference(&jcfg, &outcome).unwrap();
    assert!(outcome.run.fabric_deflections > 0, "15 PEs must contend somewhere");
}
