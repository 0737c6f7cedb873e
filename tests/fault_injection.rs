//! Directed fault-injection tests: the resilience machinery actually
//! recovers, and hangs die structured deaths instead of silent ones.
//!
//! * A torus link killed mid-run under an 8×8 Jacobi solve with flit
//!   corruption raining on the message layer: the run completes, the
//!   grid validates bit-exactly against the sequential reference, and
//!   the recovery counters (deflection reroutes, eMPI retransmissions)
//!   are nonzero — the faults really happened and were really healed.
//! * A receiver whose peer never sends, under resilient delivery: the
//!   retransmission protocol NACK-spins (traffic flows, so classic
//!   deadlock detection cannot fire) until the progress watchdog
//!   converts the livelock into [`RunError::Watchdog`] with per-PE
//!   diagnostics.
//! * A hang under a fault schedule lists the injected faults, in order.
//! * The cycle-limit error carries the same per-PE blocked-state detail.
//! * A receiver parked on a message that never comes while its peer polls
//!   forever: the watchdog's carve-out for healthy timed stalls must not
//!   mistake the parked receiver for one, and the watchdog fires at the
//!   exact cycle its window closes.
//! * A PE spinning on a lock that is never released: its backoffs are
//!   jumped over, but a jump over a backoff is no progress, so the
//!   watchdog still fires one window after the last served work.
//! * A link kill due inside an idle fast-forward fires once, at the cycle
//!   the jump lands on.

use medea::apps::jacobi::{self, JacobiConfig, JacobiVariant};
use medea::core::system::{System, Task};
use medea::core::{
    AsyncEmpi, DeadLink, EventClass, FaultConfig, ResilienceConfig, RingSink, RunError,
    ScheduledInjector, SystemConfig, Topology,
};
use medea::sim::ids::Rank;
use medea::trace::{NullSink, TraceEvent};

/// Dead link at cycle 400 on the bank node's east port — right in the
/// middle of the memory traffic — plus a 0.5% Message-flit corruption
/// rate, under a validating 8×8-torus Jacobi solve with resilient
/// delivery enabled.
#[test]
fn jacobi_8x8_survives_dead_link_and_corruption() {
    let sys = SystemConfig::builder()
        .topology(Topology::new(8, 8).expect("8x8 torus"))
        .compute_pes(16)
        .cycle_limit(200_000_000)
        .resilience(ResilienceConfig {
            empi_retransmit: true,
            empi_timeout: 10_000,
            watchdog_cycles: 5_000_000,
            ..ResilienceConfig::off()
        })
        .build()
        .expect("16-PE resilient configuration");
    let jcfg = JacobiConfig::new(20, JacobiVariant::HybridFullMp)
        .with_warmup_iters(0)
        .with_measured_iters(2)
        .with_validation();
    let schedule =
        FaultConfig { seed: 0xFA_117, flit_corrupt_ppm: 5_000, ..FaultConfig::default() }
            .kill_link(DeadLink { node: 0, dir: 1, at: 400 });
    let mut injector = ScheduledInjector::new(schedule);
    let outcome =
        jacobi::run_faulted(&sys, &jcfg, &mut NullSink, &mut injector).expect("faulted Jacobi");

    // The faults really fired...
    assert_eq!(outcome.run.fault.links_killed, 1, "scheduled link kill must fire");
    assert!(outcome.run.fault.flits_corrupted > 0, "corruption rate never rolled a hit");
    // ...and were really recovered from.
    assert!(outcome.run.fabric_reroutes > 0, "dead link must force reroutes");
    assert!(
        outcome.run.retransmits() > 0,
        "corrupted chunks must be retransmitted (corrupted {})",
        outcome.run.fault.flits_corrupted
    );
    assert!(outcome.run.nacks_sent() > 0, "recovery must go through receiver NACKs");
    // Numerically perfect despite the abuse: every recovered chunk is
    // bit-exact, so the grid matches the sequential reference.
    jacobi::validate_against_reference(&jcfg, &outcome).expect("grid must validate bit-exactly");
}

/// A dead link alone (no corruption, resilience off) is absorbed by
/// deflection routing with zero protocol involvement: the run completes
/// and only the reroute counter moves.
#[test]
fn dead_link_alone_is_transparent_to_the_protocol() {
    let sys = SystemConfig::builder()
        .topology(Topology::new(4, 4).expect("4x4 torus"))
        .compute_pes(8)
        .cycle_limit(50_000_000)
        .build()
        .expect("configuration");
    let kernels: Vec<Task> = (0..8)
        .map(|r| {
            Task::new(move |api| async move {
                let comm = AsyncEmpi::new(api);
                if r == 0 {
                    for src in 1..comm.ranks() {
                        let got = comm.recv(Rank::new(src as u8)).await;
                        assert_eq!(got.len(), 40, "payload length survives the dead link");
                        assert_eq!(got[0], src as u32 * 1000);
                    }
                } else {
                    let payload: Vec<u32> = (0..40).map(|i| (r * 1000 + i) as u32).collect();
                    comm.send(Rank::new(0), &payload).await;
                }
            })
        })
        .collect();
    let schedule = FaultConfig { seed: 7, ..FaultConfig::default() }.kill_link(DeadLink {
        node: 0,
        dir: 1,
        at: 50,
    });
    let mut injector = ScheduledInjector::new(schedule);
    let run = System::run_with(&sys, &[], kernels, &mut NullSink, &mut injector)
        .expect("run with dead link");
    assert_eq!(run.fault.links_killed, 1);
    assert!(run.fabric_reroutes > 0, "traffic through node 0 must hit the dead link");
    assert_eq!(run.retransmits(), 0, "lossless reroute needs no retransmission");
    assert_eq!(run.fault.flits_corrupted, 0);
}

/// Resilient delivery turns a missing sender into a NACK livelock —
/// traffic keeps flowing, so deadlock detection can never fire — and the
/// progress watchdog converts it into a structured error naming the
/// blocked rank.
#[test]
fn watchdog_converts_retransmission_livelock_into_structured_error() {
    let sys = SystemConfig::builder()
        .compute_pes(2)
        .cycle_limit(50_000_000)
        .resilience(ResilienceConfig {
            empi_retransmit: true,
            empi_timeout: 1_000,
            watchdog_cycles: 40_000,
            ..ResilienceConfig::off()
        })
        .build()
        .expect("resilient configuration");
    let kernels: Vec<Task> = vec![
        Task::new(|api| async move {
            let comm = AsyncEmpi::new(api);
            let _ = comm.recv(Rank::new(1)).await; // peer never sends
        }),
        Task::new(|api| async move {
            let comm = AsyncEmpi::new(api);
            comm.compute(10).await; // finish without sending
        }),
    ];
    let err = System::run(&sys, &[], kernels).expect_err("must not hang silently");
    match &err {
        RunError::Watchdog { at, detail } => {
            assert!(*at >= 40_000, "watchdog fired inside its own window: at {at}");
            assert!(*at < 50_000_000, "watchdog must fire well before the cycle limit");
            assert!(detail.contains("rank 0"), "detail must name the stuck rank: {detail}");
        }
        other => panic!("expected Watchdog, got {other}"),
    }
}

/// A hang under a live fault schedule names the faults it injected: the
/// watchdog error's detail ends with the engine's fault tail, oldest
/// first, each event at the cycle it struck.
#[test]
fn hang_detail_lists_the_injected_faults_in_order() {
    let sys = SystemConfig::builder()
        .compute_pes(2)
        .cycle_limit(50_000_000)
        .resilience(ResilienceConfig {
            empi_retransmit: true,
            empi_timeout: 1_000,
            watchdog_cycles: 40_000,
            ..ResilienceConfig::off()
        })
        .build()
        .expect("resilient configuration");
    let kernels: Vec<Task> = vec![
        Task::new(|api| async move {
            let _ = AsyncEmpi::new(api).recv(Rank::new(1)).await; // peer never sends
        }),
        Task::new(|api| async move { AsyncEmpi::new(api).compute(10).await }),
    ];
    let schedule = FaultConfig { seed: 0x11FE, ..FaultConfig::default() }
        .kill_link(DeadLink { node: 1, dir: 1, at: 300 })
        .kill_link(DeadLink { node: 2, dir: 2, at: 2_000 });
    let mut injector = ScheduledInjector::new(schedule);
    let err = System::run_with(&sys, &[], kernels, &mut NullSink, &mut injector)
        .expect_err("must not hang silently");
    let RunError::Watchdog { detail, .. } = &err else { panic!("expected Watchdog, got {err}") };
    let tail = "; recent faults: [@300 FaultLinkKilled { node: 1, dir: 1 }, \
                @2000 FaultLinkKilled { node: 2, dir: 2 }]";
    assert!(detail.ends_with(tail), "fault tail missing or out of order: {detail}");
}

/// Without the watchdog the same livelock runs into the cycle limit —
/// whose error now carries the per-PE diagnostics too (satellite: richer
/// cycle-limit reporting).
#[test]
fn cycle_limit_error_reports_per_pe_state() {
    let sys = SystemConfig::builder()
        .compute_pes(2)
        .cycle_limit(60_000)
        .resilience(ResilienceConfig {
            empi_retransmit: true,
            empi_timeout: 1_000,
            ..ResilienceConfig::off()
        })
        .build()
        .expect("resilient configuration, watchdog off");
    let kernels: Vec<Task> = vec![
        Task::new(|api| async move {
            let comm = AsyncEmpi::new(api);
            let _ = comm.recv(Rank::new(1)).await;
        }),
        Task::new(|api| async move {
            let comm = AsyncEmpi::new(api);
            comm.compute(10).await;
        }),
    ];
    let err = System::run(&sys, &[], kernels).expect_err("cycle limit must trip");
    match &err {
        RunError::CycleLimit { limit, detail } => {
            assert_eq!(*limit, 60_000);
            assert!(detail.contains("rank 0"), "detail must name the live rank: {detail}");
            assert!(detail.contains("sent"), "detail must carry traffic counters: {detail}");
        }
        other => panic!("expected CycleLimit, got {other}"),
    }
}

/// The watchdog must NOT fire on a healthy long-running workload: heavy
/// compute with sparse traffic stays under a tight watchdog because
/// fast-forward jumps reset the window.
#[test]
fn watchdog_tolerates_long_healthy_compute() {
    let sys = SystemConfig::builder()
        .compute_pes(2)
        .cycle_limit(50_000_000)
        .resilience(ResilienceConfig {
            empi_retransmit: true,
            empi_timeout: 1_000,
            watchdog_cycles: 20_000,
            ..ResilienceConfig::off()
        })
        .build()
        .expect("resilient configuration");
    let kernels: Vec<Task> = vec![
        Task::new(|api| async move {
            let comm = AsyncEmpi::new(api);
            comm.compute(300_000).await; // 15 watchdog windows of pure compute
            comm.send(Rank::new(1), &[1, 2, 3]).await;
        }),
        Task::new(|api| async move {
            let comm = AsyncEmpi::new(api);
            let got = comm.recv(Rank::new(0)).await;
            assert_eq!(got, vec![1, 2, 3]);
        }),
    ];
    let run = System::run(&sys, &[], kernels).expect("healthy run must pass the watchdog");
    assert!(run.cycles >= 300_000);
}

/// Rank 0 blocks in `recv` — parked by the engine, waiting on a flit —
/// while rank 1 polls `try_recv` every cycle for a message that never
/// comes either. Nothing is ever served, so the watchdog must fire: a
/// parked PE is waiting on traffic, not sleeping through a timed stall,
/// and must not hold the watchdog window open.
#[test]
fn watchdog_fires_on_a_parked_receiver_beside_a_polling_peer() {
    let err = parked_receiver_beside_a_polling_peer();
    match &err {
        RunError::Watchdog { at, detail } => {
            assert!(*at >= 20_000, "watchdog fired inside its own window: at {at}");
            assert!(detail.contains("rank 0"), "detail must name the blocked rank: {detail}");
        }
        other => panic!("expected Watchdog, got {other}"),
    }
}

/// The same hang fires the watchdog at exactly one window: nothing is ever
/// served, so the window that opened at cycle 0 closes at cycle 20,000.
#[test]
fn watchdog_fires_at_the_end_of_its_window() {
    let err = parked_receiver_beside_a_polling_peer();
    assert!(matches!(err, RunError::Watchdog { at: 20_000, .. }), "{err}");
}

/// The error of a run where rank 0 parks in `recv` and rank 1 polls
/// `try_recv`, each for a message that never comes, under a 20,000-cycle
/// watchdog.
fn parked_receiver_beside_a_polling_peer() -> RunError {
    let sys = SystemConfig::builder()
        .compute_pes(2)
        .cycle_limit(200_000)
        .resilience(ResilienceConfig { watchdog_cycles: 20_000, ..Default::default() })
        .build()
        .expect("watchdog configuration");
    let kernels = vec![
        Task::new(|api| async move {
            let _ = api.recv_from_rank(Rank::new(1)).await; // never sent
        }),
        Task::new(|api| async move {
            while api.try_recv_from_rank(Rank::new(0)).await.is_none() {} // never sent either
        }),
    ];
    System::run(&sys, &[], kernels).expect_err("must not hang silently")
}

/// Rank 0 takes a lock and returns without releasing it; rank 1 computes,
/// then asks for the same lock forever. Each Nack sends rank 1 into a
/// short backoff that the idle fast-forward jumps over. A Nack serves no
/// work and a backoff is not a timed stall, so the jumps must not hold the
/// watchdog window open: it fires one window after rank 1's compute ends,
/// long before the cycle limit.
#[test]
fn watchdog_fires_on_a_lock_spin() {
    let sys = SystemConfig::builder()
        .compute_pes(2)
        .cycle_limit(400_000)
        .resilience(ResilienceConfig { watchdog_cycles: 20_000, ..Default::default() })
        .build()
        .expect("watchdog configuration");
    let kernels = vec![
        Task::new(|api| async move { api.lock(0x40).await }), // never unlocked
        Task::new(|api| async move {
            api.compute(200).await;
            api.lock(0x40).await;
        }),
    ];
    let err = System::run(&sys, &[], kernels).expect_err("must not spin silently");
    match &err {
        RunError::Watchdog { at, detail } => {
            assert!((20_000..40_000).contains(at), "watchdog fired at {at}, not one window in");
            assert!(detail.contains("rank 1"), "detail must name the spinning rank: {detail}");
        }
        other => panic!("expected Watchdog, got {other}"),
    }
}

/// Every PE computes for 10,000 cycles, so the engine jumps from the
/// first cycles straight to the end of the stall. The kill scheduled at
/// cycle 0 fires at cycle 0; the one scheduled at cycle 500 falls inside
/// the jump and fires once, at the cycle the jump lands on.
#[test]
fn link_kill_inside_an_idle_jump_fires_once_at_the_landing_cycle() {
    let sys = SystemConfig::builder()
        .compute_pes(3)
        .cycle_limit(1_000_000)
        .build()
        .expect("configuration");
    let kernels: Vec<Task> =
        (0..3).map(|_| Task::new(|api| async move { api.compute(10_000).await })).collect();
    let schedule = FaultConfig { seed: 3, ..FaultConfig::default() }
        .kill_link(DeadLink { node: 1, dir: 1, at: 0 })
        .kill_link(DeadLink { node: 2, dir: 2, at: 500 });
    let mut injector = ScheduledInjector::new(schedule);
    let mut sink = RingSink::with_classes(64, EventClass::FAULT);
    let run = System::run_with(&sys, &[], kernels, &mut sink, &mut injector).expect("run");
    let kills: Vec<_> = sink
        .iter()
        .filter(|e| matches!(e.event, TraceEvent::FaultLinkKilled { .. }))
        .map(|e| e.at)
        .collect();
    assert_eq!(kills, [0, 10_000], "link kills must fire once each, at these cycles");
    assert_eq!(run.fault.links_killed, 2);
}
