//! The contract of task kernels: an `async` kernel body its PE polls in
//! place.
//!
//! * **Same run either way** — every kernel of `medea::apps` (and the
//!   explore driver's compute-only workload) is a `Task`; running the same
//!   body on a kernel thread (`Task::into_thread`, which drives it through
//!   `PeApi`) must give a result `RunResult::divergence` finds no
//!   difference in, because both kinds issue the same request stream.
//! * **Failures stay loud** — a task's panic fails the run as a thread
//!   kernel's does (`kernel on nX panicked`), and a task that awaits
//!   something other than a PE operation fails naming its PE instead of
//!   hanging or passing for finished.
//! * **Teardown drops** — a run that ends early (here: the cycle limit)
//!   drops every kernel future.
//! * **One engine thread** — a task future never leaves the thread that
//!   polls it, so it need not be `Send`: it may hold an `Rc` across its
//!   awaits. `host_threads` selects nothing, so a run that sets it equals
//!   one that does not.

use medea::apps::hotspot::{self, HotspotConfig};
use medea::apps::jacobi::{JacobiConfig, JacobiVariant, JacobiWorkload};
use medea::apps::matmul::{self, MatmulConfig};
use medea::apps::pingpong::{self, PingPongTransport};
use medea::apps::reduce::{self, ReduceTransport};
use medea::apps::sharing::{self, Discipline, SharingConfig};
use medea::apps::workloads::{pingpong_kernels, trace_mix_kernels};
use medea::cache::Addr;
use medea::core::explore::{ComputeOnlyWorkload, Workload};
use medea::core::system::{AnyKernel, RunResult, System, Task};
use medea::core::{empi, AsyncEmpi, Coherence, RunError, SystemConfig, Topology};
use medea::sim::ids::Rank;
use std::cell::Cell;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn sys(pes: usize) -> SystemConfig {
    SystemConfig::builder().compute_pes(pes).cycle_limit(50_000_000).build().unwrap()
}

/// Run `kernels()` once as tasks and once on kernel threads, assert the
/// two runs agree on every simulated field, and return the task run.
fn both_kinds(
    name: &str,
    cfg: &SystemConfig,
    preload: &[(Addr, u32)],
    kernels: impl Fn() -> Vec<AnyKernel>,
) -> RunResult {
    let tasks = System::run(cfg, preload, kernels()).expect(name);
    let threads: Vec<_> = kernels().into_iter().map(AnyKernel::into_thread).collect();
    let threads = System::run(cfg, preload, threads).expect(name);
    assert_eq!(tasks.divergence(&threads), None, "{name}: task and thread runs differ");
    tasks
}

/// [`both_kinds`] over a list of tasks.
fn both_kinds_tasks(
    name: &str,
    cfg: &SystemConfig,
    preload: &[(Addr, u32)],
    tasks: impl Fn() -> Vec<Task>,
) -> RunResult {
    both_kinds(name, cfg, preload, || tasks().into_iter().map(AnyKernel::from).collect())
}

#[test]
fn jacobi_variants_match_on_threads() {
    let cfg = sys(4);
    for variant in [
        JacobiVariant::HybridFullMp,
        JacobiVariant::HybridSyncOnly,
        JacobiVariant::PureSharedMemory,
    ] {
        let workload = JacobiWorkload { jcfg: JacobiConfig::new(10, variant) };
        let preload = workload.prepare(&cfg).preload;
        let run =
            both_kinds(&variant.to_string(), &cfg, &preload, || workload.prepare(&cfg).kernels);
        assert!(run.cycles > 0);
    }
}

#[test]
fn hotspot_matches_on_threads() {
    let cfg = SystemConfig::builder()
        .compute_pes(6)
        .memory_banks(2)
        .cycle_limit(50_000_000)
        .build()
        .unwrap();
    let hcfg = HotspotConfig { ops_per_rank: 4 };
    both_kinds_tasks("hotspot", &cfg, &[], || hotspot::kernels(&cfg, &hcfg, Arc::default()));
}

#[test]
fn matmul_matches_on_threads() {
    let cfg = sys(3);
    let mcfg = MatmulConfig { n: 4 };
    let preload = matmul::preload(&cfg, &mcfg);
    both_kinds_tasks("matmul", &cfg, &preload, || {
        matmul::kernels(&cfg, &mcfg, Arc::default(), Arc::default())
    });
}

#[test]
fn reduce_matches_on_threads_under_both_transports() {
    let cfg = sys(5);
    let contribution = |r: usize| r as f64 * 0.5 + 1.0;
    for transport in [ReduceTransport::MessagePassing, ReduceTransport::SharedMemory] {
        both_kinds_tasks(&format!("{transport:?}"), &cfg, &[], || {
            reduce::kernels(&cfg, transport, contribution, Arc::default(), Arc::default())
        });
    }
}

#[test]
fn pingpong_matches_on_threads_under_every_transport() {
    let cfg = sys(3);
    for transport in [
        PingPongTransport::MessagePassing,
        PingPongTransport::EmpiFramed,
        PingPongTransport::SharedMemory,
    ] {
        both_kinds_tasks(&format!("{transport:?}"), &cfg, &[], || {
            pingpong::kernels(&cfg, transport, 5, Arc::default())
        });
    }
}

#[test]
fn sharing_matches_on_threads_under_dii_and_mesi() {
    let scfg = SharingConfig { rounds: 3 };
    for (coherence, discipline) in [
        (Coherence::Dii, Discipline::Software),
        (Coherence::MesiDirectory, Discipline::Software),
        (Coherence::MesiDirectory, Discipline::Hardware),
    ] {
        let cfg = SystemConfig::builder()
            .compute_pes(4)
            .coherence(coherence)
            .cycle_limit(50_000_000)
            .build()
            .unwrap();
        let name = format!("{coherence:?} {discipline:?}");
        both_kinds_tasks(&name, &cfg, &[], || {
            sharing::kernels(&cfg, &scfg, discipline, Arc::default(), Arc::default())
        });
    }
}

#[test]
fn workload_factories_match_on_threads() {
    both_kinds_tasks("pingpong_kernels", &sys(2), &[], || pingpong_kernels(6));
    both_kinds_tasks("trace_mix_kernels", &sys(4), &[], || trace_mix_kernels(4, 2));
}

#[test]
fn compute_only_workload_matches_on_threads() {
    let cfg = sys(3);
    let workload = ComputeOnlyWorkload { cycles_per_rank: 500 };
    both_kinds("compute-only", &cfg, &[], || workload.prepare(&cfg).kernels);
}

#[test]
#[should_panic(expected = "kernel on n2 panicked")]
fn task_panic_fails_the_run() {
    // The twin of the thread-kernel case in crates/core/tests: the
    // sender's task panics with the "exceeds the ... limit" diagnostic and
    // the engine surfaces it as a kernel-panic abort.
    let payload = vec![0u32; empi::MAX_MESSAGE_WORDS + 1];
    let _ = System::run(
        &sys(2),
        &[],
        vec![
            Task::new(|api| async move {
                let _ = AsyncEmpi::new(api).recv(Rank::new(1)).await;
            }),
            Task::new(move |api| async move {
                AsyncEmpi::new(api).send(Rank::new(0), &payload).await;
            }),
        ],
    );
}

#[test]
#[should_panic(expected = "kernel on n2 is pending without a request")]
fn task_awaiting_a_foreign_future_fails_naming_its_pe() {
    let _ = System::run(
        &sys(2),
        &[],
        vec![
            Task::new(|api| async move { api.compute(10).await }),
            Task::new(|api| async move {
                api.compute(10).await;
                std::future::pending::<()>().await;
            }),
        ],
    );
}

/// Counts its drops.
struct DropGuard(Arc<AtomicUsize>);

impl Drop for DropGuard {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn cycle_limit_drops_every_kernel_future() {
    let cfg = SystemConfig::builder().compute_pes(4).cycle_limit(10_000).build().unwrap();
    let dropped = Arc::new(AtomicUsize::new(0));
    let kernels: Vec<Task> = (0..4)
        .map(|_| {
            let guard = DropGuard(Arc::clone(&dropped));
            Task::new(move |api| async move {
                let _guard = guard;
                loop {
                    api.compute(100).await;
                }
            })
        })
        .collect();
    let err = System::run(&cfg, &[], kernels).unwrap_err();
    assert!(matches!(err, RunError::CycleLimit { limit: 10_000, .. }), "{err}");
    assert_eq!(dropped.load(Ordering::SeqCst), 4, "every kernel future is dropped");
}

#[test]
fn a_task_may_hold_an_rc_across_its_awaits() {
    // The `Rc<Cell<..>>` lives across every await, so the future is not
    // `Send`; the PE polls it in place, and its `into_thread` twin builds
    // and drives it on the kernel thread.
    let run = both_kinds_tasks("rc-state", &sys(2), &[], || {
        (0..2u8)
            .map(|r| {
                Task::new(move |api| async move {
                    let total = Rc::new(Cell::new(0u64));
                    let peer = Rank::new(1 - r);
                    for i in 1..=5u32 {
                        api.send_to_rank(peer, &[i]).await;
                        let got = api.recv_from_rank(peer).await;
                        total.set(total.get() + u64::from(got[0]));
                        api.compute(total.get()).await;
                    }
                    assert_eq!(total.get(), 15);
                })
            })
            .collect()
    });
    assert_eq!(run.pe[0].engine.packets_received.get(), 5);
}

#[test]
fn host_threads_changes_no_result() {
    let cfg = |threads: usize| {
        SystemConfig::builder()
            .topology(Topology::new(4, 4).unwrap())
            .compute_pes(15)
            .cycle_limit(50_000_000)
            .host_threads(threads)
            .build()
            .unwrap()
    };
    let workload = JacobiWorkload { jcfg: JacobiConfig::new(17, JacobiVariant::HybridFullMp) };
    let run = |threads: usize| {
        let prepared = workload.prepare(&cfg(threads));
        System::run(&cfg(threads), &prepared.preload, prepared.kernels).expect("jacobi run")
    };
    let sequential = run(1);
    assert_eq!(run(4).divergence(&sequential), None, "host_threads(4)");
}
