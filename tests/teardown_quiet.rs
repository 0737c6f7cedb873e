//! A run torn down while its kernels are live (here: the cycle limit)
//! reports its `RunError` and prints nothing: a kernel thread unwinds
//! without the panic hook, and a task is dropped where it waits.
//!
//! This binary holds one test because the panic hook it counts is
//! process-global.

use medea::core::api::PeApi;
use medea::core::system::{Kernel, System, Task};
use medea::core::{RunError, SystemConfig};
use std::sync::atomic::{AtomicUsize, Ordering};

static HOOK_CALLS: AtomicUsize = AtomicUsize::new(0);

#[test]
fn cycle_limit_teardown_calls_no_panic_hook() {
    std::panic::set_hook(Box::new(|_| {
        HOOK_CALLS.fetch_add(1, Ordering::SeqCst);
    }));
    let cfg = SystemConfig::builder().compute_pes(4).cycle_limit(10_000).build().unwrap();

    let threads: Vec<Kernel> = (0..4)
        .map(|_| {
            Box::new(|api: PeApi| loop {
                api.compute(100);
            }) as Kernel
        })
        .collect();
    let on_threads = System::run(&cfg, &[], threads).unwrap_err();

    let tasks: Vec<Task> = (0..4)
        .map(|_| {
            Task::new(|api| async move {
                loop {
                    api.compute(100).await;
                }
            })
        })
        .collect();
    let as_tasks = System::run(&cfg, &[], tasks).unwrap_err();

    let calls = HOOK_CALLS.load(Ordering::SeqCst);
    drop(std::panic::take_hook());
    assert!(matches!(on_threads, RunError::CycleLimit { limit: 10_000, .. }), "{on_threads}");
    assert!(matches!(as_tasks, RunError::CycleLimit { limit: 10_000, .. }), "{as_tasks}");
    assert_eq!(calls, 0, "a torn-down run must not call the panic hook");
}
