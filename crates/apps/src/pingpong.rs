//! Synchronization-latency microbenchmark: one-word round trips between
//! two ranks — raw TIE messages, framed eMPI messages through the
//! communicator, and a shared-memory mailbox.
//!
//! Quantifies the paper's core motivation (§I): "an explicit exchange of
//! synchronization tokens among the processing elements through dedicated
//! on-chip links would be beneficial" compared to synchronizing through
//! the memory hierarchy — and, between the two message flavours, what the
//! eMPI frame header and call overhead cost on top of the bare hardware
//! path.

use crate::sm::SmMailbox;
use medea_core::system::{RunError, System, Task};
use medea_core::{AsyncEmpi, SystemConfig};
use medea_sim::ids::Rank;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Transport used for the round trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PingPongTransport {
    /// Raw TIE messages (bare hardware path, no framing).
    MessagePassing,
    /// Framed eMPI messages via [`AsyncEmpi::send`]/[`AsyncEmpi::recv`].
    EmpiFramed,
    /// Shared-memory mailboxes (uncached flag + data words).
    SharedMemory,
}

/// Result: average round-trip latency.
#[derive(Debug, Clone, Copy)]
pub struct PingPongReport {
    /// Round trips performed.
    pub rounds: u64,
    /// Mean cycles per round trip.
    pub cycles_per_round: f64,
}

/// Run `rounds` one-word round trips between ranks 0 and 1 of `sys`.
///
/// # Errors
///
/// Propagates engine errors.
///
/// # Panics
///
/// Panics if `sys` has fewer than two PEs or `rounds` is zero.
pub fn run(
    sys: &SystemConfig,
    transport: PingPongTransport,
    rounds: u64,
) -> Result<PingPongReport, RunError> {
    let window = Arc::new(AtomicU64::new(0));
    System::run(sys, &[], kernels(sys, transport, rounds, Arc::clone(&window)))?;
    Ok(PingPongReport {
        rounds,
        cycles_per_round: window.load(Ordering::SeqCst) as f64 / rounds as f64,
    })
}

/// The benchmark's kernels: ping on rank 0 (which stores the measured
/// cycles of all `rounds` into `window`), pong on rank 1, and idle
/// kernels on any further configured PEs.
///
/// # Panics
///
/// Panics if `sys` has fewer than two PEs or `rounds` is zero.
pub fn kernels(
    sys: &SystemConfig,
    transport: PingPongTransport,
    rounds: u64,
    window: Arc<AtomicU64>,
) -> Vec<Task> {
    assert!(sys.compute_pes() >= 2, "ping-pong needs two ranks");
    assert!(rounds > 0);
    // Two mailboxes on distinct lines in the shared segment.
    let ping_box = SmMailbox { flag: 0x40, data: 0x50 };
    let pong_box = SmMailbox { flag: 0x80, data: 0x90 };

    let ping = Task::new(move |api| async move {
        let comm = AsyncEmpi::new(api);
        let t0 = comm.now().await;
        for i in 1..=rounds {
            match transport {
                PingPongTransport::MessagePassing => {
                    comm.send_to_rank(Rank::new(1), &[i as u32]).await;
                    let back = comm.recv_from_rank(Rank::new(1)).await;
                    debug_assert_eq!(back[0], i as u32);
                }
                PingPongTransport::EmpiFramed => {
                    comm.send(Rank::new(1), &[i as u32]).await;
                    let back = comm.recv(Rank::new(1)).await;
                    debug_assert_eq!(back[0], i as u32);
                }
                PingPongTransport::SharedMemory => {
                    ping_box.post(&comm, i as u32, i as u32).await;
                    let back = pong_box.take(&comm, i as u32).await;
                    debug_assert_eq!(back, i as u32);
                }
            }
        }
        let t1 = comm.now().await;
        window.store(t1 - t0, Ordering::SeqCst);
    });
    let pong = Task::new(move |api| async move {
        let comm = AsyncEmpi::new(api);
        for i in 1..=rounds {
            match transport {
                PingPongTransport::MessagePassing => {
                    let v = comm.recv_from_rank(Rank::new(0)).await;
                    comm.send_to_rank(Rank::new(0), &v).await;
                }
                PingPongTransport::EmpiFramed => {
                    let v = comm.recv(Rank::new(0)).await;
                    comm.send(Rank::new(0), &v).await;
                }
                PingPongTransport::SharedMemory => {
                    let v = ping_box.take(&comm, i as u32).await;
                    pong_box.post(&comm, i as u32, v).await;
                }
            }
        }
    });
    let mut kernels = vec![ping, pong];
    // Idle kernels for any extra configured PEs.
    kernels.extend((2..sys.compute_pes()).map(|_| Task::new(|_api| async {})));
    kernels
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> SystemConfig {
        SystemConfig::builder().compute_pes(2).cycle_limit(50_000_000).build().unwrap()
    }

    #[test]
    fn mp_roundtrip_completes() {
        let rep = run(&sys(), PingPongTransport::MessagePassing, 50).unwrap();
        assert!(rep.cycles_per_round > 0.0);
        // One-word packets over a couple of hops: tens of cycles, not
        // hundreds.
        assert!(rep.cycles_per_round < 100.0, "{}", rep.cycles_per_round);
    }

    #[test]
    fn sm_roundtrip_completes() {
        let rep = run(&sys(), PingPongTransport::SharedMemory, 50).unwrap();
        assert!(rep.cycles_per_round > 0.0);
    }

    #[test]
    fn message_passing_beats_shared_memory() {
        // The paper's motivating claim, as a test — and the framing tax
        // must sit strictly between the bare hardware path and the memory
        // hierarchy.
        let raw = run(&sys(), PingPongTransport::MessagePassing, 100).unwrap();
        let framed = run(&sys(), PingPongTransport::EmpiFramed, 100).unwrap();
        let sm = run(&sys(), PingPongTransport::SharedMemory, 100).unwrap();
        assert!(
            raw.cycles_per_round < framed.cycles_per_round,
            "raw {} !< framed {}",
            raw.cycles_per_round,
            framed.cycles_per_round
        );
        assert!(
            framed.cycles_per_round < sm.cycles_per_round,
            "framed {} !< SM {}",
            framed.cycles_per_round,
            sm.cycles_per_round
        );
    }
}
