//! Worker-pool synchronization for the tiled cycle engine.
//!
//! The parallel engine in `medea-core` domain-decomposes the torus into
//! per-thread tiles and advances all tiles in lockstep, one simulated clock
//! cycle per step. The synchronization shape is a classic *phaser*: every
//! cycle, each worker finishes its tile's phases, publishes a small report,
//! and waits; one distinguished **leader** (tile 0, which runs on the
//! calling thread) waits for all followers, makes the serial end-of-cycle
//! decision (termination, cycle limit, watchdog, timed-wait jump,
//! deadlock), publishes it, and releases everyone into the next cycle.
//!
//! The barrier *is* the clock edge: no tile can observe another tile's
//! cycle-`T` state until every tile has finished cycle `T`, so cross-tile
//! effects (boundary link latches, in-flight counts, stats) are exchanged
//! at exactly the same simulated time as the sequential engine's intra-cycle
//! phase ordering — which is what keeps the tiled engine bit-identical to
//! `System::run` on one thread.
//!
//! [`Phaser`] is intentionally tiny and spin-based. Cycle times are in the
//! hundreds of nanoseconds to a few microseconds, so parking (`Condvar`,
//! `std::sync::Barrier`) would dominate the cycle itself; instead followers
//! spin with [`std::hint::spin_loop`] and yield to the OS periodically so
//! oversubscribed hosts still make progress. A `poison` flag gives panics a
//! way out: any participant that unwinds poisons the phaser, every spin loop
//! bails, and the caller re-raises the payload after joining the pool.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Spin every this many iterations before yielding the OS thread, so a
/// follower that arrives while the host is oversubscribed (more workers
/// than cores, e.g. a sweep running multi-threaded engines) cannot starve
/// the worker it is waiting for.
const SPINS_PER_YIELD: u32 = 256;

/// A reusable two-sided spin barrier for one leader plus `n - 1` followers.
///
/// Protocol per cycle (generation):
///
/// 1. followers call [`Phaser::arrive_and_wait`] — publish their report
///    *before* arriving (the `AcqRel` arrival makes it visible), then spin
///    until the leader bumps the generation;
/// 2. the leader calls [`Phaser::wait_followers`], reads all reports, writes
///    the shared decision, then calls [`Phaser::release`].
///
/// All cross-thread data (tile reports, the decision, boundary mailboxes)
/// rides on the acquire/release pairs of `arrived` and `generation`, so the
/// shared structures themselves can be plain uncontended `Mutex`es.
#[derive(Debug)]
pub struct Phaser {
    participants: usize,
    arrived: AtomicUsize,
    generation: AtomicU64,
    poison: AtomicBool,
}

impl Phaser {
    /// Phaser for `participants` workers total (leader included).
    pub fn new(participants: usize) -> Self {
        Phaser {
            participants,
            arrived: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
            poison: AtomicBool::new(false),
        }
    }

    /// Current generation; a follower snapshots this *before* arriving and
    /// passes it to [`Phaser::arrive_and_wait`].
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Follower side: arrive at the barrier for generation `seen` (from
    /// [`Phaser::generation`]) and spin until the leader releases it.
    /// Returns `false` if the phaser was poisoned, in which case the worker
    /// must abandon the run.
    pub fn arrive_and_wait(&self, seen: u64) -> bool {
        self.arrived.fetch_add(1, Ordering::AcqRel);
        let mut spins = 0u32;
        loop {
            if self.poison.load(Ordering::Acquire) {
                return false;
            }
            if self.generation.load(Ordering::Acquire) != seen {
                return true;
            }
            spins = spins.wrapping_add(1);
            if spins.is_multiple_of(SPINS_PER_YIELD) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// Leader side: spin until every follower has arrived. Returns `false`
    /// if the phaser was poisoned by a panicking follower.
    pub fn wait_followers(&self) -> bool {
        let mut spins = 0u32;
        loop {
            if self.poison.load(Ordering::Acquire) {
                return false;
            }
            if self.arrived.load(Ordering::Acquire) == self.participants - 1 {
                return true;
            }
            spins = spins.wrapping_add(1);
            if spins.is_multiple_of(SPINS_PER_YIELD) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// Leader side: open the next generation, releasing every follower
    /// spinning in [`Phaser::arrive_and_wait`]. Must only be called after
    /// [`Phaser::wait_followers`] returned `true` and the decision for the
    /// next cycle has been written.
    pub fn release(&self) {
        self.arrived.store(0, Ordering::Release);
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// Mark the phaser poisoned: every current and future wait returns
    /// `false` immediately. Called from panic handlers on either side.
    pub fn poison(&self) {
        self.poison.store(true, Ordering::Release);
    }

    /// Whether the phaser has been poisoned.
    pub fn is_poisoned(&self) -> bool {
        self.poison.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn lockstep_counting() {
        // 4 workers increment a shared tally once per generation; the
        // barrier must keep them in lockstep for every generation.
        const WORKERS: usize = 4;
        const GENERATIONS: u64 = 200;
        let phaser = Phaser::new(WORKERS);
        let tally = Mutex::new(vec![0u64; WORKERS]);
        std::thread::scope(|scope| {
            for follower in 1..WORKERS {
                let phaser = &phaser;
                let tally = &tally;
                scope.spawn(move || {
                    for _ in 0..GENERATIONS {
                        let seen = phaser.generation();
                        tally.lock().unwrap()[follower] += 1;
                        assert!(phaser.arrive_and_wait(seen));
                    }
                });
            }
            for generation in 0..GENERATIONS {
                tally.lock().unwrap()[0] += 1;
                assert!(phaser.wait_followers());
                {
                    let counts = tally.lock().unwrap();
                    assert!(
                        counts.iter().all(|&c| c == generation + 1),
                        "tile drifted out of lockstep at generation {generation}: {counts:?}"
                    );
                }
                phaser.release();
            }
        });
    }

    #[test]
    fn poison_releases_both_sides() {
        let phaser = Phaser::new(2);
        std::thread::scope(|scope| {
            let handle = {
                let phaser = &phaser;
                scope.spawn(move || {
                    let seen = phaser.generation();
                    phaser.arrive_and_wait(seen)
                })
            };
            assert!(phaser.wait_followers());
            phaser.poison();
            // Never released, yet the follower must come back (with false).
            assert!(!handle.join().unwrap());
            assert!(!phaser.wait_followers());
            assert!(phaser.is_poisoned());
        });
    }
}
