//! Proof of the zero-allocation claim for the fabric hot path: a counting
//! global allocator observes `try_inject` → `tick` → eject-ready walk →
//! `eject` cycles under sustained contended traffic and must see no heap
//! activity once the fabric has been constructed.
//!
//! The count is **thread-local**, and armed only on the driving thread
//! for the measured window: the libtest harness thread occasionally
//! allocates (timer/bookkeeping), and tests run concurrently, so a
//! process-wide count would charge one test's allocations to another.

use medea_noc::coord::Topology;
use medea_noc::flit::Flit;
use medea_noc::network::Network;
use medea_noc::Fabric;
use medea_sim::ids::NodeId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    /// Whether allocations on *this* thread count (armed by the test
    /// around its measured window), and how many it made while armed.
    /// Const-initialized so touching them from inside the allocator never
    /// itself allocates.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Count one allocation if the current thread is inside a measured
/// window. `try_with`: allocator calls can arrive during TLS teardown,
/// where access would otherwise panic.
fn count() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

/// This thread's allocations during `f`.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.with(Cell::get) - before
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Drive every node at every other node round-robin — saturating,
/// deflection-heavy traffic touching every router and both the inject
/// and eject paths — ejecting the way the cycle engines do: walking the
/// eject-ready set in ascending node order. Returns the flits ejected.
fn drive<F: Fabric>(net: &mut F, topo: Topology, start: u64, cycles: u64) -> u64 {
    let mut ejected = 0u64;
    for now in start..start + cycles {
        for s in 0..topo.nodes() {
            let d = (s + 1 + (now as usize % (topo.nodes() - 1))) % topo.nodes();
            let flit = Flit::message(topo.coord_of(NodeId::new(d as u16)), s as u8, 0, 0, 7);
            let _ = net.try_inject(NodeId::new(s as u16), flit, now);
        }
        net.tick(now);
        let mut from = 0;
        while let Some(node) = net.next_ejectable(from) {
            while net.eject(node).is_some() {
                ejected += 1;
            }
            from = node.index() + 1;
        }
        assert_eq!(net.next_ejectable(0), None, "the walk drains every ejection queue");
        assert!(net.in_flight() <= topo.nodes() * 13, "census bounded by storage");
    }
    ejected
}

/// Warm `net` up to steady state (histogram and FIFOs at their final
/// footprint), then count this thread's allocations over a measured drive.
fn steady_state_allocations<F: Fabric>(net: &mut F, topo: Topology) -> u64 {
    drive(net, topo, 0, 200);
    let mut ejected = 0;
    let allocations = allocations_during(|| ejected = drive(net, topo, 200, 500));
    assert!(ejected > 1000, "sanity: traffic actually flowed ({ejected} ejected)");
    assert!(net.stats().deflections > 0, "sanity: contention exercised the deflection path");
    allocations
}

#[test]
fn fabric_steady_state_is_allocation_free() {
    let topo = Topology::paper_4x4();
    let mut net = Network::new(topo);
    let allocations = steady_state_allocations(&mut net, topo);
    assert_eq!(allocations, 0, "fabric hot path allocated {allocations} times in steady state");
}
