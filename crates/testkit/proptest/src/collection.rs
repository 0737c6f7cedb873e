//! Collection strategies: `vec(element, size)`.

use crate::strategy::Strategy;
use crate::TestRng;
use std::ops::{Range, RangeInclusive};

/// Length bounds for generated collections (half-open).
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    min: usize,
    max_exclusive: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { min: n, max_exclusive: n + 1 }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange { min: r.start, max_exclusive: r.end }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        assert!(r.start() <= r.end(), "empty size range");
        SizeRange { min: *r.start(), max_exclusive: *r.end() + 1 }
    }
}

/// The strategy returned by [`vec()`].
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

/// A `Vec` whose length is drawn from `size` and whose elements come
/// from `element`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy { element, size: size.into() }
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn new_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let span = (self.size.max_exclusive - self.size.min) as u64;
        let len = self.size.min + rng.next_below(span) as usize;
        (0..len).map(|_| self.element.new_value(rng)).collect()
    }
}
