//! Cache-line padding for hot shared state.
//!
//! Fields that different threads hammer concurrently (the commit clock, the
//! allocator's frontier and lock, global statistics) must not
//! share a cache line, or every update by one thread invalidates the line
//! under every other thread — false sharing that serializes otherwise
//! independent work. [`CachePadded`] aligns (and therefore pads) its
//! contents to 128 bytes: two 64-byte lines, covering the adjacent-line
//! prefetcher on x86 that pulls line pairs.

/// Aligns `T` to 128 bytes so it owns its cache line (pair).
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    pub const fn new(value: T) -> CachePadded<T> {
        CachePadded { value }
    }

    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> std::ops::DerefMut for CachePadded<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padded_values_are_line_aligned_and_disjoint() {
        assert!(std::mem::align_of::<CachePadded<u64>>() >= 128);
        assert!(std::mem::size_of::<CachePadded<u64>>() >= 128);
        let pair: [CachePadded<u64>; 2] = [CachePadded::new(1), CachePadded::new(2)];
        let a = &*pair[0] as *const u64 as usize;
        let b = &*pair[1] as *const u64 as usize;
        assert!(b - a >= 128, "neighbors must not share a line");
    }

    #[test]
    fn deref_reaches_the_value() {
        let mut p = CachePadded::new(41u64);
        *p += 1;
        assert_eq!(*p, 42);
        assert_eq!(p.into_inner(), 42);
    }
}
