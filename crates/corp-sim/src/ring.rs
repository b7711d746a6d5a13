//! Bounded history rings and the shared view-tail copy helpers.
//!
//! Provisioner views never expose more than [`VIEW_HISTORY_CAP`] samples
//! of any history, so the engine has no reason to retain more. VM-level
//! unused totals — one sample per VM per slot, previously an unbounded
//! `Vec` that grew for the whole run — live in a [`BoundedRing`]: fixed
//! [`VIEW_HISTORY_CAP`]-deep storage whose chronological contents are
//! byte-identical to the tail of the unbounded series it replaces.
//!
//! The tail-copy helpers ([`copy_tail`], [`copy_newest`]) are what the
//! engine's in-place view rewrite copies per-job histories with.

use crate::provisioner::VIEW_HISTORY_CAP;
use crate::resources::ResourceVector;

/// Copies the capped newest tail of `src` — the slice a view exposes —
/// into the reused `dst` buffer: no allocation once `dst` has grown to
/// the cap.
#[inline]
pub fn copy_tail(src: &[ResourceVector], dst: &mut Vec<ResourceVector>) {
    dst.clear();
    dst.extend_from_slice(&src[src.len().saturating_sub(VIEW_HISTORY_CAP)..]);
}

/// Copies only the newest sample of `src` into `dst` (off-period slots).
#[inline]
pub fn copy_newest(src: &[ResourceVector], dst: &mut Vec<ResourceVector>) {
    dst.clear();
    dst.extend(src.last().copied());
}

/// A fixed-capacity ring over the newest [`VIEW_HISTORY_CAP`] samples of a
/// per-slot series. Pushing beyond the cap overwrites the oldest sample;
/// chronological reads match the tail of the equivalent unbounded series
/// exactly.
#[derive(Debug, Clone, Default)]
pub struct BoundedRing {
    buf: Vec<ResourceVector>,
    /// Index of the oldest sample once the ring is full.
    head: usize,
}

impl BoundedRing {
    /// An empty ring.
    pub fn new() -> Self {
        BoundedRing {
            buf: Vec::new(),
            head: 0,
        }
    }

    /// Number of retained samples (`<= VIEW_HISTORY_CAP`).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no samples have been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends a sample, evicting the oldest once at capacity.
    pub fn push(&mut self, v: ResourceVector) {
        if self.buf.len() < VIEW_HISTORY_CAP {
            self.buf.push(v);
        } else {
            self.buf[self.head] = v;
            self.head = (self.head + 1) % VIEW_HISTORY_CAP;
        }
    }

    /// The newest sample, if any.
    pub fn newest(&self) -> Option<ResourceVector> {
        if self.buf.is_empty() {
            None
        } else if self.buf.len() < VIEW_HISTORY_CAP {
            self.buf.last().copied()
        } else {
            let i = (self.head + VIEW_HISTORY_CAP - 1) % VIEW_HISTORY_CAP;
            Some(self.buf[i])
        }
    }

    /// Copies the retained samples, oldest first, into `dst` — the same
    /// bytes [`copy_tail`] would produce from the unbounded series.
    pub fn copy_all(&self, dst: &mut Vec<ResourceVector>) {
        dst.clear();
        dst.extend_from_slice(&self.buf[self.head..]);
        dst.extend_from_slice(&self.buf[..self.head]);
    }

    /// Copies only the newest sample into `dst` — the ring counterpart of
    /// [`copy_newest`].
    pub fn copy_newest(&self, dst: &mut Vec<ResourceVector>) {
        dst.clear();
        dst.extend(self.newest());
    }

    /// Drops every retained sample.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(x: f64) -> ResourceVector {
        ResourceVector::splat(x)
    }

    #[test]
    fn ring_matches_unbounded_tail_at_every_length() {
        let mut ring = BoundedRing::new();
        let mut unbounded = Vec::new();
        for i in 0..(VIEW_HISTORY_CAP * 3 + 7) {
            ring.push(v(i as f64));
            unbounded.push(v(i as f64));
            let mut from_ring = Vec::new();
            ring.copy_all(&mut from_ring);
            let mut from_vec = Vec::new();
            copy_tail(&unbounded, &mut from_vec);
            assert_eq!(from_ring, from_vec, "diverged after {} pushes", i + 1);
            assert_eq!(ring.newest(), unbounded.last().copied());
        }
        assert_eq!(ring.len(), VIEW_HISTORY_CAP);
    }

    #[test]
    fn copy_newest_matches_slice_helper() {
        let mut ring = BoundedRing::new();
        let mut unbounded = Vec::new();
        let mut a = Vec::new();
        let mut b = Vec::new();
        ring.copy_newest(&mut a);
        copy_newest(&unbounded, &mut b);
        assert_eq!(a, b, "both empty before any push");
        for i in 0..(VIEW_HISTORY_CAP + 5) {
            ring.push(v(i as f64));
            unbounded.push(v(i as f64));
            ring.copy_newest(&mut a);
            copy_newest(&unbounded, &mut b);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn clear_resets() {
        let mut ring = BoundedRing::new();
        for i in 0..100 {
            ring.push(v(i as f64));
        }
        ring.clear();
        assert!(ring.is_empty());
        assert_eq!(ring.newest(), None);
        ring.push(v(1.0));
        let mut after = Vec::new();
        ring.copy_all(&mut after);
        assert_eq!(after, vec![v(1.0)]);
    }

    #[test]
    fn copy_tail_is_the_view_window() {
        let series: Vec<ResourceVector> = (0..200).map(|i| v(i as f64)).collect();
        let mut tail = Vec::new();
        copy_tail(&series, &mut tail);
        assert_eq!(tail.len(), VIEW_HISTORY_CAP);
        assert_eq!(tail.last(), series.last());
        copy_tail(&[v(1.0); 3], &mut tail);
        assert_eq!(tail.len(), 3);
    }
}
