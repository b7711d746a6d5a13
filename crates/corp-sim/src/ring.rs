//! Bounded history rings and the view-tail copy helper.
//!
//! Provisioner views never expose more than [`VIEW_HISTORY_CAP`] samples
//! of any history, so the engine has no reason to retain more. VM-level
//! unused totals — one sample per VM per slot, previously an unbounded
//! `Vec` that grew for the whole run — live in a [`BoundedRing`]: fixed
//! [`VIEW_HISTORY_CAP`]-deep storage whose chronological contents are
//! byte-identical to the tail of the unbounded series it replaces.
//!
//! A VM with no job contributes a zero every slot. The engine does not
//! push those: it remembers since when a VM has been idle and treats the
//! VM's series as "ring ⧺ owed zeros" — read through
//! [`BoundedRing::copy_view`], settled with [`BoundedRing::push_zeros`]
//! when a job lands there. A VM that never hosts a job never allocates.
//!
//! [`copy_tail`] is what the engine's in-place view rewrite copies per-job
//! histories with, on the slots that show per-job views at all.

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

    /// Appends `n` zero samples. Beyond a ring's worth the extra zeros
    /// would only evict each other, so at most [`VIEW_HISTORY_CAP`] are
    /// pushed however large `n` is.
    pub fn push_zeros(&mut self, n: u64) {
        for _ in 0..n.min(VIEW_HISTORY_CAP as u64) {
            self.push(ResourceVector::ZERO);
        }
    }

    /// Copies into `dst` what a view shows of the series "retained samples
    /// ⧺ `owed` zeros" — its [`VIEW_HISTORY_CAP`] tail when `full`, else
    /// its newest sample — without writing the zeros into the ring. This
    /// is how an idle VM's history is read: the engine owes it one zero
    /// per idle slot and settles the debt only when a job lands there.
    pub fn copy_view(&self, owed: u64, full: bool, dst: &mut Vec<ResourceVector>) {
        let zeros = owed.min(VIEW_HISTORY_CAP as u64) as usize;
        dst.clear();
        if full {
            // The zeros push the oldest `skip` samples out of the window.
            let skip = (self.buf.len() + zeros).saturating_sub(VIEW_HISTORY_CAP);
            let (older, newer) = (&self.buf[self.head..], &self.buf[..self.head]);
            dst.extend_from_slice(&older[skip.min(older.len())..]);
            dst.extend_from_slice(&newer[skip.saturating_sub(older.len())..]);
            dst.extend(std::iter::repeat_n(ResourceVector::ZERO, zeros));
        } else {
            dst.extend(if zeros > 0 {
                Some(ResourceVector::ZERO)
            } else {
                self.newest()
            });
        }
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

    /// What a newest-only view shows of an unbounded series.
    fn copy_newest(src: &[ResourceVector], dst: &mut Vec<ResourceVector>) {
        dst.clear();
        dst.extend(src.last().copied());
    }

    #[test]
    fn ring_matches_unbounded_tail_at_every_length() {
        let mut ring = BoundedRing::new();
        let mut unbounded = Vec::new();
        for i in 0..(VIEW_HISTORY_CAP * 3 + 7) {
            ring.push(v(i as f64));
            unbounded.push(v(i as f64));
            let mut from_ring = Vec::new();
            ring.copy_view(0, true, &mut from_ring);
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
        ring.copy_view(0, false, &mut a);
        copy_newest(&unbounded, &mut b);
        assert_eq!(a, b, "both empty before any push");
        for i in 0..(VIEW_HISTORY_CAP + 5) {
            ring.push(v(i as f64));
            unbounded.push(v(i as f64));
            ring.copy_view(0, false, &mut a);
            copy_newest(&unbounded, &mut b);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn owed_zeros_read_and_settle_like_eagerly_pushed_ones() {
        // Every ring fill level x every debt around the cap: reading
        // "ring ⧺ owed zeros" and settling the debt with `push_zeros` must
        // both match a series that received each zero as it fell due.
        let debts = [0, 1, 2, 62, 63, 64, 65, 200, u64::MAX];
        for filled in [0, 1, 5, 63, 64, 65, 130] {
            for owed in debts {
                let mut ring = BoundedRing::new();
                let mut eager = Vec::new();
                for i in 0..filled {
                    ring.push(v(1.0 + i as f64));
                    eager.push(v(1.0 + i as f64));
                }
                eager.extend(vec![v(0.0); owed.min(300) as usize]);
                let (mut lazy, mut want) = (Vec::new(), Vec::new());
                ring.copy_view(owed, true, &mut lazy);
                copy_tail(&eager, &mut want);
                assert_eq!(lazy, want, "full view, {filled} samples + {owed} owed");
                ring.copy_view(owed, false, &mut lazy);
                copy_newest(&eager, &mut want);
                assert_eq!(lazy, want, "newest view, {filled} samples + {owed} owed");
                ring.push_zeros(owed);
                ring.copy_view(0, true, &mut lazy);
                copy_tail(&eager, &mut want);
                assert_eq!(lazy, want, "settled, {filled} samples + {owed} owed");
            }
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
        ring.copy_view(0, true, &mut after);
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
