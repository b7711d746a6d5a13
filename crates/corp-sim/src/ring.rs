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
//! Rings are read only on full-view slots: a newest-only view is the
//! engine's newest sample of the VM, or an owed zero. Under a provisioner
//! that never takes a full view after slot 0 (`full_view_period` of
//! `u64::MAX`) the engine keeps no ring at all.
//!
//! Per-job histories are not copied into views on the common path: on a
//! full-view slot each job's view takes the job's own history buffers for
//! the `provision` call and hands them back before advance.
//! [`copy_tail`] is the exception's copy — a history longer than a view
//! shows, or one on a VM whose monitoring is poisoned this slot, whose
//! view gets its own corruptible copy of the tail.

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

/// Copies into `dst` what a newest-only view shows of the series
/// "samples ⧺ `owed` zeros" whose newest sample is `newest` (`None`
/// before the first): an owed zero, else that sample, else nothing.
/// Equal to the last element of the full view whenever one exists, so a
/// VM's newest-only view needs no ring behind it.
#[inline]
pub(crate) fn copy_newest(
    newest: Option<ResourceVector>,
    owed: u64,
    dst: &mut Vec<ResourceVector>,
) {
    dst.clear();
    dst.extend(if owed > 0 {
        Some(ResourceVector::ZERO)
    } else {
        newest
    });
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
    pub(crate) fn new() -> Self {
        BoundedRing {
            buf: Vec::new(),
            head: 0,
        }
    }

    /// Appends a sample, evicting the oldest once at capacity.
    pub(crate) fn push(&mut self, v: ResourceVector) {
        if self.buf.len() < VIEW_HISTORY_CAP {
            self.buf.push(v);
        } else {
            self.buf[self.head] = v;
            self.head = (self.head + 1) % VIEW_HISTORY_CAP;
        }
    }

    /// Appends `n` zero samples. Beyond a ring's worth the extra zeros
    /// would only evict each other, so at most [`VIEW_HISTORY_CAP`] are
    /// pushed however large `n` is.
    pub(crate) fn push_zeros(&mut self, n: u64) {
        for _ in 0..n.min(VIEW_HISTORY_CAP as u64) {
            self.push(ResourceVector::ZERO);
        }
    }

    /// Copies into `dst` what a full view shows of the series "retained
    /// samples ⧺ `owed` zeros" — its [`VIEW_HISTORY_CAP`] tail — without
    /// writing the zeros into the ring. This is how an idle VM's history
    /// is read: the engine owes it one zero per idle slot and settles the
    /// debt only when a job lands there.
    pub(crate) fn copy_view(&self, owed: u64, dst: &mut Vec<ResourceVector>) {
        let zeros = owed.min(VIEW_HISTORY_CAP as u64) as usize;
        dst.clear();
        // The zeros push the oldest `skip` samples out of the window.
        let skip = (self.buf.len() + zeros).saturating_sub(VIEW_HISTORY_CAP);
        let (older, newer) = (&self.buf[self.head..], &self.buf[..self.head]);
        dst.extend_from_slice(&older[skip.min(older.len())..]);
        dst.extend_from_slice(&newer[skip.saturating_sub(older.len())..]);
        dst.extend(std::iter::repeat_n(ResourceVector::ZERO, zeros));
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
            ring.copy_view(0, &mut from_ring);
            let mut from_vec = Vec::new();
            copy_tail(&unbounded, &mut from_vec);
            assert_eq!(from_ring, from_vec, "diverged after {} pushes", i + 1);
        }
        assert_eq!(ring.buf.len(), VIEW_HISTORY_CAP);
    }

    /// What a newest-only view shows of an unbounded series.
    fn newest_of(src: &[ResourceVector], dst: &mut Vec<ResourceVector>) {
        dst.clear();
        dst.extend(src.last().copied());
    }

    #[test]
    fn copy_newest_matches_slice_helper() {
        let mut unbounded = Vec::new();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        copy_newest(None, 0, &mut a);
        newest_of(&unbounded, &mut b);
        assert_eq!(a, b, "both empty before any sample");
        for i in 0..(VIEW_HISTORY_CAP + 5) {
            unbounded.push(v(i as f64));
            copy_newest(unbounded.last().copied(), 0, &mut a);
            newest_of(&unbounded, &mut b);
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
                ring.copy_view(owed, &mut lazy);
                copy_tail(&eager, &mut want);
                assert_eq!(lazy, want, "full view, {filled} samples + {owed} owed");
                let newest = (filled > 0).then(|| v(filled as f64));
                copy_newest(newest, owed, &mut lazy);
                newest_of(&eager, &mut want);
                assert_eq!(lazy, want, "newest view, {filled} samples + {owed} owed");
                ring.push_zeros(owed);
                ring.copy_view(0, &mut lazy);
                copy_tail(&eager, &mut want);
                assert_eq!(lazy, want, "settled, {filled} samples + {owed} owed");
            }
        }
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
