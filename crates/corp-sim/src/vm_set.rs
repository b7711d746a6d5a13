//! A fixed-universe set of VM ids, iterable in ascending id order.
//!
//! The engine's slot loop walks only the VMs that host a job (and, for
//! views, the idle VMs whose view is still changing), and it must walk
//! them in ascending id: the per-slot totals are f64 sums and the
//! completion batch is ordered by VM id, so any other order would change
//! report bits. One bit per VM gives that order for free and costs
//! `⌈V/64⌉` words for the whole fleet.

/// One bit per VM id in `0..num_vms`.
#[derive(Debug, Clone)]
pub(crate) struct VmSet {
    words: Vec<u64>,
}

impl VmSet {
    /// The empty set over `num_vms` ids.
    pub fn empty(num_vms: usize) -> Self {
        VmSet {
            words: vec![0; num_vms.div_ceil(64)],
        }
    }

    /// Adds or removes `vm`.
    pub fn set(&mut self, vm: usize, present: bool) {
        let bit = 1u64 << (vm % 64);
        if present {
            self.words[vm / 64] |= bit;
        } else {
            self.words[vm / 64] &= !bit;
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of 64-id words; [`word`](Self::word) takes `0..num_words()`.
    pub fn num_words(&self) -> usize {
        self.words.len()
    }

    /// The membership bits of ids `64 * w .. 64 * w + 64`.
    pub fn word(&self, w: usize) -> u64 {
        self.words[w]
    }
}

/// The ids in word `w` whose bit is set in `bits`, ascending. Takes the
/// word by value, so the set it came from may change while the ids are
/// being visited.
pub(crate) fn ids_in(w: usize, mut bits: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (bits != 0).then(|| {
            let vm = w * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            vm
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn members(set: &VmSet) -> Vec<usize> {
        (0..set.num_words())
            .flat_map(|w| ids_in(w, set.word(w)))
            .collect()
    }

    #[test]
    fn iterates_members_in_ascending_id_order_across_words() {
        let mut set = VmSet::empty(200);
        for vm in [199, 0, 64, 63, 128, 65, 7] {
            set.set(vm, true);
        }
        assert_eq!(members(&set), vec![0, 7, 63, 64, 65, 128, 199]);
        assert_eq!(set.len(), 7);
        set.set(64, false);
        set.set(64, false);
        assert_eq!(members(&set), vec![0, 7, 63, 65, 128, 199]);
    }

    #[test]
    fn removing_while_visiting_a_word_still_visits_its_snapshot() {
        let mut set = VmSet::empty(64);
        for vm in [1, 2, 3] {
            set.set(vm, true);
        }
        let mut seen = Vec::new();
        for vm in ids_in(0, set.word(0)) {
            set.set(vm, false);
            seen.push(vm);
        }
        assert_eq!(seen, vec![1, 2, 3]);
        assert_eq!(set.len(), 0);
    }

    #[test]
    fn empty_universe_has_no_words() {
        let set = VmSet::empty(0);
        assert_eq!(set.num_words(), 0);
        assert_eq!(set.len(), 0);
    }
}
