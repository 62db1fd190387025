//! Which stored objects a query may return, answered in O(1) without
//! hashing — the membership test the candidate walk runs for every scanned
//! leaf entry.
//!
//! * [`IdSet`] — the tombstones, a bitset over object ids.
//! * [`IdMap`] — the heap addressing after a compaction: `slot → id` (the
//!   persisted map) plus its dense inverse `id → slot`, about 4 bytes per
//!   id ever assigned.

use std::io;

/// A set of object ids as a bitset: one bit per id below the largest
/// member, so membership is a shift and a mask.
#[derive(Debug, Clone, Default)]
pub(crate) struct IdSet {
    words: Vec<u64>,
    len: usize,
}

impl IdSet {
    #[inline]
    pub(crate) fn contains(&self, id: u64) -> bool {
        let (word, bit) = (id / 64, id % 64);
        usize::try_from(word)
            .ok()
            .and_then(|w| self.words.get(w))
            .is_some_and(|w| w >> bit & 1 == 1)
    }

    /// Adds `id`; returns whether it was absent.
    pub(crate) fn insert(&mut self, id: u64) -> bool {
        let word = (id / 64) as usize;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let mask = 1u64 << (id % 64);
        let absent = self.words[word] & mask == 0;
        self.words[word] |= mask;
        self.len += usize::from(absent);
        absent
    }

    /// Removes `id`; returns whether it was present.
    pub(crate) fn remove(&mut self, id: u64) -> bool {
        if !self.contains(id) {
            return false;
        }
        self.words[(id / 64) as usize] &= !(1u64 << (id % 64));
        self.len -= 1;
        true
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub(crate) fn clear(&mut self) {
        self.words.clear();
        self.len = 0;
    }

    /// Members in ascending order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            (0..64u64)
                .filter(move |bit| word >> bit & 1 == 1)
                .map(move |bit| w as u64 * 64 + bit)
        })
    }
}

impl FromIterator<u64> for IdSet {
    fn from_iter<I: IntoIterator<Item = u64>>(ids: I) -> Self {
        let mut set = IdSet::default();
        for id in ids {
            set.insert(id);
        }
        set
    }
}

/// Marks an id with no heap slot in [`IdMap`]'s inverse.
const NO_SLOT: u32 = u32::MAX;

/// `heap slot → object id` (strictly ascending) and its dense inverse.
///
/// A compaction drops tombstoned slots, so survivors keep their ids while
/// their slots shift down. The inverse turns "is `id` stored, and where?"
/// into one array load; ids a compaction dropped, and ids never assigned,
/// have no slot. Slots are `u32`, which caps one shard at 2³² − 1 stored
/// objects.
#[derive(Debug, Clone)]
pub(crate) struct IdMap {
    ids: Vec<u64>,
    slots: Vec<u32>,
}

impl IdMap {
    /// Builds the inverse of `ids`, which must be strictly ascending.
    pub(crate) fn new(ids: Vec<u64>) -> io::Result<Self> {
        let mut map = IdMap {
            ids: Vec::with_capacity(ids.len()),
            slots: Vec::new(),
        };
        if let Some(&last) = ids.last() {
            map.slots.reserve(last as usize + 1);
        }
        for id in ids {
            map.push(id)?;
        }
        Ok(map)
    }

    /// Appends `id` at the next slot. `id` must exceed every mapped id.
    pub(crate) fn push(&mut self, id: u64) -> io::Result<()> {
        let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        if self.ids.last().is_some_and(|&last| id <= last) {
            return Err(invalid(format!("id map not strictly ascending at id {id}")));
        }
        let slot = u32::try_from(self.ids.len())
            .ok()
            .filter(|&s| s != NO_SLOT)
            .ok_or_else(|| invalid("shard exceeds 2^32 - 1 stored objects".into()))?;
        let at = usize::try_from(id).map_err(|_| invalid(format!("id {id} out of range")))?;
        self.slots.resize(at, NO_SLOT);
        self.slots.push(slot);
        self.ids.push(id);
        Ok(())
    }

    /// The heap slot holding `id`, if it is stored.
    #[inline]
    pub(crate) fn slot(&self, id: u64) -> Option<u64> {
        usize::try_from(id)
            .ok()
            .and_then(|i| self.slots.get(i))
            .filter(|&&s| s != NO_SLOT)
            .map(|&s| u64::from(s))
    }

    /// The id stored at `slot`.
    #[inline]
    pub(crate) fn id(&self, slot: u64) -> u64 {
        self.ids[slot as usize]
    }

    /// `slot → id`, the persisted form.
    pub(crate) fn ids(&self) -> &[u64] {
        &self.ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_set_tracks_members_and_count() {
        let mut set: IdSet = [5u64, 64, 63, 1000, 5].into_iter().collect();
        assert_eq!(set.len(), 4);
        assert!(set.contains(63) && set.contains(64) && set.contains(1000));
        assert!(!set.contains(6) && !set.contains(1001) && !set.contains(u64::MAX));
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![5, 63, 64, 1000]);
        assert!(set.remove(64));
        assert!(!set.remove(64));
        assert!(!set.remove(1 << 40), "absent, past the end");
        assert_eq!(set.len(), 3);
        set.clear();
        assert!(set.is_empty() && !set.contains(5));
    }

    #[test]
    fn id_map_inverts_and_extends() {
        let mut map = IdMap::new(vec![0, 2, 5, 117]).unwrap();
        for (slot, &id) in map.ids().to_vec().iter().enumerate() {
            assert_eq!(map.slot(id), Some(slot as u64));
            assert_eq!(map.id(slot as u64), id);
        }
        for absent in [1u64, 3, 4, 6, 116, 118, u64::MAX] {
            assert_eq!(map.slot(absent), None, "id {absent}");
        }
        map.push(200).unwrap();
        assert_eq!(map.slot(200), Some(4));
        assert_eq!(map.slot(150), None);
        assert!(map.push(200).is_err(), "ids must ascend");
        assert!(IdMap::new(vec![3, 1]).is_err());
    }
}
