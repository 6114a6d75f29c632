//! A short list of keys in the order they were last used: the one piece
//! of bookkeeping behind the plan cache ([`crate::program::compile`]),
//! the scheduler's dedup window ([`crate::service`]) and `qclab serve`'s
//! source memo.

use std::borrow::Borrow;

/// Entries least recently used first, each key at most once. Lookups
/// scan the list: the lists it backs hold as many entries as the plan
/// cache holds plans (a few dozen), where a scan beats hashing the key.
#[derive(Debug)]
pub struct RecencyRing<K, V> {
    entries: Vec<(K, V)>,
}

impl<K, V> Default for RecencyRing<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> RecencyRing<K, V> {
    /// An empty list (usable in a `static`).
    pub const fn new() -> Self {
        RecencyRing {
            entries: Vec::new(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the list holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries, least recently used first.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Keeps only the entries whose value `keep` accepts.
    pub fn retain(&mut self, mut keep: impl FnMut(&V) -> bool) {
        self.entries.retain(|(_, v)| keep(v));
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Removes and returns the least recently used entry.
    pub fn pop_oldest(&mut self) -> Option<(K, V)> {
        (!self.entries.is_empty()).then(|| self.entries.remove(0))
    }

    /// Drops the least recently used entries that `evictable` accepts
    /// until at most `keep` of those remain; entries it refuses are
    /// neither dropped nor counted. Returns how many were dropped.
    pub fn evict_down_to(&mut self, keep: usize, evictable: impl Fn(&V) -> bool) -> usize {
        let mut over = self
            .iter()
            .filter(|(_, v)| evictable(v))
            .count()
            .saturating_sub(keep);
        let dropped = over;
        self.entries.retain(|(_, v)| {
            let drop = over > 0 && evictable(v);
            over -= usize::from(drop);
            !drop
        });
        dropped
    }
}

impl<K: PartialEq, V> RecencyRing<K, V> {
    fn position<Q>(&self, key: &Q) -> Option<usize>
    where
        K: Borrow<Q>,
        Q: PartialEq + ?Sized,
    {
        self.entries.iter().position(|(k, _)| k.borrow() == key)
    }

    /// The value under `key`, where it is (a look, not a use).
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: PartialEq + ?Sized,
    {
        self.position(key).map(|at| &self.entries[at].1)
    }

    /// The value under `key`, moved to the recently used end.
    pub fn touch<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: PartialEq + ?Sized,
    {
        let at = self.position(key)?;
        let entry = self.entries.remove(at);
        self.entries.push(entry);
        self.entries.last_mut().map(|(_, v)| v)
    }

    /// Puts `key` at the recently used end with `value`, replacing the
    /// key's entry if there is one.
    pub fn insert(&mut self, key: K, value: V) {
        if let Some(at) = self.position(&key) {
            self.entries.remove(at);
        }
        self.entries.push((key, value));
    }

    /// Removes `key`'s entry, returning its value.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: PartialEq + ?Sized,
    {
        let at = self.position(key)?;
        Some(self.entries.remove(at).1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_touch_saves_an_entry_from_eviction() {
        let mut ring = RecencyRing::new();
        for k in 0..4 {
            ring.insert(k, k * 10);
        }
        assert_eq!(ring.touch(&0), Some(&mut 0));
        assert_eq!(ring.touch(&9), None);
        assert_eq!(ring.evict_down_to(2, |_| true), 2);
        assert_eq!(ring.iter().map(|(_, &v)| v).collect::<Vec<_>>(), [30, 0]);
        ring.insert(3, 31);
        assert_eq!(ring.iter().map(|(_, &v)| v).collect::<Vec<_>>(), [0, 31]);
        assert_eq!(ring.pop_oldest(), Some((0, 0)));
        assert_eq!(ring.remove(&3), Some(31));
        assert!(ring.is_empty() && ring.pop_oldest().is_none());
    }

    #[test]
    fn eviction_skips_what_it_may_not_drop() {
        let mut ring = RecencyRing::new();
        for k in 0..6 {
            ring.insert(k, k % 2 == 0);
        }
        // three evictable (true) entries, one kept: 0 and 2 go, the odd
        // keys stay whatever their age
        assert_eq!(ring.evict_down_to(1, |&v| v), 2);
        assert_eq!(ring.len(), 4);
        assert!(ring.touch(&4).is_some() && ring.touch(&0).is_none());
        assert_eq!(ring.evict_down_to(9, |&v| v), 0);
    }

    #[test]
    fn string_keys_are_found_by_str() {
        let mut ring: RecencyRing<String, ()> = RecencyRing::new();
        ring.insert("ab".to_string(), ());
        assert!(ring.touch("ab").is_some());
        assert!(ring.remove("ab").is_some());
    }
}
