//! One recency list for every LRU in the stack.
//!
//! [`RecencyList`] is a slab threaded on a circular intrusive list through
//! slot 0, a sentinel holding no value whose newer neighbour is the oldest
//! value and older one the newest: push, touch (unlink and relink as
//! newest), remove and oldest are O(1), and a slot stays valid until its
//! value is removed. [`LruMap`] is a `HashMap` from key to slot over a
//! `RecencyList<(K, V)>`: data and access order in one structure.

use std::borrow::Borrow;
use std::collections::hash_map::{Entry, HashMap};
use std::hash::Hash;

/// A slab whose live slots are ordered least to most recently used.
#[derive(Debug, Clone)]
pub struct RecencyList<T> {
    slots: Vec<Option<T>>,
    /// `(older, newer)` neighbours of each slot.
    links: Vec<(usize, usize)>,
    free: Vec<usize>,
}

impl<T> Default for RecencyList<T> {
    fn default() -> Self {
        Self {
            slots: vec![None],
            links: vec![(0, 0)],
            free: Vec::new(),
        }
    }
}

impl<T> RecencyList<T> {
    /// Number of live values.
    pub fn len(&self) -> usize {
        self.slots.len() - 1 - self.free.len()
    }

    /// Whether no value is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Adds a value as the most recently used; returns its slot.
    pub fn push(&mut self, value: T) -> usize {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.links.push((0, 0));
            self.slots.len() - 1
        });
        self.slots[slot] = Some(value);
        self.link_newest(slot);
        slot
    }

    /// The value in `slot`, if it is live.
    pub fn get(&self, slot: usize) -> Option<&T> {
        self.slots.get(slot)?.as_ref()
    }

    /// Makes a live slot the most recently used; returns its value.
    pub fn touch(&mut self, slot: usize) -> &mut T {
        if self.slots[slot].is_some() {
            self.unlink(slot);
            self.link_newest(slot);
        }
        self.slots[slot].as_mut().expect("touch of a dead slot")
    }

    /// Removes and returns a live slot's value; the slot is reused later.
    pub fn remove(&mut self, slot: usize) -> T {
        let value = self.slots[slot].take().expect("remove of a dead slot");
        self.unlink(slot);
        self.free.push(slot);
        value
    }

    /// The least recently used slot.
    pub fn oldest(&self) -> Option<usize> {
        Some(self.links[0].1).filter(|&slot| slot != 0)
    }

    /// Live values, least recently used first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        let mut at = self.links[0].1;
        std::iter::from_fn(move || {
            let value = self.get(at)?;
            at = self.links[at].1;
            Some(value)
        })
    }

    /// Validates the links: walking from the sentinel visits every live
    /// slot once, each one linked both ways, and returns to the sentinel.
    pub fn check(&self) -> Result<(), String> {
        let (live, mut at) = (self.len(), 0);
        for step in 0..=live {
            let (next, end) = (self.links[at].1, step == live);
            let linked = self.links.get(next).is_some_and(|l| l.0 == at);
            if !linked || (next == 0) != end || (!end && self.get(next).is_none()) {
                return Err(format!("recency list breaks after slot {at}"));
            }
            at = next;
        }
        match self.slots.iter().flatten().count() {
            filled if filled == live => Ok(()),
            filled => Err(format!("{live} live values, {filled} filled slots")),
        }
    }

    fn unlink(&mut self, slot: usize) {
        let (older, newer) = self.links[slot];
        self.links[older].1 = newer;
        self.links[newer].0 = older;
    }

    fn link_newest(&mut self, slot: usize) {
        let newest = self.links[0].0;
        self.links[slot] = (newest, 0);
        self.links[newest].1 = slot;
        self.links[0].0 = slot;
    }
}

/// A map that remembers the order its keys were last used in.
#[derive(Debug, Clone)]
pub struct LruMap<K, V> {
    slots: HashMap<K, usize>,
    list: RecencyList<(K, V)>,
}

impl<K, V> Default for LruMap<K, V> {
    fn default() -> Self {
        Self {
            slots: HashMap::new(),
            list: RecencyList::default(),
        }
    }
}

impl<K: Hash + Eq + Clone, V> LruMap<K, V> {
    /// Number of keys.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the map holds no key.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The value of `key`, made the most recently used.
    pub fn get<Q: Hash + Eq + ?Sized>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
    {
        let slot = *self.slots.get(key)?;
        Some(&self.list.touch(slot).1)
    }

    /// Sets `key`'s value and makes it the most recently used.
    pub fn insert(&mut self, key: K, value: V) {
        match self.slots.get(&key) {
            Some(&slot) => self.list.touch(slot).1 = value,
            None => _ = self.insert_if_absent(key, value),
        }
    }

    /// Adds `key` as the most recently used unless it is present, in which
    /// case neither its value nor its position changes. Returns whether it
    /// was added.
    pub fn insert_if_absent(&mut self, key: K, value: V) -> bool {
        let Entry::Vacant(e) = self.slots.entry(key) else {
            return false;
        };
        let slot = self.list.push((e.key().clone(), value));
        e.insert(slot);
        true
    }

    /// Removes `key`, returning its value.
    pub fn remove<Q: Hash + Eq + ?Sized>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
    {
        let slot = self.slots.remove(key)?;
        Some(self.list.remove(slot).1)
    }

    /// The least recently used entry.
    pub fn oldest(&self) -> Option<(&K, &V)> {
        self.list.get(self.list.oldest()?).map(|(k, v)| (k, v))
    }

    /// Removes and returns the least recently used entry.
    pub fn pop_oldest(&mut self) -> Option<(K, V)> {
        let (key, value) = self.list.remove(self.list.oldest()?);
        self.slots.remove(&key);
        Some((key, value))
    }

    /// Drops every entry.
    pub fn clear(&mut self) {
        *self = Self::default();
    }
}

#[cfg(test)]
impl<K: Hash + Eq + Clone, V> LruMap<K, V> {
    /// Entries, least recently used first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.list.iter().map(|(k, v)| (k, v))
    }

    /// Validates the list, and that the map and the list hold the same
    /// keys, each at its own slot.
    pub(crate) fn check(&self) -> Result<(), String> {
        self.list.check()?;
        let misplaced = |(k, &slot): (&K, &usize)| self.list.get(slot).map(|e| &e.0) != Some(k);
        if self.list.len() != self.slots.len() || self.slots.iter().any(misplaced) {
            return Err("map and recency list disagree".into());
        }
        Ok(())
    }
}
