//! Model-based property tests for [`crate::lru`]: random sequences of every
//! operation run against a `Vec` kept in recency order (oldest first), with
//! the structure's own `check()` after each op. A touch that does not
//! relink, an `insert_if_absent` that refreshes or an eviction from the
//! wrong end shows up as a different oldest entry or order.

#![cfg(test)]

use proptest::prelude::*;

use crate::lru::{LruMap, RecencyList};

/// Nightly CI bumps the case count via this env var; local runs stay quick.
fn cases() -> u32 {
    std::env::var("EDGECACHE_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// An op `(kind, n)` pushes, or touches, removes or reads the `n`-th
    /// live value (mod len, oldest first).
    #[test]
    fn recency_list_matches_a_vec_in_recency_order(
        ops in proptest::collection::vec((0u8..4, 0usize..64), 1..200),
    ) {
        let mut list = RecencyList::default();
        // `(slot, value)`, least recently used first.
        let mut model: Vec<(usize, usize)> = Vec::new();
        for (value, &(kind, n)) in ops.iter().enumerate() {
            let at = n % model.len().max(1);
            match kind {
                _ if kind == 0 || model.is_empty() => {
                    let slot = list.push(value);
                    prop_assert!(slot != 0 && model.iter().all(|e| e.0 != slot), "slot {}", slot);
                    model.push((slot, value));
                }
                1 => {
                    let entry = model.remove(at);
                    prop_assert_eq!(*list.touch(entry.0), entry.1);
                    model.push(entry);
                }
                2 => {
                    let (slot, value) = model.remove(at);
                    prop_assert_eq!((list.remove(slot), list.get(slot)), (value, None));
                }
                _ => prop_assert_eq!(list.get(model[at].0), Some(&model[at].1)),
            }
            prop_assert_eq!(list.check(), Ok(()), "after {:?}", (kind, n));
            prop_assert_eq!((list.len(), list.is_empty()), (model.len(), model.is_empty()));
            prop_assert_eq!((list.get(0), list.oldest()), (None, model.first().map(|e| e.0)));
            prop_assert!(list.iter().eq(model.iter().map(|e| &e.1)), "order after {:?}", (kind, n));
        }
    }

    /// An op `(kind, key, value)` is an `insert` (kinds 0-5),
    /// `insert_if_absent` (6-9), `get` (10-13), `remove` (14-15),
    /// `pop_oldest` (16-17) or `clear` (18).
    #[test]
    fn lru_map_matches_a_vec_in_recency_order(
        ops in proptest::collection::vec((0u8..19, 0u8..24, any::<u32>()), 1..300),
    ) {
        let mut map = LruMap::default();
        // `(key, value)`, least recently used first.
        let mut model: Vec<(u8, u32)> = Vec::new();
        for &(kind, k, v) in &ops {
            let found = model.iter().position(|e| e.0 == k);
            match kind {
                0..=5 => {
                    map.insert(k, v);
                    model.retain(|e| e.0 != k);
                    model.push((k, v));
                }
                6..=9 => {
                    prop_assert_eq!(map.insert_if_absent(k, v), found.is_none());
                    model.extend(found.is_none().then_some((k, v)));
                }
                10..=13 => {
                    let hit = found.map(|i| model.remove(i));
                    prop_assert_eq!(map.get(&k).copied(), hit.map(|e| e.1));
                    model.extend(hit);
                }
                14..=15 => prop_assert_eq!(map.remove(&k), found.map(|i| model.remove(i).1)),
                16..=17 => {
                    let oldest = (!model.is_empty()).then(|| model.remove(0));
                    prop_assert_eq!(map.pop_oldest(), oldest);
                }
                _ => {
                    map.clear();
                    model.clear();
                }
            }
            prop_assert_eq!(map.check(), Ok(()), "after {:?}", (kind, k, v));
            prop_assert_eq!((map.len(), map.is_empty()), (model.len(), model.is_empty()));
            prop_assert_eq!(map.oldest().map(|(&k, &v)| (k, v)), model.first().copied());
            let order: Vec<(u8, u32)> = map.iter().map(|(&k, &v)| (k, v)).collect();
            prop_assert_eq!(order, model.clone(), "order after {:?}", (kind, k, v));
        }
    }
}
