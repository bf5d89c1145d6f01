//! Key/value operation mixes for the network front-end.
//!
//! The server's e2e tests and the repo benchmark's `kv_mixed` need the same
//! thing the page-level workloads provide for the embedded cache: a
//! deterministic, Zipf-skewed stream of operations over a bounded keyspace
//! — here memcached-style string keys grouped into tenant namespaces
//! (`<namespace>:<key>`), so a run exercises the per-tenant scope mapping
//! exactly as remote Presto workers would.
//!
//! [`KeyMix`] is seeded and fully deterministic: the same seed yields the
//! same op sequence, so a client can verify every response against it.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::zipf::ZipfSampler;

/// One generated operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvOp {
    /// Fetch a key.
    Get { key: String },
    /// Store `value_len` bytes (the caller materializes deterministic
    /// contents, e.g. via [`fill_value`]).
    Set { key: String, value_len: usize },
    /// Remove a key.
    Delete { key: String },
}

impl KvOp {
    /// The key this op touches.
    pub fn key(&self) -> &str {
        match self {
            KvOp::Get { key } | KvOp::Set { key, .. } | KvOp::Delete { key } => key,
        }
    }
}

/// Configuration for a [`KeyMix`].
#[derive(Debug, Clone)]
pub struct KeyMixConfig {
    /// Distinct keys in the working set.
    pub keys: usize,
    /// Zipf exponent over key popularity (the paper's Figure 2 reports up
    /// to 1.39 for file access; KV front-end traffic is similarly skewed).
    pub zipf_s: f64,
    /// Tenant namespaces; key `i` belongs to namespace `i % namespaces`.
    /// Zero disables namespacing (bare keys, global scope).
    pub namespaces: usize,
    /// Fraction of ops that are `Set` (in 0..=1).
    pub set_ratio: f64,
    /// Fraction of ops that are `Delete` (in 0..=1; carved out after sets).
    pub delete_ratio: f64,
    /// Value length for `Set` ops.
    pub value_len: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for KeyMixConfig {
    fn default() -> Self {
        Self {
            keys: 10_000,
            zipf_s: 1.0,
            namespaces: 4,
            set_ratio: 0.1,
            delete_ratio: 0.0,
            value_len: 1024,
            seed: 42,
        }
    }
}

/// Deterministic Zipf-skewed KV op stream with tenant namespaces.
#[derive(Debug)]
pub struct KeyMix {
    cfg: KeyMixConfig,
    zipf: ZipfSampler,
    rng: StdRng,
}

impl KeyMix {
    /// Builds a mix from its config.
    pub fn new(cfg: KeyMixConfig) -> Self {
        assert!(cfg.keys > 0, "need at least one key");
        let zipf = ZipfSampler::new(cfg.keys, cfg.zipf_s, cfg.seed.wrapping_mul(0x9e37_79b9));
        let rng = StdRng::seed_from_u64(cfg.seed);
        Self { cfg, zipf, rng }
    }

    /// The key string for a rank (stable across calls and runs).
    pub fn key_of(&self, rank: usize) -> String {
        if self.cfg.namespaces == 0 {
            format!("k{rank:08x}")
        } else {
            // Dotted namespaces parse into schema.table scopes, so a
            // server run exercises the ledger's hierarchy.
            let ns = rank % self.cfg.namespaces;
            format!("tenant{ns}.t{ns}:k{rank:08x}")
        }
    }

    /// Draws the next operation.
    pub fn next_op(&mut self) -> KvOp {
        let rank = self.zipf.sample();
        let key = self.key_of(rank);
        let r: f64 = self.rng.random();
        if r < self.cfg.set_ratio {
            KvOp::Set {
                key,
                value_len: self.cfg.value_len,
            }
        } else if r < self.cfg.set_ratio + self.cfg.delete_ratio {
            KvOp::Delete { key }
        } else {
            KvOp::Get { key }
        }
    }

    /// Every key that can appear, for warmup passes.
    pub fn all_keys(&self) -> impl Iterator<Item = String> + '_ {
        (0..self.cfg.keys).map(|r| self.key_of(r))
    }

    /// The configured value length.
    pub fn value_len(&self) -> usize {
        self.cfg.value_len
    }
}

/// Deterministic value bytes for a key: reproducible across processes, so
/// a client can verify `get` responses byte-for-byte against what any
/// earlier `set` (its own or another connection's) must have written.
pub fn fill_value(key: &str, len: usize) -> Vec<u8> {
    let seed = edgecache_common::hash::hash_str(key);
    (0..len)
        .map(|i| {
            (seed
                .wrapping_add(i as u64)
                .wrapping_mul(0x2545_f491_4f6c_dd1d)
                >> 56) as u8
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = KeyMix::new(KeyMixConfig::default());
        let mut b = KeyMix::new(KeyMixConfig::default());
        for _ in 0..1000 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }

    #[test]
    fn ratios_are_respected_roughly() {
        let mut m = KeyMix::new(KeyMixConfig {
            set_ratio: 0.3,
            delete_ratio: 0.1,
            seed: 7,
            ..Default::default()
        });
        let mut sets = 0;
        let mut dels = 0;
        const N: usize = 20_000;
        for _ in 0..N {
            match m.next_op() {
                KvOp::Set { .. } => sets += 1,
                KvOp::Delete { .. } => dels += 1,
                KvOp::Get { .. } => {}
            }
        }
        let sr = sets as f64 / N as f64;
        let dr = dels as f64 / N as f64;
        assert!((sr - 0.3).abs() < 0.03, "set ratio {sr}");
        assert!((dr - 0.1).abs() < 0.02, "delete ratio {dr}");
    }

    #[test]
    fn keys_carry_namespaces() {
        let m = KeyMix::new(KeyMixConfig {
            namespaces: 2,
            ..Default::default()
        });
        assert!(m.key_of(0).starts_with("tenant0.t0:"));
        assert!(m.key_of(1).starts_with("tenant1.t1:"));
        let bare = KeyMix::new(KeyMixConfig {
            namespaces: 0,
            ..Default::default()
        });
        assert!(!bare.key_of(0).contains(':'));
    }

    #[test]
    fn fill_value_is_stable_and_key_dependent() {
        assert_eq!(fill_value("a", 32), fill_value("a", 32));
        assert_ne!(fill_value("a", 32), fill_value("b", 32));
    }
}
