//! Stable 64-bit hash functions.
//!
//! Page placement (§4.1's allocator), the soft-affinity hash ring (§6.1.2),
//! and the file ids in on-disk page headers (§4.3) all need hashes that are
//! *stable across process restarts and architectures* — a page written before
//! a crash must be found under the same id after recovery. `std::hash` makes no such
//! guarantee, so we use FNV-1a plus a splitmix64 finalizer.
//!
//! Two byte hashes live here, each with one job:
//!
//! * [`fnv1a64`] wherever the *value* is a stability contract — string keys
//!   ([`hash_str`]), ring points, page-header file ids, kvstore records,
//!   DataNode `.meta` files, simtest byte oracles. It consumes one byte per
//!   multiply, which is fine for short keys.
//! * [`xxh64`] for bulk integrity — the page checksum of the SSD slot header
//!   and the DRAM frame. It consumes 32 bytes per step over four independent
//!   lanes, so checksumming a 1 MiB page costs about two copies of it
//!   rather than thirty.

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Hashes `bytes` with FNV-1a (64-bit).
///
/// # Examples
///
/// ```
/// use edgecache_common::hash::fnv1a64;
/// assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
/// assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
/// ```
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

const XXH_PRIME_1: u64 = 0x9E37_79B1_85EB_CA87;
const XXH_PRIME_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const XXH_PRIME_3: u64 = 0x1656_67B1_9E37_79F9;
const XXH_PRIME_4: u64 = 0x85EB_CA77_C2B2_AE63;
const XXH_PRIME_5: u64 = 0x27D4_EB2F_1656_67C5;

#[inline(always)]
fn xxh_round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(XXH_PRIME_2))
        .rotate_left(31)
        .wrapping_mul(XXH_PRIME_1)
}

#[inline(always)]
fn xxh_merge(h: u64, acc: u64) -> u64 {
    (h ^ xxh_round(0, acc))
        .wrapping_mul(XXH_PRIME_1)
        .wrapping_add(XXH_PRIME_4)
}

#[inline(always)]
fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8-byte chunk"))
}

/// Hashes `bytes` with XXH64 (the reference xxHash 64-bit algorithm).
///
/// Inputs of 32 bytes or more run four independent accumulators over 32-byte
/// stripes, so the multiplies of one stripe overlap instead of forming the
/// one-byte dependency chain of [`fnv1a64`].
///
/// # Examples
///
/// ```
/// use edgecache_common::hash::xxh64;
/// assert_eq!(xxh64(b"", 0), 0xEF46DB3751D8E999);
/// assert_eq!(xxh64(b"abc", 0), 0x44BC2CF5AD770999);
/// ```
pub fn xxh64(bytes: &[u8], seed: u64) -> u64 {
    let mut stripes = bytes.chunks_exact(32);
    let mut h = if bytes.len() >= 32 {
        let mut v1 = seed.wrapping_add(XXH_PRIME_1).wrapping_add(XXH_PRIME_2);
        let mut v2 = seed.wrapping_add(XXH_PRIME_2);
        let mut v3 = seed;
        let mut v4 = seed.wrapping_sub(XXH_PRIME_1);
        for stripe in &mut stripes {
            v1 = xxh_round(v1, le_u64(&stripe[0..8]));
            v2 = xxh_round(v2, le_u64(&stripe[8..16]));
            v3 = xxh_round(v3, le_u64(&stripe[16..24]));
            v4 = xxh_round(v4, le_u64(&stripe[24..32]));
        }
        let mut h = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        for v in [v1, v2, v3, v4] {
            h = xxh_merge(h, v);
        }
        h
    } else {
        seed.wrapping_add(XXH_PRIME_5)
    };
    h = h.wrapping_add(bytes.len() as u64);

    let mut words = stripes.remainder().chunks_exact(8);
    for word in &mut words {
        h = (h ^ xxh_round(0, le_u64(word)))
            .rotate_left(27)
            .wrapping_mul(XXH_PRIME_1)
            .wrapping_add(XXH_PRIME_4);
    }
    let mut tail = words.remainder();
    if tail.len() >= 4 {
        let half = u32::from_le_bytes(tail[..4].try_into().expect("4-byte chunk"));
        h = (h ^ u64::from(half).wrapping_mul(XXH_PRIME_1))
            .rotate_left(23)
            .wrapping_mul(XXH_PRIME_2)
            .wrapping_add(XXH_PRIME_3);
        tail = &tail[4..];
    }
    for &b in tail {
        h = (h ^ u64::from(b).wrapping_mul(XXH_PRIME_5))
            .rotate_left(11)
            .wrapping_mul(XXH_PRIME_1);
    }

    h ^= h >> 33;
    h = h.wrapping_mul(XXH_PRIME_2);
    h ^= h >> 29;
    h = h.wrapping_mul(XXH_PRIME_3);
    h ^ (h >> 32)
}

/// The splitmix64 finalizer: a cheap, high-quality bit mixer.
///
/// Used to derive virtual-node points on the consistent-hash ring and to
/// decorrelate sequential IDs before modulo-based placement.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Hashes a string key (FNV-1a followed by a mix round).
pub fn hash_str(s: &str) -> u64 {
    mix64(fnv1a64(s.as_bytes()))
}

/// Combines two hashes into one (order-sensitive).
pub fn combine(a: u64, b: u64) -> u64 {
    mix64(a ^ b.rotate_left(32).wrapping_mul(FNV_PRIME))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fnv_known_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    /// XXH64 transcribed from the reference C: one cursor, one word at a
    /// time, no iterator adaptors — the oracle the striped kernel is checked
    /// against.
    fn xxh64_reference(input: &[u8], seed: u64) -> u64 {
        let read64 = |p: usize| u64::from_le_bytes(input[p..p + 8].try_into().unwrap());
        let read32 = |p: usize| u32::from_le_bytes(input[p..p + 4].try_into().unwrap());
        let round = |acc: u64, lane: u64| {
            acc.wrapping_add(lane.wrapping_mul(XXH_PRIME_2))
                .rotate_left(31)
                .wrapping_mul(XXH_PRIME_1)
        };
        let len = input.len();
        let mut p = 0;
        let mut h;
        if len >= 32 {
            let mut v = [
                seed.wrapping_add(XXH_PRIME_1).wrapping_add(XXH_PRIME_2),
                seed.wrapping_add(XXH_PRIME_2),
                seed,
                seed.wrapping_sub(XXH_PRIME_1),
            ];
            while p + 32 <= len {
                for lane in &mut v {
                    *lane = round(*lane, read64(p));
                    p += 8;
                }
            }
            h = v[0]
                .rotate_left(1)
                .wrapping_add(v[1].rotate_left(7))
                .wrapping_add(v[2].rotate_left(12))
                .wrapping_add(v[3].rotate_left(18));
            for lane in v {
                h ^= round(0, lane);
                h = h.wrapping_mul(XXH_PRIME_1).wrapping_add(XXH_PRIME_4);
            }
        } else {
            h = seed.wrapping_add(XXH_PRIME_5);
        }
        h = h.wrapping_add(len as u64);
        while p + 8 <= len {
            h ^= round(0, read64(p));
            h = h
                .rotate_left(27)
                .wrapping_mul(XXH_PRIME_1)
                .wrapping_add(XXH_PRIME_4);
            p += 8;
        }
        if p + 4 <= len {
            h ^= u64::from(read32(p)).wrapping_mul(XXH_PRIME_1);
            h = h
                .rotate_left(23)
                .wrapping_mul(XXH_PRIME_2)
                .wrapping_add(XXH_PRIME_3);
            p += 4;
        }
        while p < len {
            h ^= u64::from(input[p]).wrapping_mul(XXH_PRIME_5);
            h = h.rotate_left(11).wrapping_mul(XXH_PRIME_1);
            p += 1;
        }
        h ^= h >> 33;
        h = h.wrapping_mul(XXH_PRIME_2);
        h ^= h >> 29;
        h = h.wrapping_mul(XXH_PRIME_3);
        h ^ (h >> 32)
    }

    #[test]
    fn xxh64_known_vectors() {
        // Published XXH64 test vectors.
        assert_eq!(xxh64(b"", 0), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"a", 0), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxh64(b"abc", 0), 0x44BC_2CF5_AD77_0999);
        assert_eq!(
            xxh64(b"Nobody inspects the spammish repetition", 0),
            0xFBCE_A83C_8A37_8BF1
        );
        assert_eq!(xxh64(b"xxhash", 20141025), 0xB559_B98D_844E_0635);
        // xxHash's own sanity check: 101 generated bytes (four-lane body,
        // then 8-, 4- and 1-byte tails), with and without a seed.
        const PRIME: u32 = 2_654_435_761;
        let mut gen = PRIME;
        let sanity: Vec<u8> = (0..101)
            .map(|_| {
                let b = (gen >> 24) as u8;
                gen = gen.wrapping_mul(gen);
                b
            })
            .collect();
        assert_eq!(xxh64(&sanity[..1], 0), 0x4FCE_394C_C889_52D8);
        assert_eq!(
            xxh64(&sanity[..14], u64::from(PRIME)),
            0x5B96_1158_5EFC_C9CB
        );
        assert_eq!(xxh64(&sanity, 0), 0x0EAB_5433_84F8_78AD);
        assert_eq!(xxh64(&sanity, u64::from(PRIME)), 0xCAA6_5939_306F_1E21);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn xxh64_matches_reference_at_every_length_and_alignment(
            buf in proptest::collection::vec(any::<u8>(), 272..273),
            seed in any::<u64>(),
        ) {
            // 257 covers eight full stripes plus every 8/4/1-byte tail
            // combination; the offset makes the slice start unaligned.
            for offset in 0..8 {
                for len in 0..=257 {
                    let slice = &buf[offset..offset + len];
                    prop_assert_eq!(
                        xxh64(slice, seed),
                        xxh64_reference(slice, seed),
                        "offset {} len {}", offset, len
                    );
                }
            }
        }
    }

    #[test]
    fn mix64_is_bijective_on_samples() {
        // splitmix64 is a bijection; distinct inputs must give distinct
        // outputs on any sample set.
        let outs: std::collections::HashSet<u64> = (0..10_000u64).map(mix64).collect();
        assert_eq!(outs.len(), 10_000);
    }

    #[test]
    fn combine_is_order_sensitive() {
        assert_ne!(combine(1, 2), combine(2, 1));
    }

    #[test]
    fn hash_str_stability() {
        // Guard against accidental algorithm changes: these values are part
        // of the on-disk layout contract.
        assert_eq!(hash_str("hello"), hash_str("hello"));
        assert_ne!(hash_str("hello"), hash_str("hellp"));
    }

    #[test]
    fn distribution_over_buckets_is_roughly_uniform() {
        const BUCKETS: usize = 16;
        let mut counts = [0usize; BUCKETS];
        for i in 0..16_000u64 {
            let key = format!("file-{i}");
            counts[(hash_str(&key) % BUCKETS as u64) as usize] += 1;
        }
        for &c in &counts {
            // Each bucket expects 1000; allow generous slack.
            assert!((700..1300).contains(&c), "skewed bucket count {c}");
        }
    }
}
