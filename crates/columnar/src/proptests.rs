//! Property tests for the two places this crate meets arbitrary input:
//!
//! * **Typed filter ≡ row reference** — [`Predicate::matching_rows`] (and the
//!   [`Predicate::select`] kernels under it) keeps exactly the rows the
//!   one-row-at-a-time [`Predicate::matches`] accepts, including the cases
//!   the reference defines oddly and callers may rely on: a literal of
//!   another type, NaN data and literals, an unknown column, no rows.
//! * **Pruning is sound** — when [`Predicate::may_match`] rules a chunk out
//!   from the stats a writer records ([`ColumnData::min_max`]), the typed
//!   filter keeps no row of it, NaN-holding `Float64` chunks included.
//! * **Corrupt chunks** — [`decode`] answers a damaged chunk with an error or
//!   with exactly `rows` values; it never panics and never sizes an
//!   allocation from the chunk's own (corrupt) lengths.
//! * **Coded ≡ expanded** — every kernel over a `Utf8` column's codes
//!   (`select`, `extend_selected`, `append`, `min_max`, `into_values`, the
//!   encoders) equals the same operation on a plain `Vec<String>`, whatever
//!   the dictionaries: differing between columns, repeating entries,
//!   holding unused ones and `""`.
#![cfg(test)]

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::encoding::{decode, encode_dictionary, encode_plain, encode_run_length, Encoding};
use crate::format::ChunkMeta;
use crate::{ColumnData, ColumnType, ColumnView, Predicate, Value};

fn cases() -> u32 {
    std::env::var("EDGECACHE_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}

const TYPES: [ColumnType; 4] = [
    ColumnType::Int64,
    ColumnType::Float64,
    ColumnType::Utf8,
    ColumnType::Bool,
];

/// A value of `ty` from a domain small enough for literals to hit data,
/// with the float oddities in it.
fn value(rng: &mut StdRng, ty: ColumnType) -> Value {
    const FLOATS: [f64; 7] = [f64::NAN, -0.0, 0.0, 1.5, -2.25, f64::INFINITY, 3.0];
    match ty {
        ColumnType::Int64 => Value::Int64(rng.random_range(-3..4)),
        ColumnType::Float64 => Value::Float64(FLOATS[rng.random_range(0..FLOATS.len())]),
        ColumnType::Utf8 => {
            Value::Utf8(["", "a", "ab", "b"][rng.random_range(0..4usize)].to_string())
        }
        ColumnType::Bool => Value::Bool(rng.random()),
    }
}

fn column(rng: &mut StdRng, ty: ColumnType, rows: usize) -> ColumnData {
    let mut col = ColumnData::empty(ty);
    for _ in 0..rows {
        col.push(value(rng, ty));
    }
    col
}

/// Columns `i`, `f`, `s`, `b` hold one type each, `g` is read through a
/// gather index, `nope` does not exist.
const NAMES: [&str; 6] = ["i", "f", "s", "b", "g", "nope"];

fn predicate(rng: &mut StdRng, depth: u32) -> Predicate {
    if depth > 0 && rng.random_range(0..3) > 0 {
        let (a, b) = (predicate(rng, depth - 1), predicate(rng, depth - 1));
        return if rng.random() { a.and(b) } else { a.or(b) };
    }
    let name = NAMES[rng.random_range(0..NAMES.len())].to_string();
    // Usually a literal of the column's own type, sometimes of another.
    let own = TYPES[NAMES.iter().position(|n| *n == name).unwrap() % 4];
    let literal = |rng: &mut StdRng| {
        let ty = match rng.random_range(0..4) {
            0 => TYPES[rng.random_range(0..4usize)],
            _ => own,
        };
        value(rng, ty)
    };
    match rng.random_range(0..4) {
        0 => Predicate::Eq(name, literal(rng)),
        1 => Predicate::Lt(name, literal(rng)),
        2 => Predicate::Gt(name, literal(rng)),
        _ => Predicate::Between(name, literal(rng), literal(rng)),
    }
}

/// The texts of a `Utf8` column, from a domain with `""` in it.
fn texts(rng: &mut StdRng, rows: usize) -> Vec<String> {
    const DOMAIN: [&str; 6] = ["", "a", "ab", "b", "ba", "c"];
    (0..rows)
        .map(|_| DOMAIN[rng.random_range(0..DOMAIN.len())].to_string())
        .collect()
}

/// `texts` as codes into a dictionary of its own: entries shuffled, some
/// repeated (a row picks any copy), some no row uses.
fn coded(rng: &mut StdRng, texts: &[String]) -> ColumnData {
    let unused = rng.random_range(0..4);
    let mut dict: Vec<String> = self::texts(rng, unused);
    for t in texts {
        if !dict.contains(t) || rng.random_range(0..4) == 0 {
            dict.push(t.clone());
        }
    }
    for i in (1..dict.len()).rev() {
        dict.swap(i, rng.random_range(0..=i));
    }
    let codes = texts
        .iter()
        .map(|t| {
            let copies: Vec<u32> = (0..dict.len() as u32)
                .filter(|&c| dict[c as usize] == *t)
                .collect();
            copies[rng.random_range(0..copies.len())]
        })
        .collect();
    ColumnData::Utf8 {
        codes,
        dict: Arc::new(dict),
    }
}

fn strings(col: &ColumnData) -> Vec<String> {
    let text = |v: Value| match v {
        Value::Utf8(s) => s,
        other => panic!("{other:?} in a Utf8 column"),
    };
    col.clone().into_values().map(text).collect()
}

/// The dictionary encoding of `texts` as the writer defines it: distinct
/// values in first-seen order, then one index per row.
fn reference_dictionary(texts: &[String]) -> Vec<u8> {
    let mut dict: Vec<&String> = Vec::new();
    let mut indices = Vec::new();
    for t in texts {
        let at = dict.iter().position(|d| *d == t).unwrap_or_else(|| {
            dict.push(t);
            dict.len() - 1
        });
        indices.push(at as u32);
    }
    let mut out = (dict.len() as u32).to_le_bytes().to_vec();
    for d in dict {
        out.extend_from_slice(&(d.len() as u32).to_le_bytes());
        out.extend_from_slice(d.as_bytes());
    }
    indices
        .iter()
        .for_each(|i| out.extend_from_slice(&i.to_le_bytes()));
    out
}

/// Mutates a chunk the way storage damages one: bytes overwritten (0xFF
/// makes a length field huge), the tail cut off, or junk appended.
fn damage(rng: &mut StdRng, chunk: &mut Vec<u8>) {
    match rng.random_range(0..4) {
        0 if !chunk.is_empty() => chunk.truncate(rng.random_range(0..chunk.len())),
        1 => chunk.extend((0..rng.random_range(1..9)).map(|_| rng.random::<u8>())),
        _ => {
            for _ in 0..rng.random_range(1..5) {
                if !chunk.is_empty() {
                    let at = rng.random_range(0..chunk.len());
                    chunk[at] = if rng.random() { 0xFF } else { rng.random() };
                }
            }
        }
    }
}

fn capacity(col: &ColumnData) -> usize {
    match col {
        ColumnData::Int64(v) => v.capacity(),
        ColumnData::Float64(v) => v.capacity(),
        ColumnData::Utf8 { codes, .. } => codes.capacity(),
        ColumnData::Bool(v) => v.capacity(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn typed_filter_matches_the_row_reference(
        seed in any::<u64>(),
        rows in prop_oneof![1 => Just(0usize), 9 => 1usize..40],
        depth in 0u32..4,
    ) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let direct: Vec<ColumnData> = TYPES.iter().map(|&ty| column(rng, ty, rows)).collect();
        // `g`: a three-row Int64 dimension reached through a gather index.
        let dim = column(rng, ColumnType::Int64, 3);
        let gather: Vec<u32> = (0..rows).map(|_| rng.random_range(0..3)).collect();
        let pred = predicate(rng, depth);

        let reference: Vec<usize> = (0..rows)
            .filter(|&row| {
                pred.matches(&|name| match NAMES.iter().position(|n| *n == name)? {
                    slot @ 0..=3 => Some(direct[slot].value(row)),
                    4 => Some(dim.value(gather[row] as usize)),
                    _ => None,
                })
            })
            .collect();

        let all: Vec<u32> = (0..rows as u32).collect();
        let selected = pred.select(
            &|name| match NAMES.iter().position(|n| *n == name)? {
                slot @ 0..=3 => Some(ColumnView::direct(&direct[slot])),
                4 => Some(ColumnView { data: &dim, gather: Some(&gather) }),
                _ => None,
            },
            &all,
        );
        let selected: Vec<usize> = selected.into_iter().map(|r| r as usize).collect();
        prop_assert_eq!(&selected, &reference, "{:?}", pred);

        // `matching_rows` sees only what it is handed by name: drop `g`.
        let named: Vec<(&str, &ColumnData)> = NAMES.iter().copied().zip(&direct).collect();
        let without_g: Vec<usize> = (0..rows)
            .filter(|&row| {
                pred.matches(&|name| {
                    let (_, col) = named.iter().find(|(n, _)| *n == name)?;
                    Some(col.value(row))
                })
            })
            .collect();
        prop_assert_eq!(pred.matching_rows(&named, rows), without_g, "{:?}", pred);
    }

    #[test]
    fn pruning_never_drops_a_matching_row(
        seed in any::<u64>(),
        // Short chunks, so Float64 chunks without a NaN (which get stats)
        // are common.
        rows in prop_oneof![1 => Just(0usize), 9 => 1usize..10],
        depth in 0u32..4,
    ) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let direct: Vec<ColumnData> = TYPES.iter().map(|&ty| column(rng, ty, rows)).collect();
        let pred = predicate(rng, depth);
        // `g` and `nope` have no chunk here: unknown to both sides.
        let slot = |name: &str| NAMES[..4].iter().position(|n| *n == name);
        let chunk_of = |name: &str| {
            let (min, max) = direct[slot(name)?].min_max().unzip();
            Some(ChunkMeta { offset: 0, len: 0, encoding: Encoding::Plain, min, max })
        };
        if !pred.may_match(&chunk_of) {
            let all: Vec<u32> = (0..rows as u32).collect();
            let selected =
                pred.select(&|name| Some(ColumnView::direct(&direct[slot(name)?])), &all);
            prop_assert!(selected.is_empty(), "{:?} pruned rows {:?} of {:?}", pred, selected, direct);
        }
    }

    #[test]
    fn damaged_chunks_decode_to_an_error_or_exactly_rows_values(
        seed in any::<u64>(),
        rows in 0usize..48,
    ) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let ty = TYPES[rng.random_range(0..4usize)];
        let col = column(rng, ty, rows);
        let encoded = [
            Some(encode_plain(&col)),
            encode_dictionary(&col),
            encode_run_length(&col),
        ];
        for chunk in encoded.into_iter().flatten() {
            let mut chunk = chunk.to_vec();
            damage(rng, &mut chunk);
            // Any encoding × any type may be claimed for the damaged bytes,
            // and the footer's row count may be off by one either way.
            for encoding in [Encoding::Plain, Encoding::Dictionary, Encoding::RunLength] {
                for claimed in TYPES {
                    for want in [rows, rows + 1, rows.saturating_sub(1)] {
                        if let Ok(col) = decode(encoding, claimed, want, &chunk) {
                            prop_assert_eq!(col.len(), want);
                            prop_assert_eq!(col.column_type(), claimed);
                            // Growth by doubling (from a floor of 8) may
                            // overshoot `want`; a length read from the chunk
                            // would dwarf it.
                            prop_assert!(
                                capacity(&col) <= 2 * want + 8,
                                "{} reserved for {want} of {claimed} as {encoding:?}",
                                capacity(&col)
                            );
                        }
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn coded_utf8_kernels_equal_the_expanded_reference(
        seed in any::<u64>(),
        rows in prop_oneof![1 => Just(0usize), 9 => 1usize..30],
        other_rows in 0usize..30,
        depth in 0u32..3,
    ) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let (a_texts, b_texts) = (texts(rng, rows), texts(rng, other_rows));
        let (a, b) = (coded(rng, &a_texts), coded(rng, &b_texts));
        prop_assert_eq!(strings(&a), a_texts.clone());
        prop_assert_eq!(a.len(), rows);
        prop_assert!(a == ColumnData::utf8(a_texts.clone()), "values, not codes, compare");

        // `select`, direct and through a gather index into `b`.
        let gather: Vec<u32> = match other_rows {
            0 => Vec::new(),
            n => (0..rows).map(|_| rng.random_range(0..n as u32)).collect(),
        };
        let pred = predicate(rng, depth);
        let text_of = |row: usize, gathered: bool| match gathered {
            true => b_texts[gather[row] as usize].clone(),
            false => a_texts[row].clone(),
        };
        for gathered in [false, true].into_iter().filter(|g| !g || other_rows > 0) {
            let view = match gathered {
                true => ColumnView { data: &b, gather: Some(&gather) },
                false => ColumnView::direct(&a),
            };
            let all: Vec<u32> = (0..rows as u32).collect();
            let got = pred.select(&|name| (name == "s").then_some(view), &all);
            let want: Vec<u32> = all
                .iter()
                .copied()
                .filter(|&r| {
                    pred.matches(&|name| (name == "s").then(|| Value::Utf8(text_of(r as usize, gathered))))
                })
                .collect();
            prop_assert_eq!(got, want, "{:?}", pred);
        }

        // `extend_selected` onto a column with rows (a foreign dictionary),
        // onto an empty one (adopts it) and onto itself (the same `Arc`).
        let sel: Vec<u32> = (0..rows as u32).filter(|_| rng.random()).collect();
        let picked = |texts: &dyn Fn(usize) -> String| -> Vec<String> {
            sel.iter().map(|&r| texts(r as usize)).collect()
        };
        for target in [b.clone(), ColumnData::empty(ColumnType::Utf8), a.clone()] {
            let mut want = strings(&target);
            want.extend(picked(&|r| a_texts[r].clone()));
            let mut got = target.clone();
            got.extend_selected(ColumnView::direct(&a), &sel);
            prop_assert_eq!(strings(&got), want);
            if other_rows > 0 {
                let mut want = strings(&target);
                want.extend(picked(&|r| b_texts[gather[r] as usize].clone()));
                let mut got = target.clone();
                got.extend_selected(ColumnView { data: &b, gather: Some(&gather) }, &sel);
                prop_assert_eq!(strings(&got), want);
            }
            // `append`, the whole of `a` and of `b`.
            let mut got = target.clone();
            got.append(a.clone()).unwrap();
            got.append(b.clone()).unwrap();
            let mut want = strings(&target);
            want.extend(a_texts.iter().chain(&b_texts).cloned());
            prop_assert_eq!(strings(&got), want);
        }

        // `min_max` over the used entries only.
        let want = a_texts.iter().min().cloned().zip(a_texts.iter().max().cloned());
        let got = a.min_max().map(|(lo, hi)| (lo.to_string(), hi.to_string()));
        prop_assert_eq!(got, want);

        // The encoders write the values' bytes, and decode reads them back.
        prop_assert_eq!(encode_plain(&a), encode_plain(&ColumnData::utf8(a_texts.clone())));
        let dictionary = encode_dictionary(&a).unwrap();
        prop_assert_eq!(dictionary.to_vec(), reference_dictionary(&a_texts));
        for (encoding, bytes) in [(Encoding::Plain, encode_plain(&a)), (Encoding::Dictionary, dictionary)] {
            let back = decode(encoding, ColumnType::Utf8, rows, &bytes).unwrap();
            prop_assert_eq!(strings(&back), a_texts.clone());
        }
    }
}

/// A footer's row count sizes decode's output: absurd counts fail on the
/// bytes they are missing instead of reserving memory for them.
#[test]
fn an_absurd_row_count_is_an_error_not_an_allocation() {
    let rows = 1usize << 36;
    for (encoding, ty, chunk) in [
        (Encoding::Dictionary, ColumnType::Int64, &[0u8, 0, 0, 0][..]),
        (Encoding::Dictionary, ColumnType::Utf8, &[0, 0, 0, 0][..]),
        (Encoding::RunLength, ColumnType::Int64, &[][..]),
        (Encoding::RunLength, ColumnType::Bool, &[][..]),
    ] {
        let err = decode(encoding, ty, rows, chunk).unwrap_err();
        assert!(
            err.to_string().contains("chunk truncated"),
            "{encoding:?} {ty}: {err}"
        );
    }
    // Both error kinds of a dictionary chunk survive the one-pass decode.
    let mut chunk = 1u32.to_le_bytes().to_vec();
    chunk.extend_from_slice(&7i64.to_le_bytes());
    chunk.extend_from_slice(&[0, 0, 0, 0, 1, 0, 0, 0]);
    let err = decode(Encoding::Dictionary, ColumnType::Int64, 2, &chunk).unwrap_err();
    assert!(err.to_string().contains("dict index out of range"), "{err}");
    let err = decode(Encoding::Dictionary, ColumnType::Int64, 3, &chunk).unwrap_err();
    assert!(err.to_string().contains("chunk truncated"), "{err}");
}

/// The chunk from the bug report: a run of `u32::MAX` values claimed for a
/// four-row column used to be expanded before it was checked, and the
/// process died on a 32 GiB allocation.
#[test]
fn an_oversized_run_is_rejected_before_it_is_expanded() {
    let mut chunk = u32::MAX.to_le_bytes().to_vec();
    chunk.extend_from_slice(&7i64.to_le_bytes());
    assert!(decode(Encoding::RunLength, ColumnType::Int64, 4, &chunk).is_err());
    assert!(decode(Encoding::RunLength, ColumnType::Bool, 4, &chunk[..5]).is_err());
    // A run that fits still decodes.
    chunk[..4].copy_from_slice(&4u32.to_le_bytes());
    assert_eq!(
        decode(Encoding::RunLength, ColumnType::Int64, 4, &chunk).unwrap(),
        ColumnData::Int64(vec![7; 4])
    );
    // A row count whose byte length overflows is a decode error, not a wrap.
    assert!(decode(Encoding::Plain, ColumnType::Int64, usize::MAX / 4, &chunk).is_err());
    assert!(decode(Encoding::Plain, ColumnType::Float64, usize::MAX / 4, &chunk).is_err());
}
