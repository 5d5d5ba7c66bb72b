//! Hostile input: the condition parser returns `Ok` or `Err` on any text
//! and never panics. Cases are arbitrary bytes read as (lossy) UTF-8, both
//! on their own and spliced into a valid condition, so they reach past the
//! lexer into the grammar.

use csqp_expr::parse::parse_condition;
use proptest::collection::vec;
use proptest::prelude::*;

const SEED: &str = "(make = \"BMW\" _ make = \"Audi\") ^ price < 40000.5 ^ title contains \"x\"";

/// `seed` with `len` bytes at byte `at` (both wrapped into range) replaced
/// by `bytes`, read as lossy UTF-8.
fn splice(seed: &str, at: usize, len: usize, bytes: &[u8]) -> String {
    let mut text = seed.as_bytes().to_vec();
    let at = at % (text.len() + 1);
    let end = (at + len).min(text.len());
    text.splice(at..end, bytes.iter().copied());
    String::from_utf8_lossy(&text).into_owned()
}

/// The splice cases start from valid text.
#[test]
fn the_seed_is_valid() {
    assert!(parse_condition(SEED).is_ok());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in vec(0u8..=255, 0..96)) {
        let _ = parse_condition(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn bytes_spliced_into_a_condition_never_panic(
        at in 0usize..128,
        len in 0usize..8,
        bytes in vec(0u8..=255, 0..8),
    ) {
        let _ = parse_condition(&splice(SEED, at, len, &bytes));
    }
}
