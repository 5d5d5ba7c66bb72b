//! Hostile input: the CSV reader returns `Ok` or `Err` on any text and
//! never panics. Cases are arbitrary bytes read as (lossy) UTF-8, both on
//! their own and spliced into a valid file, so they reach past the header
//! into quoting, ragged rows and type inference.

use csqp_relation::csv::load_csv;
use proptest::collection::vec;
use proptest::prelude::*;

const SEED: &str = "make,model,year,price\n\
    BMW,318i,1996,28500\n\
    \"Toyota, Inc\",\"Co\"\"rolla\",1998,14200.5\n\
    Ford,Ka,true,\n";

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
    assert!(load_csv("t", SEED, &["make"]).is_ok());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in vec(0u8..=255, 0..128)) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = load_csv("t", &text, &[]);
        let _ = load_csv("t", &text, &["make"]);
    }

    #[test]
    fn bytes_spliced_into_a_file_never_panic(
        at in 0usize..128,
        len in 0usize..8,
        bytes in vec(0u8..=255, 0..8),
    ) {
        let text = splice(SEED, at, len, &bytes);
        let _ = load_csv("t", &text, &[]);
        let _ = load_csv("t", &text, &["make"]);
    }
}
