//! Hostile input: the SSDL lexer, parser and compiler return `Ok` or `Err`
//! on any text and never panic. Cases are arbitrary bytes read as (lossy)
//! UTF-8, both on their own and spliced into a valid description, so they
//! reach past the lexer into the grammar and the compiled recogniser.

use csqp_ssdl::check::CompiledSource;
use csqp_ssdl::parse_ssdl;
use proptest::collection::vec;
use proptest::prelude::*;

const SEED: &str = "source car_dealer {\n\
    s1 -> make = $str ^ price < $int ;\n\
    s2 -> make = $str ^ color = $str _ true ;\n\
    attributes :: s1 : { make, model, year, color } ;\n\
    attributes :: s2 : { make, model } ;\n\
    }";

/// `seed` with `len` bytes at byte `at` (both wrapped into range) replaced
/// by `bytes`, read as lossy UTF-8.
fn splice(seed: &str, at: usize, len: usize, bytes: &[u8]) -> String {
    let mut text = seed.as_bytes().to_vec();
    let at = at % (text.len() + 1);
    let end = (at + len).min(text.len());
    text.splice(at..end, bytes.iter().copied());
    String::from_utf8_lossy(&text).into_owned()
}

/// Parses `text` and, when it is a description, compiles it and runs
/// `Check` on the condition `true`.
fn parse_and_compile(text: &str) {
    if let Ok(desc) = parse_ssdl(text) {
        let _ = CompiledSource::new(desc).check(None);
    }
}

/// The splice cases start from valid text.
#[test]
fn the_seed_is_valid() {
    assert!(parse_ssdl(SEED).is_ok());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in vec(0u8..=255, 0..128)) {
        parse_and_compile(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn bytes_spliced_into_a_description_never_panic(
        at in 0usize..256,
        len in 0usize..8,
        bytes in vec(0u8..=255, 0..8),
    ) {
        parse_and_compile(&splice(SEED, at, len, &bytes));
    }
}
