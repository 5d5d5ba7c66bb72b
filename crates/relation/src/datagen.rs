//! Seeded synthetic data generators for the paper's example sources.
//!
//! The 1999 live sources (barnesandnoble.com, autobytel.com) are gone; these
//! generators produce relations whose *cardinality profile* reproduces the
//! paper's numbers — e.g. Example 1.1's claims that the two-author dreams
//! query returns "fewer than 20 entries" while the CNF plan "extracts over
//! 2,000 entries" from the bookstore.

use crate::relation::Relation;
use crate::schema::Schema;
use csqp_expr::{Value, ValueType};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;

/// Configuration for [`books`].
#[derive(Debug, Clone)]
pub struct BookGenConfig {
    /// Total books.
    pub n_books: usize,
    /// Fraction of titles containing the word "dreams".
    pub dreams_fraction: f64,
    /// Books by Sigmund Freud: (total, of which dream-titled).
    pub freud: (usize, usize),
    /// Books by Carl Jung: (total, of which dream-titled).
    pub jung: (usize, usize),
}

impl Default for BookGenConfig {
    /// Tuned to Example 1.1: `title contains "dreams"` alone matches > 2,000
    /// rows; Freud-dreams + Jung-dreams together match 19 (< 20).
    fn default() -> Self {
        BookGenConfig { n_books: 50_000, dreams_fraction: 0.05, freud: (45, 12), jung: (35, 7) }
    }
}

/// Schema of the bookstore relation:
/// `books(isbn, author, title, subject, price, publisher)`.
pub fn books_schema() -> Arc<Schema> {
    Schema::new(
        "books",
        vec![
            ("isbn", ValueType::Str),
            ("author", ValueType::Str),
            ("title", ValueType::Str),
            ("subject", ValueType::Str),
            ("price", ValueType::Int),
            ("publisher", ValueType::Str),
        ],
        &["isbn"],
    )
    .expect("books schema is valid")
}

const SUBJECTS: &[&str] = &[
    "psychology",
    "fiction",
    "history",
    "science",
    "philosophy",
    "self-help",
    "biography",
    "poetry",
];
const PUBLISHERS: &[&str] = &["Norton", "Penguin", "Knopf", "Vintage", "Basic Books"];
const TITLE_WORDS: &[&str] = &[
    "shadow", "night", "garden", "city", "river", "memory", "silence", "journey", "winter",
    "light", "stone", "mirror", "fire", "sea", "mountain", "letter", "house", "road",
];

/// Generates the bookstore relation.
pub fn books(seed: u64, cfg: &BookGenConfig) -> Relation {
    let mut rng = StdRng::seed_from_u64(seed);
    let schema = books_schema();
    let mut rows: Vec<Vec<Value>> = Vec::with_capacity(cfg.n_books);
    let mut isbn = 0usize;
    let mut push_book =
        |rows: &mut Vec<Vec<Value>>, rng: &mut StdRng, author: &str, dreams: bool| {
            isbn += 1;
            let w1 = TITLE_WORDS[rng.random_range(0..TITLE_WORDS.len())];
            let w2 = TITLE_WORDS[rng.random_range(0..TITLE_WORDS.len())];
            let title = if dreams {
                format!("The {w1} of Dreams and {w2}")
            } else {
                format!("The {w1} of the {w2}")
            };
            rows.push(vec![
                Value::str(format!("isbn-{isbn:07}")),
                Value::str(author),
                Value::str(title),
                Value::str(SUBJECTS[rng.random_range(0..SUBJECTS.len())]),
                Value::Int(rng.random_range(5..80)),
                Value::str(PUBLISHERS[rng.random_range(0..PUBLISHERS.len())]),
            ]);
        };

    // The two special authors of Example 1.1.
    for (author, (total, dreamy)) in [("Sigmund Freud", cfg.freud), ("Carl Jung", cfg.jung)] {
        for i in 0..total {
            push_book(&mut rows, &mut rng, author, i < dreamy);
        }
    }
    // Filler authors.
    let n_filler = cfg.n_books.saturating_sub(cfg.freud.0 + cfg.jung.0);
    for i in 0..n_filler {
        let author = format!("Author {:04}", i % 2000);
        let dreams = rng.random_bool(cfg.dreams_fraction);
        push_book(&mut rows, &mut rng, &author, dreams);
    }
    Relation::from_rows(schema, rows)
}

/// Configuration for [`car_listings`].
#[derive(Debug, Clone)]
pub struct CarGenConfig {
    /// Total listings.
    pub n_listings: usize,
}

impl Default for CarGenConfig {
    fn default() -> Self {
        CarGenConfig { n_listings: 20_000 }
    }
}

/// Schema of the car-shopping-guide relation (Example 1.2):
/// `listings(listing_id, style, size, make, model, price, year)`.
pub fn listings_schema() -> Arc<Schema> {
    Schema::new(
        "listings",
        vec![
            ("listing_id", ValueType::Str),
            ("style", ValueType::Str),
            ("size", ValueType::Str),
            ("make", ValueType::Str),
            ("model", ValueType::Str),
            ("price", ValueType::Int),
            ("year", ValueType::Int),
        ],
        &["listing_id"],
    )
    .expect("listings schema is valid")
}

const STYLES: &[&str] = &["sedan", "coupe", "suv", "wagon", "convertible"];
const SIZES: &[&str] = &["compact", "midsize", "fullsize"];
const MAKES: &[(&str, &[&str], (i64, i64))] = &[
    ("Toyota", &["Corolla", "Camry", "Avalon"], (12_000, 35_000)),
    ("BMW", &["318i", "528i", "740i"], (28_000, 90_000)),
    ("Honda", &["Civic", "Accord"], (11_000, 30_000)),
    ("Ford", &["Escort", "Taurus", "Explorer"], (10_000, 32_000)),
    ("Mercedes", &["C230", "E320"], (30_000, 85_000)),
    ("Chevrolet", &["Cavalier", "Malibu"], (9_000, 26_000)),
];

/// Generates the car-shopping-guide relation.
pub fn car_listings(seed: u64, cfg: &CarGenConfig) -> Relation {
    let mut rng = StdRng::seed_from_u64(seed);
    let schema = listings_schema();
    let rows: Vec<Vec<Value>> = (0..cfg.n_listings)
        .map(|i| {
            let (make, models, (lo, hi)) = MAKES[rng.random_range(0..MAKES.len())];
            let model = models[rng.random_range(0..models.len())];
            vec![
                Value::str(format!("lst-{i:06}")),
                Value::str(STYLES[rng.random_range(0..STYLES.len())]),
                Value::str(SIZES[rng.random_range(0..SIZES.len())]),
                Value::str(make),
                Value::str(model),
                Value::Int(rng.random_range(lo..hi)),
                Value::Int(rng.random_range(1990..2000)),
            ]
        })
        .collect();
    Relation::from_rows(schema, rows)
}

/// Schema of Example 4.1's car dealer: `cars(make, model, year, color, price)`.
pub fn cars_schema() -> Arc<Schema> {
    Schema::new(
        "cars",
        vec![
            ("make", ValueType::Str),
            ("model", ValueType::Str),
            ("year", ValueType::Int),
            ("color", ValueType::Str),
            ("price", ValueType::Int),
        ],
        &[],
    )
    .expect("cars schema is valid")
}

const COLORS: &[&str] = &["red", "black", "blue", "white", "silver", "green"];

/// Generates the car-dealer relation of Example 4.1.
pub fn cars(seed: u64, n: usize) -> Relation {
    let mut rng = StdRng::seed_from_u64(seed);
    let schema = cars_schema();
    let rows: Vec<Vec<Value>> = (0..n)
        .map(|i| {
            let (make, models, (lo, hi)) = MAKES[rng.random_range(0..MAKES.len())];
            let model = models[rng.random_range(0..models.len())];
            vec![
                Value::str(make),
                Value::str(format!("{model}-{i}")),
                Value::Int(rng.random_range(1988..2000)),
                Value::str(COLORS[rng.random_range(0..COLORS.len())]),
                Value::Int(rng.random_range(lo..hi)),
            ]
        })
        .collect();
    Relation::from_rows(schema, rows)
}

/// Schema of the §4 bank: `accounts(acct_no, owner, branch, balance, pin)`.
pub fn accounts_schema() -> Arc<Schema> {
    Schema::new(
        "accounts",
        vec![
            ("acct_no", ValueType::Str),
            ("owner", ValueType::Str),
            ("branch", ValueType::Str),
            ("balance", ValueType::Int),
            ("pin", ValueType::Str),
        ],
        &["acct_no"],
    )
    .expect("accounts schema is valid")
}

/// Generates the bank relation. The PIN of account `acct-K` is the string
/// `pin-K` (deterministic, so tests and examples can authenticate).
pub fn accounts(seed: u64, n: usize) -> Relation {
    let mut rng = StdRng::seed_from_u64(seed);
    let schema = accounts_schema();
    let branches = ["downtown", "campus", "airport"];
    let rows: Vec<Vec<Value>> = (0..n)
        .map(|i| {
            vec![
                Value::str(format!("acct-{i:05}")),
                Value::str(format!("Owner {i:05}")),
                Value::str(branches[rng.random_range(0..branches.len())]),
                Value::Int(rng.random_range(0..250_000)),
                Value::str(format!("pin-{i:05}")),
            ]
        })
        .collect();
    Relation::from_rows(schema, rows)
}

/// Schema of the review site: `reviews(review_id, isbn, rating, reviewer)`.
pub fn reviews_schema() -> Arc<Schema> {
    Schema::new(
        "reviews",
        vec![
            ("review_id", ValueType::Str),
            ("isbn", ValueType::Str),
            ("rating", ValueType::Int),
            ("reviewer", ValueType::Str),
        ],
        &["review_id"],
    )
    .expect("reviews schema is valid")
}

/// Generates reviews referencing the given book isbns: roughly `per_book`
/// reviews each for ~70% of the books (deterministic subset, so joins find
/// matches).
pub fn reviews(seed: u64, book_isbns: &[Value], per_book: usize) -> Relation {
    let mut rng = StdRng::seed_from_u64(seed);
    let schema = reviews_schema();
    let mut rows: Vec<Vec<Value>> = Vec::new();
    let mut id = 0usize;
    for (i, isbn) in book_isbns.iter().enumerate() {
        if i % 10 < 7 {
            let n = 1 + rng.random_range(0..per_book.max(1));
            for _ in 0..n {
                id += 1;
                rows.push(vec![
                    Value::str(format!("rev-{id:07}")),
                    isbn.clone(),
                    Value::Int(rng.random_range(1..6)),
                    Value::str(format!("Reader {:04}", rng.random_range(0..5000))),
                ]);
            }
        }
    }
    Relation::from_rows(schema, rows)
}

/// Schema of the flight source:
/// `flights(flight_no, origin, dest, airline, price, departs)`.
pub fn flights_schema() -> Arc<Schema> {
    Schema::new(
        "flights",
        vec![
            ("flight_no", ValueType::Str),
            ("origin", ValueType::Str),
            ("dest", ValueType::Str),
            ("airline", ValueType::Str),
            ("price", ValueType::Int),
            ("departs", ValueType::Str),
        ],
        &["flight_no"],
    )
    .expect("flights schema is valid")
}

const AIRPORTS: &[&str] = &["SFO", "JFK", "LAX", "ORD", "SEA", "BOS", "DEN"];
const AIRLINES: &[&str] = &["UA", "AA", "DL", "SW"];

/// Generates the flights relation.
pub fn flights(seed: u64, n: usize) -> Relation {
    let mut rng = StdRng::seed_from_u64(seed);
    let schema = flights_schema();
    let rows: Vec<Vec<Value>> = (0..n)
        .map(|i| {
            let o = AIRPORTS[rng.random_range(0..AIRPORTS.len())];
            let mut d = AIRPORTS[rng.random_range(0..AIRPORTS.len())];
            if d == o {
                d = AIRPORTS[(AIRPORTS.iter().position(|a| *a == o).unwrap() + 1) % AIRPORTS.len()];
            }
            vec![
                Value::str(format!("fl-{i:05}")),
                Value::str(o),
                Value::str(d),
                Value::str(AIRLINES[rng.random_range(0..AIRLINES.len())]),
                Value::Int(rng.random_range(79..1200)),
                Value::str(format!(
                    "1999-{:02}-{:02}",
                    rng.random_range(1..13),
                    rng.random_range(1..29)
                )),
            ]
        })
        .collect();
    Relation::from_rows(schema, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::select;
    use csqp_expr::parse::parse_condition;

    #[test]
    fn books_reproduce_example_1_1_profile() {
        let r = books(7, &BookGenConfig::default());
        assert_eq!(r.len(), 50_000);
        let dreams = parse_condition("title contains \"dreams\"").unwrap();
        let n_dreams = select(&r, Some(&dreams)).len();
        assert!(n_dreams > 2000, "paper: CNF plan extracts over 2,000; got {n_dreams}");
        let freud =
            parse_condition("author = \"Sigmund Freud\" ^ title contains \"dreams\"").unwrap();
        let jung = parse_condition("author = \"Carl Jung\" ^ title contains \"dreams\"").unwrap();
        let n2 = select(&r, Some(&freud)).len() + select(&r, Some(&jung)).len();
        assert_eq!(n2, 19, "paper: two-query plan extracts fewer than 20");
    }

    #[test]
    fn books_deterministic() {
        let cfg = BookGenConfig { n_books: 500, ..Default::default() };
        assert_eq!(books(3, &cfg), books(3, &cfg));
    }

    #[test]
    fn listings_profile() {
        let r = car_listings(11, &CarGenConfig { n_listings: 5000 });
        assert_eq!(r.len(), 5000);
        let q = parse_condition(
            "style = \"sedan\" ^ make = \"Toyota\" ^ price <= 20000 ^ \
             (size = \"compact\" _ size = \"midsize\")",
        )
        .unwrap();
        let n = select(&r, Some(&q)).len();
        assert!(n > 0 && n < 500, "toyota sedan slice should be selective; got {n}");
    }

    #[test]
    fn cars_have_expected_attrs() {
        let r = cars(5, 300);
        assert_eq!(r.len(), 300);
        let q = parse_condition("make = \"BMW\" ^ price < 40000").unwrap();
        assert!(!select(&r, Some(&q)).is_empty());
    }

    #[test]
    fn accounts_pins_are_deterministic() {
        let r = accounts(1, 50);
        let q = parse_condition("acct_no = \"acct-00007\" ^ pin = \"pin-00007\"").unwrap();
        assert_eq!(select(&r, Some(&q)).len(), 1);
        let wrong = parse_condition("acct_no = \"acct-00007\" ^ pin = \"pin-00008\"").unwrap();
        assert_eq!(select(&r, Some(&wrong)).len(), 0);
    }

    #[test]
    fn flights_have_no_self_loops() {
        let r = flights(9, 500);
        use csqp_expr::semantics::AttrLookup;
        for row in r.rows() {
            assert_ne!(row.get_attr("origin"), row.get_attr("dest"));
        }
    }
}
