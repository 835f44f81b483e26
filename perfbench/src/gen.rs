//! Seeded input generation.
//!
//! Every workload draws its inputs from one `--seed`.  The seed decides
//! contents only: row counts, key cardinalities, join output sizes `m`,
//! hot-set size, mix shares and the refresh period are constants of the
//! workload ([`Params`]), so two seeds give inputs of identical public
//! shape and different contents.  The unit tests assert exactly that.

use obliv_join::schema::{ColumnType, Schema, Value, WideTable};
use obliv_join::Table;

/// SplitMix64: a tiny, well-mixed deterministic generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    /// An independent stream for one purpose (`salt`) of one seed.
    pub fn stream(seed: u64, salt: u64) -> Rng {
        let mut r = Rng::new(seed.wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Draws from a fixed multiset in seeded order, reshuffling after each
/// pass, so every full pass has exactly the multiset's proportions: a
/// request stream's mix then barely depends on the seed.
#[derive(Debug, Clone)]
pub struct Deck<T> {
    items: Vec<T>,
    next: usize,
}

impl<T: Copy> Deck<T> {
    pub fn new(items: Vec<T>) -> Deck<T> {
        Deck {
            next: items.len(),
            items,
        }
    }

    pub fn draw(&mut self, rng: &mut Rng) -> T {
        if self.next == self.items.len() {
            rng.shuffle(&mut self.items);
            self.next = 0;
        }
        self.next += 1;
        self.items[self.next - 1]
    }
}

/// The public parameters of one workload: everything an observer of the
/// oblivious program may learn, plus the shape of the request stream.
/// None of it depends on the seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Params {
    pub entries: Vec<(&'static str, u64)>,
}

impl Params {
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .entries
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

/// `fig8_kernel`: `n₁ = n₂ = n/2` with unique matching keys (`m = n/2`),
/// the balanced Figure 8 shape.
pub const FIG8_HALF: usize = 1 << 15;

/// `join_skew`: rows per side, distinct join keys, and rows per key per
/// side (so `m = keys · per_key²`).
pub const SKEW_KEYS: u64 = 64;
pub const SKEW_PER_KEY: u64 = 4;
pub const SKEW_ROWS: usize = (SKEW_KEYS * SKEW_PER_KEY) as usize;

/// Range of the seeded payload columns.
pub const VALUE_RANGE: u64 = 1_000_000;

/// A seeded filter constant from a narrow band in the middle of the value
/// range: every `c >= X` keeps between about 40 % and 50 % of its rows, so
/// per-query cost barely depends on the draw, while the band still holds
/// enough distinct constants that a stream never repeats a plan by chance.
pub fn filter_constant(rng: &mut Rng) -> u64 {
    VALUE_RANGE / 2 + rng.below(VALUE_RANGE / 10)
}

/// A wide table with `keys` distinct join keys, exactly `per_key` rows per
/// key (rows in seeded order), and seeded payload columns.
fn keyed_wide(
    schema: Schema,
    keys: u64,
    per_key: u64,
    rng: &mut Rng,
    payload: impl Fn(&mut Rng) -> Vec<Value>,
) -> WideTable {
    let mut key_col: Vec<u64> = (0..keys * per_key).map(|i| i % keys).collect();
    rng.shuffle(&mut key_col);
    WideTable::from_rows(
        schema,
        key_col.into_iter().map(|k| {
            let mut row = vec![Value::U64(k * 7 + 1)];
            row.extend(payload(rng));
            row
        }),
    )
    .expect("generated rows conform to the schema")
}

/// The two `join_skew` tables: `a(k, p, q, s)` and `b(k, x, y)`.
pub fn skew_tables(seed: u64) -> (WideTable, WideTable) {
    let mut rng = Rng::stream(seed, 2);
    let a_schema = Schema::new([
        ("k", ColumnType::U64),
        ("p", ColumnType::U64),
        ("q", ColumnType::I64),
        ("s", ColumnType::U64),
    ])
    .expect("static schema");
    let b_schema = Schema::new([
        ("k", ColumnType::U64),
        ("x", ColumnType::U64),
        ("y", ColumnType::U64),
    ])
    .expect("static schema");
    let a = keyed_wide(a_schema, SKEW_KEYS, SKEW_PER_KEY, &mut rng, |r| {
        vec![
            Value::U64(r.below(VALUE_RANGE)),
            Value::I64(r.below(2001) as i64 - 1000),
            Value::U64(r.below(VALUE_RANGE)),
        ]
    });
    let b = keyed_wide(b_schema, SKEW_KEYS, SKEW_PER_KEY, &mut rng, |r| {
        vec![
            Value::U64(r.below(VALUE_RANGE)),
            Value::U64(r.below(VALUE_RANGE)),
        ]
    });
    (a, b)
}

/// `serve_mix`: orders, line items per order (fixed, so the line-item
/// count is public and seed-independent), and the pair-schema tables.
pub const MIX_ORDERS: usize = 64;
pub const MIX_ITEMS_PER_ORDER: usize = 4;
pub const MIX_PAIR_KEYS: u64 = 32;
pub const MIX_PAIR_PER_KEY: u64 = 4;

const REGIONS: [&[u8; 4]; 4] = [b"east", b"west", b"nrth", b"sth "];

/// The wide `orders(o_key, price, priority, urgent, region)` and
/// `lineitem(o_key, qty, tax, part)` tables: the schema of
/// `obliv_workloads::wide_orders_lineitem`, with a fixed number of line
/// items per order.
pub fn mix_wide_tables(seed: u64) -> (WideTable, WideTable) {
    let mut rng = Rng::stream(seed, 3);
    let orders_schema = Schema::new([
        ("o_key", ColumnType::U64),
        ("price", ColumnType::U64),
        ("priority", ColumnType::I64),
        ("urgent", ColumnType::Bool),
        ("region", ColumnType::Bytes(4)),
    ])
    .expect("static schema");
    let orders = WideTable::from_rows(
        orders_schema,
        (0..MIX_ORDERS as u64).map(|o| {
            vec![
                Value::U64(o),
                Value::U64(rng.below(VALUE_RANGE)),
                Value::I64(rng.below(VALUE_RANGE) as i64 - (VALUE_RANGE / 2) as i64),
                Value::Bool(rng.below(4) == 0),
                Value::Bytes(REGIONS[rng.below(4) as usize].to_vec()),
            ]
        }),
    )
    .expect("generated rows conform to the schema");
    let lineitem_schema = Schema::new([
        ("o_key", ColumnType::U64),
        ("qty", ColumnType::U64),
        ("tax", ColumnType::I64),
        ("part", ColumnType::Bytes(8)),
    ])
    .expect("static schema");
    let mut items: Vec<Vec<Value>> = Vec::new();
    for order in 0..MIX_ORDERS as u64 {
        for item in 0..MIX_ITEMS_PER_ORDER as u64 {
            let part = format!("pt{:03}-{:02}", rng.below(1000), item);
            items.push(vec![
                Value::U64(order),
                Value::U64(rng.below(VALUE_RANGE)),
                Value::I64(rng.below(VALUE_RANGE) as i64 - (VALUE_RANGE / 2) as i64),
                Value::Bytes(part.into_bytes()),
            ]);
        }
    }
    rng.shuffle(&mut items);
    let lineitem =
        WideTable::from_rows(lineitem_schema, items).expect("generated rows conform to the schema");
    (orders, lineitem)
}

/// A pair table of `keys · per_key` rows, exactly `per_key` rows per key,
/// seeded values in `0..VALUE_RANGE`.
pub fn pair_table(keys: u64, per_key: u64, rng: &mut Rng) -> Table {
    let mut key_col: Vec<u64> = (0..keys * per_key).map(|i| i % keys).collect();
    rng.shuffle(&mut key_col);
    Table::from_pairs(key_col.into_iter().map(|k| (k, rng.below(VALUE_RANGE))))
}

/// The serve mix's pair-schema tables `pl` and `pr`.
pub fn mix_pair_tables(seed: u64) -> (Table, Table) {
    let mut rng = Rng::stream(seed, 4);
    (
        pair_table(MIX_PAIR_KEYS, MIX_PAIR_PER_KEY, &mut rng),
        pair_table(MIX_PAIR_KEYS, MIX_PAIR_PER_KEY, &mut rng),
    )
}

/// `shard_join`: `orders` (partitioned) and `customers` (replicated).
pub const SHARD_KEYS: u64 = 64;
pub const SHARD_PER_KEY: u64 = 6;
pub const SHARD_COUNT: usize = 2;

pub fn shard_tables(seed: u64) -> (Table, Table) {
    let mut rng = Rng::stream(seed, 5);
    (
        pair_table(SHARD_KEYS, SHARD_PER_KEY, &mut rng),
        pair_table(SHARD_KEYS, SHARD_PER_KEY, &mut rng),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn histogram(t: &Table) -> BTreeMap<u64, u64> {
        t.key_histogram()
    }

    fn wide_key_counts(t: &WideTable, key: &str) -> Vec<u64> {
        let mut counts: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
        for i in 0..t.len() {
            *counts
                .entry(format!("{:?}", t.value(i, key).unwrap()).into_bytes())
                .or_default() += 1;
        }
        let mut v: Vec<u64> = counts.into_values().collect();
        v.sort_unstable();
        v
    }

    fn rows(t: &WideTable) -> Vec<Vec<Value>> {
        (0..t.len()).map(|i| t.row_values(i)).collect()
    }

    #[test]
    fn two_seeds_give_identical_public_shape_and_different_contents() {
        let (s1, s2) = (11, 12);

        let w1 = obliv_workloads::balanced_unique_keys(1024, s1);
        let w2 = obliv_workloads::balanced_unique_keys(1024, s2);
        assert_eq!(w1.output_size, w2.output_size);
        assert_eq!(w1.left.key_histogram(), w2.left.key_histogram());
        assert_ne!(w1.left.rows(), w2.left.rows());

        let (a1, b1) = skew_tables(s1);
        let (a2, b2) = skew_tables(s2);
        for (x, y) in [(&a1, &a2), (&b1, &b2)] {
            assert_eq!(x.len(), SKEW_ROWS);
            assert_eq!(x.schema(), y.schema());
            assert_eq!(wide_key_counts(x, "k"), wide_key_counts(y, "k"));
            assert_eq!(
                wide_key_counts(x, "k"),
                vec![SKEW_PER_KEY; SKEW_KEYS as usize]
            );
            assert_ne!(rows(x), rows(y));
        }

        let (o1, li1) = mix_wide_tables(s1);
        let (o2, li2) = mix_wide_tables(s2);
        assert_eq!((o1.len(), li1.len()), (o2.len(), li2.len()));
        assert_eq!(li1.len(), MIX_ORDERS * MIX_ITEMS_PER_ORDER);
        assert_eq!(
            wide_key_counts(&li1, "o_key"),
            wide_key_counts(&li2, "o_key")
        );
        assert_ne!(rows(&o1), rows(&o2));
        assert_ne!(rows(&li1), rows(&li2));

        let (p1, q1) = mix_pair_tables(s1);
        let (p2, q2) = mix_pair_tables(s2);
        let (c1, d1) = shard_tables(s1);
        let (c2, d2) = shard_tables(s2);
        for (x, y) in [(&p1, &p2), (&q1, &q2), (&c1, &c2), (&d1, &d2)] {
            assert_eq!(histogram(x), histogram(y));
            assert_ne!(x.rows(), y.rows());
        }
    }

    #[test]
    fn every_pass_of_a_deck_has_its_proportions() {
        let mut deck = Deck::new(vec![1, 1, 1, 2]);
        let mut rng = Rng::new(3);
        for _ in 0..5 {
            let mut pass: Vec<u32> = (0..4).map(|_| deck.draw(&mut rng)).collect();
            pass.sort_unstable();
            assert_eq!(pass, vec![1, 1, 1, 2]);
        }
    }

    #[test]
    fn same_seed_gives_same_inputs() {
        assert_eq!(
            skew_tables(5).0.row_values(3),
            skew_tables(5).0.row_values(3)
        );
        assert_eq!(shard_tables(5).1.rows(), shard_tables(5).1.rows());
    }
}
