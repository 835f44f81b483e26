//! A small oblivious query pipeline built from the operator library:
//!
//! ```sql
//! SELECT o.region, SUM(l.price * o.weight)          -- SumProducts per key
//! FROM   orders o JOIN lineitem l ON o.order_id = l.order_id
//! WHERE  l.price >= 20
//! GROUP BY o.order_id
//! ```
//!
//! plus a couple of supporting statistics (distinct keys, semi-join sizes),
//! all computed with access patterns that depend only on table sizes and the
//! revealed result sizes — the direction the paper's conclusion points at
//! ("grouping aggregations over joins could be computed using fewer sorting
//! steps than a full join would require").
//!
//! Run with:
//! ```text
//! cargo run --release --example oblivious_query
//! ```

use obliv_join_suite::prelude::*;
use obliv_trace::Tracer;

fn main() {
    let workload = orders_lineitem(1_000, 11);
    let orders = WideTable::from_pair_named(&workload.left, "order_id", "weight").unwrap();
    let lineitem = WideTable::from_pair_named(&workload.right, "order_id", "price").unwrap();
    let tracer = Tracer::new(CountingSink::new());

    println!(
        "orders: {} rows, lineitem: {} rows, full join would have {} rows",
        orders.len(),
        lineitem.len(),
        workload.output_size
    );

    // WHERE l.price >= 20 — oblivious selection.
    let expensive = wide_filter(
        &tracer,
        &lineitem,
        &WidePredicate::at_least("price", Value::U64(20)),
    )
    .unwrap();
    println!("lineitem rows with price >= 20: {}", expensive.len());

    // GROUP BY order_id, SUM(price * weight) over the join — computed
    // without materialising the join at all.
    let revenue = wide_join_aggregate(
        &tracer,
        &orders,
        &expensive,
        "order_id",
        "order_id",
        Some("weight"),
        Some("price"),
        JoinAggregate::SumProducts,
    )
    .unwrap()
    .project_pair("order_id", "sum_products")
    .unwrap();
    println!(
        "orders with at least one expensive line item: {}",
        revenue.len()
    );
    let top = revenue
        .rows()
        .iter()
        .max_by_key(|e| e.value)
        .expect("non-empty");
    println!(
        "largest weighted revenue: order {} -> {}",
        top.key, top.value
    );

    // Cross-check against a plaintext materialisation of the same query.
    let mut reference: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    for o in workload.left.iter() {
        for l in workload
            .right
            .iter()
            .filter(|l| l.key == o.key && l.value >= 20)
        {
            *reference.entry(o.key).or_insert(0) += o.value * l.value;
        }
    }
    let aggregate_as_map: std::collections::BTreeMap<u64, u64> =
        revenue.rows().iter().map(|e| (e.key, e.value)).collect();
    assert_eq!(
        aggregate_as_map, reference,
        "join-aggregate must equal the materialised reference"
    );
    println!("join-aggregate result verified against a materialised reference ✓");

    // A few more operators from the library, for flavour.
    let orders_with_items =
        wide_semi_join(&tracer, &orders, &lineitem, "order_id", "order_id").unwrap();
    let orders_without_items =
        wide_anti_join(&tracer, &orders, &lineitem, "order_id", "order_id").unwrap();
    let prices = wide_project(&tracer, &lineitem, &["price".to_string()]).unwrap();
    let distinct_prices = wide_distinct(&tracer, &prices).unwrap();
    println!(
        "orders with line items: {}, without: {}, distinct prices: {}",
        orders_with_items.len(),
        orders_without_items.len(),
        distinct_prices.len()
    );

    let totals = tracer.with_sink(|s| s.overall());
    println!(
        "\nwhole pipeline: {} public-memory reads, {} writes — all at data-independent addresses",
        totals.reads, totals.writes
    );
}
