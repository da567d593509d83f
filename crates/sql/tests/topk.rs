//! Regression tests for the top-k fast path: `LIMIT` directly above
//! `ORDER BY` runs through a bounded binary heap instead of a full sort,
//! and must reproduce the stable full-sort prefix exactly — including tie
//! order, DESC keys, NULL placement, and OFFSET handling.

use odbis_sql::Engine;
use odbis_storage::Database;

/// 300 rows with heavy duplication in the sort key so ties are the common
/// case, plus NULLs in both a sort key and a payload column.
fn db() -> Database {
    let db = Database::new();
    let engine = Engine::new();
    engine
        .execute(
            &db,
            "CREATE TABLE ranked (id INT PRIMARY KEY, bucket INT, score DOUBLE, tag TEXT)",
        )
        .expect("DDL");
    let rows: Vec<String> = (0..300)
        .map(|i| {
            let bucket = i % 7;
            let score = if i % 11 == 0 {
                "NULL".to_string()
            } else {
                format!("{}.5", i % 13)
            };
            let tag = if i % 5 == 0 {
                "NULL".to_string()
            } else {
                format!("'t{}'", i % 3)
            };
            format!("({i}, {bucket}, {score}, {tag})")
        })
        .collect();
    engine
        .execute(
            &db,
            &format!("INSERT INTO ranked VALUES {}", rows.join(", ")),
        )
        .expect("rows");
    db
}

/// The heap path must equal the full sort truncated at the same point.
fn assert_topk_matches_full_sort(db: &Database, order: &str, limit: usize, offset: usize) {
    let engine = Engine::new();
    let full = engine
        .execute(
            db,
            &format!("SELECT id, bucket, score FROM ranked ORDER BY {order}"),
        )
        .expect("full sort");
    let suffix = if offset > 0 {
        format!(" LIMIT {limit} OFFSET {offset}")
    } else {
        format!(" LIMIT {limit}")
    };
    let topk = engine
        .execute(
            db,
            &format!("SELECT id, bucket, score FROM ranked ORDER BY {order}{suffix}"),
        )
        .expect("top-k");
    let expected: Vec<_> = full.rows.iter().skip(offset).take(limit).cloned().collect();
    assert_eq!(
        topk.rows, expected,
        "top-k mismatch for ORDER BY {order}{suffix}"
    );
}

#[test]
fn topk_equals_full_sort_prefix() {
    let db = db();
    assert_topk_matches_full_sort(&db, "bucket, id", 10, 0);
    assert_topk_matches_full_sort(&db, "score DESC, id", 25, 0);
    assert_topk_matches_full_sort(&db, "bucket", 40, 0);
}

#[test]
fn topk_ties_are_stable_like_full_sort() {
    // `bucket` alone leaves ~43 ties per key; the heap's sequence-number
    // tiebreak must reproduce the stable sort's input order.
    let db = db();
    assert_topk_matches_full_sort(&db, "bucket", 50, 0);
    assert_topk_matches_full_sort(&db, "tag, bucket", 60, 0);
}

#[test]
fn topk_respects_offset() {
    let db = db();
    assert_topk_matches_full_sort(&db, "bucket, id", 10, 35);
    assert_topk_matches_full_sort(&db, "score, id", 5, 295); // tail
    assert_topk_matches_full_sort(&db, "id", 5, 400); // past the end
}

#[test]
fn topk_with_limit_beyond_input_is_the_whole_sort() {
    let db = db();
    assert_topk_matches_full_sort(&db, "score DESC, id DESC", 1000, 0);
}

/// The heap path must not depend on the worker count: serial and
/// morsel-parallel runs both equal the full-sort reference, which is
/// computed serially.
#[test]
fn topk_agrees_across_parallelism() {
    let db = db();
    let filtered = "SELECT id, score FROM ranked WHERE bucket < 5 ORDER BY score DESC, id";
    let full = Engine::new()
        .with_parallelism(1)
        .execute(&db, filtered)
        .expect("full sort");
    let expected: Vec<_> = full.rows.iter().take(12).cloned().collect();
    for n in [1, 4] {
        let topk = Engine::new()
            .with_parallelism(n)
            .execute(&db, &format!("{filtered} LIMIT 12"))
            .expect("top-k");
        assert_eq!(topk.columns, full.columns, "parallelism {n}");
        assert_eq!(topk.rows, expected, "parallelism {n}");
    }
}
