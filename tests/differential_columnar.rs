//! Differential harness for the SQL executor: every query in the corpus,
//! the error list and the seeded star queries run through the naive
//! reference evaluator (`naive`: the unoptimized plan, interpreted row at
//! a time) and through each candidate engine configuration, and the
//! results must agree — same columns, same rows, in the same order when
//! the query orders them; floats to a 1e-9 relative tolerance. The
//! configurations that share the optimized plan must also agree with the
//! serial one row for row, in order, on every query.

mod naive;

use std::cmp::Ordering;
use std::sync::Arc;

use odbis_bench::workloads;
use odbis_sql::{Engine, QueryResult};
use odbis_storage::{Database, Value};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A database mixing the generated healthcare star schema with small
/// hand-built tables exercising NULLs, booleans, dates, negative numbers,
/// mixed-case text and integer SUMs that overflow i64.
fn corpus_db() -> Arc<Database> {
    let db = workloads::healthcare_db(500, 42);
    Engine::new()
        .execute_script(
            &db,
            "CREATE TABLE edge (id INT PRIMARY KEY, grp TEXT, val INT, score DOUBLE,
                                flag BOOLEAN, label TEXT, d DATE);
             CREATE INDEX idx_edge_val ON edge (val);
             INSERT INTO edge VALUES
               (1, 'a', 10, 1.5, TRUE, 'alpha', DATE '2020-01-01'),
               (2, 'a', NULL, 2.5, FALSE, 'beta', DATE '2020-02-01'),
               (3, 'b', 30, NULL, NULL, NULL, NULL),
               (4, NULL, 40, 4.0, TRUE, 'delta', DATE '2021-01-01'),
               (5, 'b', 0, 0.0, FALSE, 'Epsilon', DATE '2019-06-15'),
               (6, 'c', -7, -1.25, TRUE, 'zeta', DATE '2020-01-01');
             CREATE TABLE big (g INT, v INT);
             INSERT INTO big VALUES (1, 9223372036854775807), (1, 9223372036854775807),
                                    (2, 7), (2, -3), (3, NULL);",
        )
        .expect("corpus DDL");
    Arc::new(db)
}

/// The query corpus: scans, filters with three-valued logic, expression
/// projections, string/date functions, IN/BETWEEN/LIKE/CASE, joins,
/// grouped aggregates with HAVING, DISTINCT, ORDER BY with LIMIT/OFFSET,
/// index-friendly point and range predicates, and FROM-less selects.
const CORPUS: &[&str] = &[
    // plain scans and projections
    "SELECT * FROM edge",
    "SELECT id, label FROM edge",
    "SELECT id, val * 2 AS double_val, score + 1.0 AS bumped FROM edge",
    "SELECT id, -val AS neg, NOT flag AS unflag FROM edge",
    "SELECT * FROM fact_admission",
    "SELECT id, cost, stay_days FROM fact_admission",
    // filters, including 3VL around NULLs
    "SELECT id FROM edge WHERE val > 5",
    "SELECT id FROM edge WHERE val > 5 AND score < 3.0",
    "SELECT id FROM edge WHERE val > 5 OR score IS NULL",
    "SELECT id FROM edge WHERE grp IS NULL",
    "SELECT id FROM edge WHERE grp IS NOT NULL AND flag",
    "SELECT id FROM edge WHERE NOT (val >= 10)",
    "SELECT id FROM edge WHERE val <> 0 AND 100 / val > 5",
    "SELECT id FROM fact_admission WHERE cost > 1500.0 AND stay_days < 10",
    "SELECT id FROM fact_admission WHERE year = 2009 AND month >= 6",
    // arithmetic mixing ints and floats
    "SELECT id, val + score AS mixed, val % 3 AS rem FROM edge WHERE val IS NOT NULL",
    "SELECT id, cost / stay_days AS per_day FROM fact_admission WHERE stay_days > 0",
    // LIKE / IN / BETWEEN / CASE
    "SELECT id FROM edge WHERE label LIKE '%eta'",
    "SELECT id FROM edge WHERE label LIKE '_lpha'",
    "SELECT id FROM edge WHERE grp IN ('a', 'c')",
    "SELECT id FROM edge WHERE val IN (10, NULL, 40)",
    "SELECT id FROM edge WHERE val BETWEEN 0 AND 30",
    "SELECT id, CASE WHEN val > 20 THEN 'big' WHEN val > 0 THEN 'small' ELSE 'other' END AS size FROM edge",
    "SELECT id, CASE WHEN val <> 0 THEN 100 / val ELSE 0 END AS guarded FROM edge WHERE val IS NOT NULL",
    // scalar functions
    "SELECT id, UPPER(label) AS up, LENGTH(label) AS n FROM edge",
    "SELECT id, COALESCE(grp, 'none') AS g FROM edge",
    "SELECT id, ABS(val) AS a, ROUND(score) AS r FROM edge",
    // date handling
    "SELECT id FROM edge WHERE d >= DATE '2020-01-01'",
    "SELECT id, d FROM edge WHERE d IS NOT NULL ORDER BY d, id",
    // joins
    "SELECT f.id, d.name FROM fact_admission f JOIN dim_department d ON f.dept_id = d.dept_id WHERE f.cost > 2000.0 ORDER BY f.id",
    "SELECT e.id, f.id FROM edge e JOIN fact_admission f ON e.id = f.id ORDER BY e.id",
    "SELECT e.id, e2.label FROM edge e LEFT JOIN edge e2 ON e.val = e2.val ORDER BY e.id, e2.id",
    // grouped aggregates
    "SELECT grp, COUNT(*) AS n FROM edge GROUP BY grp",
    "SELECT grp, COUNT(val) AS n, SUM(val) AS s, AVG(score) AS m FROM edge GROUP BY grp",
    "SELECT dept_id, COUNT(*) AS n, SUM(cost) AS total, AVG(cost) AS mean FROM fact_admission GROUP BY dept_id",
    "SELECT year, month, SUM(cost) AS total FROM fact_admission GROUP BY year, month ORDER BY year, month",
    "SELECT dept_id, SUM(cost) AS total FROM fact_admission GROUP BY dept_id HAVING SUM(cost) > 10000.0",
    "SELECT COUNT(*) AS n, MIN(cost) AS lo, MAX(cost) AS hi FROM fact_admission",
    "SELECT COUNT(DISTINCT dept_id) AS depts FROM fact_admission",
    "SELECT grp, COUNT(DISTINCT val) AS n, MIN(label) AS lo, MAX(d) AS hi FROM edge GROUP BY grp",
    "SELECT dept_id, AVG(stay_days) AS mean FROM fact_admission GROUP BY dept_id",
    // SUM promotes to Float on i64 overflow, per group; all-NULL is NULL
    "SELECT g, SUM(v) AS s, AVG(v) AS m, COUNT(v) AS n FROM big GROUP BY g",
    "SELECT SUM(v) AS s FROM big",
    // booleans aggregate as 0/1
    "SELECT SUM(flag) AS s, AVG(flag) AS a FROM edge",
    "SELECT COUNT(*) AS n FROM edge WHERE val > 1000",
    // DISTINCT / ORDER BY / LIMIT / OFFSET
    "SELECT DISTINCT grp FROM edge",
    "SELECT DISTINCT year FROM fact_admission ORDER BY year",
    "SELECT id, cost FROM fact_admission ORDER BY cost DESC, id LIMIT 7",
    "SELECT id FROM fact_admission ORDER BY id LIMIT 5 OFFSET 490",
    "SELECT id FROM fact_admission ORDER BY id LIMIT 5 OFFSET 1000",
    // index-friendly predicates (point + range on PK / secondary index)
    "SELECT * FROM edge WHERE id = 3",
    "SELECT id FROM edge WHERE val >= 10 AND val <= 40 ORDER BY id",
    "SELECT id FROM fact_admission WHERE id BETWEEN 100 AND 110",
    // FROM-less
    "SELECT 1 + 2 AS three, UPPER('ok') AS ok",
];

/// The candidate engine configurations checked against the reference.
/// Index selection changes the plan shape (IndexScan vs filtered
/// TableScan), join reordering changes the join order, and the worker
/// count changes the morsel pipeline; none may change the answer.
fn candidates() -> Vec<(&'static str, Engine)> {
    vec![
        ("default", Engine::new()),
        ("no-index-selection", Engine::without_index_selection()),
        ("parallelism-1", Engine::new().with_parallelism(1)),
        ("parallelism-4", Engine::new().with_parallelism(4)),
        (
            "optimizer-disabled",
            Engine::new().with_optimizer_rules("none"),
        ),
    ]
}

/// Value equality with floats compared to a 1e-9 relative tolerance: a
/// parallel SUM merges partial sums in a different association than the
/// reference's running sum.
fn values_agree(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => {
            x == y || (x - y).abs() <= 1e-9 * x.abs().max(y.abs())
        }
        _ => a == b,
    }
}

fn rows_agree(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| values_agree(x, y))
}

/// Assert `candidate` answers `sql` like `reference`. Without `ORDER BY`
/// the row order is the plan's business (the reference runs unoptimized,
/// in scan and nested-loop order), so both sides are compared as sorted
/// multisets.
fn assert_agree(sql: &str, reference: &QueryResult, candidate: &QueryResult, label: &str) {
    assert_eq!(
        reference.columns, candidate.columns,
        "column mismatch ({label}) for: {sql}"
    );
    let (mut expected, mut got) = (reference.rows.clone(), candidate.rows.clone());
    if !sql.to_ascii_uppercase().contains("ORDER BY") {
        let total = |a: &Vec<Value>, b: &Vec<Value>| {
            a.iter()
                .zip(b)
                .map(|(x, y)| x.cmp_total(y))
                .find(|o| o.is_ne())
                .unwrap_or(Ordering::Equal)
        };
        expected.sort_by(total);
        got.sort_by(total);
    }
    assert_eq!(
        expected.len(),
        got.len(),
        "row count mismatch ({label}) for: {sql}"
    );
    for (i, (e, g)) in expected.iter().zip(&got).enumerate() {
        assert!(
            rows_agree(e, g),
            "row {i} mismatch ({label}) for: {sql}\n  reference: {e:?}\n  candidate: {g:?}"
        );
    }
}

/// Candidates that run the same optimized plan at different worker
/// counts; their rows must come out in the same order on every query.
const SAME_PLAN: [&str; 2] = ["default", "parallelism-4"];

/// Run `sql` on the reference and on each of `engines`, asserting success
/// and agreement. Besides the multiset/ordered check against the
/// reference, every [`SAME_PLAN`] candidate must return exactly the rows
/// of `parallelism-1`, in order: the executor's row order never depends
/// on the worker count, `ORDER BY` or not.
fn check_against_reference(db: &Database, sql: &str, engines: &[(&str, Engine)]) {
    let reference =
        naive::execute(db, sql).unwrap_or_else(|e| panic!("reference failed for {sql}: {e}"));
    let results: Vec<(&str, QueryResult)> = engines
        .iter()
        .map(|(label, engine)| {
            let candidate = engine
                .execute(db, sql)
                .unwrap_or_else(|e| panic!("{label} failed for {sql}: {e}"));
            assert_agree(sql, &reference, &candidate, label);
            (*label, candidate)
        })
        .collect();
    let Some((_, serial)) = results.iter().find(|(l, _)| *l == "parallelism-1") else {
        return;
    };
    for (label, candidate) in results.iter().filter(|(l, _)| SAME_PLAN.contains(l)) {
        assert_eq!(
            serial.rows, candidate.rows,
            "row order differs between parallelism-1 and {label} for: {sql}"
        );
    }
}

#[test]
fn vectorized_path_matches_row_path() {
    let db = corpus_db();
    let engines: Vec<_> = candidates()
        .into_iter()
        .filter(|(label, _)| *label != "no-index-selection")
        .collect();
    for sql in CORPUS {
        check_against_reference(&db, sql, &engines);
    }
}

#[test]
fn vectorized_path_matches_row_path_without_indexes() {
    let db = corpus_db();
    let engines: Vec<_> = candidates()
        .into_iter()
        .filter(|(label, _)| *label == "no-index-selection")
        .collect();
    for sql in CORPUS {
        check_against_reference(&db, sql, &engines);
    }
}

#[test]
fn both_paths_agree_on_errors() {
    // A column-wise candidate may surface a *different* failing row than
    // the row-at-a-time reference, so messages are not compared — but
    // whether a query errors must match.
    let db = corpus_db();
    let failing = [
        "SELECT 1 / 0",
        "SELECT id, 100 / val AS q FROM edge", // val = 0 on one row
        "SELECT -label FROM edge",             // negate text
        "SELECT id, val % 0 AS m FROM edge",   // modulo by zero
        "SELECT ghost FROM edge",              // unknown column
        "SELECT id FROM edge WHERE label + 1 > 0", // text arithmetic
    ];
    for sql in &failing {
        assert!(
            naive::execute(&db, sql).is_err(),
            "reference unexpectedly succeeded for: {sql}"
        );
        for (label, engine) in candidates() {
            assert!(
                engine.execute(&db, sql).is_err(),
                "{label} unexpectedly succeeded for: {sql}"
            );
        }
    }
}

/// The reference itself is checked against answers worked out by hand: a
/// LEFT JOIN that NULL-extends one row, grouped (NULL forms its own group,
/// first-seen order) and ordered DESC with a tie broken by the second key.
#[test]
fn naive_reference_matches_hand_computed_answer() {
    let db = Database::new();
    Engine::new()
        .execute_script(
            &db,
            "CREATE TABLE o (id INT, cust INT, amt INT);
             CREATE TABLE c (id INT, region TEXT);
             INSERT INTO o VALUES (1, 10, 5), (2, 20, 7), (3, 30, 9);
             INSERT INTO c VALUES (10, 'EU'), (20, 'US');",
        )
        .unwrap();
    let sql = "SELECT c.region, COUNT(*) AS n, SUM(o.amt) AS total \
               FROM o LEFT JOIN c ON o.cust = c.id \
               GROUP BY c.region ORDER BY n DESC, total DESC";
    // joined: (1,10,5,10,EU) (2,20,7,20,US) (3,30,9,NULL,NULL)
    // groups: EU → 1 row, 5; US → 1 row, 7; NULL → 1 row, 9
    // n ties at 1 everywhere, so total DESC decides: NULL 9, US 7, EU 5
    let expected = vec![
        vec![Value::Null, Value::Int(1), Value::Int(9)],
        vec![Value::from("US"), Value::Int(1), Value::Int(7)],
        vec![Value::from("EU"), Value::Int(1), Value::Int(5)],
    ];
    let r = naive::execute(&db, sql).unwrap();
    assert_eq!(r.columns, vec!["region", "n", "total"]);
    assert_eq!(r.rows, expected);
    check_against_reference(&db, sql, &candidates());
}

// ---------------------------------------------------------------------------
// Seeded random-query generator: star-schema queries (joins, group-by,
// order/limit) checked against the reference on every candidate engine
// configuration. The seeds are the
// chaos suite's replay constants — rerun a failure by grepping the printed
// query.
// ---------------------------------------------------------------------------

const GENERATOR_SEEDS: [u64; 2] = [3_405_691_582, 195_948_557];
const QUERIES_PER_SEED: usize = 60;

/// One random star-schema SELECT. Joins, filters, grouped aggregates and
/// ORDER BY/LIMIT are all drawn independently; column references are
/// qualified whenever the dimension table is in scope so nothing is
/// ambiguous.
fn gen_query(rng: &mut StdRng) -> String {
    let join = rng.random_bool(0.5);
    let group = rng.random_bool(0.5);

    let mut filters: Vec<String> = Vec::new();
    if rng.random_bool(0.6) {
        filters.push(format!("f.cost > {}.0", rng.random_range(500..2500i64)));
    }
    if rng.random_bool(0.4) {
        filters.push(format!("f.year = {}", rng.random_range(2008..=2010i64)));
    }
    if rng.random_bool(0.3) {
        let lo = rng.random_range(1..=10i64);
        filters.push(format!(
            "f.stay_days BETWEEN {lo} AND {}",
            lo + rng.random_range(0..=11i64)
        ));
    }
    if rng.random_bool(0.25) {
        filters.push(format!("f.dept_id = {}", rng.random_range(0..7i64)));
    }
    if join && rng.random_bool(0.3) {
        filters.push(format!("d.head_count > {}", rng.random_range(20..200i64)));
    }

    let from = if join {
        "fact_admission f JOIN dim_department d ON f.dept_id = d.dept_id"
    } else {
        "fact_admission f"
    };
    let where_clause = if filters.is_empty() {
        String::new()
    } else {
        format!(" WHERE {}", filters.join(" AND "))
    };

    if group {
        let keys: &[&str] = if join {
            &["d.name", "f.year", "f.month"]
        } else {
            &["f.dept_id", "f.year", "f.month"]
        };
        let n_keys = rng.random_range(1..=2usize);
        let mut chosen: Vec<&str> = Vec::new();
        while chosen.len() < n_keys {
            let k = keys[rng.random_range(0..keys.len())];
            if !chosen.contains(&k) {
                chosen.push(k);
            }
        }
        let aggs = [
            "COUNT(*) AS n",
            "SUM(f.cost) AS total",
            "AVG(f.cost) AS mean",
            "MIN(f.stay_days) AS lo",
            "MAX(f.stay_days) AS hi",
        ];
        let agg = aggs[rng.random_range(0..aggs.len())];
        let having = if rng.random_bool(0.25) {
            format!(" HAVING COUNT(*) > {}", rng.random_range(1..10i64))
        } else {
            String::new()
        };
        let key_list = chosen.join(", ");
        format!(
            "SELECT {key_list}, {agg} FROM {from}{where_clause} \
             GROUP BY {key_list}{having} ORDER BY {key_list}"
        )
    } else {
        let cols: &[&str] = if join {
            &["f.id", "f.cost", "f.stay_days", "d.name", "f.year"]
        } else {
            &["f.id", "f.cost", "f.stay_days", "f.dept_id", "f.year"]
        };
        let n_cols = rng.random_range(1..=3usize);
        let mut chosen: Vec<&str> = vec!["f.id"];
        while chosen.len() < n_cols {
            let c = cols[rng.random_range(0..cols.len())];
            if !chosen.contains(&c) {
                chosen.push(c);
            }
        }
        let limit = if rng.random_bool(0.5) {
            let mut l = format!(" LIMIT {}", rng.random_range(1..50i64));
            if rng.random_bool(0.4) {
                l.push_str(&format!(" OFFSET {}", rng.random_range(0..100i64)));
            }
            l
        } else {
            String::new()
        };
        format!(
            "SELECT {} FROM {from}{where_clause} ORDER BY f.id{limit}",
            chosen.join(", ")
        )
    }
}

/// Every generated query must agree with the naive reference on every
/// candidate configuration.
#[test]
fn random_star_queries_agree_across_engine_configs() {
    let db = corpus_db();
    let engines = candidates();
    for seed in GENERATOR_SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..QUERIES_PER_SEED {
            let sql = gen_query(&mut rng);
            check_against_reference(&db, &sql, &engines);
        }
    }
}

/// Multi-morsel check: at 20k fact rows the scan splits into several
/// morsels, exercising the per-worker partial accumulators and the ordered
/// merge. Integer aggregates (COUNT/SUM-of-INT/MIN/MAX) must be *exactly*
/// equal across every configuration; float SUM/AVG are checked to a
/// relative tolerance because the merge-tree shape changes with the worker
/// count and float addition is not associative.
#[test]
fn multi_morsel_aggregates_agree_across_parallelism() {
    let db = Arc::new(workloads::healthcare_db(20_000, 11));
    let reference = Engine::new().with_parallelism(1);
    let exact_queries = [
        "SELECT dept_id, COUNT(*) AS n, SUM(stay_days) AS days, MIN(id) AS lo, MAX(id) AS hi \
         FROM fact_admission GROUP BY dept_id ORDER BY dept_id",
        "SELECT year, COUNT(*) AS n FROM fact_admission WHERE stay_days > 7 \
         GROUP BY year ORDER BY year",
    ];
    let float_queries = ["SELECT dept_id, SUM(cost) AS total, AVG(cost) AS mean \
         FROM fact_admission GROUP BY dept_id ORDER BY dept_id"];
    for workers in [2usize, 4, 8] {
        let engine = Engine::new().with_parallelism(workers);
        for sql in exact_queries {
            let expected = reference.execute(&db, sql).unwrap();
            let got = engine.execute(&db, sql).unwrap();
            assert_eq!(expected.rows, got.rows, "workers={workers} for: {sql}");
        }
        for sql in float_queries {
            let expected = reference.execute(&db, sql).unwrap();
            let got = engine.execute(&db, sql).unwrap();
            assert_eq!(
                expected.rows.len(),
                got.rows.len(),
                "workers={workers} for: {sql}"
            );
            for (e, g) in expected.rows.iter().zip(&got.rows) {
                assert!(
                    rows_agree(e, g),
                    "workers={workers}: {e:?} vs {g:?} for: {sql}"
                );
            }
        }
    }
}

#[test]
fn batch_entry_point_matches_row_pivoted_result() {
    let db = corpus_db();
    let engine = Engine::new();
    for sql in CORPUS.iter().filter(|s| s.starts_with("SELECT")) {
        let result = engine.execute(&db, sql).unwrap();
        let (columns, batch) = engine.execute_select_batch(&db, sql).unwrap();
        assert_eq!(result.columns, columns, "columns for: {sql}");
        assert_eq!(result.rows, batch.to_rows(), "rows for: {sql}");
    }
}
