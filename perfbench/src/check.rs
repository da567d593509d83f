//! Answer checks. A sampled response body is compared, value by value,
//! against a reference the benchmark computes itself with a serial engine
//! (`Engine::with_parallelism(1)`) over the same data. Numbers compare to
//! a 1e-9 relative tolerance and may arrive as JSON numbers or as JSON
//! strings, so a change of the result encoding does not fail the check.

use odbis::TenantWorkspace;
use odbis_sql::Engine;
use odbis_storage::Value;
use serde_json::Value as Json;

use crate::data::{Op, DATASETS};

pub const REL_TOL: f64 = 1e-9;

/// What a correct response holds.
#[derive(Debug, Clone, PartialEq)]
pub enum Expected {
    /// An ordered SQL or data-set result.
    Rows(Vec<Vec<Value>>),
    /// MDX cells in any order: (coordinates, measures).
    Cells(Vec<(Vec<Value>, Vec<Value>)>),
    Health,
}

fn serial() -> Engine {
    Engine::new().with_parallelism(1)
}

/// The reference answer for a read, from the workspace's current data.
pub fn reference(ws: &TenantWorkspace, op: &Op) -> Result<Expected, String> {
    let rows = |sql: &str| -> Result<Vec<Vec<Value>>, String> {
        serial()
            .execute(&ws.warehouse, sql)
            .map(|r| r.rows)
            .map_err(|e| format!("reference query failed: {e}"))
    };
    match op {
        Op::Sql(sql) => rows(sql).map(Expected::Rows),
        Op::Dataset(name) => {
            let (_, sql) = DATASETS
                .iter()
                .find(|(n, _)| n == name)
                .ok_or_else(|| format!("unknown data set {name}"))?;
            rows(sql).map(Expected::Rows)
        }
        Op::Mdx(text) => {
            let stmt = odbis_olap::parse_mdx(text).map_err(|e| e.to_string())?;
            let cube = ws
                .cube_defs
                .read()
                .get(&stmt.cube)
                .cloned()
                .ok_or_else(|| format!("unknown cube {}", stmt.cube))?;
            let sql = ws
                .cubes
                .generate_sql(&cube, &stmt.query)
                .map_err(|e| e.to_string())?;
            let axes = stmt.query.axes.len();
            Ok(Expected::Cells(
                rows(&sql)?
                    .into_iter()
                    .map(|mut r| {
                        let measures = r.split_off(axes);
                        (r, measures)
                    })
                    .collect(),
            ))
        }
        Op::Health => Ok(Expected::Health),
    }
}

fn as_number(got: &Json) -> Option<f64> {
    got.as_f64()
        .or_else(|| got.as_str().and_then(|s| s.trim().parse().ok()))
}

/// Compare one value; `Ok` when equal within tolerance.
pub fn value_matches(expected: &Value, got: &Json) -> Result<(), String> {
    let ok = match expected {
        Value::Int(i) => as_number(got).is_some_and(|g| g == *i as f64),
        Value::Float(f) => as_number(got)
            .is_some_and(|g| g == *f || (g - f).abs() <= REL_TOL * g.abs().max(f.abs())),
        Value::Null => got.is_null() || got.as_str() == Some("NULL"),
        Value::Bool(b) => got.as_bool() == Some(*b) || got.as_str() == Some(&expected.render()),
        Value::Text(s) => got.as_str() == Some(s.as_str()),
        other => got.as_str() == Some(other.render().as_str()),
    };
    if ok {
        Ok(())
    } else {
        Err(format!("expected {expected:?}, got {got}"))
    }
}

fn row_matches(expected: &[Value], got: &Json) -> Result<(), String> {
    let got = got.as_array().ok_or("row is not an array")?;
    if got.len() != expected.len() {
        return Err(format!("row width {} != {}", got.len(), expected.len()));
    }
    expected
        .iter()
        .zip(got)
        .try_for_each(|(e, g)| value_matches(e, g))
}

/// Check a 2xx response body against the expected answer.
pub fn body_matches(expected: &Expected, body: &str) -> Result<(), String> {
    let json: Json = serde_json::from_str(body).map_err(|e| format!("body is not JSON: {e}"))?;
    match expected {
        Expected::Health => match json.get("status").and_then(Json::as_str) {
            Some("up") => Ok(()),
            _ => Err(format!("health body {body}")),
        },
        Expected::Rows(rows) => {
            let got = json
                .get("rows")
                .and_then(Json::as_array)
                .ok_or("no rows array")?;
            if got.len() != rows.len() {
                return Err(format!("{} rows, expected {}", got.len(), rows.len()));
            }
            rows.iter()
                .zip(got)
                .enumerate()
                .try_for_each(|(i, (e, g))| row_matches(e, g).map_err(|m| format!("row {i}: {m}")))
        }
        Expected::Cells(cells) => {
            let got = json
                .get("cells")
                .and_then(Json::as_array)
                .ok_or("no cells array")?;
            if got.len() != cells.len() {
                return Err(format!("{} cells, expected {}", got.len(), cells.len()));
            }
            for cell in got {
                let coords = cell.get("coords").ok_or("cell without coords")?;
                let measures = cell.get("measures").ok_or("cell without measures")?;
                let (_, want) = cells
                    .iter()
                    .find(|(c, _)| row_matches(c, coords).is_ok())
                    .ok_or_else(|| format!("unexpected cell {coords}"))?;
                row_matches(want, measures).map_err(|m| format!("cell {coords}: {m}"))?;
            }
            Ok(())
        }
    }
}

/// `rowsAffected` of a write response (number or string).
pub fn rows_affected(body: &str) -> Option<u64> {
    let json: Json = serde_json::from_str(body).ok()?;
    as_number(json.get("rowsAffected")?).map(|n| n as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_match_as_json_numbers_or_strings() {
        let f = Value::Float(1234.5678);
        assert!(value_matches(&f, &Json::from("1234.5678")).is_ok());
        assert!(value_matches(&f, &Json::from(1234.5678)).is_ok());
        // within 1e-9 relative: a different summation order
        assert!(value_matches(&f, &Json::from(1234.5678 * (1.0 + 1e-12))).is_ok());
        assert!(value_matches(&f, &Json::from(1234.5678 * (1.0 + 1e-6))).is_err());
        assert!(value_matches(&Value::Int(7), &Json::from(7)).is_ok());
        assert!(value_matches(&Value::Int(7), &Json::from("7")).is_ok());
        assert!(value_matches(&Value::Int(7), &Json::from("8")).is_err());
        assert!(value_matches(&Value::Null, &Json::Null).is_ok());
        assert!(value_matches(&Value::from("DX01"), &Json::from("DX01")).is_ok());
        assert!(value_matches(&Value::from("DX01"), &Json::from("DX02")).is_err());
    }

    #[test]
    fn row_results_compare_in_order() {
        let want = Expected::Rows(vec![vec![Value::from("a"), Value::Int(2)]]);
        assert!(body_matches(&want, r#"{"columns":["n","c"],"rows":[["a","2"]]}"#).is_ok());
        assert!(body_matches(&want, r#"{"columns":["n","c"],"rows":[["a",2]]}"#).is_ok());
        assert!(body_matches(&want, r#"{"rows":[["a","3"]]}"#).is_err());
        assert!(body_matches(&want, r#"{"rows":[]}"#).is_err());
        assert!(body_matches(&want, "not json").is_err());
    }

    #[test]
    fn cells_compare_in_any_order() {
        let want = Expected::Cells(vec![
            (
                vec![Value::from("x")],
                vec![Value::Float(1.5), Value::Int(2)],
            ),
            (
                vec![Value::from("y")],
                vec![Value::Float(3.0), Value::Int(4)],
            ),
        ]);
        let body = r#"{"cells":[{"coords":["y"],"measures":["3.0","4"]},{"coords":["x"],"measures":[1.5,2]}]}"#;
        assert!(body_matches(&want, body).is_ok());
        let wrong = r#"{"cells":[{"coords":["y"],"measures":["3.0","5"]},{"coords":["x"],"measures":[1.5,2]}]}"#;
        assert!(body_matches(&want, wrong).is_err());
    }

    #[test]
    fn rows_affected_reads_numbers_and_strings() {
        assert_eq!(rows_affected(r#"{"rowsAffected":20}"#), Some(20));
        assert_eq!(rows_affected(r#"{"rowsAffected":"20"}"#), Some(20));
        assert_eq!(rows_affected("{}"), None);
    }
}
