//! Hand-rolled JSON codecs for the persistence layer.
//!
//! WAL payloads and the schema in each segment header are encoded by
//! explicitly building `serde_json::Value` trees (and decoded by walking
//! them) rather than by derived (de)serialization. The explicit tree is
//! the on-disk format specification: every field written and read is
//! visible here, the encoding is independent of struct layout (reordering
//! fields can't silently change the format), and the codec only relies on
//! the stable `Value` API, so it behaves identically wherever the crate
//! builds.
//!
//! Scalar encoding is typed where JSON is lossy: `Int` and `Float` map to
//! JSON numbers (integer vs. decimal form disambiguates), `Date` and
//! `Timestamp` wrap their raw counters in one-key objects, and non-finite
//! floats (which JSON cannot represent as numbers) become `{"f": "nan"}`
//! forms.

use serde_json::{Map, Number, Value as Json};

use crate::error::{DbError, DbResult};
use crate::schema::{Column, Schema};
use crate::table::RowId;
use crate::value::{DataType, Value};
use crate::wal::WalRecord;

fn corrupt(msg: impl Into<String>) -> DbError {
    DbError::Corrupt(msg.into())
}

fn obj(entries: Vec<(&str, Json)>) -> Json {
    let mut m = Map::new();
    for (k, v) in entries {
        m.insert(k.to_string(), v);
    }
    Json::Object(m)
}

fn int(i: i64) -> Json {
    Json::Number(Number::from(i))
}

fn str_field(v: &Json, key: &str) -> DbResult<String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| corrupt(format!("missing string field '{key}'")))
}

fn i64_field(v: &Json, key: &str) -> DbResult<i64> {
    v.get(key)
        .and_then(Json::as_i64)
        .ok_or_else(|| corrupt(format!("missing integer field '{key}'")))
}

fn bool_field(v: &Json, key: &str) -> DbResult<bool> {
    v.get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| corrupt(format!("missing bool field '{key}'")))
}

fn array_field<'a>(v: &'a Json, key: &str) -> DbResult<&'a Vec<Json>> {
    v.get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| corrupt(format!("missing array field '{key}'")))
}

// ------------------------------------------------------------- scalar values

/// Encode one scalar.
pub fn value_to_json(v: &Value) -> Json {
    match v {
        Value::Null => Json::Null,
        Value::Bool(b) => Json::Bool(*b),
        Value::Int(i) => int(*i),
        Value::Float(f) => match Number::from_f64(*f) {
            Some(n) => Json::Object({
                let mut m = Map::new();
                m.insert("f".to_string(), Json::Number(n));
                m
            }),
            None => obj(vec![(
                "f",
                Json::String(
                    if f.is_nan() {
                        "nan"
                    } else if *f > 0.0 {
                        "inf"
                    } else {
                        "-inf"
                    }
                    .to_string(),
                ),
            )]),
        },
        Value::Text(s) => Json::String(s.clone()),
        Value::Date(d) => obj(vec![("date", int(*d as i64))]),
        Value::Timestamp(us) => obj(vec![("us", int(*us))]),
    }
}

/// Decode one scalar.
pub fn value_from_json(v: &Json) -> DbResult<Value> {
    match v {
        Json::Null => Ok(Value::Null),
        Json::Bool(b) => Ok(Value::Bool(*b)),
        Json::String(s) => Ok(Value::Text(s.clone())),
        Json::Number(_) => v
            .as_i64()
            .map(Value::Int)
            .or_else(|| v.as_f64().map(Value::Float))
            .ok_or_else(|| corrupt("unreadable number")),
        Json::Object(_) => {
            if let Some(f) = v.get("f") {
                return match f {
                    Json::String(s) => Ok(Value::Float(match s.as_str() {
                        "nan" => f64::NAN,
                        "inf" => f64::INFINITY,
                        "-inf" => f64::NEG_INFINITY,
                        other => return Err(corrupt(format!("bad float literal '{other}'"))),
                    })),
                    _ => f
                        .as_f64()
                        .map(Value::Float)
                        .ok_or_else(|| corrupt("bad float value")),
                };
            }
            if let Some(d) = v.get("date") {
                return d
                    .as_i64()
                    .map(|d| Value::Date(d as i32))
                    .ok_or_else(|| corrupt("bad date value"));
            }
            if let Some(us) = v.get("us") {
                return us
                    .as_i64()
                    .map(Value::Timestamp)
                    .ok_or_else(|| corrupt("bad timestamp value"));
            }
            Err(corrupt("unknown scalar object"))
        }
        Json::Array(_) => Err(corrupt("array is not a scalar")),
    }
}

fn row_to_json(row: &[Value]) -> Json {
    Json::Array(row.iter().map(value_to_json).collect())
}

fn row_from_json(v: &Json) -> DbResult<Vec<Value>> {
    v.as_array()
        .ok_or_else(|| corrupt("row is not an array"))?
        .iter()
        .map(value_from_json)
        .collect()
}

// ------------------------------------------------------------------- schemas

/// Encode a schema: columns (with type/constraints/default) + PK positions.
pub(crate) fn schema_to_json(schema: &Schema) -> Json {
    let columns: Vec<Json> = schema
        .columns()
        .iter()
        .map(|c| {
            let mut fields = vec![
                ("name", Json::String(c.name.clone())),
                ("type", Json::String(c.data_type.name().to_string())),
                ("not_null", Json::Bool(c.not_null)),
            ];
            if let Some(d) = &c.default {
                fields.push(("default", value_to_json(d)));
            }
            obj(fields)
        })
        .collect();
    let pk: Vec<Json> = schema
        .primary_key()
        .iter()
        .map(|&i| Json::String(schema.columns()[i].name.clone()))
        .collect();
    obj(vec![
        ("columns", Json::Array(columns)),
        ("pk", Json::Array(pk)),
    ])
}

/// Decode a schema.
pub(crate) fn schema_from_json(v: &Json) -> DbResult<Schema> {
    let mut columns = Vec::new();
    for c in array_field(v, "columns")? {
        let name = str_field(c, "name")?;
        let ty = str_field(c, "type")?;
        let data_type = DataType::parse(&ty)
            .ok_or_else(|| corrupt(format!("unknown data type '{ty}' for column {name}")))?;
        let mut col = Column::new(name, data_type);
        if bool_field(c, "not_null")? {
            col = col.not_null();
        }
        if let Some(d) = c.get("default") {
            if !d.is_null() {
                col = col.with_default(value_from_json(d)?);
            }
        }
        columns.push(col);
    }
    let schema = Schema::new(columns).map_err(|e| corrupt(e.to_string()))?;
    let pk: Vec<String> = array_field(v, "pk")?
        .iter()
        .map(|p| {
            p.as_str()
                .map(str::to_string)
                .ok_or_else(|| corrupt("pk entry is not a string"))
        })
        .collect::<DbResult<_>>()?;
    if pk.is_empty() {
        return Ok(schema);
    }
    let refs: Vec<&str> = pk.iter().map(String::as_str).collect();
    schema
        .with_primary_key(&refs)
        .map_err(|e| corrupt(e.to_string()))
}

// --------------------------------------------------------------- WAL records

/// Encode one WAL record as a tagged object (`{"op": "...", ...}`).
pub fn record_to_json(r: &WalRecord) -> Json {
    let tag = |op: &str, mut rest: Vec<(&str, Json)>| {
        let mut fields = vec![("op", Json::String(op.to_string()))];
        fields.append(&mut rest);
        obj(fields)
    };
    match r {
        WalRecord::CreateTable { name, schema } => tag(
            "create_table",
            vec![
                ("name", Json::String(name.clone())),
                ("schema", schema_to_json(schema)),
            ],
        ),
        WalRecord::DropTable { name } => {
            tag("drop_table", vec![("name", Json::String(name.clone()))])
        }
        WalRecord::Insert { table, row } => tag(
            "insert",
            vec![
                ("table", Json::String(table.clone())),
                ("row", row_to_json(row)),
            ],
        ),
        WalRecord::InsertMany { table, rows } => tag(
            "insert_many",
            vec![
                ("table", Json::String(table.clone())),
                (
                    "rows",
                    Json::Array(rows.iter().map(|r| row_to_json(r)).collect()),
                ),
            ],
        ),
        WalRecord::Update { table, id, row } => tag(
            "update",
            vec![
                ("table", Json::String(table.clone())),
                ("id", int(*id as i64)),
                ("row", row_to_json(row)),
            ],
        ),
        WalRecord::Delete { table, id } => tag(
            "delete",
            vec![
                ("table", Json::String(table.clone())),
                ("id", int(*id as i64)),
            ],
        ),
        WalRecord::Undelete { table, id, row } => tag(
            "undelete",
            vec![
                ("table", Json::String(table.clone())),
                ("id", int(*id as i64)),
                ("row", row_to_json(row)),
            ],
        ),
        WalRecord::Truncate { table } => {
            tag("truncate", vec![("table", Json::String(table.clone()))])
        }
        WalRecord::CreateIndex {
            table,
            name,
            columns,
            unique,
        } => tag(
            "create_index",
            vec![
                ("table", Json::String(table.clone())),
                ("name", Json::String(name.clone())),
                (
                    "columns",
                    Json::Array(columns.iter().map(|c| Json::String(c.clone())).collect()),
                ),
                ("unique", Json::Bool(*unique)),
            ],
        ),
        WalRecord::DropIndex { table, name } => tag(
            "drop_index",
            vec![
                ("table", Json::String(table.clone())),
                ("name", Json::String(name.clone())),
            ],
        ),
    }
}

/// Serialize one WAL record straight into JSON text — the append hot
/// path. Row-level records (insert/update/delete/undelete/truncate) are
/// written without building an intermediate `Value` tree; rare DDL records
/// fall back to [`record_to_json`]. The output decodes through the same
/// [`record_from_json`], which looks fields up by key, so the two encoders
/// only have to agree on keys and scalar forms — a property the codec
/// tests pin down.
pub fn record_payload(r: &WalRecord) -> Vec<u8> {
    let mut out = Vec::with_capacity(128);
    record_payload_into(&mut out, r);
    out
}

/// Like [`record_payload`], but appends to a caller-owned buffer so batch
/// encoding (group commit) reuses one allocation for the whole statement.
pub fn record_payload_into(out: &mut Vec<u8>, r: &WalRecord) {
    use std::io::Write as _;
    match r {
        WalRecord::Insert { table, row } => {
            out.extend_from_slice(b"{\"op\":\"insert\",\"table\":");
            encode_json_str(out, table);
            out.extend_from_slice(b",\"row\":");
            encode_row(out, row);
            out.push(b'}');
        }
        WalRecord::InsertMany { table, rows } => {
            out.extend_from_slice(b"{\"op\":\"insert_many\",\"table\":");
            encode_json_str(out, table);
            out.extend_from_slice(b",\"rows\":[");
            for (i, row) in rows.iter().enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                encode_row(out, row);
            }
            out.extend_from_slice(b"]}");
        }
        WalRecord::Update { table, id, row } => {
            out.extend_from_slice(b"{\"op\":\"update\",\"table\":");
            encode_json_str(out, table);
            let _ = write!(out, ",\"id\":{id},\"row\":");
            encode_row(out, row);
            out.push(b'}');
        }
        WalRecord::Delete { table, id } => {
            out.extend_from_slice(b"{\"op\":\"delete\",\"table\":");
            encode_json_str(out, table);
            let _ = write!(out, ",\"id\":{id}}}");
        }
        WalRecord::Undelete { table, id, row } => {
            out.extend_from_slice(b"{\"op\":\"undelete\",\"table\":");
            encode_json_str(out, table);
            let _ = write!(out, ",\"id\":{id},\"row\":");
            encode_row(out, row);
            out.push(b'}');
        }
        WalRecord::Truncate { table } => {
            out.extend_from_slice(b"{\"op\":\"truncate\",\"table\":");
            encode_json_str(out, table);
            out.push(b'}');
        }
        ddl => out.extend_from_slice(record_to_json(ddl).to_string().as_bytes()),
    }
}

fn encode_row(out: &mut Vec<u8>, row: &[Value]) {
    out.push(b'[');
    for (i, v) in row.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        encode_scalar(out, v);
    }
    out.push(b']');
}

fn encode_scalar(out: &mut Vec<u8>, v: &Value) {
    use std::io::Write as _;
    match v {
        Value::Null => out.extend_from_slice(b"null"),
        Value::Bool(b) => out.extend_from_slice(if *b { b"true".as_slice() } else { b"false" }),
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::Float(f) if f.is_finite() => {
            // integral doubles (very common in BI measures) skip the
            // shortest-repr float formatter; otherwise {:?} is the shortest
            // round-trip form and always carries a '.' or exponent
            const EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
                                                        // -0.0 must keep its sign (total_cmp orders it below +0.0)
            if f.fract() == 0.0 && f.abs() < EXACT && (*f != 0.0 || f.is_sign_positive()) {
                let _ = write!(out, "{{\"f\":{}.0}}", *f as i64);
            } else {
                let _ = write!(out, "{{\"f\":{f:?}}}");
            }
        }
        Value::Float(f) => {
            out.extend_from_slice(if f.is_nan() {
                b"{\"f\":\"nan\"}".as_slice()
            } else if *f > 0.0 {
                b"{\"f\":\"inf\"}"
            } else {
                b"{\"f\":\"-inf\"}"
            });
        }
        Value::Text(s) => encode_json_str(out, s),
        Value::Date(d) => {
            let _ = write!(out, "{{\"date\":{d}}}");
        }
        Value::Timestamp(us) => {
            let _ = write!(out, "{{\"us\":{us}}}");
        }
    }
}

/// JSON string literal with the standard escapes (mirrors what
/// `serde_json` itself emits, and what its parser accepts). Strings with
/// nothing to escape — the overwhelmingly common case — are copied whole.
fn encode_json_str(out: &mut Vec<u8>, s: &str) {
    use std::io::Write as _;
    out.push(b'"');
    if !s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        out.extend_from_slice(s.as_bytes());
    } else {
        for c in s.chars() {
            match c {
                '"' => out.extend_from_slice(b"\\\""),
                '\\' => out.extend_from_slice(b"\\\\"),
                '\n' => out.extend_from_slice(b"\\n"),
                '\r' => out.extend_from_slice(b"\\r"),
                '\t' => out.extend_from_slice(b"\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => {
                    let mut buf = [0u8; 4];
                    out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                }
            }
        }
    }
    out.push(b'"');
}

/// Decode one WAL record.
pub fn record_from_json(v: &Json) -> DbResult<WalRecord> {
    let op = str_field(v, "op")?;
    match op.as_str() {
        "create_table" => Ok(WalRecord::CreateTable {
            name: str_field(v, "name")?,
            schema: schema_from_json(
                v.get("schema")
                    .ok_or_else(|| corrupt("missing record schema"))?,
            )?,
        }),
        "drop_table" => Ok(WalRecord::DropTable {
            name: str_field(v, "name")?,
        }),
        "insert" => Ok(WalRecord::Insert {
            table: str_field(v, "table")?,
            row: row_from_json(v.get("row").ok_or_else(|| corrupt("missing record row"))?)?,
        }),
        "insert_many" => Ok(WalRecord::InsertMany {
            table: str_field(v, "table")?,
            rows: array_field(v, "rows")?
                .iter()
                .map(row_from_json)
                .collect::<DbResult<_>>()?,
        }),
        "update" => Ok(WalRecord::Update {
            table: str_field(v, "table")?,
            id: i64_field(v, "id")? as RowId,
            row: row_from_json(v.get("row").ok_or_else(|| corrupt("missing record row"))?)?,
        }),
        "delete" => Ok(WalRecord::Delete {
            table: str_field(v, "table")?,
            id: i64_field(v, "id")? as RowId,
        }),
        "undelete" => Ok(WalRecord::Undelete {
            table: str_field(v, "table")?,
            id: i64_field(v, "id")? as RowId,
            row: row_from_json(v.get("row").ok_or_else(|| corrupt("missing record row"))?)?,
        }),
        "truncate" => Ok(WalRecord::Truncate {
            table: str_field(v, "table")?,
        }),
        "create_index" => Ok(WalRecord::CreateIndex {
            table: str_field(v, "table")?,
            name: str_field(v, "name")?,
            columns: array_field(v, "columns")?
                .iter()
                .map(|c| {
                    c.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| corrupt("index column is not a string"))
                })
                .collect::<DbResult<_>>()?,
            unique: bool_field(v, "unique")?,
        }),
        "drop_index" => Ok(WalRecord::DropIndex {
            table: str_field(v, "table")?,
            name: str_field(v, "name")?,
        }),
        other => Err(corrupt(format!("unknown wal op '{other}'"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trip_preserves_types() {
        let cases = vec![
            Value::Null,
            Value::Bool(true),
            Value::Int(42),
            Value::Int(-9_000_000_000),
            Value::Float(2.5),
            Value::Float(3.0),
            Value::Text("héllo \"quoted\"".into()),
            Value::Date(19_000),
            Value::Timestamp(1_700_000_000_000_000),
        ];
        for v in cases {
            let json = value_to_json(&v);
            let text = json.to_string();
            let parsed: Json = serde_json::from_str(&text).unwrap();
            let back = value_from_json(&parsed).unwrap();
            assert_eq!(back, v, "round trip of {v:?} via {text}");
            // the decoded value keeps the same runtime type, not just equality
            assert_eq!(back.data_type(), v.data_type());
        }
    }

    #[test]
    fn fast_record_payload_decodes_like_the_tree_encoder() {
        // every record shape the hot encoder handles, with hostile strings
        // and floats that must keep their runtime type
        let records = vec![
            WalRecord::Insert {
                table: "orders \"q\"\n\t\u{1}".into(),
                row: vec![
                    Value::Null,
                    Value::Bool(false),
                    Value::Int(-7),
                    Value::Float(3.0),
                    Value::Float(0.1),
                    Value::Float(f64::NAN),
                    Value::Float(f64::NEG_INFINITY),
                    Value::Text("a\\b\"c\r\nd".into()),
                    Value::Date(19_000),
                    Value::Timestamp(1_700_000_000_000_000),
                ],
            },
            WalRecord::InsertMany {
                table: "orders".into(),
                rows: vec![
                    vec![Value::Int(1), Value::Float(-0.0), Value::Float(-5.0)],
                    vec![Value::Float(2.5), Value::Text("x".into())],
                ],
            },
            WalRecord::Update {
                table: "t".into(),
                id: 9,
                row: vec![Value::Float(1e300), Value::Text(String::new())],
            },
            WalRecord::Delete {
                table: "t".into(),
                id: 0,
            },
            WalRecord::Undelete {
                table: "t".into(),
                id: 3,
                row: vec![Value::Int(1)],
            },
            WalRecord::Truncate { table: "t".into() },
            WalRecord::CreateTable {
                name: "ddl".into(),
                schema: Schema::new(vec![Column::new("id", DataType::Int)]).unwrap(),
            },
            WalRecord::DropIndex {
                table: "t".into(),
                name: "c".into(),
            },
        ];
        for r in &records {
            let fast = String::from_utf8(record_payload(r)).unwrap();
            let parsed: Json = serde_json::from_str(&fast).unwrap();
            let back = record_from_json(&parsed).unwrap();
            assert_eq!(&back, r, "fast payload {fast}");
            // the tree encoder decodes to the same record, so both paths
            // stay interchangeable on disk
            let tree: Json = serde_json::from_str(&record_to_json(r).to_string()).unwrap();
            assert_eq!(record_from_json(&tree).unwrap(), back);
        }
    }

    #[test]
    fn non_finite_floats_survive() {
        for f in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let json = value_to_json(&Value::Float(f));
            let back = value_from_json(&json).unwrap();
            match back {
                Value::Float(g) => {
                    assert!(g.is_nan() == f.is_nan() && (f.is_nan() || g == f));
                }
                other => panic!("expected float, got {other:?}"),
            }
        }
    }

    #[test]
    fn schema_round_trip() {
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("name", DataType::Text).not_null(),
            Column::new("score", DataType::Float).with_default(Value::Float(1.5)),
            Column::new("born", DataType::Date),
        ])
        .unwrap()
        .with_primary_key(&["id", "name"])
        .unwrap();
        let back = schema_from_json(&schema_to_json(&schema)).unwrap();
        assert_eq!(back, schema);
    }

    #[test]
    fn wal_record_round_trip() {
        let schema = Schema::new(vec![Column::new("id", DataType::Int)])
            .unwrap()
            .with_primary_key(&["id"])
            .unwrap();
        let records = vec![
            WalRecord::CreateTable {
                name: "t".into(),
                schema,
            },
            WalRecord::DropTable { name: "t".into() },
            WalRecord::Insert {
                table: "t".into(),
                row: vec![Value::Int(1), Value::Null],
            },
            WalRecord::Update {
                table: "t".into(),
                id: 3,
                row: vec![Value::Text("x".into())],
            },
            WalRecord::Delete {
                table: "t".into(),
                id: 9,
            },
            WalRecord::Undelete {
                table: "t".into(),
                id: 9,
                row: vec![Value::Bool(false)],
            },
            WalRecord::Truncate { table: "t".into() },
            WalRecord::CreateIndex {
                table: "t".into(),
                name: "ix".into(),
                columns: vec!["a".into(), "b".into()],
                unique: true,
            },
            WalRecord::DropIndex {
                table: "t".into(),
                name: "ix".into(),
            },
        ];
        for r in records {
            let text = record_to_json(&r).to_string();
            let parsed: Json = serde_json::from_str(&text).unwrap();
            assert_eq!(record_from_json(&parsed).unwrap(), r, "via {text}");
        }
    }

    #[test]
    fn decode_rejects_malformed() {
        assert!(record_from_json(&serde_json::from_str::<Json>("{}").unwrap()).is_err());
        assert!(
            record_from_json(&serde_json::from_str::<Json>(r#"{"op":"warp"}"#).unwrap()).is_err()
        );
        assert!(value_from_json(&serde_json::from_str::<Json>(r#"{"z":1}"#).unwrap()).is_err());
    }
}
