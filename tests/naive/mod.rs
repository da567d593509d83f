//! A deliberately naive reference evaluator for the differential suites.
//!
//! It interprets the *unoptimized* logical plan straight from
//! [`planner::plan_select`], one row at a time: expressions through
//! [`BExpr::eval`] (a separate implementation from the engine's
//! column-wise `eval_batch`), nested-loop joins, linear-scan grouping,
//! a stable sort on [`Value::cmp_total`], `Vec::contains` DISTINCT and
//! LIMIT/OFFSET by slicing. It shares no kernel with the executor, so an
//! executor bug cannot hide by being present on both sides.

use odbis_sql::ast::{AggFunc, JoinKind, Statement};
use odbis_sql::expr::truth;
use odbis_sql::plan::{AggExpr, Plan, PlanNode};
use odbis_sql::{parse, planner, BExpr, QueryResult, SqlError, SqlResult};
use odbis_storage::{Database, Value};

type Rows = Vec<Vec<Value>>;

/// Parse, bind and plan one SELECT (no optimizer), then evaluate it.
pub fn execute(db: &Database, sql: &str) -> SqlResult<QueryResult> {
    let Statement::Select(sel) = parse(sql)? else {
        return Err(SqlError::Bind(
            "the naive evaluator runs SELECTs only".into(),
        ));
    };
    let plan = planner::plan_select(db, &sel)?;
    Ok(QueryResult {
        columns: plan.schema.iter().map(|c| c.name.clone()).collect(),
        rows: eval(db, &plan)?,
        rows_affected: 0,
    })
}

fn eval(db: &Database, plan: &Plan) -> SqlResult<Rows> {
    match &plan.node {
        PlanNode::TableScan {
            table,
            filter,
            projection,
        } => {
            let mut rows = db.scan(table)?;
            if let Some(cols) = projection {
                rows = rows
                    .into_iter()
                    .map(|r| cols.iter().map(|&c| r[c].clone()).collect())
                    .collect();
            }
            match filter {
                None => Ok(rows),
                Some(pred) => keep_true(rows, pred),
            }
        }
        PlanNode::IndexScan { .. } => unreachable!("the planner never emits index scans"),
        PlanNode::Filter { input, predicate } => keep_true(eval(db, input)?, predicate),
        PlanNode::Project { input, exprs } => eval(db, input)?
            .iter()
            .map(|row| exprs.iter().map(|e| e.eval(row)).collect())
            .collect(),
        PlanNode::Join {
            kind,
            left,
            right,
            on,
        } => {
            let lrows = eval(db, left)?;
            let rrows = eval(db, right)?;
            let mut out = Vec::new();
            for l in &lrows {
                let mut matched = false;
                for r in &rrows {
                    let row: Vec<Value> = l.iter().chain(r).cloned().collect();
                    if truth(&on.eval(&row)?) == Some(true) {
                        out.push(row);
                        matched = true;
                    }
                }
                if !matched && *kind == JoinKind::Left {
                    let mut row = l.clone();
                    row.resize(l.len() + right.schema.len(), Value::Null);
                    out.push(row);
                }
            }
            Ok(out)
        }
        PlanNode::Aggregate {
            input,
            group_exprs,
            aggs,
        } => {
            let rows = eval(db, input)?;
            // (group key, member rows) in first-seen order, found by a
            // linear scan over the groups so far
            let mut groups: Vec<(Vec<Value>, Vec<&Vec<Value>>)> = Vec::new();
            for row in &rows {
                let key: Vec<Value> = group_exprs
                    .iter()
                    .map(|g| g.eval(row))
                    .collect::<SqlResult<_>>()?;
                match groups.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, members)) => members.push(row),
                    None => groups.push((key, vec![row])),
                }
            }
            if group_exprs.is_empty() && groups.is_empty() {
                groups.push((Vec::new(), Vec::new()));
            }
            groups
                .into_iter()
                .map(|(mut key, members)| {
                    for agg in aggs {
                        key.push(aggregate(agg, &members)?);
                    }
                    Ok(key)
                })
                .collect()
        }
        PlanNode::Sort { input, keys } => {
            let mut rows = eval(db, input)?;
            rows.sort_by(|a, b| {
                keys.iter()
                    .map(|&(k, desc)| {
                        let ord = a[k].cmp_total(&b[k]);
                        if desc {
                            ord.reverse()
                        } else {
                            ord
                        }
                    })
                    .find(|o| o.is_ne())
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            Ok(rows)
        }
        PlanNode::Distinct { input } => {
            let mut out: Rows = Vec::new();
            for row in eval(db, input)? {
                if !out.contains(&row) {
                    out.push(row);
                }
            }
            Ok(out)
        }
        PlanNode::Limit {
            input,
            limit,
            offset,
        } => {
            let rows = eval(db, input)?;
            let start = (*offset).min(rows.len());
            let end = limit.map_or(rows.len(), |l| start.saturating_add(l).min(rows.len()));
            Ok(rows[start..end].to_vec())
        }
        PlanNode::Values { rows } => Ok(rows.clone()),
    }
}

fn keep_true(rows: Rows, pred: &BExpr) -> SqlResult<Rows> {
    let mut out = Vec::new();
    for row in rows {
        if truth(&pred.eval(&row)?) == Some(true) {
            out.push(row);
        }
    }
    Ok(out)
}

/// One aggregate over a group's member rows. NULL arguments are skipped
/// (COUNT(*) counts every row); SUM stays integral until an i64 overflow
/// or a float input promotes it to Float; SUM/AVG over no values is NULL.
fn aggregate(agg: &AggExpr, members: &[&Vec<Value>]) -> SqlResult<Value> {
    let Some(arg) = &agg.arg else {
        return Ok(Value::Int(members.len() as i64));
    };
    let mut values: Vec<Value> = Vec::new();
    for row in members {
        let v = arg.eval(row)?;
        let duplicate = agg.distinct && values.contains(&v);
        if !v.is_null() && !duplicate {
            values.push(v);
        }
    }
    let numeric = values.iter().all(|v| v.as_f64().is_some());
    let float_sum = || values.iter().filter_map(Value::as_f64).sum::<f64>();
    Ok(match agg.func {
        AggFunc::Count => Value::Int(values.len() as i64),
        AggFunc::Sum | AggFunc::Avg if values.is_empty() => Value::Null,
        AggFunc::Sum | AggFunc::Avg if !numeric => {
            return Err(SqlError::Type("SUM/AVG over non-numeric values".into()))
        }
        AggFunc::Sum => {
            let ints: Option<Vec<i64>> = values
                .iter()
                .map(|v| match v {
                    Value::Int(i) => Some(*i),
                    _ => None,
                })
                .collect();
            match ints.and_then(|is| is.into_iter().try_fold(0i64, i64::checked_add)) {
                Some(total) => Value::Int(total),
                None => Value::Float(float_sum()),
            }
        }
        AggFunc::Avg => Value::Float(float_sum() / values.len() as f64),
        AggFunc::Min => values.into_iter().min().unwrap_or(Value::Null),
        AggFunc::Max => values.into_iter().max().unwrap_or(Value::Null),
    })
}
