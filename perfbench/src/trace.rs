//! The traced run: per-layer times and counts.
//!
//! Reads are replayed at each nesting level from the benchmark's own code
//! (the HTTP round trip, `Router::dispatch`, the `OdbisPlatform` gate,
//! `Engine::execute`, `Engine::explain`, `authorize`), one level after the
//! other within a sample, so a layer's self time is its call minus the
//! calls nested inside it, taken per sample. What the medians of the self
//! times leave of the median round trip is reported as the unattributed
//! remainder. The read replays run beside every other segment of a
//! fixed-rate open loop, so the loop's p50 with and without them is the
//! overhead of tracing. Writes are split into the steps the gate runs, in
//! order: `Engine::execute` on the warehouse, then `publish_deltas`, so no
//! write is applied twice. Counts come from public outputs only.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use odbis_sql::Engine;
use odbis_web::{HttpRequest, Method};

use crate::client::Response;
use crate::data::{self, Class, Op, Request, ANALYST_CLASSES};
use crate::host;
use crate::rng::{derive, Rng};
use crate::run::{self, Caller, Checks, Spec, Tally, IDS_TRACE};
use crate::setup::{self, DataDir, Deployment, CUBE};
use crate::stats;

/// Microseconds taken by `f`.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64() * 1e6)
}

/// Samples of one quantity, in µs.
#[derive(Default, Clone)]
struct Series(Vec<f64>);

impl Series {
    fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    fn median(&self) -> f64 {
        stats::median_of(&self.0)
    }

    fn n(&self) -> usize {
        self.0.len()
    }
}

/// Per-class nested timings of the read replays.
#[derive(Default, Clone)]
struct Levels {
    http: Series,
    edge: Series,
    encode: Series,
    gate_self: Series,
    exec: Series,
    auth: Series,
    publish: Series,
    plan: Series,
    rows: usize,
}

impl Levels {
    /// Median round trip minus the medians of every self time.
    fn unattributed(&self) -> f64 {
        self.http.median()
            - (self.edge.median()
                + self.encode.median()
                + self.gate_self.median()
                + self.exec.median()
                + self.auth.median()
                + self.publish.median())
    }
}

/// One row of the printed per-layer table.
struct Row {
    name: &'static str,
    value: f64,
    unit: &'static str,
    n: usize,
    unattributed: Option<f64>,
}

pub struct Traced {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub notes: Vec<String>,
    pub checks: Checks,
    pub tally: Tally,
}

fn ok_status(what: &str, r: &Result<Response, String>, checks: &mut Checks) {
    let v = match r {
        Ok(resp) if (200..300).contains(&resp.status) => Ok(()),
        Ok(resp) => Err(format!("status {}: {}", resp.status, resp.body_text())),
        Err(e) => Err(e.clone()),
    };
    checks.record(what, v);
}

/// Sum every sample of a Prometheus counter family.
fn scrape_total(text: &str, family: &str) -> f64 {
    text.lines()
        .filter(|l| l.starts_with(family) && l[family.len()..].starts_with('{'))
        .filter_map(|l| l.rsplit(' ').next().and_then(|v| v.parse::<f64>().ok()))
        .sum()
}

/// What the read replays measured.
#[derive(Default)]
struct Reads {
    levels: std::collections::BTreeMap<Class, Levels>,
    health: Series,
    dataset: Series,
    cube_q: Series,
    mdx_sql: Series,
    preagg: Series,
    mdx_asked: u64,
    mdx_hits: u64,
    /// Completed rounds, the first (warm-up) one included.
    rounds: usize,
}

/// A read replay needs at least this many rounds, warm-up included.
const MIN_ROUNDS: usize = 3;

/// Replay reads at every nesting level on tenant 0, one round (each SQL
/// class, health, the data set, both MDX shapes) after the other, until
/// `stop` is set and [`MIN_ROUNDS`] are done. The first round warms up and
/// is not kept.
fn replay_reads(
    d: &Deployment,
    spec: &Spec,
    rng: &mut Rng,
    caller: &mut Caller,
    stop: &AtomicBool,
    acc: &mut Reads,
    checks: &mut Checks,
) -> Result<(), String> {
    let ws = d.workspace(0);
    let login = &d.logins[0];
    let (tid, token) = (login.id.as_str(), login.token.as_str());
    let router = odbis::build_router(Arc::clone(&d.platform));
    let engine = Engine::new();
    let cube = ws
        .cube_defs
        .read()
        .get(CUBE)
        .cloned()
        .ok_or("cube missing")?;
    let sql_classes = [
        Class::Point,
        Class::Dashboard,
        Class::GlobalAgg,
        Class::TextFilter,
        Class::GroupText,
        Class::Topk,
        Class::Scan2000,
    ];
    let mdx_mix: Vec<Class> = spec
        .mix
        .iter()
        .copied()
        .filter(|c| matches!(c, Class::MdxCube | Class::MdxPreagg))
        .collect();
    let started = acc.rounds;
    while !stop.load(Ordering::Relaxed) || acc.rounds < started + MIN_ROUNDS {
        let warmup = acc.rounds == 0;
        acc.rounds += 1;
        for &class in &sql_classes {
            let Op::Sql(sql) = data::read_op(class, rng, spec.rows) else {
                unreachable!("SQL classes produce SQL")
            };
            let req = Request {
                class,
                tenant: 0,
                op: Op::Sql(sql.clone()),
                insert_first: None,
                check: false,
            };
            let (r, http) = timed(|| caller.call(&req));
            ok_status(class.name(), &r, checks);
            let hreq = HttpRequest::new(Method::Post, "/api/v1/sql")
                .with_header("x-tenant", tid)
                .with_header("authorization", &format!("Bearer {token}"))
                .with_body(sql.as_bytes().to_vec());
            let (resp, dispatch) = timed(|| router.dispatch(hreq));
            checks.record(
                "dispatch",
                (resp.status == 200)
                    .then_some(())
                    .ok_or_else(|| format!("status {}", resp.status)),
            );
            let (g, gate) = timed(|| d.platform.sql(tid, token, &sql));
            let rows = g.map_err(|e| e.to_string())?.rows.len();
            let (_, exec) = timed(|| engine.execute(&ws.warehouse, &sql));
            let (_, auth) = timed(|| d.platform.authorize(tid, token, "ETL_DESIGN"));
            let (_, publish) = timed(|| ws.publish_deltas());
            let (_, plan_us) = timed(|| engine.explain(&ws.warehouse, &sql));
            if warmup {
                continue;
            }
            let l = acc.levels.entry(class).or_default();
            l.http.push(http);
            l.edge.push(http - dispatch);
            l.encode.push(dispatch - gate);
            l.gate_self.push(gate - exec - auth - publish);
            l.exec.push(exec);
            l.auth.push(auth);
            l.publish.push(publish);
            l.plan.push(plan_us);
            l.rows = rows;
        }
        // health, data set, the two MDX shapes
        let (r, h) = timed(|| {
            caller.call(&Request {
                class: Class::Health,
                tenant: 0,
                op: Op::Health,
                insert_first: None,
                check: false,
            })
        });
        ok_status("health", &r, checks);
        let (r, ds) = timed(|| ws.mds.execute_dataset("departments"));
        checks.record("dataset", r.map(|_| ()).map_err(|e| e.to_string()));
        let year = data::YEARS[rng.below(3) as usize];
        let cube_query = odbis_olap::parse_mdx(&format!(
            "SELECT total_cost, admissions BY diagnosis.code FROM {CUBE} WHERE time.year = {year}"
        ))
        .map_err(|e| e.to_string())?
        .query;
        let (r, cq) = timed(|| ws.cubes.query(&cube, &cube_query));
        checks.record("cube query", r.map(|_| ()).map_err(|e| e.to_string()));
        let generated = ws
            .cubes
            .generate_sql(&cube, &cube_query)
            .map_err(|e| e.to_string())?;
        let (_, ms_sql) = timed(|| engine.execute(&ws.warehouse, &generated));
        let pq = setup::preagg_query(year);
        let (hit, pa) = timed(|| ws.agg_cache.read().try_answer(CUBE, &pq));
        checks.record(
            "preagg answers",
            hit.map(|_| ()).ok_or_else(|| "preagg miss".to_string()),
        );
        for c in &mdx_mix {
            let q = if *c == Class::MdxPreagg {
                &pq
            } else {
                &cube_query
            };
            acc.mdx_asked += 1;
            acc.mdx_hits += ws.agg_cache.read().try_answer(CUBE, q).is_some() as u64;
        }
        if warmup {
            continue;
        }
        acc.health.push(h);
        acc.dataset.push(ds);
        acc.cube_q.push(cq);
        acc.mdx_sql.push(ms_sql);
        acc.preagg.push(pa);
    }
    Ok(())
}

/// What the write decomposition measured.
struct Writes {
    insert: Series,
    publish: Series,
    cold: Series,
    warm: Series,
    rebuilds: u64,
    wal_bytes_per_row: f64,
    wal_appends_per_stmt: f64,
    writes_n: usize,
    cp_ms: Series,
    cp_flushed: Series,
    cp_folded: Series,
    next_id: i64,
}

/// Writes on tenant 0, decomposed into the gate's steps, with batch scans
/// cold (right after a write) and warm, and checkpoint cycles.
fn replay_writes(d: &Deployment, spec: &Spec, seed: u64) -> Result<Writes, String> {
    let ws = d.workspace(0);
    let login = &d.logins[0];
    let (tid, token) = (login.id.as_str(), login.token.as_str());
    let engine = Engine::new();
    let tseed = data::tenant_seed(seed, 0);
    let patients = data::patients_for(spec.rows);
    let mut next_id = IDS_TRACE;
    let (mut insert, mut publish, mut cold, mut warm) = (
        Series::default(),
        Series::default(),
        Series::default(),
        Series::default(),
    );
    let mut rebuilds = 0u64;
    let mut write =
        |insert: &mut Series, publish: &mut Series, rebuilds: &mut u64| -> Result<(), String> {
            let sql = data::insert_sql(tseed, next_id, patients);
            next_id += data::INSERT_ROWS as i64;
            let (r, e) = timed(|| engine.execute(&ws.warehouse, &sql));
            let n = r.map_err(|e| e.to_string())?.rows_affected;
            if n != data::INSERT_ROWS {
                return Err(format!("insert affected {n} rows"));
            }
            let (p, pu) = timed(|| ws.publish_deltas());
            insert.push(e);
            publish.push(pu);
            *rebuilds += p.recovered as u64;
            Ok(())
        };
    let status0 = d
        .platform
        .durability_status(tid, token)
        .map_err(|e| e.to_string())?;
    let writes_n = 30;
    for _ in 0..writes_n {
        write(&mut insert, &mut publish, &mut rebuilds)?;
        let (_, c) = timed(|| ws.warehouse.scan_batch("fact_admission"));
        let (_, w) = timed(|| ws.warehouse.scan_batch("fact_admission"));
        cold.push(c);
        warm.push(w);
    }
    let status1 = d
        .platform
        .durability_status(tid, token)
        .map_err(|e| e.to_string())?;
    let wal_bytes_per_row =
        (status1.wal_bytes - status0.wal_bytes) as f64 / (writes_n * data::INSERT_ROWS) as f64;
    let wal_appends_per_stmt = (status1.wal_appends - status0.wal_appends) as f64 / writes_n as f64;
    let (mut cp_ms, mut cp_flushed, mut cp_folded) =
        (Series::default(), Series::default(), Series::default());
    for _ in 0..3 {
        for _ in 0..10 {
            write(&mut insert, &mut publish, &mut rebuilds)?;
        }
        let o = d
            .platform
            .checkpoint_tenant(tid, token)
            .map_err(|e| e.to_string())?;
        cp_ms.push(o.micros as f64 / 1e3);
        cp_flushed.push(o.tables_flushed as f64);
        cp_folded.push(o.wal_bytes_folded as f64);
    }

    Ok(Writes {
        insert,
        publish,
        cold,
        warm,
        rebuilds,
        wal_bytes_per_row,
        wal_appends_per_stmt,
        writes_n,
        cp_ms,
        cp_flushed,
        cp_folded,
        next_id,
    })
}

pub fn traced(spec: &Spec, seed: u64, seconds: u64) -> Result<Traced, String> {
    let mut notes = Vec::new();
    let mut checks = Checks::default();
    let mut tally = Tally::default();
    let extracts = setup::extracts(seed, spec.tenants, spec.rows);
    let dir = DataDir::new(&format!("{}-trace", spec.name))?;
    let d = setup::deploy(&dir.0, &extracts, spec.fsync, host::nproc())?;
    let etl_rows_per_s = d.etl_rows as f64 / d.etl_time.as_secs_f64();
    let logins = Arc::new(d.logins.clone());
    let total = Duration::from_secs(seconds);

    // 1-2. the same open loop in alternating segments, untraced and
    // traced: during a traced segment the read replays run beside it, so
    // traced against untraced p50 is what the tracing costs the loop
    let (due, plan) = run::open_plan(spec, total * 3 / 20, seed);
    let mut lat: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut reads = Reads::default();
    let mut rng = Rng::new(derive(seed, 9));
    let mut caller = Caller::connect(d.server.addr(), &logins)?;
    for segment in 0..4 {
        let traced_pass = segment % 2 == 1;
        let stream = run::stream(spec, seed, 1, IDS_TRACE + 100_000_000 * (1 + segment));
        let stop = AtomicBool::new(false);
        let out = std::thread::scope(|scope| {
            let replay = traced_pass.then(|| {
                let (d, rng, caller, reads, checks, stop) =
                    (&d, &mut rng, &mut caller, &mut reads, &mut checks, &stop);
                scope.spawn(move || replay_reads(d, spec, rng, caller, stop, reads, checks))
            });
            let out = run::open_phase(&d, &logins, &stream, &due, &plan, spec.load_conns, None);
            stop.store(true, Ordering::Relaxed);
            let replayed = replay.map_or(Ok(()), |h| h.join().expect("replay thread panicked"));
            replayed.and(out)
        })?;
        for t in &out.timed {
            tally.attempted += 1;
            if !t.result.ok() {
                tally.failed += 1;
            }
            if t.result.class.is_some() {
                let ms = if t.result.ok() {
                    t.timing.latency().as_secs_f64() * 1e3
                } else {
                    f64::INFINITY
                };
                lat[traced_pass as usize].push(ms);
            }
        }
    }
    let p50: Vec<f64> = lat
        .into_iter()
        .map(|l| stats::median(&stats::sorted(l)).unwrap_or(f64::NAN))
        .collect();
    notes.push(format!(
        "read replay rounds beside the traced segments: {} (first one warm-up)",
        reads.rounds
    ));
    let Reads {
        levels,
        health,
        dataset,
        cube_q,
        mdx_sql,
        preagg,
        mdx_asked,
        mdx_hits,
        ..
    } = reads;

    // 3. writes, decomposed, on a fresh thread like the server's workers
    // (see `run::fresh_thread`)
    let Writes {
        insert,
        publish,
        cold,
        warm,
        rebuilds,
        wal_bytes_per_row,
        wal_appends_per_stmt,
        writes_n,
        cp_ms,
        cp_flushed,
        cp_folded,
        next_id,
    } = run::fresh_thread(|| replay_writes(&d, spec, seed))?;

    // 4. watch lag: the watcher's 200 minus the writer's ack, over HTTP
    let tseed = data::tenant_seed(seed, 0);
    let patients = data::patients_for(spec.rows);
    let (tx, rx) = mpsc::channel::<Instant>();
    let stop = AtomicBool::new(false);
    let addr = d.server.addr();
    let mut lag = Series::default();
    std::thread::scope(|scope| -> Result<(), String> {
        let watcher = scope.spawn(|| run::watcher(addr, &logins, 0, &stop, Some(tx)));
        let mut writer = Caller::connect(addr, &logins)?;
        for k in 0..25 {
            std::thread::sleep(Duration::from_millis(5));
            while rx.try_recv().is_ok() {}
            let first = next_id + 50_000_000 + k * data::INSERT_ROWS as i64;
            let sql = data::insert_sql(tseed, first, patients);
            let req = Request {
                class: Class::Insert,
                tenant: 0,
                op: Op::Sql(sql),
                insert_first: Some(first),
                check: false,
            };
            let r = writer.call(&req);
            let acked = Instant::now();
            ok_status("watched insert", &r, &mut checks);
            match rx.recv_timeout(Duration::from_secs(3)) {
                Ok(woke) => lag.push(if woke >= acked {
                    (woke - acked).as_secs_f64() * 1e6
                } else {
                    -((acked - woke).as_secs_f64() * 1e6)
                }),
                Err(_) => checks.record("watch wake", Err("watcher never woke".into())),
            }
        }
        stop.store(true, Ordering::Relaxed);
        watcher.join().expect("watcher thread panicked").map(|_| ())
    })?;

    // 5. admission verdicts from the scrape
    let scrape = caller.raw(&crate::client::encode_request(
        "GET",
        "/api/v1/metrics",
        None,
        b"",
    ))?;
    let text = scrape.body_text().to_string();
    let queued = scrape_total(&text, "odbis_admission_queued_total");
    let rejected = scrape_total(&text, "odbis_admission_rejected_total");
    checks.record(
        "metrics scrape",
        text.contains("odbis_admission_admitted_total")
            .then_some(())
            .ok_or_else(|| "no admission counters".into()),
    );
    drop(caller);
    drop(d.shutdown());

    let lv = |c: Class| levels.get(&c).cloned().unwrap_or_default();
    let (point, scan, dash) = (lv(Class::Point), lv(Class::Scan2000), lv(Class::Dashboard));
    let mut rows = vec![
        Row {
            name: "web.edge_us",
            value: point.edge.median(),
            unit: "us",
            n: point.edge.n(),
            unattributed: None,
        },
        Row {
            name: "web.health_rtt_us",
            value: health.median(),
            unit: "us",
            n: health.n(),
            unattributed: None,
        },
        Row {
            name: "web.encode_us_per_row",
            value: scan.encode.median() / scan.rows.max(1) as f64,
            unit: "us",
            n: scan.encode.n(),
            unattributed: None,
        },
        Row {
            name: "web.admission_queued",
            value: queued,
            unit: "count",
            n: 1,
            unattributed: None,
        },
        Row {
            name: "web.admission_rejected",
            value: rejected,
            unit: "count",
            n: 1,
            unattributed: None,
        },
        Row {
            name: "security.authorize_us",
            value: point.auth.median(),
            unit: "us",
            n: point.auth.n(),
            unattributed: None,
        },
        Row {
            name: "core.gate_self_us",
            value: point.gate_self.median(),
            unit: "us",
            n: point.gate_self.n(),
            unattributed: None,
        },
        Row {
            name: "core.publish_deltas_us",
            value: publish.median(),
            unit: "us",
            n: publish.n(),
            unattributed: None,
        },
        Row {
            name: "core.watch_lag_us",
            value: lag.median(),
            unit: "us",
            n: lag.n(),
            unattributed: None,
        },
        Row {
            name: "metadata.dataset_us",
            value: dataset.median(),
            unit: "us",
            n: dataset.n(),
            unattributed: None,
        },
        Row {
            name: "sql.plan_us.point",
            value: point.plan.median(),
            unit: "us",
            n: point.plan.n(),
            unattributed: None,
        },
        Row {
            name: "sql.plan_us.dashboard",
            value: dash.plan.median(),
            unit: "us",
            n: dash.plan.n(),
            unattributed: None,
        },
    ];
    for class in ANALYST_CLASSES {
        let name: &'static str = match class {
            Class::Dashboard => "sql.exec_ms.dashboard",
            Class::GlobalAgg => "sql.exec_ms.global_agg",
            Class::TextFilter => "sql.exec_ms.text_filter",
            Class::GroupText => "sql.exec_ms.group_text",
            Class::Topk => "sql.exec_ms.topk",
            Class::Scan2000 => "sql.exec_ms.scan2000",
            _ => "sql.exec_ms.mdx_cube",
        };
        let s = if class == Class::MdxCube {
            mdx_sql.clone()
        } else {
            lv(class).exec
        };
        rows.push(Row {
            name,
            value: s.median() / 1e3,
            unit: "ms",
            n: s.n(),
            unattributed: None,
        });
    }
    rows.extend([
        Row {
            name: "sql.exec_us.point",
            value: point.exec.median(),
            unit: "us",
            n: point.exec.n(),
            unattributed: Some(point.unattributed()),
        },
        Row {
            name: "olap.cube_query_ms",
            value: cube_q.median() / 1e3,
            unit: "ms",
            n: cube_q.n(),
            unattributed: None,
        },
        Row {
            name: "olap.preagg_answer_us",
            value: preagg.median(),
            unit: "us",
            n: preagg.n(),
            unattributed: None,
        },
        Row {
            name: "olap.preagg_hit_ratio",
            value: mdx_hits as f64 / mdx_asked.max(1) as f64,
            unit: "ratio",
            n: mdx_asked as usize,
            unattributed: None,
        },
        Row {
            name: "olap.fold_rebuilds",
            value: rebuilds as f64,
            unit: "count",
            n: insert.n(),
            unattributed: None,
        },
        Row {
            name: "storage.insert_us",
            value: insert.median(),
            unit: "us",
            n: insert.n(),
            unattributed: None,
        },
        Row {
            name: "storage.wal_bytes_per_row",
            value: wal_bytes_per_row,
            unit: "B",
            n: writes_n,
            unattributed: None,
        },
        Row {
            name: "storage.wal_appends_per_stmt",
            value: wal_appends_per_stmt,
            unit: "count",
            n: writes_n,
            unattributed: None,
        },
        Row {
            name: "storage.checkpoint_ms",
            value: cp_ms.median(),
            unit: "ms",
            n: cp_ms.n(),
            unattributed: None,
        },
        Row {
            name: "storage.checkpoint_tables_flushed",
            value: cp_flushed.median(),
            unit: "count",
            n: cp_flushed.n(),
            unattributed: None,
        },
        Row {
            name: "storage.checkpoint_bytes_folded",
            value: cp_folded.median(),
            unit: "B",
            n: cp_folded.n(),
            unattributed: None,
        },
        Row {
            name: "storage.scan_batch_cold_ms",
            value: cold.median() / 1e3,
            unit: "ms",
            n: cold.n(),
            unattributed: None,
        },
        Row {
            name: "storage.scan_batch_warm_us",
            value: warm.median(),
            unit: "us",
            n: warm.n(),
            unattributed: None,
        },
        Row {
            name: "etl.load_rows_per_s",
            value: etl_rows_per_s,
            unit: "rows/s",
            n: spec.tenants * 2,
            unattributed: None,
        },
        Row {
            name: "trace.unattributed_us.point",
            value: point.unattributed(),
            unit: "us",
            n: point.http.n(),
            unattributed: None,
        },
        Row {
            name: "trace.unattributed_us.scan2000",
            value: scan.unattributed(),
            unit: "us",
            n: scan.http.n(),
            unattributed: None,
        },
        Row {
            name: "trace.unattributed_us.dashboard",
            value: dash.unattributed(),
            unit: "us",
            n: dash.http.n(),
            unattributed: None,
        },
        Row {
            name: "trace.p50_ms_untraced",
            value: p50[0],
            unit: "ms",
            n: 1,
            unattributed: None,
        },
        Row {
            name: "trace.p50_ms_traced",
            value: p50[1],
            unit: "ms",
            n: 1,
            unattributed: None,
        },
        Row {
            name: "trace.overhead_ratio",
            value: p50[1] / p50[0],
            unit: "ratio",
            n: 1,
            unattributed: None,
        },
    ]);
    notes.push(format!(
        "{:<34} {:>14} {:<7} {:>6}",
        "per-layer metric", "value", "unit", "n"
    ));
    for r in &rows {
        notes.push(format!(
            "{:<34} {:>14.4} {:<7} {:>6}{}",
            r.name,
            r.value,
            r.unit,
            r.n,
            r.unattributed.map_or(String::new(), |u| format!(
                "  (point round trip unattributed {u:.2} us)"
            ))
        ));
    }
    for (class, l) in &levels {
        notes.push(format!(
            "{:<11} http {:>9.1} = edge {:>8.1} + encode {:>8.1} + gate_self {:>7.1} + auth {:>6.1} + exec {:>9.1} + publish {:>5.1} + unattributed {:>7.1} us (n={}, rows={})",
            class.name(),
            l.http.median(),
            l.edge.median(),
            l.encode.median(),
            l.gate_self.median(),
            l.auth.median(),
            l.exec.median(),
            l.publish.median(),
            l.unattributed(),
            l.http.n(),
            l.rows
        ));
    }
    Ok(Traced {
        metrics: rows.iter().map(|r| (r.name, r.value, r.unit)).collect(),
        notes,
        checks,
        tally,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_sums_every_tenant_of_a_family() {
        let text = "# TYPE odbis_admission_queued_total counter\n\
odbis_admission_queued_total{tenant=\"a\"} 2\n\
odbis_admission_queued_total{tenant=\"b\"} 3\n\
odbis_admission_queued_totally{tenant=\"b\"} 50\n";
        assert_eq!(scrape_total(text, "odbis_admission_queued_total"), 5.0);
        assert_eq!(scrape_total(text, "odbis_admission_rejected_total"), 0.0);
    }
}
