//! Telemetry-spine overhead: the same gated platform calls with the
//! tenant's `telemetry.enabled` flag on and off. The spine's acceptance
//! budget is ≤5% overhead on the traced path; the disabled path must be
//! indistinguishable from free.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use odbis::OdbisPlatform;
use odbis_tenancy::SubscriptionPlan;

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .measurement_time(Duration::from_millis(3000))
        .warm_up_time(Duration::from_millis(500))
}

fn booted(telemetry_on: bool) -> (Arc<OdbisPlatform>, String) {
    let p = Arc::new(OdbisPlatform::new());
    p.provision_tenant("acme", "Acme", SubscriptionPlan::standard(), "root", "pw")
        .unwrap();
    let token = p.login("acme", "root", "pw").unwrap();
    if !telemetry_on {
        p.admin
            .config
            .set_for_tenant("acme", "telemetry.enabled", false.into())
            .unwrap();
    }
    p.sql("acme", &token, "CREATE TABLE kpis (k TEXT, v INT)")
        .unwrap();
    let mut insert = String::from("INSERT INTO kpis VALUES ('a', 0)");
    for i in 1..2_000 {
        insert.push_str(&format!(", ('k{i}', {i})"));
    }
    p.sql("acme", &token, &insert).unwrap();
    (p, token)
}

const QUERIES: &[(&str, &str)] = &[
    ("point", "SELECT v FROM kpis WHERE k = 'k999'"),
    (
        "aggregate",
        "SELECT COUNT(*) AS n, SUM(v) AS total FROM kpis",
    ),
];

/// The raw cost of the instrumentation itself, isolated from query noise:
/// one gate root span + one service child span, fully recorded, vs the
/// inert disabled span.
fn span_microcost(c: &mut Criterion) {
    let t = Arc::new(odbis_telemetry::Telemetry::new());
    let mut group = c.benchmark_group("telemetry_span");
    group.bench_function("root_child_pair", |b| {
        b.iter(|| {
            let mut s = t.span("acme", "MDS", "sql", 250);
            s.set_detail("SELECT v FROM kpis WHERE k = 'k999'");
            let mut child = odbis_telemetry::child_span("sql", "execute");
            child.set_rows(1);
            drop(child);
            s.set_rows(1);
        })
    });
    group.bench_function("disabled_span", |b| {
        b.iter(|| {
            let mut s = odbis_telemetry::Span::disabled();
            s.set_rows(1);
        })
    });
    group.finish();
}

fn telemetry_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_overhead");
    for (mode, on) in [("on", true), ("off", false)] {
        let (p, token) = booted(on);
        for (label, sql) in QUERIES {
            group.bench_with_input(
                BenchmarkId::new(format!("sql_{label}"), mode),
                &mode,
                |b, _| b.iter(|| p.sql("acme", &token, sql).unwrap()),
            );
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = configured();
    targets = telemetry_overhead, span_microcost
}
criterion_main!(benches);
