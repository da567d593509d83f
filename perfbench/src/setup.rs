//! Set-up: provision tenants on a durable in-process platform, load each
//! warehouse through the Integration Service from CSV extracts, register
//! data sets, the cube and its materialized aggregate, log in, and start
//! the HTTP edge. Also the restart path used to measure recovery.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use odbis::{serve_platform, OdbisPlatform, TenantWorkspace};
use odbis_etl::{EtlJob, Extractor, LoadMode, Loader};
use odbis_metadata::DataSet;
use odbis_olap::{Aggregator, CubeDef, CubeQuery, DimensionDef, LevelDef, LevelRef, MeasureDef};
use odbis_tenancy::SubscriptionPlan;
use odbis_web::HttpServer;

use crate::data::{self, DATASETS, DDL_DIM, DDL_FACT};

pub const CUBE: &str = "admissions";
const ADMIN: &str = "admin";
const PASSWORD: &str = "bench-pw";

/// One tenant's identity and session.
#[derive(Debug, Clone)]
pub struct Login {
    pub id: String,
    pub token: String,
}

/// A running deployment: the platform, its HTTP edge and the sessions.
pub struct Deployment {
    pub platform: Arc<OdbisPlatform>,
    pub server: HttpServer,
    pub logins: Vec<Login>,
    /// Rows loaded by the Integration Service, and the time its jobs took.
    pub etl_rows: usize,
    pub etl_time: Duration,
}

impl Deployment {
    pub fn workspace(&self, tenant: usize) -> Arc<TenantWorkspace> {
        self.platform
            .workspace(&self.logins[tenant].id)
            .expect("provisioned tenant has a workspace")
    }

    pub fn shutdown(self) -> Arc<OdbisPlatform> {
        self.server.shutdown();
        self.platform
    }
}

/// The tenants' CSV extracts, generated once per run (input generation is
/// not part of set-up time).
pub struct Extracts {
    pub dims: Vec<String>,
    pub facts: Vec<String>,
}

pub fn extracts(seed: u64, tenants: usize, rows: usize) -> Extracts {
    let seeds: Vec<u64> = (0..tenants).map(|t| data::tenant_seed(seed, t)).collect();
    Extracts {
        dims: seeds.iter().map(|&s| data::dim_csv(s)).collect(),
        facts: seeds.iter().map(|&s| data::fact_csv(s, rows)).collect(),
    }
}

pub fn tenant_id(t: usize) -> String {
    format!("t{t}")
}

/// The Figure 6 admissions cube: department (snowflaked), time and a
/// degenerate diagnosis dimension.
pub fn cube() -> CubeDef {
    let level = |name: &str, column: &str| LevelDef {
        name: name.into(),
        column: column.into(),
    };
    CubeDef {
        name: CUBE.into(),
        fact_table: "fact_admission".into(),
        dimensions: vec![
            DimensionDef {
                name: "department".into(),
                table: Some("dim_department".into()),
                fact_fk: "dept_id".into(),
                dim_key: "dept_id".into(),
                levels: vec![level("name", "name")],
            },
            DimensionDef {
                name: "time".into(),
                table: None,
                fact_fk: String::new(),
                dim_key: String::new(),
                levels: vec![level("year", "year"), level("month", "month")],
            },
            DimensionDef {
                name: "diagnosis".into(),
                table: None,
                fact_fk: String::new(),
                dim_key: String::new(),
                levels: vec![level("code", "diagnosis")],
            },
        ],
        measures: vec![
            MeasureDef {
                name: "total_cost".into(),
                column: "cost".into(),
                aggregator: Aggregator::Sum,
            },
            MeasureDef {
                name: "admissions".into(),
                column: "id".into(),
                aggregator: Aggregator::Count,
            },
        ],
    }
}

/// The materialized aggregate's axes and measures: department x year.
pub fn preagg_axes() -> (Vec<LevelRef>, Vec<String>) {
    (
        vec![
            LevelRef::new("department", "name"),
            LevelRef::new("time", "year"),
        ],
        vec!["total_cost".into(), "admissions".into()],
    )
}

/// The preagg-covered query for one year (what `mdx_preagg` asks).
pub fn preagg_query(year: i64) -> CubeQuery {
    odbis_olap::parse_mdx(&format!(
        "SELECT total_cost, admissions BY department.name FROM {CUBE} WHERE time.year = {year}"
    ))
    .expect("static MDX")
    .query
}

fn err<E: std::fmt::Display>(what: &str) -> impl FnOnce(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Create the tenant identity with its durability policy and attach its
/// workspace (recovering whatever its data directory holds), then log in.
fn attach(platform: &OdbisPlatform, id: &str, fsync: Option<&str>) -> Result<Login, String> {
    platform
        .provision_identity(id, id, SubscriptionPlan::standard(), ADMIN, PASSWORD)
        .map_err(err("provision"))?;
    if let Some(policy) = fsync {
        platform
            .admin
            .config
            .set_for_tenant(id, "durability.fsync", policy.into())
            .map_err(err("durability.fsync"))?;
    }
    platform.attach_workspace(id).map_err(err("attach"))?;
    let token = platform.login(id, ADMIN, PASSWORD).map_err(err("login"))?;
    Ok(Login {
        id: id.to_string(),
        token,
    })
}

/// Register the data sets, the cube and its materialized aggregate.
pub fn register_semantics(platform: &OdbisPlatform, login: &Login) -> Result<(), String> {
    let (id, token) = (login.id.as_str(), login.token.as_str());
    for (name, sql) in DATASETS {
        platform
            .define_dataset(
                id,
                token,
                DataSet {
                    name: name.into(),
                    source: "warehouse".into(),
                    sql: sql.into(),
                    description: format!("benchmark data set {name}"),
                },
            )
            .map_err(err("define_dataset"))?;
    }
    platform
        .register_cube(id, token, cube())
        .map_err(err("register_cube"))?;
    let (axes, measures) = preagg_axes();
    platform
        .materialize_aggregate(id, token, CUBE, axes, measures)
        .map_err(err("materialize_aggregate"))?;
    Ok(())
}

/// Provision, load, register, log in and serve. `dir` is the platform's
/// data directory.
pub fn deploy(
    dir: &Path,
    extracts: &Extracts,
    fsync: Option<&str>,
    workers: usize,
) -> Result<Deployment, String> {
    let platform = Arc::new(OdbisPlatform::with_data_dir(dir));
    let mut logins = Vec::new();
    let (mut etl_rows, mut etl_time) = (0, Duration::ZERO);
    for (t, (dim, fact)) in extracts.dims.iter().zip(&extracts.facts).enumerate() {
        let login = attach(&platform, &tenant_id(t), fsync)?;
        let (id, token) = (login.id.as_str(), login.token.as_str());
        for ddl in [DDL_DIM, DDL_FACT] {
            platform.sql(id, token, ddl).map_err(err("ddl"))?;
        }
        for (table, csv) in [("dim_department", dim), ("fact_admission", fact)] {
            let started = Instant::now();
            let report = platform
                .run_etl(
                    id,
                    token,
                    &EtlJob {
                        name: format!("load-{table}"),
                        extractor: Extractor::Csv(csv.clone()),
                        transforms: vec![],
                        loader: Loader {
                            table: table.into(),
                            mode: LoadMode::Append,
                        },
                    },
                )
                .map_err(err("run_etl"))?;
            etl_time += started.elapsed();
            if report.rejected > 0 {
                return Err(format!(
                    "{id}: ETL rejected {} rows of {table}",
                    report.rejected
                ));
            }
            etl_rows += report.loaded;
        }
        register_semantics(&platform, &login)?;
        logins.push(login);
    }
    let server = serve_platform(&platform, workers).map_err(err("serve_platform"))?;
    Ok(Deployment {
        platform,
        server,
        logins,
        etl_rows,
        etl_time,
    })
}

/// Reopen a data directory after a restart: re-provision every tenant
/// (which recovers segments and the WAL tail) and run one query per
/// tenant. Returns the platform, the new sessions and the time until every
/// tenant's first query answered.
pub fn reopen(
    dir: &Path,
    tenants: usize,
    fsync: Option<&str>,
) -> Result<(Arc<OdbisPlatform>, Vec<Login>, Duration), String> {
    let started = Instant::now();
    let platform = Arc::new(OdbisPlatform::with_data_dir(dir));
    let mut logins = Vec::new();
    for t in 0..tenants {
        let login = attach(&platform, &tenant_id(t), fsync)?;
        platform
            .sql(
                &login.id,
                &login.token,
                "SELECT COUNT(*) FROM fact_admission",
            )
            .map_err(err("first query after restart"))?;
        logins.push(login);
    }
    Ok((platform, logins, started.elapsed()))
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

/// A scratch data directory inside the working directory, removed on drop.
pub struct DataDir(pub PathBuf);

impl DataDir {
    pub fn new(name: &str) -> Result<DataDir, String> {
        let path = PathBuf::from(".bench_data").join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(err("create data dir"))?;
        Ok(DataDir(path))
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // leave no empty parent behind either
        let _ = std::fs::remove_dir(".bench_data");
    }
}
