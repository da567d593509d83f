//! Generated inputs: the warehouse each tenant loads and the request
//! streams the generator sends. Everything is a pure function of the seed.
//!
//! Every workload uses the same star (the paper's Figure 6 healthcare
//! warehouse): `fact_admission` with a low-cardinality `diagnosis` and a
//! high-cardinality `patient` TEXT column, joined to `dim_department`.
//! Workloads differ in size, tenant count and request mix.

use crate::rng::{derive, mix, Rng};

pub const DEPARTMENTS: [&str; 6] = [
    "Cardiology",
    "Emergency",
    "Neurology",
    "Oncology",
    "Orthopedics",
    "Pediatrics",
];
pub const DIAGNOSES: usize = 20;
pub const YEARS: [i64; 3] = [2008, 2009, 2010];
/// Rows per INSERT statement.
pub const INSERT_ROWS: usize = 20;
/// One response body in this many is compared against a reference.
pub const CHECK_ONE_IN: u64 = 8;

pub const DDL_DIM: &str =
    "CREATE TABLE dim_department (dept_id INT PRIMARY KEY, name TEXT NOT NULL, head_count INT)";
pub const DDL_FACT: &str = "CREATE TABLE fact_admission (id INT PRIMARY KEY, dept_id INT, \
     year INT, month INT, cost DOUBLE, stay_days INT, diagnosis TEXT, patient TEXT)";

/// The data sets every tenant defines in its Meta-Data Service.
pub const DATASETS: [(&str, &str); 2] = [
    (
        "departments",
        "SELECT dept_id, name, head_count FROM dim_department ORDER BY dept_id",
    ),
    (
        "admission_count",
        "SELECT COUNT(*) AS n FROM fact_admission",
    ),
];

/// The data set the freshness watcher parks on.
pub const WATCHED_DATASET: &str = "admission_count";

/// One fact row, generated from its id alone.
#[derive(Debug, Clone, PartialEq)]
pub struct FactRow {
    pub id: i64,
    pub dept_id: i64,
    pub year: i64,
    pub month: i64,
    pub cost: f64,
    pub stay_days: i64,
    pub diagnosis: String,
    pub patient: String,
}

/// Fact row `id` of a tenant whose data seed is `seed`. `patients` sets
/// the cardinality of the `patient` column.
pub fn fact_row(seed: u64, id: i64, patients: u64) -> FactRow {
    let mut r = Rng::new(derive(seed, id as u64));
    let dept_id = r.below(DEPARTMENTS.len() as u64) as i64;
    let year = YEARS[r.below(3) as usize];
    let month = 1 + r.below(12) as i64;
    // department-skewed costs with two decimals, never integral
    let cents = 50_000 + dept_id as u64 * 40_000 + r.below(200_000);
    let cents = if cents.is_multiple_of(100) {
        cents + 1
    } else {
        cents
    };
    let stay_days = 1 + r.below(21) as i64;
    // a skewed diagnosis mix: low codes are common
    let d = (r.unit() * r.unit() * DIAGNOSES as f64) as usize;
    FactRow {
        id,
        dept_id,
        year,
        month,
        cost: cents as f64 / 100.0,
        stay_days,
        diagnosis: format!("DX{d:02}"),
        patient: format!("P{:06}", r.below(patients)),
    }
}

impl FactRow {
    fn csv(&self) -> String {
        format!(
            "{},{},{},{},{:.2},{},{},{}",
            self.id,
            self.dept_id,
            self.year,
            self.month,
            self.cost,
            self.stay_days,
            self.diagnosis,
            self.patient
        )
    }

    fn sql_tuple(&self) -> String {
        format!(
            "({}, {}, {}, {}, {:.2}, {}, '{}', '{}')",
            self.id,
            self.dept_id,
            self.year,
            self.month,
            self.cost,
            self.stay_days,
            self.diagnosis,
            self.patient
        )
    }
}

/// Patient cardinality for a fact table of `rows` rows.
pub fn patients_for(rows: usize) -> u64 {
    (rows as u64 * 4 / 5).max(10)
}

/// The tenant's data seed.
pub fn tenant_seed(seed: u64, tenant: usize) -> u64 {
    derive(seed, 1_000 + tenant as u64)
}

/// The CSV extract the Integration Service loads into `fact_admission`.
pub fn fact_csv(seed: u64, rows: usize) -> String {
    let patients = patients_for(rows);
    let mut out = String::from("id,dept_id,year,month,cost,stay_days,diagnosis,patient\n");
    for id in 0..rows as i64 {
        out.push_str(&fact_row(seed, id, patients).csv());
        out.push('\n');
    }
    out
}

/// The CSV extract for `dim_department`.
pub fn dim_csv(seed: u64) -> String {
    let mut r = Rng::new(derive(seed, 77));
    let mut out = String::from("dept_id,name,head_count\n");
    for (i, name) in DEPARTMENTS.iter().enumerate() {
        out.push_str(&format!("{i},{name},{}\n", 20 + r.below(180)));
    }
    out
}

/// A 20-row INSERT of ids `first..first + 20`.
pub fn insert_sql(seed: u64, first: i64, patients: u64) -> String {
    let tuples: Vec<String> = (first..first + INSERT_ROWS as i64)
        .map(|id| fact_row(seed, id, patients).sql_tuple())
        .collect();
    format!("INSERT INTO fact_admission VALUES {}", tuples.join(", "))
}

/// Request classes. Each is one kind of user request; `Insert` is the
/// only write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    Dashboard,
    GlobalAgg,
    TextFilter,
    GroupText,
    Topk,
    Scan2000,
    MdxCube,
    Point,
    Dataset,
    MdxPreagg,
    Health,
    Insert,
}

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::Dashboard => "dashboard",
            Class::GlobalAgg => "global_agg",
            Class::TextFilter => "text_filter",
            Class::GroupText => "group_text",
            Class::Topk => "topk",
            Class::Scan2000 => "scan2000",
            Class::MdxCube => "mdx_cube",
            Class::Point => "point",
            Class::Dataset => "dataset",
            Class::MdxPreagg => "mdx_preagg",
            Class::Health => "health",
            Class::Insert => "insert",
        }
    }
}

/// The analyst classes, in table order.
pub const ANALYST_CLASSES: [Class; 7] = [
    Class::Dashboard,
    Class::GlobalAgg,
    Class::TextFilter,
    Class::GroupText,
    Class::Topk,
    Class::Scan2000,
    Class::MdxCube,
];

/// What one request asks for, before it is put on the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    Sql(String),
    Mdx(String),
    Dataset(&'static str),
    Health,
}

/// One generated request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub class: Class,
    pub tenant: usize,
    pub op: Op,
    /// First id of an INSERT's 20 rows.
    pub insert_first: Option<i64>,
    /// Whether this response body is compared against a reference.
    pub check: bool,
}

impl Request {
    pub fn method(&self) -> &'static str {
        match self.op {
            Op::Sql(_) | Op::Mdx(_) => "POST",
            Op::Dataset(_) | Op::Health => "GET",
        }
    }

    pub fn path(&self) -> String {
        match &self.op {
            Op::Sql(_) => "/api/v1/sql".into(),
            Op::Mdx(_) => "/api/v1/mdx".into(),
            Op::Dataset(name) => format!("/api/v1/datasets/{name}"),
            Op::Health => "/api/v1/health".into(),
        }
    }

    pub fn body(&self) -> &str {
        match &self.op {
            Op::Sql(s) | Op::Mdx(s) => s,
            Op::Dataset(_) | Op::Health => "",
        }
    }
}

/// The SQL or MDX text of a read class for parameter draw `r`, over a fact
/// table of `rows` rows.
pub fn read_op(class: Class, r: &mut Rng, rows: usize) -> Op {
    let year = YEARS[r.below(3) as usize];
    match class {
        Class::Dashboard => Op::Sql(format!(
            "SELECT d.name, COUNT(*) AS admissions, SUM(f.cost) AS total_cost, \
             AVG(f.stay_days) AS avg_stay FROM fact_admission f JOIN dim_department d \
             ON f.dept_id = d.dept_id WHERE f.year = {year} GROUP BY d.name ORDER BY d.name"
        )),
        Class::GlobalAgg => Op::Sql(format!(
            "SELECT COUNT(*), SUM(cost), AVG(stay_days), MIN(cost), MAX(cost) \
             FROM fact_admission WHERE stay_days >= {}",
            1 + r.below(10)
        )),
        Class::TextFilter => Op::Sql(format!(
            "SELECT COUNT(*), SUM(cost), AVG(stay_days) FROM fact_admission \
             WHERE diagnosis = 'DX{:02}'",
            r.below(DIAGNOSES as u64)
        )),
        Class::GroupText => Op::Sql(format!(
            "SELECT diagnosis, COUNT(*), SUM(cost) FROM fact_admission WHERE year = {year} \
             GROUP BY diagnosis ORDER BY diagnosis"
        )),
        Class::Topk => Op::Sql(format!(
            "SELECT patient, SUM(cost) AS spend FROM fact_admission WHERE dept_id = {} \
             GROUP BY patient ORDER BY spend DESC, patient LIMIT 10",
            r.below(DEPARTMENTS.len() as u64)
        )),
        Class::Scan2000 => {
            let start = r.below((rows.saturating_sub(2000) + 1) as u64);
            Op::Sql(format!(
                "SELECT id, dept_id, cost, diagnosis, patient FROM fact_admission \
                 WHERE id >= {start} AND id < {} ORDER BY id",
                start + 2000
            ))
        }
        Class::MdxCube => Op::Mdx(format!(
            "SELECT total_cost, admissions BY diagnosis.code FROM admissions \
             WHERE time.year = {year}"
        )),
        Class::Point => Op::Sql(format!(
            "SELECT id, dept_id, year, month, cost, stay_days, diagnosis, patient \
             FROM fact_admission WHERE id = {}",
            r.below(rows as u64)
        )),
        Class::Dataset => Op::Dataset("departments"),
        Class::MdxPreagg => Op::Mdx(format!(
            "SELECT total_cost, admissions BY department.name FROM admissions \
             WHERE time.year = {year}"
        )),
        Class::Health => Op::Health,
        Class::Insert => unreachable!("inserts are not reads"),
    }
}

/// A request stream: a class mix over some tenants. Request `i`
/// is a pure function of `(seed, i)`, so streams of any length replay
/// identically and need no memory.
#[derive(Debug, Clone)]
pub struct Stream {
    pub seed: u64,
    pub data_seed: u64,
    /// One block of the mix: a class listed twice is sent twice as often.
    pub mix: Vec<Class>,
    pub tenants: usize,
    pub rows: usize,
    /// Ids for INSERTs start here: request `i` inserts
    /// `id_base + 20 i .. id_base + 20 i + 20`.
    pub id_base: i64,
}

impl Stream {
    /// The class of request `i`. Requests come in blocks of one full mix
    /// in a seeded order, so every run sends exactly the mix's
    /// proportions: a median that falls between two classes' latencies
    /// cannot flip with the seed.
    pub fn class(&self, i: usize) -> Class {
        let mut block = self.mix.clone();
        let mut r = Rng::new(derive(self.seed, (i / block.len()) as u64 | 1 << 63));
        for k in (1..block.len()).rev() {
            block.swap(k, r.below(k as u64 + 1) as usize);
        }
        block[i % block.len()]
    }

    pub fn request(&self, i: usize) -> Request {
        let mut r = Rng::new(derive(self.seed, i as u64));
        let class = self.class(i);
        let tenant = r.below(self.tenants as u64) as usize;
        let check = mix(self.seed ^ (i as u64).wrapping_mul(0x2545_F491_4F6C_DD1D))
            .is_multiple_of(CHECK_ONE_IN);
        if class == Class::Insert {
            let first = self.id_base + (i * INSERT_ROWS) as i64;
            let seed = tenant_seed(self.data_seed, tenant);
            return Request {
                class,
                tenant,
                op: Op::Sql(insert_sql(seed, first, patients_for(self.rows))),
                insert_first: Some(first),
                check,
            };
        }
        Request {
            class,
            tenant,
            op: read_op(class, &mut r, self.rows),
            insert_first: None,
            check,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64) -> Stream {
        Stream {
            seed,
            data_seed: 9,
            mix: vec![Class::Point, Class::Point, Class::Insert, Class::Dashboard],
            tenants: 3,
            rows: 5000,
            id_base: 1_000_000,
        }
    }

    #[test]
    fn data_is_a_function_of_the_seed() {
        assert_eq!(fact_csv(1, 300), fact_csv(1, 300));
        assert_ne!(fact_csv(1, 300), fact_csv(2, 300));
        assert_eq!(dim_csv(4), dim_csv(4));
        assert_eq!(fact_row(5, 17, 100), fact_row(5, 17, 100));
        // the CSV row and an INSERT of the same id carry the same values
        let row = fact_row(5, 17, patients_for(300));
        assert!(fact_csv(5, 300).contains(&row.csv()));
        assert!(insert_sql(5, 17, patients_for(300)).contains(&row.sql_tuple()));
    }

    #[test]
    fn costs_are_never_integral_so_csv_inference_keeps_them_float() {
        for id in 0..2000 {
            let c = fact_row(3, id, 10).cost;
            assert_ne!(c.fract(), 0.0);
        }
    }

    #[test]
    fn request_streams_replay_from_the_seed() {
        let (a, b, c) = (stream(11), stream(11), stream(12));
        let ra: Vec<Request> = (0..500).map(|i| a.request(i)).collect();
        let rb: Vec<Request> = (0..500).map(|i| b.request(i)).collect();
        let rc: Vec<Request> = (0..500).map(|i| c.request(i)).collect();
        assert_eq!(ra, rb);
        assert_ne!(ra, rc);
        // random access equals sequential generation
        assert_eq!(a.request(321), ra[321]);
    }

    #[test]
    fn every_block_holds_the_exact_mix_and_sampling_holds_roughly() {
        let s = stream(3);
        let reqs: Vec<Request> = (0..8000).map(|i| s.request(i)).collect();
        for block in reqs.chunks(4) {
            let count = |c| block.iter().filter(|r| r.class == c).count();
            assert_eq!(
                (
                    count(Class::Point),
                    count(Class::Insert),
                    count(Class::Dashboard)
                ),
                (2, 1, 1)
            );
        }
        // the order within blocks follows the seed
        assert_ne!(
            (0..40).map(|i| s.class(i)).collect::<Vec<_>>(),
            (0..40).map(|i| stream(4).class(i)).collect::<Vec<_>>()
        );
        let checked = reqs.iter().filter(|r| r.check).count();
        assert!((800..1200).contains(&checked), "{checked}");
        assert!(reqs.iter().all(|r| r.tenant < 3));
    }

    #[test]
    fn insert_ids_never_collide_within_a_stream() {
        let s = stream(3);
        let mut ids: Vec<i64> = (0..2000)
            .filter_map(|i| s.request(i).insert_first)
            .flat_map(|f| f..f + INSERT_ROWS as i64)
            .collect();
        let n = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), n);
        assert!(ids[0] >= 1_000_000);
    }

    #[test]
    fn scan2000_always_spans_2000_existing_ids() {
        let mut r = Rng::new(1);
        for _ in 0..200 {
            let Op::Sql(sql) = read_op(Class::Scan2000, &mut r, 4000) else {
                panic!("scan is SQL")
            };
            let start: u64 = sql
                .split("id >= ")
                .nth(1)
                .unwrap()
                .split(' ')
                .next()
                .unwrap()
                .parse()
                .unwrap();
            assert!(start + 2000 <= 4000);
        }
    }
}
