//! One run's result: the end-to-end or per-layer metrics, the operation
//! counts, and the environment they were measured in.

use crate::metrics::Values;
use crate::procinfo;
use crate::stats::Json;

/// What a workload run hands back to `main` for printing.
#[derive(Debug, Default)]
pub struct Report {
    /// Every output check passed (and, when traced, the layer-sum check).
    pub correct: bool,
    /// Operations attempted: grid records or HTTP requests.
    pub attempted: u64,
    /// Failed operations: non-200 responses, transport errors and
    /// verification mismatches.
    pub failed: u64,
    /// Measured metric values by name.
    pub values: Values,
    /// Sample counts and other context stored beside the result.
    pub detail: Vec<(String, Json)>,
}

impl Report {
    /// Appends a detail field.
    pub fn detail(&mut self, name: impl Into<String>, value: Json) {
        self.detail.push((name.into(), value));
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, the metrics being `names` in order. A name the run did
    /// not measure reads `missing` (0 for a layer the workload never
    /// calls, or a panic for an end-to-end metric every run must measure).
    pub fn result_line(&self, names: &[(String, &'static str)], missing: Option<f64>) -> String {
        for name in self.values.keys() {
            assert!(
                names.iter().any(|(n, _)| n == name),
                "unlisted metric {name}"
            );
        }
        let metrics = names.iter().map(|(name, unit)| {
            let value = self
                .values
                .get(name)
                .copied()
                .or(missing)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            (
                name.clone(),
                Json::obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::Str((*unit).into())),
                ]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Int(self.attempted as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("metrics", Json::obj(metrics)),
        ])
        .render()
    }

    /// The environment line printed before the result: where, on what
    /// and how the numbers were measured.
    pub fn environment_line(&self, workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
        let failed_ratio = self.failed as f64 / self.attempted.max(1) as f64;
        let mut fields = vec![
            ("workload".to_owned(), Json::Str(workload.into())),
            ("seed".to_owned(), Json::Int(seed as i64)),
            ("seconds".to_owned(), Json::Int(seconds as i64)),
            ("trace".to_owned(), Json::Bool(trace)),
            ("commit".to_owned(), Json::Str(commit())),
            ("nproc".to_owned(), Json::Int(procinfo::nproc() as i64)),
            (
                "rustc".to_owned(),
                Json::Str(env!("PERFBENCH_RUSTC").into()),
            ),
            ("failed_ratio".to_owned(), Json::Num(failed_ratio)),
        ];
        fields.extend(self.detail.iter().cloned());
        Json::obj([("environment", Json::obj(fields))]).render()
    }
}

/// The commit of the checkout, read from `.git` without running git; a
/// checkout that is not a git repository reads `unknown`.
fn commit() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Some(id) = read(&format!(".git/{reference}")) {
        return id.trim().to_owned();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (id, name) = line.split_once(' ')?;
                (name == reference).then(|| id.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}
