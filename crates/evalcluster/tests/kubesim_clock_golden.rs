//! Golden equivalence fixture for kubesim's simulated clock.
//!
//! Every job below runs through `ShellSubstrate::execute_prepared` on a
//! fresh sandbox; the fixture pins, per job, whether it passed, the
//! simulated milliseconds it consumed and an FNV-1a digest of the whole
//! `Debug`-formatted result (transcript and error text included). Any
//! change to how simulated time advances that alters a verdict, a
//! transcript byte or a clock reading fails this test.
//!
//! The same corpus also runs through the text entry point
//! `ShellSubstrate::execute` (every layer parses the candidate itself)
//! and must reproduce the same rows: the parse-once path the engine uses
//! is invisible in every verdict, transcript and clock reading.
//!
//! The jobs are the benchmark's two failure surfaces:
//!
//! * the grid's distinct greedy candidates — twelve simulated models ×
//!   three variants × every 4th problem, deduplicated on (extracted
//!   YAML, unit test) exactly like the verdict memo;
//! * the taxonomy corpus — every problem × the five Figure 7 corruption
//!   classes plus the reference answer, over both the base dataset and
//!   `Dataset::generate_extended(100)` (which adds the CronJob, HPA,
//!   Ingress, NetworkPolicy and ConfigMap scenario families).
//!
//! The fixture was written by the `regenerate_golden_fixture` test
//! (ignored by default) against the tick-per-250-ms clock that the
//! event-driven clock replaced.

use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

use cedataset::{Dataset, Problem, Variant};
use llmsim::corrupt::{answer_seed, realize};
use llmsim::{AnswerCategory, GenParams, LanguageModel};
use substrate::{ExecError, ExecOutcome, ShellSubstrate, Substrate};
use yamlkit::doc::content_hash;
use yamlkit::PreparedDoc;

/// Fixture path relative to the crate root.
const FIXTURE: &str = "tests/data/kubesim_clock_golden.tsv";

/// The grid workload's problem stride.
const GRID_STRIDE: usize = 4;

/// Worker threads running the jobs.
const WORKERS: usize = 2;

/// One candidate × unit-test pair.
struct Job {
    id: String,
    script: String,
    candidate: String,
}

fn grid_jobs() -> Vec<Job> {
    let dataset = Arc::new(Dataset::generate());
    let models = llmsim::standard_models(Arc::clone(&dataset));
    let problems: Vec<&Problem> = dataset.problems().iter().step_by(GRID_STRIDE).collect();
    let mut seen = HashSet::new();
    let mut jobs = Vec::new();
    for model in &models {
        for variant in Variant::ALL {
            for problem in &problems {
                let prompt = cedataset::fewshot::build_prompt(&problem.prompt_body(variant), 0);
                let raw = model.generate(&prompt, &GenParams::default());
                let candidate = llmsim::extract_yaml(&raw);
                let key = (content_hash(&candidate), content_hash(&problem.unit_test));
                if seen.insert(key) {
                    jobs.push(Job {
                        id: format!("grid/{}/{variant:?}/{}", model.name(), problem.id),
                        script: problem.unit_test.clone(),
                        candidate,
                    });
                }
            }
        }
    }
    jobs
}

fn taxonomy_jobs(tag: &str, dataset: &Dataset) -> Vec<Job> {
    let corrupt = [
        AnswerCategory::EmptyOrTiny,
        AnswerCategory::NoKind,
        AnswerCategory::IncompleteYaml,
        AnswerCategory::WrongKind,
        AnswerCategory::FailsTest,
    ];
    let mut jobs = Vec::new();
    for problem in dataset.problems() {
        let seed = answer_seed("grid", &problem.id, 0, 0, 0);
        let realized = corrupt
            .iter()
            .map(|&category| (category, realize(problem, category, seed, 0.0)))
            .chain([(
                AnswerCategory::Correct,
                realize(problem, AnswerCategory::Correct, 1, 0.0),
            )]);
        for (category, candidate) in realized {
            jobs.push(Job {
                id: format!("{tag}/{}/{category:?}", problem.id),
                script: problem.unit_test.clone(),
                candidate,
            });
        }
    }
    jobs
}

/// The whole corpus, built once per test binary.
fn all_jobs() -> &'static [Job] {
    static JOBS: OnceLock<Vec<Job>> = OnceLock::new();
    JOBS.get_or_init(|| {
        let mut jobs = grid_jobs();
        jobs.extend(taxonomy_jobs("taxonomy", &Dataset::generate()));
        jobs.extend(taxonomy_jobs("extended", &Dataset::generate_extended(100)));
        jobs
    })
}

type ExecResult = Result<ExecOutcome, ExecError>;

/// The parse-once entry point the executor uses.
fn execute_prepared(job: &Job) -> ExecResult {
    let doc = PreparedDoc::shared(job.candidate.as_str());
    ShellSubstrate::new().execute_prepared(&doc, &job.script)
}

/// The text entry point: every layer parses the candidate itself.
fn execute_text(job: &Job) -> ExecResult {
    ShellSubstrate::new().execute(&job.candidate, &job.script)
}

/// `id  passed  simulated_ms  digest`, tab-separated.
fn fixture_line(job: &Job, execute: fn(&Job) -> ExecResult) -> String {
    let result = execute(job);
    let (passed, simulated_ms) = match &result {
        Ok(outcome) => (outcome.passed, outcome.simulated_ms),
        Err(_) => (false, 0),
    };
    let digest = content_hash(&format!("{result:?}"));
    format!("{}\t{passed}\t{simulated_ms}\t{digest:016x}", job.id)
}

/// Fixture lines for every job, in job order.
fn run_all(execute: fn(&Job) -> ExecResult) -> Vec<String> {
    let jobs = all_jobs();
    let chunk = jobs.len().div_ceil(WORKERS);
    std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .map(|job| fixture_line(job, execute))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("fixture worker panicked"))
            .collect()
    })
}

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(FIXTURE)
}

fn assert_matches_fixture(actual: &[String]) {
    let expected = std::fs::read_to_string(fixture_path()).expect("golden fixture is checked in");
    let expected: Vec<&str> = expected.lines().collect();
    assert_eq!(
        actual.len(),
        expected.len(),
        "job corpus and fixture differ in size"
    );
    let mismatches: Vec<(&str, &str)> = expected
        .iter()
        .zip(actual)
        .filter(|(e, a)| **e != a.as_str())
        .map(|(e, a)| (*e, a.as_str()))
        .collect();
    assert!(
        mismatches.is_empty(),
        "{} of {} jobs differ from the fixture; first (expected, actual): {:#?}",
        mismatches.len(),
        actual.len(),
        &mismatches[..mismatches.len().min(5)]
    );
}

#[test]
fn substrate_results_match_golden_fixture() {
    assert_matches_fixture(&run_all(execute_prepared));
}

#[test]
fn text_entry_point_matches_golden_fixture() {
    assert_matches_fixture(&run_all(execute_text));
}

#[test]
#[ignore = "rewrites the golden fixture; run only to re-pin an intended behaviour change"]
fn regenerate_golden_fixture() {
    let path = fixture_path();
    std::fs::create_dir_all(path.parent().expect("fixture has a directory")).unwrap();
    std::fs::write(&path, run_all(execute_prepared).join("\n") + "\n").unwrap();
}
