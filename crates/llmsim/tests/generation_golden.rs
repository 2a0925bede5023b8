//! Golden equivalence fixture for simulated-model generation.
//!
//! Every one of the twelve standard models answers a fixed prompt corpus
//! over both `Dataset::generate()` and `Dataset::generate_extended(100)`;
//! the fixture pins an FNV-1a digest of the responses, in order, per
//! (dataset, model, prompt family). Any change to how a model recognizes
//! a prompt, draws an answer category or realizes response text that
//! alters a single response byte fails this test.
//!
//! The prompt families are:
//!
//! * `greedy` — every problem × three variants × shots 0..=3 at
//!   `GenParams::default()`;
//! * `sampling` — every 5th problem × three variants at
//!   `GenParams::sampling(1..=3)`;
//! * `repair` — one `repair_prompt` per problem and variant, whose prior
//!   attempt is the model's own zero-shot greedy answer and whose feedback
//!   rotates through the three feedback modes and the nine buckets.
//!
//! The fixture is written by the `regenerate_golden_fixture` test
//! (ignored by default).

use std::sync::Arc;

use cedataset::fewshot::build_prompt;
use cedataset::{Dataset, Variant};
use llmsim::{
    extract_yaml, repair_prompt, standard_models, synthesize_feedback, FeedbackMode, GenParams,
    LanguageModel, SimulatedModel,
};
use substrate::taxonomy::{Bucket, Diagnosis};
use yamlkit::doc::content_hash;

/// Fixture path relative to the crate root.
const FIXTURE: &str = "tests/data/generation_golden.tsv";

/// Problem stride of the `sampling` family.
const SAMPLING_STRIDE: usize = 5;

/// Worker threads (models are split across them).
const WORKERS: usize = 2;

/// Running digest of one prompt family's responses.
#[derive(Default)]
struct Digest {
    count: usize,
    hashes: String,
}

impl Digest {
    fn push(&mut self, response: &str) {
        self.count += 1;
        self.hashes
            .push_str(&format!("{:016x}\n", content_hash(response)));
    }

    fn line(&self, dataset: &str, model: &str, family: &str) -> String {
        format!(
            "{dataset}\t{model}\t{family}\t{}\t{:016x}",
            self.count,
            content_hash(&self.hashes)
        )
    }
}

/// Repair feedback for the `i`-th (problem, variant) pair.
fn feedback(i: usize) -> String {
    let bucket = Bucket::ALL[i % Bucket::ALL.len()];
    let diagnosis = Diagnosis {
        bucket,
        subject: i.is_multiple_of(2).then(|| format!("spec.field{}", i % 7)),
        raw: format!("simulated {} failure #{i}", bucket.label()),
    };
    let mode = FeedbackMode::ALL[i % FeedbackMode::ALL.len()];
    synthesize_feedback(Some(&diagnosis), mode)
}

/// Fixture lines for one model over one dataset.
fn model_lines(tag: &str, dataset: &Dataset, model: &SimulatedModel) -> Vec<String> {
    let greedy_params = GenParams::default();
    let mut greedy = Digest::default();
    let mut zero_shot = Vec::new();
    for problem in dataset.problems() {
        for variant in Variant::ALL {
            let body = problem.prompt_body(variant);
            for shots in 0..=3 {
                let response = model.generate(&build_prompt(&body, shots), &greedy_params);
                greedy.push(&response);
                if shots == 0 {
                    zero_shot.push(response);
                }
            }
        }
    }

    let mut sampling = Digest::default();
    for problem in dataset.problems().iter().step_by(SAMPLING_STRIDE) {
        for variant in Variant::ALL {
            let prompt = build_prompt(&problem.prompt_body(variant), 0);
            for sample in 1..=3 {
                sampling.push(&model.generate(&prompt, &GenParams::sampling(sample)));
            }
        }
    }

    let mut repair = Digest::default();
    let pairs = dataset
        .problems()
        .iter()
        .flat_map(|p| Variant::ALL.map(|v| (p, v)));
    for (i, ((problem, variant), prior)) in pairs.zip(&zero_shot).enumerate() {
        let prompt = repair_prompt(
            &problem.prompt_body(variant),
            &extract_yaml(prior),
            &feedback(i),
            1 + i % 3,
        );
        repair.push(&model.generate(&prompt, &greedy_params));
    }

    vec![
        greedy.line(tag, model.name(), "greedy"),
        sampling.line(tag, model.name(), "sampling"),
        repair.line(tag, model.name(), "repair"),
    ]
}

/// Fixture lines for every model over one dataset, in model order.
fn dataset_lines(tag: &str, dataset: Dataset) -> Vec<String> {
    let dataset = Arc::new(dataset);
    let models = standard_models(Arc::clone(&dataset));
    let chunk = models.len().div_ceil(WORKERS);
    std::thread::scope(|scope| {
        let handles: Vec<_> = models
            .chunks(chunk)
            .map(|part| {
                let dataset = &dataset;
                scope.spawn(move || {
                    part.iter()
                        .flat_map(|model| model_lines(tag, dataset, model))
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

fn all_lines() -> Vec<String> {
    let mut lines = dataset_lines("base", Dataset::generate());
    lines.extend(dataset_lines("extended", Dataset::generate_extended(100)));
    lines
}

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(FIXTURE)
}

#[test]
fn generation_matches_golden_fixture() {
    let expected = std::fs::read_to_string(fixture_path()).expect("golden fixture is checked in");
    let expected: Vec<&str> = expected.lines().collect();
    let actual = all_lines();
    assert_eq!(
        actual.len(),
        expected.len(),
        "prompt corpus and fixture differ in size"
    );
    let mismatches: Vec<(&str, &str)> = expected
        .iter()
        .zip(&actual)
        .filter(|(e, a)| **e != a.as_str())
        .map(|(e, a)| (*e, a.as_str()))
        .collect();
    assert!(
        mismatches.is_empty(),
        "{} of {} digests differ from the fixture; first (expected, actual): {:#?}",
        mismatches.len(),
        actual.len(),
        &mismatches[..mismatches.len().min(5)]
    );
}

#[test]
#[ignore = "rewrites the golden fixture; run only to re-pin an intended behaviour change"]
fn regenerate_golden_fixture() {
    let path = fixture_path();
    std::fs::create_dir_all(path.parent().expect("fixture has a directory")).unwrap();
    std::fs::write(&path, all_lines().join("\n") + "\n").unwrap();
}
