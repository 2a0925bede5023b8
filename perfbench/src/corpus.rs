//! Seeded request inputs for the serve workload.
//!
//! Half of the candidates are simulated-model responses, half are wrapped
//! references. Every candidate is a distinct verdict-memo key: distinct
//! extracted YAML for its problem's unit test. That makes each one a
//! distinct response-cache key as well, so the first request for any of
//! them misses both caches.

use std::collections::HashSet;

use cedataset::{Dataset, Variant};
use ceserve::loadgen::LoadItem;
use llmsim::{GenParams, LanguageModel, SimulatedModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Prose and markup a chat model wraps its YAML in; §3.1 extraction
/// strips all of them.
const WRAPPERS: [(&str, &str); 4] = [
    ("Here is the configuration:\n```yaml\n", "```\n"),
    (
        "Sure! The following manifest does what you asked.\n```\n",
        "```\nApply it with kubectl.\n",
    ),
    ("<code>\n", "</code>\n"),
    ("START SOLUTION\n", "END SOLUTION\n"),
];

/// The verdict-memo key of a candidate: extracted YAML × unit test.
pub fn memo_key(dataset: &Dataset, item: &LoadItem) -> (u64, u64) {
    let problem = dataset.get(&item.problem_id).expect("item names a problem");
    (
        yamlkit::doc::content_hash(&llmsim::extract_yaml(&item.raw)),
        yamlkit::doc::content_hash(&problem.unit_test),
    )
}

/// `count` candidates with pairwise-distinct memo keys, drawn from `seed`:
/// even positions are model responses, odd positions wrapped references.
/// Model responses are generated on `threads` threads; the result depends
/// on the seed only.
pub fn build(
    dataset: &Dataset,
    models: &[SimulatedModel],
    seed: u64,
    count: usize,
    threads: usize,
) -> Vec<LoadItem> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_c0de);
    let mut seen: HashSet<(u64, u64)> = HashSet::new();
    let mut responses: Vec<LoadItem> = Vec::with_capacity(count.div_ceil(2));
    while responses.len() < count.div_ceil(2) {
        // Draw a batch of coordinates, generate them in parallel, then
        // keep the first distinct ones in draw order.
        let wanted = count.div_ceil(2) - responses.len();
        let draws: Vec<(usize, usize, Variant, u64)> = (0..wanted + wanted / 4 + 4)
            .map(|_| {
                (
                    rng.gen_range(0..models.len()),
                    rng.gen_range(0..dataset.len()),
                    Variant::ALL[rng.gen_range(0..Variant::ALL.len())],
                    rng.gen_range(0..1u64 << 32),
                )
            })
            .collect();
        for item in generate(dataset, models, &draws, threads) {
            if responses.len() < count.div_ceil(2) && seen.insert(memo_key(dataset, &item)) {
                responses.push(item);
            }
        }
    }
    let mut items = Vec::with_capacity(count);
    let mut responses = responses.into_iter();
    let mut revision = 0u64;
    while items.len() < count {
        if items.len() % 2 == 0 {
            items.push(responses.next().expect("enough model responses"));
            continue;
        }
        let problem = &dataset.problems()[rng.gen_range(0..dataset.len())];
        let variant = Variant::ALL[rng.gen_range(0..Variant::ALL.len())];
        let (open, close) = WRAPPERS[rng.gen_range(0..WRAPPERS.len())];
        // A trailing comment (ignored by every parser) makes each wrapped
        // reference a distinct candidate that still passes its test.
        revision += 1;
        let item = LoadItem {
            problem_id: problem.id.clone(),
            variant,
            raw: format!(
                "{open}{}# revision {revision:x}-{seed:x}\n{close}",
                problem.clean_reference()
            ),
        };
        if seen.insert(memo_key(dataset, &item)) {
            items.push(item);
        }
    }
    items
}

/// Model responses for `(model, problem, variant, sample)` draws, in
/// draw order.
fn generate(
    dataset: &Dataset,
    models: &[SimulatedModel],
    draws: &[(usize, usize, Variant, u64)],
    threads: usize,
) -> Vec<LoadItem> {
    let chunk = draws.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = draws
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .map(|&(model, problem, variant, sample)| {
                            let problem = &dataset.problems()[problem];
                            let prompt =
                                cedataset::fewshot::build_prompt(&problem.prompt_body(variant), 0);
                            LoadItem {
                                problem_id: problem.id.clone(),
                                variant,
                                raw: models[model].generate(&prompt, &GenParams::sampling(sample)),
                            }
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("generation thread panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;

    #[test]
    fn corpus_is_deterministic_per_seed_and_distinct() {
        let dataset = Arc::new(Dataset::generate());
        let models = llmsim::standard_models(Arc::clone(&dataset));
        let a = build(&dataset, &models, 7, 64, 2);
        let b = build(&dataset, &models, 7, 64, 1);
        let c = build(&dataset, &models, 8, 64, 2);
        let raw = |items: &[LoadItem]| -> Vec<String> {
            items
                .iter()
                .map(|i| format!("{}|{:?}|{}", i.problem_id, i.variant, i.raw))
                .collect()
        };
        assert_eq!(a.len(), 64);
        // Same seed, same inputs, whatever the thread count.
        assert_eq!(raw(&a), raw(&b));
        assert_ne!(raw(&a), raw(&c));
        // No repeated memo key, hence no repeated response-cache key.
        let keys: HashSet<(u64, u64)> = a.iter().map(|i| memo_key(&dataset, i)).collect();
        assert_eq!(keys.len(), a.len());
        let responses: HashSet<(String, Variant, u64)> = a
            .iter()
            .map(|i| {
                let extracted = llmsim::extract_yaml(&i.raw);
                (
                    i.problem_id.clone(),
                    i.variant,
                    yamlkit::doc::content_hash(&extracted),
                )
            })
            .collect();
        assert_eq!(responses.len(), a.len());
        // Half model responses (no revision comment), half references.
        let wrapped = a.iter().filter(|i| i.raw.contains("# revision ")).count();
        assert_eq!(wrapped, 32);
    }
}
