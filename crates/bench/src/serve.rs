//! The `repro serve` target: boot a real `ceserve` instance over the
//! extended problem corpus, hammer it with the built-in load generator,
//! and verify that **every** response came back with scores
//! byte-identical to a direct pipeline run on the same candidate — the
//! HTTP boundary must be invisible.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

use cedataset::Dataset;
use cescore::RefCache;
use ceserve::loadgen::{self, LoadGenConfig};
use ceserve::ServerConfig;
use cloudeval_core::harness::score_submission;
use evalcluster::memo::ScoreMemo;
use substrate::{ShellSubstrate, Substrate};
use yamlkit::Yaml;

/// Knobs of one `repro serve` run.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// TCP port to bind (0 = ephemeral).
    pub port: u16,
    /// Server worker threads (HTTP pool and batch stage width).
    pub workers: usize,
    /// Total load-generator requests.
    pub requests: usize,
    /// Concurrent load-generator clients.
    pub clients: usize,
    /// Keep-alive connections per client thread (total concurrent
    /// connections = `clients * conns_per_client`).
    pub conns_per_client: usize,
    /// Optional JSONL verdict-store path (persisted on shutdown).
    pub memo_path: Option<PathBuf>,
    /// Extra scenario-family problems appended to the paper corpus.
    pub extended: usize,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            port: 0,
            workers: cloudeval_core::harness::default_workers(),
            requests: 200,
            clients: 4,
            conns_per_client: 1,
            memo_path: None,
            extended: 30,
        }
    }
}

/// Runs the serve target and renders its report.
///
/// # Panics
///
/// Panics when the server cannot bind or the load run fails outright —
/// `repro` treats that as a reproduction failure.
pub fn serve_report(options: &ServeOptions) -> String {
    let dataset = Arc::new(Dataset::generate_extended(options.extended));
    let server = ceserve::spawn(
        (std::net::Ipv4Addr::LOCALHOST, options.port),
        Arc::clone(&dataset),
        ServerConfig {
            workers: options.workers,
            memo_path: options.memo_path.clone(),
            ..ServerConfig::default()
        },
    )
    .expect("bind serve port");
    let addr = server.addr();

    let corpus = loadgen::build_corpus(&dataset, 48);
    let report = loadgen::run(
        addr,
        &corpus,
        &LoadGenConfig {
            clients: options.clients.max(1),
            requests: options.requests,
            connections_per_client: options.conns_per_client.max(1),
            ..LoadGenConfig::default()
        },
    )
    .expect("load generator run");

    // Verification: every response must match a direct (HTTP-free)
    // pipeline run on the same candidate, byte for byte — the **whole**
    // verdict (scores, passed, answer class, extracted YAML, simulated
    // ms), not just the scores. Only the `cached` flag is excluded: it
    // reports cache state, which legitimately differs between a fresh
    // direct run and a warm server.
    let canonical = |mut verdict_value: Yaml| -> String {
        verdict_value.remove("cached");
        yamlkit::json::to_json(&verdict_value)
    };
    let mut expected: HashMap<usize, String> = HashMap::new();
    let mut verified = 0usize;
    let mut diverged = 0usize;
    let mut failures = 0usize;
    // Second axis: the served verdicts must also agree with the
    // **text path** — static metrics recomputed by `score_pair_text` and
    // the unit test re-executed through the substrate's text entry point
    // (every layer re-parsing) — so the parse-once document model is
    // provably invisible at the HTTP boundary.
    let mut text_diverged = 0usize;
    let refs = RefCache::new();
    let by_id: HashMap<&str, &cedataset::Problem> = dataset
        .problems()
        .iter()
        .map(|p| (p.id.as_str(), p))
        .collect();
    for outcome in &report.outcomes {
        if outcome.status != 200 {
            failures += 1;
            continue;
        }
        let want = expected.entry(outcome.corpus_index).or_insert_with(|| {
            let item = &corpus[outcome.corpus_index];
            let problem = by_id[item.problem_id.as_str()];
            let verdict =
                score_submission(problem, item.variant, &item.raw, &ScoreMemo::new(), &refs);
            let yaml = llmsim::extract_yaml(&item.raw);
            let text_scores = cescore::score_pair_text(&problem.labeled_reference, &yaml);
            let text_exec = match ShellSubstrate::new().execute(&yaml, &problem.unit_test) {
                Ok(outcome) => (outcome.passed, outcome.simulated_ms),
                Err(_) => (false, 0),
            };
            if verdict.scores.static_metrics() != text_scores.static_metrics()
                || (verdict.passed, verdict.simulated_ms) != text_exec
            {
                // Poison the expectation so the divergence is counted for
                // every response of this item.
                return String::from("TEXT-PATH-DIVERGED");
            }
            canonical(ceserve::api::verdict_to_yaml(&verdict))
        });
        if want == "TEXT-PATH-DIVERGED" {
            text_diverged += 1;
        } else if &canonical(outcome.body.clone()) == want {
            verified += 1;
        } else {
            diverged += 1;
        }
    }

    let stats = loadgen::fetch_stats(addr).unwrap_or(Yaml::Null);
    let metrics = loadgen::fetch_metrics(addr).unwrap_or_default();
    server.shutdown().expect("clean shutdown");

    let mut out = String::new();
    out.push_str(&format!(
        "served {} requests over {} clients x {} connections against {addr} ({} workers)\n",
        report.outcomes.len(),
        options.clients.max(1),
        options.conns_per_client.max(1),
        options.workers,
    ));
    out.push_str(&format!(
        "wall {:.2}s -> {:.0} requests/s ({} transport errors, {} non-200)\n",
        report.wall.as_secs_f64(),
        report.requests_per_sec(),
        report.transport_errors,
        failures,
    ));
    out.push_str(&format!(
        "client latency: p50 {:.2}ms, p99 {:.2}ms\n",
        report.latency_p50().as_secs_f64() * 1e3,
        report.latency_p99().as_secs_f64() * 1e3,
    ));
    let stat = |path: &[&str]| -> i64 { stats.get_path(path).and_then(Yaml::as_i64).unwrap_or(-1) };
    out.push_str(&format!(
        "memo: {} entries, {} hits / {} misses; response cache: {} entries, {} hits\n",
        stat(&["memo", "entries"]),
        stat(&["memo", "hits"]),
        stat(&["memo", "misses"]),
        stat(&["response_cache", "entries"]),
        stat(&["response_cache", "hits"]),
    ));
    out.push_str(&format!(
        "stages completed: {}; accept-queue rejections: {}\n",
        stat(&["stages", "completed"]),
        stat(&["connections", "rejected_busy"]),
    ));
    // One real series line from /v1/metrics, verbatim: CI greps the
    // serve output for `http_request_us_count` to prove the exposition
    // endpoint served a request-latency histogram during the smoke.
    let sample = metrics
        .lines()
        .find(|line| line.starts_with("http_request_us_count{endpoint=\"evaluate\"}"))
        .unwrap_or("http_request_us MISSING from /v1/metrics");
    out.push_str(&format!("metrics sample: {sample}\n"));
    out.push_str(&format!(
        "verification vs direct pipeline + pre-refactor text path: {verified} identical, {} DIVERGED -> {}\n",
        diverged + text_diverged,
        if diverged == 0 && text_diverged == 0 && failures == 0 && report.transport_errors == 0 {
            "identical"
        } else {
            "DIVERGED"
        },
    ));
    out
}

/// Smoke entry used by tests: tiny run, asserts the identical verdict.
pub fn smoke(requests: usize) -> String {
    serve_report(&ServeOptions {
        requests,
        clients: 2,
        workers: 2,
        extended: 0,
        ..ServeOptions::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_smoke_is_identical_to_direct_pipeline() {
        let report = smoke(24);
        assert!(report.contains("-> identical"), "{report}");
        assert!(report.contains("served 24 requests"), "{report}");
        assert!(report.contains("client latency: p50 "), "{report}");
        assert!(
            report.contains("metrics sample: http_request_us_count{endpoint=\"evaluate\"}"),
            "{report}"
        );
    }
}
