//! The `serve-hot` workload: a `ceserve` server with `workers = nproc`,
//! driven over loopback by `nproc` closed-loop clients, one keep-alive
//! connection each, all in this one process. A small seeded working set
//! is judged once during set-up; every timed request repeats one of those
//! items, so only HTTP, the response cache and the event loop work.

use std::collections::HashMap;
use std::io::BufReader;
use std::net::{Ipv4Addr, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cedataset::{Dataset, Problem};
use cescore::RefCache;
use ceserve::api::{self, BufSink, Service};
use ceserve::http::{self, RequestParser};
use ceserve::loadgen::{evaluate_body, LoadItem};
use ceserve::{ServerConfig, ServerHandle};
use cloudeval_core::harness::score_submission;
use evalcluster::ScoreMemo;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use yamlkit::Yaml;

use crate::client::{self, LoopRun};
use crate::corpus;
use crate::layers::{self, Lay, Tracer};
use crate::procinfo;
use crate::report::Report;
use crate::setup::{Base, SetupTimes, SETUPS};
use crate::stats::{self, Json};

/// The working set: distinct candidates, half model responses.
const HOT_SET: usize = 32;
/// Requests in the traced in-process replay: enough calls for a p99
/// with ten samples beyond it.
const REPLAY_REQUESTS: usize = 4000;

/// Boots a server over `dataset` and judges every body once through it,
/// so its response cache holds the whole working set.
fn boot_warm(dataset: &Arc<Dataset>, bodies: &[String], workers: usize) -> ServerHandle {
    let server = ceserve::spawn(
        (Ipv4Addr::LOCALHOST, 0),
        Arc::clone(dataset),
        ServerConfig {
            workers,
            ..ServerConfig::default()
        },
    )
    .expect("bind a loopback port");
    warm(server.addr(), bodies);
    server
}

fn warm(addr: SocketAddr, bodies: &[String]) {
    let mut stream = TcpStream::connect(addr).expect("connect for warm-up");
    let mut reader = BufReader::new(stream.try_clone().expect("clone warm-up stream"));
    for body in bodies {
        http::write_request(&mut stream, "POST", "/v1/evaluate", Some(body))
            .expect("send warm-up request");
        let response = http::read_response(&mut reader).expect("warm-up response");
        assert_eq!(
            response.status, 200,
            "warm-up request failed: {}",
            response.body
        );
    }
}

/// Runs the workload: untraced for the end-to-end metrics, traced for
/// the per-layer ones.
pub fn run(seed: u64, seconds: u64, trace: bool) -> Report {
    let nproc = procinfo::nproc();
    let mut times = SetupTimes::default();
    let mut items: Vec<LoadItem> = Vec::new();
    let mut bodies: Vec<String> = Vec::new();
    let mut live: Option<(Base, ServerHandle)> = None;
    for _ in 0..SETUPS {
        if let Some((_, server)) = live.take() {
            server.shutdown().expect("server shuts down");
        }
        let base = Base::build();
        if items.is_empty() {
            // The client's inputs, not the server's set-up: built once.
            items = corpus::build(&base.dataset, &base.models, seed, HOT_SET, nproc);
            bodies = items.iter().map(evaluate_body).collect();
        }
        let started = Instant::now();
        let server = boot_warm(&base.dataset, &bodies, nproc);
        times.push(&base, started.elapsed().as_secs_f64());
        live = Some((base, server));
    }
    let (base, server) = live.expect("at least one set-up");

    let rss = procinfo::RssSampler::start();
    let cpu_before = procinfo::cpu_seconds();
    let run = client::run(
        server.addr(),
        &bodies,
        nproc,
        Duration::from_secs(seconds),
        seed,
    );
    let cpu = procinfo::cpu_seconds() - cpu_before;
    let (rss_median_mb, rss_max_mb) = rss.stop();
    server.shutdown().expect("server shuts down");

    let (mismatches, cached) = verify(&base.dataset, &items, &run);
    let failed = run.samples.iter().filter(|s| !s.ok()).count() + mismatches;
    let latencies: Vec<f64> = run.samples.iter().map(|s| s.latency).collect();
    let ok = run.samples.iter().filter(|s| s.ok()).count();
    let pct_ms = |q: f64| stats::percentile(&latencies, q).expect("thousands of requests") * 1e3;

    let mut report = if trace {
        traced(&base, &items, &bodies, seed, nproc, pct_ms(0.5) * 1e3)
    } else {
        // Replies inside the measured seconds only: a request still in
        // flight at the deadline must not stretch the window.
        let in_window = run
            .samples
            .iter()
            .filter(|s| s.ok() && s.done_s <= seconds as f64)
            .count();
        let mut report = Report {
            correct: true,
            ..Report::default()
        };
        let v = &mut report.values;
        v.insert("ops_per_s".into(), in_window as f64 / seconds as f64);
        v.insert("latency_p50_ms".into(), pct_ms(0.5));
        v.insert("latency_p90_ms".into(), pct_ms(0.9));
        v.insert(
            "cpu_ms_per_op".into(),
            cpu * 1e3 / run.samples.len().max(1) as f64,
        );
        report
    };
    report.attempted += run.samples.len() as u64;
    report.failed += failed as u64;
    report.correct &= failed == 0;
    times.record(&mut report.values, trace);
    if trace {
        report.values.insert(
            "ceserve.response_cache.hit_ratio".into(),
            cached as f64 / ok.max(1) as f64,
        );
    }
    report.detail("requests", Json::Int(run.samples.len() as i64));
    report.detail("latency_samples", Json::Int(latencies.len() as i64));
    report.detail("latency_p99_ms", Json::Num(pct_ms(0.99)));
    report.detail("cached_responses", Json::Int(cached as i64));
    report.detail("mismatches", Json::Int(mismatches as i64));
    report.detail("wall_s", Json::Num(run.wall.as_secs_f64()));
    report.detail("rss_median_mb", Json::Num(rss_median_mb));
    report.detail("rss_max_mb", Json::Num(rss_max_mb));
    report
}

/// A verdict in wire form without its `cached` flag, which reports cache
/// state rather than the verdict, and that flag.
fn canonical(body: &str) -> Option<(String, bool)> {
    let mut value: Yaml = yamlkit::parse_one(body).ok()?.to_value();
    let cached = value.remove("cached").and_then(|c| c.as_bool()) == Some(true);
    Some((yamlkit::json::to_json(&value), cached))
}

/// The direct `score_submission` verdict for an item, in wire form
/// without its `cached` flag.
fn direct(problem: &Problem, item: &LoadItem, memo: &ScoreMemo, refs: &RefCache) -> String {
    let verdict = score_submission(problem, item.variant, &item.raw, memo, refs);
    let mut value = api::verdict_to_yaml(&verdict);
    value.remove("cached");
    yamlkit::json::to_json(&value)
}

fn problem_of<'d>(dataset: &'d Dataset, item: &LoadItem) -> &'d Problem {
    dataset.get(&item.problem_id).expect("item names a problem")
}

/// Checks every 200 response against a direct `score_submission` on the
/// same item, computed after the timed region. Returns the number of
/// responses that differ and the number the server marked as served
/// from its cache.
fn verify(dataset: &Dataset, items: &[LoadItem], run: &LoopRun) -> (usize, usize) {
    let (memo, refs) = (ScoreMemo::new(), RefCache::new());
    let expected: Vec<String> = items
        .iter()
        .map(|item| direct(problem_of(dataset, item), item, &memo, &refs))
        .collect();
    // Each distinct (item, reply) pair is judged once.
    let mut judged: HashMap<(usize, u64), (bool, bool)> = HashMap::new();
    let (mut differ, mut cached) = (0, 0);
    for sample in run.samples.iter().filter(|s| s.ok()) {
        let (agrees, from_cache) = *judged.entry((sample.item, sample.body)).or_insert_with(|| {
            match canonical(&run.bodies[&sample.body]) {
                Some((body, from_cache)) => (body == expected[sample.item], from_cache),
                None => (false, false),
            }
        });
        differ += usize::from(!agrees);
        cached += usize::from(from_cache);
    }
    (differ, cached)
}

/// One request's exact bytes, as the client writes them.
fn request_bytes(body: &str) -> Vec<u8> {
    format!(
        "POST /v1/evaluate HTTP/1.1\r\nhost: ceserve\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Status and body of a response `api::handle` framed into a buffer.
fn split_response(bytes: &[u8]) -> (u16, String) {
    let text = String::from_utf8_lossy(bytes);
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = text
        .split_once("\r\n\r\n")
        .map_or("", |(_, b)| b)
        .to_owned();
    (status, body)
}

/// What one in-process serial replay produced.
struct Replay {
    wall_s: f64,
    tracer: Tracer,
    /// Per request: `api::handle`'s status and body.
    handled: Vec<(u16, String)>,
    /// Per request: the direct `score_submission` verdict in wire form.
    direct: Vec<String>,
}

/// Replays `requests` (indices into `items`) serially on this thread:
/// HTTP parse and `api::handle` on an in-process `Service`, then a direct
/// `score_submission` on each item. Both the service and the direct
/// path's memo are first warmed with the working set, as the server was.
fn replay(
    dataset: &Arc<Dataset>,
    items: &[LoadItem],
    bodies: &[String],
    requests: &[usize],
    nproc: usize,
    traced: bool,
) -> Replay {
    let service = Service::new(Arc::clone(dataset), Arc::new(ScoreMemo::new()), nproc);
    let (memo, refs) = (ScoreMemo::new(), RefCache::new());
    let wire: Vec<Vec<u8>> = bodies.iter().map(|b| request_bytes(b)).collect();
    let parse = |bytes: &[u8]| {
        let mut parser = RequestParser::new();
        parser.feed(bytes);
        parser.try_next()
    };
    for (i, item) in items.iter().enumerate() {
        let request = parse(&wire[i])
            .expect("well-formed request")
            .expect("whole request");
        api::handle(&service, &request, &mut BufSink(&mut Vec::new()));
        direct(problem_of(dataset, item), item, &memo, &refs);
    }
    let mut tracer = Tracer::new(traced);
    let mut framed: Vec<Vec<u8>> = Vec::with_capacity(requests.len());
    let mut verdicts = Vec::with_capacity(requests.len());
    let started = Instant::now();
    for &i in requests {
        let request = tracer.time(Lay::HttpParse, || parse(&wire[i]));
        let request = request
            .expect("well-formed request")
            .expect("whole request");
        let mut bytes = Vec::new();
        tracer.time(Lay::Handle, || {
            api::handle(&service, &request, &mut BufSink(&mut bytes))
        });
        framed.push(bytes);
    }
    for &i in requests {
        let (item, problem) = (&items[i], problem_of(dataset, &items[i]));
        verdicts.push(tracer.time(Lay::ScoreSubmission, || {
            score_submission(problem, item.variant, &item.raw, &memo, &refs)
        }));
    }
    let wall_s = started.elapsed().as_secs_f64();
    Replay {
        wall_s,
        tracer,
        handled: framed.iter().map(|bytes| split_response(bytes)).collect(),
        direct: verdicts
            .iter()
            .map(|verdict| {
                let mut value = api::verdict_to_yaml(verdict);
                value.remove("cached");
                yamlkit::json::to_json(&value)
            })
            .collect(),
    }
}

fn traced(
    base: &Base,
    items: &[LoadItem],
    bodies: &[String],
    seed: u64,
    nproc: usize,
    client_p50_us: f64,
) -> Report {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x004e_91a7);
    let requests: Vec<usize> = (0..REPLAY_REQUESTS)
        .map(|_| rng.gen_range(0..items.len()))
        .collect();
    let traced = replay(&base.dataset, items, bodies, &requests, nproc, true);
    let plain = replay(&base.dataset, items, bodies, &requests, nproc, false);

    // Every replayed reply must be a cache hit agreeing with the direct
    // verdict for its item.
    let mismatches = traced
        .handled
        .iter()
        .zip(&traced.direct)
        .filter(|((status, body), want)| {
            *status != 200 || canonical(body) != Some(((*want).clone(), true))
        })
        .count();

    let tr = &traced.tracer;
    let (layer_sum_ratio, sum_ok) = tr.layer_sum(traced.wall_s);
    let http_parse = tr.layer(Lay::HttpParse);
    let handle = tr.layer(Lay::Handle);
    let per_request_us: Vec<f64> = http_parse
        .samples_us()
        .iter()
        .zip(handle.samples_us())
        .map(|(p, h)| p + h)
        .collect();
    let server_p50_us =
        stats::percentile(&per_request_us, 0.5).expect("replay has thousands of requests");

    let mut report = Report {
        correct: mismatches == 0 && sum_ok,
        attempted: requests.len() as u64,
        failed: mismatches as u64,
        ..Report::default()
    };
    let v = &mut report.values;
    v.insert("ceserve.http_parse.busy_s".into(), http_parse.busy_s());
    v.insert("ceserve.handle.busy_s".into(), handle.busy_s());
    v.insert("ceserve.handle.p50_us".into(), handle.percentile_us(0.5));
    v.insert("ceserve.handle.p99_us".into(), handle.percentile_us(0.99));
    v.insert(
        "core.score_submission.busy_s".into(),
        tr.layer(Lay::ScoreSubmission).busy_s(),
    );
    v.insert("ceserve.loop.p50_us".into(), client_p50_us - server_p50_us);
    v.insert("trace.layer_sum_ratio".into(), layer_sum_ratio);
    v.insert(
        "trace.overhead_ratio".into(),
        traced.wall_s / plain.wall_s - 1.0,
    );
    report.detail(
        "layer_sum_tolerance",
        Json::Num(layers::LAYER_SUM_TOLERANCE),
    );
    report.detail("traced_wall_s", Json::Num(traced.wall_s));
    report.detail("untraced_replay_wall_s", Json::Num(plain.wall_s));
    report.detail("replay_requests", Json::Int(requests.len() as i64));
    report.detail("replay_mismatches", Json::Int(mismatches as i64));
    report.detail("client_p50_us", Json::Num(client_p50_us));
    report.detail("parse_handle_p50_us", Json::Num(server_p50_us));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// After set-up's warm-up, every timed request is a response-cache hit.
    #[test]
    fn warm_up_leaves_every_timed_request_a_cache_hit() {
        let dataset = Arc::new(Dataset::generate());
        let models = llmsim::standard_models(Arc::clone(&dataset));
        let items = corpus::build(&dataset, &models, 3, 8, 2);
        let bodies: Vec<String> = items.iter().map(evaluate_body).collect();
        let server = boot_warm(&dataset, &bodies, 2);
        let run = client::run(server.addr(), &bodies, 2, Duration::from_millis(300), 3);
        server.shutdown().expect("server shuts down");
        let ok = run.samples.iter().filter(|s| s.ok()).count();
        assert!(ok > 8, "{ok} replies");
        let (mismatches, cached) = verify(&dataset, &items, &run);
        assert_eq!(mismatches, 0);
        assert_eq!(cached, run.samples.len());
    }
}
