//! The parallel unit-test executor: the live counterpart of §3.3's
//! "Scalable Evaluation Cluster".
//!
//! One engine, two entry points sharing one job/result vocabulary:
//!
//! * [`run_jobs_stream`] — the engine: a pool of workers that consumes
//!   `(record_index, job)` pairs from a channel as they arrive, runs each
//!   through the [`substrate::Substrate`] trait, and emits every verdict
//!   the moment it is known. A content-addressed score memo
//!   ([`crate::memo`]) plus an in-flight table make identical
//!   `(candidate, script)` pairs — ubiquitous under pass@k sampling —
//!   execute exactly once;
//! * [`run_jobs`] / [`run_jobs_cached`] — the batch collector over that
//!   engine (the same pattern as `llmsim::query_batch` over
//!   `query_stream`): feeds the first occurrence of every key, copies its
//!   verdict to later occurrences, and returns results in input order.
//!
//! Every job gets a freshly prepared substrate environment, so tests are
//! hermetic — the clean-environment guarantee the paper gets from tearing
//! clusters down between problems. The §3.3 master/worker deployment
//! itself is modelled by [`crate::des`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use substrate::{content_hash, ShellSubstrate, Substrate};
use yamlkit::PreparedDoc;

use crate::memo::{CachedVerdict, ScoreMemo};

/// One unit-test job. The candidate travels as a parse-once
/// [`PreparedDoc`], shared by `Arc` with whichever stage prepared it.
#[derive(Debug, Clone)]
pub struct UnitTestJob {
    /// Problem identifier.
    pub problem_id: String,
    /// The bash unit-test script.
    pub script: String,
    candidate: Arc<PreparedDoc>,
    retry: bool,
}

impl PartialEq for UnitTestJob {
    /// Jobs are equal when their observable inputs are — the retry flag
    /// changes scheduling cost, never the verdict.
    fn eq(&self, other: &Self) -> bool {
        self.problem_id == other.problem_id
            && self.script == other.script
            && self.candidate_yaml() == other.candidate_yaml()
    }
}

impl Eq for UnitTestJob {}

impl UnitTestJob {
    /// A job over raw candidate text, prepared (parsed and hashed) once
    /// here.
    pub fn new(
        problem_id: impl Into<String>,
        script: impl Into<String>,
        candidate_yaml: impl Into<String>,
    ) -> UnitTestJob {
        UnitTestJob::prepared(problem_id, script, PreparedDoc::shared(candidate_yaml))
    }

    /// A job over an already prepared candidate: the substrate consumes
    /// the shared parsed documents instead of re-parsing, and the memo
    /// key reads the cached content hash.
    pub fn prepared(
        problem_id: impl Into<String>,
        script: impl Into<String>,
        candidate: Arc<PreparedDoc>,
    ) -> UnitTestJob {
        UnitTestJob {
            problem_id: problem_id.into(),
            script: script.into(),
            candidate,
            retry: false,
        }
    }

    /// Marks this job as a deliberate resubmission of a previously-judged
    /// candidate (a repair-loop retry). Retry jobs treat a memoized
    /// **retryable** failure ([`CachedVerdict::retryable_failure`]) as
    /// stale and re-execute; every other memoized verdict — passes and
    /// deterministic failures alike — is still served from cache, so
    /// resubmitting a candidate the taxonomy proves broken stays free.
    #[must_use]
    pub fn retry(mut self) -> UnitTestJob {
        self.retry = true;
        self
    }

    /// Whether this job is a repair-loop resubmission (see
    /// [`UnitTestJob::retry`]).
    pub fn is_retry(&self) -> bool {
        self.retry
    }

    /// The candidate YAML text.
    pub fn candidate_yaml(&self) -> &str {
        self.candidate.text()
    }

    /// The content-addressed memo key for this job.
    pub fn memo_key(&self) -> (u64, u64) {
        (self.candidate.content_hash(), content_hash(&self.script))
    }

    /// Executes this job hermetically (no memo involved).
    fn execute(&self) -> CachedVerdict {
        execute_uncached(&self.candidate, &self.script)
    }
}

/// Result of one job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobResult {
    /// Problem identifier.
    pub problem_id: String,
    /// Did the transcript contain `unit_test_passed`?
    pub passed: bool,
    /// Simulated in-cluster seconds the test consumed (sleeps + waits).
    pub simulated_ms: u64,
    /// Which worker ran it. In-batch duplicates report the worker that
    /// executed their first occurrence; results served from a warm
    /// cross-run memo report 0 (no worker ran them this run).
    pub worker: usize,
    /// Taxonomy classification when the job failed (`None` on a pass).
    pub diagnosis: Option<substrate::taxonomy::Diagnosis>,
}

/// Outcome of a full run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Per-job results, in input order.
    pub results: Vec<JobResult>,
    /// Real wall-clock time of the parallel run.
    pub wall: Duration,
    /// Worker count used.
    pub workers: usize,
    /// Jobs that actually executed on a substrate.
    pub executed: usize,
    /// Jobs answered from the score memo / in-run deduplication.
    pub cache_hits: usize,
}

impl RunReport {
    /// Number of passed jobs.
    pub fn passed(&self) -> usize {
        self.results.iter().filter(|r| r.passed).count()
    }
}

/// Executes one prepared candidate hermetically on a fresh shell
/// substrate and maps the outcome to a verdict: the substrate consumes
/// the candidate's one-and-only parse (the sandbox cluster is primed, so
/// the script's `kubectl apply` skips its parse too). Candidate faults
/// and probe failures both score 0 — the seed path's "interpreter error
/// counts as failure" policy. The engine and the service layer's
/// single-submission path share this one mapping.
pub fn execute_uncached(candidate: &PreparedDoc, script: &str) -> CachedVerdict {
    let result = ShellSubstrate::new().execute_prepared(candidate, script);
    let diagnosis = substrate::taxonomy::classify_result(&result);
    match result {
        Ok(outcome) => CachedVerdict {
            passed: outcome.passed,
            simulated_ms: outcome.simulated_ms,
            diagnosis,
        },
        Err(_) => CachedVerdict {
            passed: false,
            simulated_ms: 0,
            diagnosis,
        },
    }
}

/// Runs all jobs over `workers` threads; results come back in input
/// order. Uses a run-local score memo — see [`run_jobs_cached`] to share
/// a memo across runs.
pub fn run_jobs(jobs: &[UnitTestJob], workers: usize) -> RunReport {
    run_jobs_cached(jobs, workers, &ScoreMemo::new())
}

/// Like [`run_jobs`], with a caller-owned [`ScoreMemo`] so verdicts carry
/// over between batches (pass@k sweeps, resumed grids).
///
/// A collector over [`run_jobs_stream`]. Identical `(candidate_yaml,
/// script)` pairs are deduplicated *before* dispatch: only the first
/// occurrence of each key is streamed (and probes the memo), every later
/// occurrence copies its result without touching the memo or a
/// substrate. A repeated retry job therefore executes at most once per
/// batch.
pub fn run_jobs_cached(jobs: &[UnitTestJob], workers: usize, memo: &ScoreMemo) -> RunReport {
    let start = Instant::now();
    // For each job, the index of the first job with its key.
    let mut first_of: HashMap<(u64, u64), usize> = HashMap::new();
    let source: Vec<usize> = jobs
        .iter()
        .enumerate()
        .map(|(i, job)| *first_of.entry(job.memo_key()).or_insert(i))
        .collect();

    let (tx, rx) = std::sync::mpsc::channel();
    for (i, job) in jobs.iter().enumerate().filter(|&(i, _)| source[i] == i) {
        tx.send((i, job.clone())).expect("receiver is alive");
    }
    drop(tx);
    let slots: Mutex<Vec<Option<JobResult>>> = Mutex::new(vec![None; jobs.len()]);
    // No more threads than distinct keys: extra ones would only idle.
    let pool = workers.clamp(1, first_of.len().max(1));
    let stats = run_jobs_stream(rx, pool, memo, |i, result| {
        slots.lock().expect("result slots poisoned")[i] = Some(result);
    });

    let slots = slots.into_inner().expect("result slots poisoned");
    let results: Vec<JobResult> = jobs
        .iter()
        .zip(&source)
        .map(|(job, &s)| JobResult {
            problem_id: job.problem_id.clone(),
            ..slots[s].clone().expect("stream engine dropped a job")
        })
        .collect();
    RunReport {
        results,
        wall: start.elapsed(),
        workers: workers.max(1),
        executed: stats.executed,
        cache_hits: jobs.len() - stats.executed,
    }
}

/// Aggregate statistics of a [`run_jobs_stream`] run (the streaming
/// engine has no materialized result vector to hang a [`RunReport`] on —
/// results left through the `emit` callback as they completed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamStats {
    /// Worker threads used.
    pub workers: usize,
    /// Jobs that actually executed on a substrate.
    pub executed: usize,
    /// Jobs answered from the memo or the in-flight dedup table.
    pub cache_hits: usize,
}

/// The execution engine: consumes `(record_index, job)` pairs from a
/// channel **as they arrive** — no full `&[UnitTestJob]` slice required —
/// and emits each `(record_index, JobResult)` the moment its verdict is
/// known.
///
/// This is the substrate stage of the streaming drivers: upstream
/// generation/scoring pools feed jobs while earlier jobs are already
/// running, so substrate execution overlaps every other phase instead of
/// waiting behind a barrier.
///
/// Deduplication is memo-aware and race-free on work (not just on
/// results): the first arrival of a `(candidate, script)` key executes;
/// arrivals *while that execution is in flight* park on a wait list and
/// are answered when it completes; later arrivals hit the memo. Identical
/// candidates therefore execute exactly once per memo lifetime. Every
/// arrival that does not park probes the memo exactly once. `emit` is
/// called from worker threads, concurrently and in completion order.
///
/// Returns once the channel disconnects (all senders dropped) and every
/// received job has been answered.
pub fn run_jobs_stream<F>(
    jobs: std::sync::mpsc::Receiver<(usize, UnitTestJob)>,
    workers: usize,
    memo: &ScoreMemo,
    emit: F,
) -> StreamStats
where
    F: Fn(usize, JobResult) + Send + Sync,
{
    // Parked duplicates of an executing key: (record_index, problem_id)
    // pairs answered when the execution completes.
    type WaitList = Vec<(usize, String)>;
    let workers = workers.max(1);
    let input = Mutex::new(jobs);
    let in_flight: Mutex<HashMap<(u64, u64), WaitList>> = Mutex::new(HashMap::new());
    let executed = AtomicUsize::new(0);
    let cache_hits = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for w in 0..workers {
            let input = &input;
            let in_flight = &in_flight;
            let executed = &executed;
            let cache_hits = &cache_hits;
            let emit = &emit;
            scope.spawn(move || loop {
                let received = input.lock().expect("stream input poisoned").recv();
                let Ok((idx, job)) = received else { break };
                let key = job.memo_key();
                let cached = {
                    let mut table = in_flight.lock().expect("in-flight table poisoned");
                    if let Some(waiters) = table.get_mut(&key) {
                        // Same key already executing: park until it lands.
                        // (A retry that parks here gets the in-flight
                        // execution's verdict — that execution is as
                        // fresh as the one it would have started.)
                        waiters.push((idx, job.problem_id));
                        cache_hits.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    // Not in flight, so either never claimed or already
                    // memoized: a finishing execution records its verdict
                    // before it leaves the table. A retry job treats a
                    // memoized retryable failure as stale and claims the
                    // key to re-execute.
                    let cached = memo.get_fresh(key, job.is_retry());
                    if cached.is_none() {
                        table.insert(key, Vec::new());
                    }
                    cached
                };
                if let Some(v) = cached {
                    cache_hits.fetch_add(1, Ordering::Relaxed);
                    emit(idx, cached_result(job.problem_id, v));
                    continue;
                }
                let verdict = job.execute();
                memo.insert(key, verdict.clone());
                executed.fetch_add(1, Ordering::Relaxed);
                let waiters = in_flight
                    .lock()
                    .expect("in-flight table poisoned")
                    .remove(&key)
                    .unwrap_or_default();
                for (i, problem_id) in std::iter::once((idx, job.problem_id)).chain(waiters) {
                    emit(
                        i,
                        JobResult {
                            problem_id,
                            passed: verdict.passed,
                            simulated_ms: verdict.simulated_ms,
                            worker: w,
                            diagnosis: verdict.diagnosis.clone(),
                        },
                    );
                }
            });
        }
    });
    StreamStats {
        workers,
        executed: executed.load(Ordering::Relaxed),
        cache_hits: cache_hits.load(Ordering::Relaxed),
    }
}

/// A [`JobResult`] served from cache (no worker ran it this run).
fn cached_result(problem_id: String, v: CachedVerdict) -> JobResult {
    JobResult {
        problem_id,
        passed: v.passed,
        simulated_ms: v.simulated_ms,
        worker: 0,
        diagnosis: v.diagnosis,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_jobs(n: usize) -> Vec<UnitTestJob> {
        let script = "kubectl apply -f labeled_code.yaml\nkubectl wait --for=condition=Ready pod -l app=t --timeout=60s && echo unit_test_passed";
        (0..n)
            .map(|i| {
                // Distinct pod names keep the jobs content-distinct, like
                // real problems (identical candidates are a cache test).
                let yaml = format!("apiVersion: v1\nkind: Pod\nmetadata:\n  name: web-{i}\n  labels:\n    app: t\nspec:\n  containers:\n  - name: c\n    image: nginx\n");
                UnitTestJob::new(format!("p{i}"), script, yaml)
            })
            .collect()
    }

    #[test]
    fn all_jobs_complete_and_pass() {
        let jobs = sample_jobs(24);
        let report = run_jobs(&jobs, 4);
        assert_eq!(report.results.len(), 24);
        assert_eq!(report.passed(), 24);
        assert_eq!(report.executed, 24);
        assert_eq!(report.cache_hits, 0);
        // Results ordered by input.
        for (i, r) in report.results.iter().enumerate() {
            assert_eq!(r.problem_id, format!("p{i}"));
            assert!(r.simulated_ms > 0);
        }
    }

    #[test]
    fn failing_candidate_fails() {
        let mut jobs = sample_jobs(3);
        jobs[1] = UnitTestJob::new(
            "p1",
            jobs[1].script.clone(),
            "apiVersion: v1\nkind: ConfigMap\nmetadata:\n  name: x\n",
        );
        let report = run_jobs(&jobs, 2);
        assert!(report.results[0].passed);
        assert!(!report.results[1].passed);
        assert!(report.results[2].passed);
    }

    #[test]
    fn work_spreads_across_workers() {
        let jobs = sample_jobs(200);
        let report = run_jobs(&jobs, 4);
        let distinct: std::collections::HashSet<usize> =
            report.results.iter().map(|r| r.worker).collect();
        assert!(
            distinct.len() >= 2,
            "expected multiple workers, got {distinct:?}"
        );
        assert_eq!(report.passed(), 200);
    }

    #[test]
    fn single_worker_works() {
        let jobs = sample_jobs(5);
        let report = run_jobs(&jobs, 1);
        assert_eq!(report.passed(), 5);
        assert_eq!(report.workers, 1);
    }

    #[test]
    fn empty_job_list() {
        let report = run_jobs(&[], 4);
        assert!(report.results.is_empty());
        assert_eq!(report.executed, 0);
    }

    #[test]
    fn identical_candidates_execute_once() {
        // 24 copies of the same (candidate, script): one execution, 23
        // cache hits, identical verdicts in input order.
        let mut jobs = sample_jobs(1);
        let template = jobs[0].clone();
        for i in 1..24 {
            let mut dup = template.clone();
            dup.problem_id = format!("dup{i}");
            jobs.push(dup);
        }
        let report = run_jobs(&jobs, 4);
        assert_eq!(report.executed, 1);
        assert_eq!(report.cache_hits, 23);
        assert_eq!(report.passed(), 24);
        assert_eq!(report.results[23].problem_id, "dup23");
    }

    #[test]
    fn text_and_prepared_candidates_share_keys_and_verdicts() {
        let jobs = sample_jobs(1);
        let text = UnitTestJob::new("t", jobs[0].script.clone(), jobs[0].candidate_yaml());
        let prepared = UnitTestJob::prepared(
            "t",
            jobs[0].script.clone(),
            PreparedDoc::shared(jobs[0].candidate_yaml()),
        );
        // Same content → same memo key and equal jobs, whichever
        // constructor prepared the candidate.
        assert_eq!(text.memo_key(), prepared.memo_key());
        assert_eq!(text, prepared);
        // The substrate's text entry point (every layer parses) and the
        // prepared one the engine uses agree, garbage candidates included
        // (typed invalid-input on both).
        for candidate in [text.candidate_yaml(), "not yaml {{{"] {
            let doc = PreparedDoc::new(candidate);
            assert_eq!(
                ShellSubstrate::new().execute(candidate, &text.script),
                ShellSubstrate::new().execute_prepared(&doc, &text.script),
            );
        }
        assert!(execute_uncached(&PreparedDoc::new(text.candidate_yaml()), &text.script).passed);
    }

    #[test]
    fn memo_carries_across_runs() {
        let memo = ScoreMemo::new();
        let jobs = sample_jobs(6);
        let first = run_jobs_cached(&jobs, 2, &memo);
        assert_eq!(first.executed, 6);
        let second = run_jobs_cached(&jobs, 2, &memo);
        assert_eq!(second.executed, 0);
        assert_eq!(second.cache_hits, 6);
        assert_eq!(first.passed(), second.passed());
    }

    #[test]
    fn batch_probes_the_memo_once_per_distinct_key() {
        // 3 distinct keys, each repeated 4x: only first occurrences reach
        // the engine, and each probes the memo exactly once.
        let distinct = sample_jobs(3);
        let jobs: Vec<UnitTestJob> = (0..12).map(|i| distinct[i % 3].clone()).collect();
        let memo = ScoreMemo::new();
        let cold = run_jobs_cached(&jobs, 2, &memo);
        assert_eq!((cold.executed, cold.cache_hits), (3, 9));
        assert_eq!((memo.hits(), memo.misses()), (0, 3));
        let warm = run_jobs_cached(&jobs, 2, &memo);
        assert_eq!((warm.executed, warm.cache_hits), (0, 12));
        assert_eq!((memo.hits(), memo.misses()), (3, 3));
    }

    /// A pod that deploys fine while the check waits on a label no pod
    /// carries — the wait runs out its deadline (`ProbeTimeout`,
    /// retryable).
    fn timeout_job() -> UnitTestJob {
        UnitTestJob::new(
            "timeout",
            "kubectl apply -f labeled_code.yaml\nkubectl wait --for=condition=Ready pod -l app=ghost --timeout=30s && echo unit_test_passed",
            "apiVersion: v1\nkind: Pod\nmetadata:\n  name: web\n  labels:\n    app: t\nspec:\n  containers:\n  - name: c\n    image: nginx\n",
        )
    }

    /// A pod with an unknown field — strict decoding rejects it
    /// (`SchemaViolation`, deterministic: never retryable).
    fn schema_job() -> UnitTestJob {
        UnitTestJob::new(
            "schema",
            "kubectl apply -f labeled_code.yaml && echo unit_test_passed",
            "apiVersion: v1\nkind: Pod\nmetadata:\n  name: web\nspec:\n  containerz: []\n",
        )
    }

    #[test]
    fn retry_jobs_reexecute_only_retryable_failures() {
        let memo = ScoreMemo::new();
        let jobs = [timeout_job(), schema_job()];
        let first = run_jobs_cached(&jobs, 2, &memo);
        assert_eq!(first.executed, 2);
        assert_eq!(first.passed(), 0);
        assert_eq!(
            first.results[0].diagnosis.as_ref().map(|d| d.bucket),
            Some(substrate::taxonomy::Bucket::ProbeTimeout)
        );
        assert_eq!(
            first.results[1].diagnosis.as_ref().map(|d| d.bucket),
            Some(substrate::taxonomy::Bucket::SchemaViolation)
        );

        // Plain resubmission: everything is a memo hit (unchanged policy).
        let warm = run_jobs_cached(&jobs, 2, &memo);
        assert_eq!((warm.executed, warm.cache_hits), (0, 2));

        // Repair resubmission: the retryable timeout re-executes, the
        // deterministic schema fault is still answered from the memo.
        let retries = [timeout_job().retry(), schema_job().retry()];
        assert!(retries.iter().all(UnitTestJob::is_retry));
        let retried = run_jobs_cached(&retries, 2, &memo);
        assert_eq!((retried.executed, retried.cache_hits), (1, 1));
        // Diagnoses ride along either way.
        assert!(retried.results.iter().all(|r| r.diagnosis.is_some()));
    }

    #[test]
    fn duplicate_retry_jobs_in_one_batch_execute_once() {
        let memo = ScoreMemo::new();
        run_jobs_cached(&[timeout_job()], 1, &memo);
        // Both retries see a stale retryable failure in the memo; only
        // the first occurrence reaches the engine, the second copies it.
        let report = run_jobs_cached(&[timeout_job().retry(), timeout_job().retry()], 1, &memo);
        assert_eq!((report.executed, report.cache_hits), (1, 1));
        assert_eq!(report.results[0], report.results[1]);
    }

    #[test]
    fn stream_engine_retry_semantics_match_batch() {
        let memo = ScoreMemo::new();
        run_jobs_cached(&[timeout_job(), schema_job()], 2, &memo);

        let (tx, rx) = std::sync::mpsc::channel();
        tx.send((0, timeout_job().retry())).unwrap();
        tx.send((1, schema_job().retry())).unwrap();
        drop(tx);
        let results = Mutex::new(vec![None, None]);
        let stats = run_jobs_stream(rx, 2, &memo, |idx, result| {
            results.lock().unwrap()[idx] = Some(result);
        });
        assert_eq!((stats.executed, stats.cache_hits), (1, 1));
        let results = results.into_inner().unwrap();
        let timeout = results[0].as_ref().expect("timeout retry answered");
        let schema = results[1].as_ref().expect("schema retry answered");
        assert!(!timeout.passed && !schema.passed);
        assert_eq!(
            schema.diagnosis.as_ref().map(|d| d.bucket),
            Some(substrate::taxonomy::Bucket::SchemaViolation)
        );
    }

    #[test]
    fn batch_engine_matches_serial_execution() {
        let mut jobs = sample_jobs(12);
        jobs[4] = UnitTestJob::new(
            "p4",
            jobs[4].script.clone(),
            "apiVersion: v1\nkind: ConfigMap\nmetadata:\n  name: x\n",
        );
        jobs[9] = UnitTestJob::new("p9", jobs[9].script.clone(), "not yaml {{{");
        let report = run_jobs(&jobs, 3);
        assert_eq!(report.executed, 12);
        for (job, result) in jobs.iter().zip(&report.results) {
            let serial = execute_uncached(&PreparedDoc::new(job.candidate_yaml()), &job.script);
            assert_eq!(result.problem_id, job.problem_id);
            let verdict = (result.passed, result.simulated_ms, &result.diagnosis);
            let expected = (serial.passed, serial.simulated_ms, &serial.diagnosis);
            assert_eq!(verdict, expected, "{}", job.problem_id);
        }
        assert!(!report.results[4].passed && !report.results[9].passed);
        assert_eq!(report.passed(), 10);
    }
}
