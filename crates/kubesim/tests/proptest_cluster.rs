//! Property tests for the cluster simulator: store invariants under
//! random apply/delete/advance sequences, equivalence of the event-driven
//! clock and its waits with reconciling every tick and polling every
//! 500 ms, and selector algebra.

use kubesim::Cluster;
use proptest::prelude::*;

fn pod_manifest(name: &str, app: &str, image: &str) -> String {
    format!(
        "apiVersion: v1\nkind: Pod\nmetadata:\n  name: {name}\n  labels:\n    app: {app}\nspec:\n  containers:\n  - name: c\n    image: {image}\n"
    )
}

/// Images the split-invariance manifests draw from; the last one is not in
/// the simulated registry, so its pods never pull.
const IMAGES: [&str; 4] = ["nginx", "redis", "httpd", "nope-missing:v9"];

/// One object of a random workload: `(shape, a, b)` picks the kind and
/// two of its parameters.
fn workload_manifest(i: usize, (shape, a, b): (u8, u64, u64)) -> String {
    match shape {
        0 => format!(
            "apiVersion: apps/v1\nkind: Deployment\nmetadata:\n  name: d{i}\nspec:\n  replicas: {}\n  selector:\n    matchLabels:\n      app: w{i}\n  template:\n    metadata:\n      labels:\n        app: w{i}\n    spec:\n      containers:\n      - name: c\n        image: {}\n        readinessProbe:\n          initialDelaySeconds: {}\n",
            b + 1,
            IMAGES[(a % 4) as usize],
            a % 13,
        ),
        1 => format!(
            "apiVersion: batch/v1\nkind: Job\nmetadata:\n  name: j{i}\nspec:\n  completions: {}\n  template:\n    spec:\n      containers:\n      - name: c\n        image: busybox\n        command: [\"sleep\", \"{}\"]\n      restartPolicy: Never\n",
            b + 1,
            a % 90,
        ),
        2 => format!(
            "apiVersion: batch/v1\nkind: CronJob\nmetadata:\n  name: cj{i}\nspec:\n  schedule: \"* * * * *\"\n  jobTemplate:\n    spec:\n      template:\n        spec:\n          containers:\n          - name: c\n            image: busybox\n            command: [\"sleep\", \"{}\"]\n          restartPolicy: OnFailure\n",
            a % 40,
        ),
        3 => format!(
            "apiVersion: v1\nkind: Service\nmetadata:\n  name: s{i}\nspec:\n  type: LoadBalancer\n  selector:\n    app: w{}\n  ports:\n  - port: 80\n    targetPort: 80\n",
            a % (i as u64 + 1),
        ),
        _ => format!(
            "apiVersion: networking.k8s.io/v1\nkind: Ingress\nmetadata:\n  name: in{i}\nspec:\n  rules:\n  - http:\n      paths:\n      - path: /\n        pathType: Prefix\n        backend:\n          service:\n            name: s{}\n            port:\n              number: 80\n",
            a % (i as u64 + 1),
        ),
    }
}

/// A cluster holding one object per `objects` entry, each applied after
/// advancing by its stagger, so creation times and timers fall between
/// reconcile ticks.
fn staggered_cluster(objects: &[(u8, u64, u64)], staggers: &[u64]) -> Cluster {
    let mut cluster = Cluster::new();
    for (i, (&object, &stagger)) in objects.iter().zip(staggers).enumerate() {
        cluster.advance(stagger);
        cluster
            .apply_manifest(&workload_manifest(i, object), "default")
            .unwrap();
    }
    cluster
}

/// `kubectl get <kind> -o yaml` for every kind the workloads create.
fn snapshot(cluster: &mut Cluster) -> Vec<String> {
    [
        "pods",
        "deployments",
        "replicasets",
        "jobs",
        "cronjobs",
        "services",
        "ingresses",
    ]
    .iter()
    .map(|kind| {
        let args = ["get", kind, "-o", "yaml"].map(str::to_owned);
        let result = kubesim::kubectl::run(cluster, &args, "", &|_| None);
        format!("{}{}{}", result.stdout, result.stderr, result.code)
    })
    .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Apply-then-get returns the object; delete-then-get does not.
    /// Repeated applies never duplicate.
    #[test]
    fn store_apply_delete_invariants(
        names in prop::collection::btree_set("[a-z][a-z0-9]{0,6}", 1..6),
        advance_ms in 0u64..30_000,
    ) {
        let mut cluster = kubesim::Cluster::new();
        let names: Vec<String> = names.into_iter().collect();
        for n in &names {
            let m = pod_manifest(n, "app", "nginx");
            cluster.apply_manifest(&m, "default").unwrap();
            cluster.apply_manifest(&m, "default").unwrap(); // idempotent
        }
        cluster.advance(advance_ms);
        let pods = cluster.get("Pod", Some("default"), None);
        prop_assert_eq!(pods.len(), names.len());
        // Delete half; the rest survive.
        let (gone, kept) = names.split_at(names.len() / 2);
        for n in gone {
            cluster.delete("pod", "default", n).unwrap();
        }
        for n in gone {
            prop_assert!(cluster.get("Pod", Some("default"), Some(n)).is_empty());
        }
        for n in kept {
            prop_assert_eq!(cluster.get("Pod", Some("default"), Some(n)).len(), 1);
        }
    }

    /// Advancing time never decreases readiness for pullable images, and
    /// the clock is monotonic.
    #[test]
    fn readiness_is_monotone(steps in prop::collection::vec(100u64..5000, 1..8)) {
        let mut cluster = kubesim::Cluster::new();
        cluster
            .apply_manifest(&pod_manifest("w", "web", "nginx"), "default")
            .unwrap();
        let mut was_ready = false;
        let mut last_now = 0;
        for step in steps {
            cluster.advance(step);
            prop_assert!(cluster.now_ms() > last_now);
            last_now = cluster.now_ms();
            let ready = cluster
                .get("Pod", Some("default"), Some("w"))
                .pop()
                .and_then(|p| p.condition("Ready"))
                == Some(true);
            prop_assert!(!was_ready || ready, "readiness regressed");
            was_ready = ready;
        }
    }

    /// One `advance(n * 250)` leaves every object exactly as `n` calls of
    /// `advance(250)` do, timestamps included. Each short call reconciles
    /// at its target, so the split run is the reconcile-every-tick oracle
    /// and the single call must skip only passes that change nothing.
    #[test]
    fn advance_is_split_invariant(
        objects in prop::collection::vec((0u8..5, 0u64..1_000, 0u64..3), 1..7),
        staggers in prop::collection::vec(0u64..1_700, 7..8),
        ticks in 1u64..420,
    ) {
        let mut cluster = staggered_cluster(&objects, &staggers);
        let mut split = cluster.clone();
        cluster.advance(ticks * 250);
        for _ in 0..ticks {
            split.advance(250);
        }
        prop_assert_eq!(cluster.now_ms(), split.now_ms());
        prop_assert_eq!(snapshot(&mut cluster), snapshot(&mut split));
        prop_assert!(cluster.reconcile_passes() <= split.reconcile_passes());
    }

    /// `kubectl wait` and `rollout status` jump over polls that cannot
    /// see a change, yet end exactly where polling every 500 ms ends: same
    /// output, same exit code, same clock. The oracle polls with
    /// `--timeout=0s` (one check, no clock movement) and `advance(500)`.
    #[test]
    fn waits_match_a_poll_every_500ms_oracle(
        objects in prop::collection::vec((0u8..5, 0u64..1_000, 0u64..3), 1..7),
        staggers in prop::collection::vec(0u64..1_700, 7..8),
        target in 0u8..5,
        which in 0usize..7,
        timeout_ms in 0u64..150_000,
    ) {
        let mut cluster = staggered_cluster(&objects, &staggers);
        // Prefer an object the command names (shape 0 Deployment, 1 Job,
        // 4 Ingress); waits on a missing one poll until the deadline.
        let shape = [0, 0, 1, 4, 0][usize::from(target)];
        let i = (0..objects.len())
            .map(|k| (which + k) % objects.len())
            .find(|&k| objects[k].0 == shape)
            .unwrap_or(which % objects.len());
        if target == 4 && objects[i].0 != shape {
            // `rollout status` on a missing Deployment fails at once.
            return;
        }
        let command = match target {
            0 => format!("wait --for=condition=Ready pod -l app=w{i}"),
            1 => format!("wait --for=condition=Available deployment/d{i}"),
            2 => format!("wait --for=condition=Complete job/j{i}"),
            3 => format!("wait --for=condition=SYNCED ingress/in{i}"),
            _ => format!("rollout status deployment/d{i}"),
        };
        let argv = |timeout: u64| -> Vec<String> {
            format!("{command} --timeout={timeout}ms")
                .split_whitespace()
                .map(str::to_owned)
                .collect()
        };
        let mut polled = cluster.clone();
        let jumped = kubesim::kubectl::run(&mut cluster, &argv(timeout_ms), "", &|_| None);
        let deadline = polled.now_ms() + timeout_ms;
        let oracle = loop {
            let poll = kubesim::kubectl::run(&mut polled, &argv(0), "", &|_| None);
            if poll.code == 0 || polled.now_ms() >= deadline {
                break poll;
            }
            polled.advance(500);
        };
        prop_assert_eq!(
            (jumped.stdout, jumped.stderr, jumped.code, cluster.now_ms()),
            (oracle.stdout, oracle.stderr, oracle.code, polled.now_ms())
        );
        prop_assert_eq!(snapshot(&mut cluster), snapshot(&mut polled));
    }

    /// Deployment replica counts are tracked exactly after convergence.
    #[test]
    fn deployment_converges_to_replicas(replicas in 1i64..6) {
        let manifest = format!(
            "apiVersion: apps/v1\nkind: Deployment\nmetadata:\n  name: d\nspec:\n  replicas: {replicas}\n  selector:\n    matchLabels:\n      app: d\n  template:\n    metadata:\n      labels:\n        app: d\n    spec:\n      containers:\n      - name: c\n        image: nginx\n"
        );
        let mut cluster = kubesim::Cluster::new();
        cluster.apply_manifest(&manifest, "default").unwrap();
        cluster.advance(20_000);
        let pods = cluster.get("Pod", Some("default"), None);
        prop_assert_eq!(pods.len() as i64, replicas);
        let d = cluster.get("Deployment", Some("default"), Some("d")).pop().unwrap();
        prop_assert_eq!(
            d.status.get("readyReplicas").and_then(yamlkit::Yaml::as_i64),
            Some(replicas)
        );
    }

    /// CLI selector semantics: `k=v` partitions resources exactly.
    #[test]
    fn selector_partitions(labels in prop::collection::vec(("[ab]", "[xy]"), 1..8)) {
        use kubesim::selector::Selector;
        let sets: Vec<Vec<(String, String)>> = labels
            .iter()
            .map(|(k, v)| vec![(k.clone(), v.clone())])
            .collect();
        let sel = Selector::parse_cli("a=x").unwrap();
        for set in &sets {
            let matched = sel.matches(set);
            let expected = set.iter().any(|(k, v)| k == "a" && v == "x");
            prop_assert_eq!(matched, expected);
        }
    }

    /// Strict decoding is deterministic and stable under re-validation.
    #[test]
    fn validation_is_deterministic(port in 1i64..70000) {
        let manifest = format!(
            "apiVersion: v1\nkind: Pod\nmetadata:\n  name: p\nspec:\n  containers:\n  - name: c\n    image: nginx\n    ports:\n    - containerPort: {port}\n"
        );
        let body = yamlkit::parse_one(&manifest).unwrap().to_value();
        let v1 = kubesim::schema::validate(&body);
        let v2 = kubesim::schema::validate(&body);
        prop_assert_eq!(v1, v2);
    }
}
