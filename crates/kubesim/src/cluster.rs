//! The in-memory cluster: resource store, simulated clock, and the
//! controller loops that stand in for kube-controller-manager + kubelet.
//!
//! Time is virtual: [`Cluster::advance`] moves the clock and reconciles.
//! Nothing sleeps for real, and the clock jumps from event to event rather
//! than stepping through idle time, so a `kubectl wait --timeout=60s` in a
//! unit test costs microseconds of wall time.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

use yamlkit::Yaml;

use crate::images::{self, ImageBehavior};
use crate::resources::{canonical_kind, format_sim_time, is_cluster_scoped, Resource, ResourceKey};
use crate::schema::{self, Violation};
use crate::selector::Selector;

/// Errors surfaced to kubectl (which renders them in CLI phrasing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// Manifest failed strict decoding; payload is (kind, apiVersion, violations).
    Decoding(String, String, Vec<Violation>),
    /// Kind/apiVersion pair the API server does not serve.
    NoKindMatch(String, String),
    /// Target namespace does not exist.
    NamespaceNotFound(String),
    /// Object not found.
    NotFound(String),
    /// Semantic validation failure (selector mismatch, bad port, ...).
    Invalid(String),
    /// Object already exists (create on existing name).
    AlreadyExists(String),
    /// Admission refused the object (e.g. a `ResourceQuota` is exhausted).
    Forbidden(String),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Decoding(kind, version, violations) => {
                let v = version.rsplit('/').next().unwrap_or(version);
                let list = violations
                    .iter()
                    .map(Violation::render)
                    .collect::<Vec<_>>()
                    .join(", ");
                write!(
                    f,
                    "{kind} in version \"{v}\" cannot be handled as a {kind}: strict decoding error: {list}"
                )
            }
            ClusterError::NoKindMatch(kind, version) => {
                write!(f, "no matches for kind \"{kind}\" in version \"{version}\"")
            }
            ClusterError::NamespaceNotFound(ns) => write!(f, "namespaces \"{ns}\" not found"),
            ClusterError::NotFound(what) => write!(f, "{what} not found"),
            ClusterError::Invalid(msg) => write!(f, "{msg}"),
            ClusterError::AlreadyExists(what) => write!(f, "{what} already exists"),
            ClusterError::Forbidden(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// A virtual worker node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeInfo {
    /// Node name (the default cluster has a single `minikube` node).
    pub name: String,
    /// Node IP, returned as pod `hostIP`.
    pub ip: String,
}

/// Per-pod runtime model: when pulls finish, when the pod is ready, when a
/// finite command terminates.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PodRuntime {
    created_ms: u64,
    pull_done_ms: u64,
    ready_ms: u64,
    /// Some(t) when the pod's containers exit at simulated time t.
    terminates_ms: Option<u64>,
    /// The command exits non-zero.
    fails: bool,
    /// Image cannot be pulled (unknown reference).
    unpullable: bool,
}

/// The simulated Kubernetes cluster.
///
/// # Examples
///
/// ```
/// use kubesim::Cluster;
/// let mut cluster = Cluster::new();
/// cluster
///     .apply_manifest(
///         "apiVersion: v1\nkind: Pod\nmetadata:\n  name: web\nspec:\n  containers:\n  - name: c\n    image: nginx\n",
///         "default",
///     )
///     .unwrap();
/// cluster.advance(10_000);
/// let pod = cluster.get("Pod", Some("default"), Some("web")).pop().unwrap();
/// assert_eq!(pod.condition("Ready"), Some(true));
/// ```
#[derive(Debug, Clone)]
pub struct Cluster {
    now_ms: u64,
    resources: BTreeMap<ResourceKey, Resource>,
    namespaces: BTreeSet<String>,
    nodes: Vec<NodeInfo>,
    pod_runtime: HashMap<ResourceKey, PodRuntime>,
    name_counter: u64,
    ip_counter: u32,
    node_port_counter: u16,
    /// Bandwidth used for image pulls (minikube default: fast local link).
    pub pull_bandwidth_mbps: f64,
    /// Image pulls performed (image, at_ms) — feeds the eval-cluster cache
    /// model and `describe` events.
    pulls: Vec<(String, u64)>,
    /// Pre-parsed manifests keyed by source-text content hash
    /// ([`yamlkit::doc::content_hash`]). Seeded by [`Cluster::prime_parsed`]
    /// from a `PreparedDoc`'s shared values so that `kubectl apply -f` of
    /// the same text skips the YAML parse entirely — the candidate is
    /// parsed once per evaluation, not once per layer.
    primed: HashMap<u64, std::sync::Arc<Vec<Yaml>>>,
    /// The last reconcile pass changed no structure and nothing was
    /// deleted or created since. While false, the next grid instant of
    /// [`Cluster::advance`] must reconcile.
    settled: bool,
    /// Reconcile passes run so far.
    reconcile_passes: u64,
}

/// Spacing of the controller reconcile grid, counted from the start of each
/// [`Cluster::advance`] call.
const RECONCILE_TICK_MS: u64 = 250;

/// The first instant of the grid `origin + k * step` at or after `t`
/// (saturating at `u64::MAX`).
pub(crate) fn grid_at_or_after(origin: u64, step: u64, t: u64) -> u64 {
    let steps = t.saturating_sub(origin).div_ceil(step);
    origin.saturating_add(steps.saturating_mul(step))
}

impl Default for Cluster {
    fn default() -> Self {
        Self::new()
    }
}

impl Cluster {
    /// A fresh single-node cluster with `default`, `kube-system` and
    /// `kube-public` namespaces, mirroring a minikube boot.
    pub fn new() -> Cluster {
        Cluster {
            now_ms: 0,
            resources: BTreeMap::new(),
            namespaces: ["default", "kube-system", "kube-public"]
                .into_iter()
                .map(str::to_owned)
                .collect(),
            nodes: vec![NodeInfo {
                name: "minikube".into(),
                ip: "192.168.49.2".into(),
            }],
            pod_runtime: HashMap::new(),
            name_counter: 0,
            ip_counter: 1,
            node_port_counter: 30000,
            pull_bandwidth_mbps: 400.0,
            pulls: Vec::new(),
            primed: HashMap::new(),
            settled: true,
            reconcile_passes: 0,
        }
    }

    /// Current simulated time in milliseconds.
    pub fn now_ms(&self) -> u64 {
        self.now_ms
    }

    /// The cluster's nodes.
    pub fn nodes(&self) -> &[NodeInfo] {
        &self.nodes
    }

    /// Image pulls recorded so far (image reference, time).
    pub fn pulls(&self) -> &[(String, u64)] {
        &self.pulls
    }

    /// Existing namespace names.
    pub fn namespaces(&self) -> impl Iterator<Item = &str> {
        self.namespaces.iter().map(String::as_str)
    }

    /// Reconcile passes run so far: one per [`Cluster::apply_object`] and
    /// one per event [`Cluster::advance`] visits.
    pub fn reconcile_passes(&self) -> u64 {
        self.reconcile_passes
    }

    /// Advances the simulated clock by `ms` (saturating at `u64::MAX`),
    /// reconciling controllers as time passes.
    ///
    /// Controllers run on a 250 ms grid counted from this call's start,
    /// but only at the grid instants where something can change:
    ///
    /// * after a pass that changed structure — the resource count, the
    ///   pod-runtime count, the name, IP or node-port counters, or the
    ///   namespaces moved — or after a delete or namespace creation, the
    ///   next grid instant reconciles;
    /// * otherwise the clock jumps straight to the first grid instant at
    ///   or after the earliest pending timer: a pod's image-pull-done,
    ///   ready or terminate time, a LoadBalancer Service's external IP
    ///   (+2 s), an Ingress's address (+1 s) or a CronJob's next minute
    ///   boundary;
    /// * the target instant always reconciles, so every condition's
    ///   `lastTransitionTime` reads the target time.
    ///
    /// A pass at a skipped grid instant would have changed nothing but
    /// `lastTransitionTime` stamps, which the target pass rewrites, so the
    /// result is the cluster a pass at every grid instant would leave.
    pub fn advance(&mut self, ms: u64) {
        let start = self.now_ms;
        let target = start.saturating_add(ms);
        while self.now_ms < target {
            let wake = self.next_event_ms().unwrap_or(target);
            self.now_ms = grid_at_or_after(start, RECONCILE_TICK_MS, wake).min(target);
            self.reconcile();
        }
    }

    /// The earliest instant after now at which reconciling can change the
    /// cluster: just after now while a structural change is settling,
    /// else the earliest pending timer (see [`Cluster::advance`]). `None`
    /// when the cluster will never change on its own.
    pub(crate) fn next_event_ms(&self) -> Option<u64> {
        let now = self.now_ms;
        if !self.settled {
            return Some(now.saturating_add(1));
        }
        // An unpullable pod stays Pending whatever the time.
        let pods = self
            .pod_runtime
            .values()
            .filter(|rt| !rt.unpullable)
            .flat_map(|rt| [Some(rt.pull_done_ms), Some(rt.ready_ms), rt.terminates_ms])
            .flatten();
        let objects = self.resources.values().filter_map(|r| {
            let created = r.created_at_ms;
            match r.kind.as_str() {
                "Service" if service_type(r) == "LoadBalancer" => {
                    Some(created.saturating_add(LOAD_BALANCER_DELAY_MS))
                }
                "Ingress" => Some(created.saturating_add(INGRESS_DELAY_MS)),
                "CronJob" => Some(cronjob_due_ms(created)),
                _ => None,
            }
        });
        pods.chain(objects).filter(|&t| t > now).min()
    }

    /// Creates a namespace.
    ///
    /// # Errors
    ///
    /// [`ClusterError::AlreadyExists`] when it is already present.
    pub fn create_namespace(&mut self, name: &str) -> Result<(), ClusterError> {
        if !self.namespaces.insert(name.to_owned()) {
            return Err(ClusterError::AlreadyExists(format!(
                "namespaces \"{name}\""
            )));
        }
        self.settled = false;
        Ok(())
    }

    /// Applies every document in a manifest, returning per-object messages
    /// (`pod/web created`).
    ///
    /// # Errors
    ///
    /// Validation, decoding and namespace errors; on error earlier
    /// documents in the stream stay applied (kubectl behaviour).
    pub fn apply_manifest(
        &mut self,
        manifest: &str,
        default_namespace: &str,
    ) -> Result<Vec<String>, ClusterError> {
        // Parse-once fast path: a substrate that already holds the parsed
        // form of this exact text (see [`Cluster::prime_parsed`]) lets
        // `kubectl apply -f` skip the parse.
        if !self.primed.is_empty() {
            let primed = self
                .primed
                .get(&yamlkit::doc::content_hash(manifest))
                .cloned();
            if let Some(docs) = primed {
                return self.apply_values(&docs, default_namespace);
            }
        }
        let docs = yamlkit::parse(manifest)
            .map_err(|e| ClusterError::Invalid(format!("error parsing YAML: {e}")))?;
        let values: Vec<Yaml> = docs.iter().map(yamlkit::Node::to_value).collect();
        self.apply_owned(values, default_namespace)
    }

    /// Registers the pre-parsed form of a manifest text so subsequent
    /// [`Cluster::apply_manifest`] calls with byte-identical text apply
    /// the shared parsed documents instead of re-parsing. `hash` must be
    /// [`yamlkit::doc::content_hash`] of the exact text (a
    /// `PreparedDoc::content_hash`).
    pub fn prime_parsed(&mut self, hash: u64, docs: std::sync::Arc<Vec<Yaml>>) {
        self.primed.insert(hash, docs);
    }

    /// Applies pre-parsed documents directly — the parse-once entry point
    /// backends with a `PreparedDoc` in hand call instead of
    /// [`Cluster::apply_manifest`]. Same per-object messages, same error
    /// classes (minus the parse error, which cannot happen here).
    pub fn apply_docs(
        &mut self,
        docs: &[Yaml],
        default_namespace: &str,
    ) -> Result<Vec<String>, ClusterError> {
        self.apply_values(docs, default_namespace)
    }

    /// Borrowed-slice apply: clones each body out of the (possibly
    /// shared) slice. Used by the primed/pre-parsed paths, where a clone
    /// replaces a full text parse; the cold text path goes through
    /// [`Cluster::apply_owned`] and never clones.
    fn apply_values(
        &mut self,
        docs: &[Yaml],
        default_namespace: &str,
    ) -> Result<Vec<String>, ClusterError> {
        self.apply_owned(docs.to_vec(), default_namespace)
    }

    /// Shared tail of the apply paths: empty-stream checks + per-object
    /// application, moving each owned body into the store.
    fn apply_owned(
        &mut self,
        docs: Vec<Yaml>,
        default_namespace: &str,
    ) -> Result<Vec<String>, ClusterError> {
        if docs.is_empty() {
            return Err(ClusterError::Invalid("no objects passed to apply".into()));
        }
        let mut messages = Vec::new();
        for body in docs {
            if body.is_null() {
                continue;
            }
            messages.push(self.apply_object(body, default_namespace)?);
        }
        if messages.is_empty() {
            return Err(ClusterError::Invalid("no objects passed to apply".into()));
        }
        Ok(messages)
    }

    /// Applies a single parsed object.
    ///
    /// # Errors
    ///
    /// Same classes as [`Cluster::apply_manifest`].
    pub fn apply_object(
        &mut self,
        body: Yaml,
        default_namespace: &str,
    ) -> Result<String, ClusterError> {
        let kind = body
            .get("kind")
            .and_then(Yaml::as_str)
            .ok_or_else(|| ClusterError::Invalid("error validating data: missing kind".into()))?
            .to_owned();
        let api_version = body
            .get("apiVersion")
            .and_then(Yaml::as_str)
            .ok_or_else(|| {
                ClusterError::Invalid("error validating data: missing apiVersion".into())
            })?
            .to_owned();
        if let Some(expected) = schema::expected_api_versions(&kind) {
            if !expected.contains(&api_version.as_str()) {
                return Err(ClusterError::NoKindMatch(kind, api_version));
            }
        }
        let violations = schema::validate(&body);
        if !violations.is_empty() {
            return Err(ClusterError::Decoding(kind, api_version, violations));
        }
        let resource = Resource::from_yaml(body, default_namespace, self.now_ms)
            .map_err(|e| ClusterError::Invalid(format!("error validating data: {e}")))?;
        if !resource.namespace.is_empty() && !self.namespaces.contains(&resource.namespace) {
            return Err(ClusterError::NamespaceNotFound(resource.namespace));
        }
        self.validate_semantics(&resource)?;
        if resource.kind == "Pod" && !self.resources.contains_key(&resource.key()) {
            self.enforce_pod_quota(&resource)?;
        }
        if resource.kind == "Namespace" {
            self.namespaces.insert(resource.name.clone());
        }
        let key = resource.key();
        let verb = if let Some(existing) = self.resources.get_mut(&key) {
            let changed = existing.body != resource.body;
            existing.body = resource.body;
            existing.labels = resource.labels;
            existing.api_version = resource.api_version;
            existing.generation += 1;
            if changed {
                "configured"
            } else {
                "unchanged"
            }
        } else {
            if resource.kind == "Pod" {
                self.track_pod(&resource);
            }
            self.resources.insert(key.clone(), resource);
            "created"
        };
        self.reconcile();
        Ok(format!("{}/{} {verb}", key.kind.to_lowercase(), key.name))
    }

    /// Deletes an object (cascading to owned children).
    ///
    /// # Errors
    ///
    /// [`ClusterError::NotFound`] when absent.
    pub fn delete(
        &mut self,
        kind: &str,
        namespace: &str,
        name: &str,
    ) -> Result<String, ClusterError> {
        let kind = canonical_kind(kind).unwrap_or(kind).to_owned();
        let ns = if is_cluster_scoped(&kind) {
            ""
        } else {
            namespace
        };
        let key = ResourceKey {
            kind: kind.clone(),
            namespace: ns.to_owned(),
            name: name.to_owned(),
        };
        if self.resources.remove(&key).is_none() {
            return Err(ClusterError::NotFound(format!(
                "{}.\"{name}\"",
                kind.to_lowercase()
            )));
        }
        self.pod_runtime.remove(&key);
        if kind == "Namespace" {
            self.namespaces.remove(name);
            self.resources.retain(|k, _| k.namespace != name);
        }
        self.cascade_delete(&key);
        self.settled = false;
        Ok(format!("{} \"{name}\" deleted", kind.to_lowercase()))
    }

    fn cascade_delete(&mut self, owner: &ResourceKey) {
        let children: Vec<ResourceKey> = self
            .resources
            .values()
            .filter(|r| owned_by(r, &owner.kind, &owner.name) && r.namespace == owner.namespace)
            .map(Resource::key)
            .collect();
        for child in children {
            self.resources.remove(&child);
            self.pod_runtime.remove(&child);
            self.cascade_delete(&child);
        }
    }

    /// Fetches resources by kind with optional namespace and name filters.
    /// `namespace: None` means all namespaces.
    pub fn get(&self, kind: &str, namespace: Option<&str>, name: Option<&str>) -> Vec<Resource> {
        let kind = canonical_kind(kind).unwrap_or(kind);
        if kind == "Node" {
            return self.node_resources();
        }
        self.resources
            .values()
            .filter(|r| r.kind == kind)
            .filter(|r| {
                is_cluster_scoped(kind)
                    || namespace.is_none()
                    || namespace == Some(r.namespace.as_str())
            })
            .filter(|r| name.is_none() || name == Some(r.name.as_str()))
            .cloned()
            .collect()
    }

    /// Fetches resources matching a label selector.
    pub fn select(
        &self,
        kind: &str,
        namespace: Option<&str>,
        selector: &Selector,
    ) -> Vec<Resource> {
        self.get(kind, namespace, None)
            .into_iter()
            .filter(|r| selector.matches(&r.labels))
            .collect()
    }

    /// Direct lookup by key.
    pub fn resource(&self, key: &ResourceKey) -> Option<&Resource> {
        self.resources.get(key)
    }

    /// All stored resources (tests and describe).
    pub fn all_resources(&self) -> impl Iterator<Item = &Resource> {
        self.resources.values()
    }

    fn node_resources(&self) -> Vec<Resource> {
        self.nodes
            .iter()
            .map(|n| {
                let body = yamlkit::ymap! {
                    "apiVersion" => "v1",
                    "kind" => "Node",
                    "metadata" => yamlkit::ymap! { "name" => n.name.as_str() },
                };
                let mut r = Resource::from_yaml(body, "", 0).expect("static node yaml");
                r.status = yamlkit::ymap! {
                    "addresses" => Yaml::Seq(vec![
                        yamlkit::ymap! { "type" => "InternalIP", "address" => n.ip.as_str() },
                    ]),
                    "conditions" => Yaml::Seq(vec![
                        yamlkit::ymap! { "type" => "Ready", "status" => "True" },
                    ]),
                };
                r
            })
            .collect()
    }

    // -----------------------------------------------------------------
    // Semantic validation
    // -----------------------------------------------------------------

    fn validate_semantics(&self, r: &Resource) -> Result<(), ClusterError> {
        match r.kind.as_str() {
            "Deployment" | "ReplicaSet" | "DaemonSet" | "StatefulSet" => {
                let selector = r
                    .body
                    .get_path(&["spec", "selector"])
                    .map(Selector::from_spec)
                    .unwrap_or_default();
                let template_labels: Vec<(String, String)> = r
                    .body
                    .get_path(&["spec", "template", "metadata", "labels"])
                    .map(|l| {
                        l.entries()
                            .map(|(k, v)| (k.to_owned(), v.render_scalar()))
                            .collect()
                    })
                    .unwrap_or_default();
                if !selector.is_empty() && !selector.matches(&template_labels) {
                    return Err(ClusterError::Invalid(format!(
                        "The {} \"{}\" is invalid: spec.template.metadata.labels: Invalid value: `selector` does not match template `labels`",
                        r.kind, r.name
                    )));
                }
                self.validate_pod_spec(r, &["spec", "template", "spec"])?;
            }
            "Job" => {
                let policy = r
                    .body
                    .get_path(&["spec", "template", "spec", "restartPolicy"])
                    .map(|p| p.render_scalar())
                    .unwrap_or_else(|| "Always".to_owned());
                if policy != "Never" && policy != "OnFailure" {
                    return Err(ClusterError::Invalid(format!(
                        "Job.batch \"{}\" is invalid: spec.template.spec.restartPolicy: Required value: valid values: \"OnFailure\", \"Never\"",
                        r.name
                    )));
                }
                self.validate_pod_spec(r, &["spec", "template", "spec"])?;
            }
            "Pod" => self.validate_pod_spec(r, &["spec"])?,
            "Service" => {
                let svc_type = r
                    .body
                    .get_path(&["spec", "type"])
                    .map(|t| t.render_scalar())
                    .unwrap_or_else(|| "ClusterIP".to_owned());
                let ports = r
                    .body
                    .get_path(&["spec", "ports"])
                    .map(|p| p.items().count())
                    .unwrap_or(0);
                if svc_type != "ExternalName" && ports == 0 {
                    return Err(ClusterError::Invalid(format!(
                        "Service \"{}\" is invalid: spec.ports: Required value",
                        r.name
                    )));
                }
                for p in r
                    .body
                    .get_path(&["spec", "ports"])
                    .into_iter()
                    .flat_map(Yaml::items)
                {
                    if let Some(port) = p.get("port").and_then(Yaml::as_i64) {
                        if !(1..=65535).contains(&port) {
                            return Err(ClusterError::Invalid(format!(
                                "Service \"{}\" is invalid: spec.ports[0].port: Invalid value: {port}",
                                r.name
                            )));
                        }
                    }
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// `ResourceQuota` admission for directly-applied pods: when a quota in
    /// the target namespace pins `spec.hard.pods`, creating a pod beyond
    /// the ceiling is refused with the API server's `Forbidden` phrasing.
    /// (Controller-created pods bypass admission here, like the real
    /// quota controller's eventual-consistency window.)
    fn enforce_pod_quota(&self, pod: &Resource) -> Result<(), ClusterError> {
        for quota in self
            .resources
            .values()
            .filter(|r| r.kind == "ResourceQuota" && r.namespace == pod.namespace)
        {
            let Some(hard) = quota
                .body
                .get_path(&["spec", "hard", "pods"])
                .map(Yaml::render_scalar)
                .and_then(|s| s.trim().parse::<u64>().ok())
            else {
                continue;
            };
            let used = self
                .resources
                .values()
                .filter(|r| r.kind == "Pod" && r.namespace == pod.namespace)
                .count() as u64;
            if used >= hard {
                return Err(ClusterError::Forbidden(format!(
                    "pods \"{}\" is forbidden: exceeded quota: {}, requested: pods=1, used: pods={used}, limited: pods={hard}",
                    pod.name, quota.name
                )));
            }
        }
        Ok(())
    }

    fn validate_pod_spec(&self, r: &Resource, path: &[&str]) -> Result<(), ClusterError> {
        let Some(spec) = r.body.get_path(path) else {
            return Ok(());
        };
        let containers = spec
            .get("containers")
            .map(|c| c.items().count())
            .unwrap_or(0);
        if containers == 0 {
            return Err(ClusterError::Invalid(format!(
                "{} \"{}\" is invalid: spec.containers: Required value",
                r.kind, r.name
            )));
        }
        // volumeMounts must reference declared volumes.
        let volumes: Vec<String> = spec
            .get("volumes")
            .map(|v| {
                v.items()
                    .filter_map(|x| x.get("name").map(Yaml::render_scalar))
                    .collect()
            })
            .unwrap_or_default();
        for c in spec.get("containers").into_iter().flat_map(Yaml::items) {
            for m in c.get("volumeMounts").into_iter().flat_map(Yaml::items) {
                let name = m.get("name").map(Yaml::render_scalar).unwrap_or_default();
                if !volumes.contains(&name) && r.kind != "StatefulSet" {
                    return Err(ClusterError::Invalid(format!(
                        "{} \"{}\" is invalid: spec.containers[0].volumeMounts[0].name: Not found: \"{name}\"",
                        r.kind, r.name
                    )));
                }
            }
        }
        Ok(())
    }

    // -----------------------------------------------------------------
    // Controllers
    // -----------------------------------------------------------------

    /// Structural counters: a pass that leaves these unchanged created and
    /// removed nothing, so the next pass can only differ at a timer.
    fn structure(&self) -> [u64; 6] {
        [
            self.resources.len() as u64,
            self.pod_runtime.len() as u64,
            self.name_counter,
            u64::from(self.ip_counter),
            u64::from(self.node_port_counter),
            self.namespaces.len() as u64,
        ]
    }

    fn reconcile(&mut self) {
        let before = self.structure();
        self.reconcile_deployments();
        self.reconcile_replicasets();
        self.reconcile_daemonsets();
        self.reconcile_statefulsets();
        self.reconcile_jobs();
        self.reconcile_cronjobs();
        self.update_pods();
        self.update_workload_status();
        self.reconcile_services();
        self.reconcile_ingresses();
        self.reconcile_hpas();
        self.reconcile_istio();
        self.reconcile_passes += 1;
        self.settled = self.structure() == before;
    }

    fn fresh_suffix(&mut self) -> String {
        self.name_counter += 1;
        let alphabet = b"abcdefghijklmnopqrstuvwxyz";
        let mut n = self.name_counter * 7919 + 13;
        let mut s = String::new();
        for _ in 0..5 {
            s.push(alphabet[(n % 26) as usize] as char);
            n /= 26;
        }
        s
    }

    fn reconcile_deployments(&mut self) {
        let deployments: Vec<Resource> = self
            .resources
            .values()
            .filter(|r| r.kind == "Deployment")
            .cloned()
            .collect();
        for d in deployments {
            let rs_name = format!("{}-{}", d.name, template_hash(&d.body));
            let rs_key = ResourceKey {
                kind: "ReplicaSet".into(),
                namespace: d.namespace.clone(),
                name: rs_name.clone(),
            };
            if self.resources.contains_key(&rs_key) {
                // Keep replica count in sync.
                let replicas = d.replicas();
                if let Some(rs) = self.resources.get_mut(&rs_key) {
                    rs.body
                        .get_mut("spec")
                        .map(|s| s.insert("replicas", Yaml::Int(replicas)));
                }
                continue;
            }
            // Old replica sets from previous template hashes are scaled away.
            let stale: Vec<ResourceKey> = self
                .resources
                .values()
                .filter(|r| {
                    r.kind == "ReplicaSet"
                        && r.namespace == d.namespace
                        && owned_by(r, "Deployment", &d.name)
                })
                .map(Resource::key)
                .collect();
            for key in stale {
                self.resources.remove(&key);
                self.cascade_delete(&key);
            }
            let mut body = yamlkit::ymap! {
                "apiVersion" => "apps/v1",
                "kind" => "ReplicaSet",
                "metadata" => yamlkit::ymap! {
                    "name" => rs_name.as_str(),
                    "namespace" => d.namespace.as_str(),
                    "ownerReferences" => Yaml::Seq(vec![owner_ref("Deployment", &d.name)]),
                },
                "spec" => yamlkit::ymap! { "replicas" => d.replicas() },
            };
            if let Some(selector) = d.body.get_path(&["spec", "selector"]) {
                body.get_mut("spec")
                    .unwrap()
                    .insert("selector", selector.clone());
            }
            if let Some(template) = d.body.get_path(&["spec", "template"]) {
                body.get_mut("spec")
                    .unwrap()
                    .insert("template", template.clone());
            }
            let r = Resource::from_yaml(body, &d.namespace, self.now_ms).expect("rs body");
            self.resources.insert(r.key(), r);
        }
    }

    fn reconcile_replicasets(&mut self) {
        let sets: Vec<Resource> = self
            .resources
            .values()
            .filter(|r| r.kind == "ReplicaSet")
            .cloned()
            .collect();
        for rs in sets {
            let desired = rs.replicas().max(0) as usize;
            let mut children: Vec<ResourceKey> = self
                .resources
                .values()
                .filter(|r| {
                    r.kind == "Pod"
                        && r.namespace == rs.namespace
                        && owned_by(r, "ReplicaSet", &rs.name)
                })
                .map(Resource::key)
                .collect();
            while children.len() > desired {
                let key = children.pop().expect("len checked");
                self.resources.remove(&key);
                self.pod_runtime.remove(&key);
            }
            let missing = desired - children.len();
            for _ in 0..missing {
                let name = format!("{}-{}", rs.name, self.fresh_suffix());
                self.spawn_pod_from_template(&rs, &name, "ReplicaSet");
            }
        }
    }

    fn reconcile_daemonsets(&mut self) {
        let sets: Vec<Resource> = self
            .resources
            .values()
            .filter(|r| r.kind == "DaemonSet")
            .cloned()
            .collect();
        for ds in sets {
            for node_idx in 0..self.nodes.len() {
                let exists = self.resources.values().any(|r| {
                    r.kind == "Pod"
                        && r.namespace == ds.namespace
                        && owned_by(r, "DaemonSet", &ds.name)
                        && r.body
                            .get_path(&["spec", "nodeName"])
                            .map(Yaml::render_scalar)
                            .as_deref()
                            == Some(self.nodes[node_idx].name.as_str())
                });
                if !exists {
                    let name = format!("{}-{}", ds.name, self.fresh_suffix());
                    let node_name = self.nodes[node_idx].name.clone();
                    if let Some(key) = self.spawn_pod_from_template(&ds, &name, "DaemonSet") {
                        if let Some(pod) = self.resources.get_mut(&key) {
                            pod.body
                                .get_mut("spec")
                                .map(|s| s.insert("nodeName", Yaml::Str(node_name)));
                        }
                    }
                }
            }
        }
    }

    fn reconcile_statefulsets(&mut self) {
        let sets: Vec<Resource> = self
            .resources
            .values()
            .filter(|r| r.kind == "StatefulSet")
            .cloned()
            .collect();
        for sts in sets {
            let desired = sts.replicas().max(0);
            for ordinal in 0..desired {
                let name = format!("{}-{ordinal}", sts.name);
                let key = ResourceKey {
                    kind: "Pod".into(),
                    namespace: sts.namespace.clone(),
                    name: name.clone(),
                };
                if !self.resources.contains_key(&key) {
                    self.spawn_pod_from_template(&sts, &name, "StatefulSet");
                }
            }
            // Scale down: remove higher ordinals.
            let extra: Vec<ResourceKey> = self
                .resources
                .values()
                .filter(|r| {
                    r.kind == "Pod"
                        && owned_by(r, "StatefulSet", &sts.name)
                        && r.namespace == sts.namespace
                        && r.name
                            .rsplit('-')
                            .next()
                            .and_then(|o| o.parse::<i64>().ok())
                            .is_some_and(|o| o >= desired)
                })
                .map(Resource::key)
                .collect();
            for key in extra {
                self.resources.remove(&key);
                self.pod_runtime.remove(&key);
            }
        }
    }

    fn reconcile_jobs(&mut self) {
        let jobs: Vec<Resource> = self
            .resources
            .values()
            .filter(|r| r.kind == "Job")
            .cloned()
            .collect();
        for job in jobs {
            let completions = job
                .body
                .get_path(&["spec", "completions"])
                .and_then(Yaml::as_i64)
                .unwrap_or(1)
                .max(1) as usize;
            let existing = self
                .resources
                .values()
                .filter(|r| {
                    r.kind == "Pod" && r.namespace == job.namespace && owned_by(r, "Job", &job.name)
                })
                .count();
            for _ in existing..completions {
                let name = format!("{}-{}", job.name, self.fresh_suffix());
                self.spawn_pod_from_template(&job, &name, "Job");
            }
        }
    }

    fn reconcile_cronjobs(&mut self) {
        let crons: Vec<Resource> = self
            .resources
            .values()
            .filter(|r| r.kind == "CronJob")
            .cloned()
            .collect();
        for cj in crons {
            if self.now_ms < cronjob_due_ms(cj.created_at_ms) {
                continue;
            }
            let spawned = self.resources.values().any(|r| {
                r.kind == "Job" && r.namespace == cj.namespace && owned_by(r, "CronJob", &cj.name)
            });
            if spawned {
                continue;
            }
            let Some(job_spec) = cj.body.get_path(&["spec", "jobTemplate", "spec"]) else {
                continue;
            };
            let name = format!("{}-{}", cj.name, 28000000 + self.name_counter);
            self.name_counter += 1;
            let body = yamlkit::ymap! {
                "apiVersion" => "batch/v1",
                "kind" => "Job",
                "metadata" => yamlkit::ymap! {
                    "name" => name.as_str(),
                    "namespace" => cj.namespace.as_str(),
                    "ownerReferences" => Yaml::Seq(vec![owner_ref("CronJob", &cj.name)]),
                },
                "spec" => job_spec.clone(),
            };
            if let Ok(r) = Resource::from_yaml(body, &cj.namespace, self.now_ms) {
                self.resources.insert(r.key(), r);
            }
        }
    }

    /// Creates a pod from a workload's template; returns the new key.
    fn spawn_pod_from_template(
        &mut self,
        owner: &Resource,
        pod_name: &str,
        owner_kind: &str,
    ) -> Option<ResourceKey> {
        let template = owner.pod_template()?;
        let labels = template
            .get_path(&["metadata", "labels"])
            .cloned()
            .unwrap_or(Yaml::Map(vec![]));
        let spec = template.get("spec").cloned().unwrap_or(Yaml::Map(vec![]));
        let node = self.nodes.first().cloned();
        let mut metadata = yamlkit::ymap! {
            "name" => pod_name,
            "namespace" => owner.namespace.as_str(),
            "labels" => labels,
            "ownerReferences" => Yaml::Seq(vec![owner_ref(owner_kind, &owner.name)]),
        };
        if let Some(anns) = template.get_path(&["metadata", "annotations"]) {
            metadata.insert("annotations", anns.clone());
        }
        let mut spec = spec;
        if spec.get("nodeName").is_none() {
            if let Some(n) = node {
                spec.insert("nodeName", Yaml::Str(n.name));
            }
        }
        let body = yamlkit::ymap! {
            "apiVersion" => "v1",
            "kind" => "Pod",
            "metadata" => metadata,
            "spec" => spec,
        };
        let r = Resource::from_yaml(body, &owner.namespace, self.now_ms).ok()?;
        let key = r.key();
        self.track_pod(&r);
        self.resources.insert(key.clone(), r);
        Some(key)
    }

    /// Computes the runtime model for a new pod.
    fn track_pod(&mut self, pod: &Resource) {
        let mut pull_ms = 0u64;
        let mut unpullable = false;
        let mut terminates: Option<u64> = None;
        let mut fails = false;
        let mut ready_delay = 200u64;
        for c in pod.containers() {
            let image = c.get("image").map(Yaml::render_scalar).unwrap_or_default();
            match images::lookup(&image) {
                Some(info) => {
                    pull_ms = pull_ms.max(images::pull_time_ms(
                        info.size_mib,
                        self.pull_bandwidth_mbps,
                    ));
                    self.pulls.push((image.clone(), self.now_ms));
                    let command_finite = command_duration(&c);
                    match (info.behavior, command_finite) {
                        (
                            _,
                            Some(CommandRun {
                                duration_ms,
                                fails: f,
                            }),
                        ) => {
                            terminates = Some(terminates.unwrap_or(0).max(duration_ms));
                            fails |= f;
                        }
                        (ImageBehavior::Batch, None) => {
                            // Bare shell image with no command exits at once.
                            terminates = Some(terminates.unwrap_or(0).max(300));
                        }
                        _ => {}
                    }
                }
                None => unpullable = true,
            }
            if let Some(probe) = c.get("readinessProbe") {
                let delay = probe
                    .get("initialDelaySeconds")
                    .and_then(Yaml::as_i64)
                    .unwrap_or(0)
                    .max(0) as u64;
                ready_delay = ready_delay.max(delay.saturating_mul(1000).saturating_add(200));
            }
        }
        let created = self.now_ms;
        let pull_done = created.saturating_add(pull_ms.max(300));
        self.pod_runtime.insert(
            pod.key(),
            PodRuntime {
                created_ms: created,
                pull_done_ms: pull_done,
                ready_ms: pull_done.saturating_add(ready_delay),
                terminates_ms: terminates.map(|d| pull_done.saturating_add(d)),
                fails,
                unpullable,
            },
        );
    }

    fn update_pods(&mut self) {
        let now = self.now_ms;
        let node_ip = self.nodes.first().map(|n| n.ip.clone()).unwrap_or_default();
        let keys: Vec<ResourceKey> = self
            .resources
            .values()
            .filter(|r| r.kind == "Pod")
            .map(Resource::key)
            .collect();
        for key in keys {
            let runtime = match self.pod_runtime.get(&key) {
                Some(rt) => *rt,
                None => {
                    // Pod applied before tracking existed (direct insert).
                    let pod = self.resources.get(&key).expect("key from scan").clone();
                    self.track_pod(&pod);
                    self.pod_runtime[&key]
                }
            };
            let ip_suffix = {
                // Stable pod IP derived once, stored in status.
                let pod = self.resources.get(&key).expect("key from scan");
                pod.status.get("podIP").map(Yaml::render_scalar)
            };
            let pod_ip = ip_suffix.unwrap_or_else(|| {
                let ip = format!("10.244.0.{}", self.ip_counter);
                self.ip_counter += 1;
                ip
            });
            let pod = self.resources.get_mut(&key).expect("key from scan");
            let (phase, ready, waiting_reason): (&str, bool, Option<&str>) = if runtime.unpullable {
                ("Pending", false, Some("ImagePullBackOff"))
            } else if now < runtime.pull_done_ms {
                ("Pending", false, Some("ContainerCreating"))
            } else if let Some(t) = runtime.terminates_ms {
                if now >= t {
                    (
                        if runtime.fails { "Failed" } else { "Succeeded" },
                        false,
                        None,
                    )
                } else {
                    ("Running", now >= runtime.ready_ms, None)
                }
            } else {
                ("Running", now >= runtime.ready_ms, None)
            };
            let containers = pod.containers();
            let mut statuses = Vec::new();
            for c in &containers {
                let cname = c.get("name").map(Yaml::render_scalar).unwrap_or_default();
                let image = c.get("image").map(Yaml::render_scalar).unwrap_or_default();
                let state = match (phase, waiting_reason) {
                    (_, Some(reason)) => yamlkit::ymap! {
                        "waiting" => yamlkit::ymap! { "reason" => reason, "message" => "" },
                    },
                    ("Succeeded", _) | ("Failed", _) => yamlkit::ymap! {
                        "terminated" => yamlkit::ymap! {
                            "exitCode" => if runtime.fails { 1i64 } else { 0i64 },
                            "reason" => if runtime.fails { "Error" } else { "Completed" },
                        },
                    },
                    _ => yamlkit::ymap! {
                        "running" => yamlkit::ymap! { "startedAt" => format_sim_time(runtime.pull_done_ms) },
                    },
                };
                statuses.push(yamlkit::ymap! {
                    "name" => cname,
                    "image" => image,
                    "ready" => ready,
                    "restartCount" => 0i64,
                    "state" => state,
                });
            }
            pod.status = yamlkit::ymap! {
                "phase" => phase,
                "podIP" => pod_ip.as_str(),
                "hostIP" => node_ip.as_str(),
                "startTime" => format_sim_time(runtime.created_ms),
                "containerStatuses" => Yaml::Seq(statuses),
            };
            pod.set_condition("PodScheduled", true, now);
            pod.set_condition("Initialized", true, now);
            pod.set_condition("ContainersReady", ready, now);
            pod.set_condition("Ready", ready, now);
        }
    }

    fn update_workload_status(&mut self) {
        let parents: Vec<Resource> = self
            .resources
            .values()
            .filter(|r| {
                matches!(
                    r.kind.as_str(),
                    "Deployment" | "ReplicaSet" | "DaemonSet" | "StatefulSet" | "Job"
                )
            })
            .cloned()
            .collect();
        for parent in parents {
            let pods: Vec<&Resource> = self
                .resources
                .values()
                .filter(|r| {
                    r.kind == "Pod"
                        && r.namespace == parent.namespace
                        && transitively_owned(self, r, &parent.kind, &parent.name)
                })
                .collect();
            let ready = pods
                .iter()
                .filter(|p| p.condition("Ready") == Some(true))
                .count() as i64;
            let succeeded = pods
                .iter()
                .filter(|p| p.status.get("phase").and_then(Yaml::as_str) == Some("Succeeded"))
                .count() as i64;
            let failed = pods
                .iter()
                .filter(|p| p.status.get("phase").and_then(Yaml::as_str) == Some("Failed"))
                .count() as i64;
            let total = pods.len() as i64;
            let now = self.now_ms;
            let key = parent.key();
            let Some(res) = self.resources.get_mut(&key) else {
                continue;
            };
            match parent.kind.as_str() {
                "Job" => {
                    let completions = parent
                        .body
                        .get_path(&["spec", "completions"])
                        .and_then(Yaml::as_i64)
                        .unwrap_or(1);
                    res.status = yamlkit::ymap! {
                        "active" => total - succeeded - failed,
                        "succeeded" => succeeded,
                        "failed" => failed,
                    };
                    res.set_condition("Complete", succeeded >= completions, now);
                    if failed > 0 {
                        res.set_condition("Failed", true, now);
                    }
                }
                "DaemonSet" => {
                    res.status = yamlkit::ymap! {
                        "desiredNumberScheduled" => total,
                        "currentNumberScheduled" => total,
                        "numberReady" => ready,
                        "numberAvailable" => ready,
                        "numberMisscheduled" => 0i64,
                    };
                }
                _ => {
                    let desired = parent.replicas();
                    res.status = yamlkit::ymap! {
                        "replicas" => total,
                        "readyReplicas" => ready,
                        "availableReplicas" => ready,
                        "updatedReplicas" => total,
                        "observedGeneration" => res.generation as i64,
                    };
                    res.set_condition("Available", ready >= desired.min(1.max(desired)), now);
                    res.set_condition("Progressing", true, now);
                }
            }
        }
    }

    fn reconcile_services(&mut self) {
        let services: Vec<Resource> = self
            .resources
            .values()
            .filter(|r| r.kind == "Service")
            .cloned()
            .collect();
        for svc in services {
            let selector = svc
                .body
                .get_path(&["spec", "selector"])
                .map(Selector::from_spec)
                .unwrap_or_default();
            let endpoints: Vec<String> = if selector.is_empty() {
                Vec::new()
            } else {
                self.resources
                    .values()
                    .filter(|r| {
                        r.kind == "Pod"
                            && r.namespace == svc.namespace
                            && selector.matches(&r.labels)
                            && r.condition("Ready") == Some(true)
                    })
                    .filter_map(|p| p.status.get("podIP").map(Yaml::render_scalar))
                    .collect()
            };
            let now = self.now_ms;
            let created = svc.created_at_ms;
            let key = svc.key();
            let svc_type = service_type(&svc);
            // Assign stable virtual IPs/ports once.
            let needs_cluster_ip = {
                let r = self.resources.get(&key).expect("svc key");
                r.status.get("clusterIP").is_none()
            };
            if needs_cluster_ip {
                let ip = format!("10.96.0.{}", self.ip_counter);
                self.ip_counter += 1;
                let node_port = if svc_type == "NodePort" || svc_type == "LoadBalancer" {
                    self.node_port_counter += 1;
                    Some(self.node_port_counter)
                } else {
                    None
                };
                let r = self.resources.get_mut(&key).expect("svc key");
                if r.status.is_null() {
                    r.status = Yaml::Map(vec![]);
                }
                r.status.insert("clusterIP", Yaml::Str(ip));
                if let Some(np) = node_port {
                    r.status.insert("nodePort", Yaml::Int(i64::from(np)));
                }
            }
            let r = self.resources.get_mut(&key).expect("svc key");
            r.status.insert(
                "endpoints",
                Yaml::Seq(endpoints.iter().map(|e| Yaml::Str(e.clone())).collect()),
            );
            // LoadBalancer external IP arrives after a short provisioning
            // delay, like minikube tunnel / cloud LBs.
            if svc_type == "LoadBalancer" && now.saturating_sub(created) >= LOAD_BALANCER_DELAY_MS {
                r.status.insert(
                    "loadBalancer",
                    yamlkit::ymap! {
                        "ingress" => Yaml::Seq(vec![yamlkit::ymap! { "ip" => "10.110.0.10" }]),
                    },
                );
            }
        }
    }

    fn reconcile_ingresses(&mut self) {
        let keys: Vec<ResourceKey> = self
            .resources
            .values()
            .filter(|r| r.kind == "Ingress")
            .map(Resource::key)
            .collect();
        let now = self.now_ms;
        for key in keys {
            let r = self.resources.get_mut(&key).expect("ingress key");
            if r.status.is_null() {
                r.status = Yaml::Map(vec![]);
            }
            if now.saturating_sub(r.created_at_ms) >= INGRESS_DELAY_MS {
                r.status.insert(
                    "loadBalancer",
                    yamlkit::ymap! {
                        "ingress" => Yaml::Seq(vec![yamlkit::ymap! { "ip" => "192.168.49.2" }]),
                    },
                );
                // The benchmark's tests wait on a SYNCED condition.
                r.set_condition("SYNCED", true, now);
            }
        }
    }

    fn reconcile_hpas(&mut self) {
        let keys: Vec<ResourceKey> = self
            .resources
            .values()
            .filter(|r| r.kind == "HorizontalPodAutoscaler")
            .map(Resource::key)
            .collect();
        for key in keys {
            let (target_kind, target_name, min) = {
                let r = self.resources.get(&key).expect("hpa key");
                (
                    r.body
                        .get_path(&["spec", "scaleTargetRef", "kind"])
                        .map(Yaml::render_scalar)
                        .unwrap_or_default(),
                    r.body
                        .get_path(&["spec", "scaleTargetRef", "name"])
                        .map(Yaml::render_scalar)
                        .unwrap_or_default(),
                    r.body
                        .get_path(&["spec", "minReplicas"])
                        .and_then(Yaml::as_i64)
                        .unwrap_or(1),
                )
            };
            let current = self
                .get(
                    &target_kind,
                    Some(&key.namespace.clone()),
                    Some(&target_name),
                )
                .first()
                .map(Resource::replicas)
                .unwrap_or(0);
            let r = self.resources.get_mut(&key).expect("hpa key");
            r.status = yamlkit::ymap! {
                "currentReplicas" => current,
                "desiredReplicas" => current.max(min),
                "currentCPUUtilizationPercentage" => 10i64,
            };
        }
    }

    fn reconcile_istio(&mut self) {
        let keys: Vec<ResourceKey> = self
            .resources
            .values()
            .filter(|r| {
                matches!(
                    r.kind.as_str(),
                    "VirtualService" | "DestinationRule" | "Gateway"
                )
            })
            .map(Resource::key)
            .collect();
        let now = self.now_ms;
        for key in keys {
            let r = self.resources.get_mut(&key).expect("istio key");
            r.set_condition("Reconciled", true, now);
        }
    }
}

/// Provisioning delay before a LoadBalancer Service gets its external IP.
const LOAD_BALANCER_DELAY_MS: u64 = 2_000;

/// Delay before an Ingress gets its address and `SYNCED` condition.
const INGRESS_DELAY_MS: u64 = 1_000;

/// When a CronJob created at `created_ms` spawns its Job. Simplified
/// schedule model: the first simulated minute boundary after creation.
fn cronjob_due_ms(created_ms: u64) -> u64 {
    (created_ms / 60_000 + 1).saturating_mul(60_000)
}

/// `spec.type` of a Service, defaulting to `ClusterIP`.
fn service_type(svc: &Resource) -> String {
    svc.body
        .get_path(&["spec", "type"])
        .map(Yaml::render_scalar)
        .unwrap_or_else(|| "ClusterIP".to_owned())
}

/// `metadata.ownerReferences` entry.
fn owner_ref(kind: &str, name: &str) -> Yaml {
    yamlkit::ymap! { "kind" => kind, "name" => name, "controller" => true }
}

fn owned_by(r: &Resource, kind: &str, name: &str) -> bool {
    r.body
        .get_path(&["metadata", "ownerReferences"])
        .map(|refs| {
            refs.items().any(|o| {
                o.get("kind").and_then(Yaml::as_str) == Some(kind)
                    && o.get("name").and_then(Yaml::as_str) == Some(name)
            })
        })
        .unwrap_or(false)
}

/// Pod owned by `kind/name` directly or through an intermediate ReplicaSet.
fn transitively_owned(cluster: &Cluster, pod: &Resource, kind: &str, name: &str) -> bool {
    if owned_by(pod, kind, name) {
        return true;
    }
    if kind == "Deployment" {
        // Pod -> ReplicaSet -> Deployment.
        if let Some(refs) = pod.body.get_path(&["metadata", "ownerReferences"]) {
            for o in refs.items() {
                if o.get("kind").and_then(Yaml::as_str) == Some("ReplicaSet") {
                    let rs_name = o.get("name").map(Yaml::render_scalar).unwrap_or_default();
                    let rs_key = ResourceKey {
                        kind: "ReplicaSet".into(),
                        namespace: pod.namespace.clone(),
                        name: rs_name,
                    };
                    if cluster
                        .resource(&rs_key)
                        .is_some_and(|rs| owned_by(rs, "Deployment", name))
                    {
                        return true;
                    }
                }
            }
        }
    }
    false
}

/// Short deterministic hash of the pod template, used in ReplicaSet names.
fn template_hash(deployment_body: &Yaml) -> String {
    let text = deployment_body
        .get_path(&["spec", "template"])
        .map(yamlkit::json::to_json)
        .unwrap_or_default();
    let mut h: u64 = 0xcbf29ce484222325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    format!("{:08x}", (h >> 16) as u32)
}

/// Duration model for an explicit container command.
struct CommandRun {
    duration_ms: u64,
    fails: bool,
}

/// Interprets `command`/`args` to decide whether the container terminates.
fn command_duration(container: &Yaml) -> Option<CommandRun> {
    let mut words: Vec<String> = Vec::new();
    for field in ["command", "args"] {
        if let Some(list) = container.get(field) {
            words.extend(list.items().map(Yaml::render_scalar));
        }
    }
    if words.is_empty() {
        return None;
    }
    let joined = words.join(" ");
    // Servers launched via explicit commands keep running.
    for server in [
        "nginx",
        "httpd",
        "redis-server",
        "mysqld",
        "tail -f",
        "sleep infinity",
        "http.server",
        "while true",
    ] {
        if joined.contains(server) {
            return None;
        }
    }
    if let Some(pos) = words.iter().position(|w| w == "sleep") {
        let secs = words
            .get(pos + 1)
            .and_then(|s| s.parse::<f64>().ok())
            .unwrap_or(1.0);
        return Some(CommandRun {
            // `as` saturates, so `sleep 1e300` runs (practically) forever.
            duration_ms: ((secs * 1000.0) as u64).saturating_add(200),
            fails: false,
        });
    }
    let fails = joined.contains("exit 1") || joined.contains("false");
    let duration_ms = if joined.contains("echo") || joined.contains("true") {
        300
    } else {
        1500
    };
    Some(CommandRun { duration_ms, fails })
}

#[cfg(test)]
mod tests {
    use super::*;

    const NGINX_DEPLOY: &str = "\
apiVersion: apps/v1
kind: Deployment
metadata:
  name: nginx-deployment
spec:
  replicas: 3
  selector:
    matchLabels:
      app: nginx
  template:
    metadata:
      labels:
        app: nginx
    spec:
      containers:
      - name: nginx-container
        image: nginx:latest
        ports:
        - containerPort: 80
";

    #[test]
    fn deployment_spawns_ready_pods() {
        let mut c = Cluster::new();
        c.apply_manifest(NGINX_DEPLOY, "default").unwrap();
        c.advance(15_000);
        let pods = c.select(
            "Pod",
            Some("default"),
            &Selector::parse_cli("app=nginx").unwrap(),
        );
        assert_eq!(pods.len(), 3);
        assert!(pods.iter().all(|p| p.condition("Ready") == Some(true)));
        let d = c
            .get("Deployment", Some("default"), Some("nginx-deployment"))
            .pop()
            .unwrap();
        assert_eq!(d.status.get("readyReplicas"), Some(&Yaml::Int(3)));
    }

    #[test]
    fn scale_down_removes_pods() {
        let mut c = Cluster::new();
        c.apply_manifest(NGINX_DEPLOY, "default").unwrap();
        c.advance(10_000);
        let scaled = NGINX_DEPLOY.replace("replicas: 3", "replicas: 1");
        c.apply_manifest(&scaled, "default").unwrap();
        c.advance(2_000);
        let pods = c.select(
            "Pod",
            Some("default"),
            &Selector::parse_cli("app=nginx").unwrap(),
        );
        assert_eq!(pods.len(), 1);
    }

    #[test]
    fn unknown_image_never_ready() {
        let mut c = Cluster::new();
        c.apply_manifest(
            "apiVersion: v1\nkind: Pod\nmetadata:\n  name: bad\nspec:\n  containers:\n  - name: c\n    image: not-a-real-image:v9\n",
            "default",
        )
        .unwrap();
        c.advance(120_000);
        let pod = c.get("Pod", Some("default"), Some("bad")).pop().unwrap();
        assert_eq!(
            pod.status.get("phase").and_then(Yaml::as_str),
            Some("Pending")
        );
        assert_eq!(pod.condition("Ready"), Some(false));
        let reason = pod
            .status
            .get("containerStatuses")
            .and_then(|s| s.idx(0))
            .and_then(|c| c.get_path(&["state", "waiting", "reason"]))
            .and_then(Yaml::as_str);
        assert_eq!(reason, Some("ImagePullBackOff"));
    }

    #[test]
    fn job_completes() {
        let mut c = Cluster::new();
        c.apply_manifest(
            "apiVersion: batch/v1\nkind: Job\nmetadata:\n  name: pi\nspec:\n  template:\n    spec:\n      containers:\n      - name: pi\n        image: perl\n        command: [\"perl\", \"-e\", \"print 1\"]\n      restartPolicy: Never\n  backoffLimit: 4\n",
            "default",
        )
        .unwrap();
        c.advance(60_000);
        let job = c.get("Job", Some("default"), Some("pi")).pop().unwrap();
        assert_eq!(job.status.get("succeeded"), Some(&Yaml::Int(1)));
        assert_eq!(job.condition("Complete"), Some(true));
    }

    #[test]
    fn job_requires_restart_policy() {
        let mut c = Cluster::new();
        let err = c
            .apply_manifest(
                "apiVersion: batch/v1\nkind: Job\nmetadata:\n  name: j\nspec:\n  template:\n    spec:\n      containers:\n      - name: x\n        image: busybox\n",
                "default",
            )
            .unwrap_err();
        assert!(err.to_string().contains("restartPolicy"));
    }

    #[test]
    fn daemonset_runs_one_pod_per_node() {
        let mut c = Cluster::new();
        c.apply_manifest(
            "apiVersion: apps/v1\nkind: DaemonSet\nmetadata:\n  name: proxy\nspec:\n  selector:\n    matchLabels:\n      app: proxy\n  template:\n    metadata:\n      labels:\n        app: proxy\n    spec:\n      containers:\n      - name: c\n        image: nginx\n",
            "default",
        )
        .unwrap();
        c.advance(10_000);
        let pods = c.select(
            "Pod",
            Some("default"),
            &Selector::parse_cli("app=proxy").unwrap(),
        );
        assert_eq!(pods.len(), c.nodes().len());
        let ds = c
            .get("DaemonSet", Some("default"), Some("proxy"))
            .pop()
            .unwrap();
        assert_eq!(ds.status.get("numberReady"), Some(&Yaml::Int(1)));
    }

    #[test]
    fn statefulset_ordinal_names() {
        let mut c = Cluster::new();
        c.apply_manifest(
            "apiVersion: apps/v1\nkind: StatefulSet\nmetadata:\n  name: db\nspec:\n  serviceName: db\n  replicas: 2\n  selector:\n    matchLabels:\n      app: db\n  template:\n    metadata:\n      labels:\n        app: db\n    spec:\n      containers:\n      - name: c\n        image: mysql\n",
            "default",
        )
        .unwrap();
        c.advance(15_000);
        assert!(c.get("Pod", Some("default"), Some("db-0")).len() == 1);
        assert!(c.get("Pod", Some("default"), Some("db-1")).len() == 1);
    }

    #[test]
    fn service_collects_ready_endpoints_and_lb_ip() {
        let mut c = Cluster::new();
        c.apply_manifest(NGINX_DEPLOY, "default").unwrap();
        c.apply_manifest(
            "apiVersion: v1\nkind: Service\nmetadata:\n  name: nginx-service\nspec:\n  selector:\n    app: nginx\n  ports:\n  - port: 80\n    targetPort: 80\n  type: LoadBalancer\n",
            "default",
        )
        .unwrap();
        c.advance(15_000);
        let svc = c
            .get("Service", Some("default"), Some("nginx-service"))
            .pop()
            .unwrap();
        assert_eq!(svc.status.get("endpoints").unwrap().seq_len(), Some(3));
        assert!(svc.status.get_path(&["loadBalancer", "ingress"]).is_some());
    }

    #[test]
    fn namespace_must_exist() {
        let mut c = Cluster::new();
        let manifest = NGINX_DEPLOY.replace("name: nginx-deployment", "name: d\n  namespace: dev");
        let err = c.apply_manifest(&manifest, "default").unwrap_err();
        assert_eq!(err, ClusterError::NamespaceNotFound("dev".into()));
        c.create_namespace("dev").unwrap();
        assert!(c.apply_manifest(&manifest, "default").is_ok());
    }

    #[test]
    fn selector_template_mismatch_rejected() {
        let mut c = Cluster::new();
        let bad = NGINX_DEPLOY.replace("app: nginx\n  template", "app: other\n  template");
        let err = c.apply_manifest(&bad, "default").unwrap_err();
        assert!(err.to_string().contains("does not match template"), "{err}");
    }

    #[test]
    fn wrong_api_version_is_no_kind_match() {
        let mut c = Cluster::new();
        let bad = NGINX_DEPLOY.replace("apps/v1", "apps/v1beta1");
        let err = c.apply_manifest(&bad, "default").unwrap_err();
        assert_eq!(
            err.to_string(),
            "no matches for kind \"Deployment\" in version \"apps/v1beta1\""
        );
    }

    #[test]
    fn strict_decoding_error_message_matches_api_server() {
        let mut c = Cluster::new();
        let err = c
            .apply_manifest(
                "apiVersion: networking.k8s.io/v1\nkind: Ingress\nmetadata:\n  name: i\nspec:\n  rules:\n  - http:\n      paths:\n      - path: /\n        pathType: Prefix\n        backend:\n          serviceName: app\n          servicePort: 5000\n",
                "default",
            )
            .unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.starts_with(
                "Ingress in version \"v1\" cannot be handled as a Ingress: strict decoding error:"
            ),
            "{msg}"
        );
        assert!(msg.contains("unknown field \"spec.rules[0].http.paths[0].backend.serviceName\""));
    }

    #[test]
    fn delete_cascades() {
        let mut c = Cluster::new();
        c.apply_manifest(NGINX_DEPLOY, "default").unwrap();
        c.advance(10_000);
        c.delete("deployment", "default", "nginx-deployment")
            .unwrap();
        assert!(c.get("Pod", Some("default"), None).is_empty());
        assert!(c.get("ReplicaSet", Some("default"), None).is_empty());
    }

    #[test]
    fn apply_is_idempotent() {
        let mut c = Cluster::new();
        let m1 = c.apply_manifest(NGINX_DEPLOY, "default").unwrap();
        assert_eq!(m1, vec!["deployment/nginx-deployment created"]);
        let m2 = c.apply_manifest(NGINX_DEPLOY, "default").unwrap();
        assert_eq!(m2, vec!["deployment/nginx-deployment unchanged"]);
    }

    #[test]
    fn cronjob_spawns_job_after_a_minute() {
        let mut c = Cluster::new();
        c.apply_manifest(
            "apiVersion: batch/v1\nkind: CronJob\nmetadata:\n  name: tick\nspec:\n  schedule: \"* * * * *\"\n  jobTemplate:\n    spec:\n      template:\n        spec:\n          containers:\n          - name: c\n            image: busybox\n            command: [\"echo\", \"hi\"]\n          restartPolicy: OnFailure\n",
            "default",
        )
        .unwrap();
        c.advance(70_000);
        let jobs = c.get("Job", Some("default"), None);
        assert_eq!(jobs.len(), 1);
        assert!(jobs[0].name.starts_with("tick-"));
    }

    #[test]
    fn pod_gets_ips() {
        let mut c = Cluster::new();
        c.apply_manifest(
            "apiVersion: v1\nkind: Pod\nmetadata:\n  name: p\nspec:\n  containers:\n  - name: c\n    image: nginx\n",
            "default",
        )
        .unwrap();
        c.advance(8_000);
        let pod = c.get("Pod", Some("default"), Some("p")).pop().unwrap();
        assert!(pod
            .status
            .get("podIP")
            .map(Yaml::render_scalar)
            .unwrap()
            .starts_with("10.244."));
        assert_eq!(
            pod.status.get("hostIP").map(Yaml::render_scalar).as_deref(),
            Some("192.168.49.2")
        );
    }

    #[test]
    fn pod_quota_is_enforced_on_direct_applies() {
        let mut c = Cluster::new();
        c.apply_manifest(
            "apiVersion: v1\nkind: ResourceQuota\nmetadata:\n  name: team-quota\nspec:\n  hard:\n    pods: \"1\"\n",
            "default",
        )
        .unwrap();
        let pod = |name: &str| {
            format!(
                "apiVersion: v1\nkind: Pod\nmetadata:\n  name: {name}\nspec:\n  containers:\n  - name: c\n    image: nginx\n"
            )
        };
        c.apply_manifest(&pod("one"), "default").unwrap();
        let err = c.apply_manifest(&pod("two"), "default").unwrap_err();
        assert_eq!(
            err.to_string(),
            "pods \"two\" is forbidden: exceeded quota: team-quota, requested: pods=1, used: pods=1, limited: pods=1"
        );
        // Re-applying the existing pod is an update, not a new creation.
        c.apply_manifest(&pod("one"), "default").unwrap();
    }

    #[test]
    fn endless_sleep_command_keeps_running() {
        let mut c = Cluster::new();
        c.apply_manifest(
            "apiVersion: v1\nkind: Pod\nmetadata:\n  name: nap\nspec:\n  containers:\n  - name: c\n    image: busybox\n    command: [\"sleep\", \"1e300\"]\n",
            "default",
        )
        .unwrap();
        c.advance(120_000);
        let pod = c.get("Pod", Some("default"), Some("nap")).pop().unwrap();
        assert_eq!(
            pod.status.get("phase").and_then(Yaml::as_str),
            Some("Running")
        );
        // The clock saturates instead of wrapping.
        c.advance(u64::MAX);
        assert_eq!(c.now_ms(), u64::MAX);
    }

    #[test]
    fn huge_readiness_delay_never_becomes_ready() {
        let mut c = Cluster::new();
        c.apply_manifest(
            "apiVersion: v1\nkind: Pod\nmetadata:\n  name: slow\nspec:\n  containers:\n  - name: c\n    image: nginx\n    readinessProbe:\n      initialDelaySeconds: 9223372036854775807\n",
            "default",
        )
        .unwrap();
        for ms in [120_000, 365 * 24 * 3_600_000] {
            c.advance(ms);
            let pod = c.get("Pod", Some("default"), Some("slow")).pop().unwrap();
            assert_eq!(pod.condition("Ready"), Some(false));
        }
    }

    #[test]
    fn idle_advance_reconciles_only_at_events() {
        let mut c = Cluster::new();
        c.apply_manifest(NGINX_DEPLOY, "default").unwrap();
        c.advance(15_000);
        // Settled, no pending timers: one pass, at the target.
        let passes = c.reconcile_passes();
        c.advance(3_600_000);
        assert_eq!(c.reconcile_passes(), passes + 1);
    }

    #[test]
    fn istio_resources_reconcile() {
        let mut c = Cluster::new();
        c.apply_manifest(
            "apiVersion: networking.istio.io/v1alpha3\nkind: DestinationRule\nmetadata:\n  name: ratings\nspec:\n  host: ratings\n  trafficPolicy:\n    loadBalancer:\n      simple: LEAST_REQUEST\n",
            "default",
        )
        .unwrap();
        c.advance(1_000);
        let dr = c
            .get("DestinationRule", Some("default"), Some("ratings"))
            .pop()
            .unwrap();
        assert_eq!(dr.condition("Reconciled"), Some(true));
    }
}
