//! # kubesim
//!
//! An in-memory Kubernetes cluster simulator standing in for the minikube
//! clusters CloudEval-YAML's function-level evaluation runs against (§3.2:
//! "Minikube offers the capability to set up virtual Kubernetes clusters
//! within a local testing environment. The kubectl command set ...
//! functions identically on these virtual clusters").
//!
//! What it provides:
//!
//! * [`Cluster`] — resource store + simulated clock + controller loops
//!   (Deployment→ReplicaSet→Pod, DaemonSet, StatefulSet, Job, CronJob,
//!   Service endpoints, Ingress, HPA, Istio CRDs);
//! * strict-decoding [`schema`]s that reproduce the API server's
//!   unknown-field errors (the paper's Appendix C.3 debugging problem);
//! * a [`kubectl`] facade (apply/get/wait/describe/delete/logs/scale/
//!   rollout) with JSONPath output;
//! * [`net::curl`] — simulated cluster networking for functional probes.
//!
//! Time is virtual and event-driven: `kubectl wait --timeout=60s` advances
//! the simulated clock, so a full unit-test run costs microseconds of wall
//! time. [`Cluster::advance`] reconciles on a 250 ms grid, but only at the
//! grid instants where the cluster can change: the next instant after a
//! pass that created or removed something, the first instant at or after
//! the earliest pending timer, and the target. The timers are a pod's
//! image-pull-done, ready and terminate times, a LoadBalancer Service's
//! external IP (+2 s), an Ingress's address (+1 s) and a CronJob's next
//! minute boundary. `kubectl wait` and `rollout status` poll on a 500 ms
//! grid and likewise jump to the first poll at or after the next timer or
//! their deadline. Verdicts, transcripts and simulated times are the ones
//! a reconcile at every tick and a poll every 500 ms would give.
//!
//! # Examples
//!
//! ```
//! use kubesim::{kubectl, Cluster};
//!
//! let mut cluster = Cluster::new();
//! let manifest = "apiVersion: v1\nkind: Pod\nmetadata:\n  name: web\nspec:\n  containers:\n  - name: c\n    image: nginx\n    ports:\n    - containerPort: 80\n      hostPort: 5000\n";
//! let args: Vec<String> = "apply -f -".split_whitespace().map(str::to_owned).collect();
//! let result = kubectl::run(&mut cluster, &args, manifest, &|_| None);
//! assert_eq!(result.stdout, "pod/web created\n");
//!
//! cluster.advance(10_000);
//! let response = kubesim::net::curl(&cluster, "192.168.49.2:5000").unwrap();
//! assert_eq!(response.status, 200);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod images;
pub mod kubectl;
pub mod net;
pub mod resources;
pub mod schema;
pub mod selector;

pub use cluster::{Cluster, ClusterError, NodeInfo};
pub use kubectl::{run as run_kubectl, KubectlResult};
pub use resources::{Resource, ResourceKey};
