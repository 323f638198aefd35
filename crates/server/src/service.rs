//! Endpoint dispatch: JSON bodies in, engine results out.
//!
//! The query endpoints mirror the `mbus` CLI surface one-to-one —
//! identical field names, identical defaults — so a `curl` body and a CLI
//! invocation describe the same experiment:
//!
//! | endpoint | engine |
//! |---|---|
//! | `POST /v1/bandwidth` | closed-form analysis (`System::analytic`) |
//! | `POST /v1/exact` | subset-transform / closed-form exact (`System::exact`) |
//! | `POST /v1/simulate` | bounded-cycle simulation (`System::simulate`, or `System::simulate_replicated` with `replications > 1`) |
//! | `POST /v1/degraded` | fault-mask analysis (`degraded_analyze`) |
//! | `POST /v1/fabric` | hierarchical fabric decomposition (`analyze_fabric`), optionally cross-checked by the routed `FabricSimulator` |
//!
//! Parsing is strict: unknown fields are rejected (a typoed `cylces` must
//! not silently simulate the default budget), every dimension and the cycle
//! budget are capped by [`ServiceLimits`], and every failure — malformed
//! JSON, bad field type, domain error from the engines — maps to a
//! structured [`ApiError`] with an HTTP status, a machine-readable `kind`,
//! and a human-readable message. Nothing in this module panics.
//!
//! Successful parses yield a [`Query`] whose [`Query::key`] is a stable
//! hash key (workload fingerprint, explicit network field encoding, rate
//! bits, and endpoint extras) used by the server's [`MemoCache`] to memoize
//! the rendered result.
//!
//! [`MemoCache`]: mbus_stats::cache::MemoCache

use crate::json::{self, obj, Json};
use mbus_core::fabric::{
    analyze_fabric, ClusteredBuses, FabricSimulator, FabricSpec, FabricTopology,
};
use mbus_core::prelude::{
    degraded_analyze, ConnectionScheme, FaultMask, FavoriteModel, HierarchicalModel, RequestMatrix,
    RequestModel, SimConfig, System, UniformModel,
};
use mbus_core::sim::{FaultEvent, FaultEventKind, FaultSchedule};
use mbus_core::workload::WorkloadFingerprint;

/// Caps protecting the service from abusive (or typoed) workloads.
#[derive(Debug, Clone, Copy)]
pub struct ServiceLimits {
    /// Largest accepted `n`, `m`, or `b`.
    pub max_dimension: usize,
    /// Largest accepted `cycles + warmup` for `/v1/simulate`.
    pub max_cycles: u64,
}

impl Default for ServiceLimits {
    fn default() -> Self {
        ServiceLimits {
            max_dimension: 1024,
            max_cycles: 2_000_000,
        }
    }
}

/// The five query endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// `POST /v1/bandwidth` — closed-form analytical breakdown.
    Bandwidth,
    /// `POST /v1/exact` — approximation-free bandwidth.
    Exact,
    /// `POST /v1/simulate` — cycle-accurate simulation.
    Simulate,
    /// `POST /v1/degraded` — degraded-mode analysis under a bus fault mask.
    Degraded,
    /// `POST /v1/fabric` — hierarchical cluster-of-buses fabric: analytic
    /// decomposition, optionally cross-checked by the routed simulator.
    Fabric,
}

impl Endpoint {
    /// Maps a request path to its endpoint.
    pub fn from_path(path: &str) -> Option<Endpoint> {
        match path {
            "/v1/bandwidth" => Some(Endpoint::Bandwidth),
            "/v1/exact" => Some(Endpoint::Exact),
            "/v1/simulate" => Some(Endpoint::Simulate),
            "/v1/degraded" => Some(Endpoint::Degraded),
            "/v1/fabric" => Some(Endpoint::Fabric),
            _ => None,
        }
    }

    /// Canonical lowercase name (used in responses and metrics).
    pub fn name(self) -> &'static str {
        match self {
            Endpoint::Bandwidth => "bandwidth",
            Endpoint::Exact => "exact",
            Endpoint::Simulate => "simulate",
            Endpoint::Degraded => "degraded",
            Endpoint::Fabric => "fabric",
        }
    }

    /// All endpoints, in dispatch order.
    pub const ALL: [Endpoint; 5] = [
        Endpoint::Bandwidth,
        Endpoint::Exact,
        Endpoint::Simulate,
        Endpoint::Degraded,
        Endpoint::Fabric,
    ];

    /// Index into per-endpoint arrays (metrics slots).
    pub(crate) fn index(self) -> usize {
        usize::from(self.discriminant())
    }

    fn discriminant(self) -> u8 {
        match self {
            Endpoint::Bandwidth => 0,
            Endpoint::Exact => 1,
            Endpoint::Simulate => 2,
            Endpoint::Degraded => 3,
            Endpoint::Fabric => 4,
        }
    }
}

/// A structured request failure: HTTP status, machine-readable kind, and a
/// human-readable message. Rendered as `{"error":{"kind":…,"message":…}}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// HTTP status code to answer with.
    pub status: u16,
    /// Stable machine-readable category (`bad_json`, `bad_request`, …).
    pub kind: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl ApiError {
    /// 400 with kind `bad_json`: the body is not a JSON document.
    pub fn bad_json(message: impl Into<String>) -> Self {
        ApiError {
            status: 400,
            kind: "bad_json",
            message: message.into(),
        }
    }

    /// 400 with kind `bad_request`: a field is missing, mistyped, unknown,
    /// or fails domain validation.
    pub fn bad_request(message: impl Into<String>) -> Self {
        ApiError {
            status: 400,
            kind: "bad_request",
            message: message.into(),
        }
    }

    /// 422 with kind `unsupported`: a well-formed query the engines cannot
    /// evaluate (e.g. exact enumeration beyond the memory limit).
    pub fn unsupported(message: impl Into<String>) -> Self {
        ApiError {
            status: 422,
            kind: "unsupported",
            message: message.into(),
        }
    }

    /// 422 with kind `too_large`: a dimension or budget exceeds
    /// [`ServiceLimits`].
    pub fn too_large(message: impl Into<String>) -> Self {
        ApiError {
            status: 422,
            kind: "too_large",
            message: message.into(),
        }
    }

    /// The JSON error body.
    pub fn to_body(&self) -> String {
        obj(vec![(
            "error",
            obj(vec![
                ("kind", Json::Str(self.kind.to_owned())),
                ("message", Json::Str(self.message.clone())),
            ]),
        )])
        .render()
    }
}

/// Simulation parameters (only meaningful for [`Endpoint::Simulate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimParams {
    /// Measured cycles.
    pub cycles: u64,
    /// Warmup cycles excluded from statistics.
    pub warmup: u64,
    /// RNG seed.
    pub seed: u64,
    /// Whether blocked requests are resubmitted instead of dropped.
    pub resubmission: bool,
    /// Number of independent replications (seeds `seed`, `seed + 1`, …)
    /// aggregated into a replication-level confidence interval. `1` runs
    /// the plain scalar engine.
    pub replications: usize,
    /// Whether to capture a trace during the run and attach summary
    /// analytics (per-bus pressure, bottleneck ranking, wait quantiles)
    /// to the response. Tracing is scalar-engine-only, so it is mutually
    /// exclusive with `replications > 1`.
    pub trace_summary: bool,
}

/// What a query evaluates against: a flat single-stage system or a
/// routed cluster-of-buses fabric.
#[derive(Debug)]
enum Payload {
    /// The four original endpoints: one flat `BusNetwork` + workload.
    Flat(System),
    /// `/v1/fabric`: the clustered topology, its matching hierarchical
    /// workload, and the spec that produced both.
    Fabric(FabricQuery),
}

/// A parsed `/v1/fabric` request.
#[derive(Debug)]
struct FabricQuery {
    spec: FabricSpec,
    topo: ClusteredBuses,
    matrix: RequestMatrix,
    /// Links failed for the whole run (analytic `failed_links`, and a
    /// cycle-0 fault schedule for the simulator).
    failed_links: Vec<usize>,
}

/// A validated, evaluatable query.
#[derive(Debug)]
pub struct Query {
    endpoint: Endpoint,
    payload: Payload,
    rate: f64,
    sim: SimParams,
    failed_buses: Vec<usize>,
}

/// Stable cache key: endpoint + explicit network field encoding + workload
/// fingerprint + rate bits + endpoint-specific extras.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QueryKey {
    endpoint: u8,
    network: Vec<u64>,
    workload: WorkloadFingerprint,
    rate_bits: u64,
    extra: Vec<u64>,
}

/// Scheme tags for [`encode_network`]. Distinct from anything a length or
/// dimension can collide with only because every variable-length section
/// below is length-prefixed.
const KEY_SCHEME_FULL: u64 = 0;
const KEY_SCHEME_SINGLE: u64 = 1;
const KEY_SCHEME_PARTIAL: u64 = 2;
const KEY_SCHEME_KCLASS: u64 = 3;
const KEY_SCHEME_CROSSBAR: u64 = 4;
/// `ConnectionScheme` is `non_exhaustive`; a variant this crate does not
/// know yet must still produce a *distinct* key rather than colliding with
/// a known one.
const KEY_SCHEME_UNKNOWN: u64 = u64::MAX;

/// Encodes the identity of a network as explicit fields:
/// `[n, m, b, scheme_tag, params…]`, where variable-length scheme params
/// (single-assignment vector, class sizes) are length-prefixed.
///
/// The previous key used `format!("{:?}", network)`, which dragged every
/// derived field (class offsets, adjacency scratch) into the key, changed
/// whenever a `Debug` derive did, and allocated a long string per request.
/// This encoding depends only on the fields that define the topology.
fn encode_network(net: &mbus_core::topology::BusNetwork) -> Vec<u64> {
    let mut key = vec![
        net.processors() as u64,
        net.memories() as u64,
        net.buses() as u64,
    ];
    match net.scheme() {
        ConnectionScheme::Full => key.push(KEY_SCHEME_FULL),
        ConnectionScheme::Single { assignment } => {
            key.push(KEY_SCHEME_SINGLE);
            key.push(assignment.len() as u64);
            key.extend(assignment.iter().map(|&bus| bus as u64));
        }
        ConnectionScheme::PartialGroups { groups } => {
            key.push(KEY_SCHEME_PARTIAL);
            key.push(*groups as u64);
        }
        ConnectionScheme::KClasses { class_sizes } => {
            key.push(KEY_SCHEME_KCLASS);
            key.push(class_sizes.len() as u64);
            key.extend(class_sizes.iter().map(|&size| size as u64));
        }
        ConnectionScheme::Crossbar => key.push(KEY_SCHEME_CROSSBAR),
        // A future variant added upstream: refuse to alias a known tag.
        // The kind discriminant keeps unknown variants distinct from each
        // other as far as the type system can see.
        other => {
            key.push(KEY_SCHEME_UNKNOWN);
            key.push(other.kind() as u64);
        }
    }
    key
}

/// Network-section tag for fabric keys. Flat encodings start with
/// `n ≥ 1`, so leading with 0 keeps fabric keys disjoint from every
/// flat network encoding.
const KEY_FABRIC: u64 = 0;

/// Encodes a fabric's identity: `[0, depth, ks…, local_buses,
/// uplink_width, |failed|, failed…]`. The locality knob lives in the
/// workload fingerprint (it only shapes the request matrix).
fn encode_fabric(fabric: &FabricQuery) -> Vec<u64> {
    let mut key = vec![KEY_FABRIC, fabric.spec.ks.len() as u64];
    key.extend(fabric.spec.ks.iter().map(|&k| k as u64));
    key.push(fabric.spec.local_buses as u64);
    key.push(fabric.spec.uplink_width as u64);
    let mut failed: Vec<u64> = fabric
        .failed_links
        .iter()
        .map(|&link| u64::try_from(link).unwrap_or(u64::MAX))
        .collect();
    failed.sort_unstable();
    key.push(failed.len() as u64);
    key.extend(failed);
    key
}

impl Query {
    /// Which endpoint this query targets.
    pub fn endpoint(&self) -> Endpoint {
        self.endpoint
    }

    /// The memoization key for this query's rendered result.
    pub fn key(&self) -> QueryKey {
        let extra = match self.endpoint {
            Endpoint::Bandwidth | Endpoint::Exact => Vec::new(),
            Endpoint::Simulate => vec![
                self.sim.cycles,
                self.sim.warmup,
                self.sim.seed,
                u64::from(self.sim.resubmission),
                u64::from(self.sim.trace_summary),
                self.sim.replications as u64,
            ],
            Endpoint::Degraded => {
                let mut buses: Vec<u64> = self
                    .failed_buses
                    .iter()
                    .map(|&b| u64::try_from(b).unwrap_or(u64::MAX))
                    .collect();
                buses.sort_unstable();
                buses
            }
            // Failed links sit in the network section (they define which
            // fabric is being analyzed); only the sim budget is extra.
            Endpoint::Fabric => vec![self.sim.cycles, self.sim.warmup, self.sim.seed],
        };
        let (network, workload) = match &self.payload {
            Payload::Flat(system) => (
                encode_network(system.network()),
                system.matrix().fingerprint(),
            ),
            Payload::Fabric(fabric) => (encode_fabric(fabric), fabric.matrix.fingerprint()),
        };
        QueryKey {
            endpoint: self.endpoint.discriminant(),
            network,
            workload,
            rate_bits: self.rate.to_bits(),
            extra,
        }
    }
}

/// Parses raw body bytes into a JSON value (empty body ⇒ empty object, so
/// every endpoint works with its CLI defaults).
///
/// # Errors
///
/// [`ApiError::bad_json`] on non-UTF-8 or malformed JSON.
pub fn parse_body(bytes: &[u8]) -> Result<Json, ApiError> {
    if bytes.is_empty() {
        return Ok(Json::Obj(Vec::new()));
    }
    let text = std::str::from_utf8(bytes).map_err(|_| ApiError::bad_json("body is not UTF-8"))?;
    json::parse(text).map_err(|e| ApiError::bad_json(e.to_string()))
}

/// Keys shared by every endpoint.
const COMMON_KEYS: [&str; 10] = [
    "n", "m", "b", "rate", "scheme", "groups", "classes", "workload", "clusters", "alpha",
];
/// Extra keys accepted by `/v1/simulate`.
const SIM_KEYS: [&str; 6] = [
    "cycles",
    "warmup",
    "seed",
    "resubmission",
    "trace_summary",
    "replications",
];
/// Extra key accepted by `/v1/degraded`.
const DEGRADED_KEYS: [&str; 1] = ["failed_buses"];
/// The strict key set of `/v1/fabric` (it shares nothing with the flat
/// endpoints: the topology is a cluster tree, not an `n x m x b` grid).
const FABRIC_KEYS: [&str; 9] = [
    "ks",
    "buses",
    "uplink",
    "rate",
    "locality",
    "cycles",
    "warmup",
    "seed",
    "failed_links",
];

fn field_usize(body: &Json, key: &str, default: usize) -> Result<usize, ApiError> {
    match body.get(key) {
        None | Some(Json::Null) => Ok(default),
        Some(value) => value.as_usize().ok_or_else(|| {
            ApiError::bad_request(format!("`{key}` must be a non-negative integer"))
        }),
    }
}

fn field_u64(body: &Json, key: &str, default: u64) -> Result<u64, ApiError> {
    match body.get(key) {
        None | Some(Json::Null) => Ok(default),
        Some(value) => value.as_u64().ok_or_else(|| {
            ApiError::bad_request(format!("`{key}` must be a non-negative integer"))
        }),
    }
}

fn field_f64(body: &Json, key: &str, default: f64) -> Result<f64, ApiError> {
    match body.get(key) {
        None | Some(Json::Null) => Ok(default),
        Some(value) => value
            .as_f64()
            .ok_or_else(|| ApiError::bad_request(format!("`{key}` must be a number"))),
    }
}

fn field_bool(body: &Json, key: &str, default: bool) -> Result<bool, ApiError> {
    match body.get(key) {
        None | Some(Json::Null) => Ok(default),
        Some(value) => value
            .as_bool()
            .ok_or_else(|| ApiError::bad_request(format!("`{key}` must be a boolean"))),
    }
}

fn field_str<'a>(body: &'a Json, key: &str, default: &'a str) -> Result<&'a str, ApiError> {
    match body.get(key) {
        None | Some(Json::Null) => Ok(default),
        Some(value) => value
            .as_str()
            .ok_or_else(|| ApiError::bad_request(format!("`{key}` must be a string"))),
    }
}

/// Builds the connection scheme — same names and defaults as the CLI's
/// `--scheme` flag.
fn scheme_from(body: &Json, m: usize, b: usize) -> Result<ConnectionScheme, ApiError> {
    match field_str(body, "scheme", "full")? {
        "full" => Ok(ConnectionScheme::Full),
        "crossbar" => Ok(ConnectionScheme::Crossbar),
        "single" => ConnectionScheme::balanced_single(m, b)
            .map_err(|e| ApiError::bad_request(e.to_string())),
        "partial" => {
            let groups = field_usize(body, "groups", 2)?;
            Ok(ConnectionScheme::PartialGroups { groups })
        }
        "kclass" => {
            let classes = field_usize(body, "classes", b)?;
            ConnectionScheme::uniform_classes(m, classes)
                .map_err(|e| ApiError::bad_request(e.to_string()))
        }
        other => Err(ApiError::bad_request(format!(
            "unknown scheme '{other}' (expected full|single|partial|kclass|crossbar)"
        ))),
    }
}

/// Builds the request matrix — same names and defaults as the CLI's
/// `--workload` flag.
fn workload_from(body: &Json, n: usize, m: usize) -> Result<RequestMatrix, ApiError> {
    match field_str(body, "workload", "hier")? {
        "hier" | "hierarchical" => {
            let clusters = field_usize(body, "clusters", 4)?;
            if n != m {
                return Err(ApiError::bad_request(
                    "hierarchical workload requires n = m (paired leaves)",
                ));
            }
            let model = HierarchicalModel::two_level_paired(n, clusters, [0.6, 0.3, 0.1])
                .map_err(|e| ApiError::bad_request(e.to_string()))?;
            Ok(model.matrix())
        }
        "uniform" => Ok(UniformModel::new(n, m)
            .map_err(|e| ApiError::bad_request(e.to_string()))?
            .matrix()),
        "favorite" => {
            let alpha = field_f64(body, "alpha", 0.5)?;
            Ok(FavoriteModel::new(n, m, alpha)
                .map_err(|e| ApiError::bad_request(e.to_string()))?
                .matrix())
        }
        other => Err(ApiError::bad_request(format!(
            "unknown workload '{other}' (expected hier|uniform|favorite)"
        ))),
    }
}

/// Parses and validates a request body for `endpoint`.
///
/// # Errors
///
/// [`ApiError`] with status 400 on structural/domain problems and 422 when
/// a limit in `limits` is exceeded.
pub fn parse_query(
    endpoint: Endpoint,
    body: &Json,
    limits: &ServiceLimits,
) -> Result<Query, ApiError> {
    let fields = match body {
        Json::Obj(fields) => fields,
        _ => return Err(ApiError::bad_request("body must be a JSON object")),
    };
    for (key, _) in fields {
        let known = if endpoint == Endpoint::Fabric {
            FABRIC_KEYS.contains(&key.as_str())
        } else {
            COMMON_KEYS.contains(&key.as_str())
                || (endpoint == Endpoint::Simulate && SIM_KEYS.contains(&key.as_str()))
                || (endpoint == Endpoint::Degraded && DEGRADED_KEYS.contains(&key.as_str()))
        };
        if !known {
            return Err(ApiError::bad_request(format!(
                "unknown field `{key}` for /v1/{}",
                endpoint.name()
            )));
        }
    }
    if endpoint == Endpoint::Fabric {
        return parse_fabric_query(body, limits);
    }

    let n = field_usize(body, "n", 8)?;
    let m = field_usize(body, "m", n)?;
    let b = field_usize(body, "b", 4)?;
    for (name, value) in [("n", n), ("m", m), ("b", b)] {
        if value == 0 {
            return Err(ApiError::bad_request(format!("`{name}` must be positive")));
        }
        if value > limits.max_dimension {
            return Err(ApiError::too_large(format!(
                "`{name}` = {value} exceeds the service limit of {}",
                limits.max_dimension
            )));
        }
    }
    let rate = field_f64(body, "rate", 1.0)?;
    let scheme = scheme_from(body, m, b)?;
    let net = mbus_core::topology::BusNetwork::new(n, m, b, scheme)
        .map_err(|e| ApiError::bad_request(e.to_string()))?;
    let matrix = workload_from(body, n, m)?;
    // `from_matrix` runs the closed-form analysis once, so rate/dimension
    // domain errors surface here as 400s rather than at evaluation time.
    let system =
        System::from_matrix(net, matrix, rate).map_err(|e| ApiError::bad_request(e.to_string()))?;

    let sim = if endpoint == Endpoint::Simulate {
        let cycles = field_u64(body, "cycles", 100_000)?;
        let warmup = field_u64(body, "warmup", cycles / 20)?;
        if cycles == 0 {
            return Err(ApiError::bad_request("`cycles` must be positive"));
        }
        let replications = field_usize(body, "replications", 1)?;
        if replications == 0 {
            return Err(ApiError::bad_request("`replications` must be positive"));
        }
        // The cycle budget covers the *whole* request: every replication
        // pays its own warmup, so the cap scales with the count.
        let total = cycles
            .saturating_add(warmup)
            .saturating_mul(replications as u64);
        if total > limits.max_cycles {
            return Err(ApiError::too_large(format!(
                "(cycles + warmup) x replications = {total} exceeds the service budget of {}",
                limits.max_cycles
            )));
        }
        let trace_summary = field_bool(body, "trace_summary", false)?;
        if trace_summary && replications > 1 {
            // Tracing pins the scalar engine (one deterministic event
            // stream); replicated runs batch lanes. Refuse the combination
            // instead of silently tracing one replication.
            return Err(ApiError::unsupported(
                "`trace_summary` requires a single replication: trace capture runs the \
                 scalar engine, replications run the batched engine",
            ));
        }
        SimParams {
            cycles,
            warmup,
            seed: field_u64(body, "seed", 0)?,
            resubmission: field_bool(body, "resubmission", false)?,
            replications,
            trace_summary,
        }
    } else {
        SimParams {
            cycles: 0,
            warmup: 0,
            seed: 0,
            resubmission: false,
            replications: 1,
            trace_summary: false,
        }
    };

    let failed_buses = if endpoint == Endpoint::Degraded {
        let failed = match body.get("failed_buses") {
            None | Some(Json::Null) => Vec::new(),
            Some(Json::Arr(items)) => {
                let mut buses = Vec::with_capacity(items.len());
                for item in items {
                    buses.push(item.as_usize().ok_or_else(|| {
                        ApiError::bad_request("`failed_buses` entries must be bus indices")
                    })?);
                }
                buses
            }
            Some(_) => {
                return Err(ApiError::bad_request(
                    "`failed_buses` must be an array of bus indices",
                ))
            }
        };
        // Validate indices now so evaluation cannot fail on the mask.
        FaultMask::with_failures(b, &failed).map_err(|e| ApiError::bad_request(e.to_string()))?;
        failed
    } else {
        Vec::new()
    };

    Ok(Query {
        endpoint,
        payload: Payload::Flat(system),
        rate,
        sim,
        failed_buses,
    })
}

/// Parses a `/v1/fabric` body: cluster-tree shape, link widths, locality
/// knob, optional sim budget, and whole-run link failures.
fn parse_fabric_query(body: &Json, limits: &ServiceLimits) -> Result<Query, ApiError> {
    let ks = match body.get("ks") {
        None | Some(Json::Null) => vec![4, 4],
        Some(Json::Arr(items)) => {
            let mut ks = Vec::with_capacity(items.len());
            for item in items {
                ks.push(item.as_usize().ok_or_else(|| {
                    ApiError::bad_request("`ks` entries must be branching factors")
                })?);
            }
            ks
        }
        Some(_) => {
            return Err(ApiError::bad_request(
                "`ks` must be an array of branching factors",
            ))
        }
    };
    let processors: usize = ks.iter().product();
    if processors > limits.max_dimension {
        return Err(ApiError::too_large(format!(
            "fabric with {} processors exceeds the service limit of {}",
            processors, limits.max_dimension
        )));
    }
    let rate = field_f64(body, "rate", 0.5)?;
    if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
        return Err(ApiError::bad_request(
            "`rate` must be a probability in [0, 1]",
        ));
    }
    let spec = FabricSpec {
        ks,
        local_buses: field_usize(body, "buses", 2)?,
        uplink_width: field_usize(body, "uplink", 1)?,
        locality: field_f64(body, "locality", 0.6)?,
    };
    let (topo, matrix) = spec
        .build()
        .map_err(|e| ApiError::bad_request(e.to_string()))?;
    let failed_links = match body.get("failed_links") {
        None | Some(Json::Null) => Vec::new(),
        Some(Json::Arr(items)) => {
            let mut links = Vec::with_capacity(items.len());
            for item in items {
                let link = item.as_usize().ok_or_else(|| {
                    ApiError::bad_request("`failed_links` entries must be link indices")
                })?;
                if link >= topo.links().len() {
                    return Err(ApiError::bad_request(format!(
                        "failed link {link} is out of range for a fabric with {} links",
                        topo.links().len()
                    )));
                }
                links.push(link);
            }
            links
        }
        Some(_) => {
            return Err(ApiError::bad_request(
                "`failed_links` must be an array of link indices",
            ))
        }
    };
    // `cycles: 0` is meaningful here — analytic decomposition only.
    let cycles = field_u64(body, "cycles", 20_000)?;
    let warmup = field_u64(body, "warmup", cycles / 10)?;
    if cycles.saturating_add(warmup) > limits.max_cycles {
        return Err(ApiError::too_large(format!(
            "cycles + warmup exceeds the service budget of {}",
            limits.max_cycles
        )));
    }
    Ok(Query {
        endpoint: Endpoint::Fabric,
        payload: Payload::Fabric(FabricQuery {
            spec,
            topo,
            matrix,
            failed_links,
        }),
        rate,
        sim: SimParams {
            cycles,
            warmup,
            seed: field_u64(body, "seed", 42)?,
            resubmission: false,
            replications: 1,
            trace_summary: false,
        },
        failed_buses: Vec::new(),
    })
}

/// Renders the opt-in `trace` response field for `/v1/simulate` with
/// `"trace_summary": true`: per-bus pressure scores, the bottleneck
/// ranking, backpressure totals, and request-to-grant delay quantiles from
/// the run's trace analysis.
fn trace_summary_json(analysis: &mbus_core::trace::TraceAnalysis) -> Json {
    let per_bus: Vec<Json> = analysis
        .buses
        .iter()
        .enumerate()
        .map(|(bus, stats)| {
            obj(vec![
                ("bus", Json::Num(bus as f64)),
                ("busy_cycles", Json::Num(stats.busy_cycles as f64)),
                ("alive_cycles", Json::Num(stats.alive_cycles as f64)),
                ("utilization", Json::Num(stats.utilization)),
                ("blocked_share", Json::Num(stats.blocked_share)),
                ("pressure", Json::Num(stats.pressure)),
            ])
        })
        .collect();
    let bottlenecks: Vec<Json> = analysis
        .bottlenecks
        .iter()
        .map(|&bus| Json::Num(bus as f64))
        .collect();
    let wait_q = |q: f64| {
        analysis
            .wait_histogram
            .quantile(q)
            .map(|v| Json::Num(v as f64))
            .unwrap_or(Json::Null)
    };
    obj(vec![
        ("served", Json::Num(analysis.served as f64)),
        ("blocked", Json::Num(analysis.blocked_total as f64)),
        ("unreachable", Json::Num(analysis.unreachable as f64)),
        ("wait_mean", Json::Num(analysis.wait_histogram.mean())),
        ("wait_p50", wait_q(0.5)),
        ("wait_p95", wait_q(0.95)),
        ("wait_p99", wait_q(0.99)),
        ("per_bus", Json::Arr(per_bus)),
        ("bottlenecks", Json::Arr(bottlenecks)),
    ])
}

/// Evaluates a parsed query against the engines, returning the result
/// object (the `result` field of the response envelope).
///
/// # Errors
///
/// [`ApiError`] (status 422) when an engine cannot evaluate the query —
/// e.g. exact enumeration beyond the memory limit.
pub fn evaluate(query: &Query) -> Result<Json, ApiError> {
    let system = match &query.payload {
        Payload::Flat(system) => system,
        Payload::Fabric(fabric) => return evaluate_fabric(query, fabric),
    };
    match query.endpoint {
        Endpoint::Bandwidth => {
            let breakdown = system
                .analytic()
                .map_err(|e| ApiError::unsupported(e.to_string()))?;
            let per_bus = match &breakdown.per_bus_busy {
                Some(busy) => json::num_array(busy),
                None => Json::Null,
            };
            Ok(obj(vec![
                ("bandwidth", Json::Num(breakdown.bandwidth)),
                ("offered_load", Json::Num(breakdown.offered_load)),
                ("acceptance", Json::Num(breakdown.acceptance)),
                ("per_bus_busy", per_bus),
            ]))
        }
        Endpoint::Exact => {
            let bandwidth = system
                .exact()
                .map_err(|e| ApiError::unsupported(e.to_string()))?;
            let method = if system.network().memories() <= mbus_core::exact::enumerate::MAX_MEMORIES
            {
                "enumeration"
            } else {
                "crossbar_closed_form"
            };
            Ok(obj(vec![
                ("bandwidth", Json::Num(bandwidth)),
                ("method", Json::Str(method.to_owned())),
            ]))
        }
        Endpoint::Simulate => {
            let config = SimConfig::new(query.sim.cycles)
                .with_warmup(query.sim.warmup)
                .with_seed(query.sim.seed)
                .with_resubmission(query.sim.resubmission);
            if query.sim.replications > 1 {
                // parse_query rejected trace_summary + replications, so
                // this arm never traces: the runner is free to batch.
                let report = system
                    .simulate_replicated(&config, query.sim.replications)
                    .map_err(|e| ApiError::unsupported(e.to_string()))?;
                let per_replication: Vec<Json> = report
                    .reports
                    .iter()
                    .map(|r| Json::Num(r.bandwidth.mean()))
                    .collect();
                return Ok(obj(vec![
                    ("bandwidth_mean", Json::Num(report.bandwidth.mean())),
                    (
                        "bandwidth_half_width",
                        Json::Num(report.bandwidth.half_width()),
                    ),
                    ("confidence_level", Json::Num(report.bandwidth.level())),
                    ("acceptance", Json::Num(report.acceptance)),
                    ("replications", Json::Num(report.replications as f64)),
                    ("engine", Json::Str(report.engine.to_owned())),
                    ("cycles", Json::Num(query.sim.cycles as f64)),
                    ("warmup", Json::Num(query.sim.warmup as f64)),
                    ("seed", Json::Num(query.sim.seed as f64)),
                    ("resubmission", Json::Bool(query.sim.resubmission)),
                    ("per_replication_bandwidth", Json::Arr(per_replication)),
                ]));
            }
            let (report, trace) = if query.sim.trace_summary {
                let (report, bytes) = system
                    .simulate_traced(&config, Vec::new())
                    .map_err(|e| ApiError::unsupported(e.to_string()))?;
                let mut reader = mbus_core::trace::TraceReader::new(bytes.as_slice())
                    .map_err(|e| ApiError::unsupported(e.to_string()))?;
                let analysis = mbus_core::trace::analyze(&mut reader)
                    .map_err(|e| ApiError::unsupported(e.to_string()))?;
                (report, Some(trace_summary_json(&analysis)))
            } else {
                let report = system
                    .simulate(&config)
                    .map_err(|e| ApiError::unsupported(e.to_string()))?;
                (report, None)
            };
            let mut fields = vec![
                ("bandwidth_mean", Json::Num(report.bandwidth.mean())),
                (
                    "bandwidth_half_width",
                    Json::Num(report.bandwidth.half_width()),
                ),
                ("confidence_level", Json::Num(report.bandwidth.level())),
                ("offered_load", Json::Num(report.offered_load)),
                ("acceptance", Json::Num(report.acceptance)),
                ("unreachable_rate", Json::Num(report.unreachable_rate)),
                ("mean_wait", Json::Num(report.mean_wait)),
                ("max_wait", Json::Num(report.max_wait as f64)),
                ("cycles", Json::Num(report.cycles as f64)),
                ("warmup", Json::Num(report.warmup as f64)),
                ("seed", Json::Num(query.sim.seed as f64)),
                ("resubmission", Json::Bool(query.sim.resubmission)),
                ("bus_utilization", json::num_array(&report.bus_utilization)),
            ];
            if let Some(trace) = trace {
                fields.push(("trace", trace));
            }
            Ok(obj(fields))
        }
        Endpoint::Degraded => {
            let net = system.network();
            let mask = FaultMask::with_failures(net.buses(), &query.failed_buses)
                .map_err(|e| ApiError::bad_request(e.to_string()))?;
            let breakdown = degraded_analyze(net, system.matrix(), query.rate, &mask)
                .map_err(|e| ApiError::unsupported(e.to_string()))?;
            let per_class = match &breakdown.per_class_bandwidth {
                Some(values) => json::num_array(values),
                None => Json::Null,
            };
            Ok(obj(vec![
                ("bandwidth", Json::Num(breakdown.bandwidth)),
                ("offered_load", Json::Num(breakdown.offered_load)),
                ("acceptance", Json::Num(breakdown.acceptance)),
                ("unreachable_load", Json::Num(breakdown.unreachable_load)),
                (
                    "accessible_memories",
                    Json::Num(breakdown.accessible_memories as f64),
                ),
                (
                    "accessible_fraction",
                    Json::Num(breakdown.accessible_fraction),
                ),
                ("alive_buses", Json::Num(mask.alive_count() as f64)),
                ("per_bus_busy", json::num_array(&breakdown.per_bus_busy)),
                ("per_class_bandwidth", per_class),
            ]))
        }
        // parse_query builds fabric queries with a fabric payload, which
        // the early return above already dispatched.
        Endpoint::Fabric => Err(ApiError::bad_request("fabric query carried a flat payload")),
    }
}

/// Evaluates a `/v1/fabric` query: the analytic decomposition always,
/// plus a routed-simulator cross-check when `cycles > 0`.
fn evaluate_fabric(query: &Query, fabric: &FabricQuery) -> Result<Json, ApiError> {
    let analysis = analyze_fabric(
        &fabric.topo,
        &fabric.matrix,
        query.rate,
        &fabric.failed_links,
    )
    .map_err(|e| ApiError::unsupported(e.to_string()))?;
    let ks: Vec<Json> = fabric
        .spec
        .ks
        .iter()
        .map(|&k| Json::Num(k as f64))
        .collect();
    let failed: Vec<Json> = fabric
        .failed_links
        .iter()
        .map(|&link| Json::Num(link as f64))
        .collect();
    let analytic_utilization: Vec<f64> =
        analysis.links.iter().map(|load| load.utilization).collect();
    let mut fields = vec![
        ("ks", Json::Arr(ks)),
        ("processors", Json::Num(fabric.topo.processors() as f64)),
        ("links", Json::Num(fabric.topo.links().len() as f64)),
        ("locality", Json::Num(fabric.spec.locality)),
        ("failed_links", Json::Arr(failed)),
        (
            "analytic",
            obj(vec![
                ("bandwidth", Json::Num(analysis.bandwidth)),
                ("offered_load", Json::Num(analysis.offered_load)),
                ("acceptance", Json::Num(analysis.acceptance)),
                ("unreachable_rate", Json::Num(analysis.unreachable_rate)),
                ("mean_hops", Json::Num(analysis.mean_hops)),
                ("iterations", Json::Num(analysis.iterations as f64)),
                ("link_utilization", json::num_array(&analytic_utilization)),
                (
                    "cluster_bandwidth",
                    json::num_array(&analysis.cluster_bandwidth),
                ),
            ]),
        ),
    ];
    if query.sim.cycles > 0 {
        let schedule = FaultSchedule::from_events(
            fabric
                .failed_links
                .iter()
                .map(|&link| FaultEvent {
                    cycle: 0,
                    bus: link,
                    kind: FaultEventKind::Fail,
                })
                .collect(),
        )
        .map_err(|e| ApiError::bad_request(e.to_string()))?;
        let config = SimConfig::new(query.sim.cycles)
            .with_warmup(query.sim.warmup)
            .with_seed(query.sim.seed)
            .with_faults(schedule);
        let mut sim = FabricSimulator::build(&fabric.topo, &fabric.matrix, query.rate)
            .map_err(|e| ApiError::unsupported(e.to_string()))?;
        let report = sim
            .run(&config)
            .map_err(|e| ApiError::unsupported(e.to_string()))?;
        fields.push((
            "simulated",
            obj(vec![
                ("cycles", Json::Num(report.cycles as f64)),
                ("warmup", Json::Num(report.warmup as f64)),
                ("seed", Json::Num(query.sim.seed as f64)),
                ("bandwidth_mean", Json::Num(report.bandwidth.mean())),
                (
                    "bandwidth_half_width",
                    Json::Num(report.bandwidth.half_width()),
                ),
                ("acceptance", Json::Num(report.acceptance)),
                ("unreachable_rate", Json::Num(report.unreachable_rate)),
                ("mean_hops", Json::Num(report.mean_hops)),
                (
                    "link_utilization",
                    json::num_array(&report.link_utilization),
                ),
                (
                    "analytic_gap",
                    Json::Num(analysis.bandwidth - report.bandwidth.mean()),
                ),
            ]),
        ));
    }
    Ok(obj(fields))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(endpoint: Endpoint, body: &str) -> Result<Query, ApiError> {
        parse_query(
            endpoint,
            &json::parse(body).unwrap(),
            &ServiceLimits::default(),
        )
    }

    #[test]
    fn defaults_mirror_the_cli() {
        // `{}` must mean the CLI's default experiment: 8x8x4 full
        // connection, hierarchical workload, r = 1.
        let query = parse(Endpoint::Bandwidth, "{}").unwrap();
        let result = evaluate(&query).unwrap();
        let bw = result.get("bandwidth").unwrap().as_f64().unwrap();
        assert!((bw - 3.97).abs() < 0.011, "Table II cell, got {bw}");
    }

    #[test]
    fn unknown_fields_are_rejected() {
        let err = parse(Endpoint::Bandwidth, r#"{"cylces": 10}"#).unwrap_err();
        assert_eq!(err.status, 400);
        assert!(err.message.contains("cylces"));
        // `cycles` is fine on /v1/simulate but unknown on /v1/bandwidth.
        assert!(parse(Endpoint::Bandwidth, r#"{"cycles": 10}"#).is_err());
        assert!(parse(Endpoint::Simulate, r#"{"cycles": 10}"#).is_ok());
    }

    #[test]
    fn limits_are_enforced() {
        let err = parse(Endpoint::Bandwidth, r#"{"n": 5000}"#).unwrap_err();
        assert_eq!((err.status, err.kind), (422, "too_large"));
        let err = parse(Endpoint::Simulate, r#"{"cycles": 3000000}"#).unwrap_err();
        assert_eq!((err.status, err.kind), (422, "too_large"));
        let err = parse(Endpoint::Bandwidth, r#"{"n": 0}"#).unwrap_err();
        assert_eq!(err.status, 400);
    }

    #[test]
    fn domain_errors_map_to_bad_request() {
        for body in [
            r#"{"rate": 1.5}"#,
            r#"{"rate": -0.1}"#,
            r#"{"scheme": "warp-drive"}"#,
            r#"{"workload": "astrology"}"#,
            r#"{"n": 8, "m": 4}"#,
            r#"{"workload": "favorite", "alpha": 7.0}"#,
        ] {
            let err = parse(Endpoint::Bandwidth, body).unwrap_err();
            assert_eq!(err.status, 400, "{body} should be a 400");
        }
        let err = parse(Endpoint::Degraded, r#"{"failed_buses": [9]}"#).unwrap_err();
        assert_eq!(err.status, 400, "bus 9 of 4 is out of range");
        let err = parse(Endpoint::Degraded, r#"{"failed_buses": "all"}"#).unwrap_err();
        assert_eq!(err.status, 400);
    }

    #[test]
    fn cache_keys_distinguish_what_matters() {
        let a = parse(Endpoint::Bandwidth, "{}").unwrap().key();
        let b = parse(Endpoint::Bandwidth, r#"{"n": 8}"#).unwrap().key();
        assert_eq!(a, b, "explicit default == implicit default");
        let c = parse(Endpoint::Exact, "{}").unwrap().key();
        assert_ne!(a, c, "endpoint is part of the key");
        let d = parse(Endpoint::Bandwidth, r#"{"rate": 0.5}"#)
            .unwrap()
            .key();
        assert_ne!(a, d);
        let e = parse(Endpoint::Simulate, r#"{"seed": 1}"#).unwrap().key();
        let f = parse(Endpoint::Simulate, r#"{"seed": 2}"#).unwrap().key();
        assert_ne!(e, f, "seed is part of the simulate key");
        let g = parse(Endpoint::Degraded, r#"{"failed_buses": [1, 2]}"#)
            .unwrap()
            .key();
        let h = parse(Endpoint::Degraded, r#"{"failed_buses": [2, 1]}"#)
            .unwrap()
            .key();
        assert_eq!(g, h, "mask order is canonicalized");
    }

    #[test]
    fn cache_keys_encode_network_fields_explicitly() {
        // Stability: re-parsing the identical body always yields the same
        // key (the key is a pure function of the query's fields).
        let body = r#"{"n": 8, "m": 8, "b": 4, "scheme": "kclass", "classes": 4}"#;
        let a = parse(Endpoint::Bandwidth, body).unwrap().key();
        let b = parse(Endpoint::Bandwidth, body).unwrap().key();
        assert_eq!(a, b, "key must be stable across parses");

        // Every defining network field must separate the key's network
        // component (uniform workload so n ≠ m parses).
        let net = |body: &str| parse(Endpoint::Bandwidth, body).unwrap().key().network;
        let base = net(r#"{"workload": "uniform", "n": 8, "m": 8, "b": 4}"#);
        assert_ne!(
            base,
            net(r#"{"workload": "uniform", "n": 16, "m": 8, "b": 4}"#),
            "n"
        );
        assert_ne!(
            base,
            net(r#"{"workload": "uniform", "n": 8, "m": 16, "b": 4}"#),
            "m"
        );
        assert_ne!(
            base,
            net(r#"{"workload": "uniform", "n": 8, "m": 8, "b": 2}"#),
            "b"
        );
        assert_ne!(
            base,
            net(r#"{"workload": "uniform", "n": 8, "m": 8, "b": 4, "scheme": "crossbar"}"#),
            "scheme discriminant"
        );
        assert_ne!(
            net(
                r#"{"workload": "uniform", "n": 8, "m": 8, "b": 4, "scheme": "partial", "groups": 2}"#
            ),
            net(
                r#"{"workload": "uniform", "n": 8, "m": 8, "b": 4, "scheme": "partial", "groups": 4}"#
            ),
            "scheme params"
        );
        assert_ne!(
            net(r#"{"workload": "uniform", "n": 8, "m": 8, "b": 4, "scheme": "single"}"#),
            net(
                r#"{"workload": "uniform", "n": 8, "m": 8, "b": 4, "scheme": "kclass", "classes": 4}"#
            ),
            "different schemes with same dimensions"
        );
    }

    #[test]
    fn network_encoding_has_no_cross_scheme_collisions() {
        use mbus_core::topology::BusNetwork;
        // Same dimensions under every scheme, plus param variations: all
        // encodings must be pairwise distinct. In particular the
        // length-prefixed sections keep a single-assignment vector from
        // aliasing a class-size vector with equal entries.
        let nets = vec![
            BusNetwork::new(8, 8, 4, ConnectionScheme::Full).unwrap(),
            BusNetwork::new(8, 8, 4, ConnectionScheme::balanced_single(8, 4).unwrap()).unwrap(),
            BusNetwork::new(8, 8, 4, ConnectionScheme::strided_single(8, 4).unwrap()).unwrap(),
            BusNetwork::new(8, 8, 4, ConnectionScheme::PartialGroups { groups: 2 }).unwrap(),
            BusNetwork::new(8, 8, 4, ConnectionScheme::PartialGroups { groups: 4 }).unwrap(),
            BusNetwork::new(8, 8, 4, ConnectionScheme::uniform_classes(8, 4).unwrap()).unwrap(),
            BusNetwork::new(8, 8, 4, ConnectionScheme::uniform_classes(8, 2).unwrap()).unwrap(),
            BusNetwork::new(8, 8, 4, ConnectionScheme::Crossbar).unwrap(),
            BusNetwork::new(8, 8, 2, ConnectionScheme::Full).unwrap(),
        ];
        let encodings: Vec<Vec<u64>> = nets.iter().map(encode_network).collect();
        for (i, a) in encodings.iter().enumerate() {
            for (j, b) in encodings.iter().enumerate() {
                if i != j {
                    assert_ne!(a, b, "networks {i} and {j} collide: {a:?}");
                }
            }
        }
        // The encoding leads with the dimensions, in order.
        assert_eq!(&encodings[0][..3], &[8, 8, 4]);
    }

    #[test]
    fn degraded_matches_direct_library_call() {
        use mbus_core::prelude::*;
        let query = parse(Endpoint::Degraded, r#"{"failed_buses": [0]}"#).unwrap();
        let result = evaluate(&query).unwrap();
        let net = BusNetwork::new(8, 8, 4, ConnectionScheme::Full).unwrap();
        let matrix = mbus_core::paper_params::hierarchical(8).unwrap().matrix();
        let mask = FaultMask::with_failures(4, &[0]).unwrap();
        let expected = degraded_analyze(&net, &matrix, 1.0, &mask).unwrap();
        assert_eq!(
            result.get("bandwidth").unwrap().as_f64(),
            Some(expected.bandwidth)
        );
        assert_eq!(result.get("alive_buses").unwrap().as_usize(), Some(3));
    }

    #[test]
    fn simulate_is_deterministic_per_seed() {
        let body = r#"{"cycles": 2000, "seed": 7}"#;
        let a = evaluate(&parse(Endpoint::Simulate, body).unwrap()).unwrap();
        let b = evaluate(&parse(Endpoint::Simulate, body).unwrap()).unwrap();
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn trace_summary_is_opt_in_and_reconciles() {
        let plain = evaluate(&parse(Endpoint::Simulate, r#"{"cycles": 2000, "seed": 9}"#).unwrap())
            .unwrap();
        assert!(plain.get("trace").is_none(), "trace is opt-in");

        let body = r#"{"cycles": 2000, "seed": 9, "scheme": "single", "trace_summary": true}"#;
        let traced = evaluate(&parse(Endpoint::Simulate, body).unwrap()).unwrap();
        let trace = traced.get("trace").expect("trace field attached");
        let bottlenecks = match trace.get("bottlenecks").unwrap() {
            Json::Arr(items) => items.len(),
            other => panic!("bottlenecks not an array: {other:?}"),
        };
        assert_eq!(bottlenecks, 4, "every bus is ranked");
        // The summary's per-bus utilization is the report's, verbatim.
        let report_util = match traced.get("bus_utilization").unwrap() {
            Json::Arr(items) => items.clone(),
            other => panic!("bus_utilization not an array: {other:?}"),
        };
        let per_bus = match trace.get("per_bus").unwrap() {
            Json::Arr(items) => items.clone(),
            other => panic!("per_bus not an array: {other:?}"),
        };
        assert_eq!(per_bus.len(), report_util.len());
        for (entry, util) in per_bus.iter().zip(&report_util) {
            assert_eq!(
                entry.get("utilization").unwrap().as_f64(),
                util.as_f64(),
                "trace utilization reconciles with the report"
            );
        }
        // Tracing must not perturb the simulation itself.
        let plain_same_seed = evaluate(
            &parse(
                Endpoint::Simulate,
                r#"{"cycles": 2000, "seed": 9, "scheme": "single"}"#,
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!(
            plain_same_seed.get("bandwidth_mean").unwrap().as_f64(),
            traced.get("bandwidth_mean").unwrap().as_f64(),
        );
        // And the cache must key the two variants apart.
        let k_plain = parse(
            Endpoint::Simulate,
            r#"{"cycles": 2000, "seed": 9, "scheme": "single"}"#,
        )
        .unwrap()
        .key();
        let k_traced = parse(Endpoint::Simulate, body).unwrap().key();
        assert_ne!(k_plain, k_traced, "trace_summary is part of the key");
    }

    #[test]
    fn replicated_simulate_aggregates_and_reports_engine() {
        let body = r#"{"cycles": 2000, "seed": 7, "replications": 4}"#;
        let result = evaluate(&parse(Endpoint::Simulate, body).unwrap()).unwrap();
        assert_eq!(result.get("replications").unwrap().as_usize(), Some(4));
        assert_eq!(result.get("engine").unwrap().as_str(), Some("batched"));
        let per_rep = match result.get("per_replication_bandwidth").unwrap() {
            Json::Arr(items) => items.clone(),
            other => panic!("per_replication_bandwidth not an array: {other:?}"),
        };
        assert_eq!(per_rep.len(), 4);
        // The aggregate CI center is the mean of the per-replication means.
        let mean = per_rep.iter().map(|v| v.as_f64().unwrap()).sum::<f64>() / 4.0;
        let got = result.get("bandwidth_mean").unwrap().as_f64().unwrap();
        assert!((got - mean).abs() < 1e-12, "{got} vs {mean}");
        // Replications are deterministic and keyed into the cache.
        let again = evaluate(&parse(Endpoint::Simulate, body).unwrap()).unwrap();
        assert_eq!(result.render(), again.render());
        let k_single = parse(Endpoint::Simulate, r#"{"cycles": 2000, "seed": 7}"#)
            .unwrap()
            .key();
        let k_replicated = parse(Endpoint::Simulate, body).unwrap().key();
        assert_ne!(k_single, k_replicated, "replications is part of the key");
    }

    #[test]
    fn trace_summary_excludes_replications() {
        let body = r#"{"cycles": 2000, "replications": 3, "trace_summary": true}"#;
        let err = parse(Endpoint::Simulate, body).unwrap_err();
        assert_eq!((err.status, err.kind), (422, "unsupported"));
        assert!(err.message.contains("trace"), "message: {}", err.message);
        // A single replication may trace: the scalar engine runs anyway.
        let body = r#"{"cycles": 2000, "replications": 1, "trace_summary": true}"#;
        let traced = evaluate(&parse(Endpoint::Simulate, body).unwrap()).unwrap();
        assert!(traced.get("trace").is_some());
    }

    #[test]
    fn replications_scale_the_cycle_budget() {
        // 800k cycles x 3 replications blows the 2M default budget even
        // though a single replication would fit.
        let err = parse(
            Endpoint::Simulate,
            r#"{"cycles": 800000, "warmup": 0, "replications": 3}"#,
        )
        .unwrap_err();
        assert_eq!((err.status, err.kind), (422, "too_large"));
        assert!(parse(
            Endpoint::Simulate,
            r#"{"cycles": 800000, "warmup": 0, "replications": 2}"#
        )
        .is_ok());
        let err = parse(Endpoint::Simulate, r#"{"replications": 0}"#).unwrap_err();
        assert_eq!(err.status, 400);
    }

    #[test]
    fn fabric_endpoint_reconciles_analytic_and_sim() {
        let body = r#"{"ks": [4, 4], "buses": 2, "locality": 0.6, "rate": 0.5,
                       "cycles": 4000, "seed": 11}"#;
        let result = evaluate(&parse(Endpoint::Fabric, body).unwrap()).unwrap();
        let analytic = result.get("analytic").unwrap();
        let simulated = result.get("simulated").unwrap();
        let a = analytic.get("bandwidth").unwrap().as_f64().unwrap();
        let s = simulated.get("bandwidth_mean").unwrap().as_f64().unwrap();
        assert!(a > 0.0 && s > 0.0);
        assert!(
            (a - s).abs() / s < 0.15,
            "analytic {a} vs simulated {s} disagree beyond tolerance"
        );
        // 4x4 paired fabric: 4 local groups + 4 uplinks.
        assert_eq!(result.get("links").unwrap().as_usize(), Some(8));
        let utils = match analytic.get("link_utilization").unwrap() {
            Json::Arr(items) => items.len(),
            other => panic!("link_utilization not an array: {other:?}"),
        };
        assert_eq!(utils, 8);
        // Deterministic per seed, like /v1/simulate.
        let again = evaluate(&parse(Endpoint::Fabric, body).unwrap()).unwrap();
        assert_eq!(result.render(), again.render());
    }

    #[test]
    fn fabric_analytic_only_when_cycles_zero() {
        let result = evaluate(&parse(Endpoint::Fabric, r#"{"cycles": 0}"#).unwrap()).unwrap();
        assert!(result.get("analytic").is_some());
        assert!(result.get("simulated").is_none(), "no sim without cycles");
    }

    #[test]
    fn fabric_failed_uplink_degrades_bandwidth() {
        // Pure-remote traffic (locality 0) puts every request over an uplink,
        // so failing one genuinely removes throughput. (At higher locality the
        // drop-on-block model can *raise* total bandwidth: unreachable remote
        // flows leave the system and local links decongest.)
        let healthy = evaluate(
            &parse(
                Endpoint::Fabric,
                r#"{"ks": [4, 4], "locality": 0.0, "cycles": 0}"#,
            )
            .unwrap(),
        )
        .unwrap();
        // Links 0..4 are the local groups, 4..8 the uplinks; fail one uplink.
        let degraded = evaluate(
            &parse(
                Endpoint::Fabric,
                r#"{"ks": [4, 4], "locality": 0.0, "cycles": 0, "failed_links": [4]}"#,
            )
            .unwrap(),
        )
        .unwrap();
        let bw = |r: &Json| {
            r.get("analytic")
                .unwrap()
                .get("bandwidth")
                .unwrap()
                .as_f64()
                .unwrap()
        };
        assert!(bw(&degraded) < bw(&healthy));
        let unreachable = degraded
            .get("analytic")
            .unwrap()
            .get("unreachable_rate")
            .unwrap()
            .as_f64()
            .unwrap();
        assert!(unreachable > 0.0, "cross-uplink traffic is unreachable");
    }

    #[test]
    fn fabric_validation_and_keys() {
        // Flat keys are rejected on the fabric endpoint.
        let err = parse(Endpoint::Fabric, r#"{"n": 8}"#).unwrap_err();
        assert_eq!(err.status, 400);
        // Out-of-range failed link.
        let err = parse(Endpoint::Fabric, r#"{"ks": [4, 4], "failed_links": [99]}"#).unwrap_err();
        assert_eq!(err.status, 400);
        // Dimension and budget limits hold.
        let err = parse(Endpoint::Fabric, r#"{"ks": [64, 64]}"#).unwrap_err();
        assert_eq!((err.status, err.kind), (422, "too_large"));
        let err = parse(Endpoint::Fabric, r#"{"cycles": 3000000}"#).unwrap_err();
        assert_eq!((err.status, err.kind), (422, "too_large"));
        // Cache keys: defaults are stable, every knob separates.
        let base = parse(Endpoint::Fabric, "{}").unwrap().key();
        assert_eq!(
            base,
            parse(Endpoint::Fabric, r#"{"ks": [4, 4]}"#).unwrap().key()
        );
        for body in [
            r#"{"ks": [2, 8]}"#,
            r#"{"buses": 3}"#,
            r#"{"uplink": 2}"#,
            r#"{"locality": 0.3}"#,
            r#"{"rate": 0.25}"#,
            r#"{"cycles": 1000}"#,
            r#"{"seed": 7}"#,
            r#"{"failed_links": [0]}"#,
        ] {
            let key = parse(Endpoint::Fabric, body).unwrap().key();
            assert_ne!(base, key, "{body} must change the cache key");
        }
        // Link-failure order is canonicalized.
        assert_eq!(
            parse(Endpoint::Fabric, r#"{"failed_links": [4, 1]}"#)
                .unwrap()
                .key(),
            parse(Endpoint::Fabric, r#"{"failed_links": [1, 4]}"#)
                .unwrap()
                .key(),
        );
        // Fabric keys never collide with a flat endpoint's.
        assert_ne!(
            parse(Endpoint::Fabric, "{}").unwrap().key(),
            parse(Endpoint::Bandwidth, "{}").unwrap().key(),
        );
    }

    #[test]
    fn error_bodies_are_structured_json() {
        let err = ApiError::bad_request("no such scheme `x`");
        let body = json::parse(&err.to_body()).unwrap();
        let error = body.get("error").unwrap();
        assert_eq!(error.get("kind").unwrap().as_str(), Some("bad_request"));
        assert_eq!(
            error.get("message").unwrap().as_str(),
            Some("no such scheme `x`")
        );
    }
}
