//! The serving control plane: admission, rate limiting, QoS-aware
//! victim scheduling, and per-tenant accounting over the stream table.
//!
//! [`BatchSimulator`] answers the *capacity* question — how many dense
//! sessions fit — but a real front-end for millions of flows (the
//! paper's intrusion-detection serving scenario, §I and the §VI.B
//! input-buffer model) also needs *policy*: who gets in, how fast each
//! tenant may push bytes, which flow to park when the table is full,
//! and what each tenant consumed. [`ControlledBatch`] layers exactly
//! that over the stream table:
//!
//! * **Admission** — [`open`](ControlledBatch::open) returns an
//!   explicit [`Admission`] verdict instead of panicking: duplicate
//!   flows and a full table ([`ControlConfig::max_open`]) are policy
//!   outcomes, not crashes.
//! * **Rate limiting** — deterministic token buckets over a *logical*
//!   tick clock ([`advance`](ControlledBatch::advance)), per flow and
//!   per tenant ([`RateLimit`]). Over-budget bytes are never silently
//!   dropped: they are *deferred* into a bounded buffer (drained, in
//!   QoS order, as budget refills) and only *rejected* — explicitly,
//!   in the [`FeedVerdict`] — when that buffer is full.
//! * **QoS-aware victim scheduling** — flows carry a [`FlowSpec`]
//!   (tenant, [`QosClass`], optional deadline). When residency is
//!   capped, the victim is chosen by a [`VictimPolicy`] rather than
//!   the table's built-in idle-then-LRU rule: the shipped
//!   [`QosPolicy`] ranks idle flows first, then lowest class, then
//!   largest deadline slack, then — fairness across hot shards, read
//!   from [`BatchSimulator::shard_load_into`] — the flows loading the
//!   most contended shard, then LRU.
//! * **Per-tenant accounting** — every verdict and every closed flow
//!   folds into a [`TenantUsage`] ledger (flows, bytes
//!   admitted/deferred/rejected, cycles, reports). The energy-model
//!   counterpart lives in `cama_arch` (a tenant-demuxing observer over
//!   `EnergyObserver`).
//!
//! The invariant throughout: **policy changes *when* flows run, never
//! *what* they compute.** Admitted traffic produces results
//! bit-identical to an uncapped, policy-free table
//! (`tests/property.rs` asserts this differentially for every shipped
//! policy, with and without deferral).
//!
//! # Examples
//!
//! ```
//! use cama_core::compiled::CompiledAutomaton;
//! use cama_core::regex;
//! use cama_sim::control::{ControlConfig, ControlledBatch, FlowSpec, QosClass, RateLimit};
//!
//! let nfa = regex::compile("ab+c")?;
//! let plan = CompiledAutomaton::compile(&nfa);
//! let config = ControlConfig::new()
//!     .max_resident(2)
//!     .flow_rate(RateLimit::new(4, 2)); // 4-byte burst, 2 bytes/tick
//! let mut table = ControlledBatch::new(&plan, config);
//!
//! let spec = FlowSpec::new(7).with_class(QosClass::Premium);
//! assert!(table.open(1, spec).is_admitted());
//! let verdict = table.feed(1, b"zabbbc");
//! assert_eq!(verdict.admitted, 4);   // burst budget
//! assert_eq!(verdict.deferred, 2);   // buffered, not dropped
//! table.advance(1);                  // refill: deferred bytes drain
//! let result = table.close(1);
//! assert_eq!(result.report_offsets(), vec![5]); // as if never limited
//! assert_eq!(table.usage(7).bytes_admitted, 6);
//! # Ok::<(), cama_core::Error>(())
//! ```

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;

use crate::activity::{NullObserver, ShardObserver};
use crate::batch::{BatchSimulator, StreamPlan, SwapReport};
use crate::frame::{FrameDecoder, FrameError, FrameEvent, StreamId};
use crate::result::RunResult;
use cama_core::compiled::CompiledAutomaton;

/// Identifies the principal a flow belongs to for rate limiting and
/// accounting.
pub type TenantId = u32;

/// Priority class of a flow — the QoS half of a [`FlowSpec`]. Ordered:
/// higher classes are drained first and parked last.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum QosClass {
    /// Bulk traffic; first to be parked, last to be drained.
    Background,
    /// The default class.
    #[default]
    Standard,
    /// Latency-sensitive traffic.
    Premium,
    /// Hard-deadline traffic; parked only when nothing else remains.
    Realtime,
}

/// Admission-time description of a flow: its tenant, QoS class, and
/// optional deadline (an absolute logical-tick value; see
/// [`ControlledBatch::now`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlowSpec {
    /// The tenant the flow's bytes, energy, and reports are charged to.
    pub tenant: TenantId,
    /// Scheduling priority.
    pub class: QosClass,
    /// Absolute tick by which the flow wants to finish; flows with less
    /// slack are parked later and drained earlier.
    pub deadline: Option<u64>,
}

impl FlowSpec {
    /// A [`QosClass::Standard`] spec for `tenant` with no deadline.
    pub fn new(tenant: TenantId) -> Self {
        FlowSpec {
            tenant,
            ..FlowSpec::default()
        }
    }

    /// Sets the QoS class.
    pub fn with_class(mut self, class: QosClass) -> Self {
        self.class = class;
        self
    }

    /// Sets the absolute-tick deadline.
    pub fn with_deadline(mut self, deadline: u64) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// A token-bucket byte budget: up to `burst` bytes at once, refilled at
/// `per_tick` bytes per logical tick (buckets start full).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RateLimit {
    /// Bucket capacity — the largest burst admitted without deferral.
    pub burst: u64,
    /// Refill rate in bytes per [`ControlledBatch::advance`] tick.
    pub per_tick: u64,
}

impl RateLimit {
    /// A limit of `burst` bytes refilled at `per_tick` bytes per tick.
    ///
    /// # Panics
    ///
    /// Panics if `burst` is zero (a bucket that can never grant a byte
    /// would defer traffic forever).
    pub fn new(burst: u64, per_tick: u64) -> Self {
        assert!(burst > 0, "a zero-burst rate limit can never admit");
        RateLimit { burst, per_tick }
    }
}

/// Deterministic token bucket over the logical tick clock.
#[derive(Clone, Copy, Debug)]
struct TokenBucket {
    tokens: u64,
    limit: RateLimit,
}

impl TokenBucket {
    fn new(limit: RateLimit) -> Self {
        TokenBucket {
            tokens: limit.burst,
            limit,
        }
    }

    fn available(&self) -> u64 {
        self.tokens
    }

    fn take(&mut self, granted: u64) {
        self.tokens -= granted;
    }

    fn refill(&mut self, ticks: u64) {
        self.tokens = self
            .tokens
            .saturating_add(self.limit.per_tick.saturating_mul(ticks))
            .min(self.limit.burst);
    }
}

/// Configuration of a [`ControlledBatch`]: capacity, rates, and the
/// deferral-buffer bound. All limits default to "unlimited" so an
/// unconfigured control plane behaves exactly like the raw table.
#[derive(Clone, Debug)]
pub struct ControlConfig {
    max_open: Option<usize>,
    max_resident: Option<usize>,
    flow_rate: Option<RateLimit>,
    default_tenant_rate: Option<RateLimit>,
    tenant_rates: HashMap<TenantId, RateLimit>,
    defer_capacity: usize,
}

impl Default for ControlConfig {
    fn default() -> Self {
        ControlConfig {
            max_open: None,
            max_resident: None,
            flow_rate: None,
            default_tenant_rate: None,
            tenant_rates: HashMap::new(),
            defer_capacity: 64 * 1024,
        }
    }
}

impl ControlConfig {
    /// The default configuration: unlimited admission and rates, a
    /// 64 KiB deferral buffer.
    pub fn new() -> Self {
        ControlConfig::default()
    }

    /// Caps concurrently *open* flows (resident + parked); opens beyond
    /// the cap are rejected with [`RejectReason::TableFull`].
    pub fn max_open(mut self, flows: usize) -> Self {
        self.max_open = Some(flows);
        self
    }

    /// Caps concurrently *resident* sessions (forwarded to
    /// [`BatchSimulator::max_resident`]); flows beyond the cap are
    /// parked by the [`VictimPolicy`].
    pub fn max_resident(mut self, sessions: usize) -> Self {
        self.max_resident = Some(sessions);
        self
    }

    /// The per-flow token-bucket byte budget (every flow gets its own
    /// bucket).
    pub fn flow_rate(mut self, limit: RateLimit) -> Self {
        self.flow_rate = Some(limit);
        self
    }

    /// The token-bucket byte budget shared by all flows of every tenant
    /// without an explicit [`tenant_rate`](Self::tenant_rate) override.
    pub fn default_tenant_rate(mut self, limit: RateLimit) -> Self {
        self.default_tenant_rate = Some(limit);
        self
    }

    /// A per-tenant override of the shared tenant budget.
    pub fn tenant_rate(mut self, tenant: TenantId, limit: RateLimit) -> Self {
        self.tenant_rates.insert(tenant, limit);
        self
    }

    /// Bounds the *total* bytes buffered across all flows' deferral
    /// queues; bytes beyond the bound are rejected (explicitly, in the
    /// [`FeedVerdict`]) rather than buffered without limit.
    pub fn defer_capacity(mut self, bytes: usize) -> Self {
        self.defer_capacity = bytes;
        self
    }
}

/// Why an [`open`](ControlledBatch::open) was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// [`ControlConfig::max_open`] flows are already open.
    TableFull,
    /// The stream id is already open (resident or parked).
    DuplicateFlow,
}

/// The admission verdict of [`ControlledBatch::open`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// The flow is open and may be fed.
    Admitted,
    /// The flow was not opened; nothing changed.
    Rejected(RejectReason),
}

impl Admission {
    /// `true` when the flow was admitted.
    pub fn is_admitted(&self) -> bool {
        matches!(self, Admission::Admitted)
    }
}

/// Byte-level outcome of one [`feed`](ControlledBatch::feed) (or of a
/// drain pass): every byte of the chunk is accounted exactly once as
/// admitted, deferred, or rejected — backpressure is explicit, never
/// silent.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FeedVerdict {
    /// Bytes of this chunk fed to the datapath immediately.
    pub admitted: usize,
    /// Bytes of this chunk buffered until budget refills (drained by
    /// [`advance`](ControlledBatch::advance), flushed by
    /// [`close`](ControlledBatch::close)).
    pub deferred: usize,
    /// Bytes of this chunk refused because the deferral buffer is full
    /// (the only bytes that will never reach the datapath).
    pub rejected: usize,
    /// Previously-deferred bytes of the same flow that also drained
    /// during this call (they precede this chunk's bytes, preserving
    /// stream order).
    pub drained: usize,
}

impl FeedVerdict {
    /// `true` when any byte was deferred or rejected — the caller-facing
    /// backpressure signal.
    pub fn backpressure(&self) -> bool {
        self.deferred > 0 || self.rejected > 0
    }

    fn absorb(&mut self, other: FeedVerdict) {
        self.admitted += other.admitted;
        self.deferred += other.deferred;
        self.rejected += other.rejected;
        self.drained += other.drained;
    }
}

/// Everything a [`VictimPolicy`] may rank: one resident flow at the
/// moment a parking decision is needed.
#[derive(Clone, Copy, Debug)]
pub struct VictimCandidate {
    /// The resident flow.
    pub stream: StreamId,
    /// Its tenant.
    pub tenant: TenantId,
    /// Its QoS class.
    pub class: QosClass,
    /// Ticks until its deadline (negative when past due); `None` for
    /// deadline-less flows.
    pub deadline_slack: Option<i64>,
    /// `true` when the flow's session has no dynamic activity (all its
    /// arrays are powered down — a near-empty snapshot).
    pub idle: bool,
    /// Feed-clock value of the flow's most recent chunk (smaller =
    /// least recently fed).
    pub last_touch: u64,
    /// The [`shard_load`](BatchSimulator::shard_load) of the most
    /// contended shard this flow is active on (0 when idle) — the
    /// hot-shard fairness signal.
    pub hot_shard_load: usize,
}

impl VictimCandidate {
    /// Slack collapsed for ranking: deadline-less flows park before any
    /// flow with a real deadline.
    fn slack_key(&self) -> i64 {
        self.deadline_slack.unwrap_or(i64::MAX)
    }
}

/// Chooses which resident flow to park when the table is at its
/// residency cap. Policies only reorder *when* flows run; results stay
/// bit-identical under every policy.
pub trait VictimPolicy {
    /// Picks the victim among the current residents (never called with
    /// an empty slate).
    fn select(&self, candidates: &[VictimCandidate]) -> StreamId;

    /// Display name for reports and benches.
    fn name(&self) -> &'static str {
        "custom"
    }
}

/// The stream table's built-in rule as a policy: idle flows first, then
/// least recently fed. QoS-blind.
#[derive(Clone, Copy, Debug, Default)]
pub struct LruPolicy;

impl VictimPolicy for LruPolicy {
    fn select(&self, candidates: &[VictimCandidate]) -> StreamId {
        candidates
            .iter()
            .min_by_key(|c| (!c.idle, c.last_touch, c.stream))
            .expect("victim selection over an empty slate")
            .stream
    }

    fn name(&self) -> &'static str {
        "idle-lru"
    }
}

/// Class-aware parking: idle flows first, then lowest [`QosClass`],
/// then least recently fed.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClassLruPolicy;

impl VictimPolicy for ClassLruPolicy {
    fn select(&self, candidates: &[VictimCandidate]) -> StreamId {
        candidates
            .iter()
            .min_by_key(|c| (!c.idle, c.class, c.last_touch, c.stream))
            .expect("victim selection over an empty slate")
            .stream
    }

    fn name(&self) -> &'static str {
        "class-lru"
    }
}

/// The full QoS rule: idle → lowest class → largest deadline slack →
/// hottest shard → LRU.
///
/// The hot-shard term is the fairness half: among equal-priority flows
/// the one loading the most contended shard parks first, so a tenant
/// whose flows all hammer one hot shard cannot keep evicting
/// cold-shard tenants ([`VictimCandidate::hot_shard_load`] comes from
/// [`BatchSimulator::shard_load_into`], the observed-activity placement
/// signal).
#[derive(Clone, Copy, Debug, Default)]
pub struct QosPolicy;

impl VictimPolicy for QosPolicy {
    fn select(&self, candidates: &[VictimCandidate]) -> StreamId {
        candidates
            .iter()
            .min_by_key(|c| {
                (
                    !c.idle,
                    c.class,
                    std::cmp::Reverse(c.slack_key()),
                    std::cmp::Reverse(c.hot_shard_load),
                    c.last_touch,
                    c.stream,
                )
            })
            .expect("victim selection over an empty slate")
            .stream
    }

    fn name(&self) -> &'static str {
        "qos"
    }
}

/// Per-tenant resource ledger: every byte verdict and every closed
/// flow's result folds in here. Sums across tenants equal the
/// table-wide totals exactly (each event is attributed to exactly one
/// tenant).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TenantUsage {
    /// Flows admitted for this tenant.
    pub flows_opened: u64,
    /// Flows closed (results delivered).
    pub flows_closed: u64,
    /// Opens refused ([`RejectReason::TableFull`] or duplicate).
    pub flows_rejected: u64,
    /// Bytes that reached the datapath.
    pub bytes_admitted: u64,
    /// Bytes that passed through the deferral buffer (each deferred
    /// byte is counted here once, when it enters the buffer).
    pub bytes_deferred: u64,
    /// Bytes refused outright (deferral buffer full, or feeds to a flow
    /// the control plane refused to open).
    pub bytes_rejected: u64,
    /// Engine cycles executed by this tenant's closed flows.
    pub cycles: u64,
    /// Reports emitted by this tenant's closed flows.
    pub reports: u64,
}

/// Control-plane state of one open flow.
#[derive(Clone, Debug)]
struct FlowCtl {
    spec: FlowSpec,
    bucket: Option<TokenBucket>,
    /// Over-budget bytes awaiting refill, in stream order.
    deferred: VecDeque<u8>,
}

/// Control-plane state of one tenant.
#[derive(Clone, Debug, Default)]
struct TenantCtl {
    bucket: Option<TokenBucket>,
    usage: TenantUsage,
}

/// The serving control plane: a [`BatchSimulator`] wrapped with
/// admission, token-bucket rate limiting, QoS victim scheduling, and a
/// per-tenant ledger. See the [module docs](self) for the full model.
#[derive(Clone, Debug)]
pub struct ControlledBatch<'p, P: StreamPlan = CompiledAutomaton, V: VictimPolicy = QosPolicy> {
    batch: BatchSimulator<'p, P>,
    policy: V,
    flow_rate: Option<RateLimit>,
    default_tenant_rate: Option<RateLimit>,
    tenant_rates: HashMap<TenantId, RateLimit>,
    max_open: Option<usize>,
    defer_capacity: usize,
    /// Total bytes currently buffered across all deferral queues
    /// (≤ `defer_capacity` always).
    deferred_total: usize,
    /// The logical tick clock; advanced only by
    /// [`advance`](Self::advance).
    now: u64,
    flows: HashMap<StreamId, FlowCtl>,
    /// BTreeMap so ledger iteration is deterministic.
    tenants: BTreeMap<TenantId, TenantCtl>,
    // Scratch buffers: the control plane adds no steady-state
    // allocation on top of the table's own.
    load_scratch: Vec<usize>,
    candidates: Vec<VictimCandidate>,
    feed_scratch: Vec<u8>,
    drain_order: Vec<(StreamId, QosClass, i64)>,
}

impl<'p, P: StreamPlan> ControlledBatch<'p, P, QosPolicy> {
    /// A control plane over `plan` with the default [`QosPolicy`].
    pub fn new(plan: &'p P, config: ControlConfig) -> Self {
        Self::with_policy(plan, config, QosPolicy)
    }
}

impl<'p, P: StreamPlan, V: VictimPolicy> ControlledBatch<'p, P, V> {
    /// A control plane over `plan` parking victims chosen by `policy`.
    pub fn with_policy(plan: &'p P, config: ControlConfig, policy: V) -> Self {
        let mut batch = BatchSimulator::new(plan);
        if let Some(cap) = config.max_resident {
            batch = batch.max_resident(cap);
        }
        ControlledBatch {
            batch,
            policy,
            flow_rate: config.flow_rate,
            default_tenant_rate: config.default_tenant_rate,
            tenant_rates: config.tenant_rates,
            max_open: config.max_open,
            defer_capacity: config.defer_capacity,
            deferred_total: 0,
            now: 0,
            flows: HashMap::new(),
            tenants: BTreeMap::new(),
            load_scratch: Vec::new(),
            candidates: Vec::new(),
            feed_scratch: Vec::new(),
            drain_order: Vec::new(),
        }
    }

    /// The wrapped stream table (read-only; mutating it directly would
    /// bypass the ledger).
    pub fn batch(&self) -> &BatchSimulator<'p, P> {
        &self.batch
    }

    /// The victim policy in force.
    pub fn policy(&self) -> &V {
        &self.policy
    }

    /// Hot ruleset swap through the control plane: delegates to
    /// [`BatchSimulator::swap_plan`] and returns its per-flow
    /// [`SwapReport`] verdicts.
    ///
    /// The control-plane state survives the swap untouched: every flow
    /// stays open under its [`FlowSpec`], token buckets keep their
    /// levels, deferred bytes stay queued (they will feed into the
    /// *new* plan on the next [`advance`](Self::advance)), and the
    /// per-tenant ledgers keep accumulating across the epoch — a swap
    /// changes what the flows match, not what the tenants are owed.
    /// Flows the report marks
    /// [`Displaced`](crate::SwapVerdict::Displaced)
    /// lost their match progress with their removed components; the
    /// caller decides whether to keep serving or close them (closing
    /// folds their accumulated pre-swap reports into the ledger as
    /// usual).
    pub fn swap_plan(&mut self, new_plan: &'p P, remap: &cama_core::PlanRemap) -> SwapReport {
        self.batch.swap_plan(new_plan, remap)
    }

    /// The logical tick clock ([`advance`](Self::advance) moves it).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Open flows (resident + parked).
    pub fn open_count(&self) -> usize {
        self.batch.open_count()
    }

    /// Flows currently holding a resident session.
    pub fn resident_count(&self) -> usize {
        self.batch.resident_count()
    }

    /// Flows parked as sparse snapshots.
    pub fn parked_count(&self) -> usize {
        self.batch.parked_count()
    }

    /// Remaps stashed for lazily-translated parked flows (bounded; see
    /// [`BatchSimulator::pending_remap_count`]).
    pub fn pending_remap_count(&self) -> usize {
        self.batch.pending_remap_count()
    }

    /// Bytes currently buffered across all deferral queues.
    pub fn deferred_total(&self) -> usize {
        self.deferred_total
    }

    /// Bytes currently deferred for one flow.
    pub fn deferred_len(&self, stream: StreamId) -> usize {
        self.flows.get(&stream).map_or(0, |f| f.deferred.len())
    }

    /// This tenant's ledger (zeroed for tenants never seen).
    pub fn usage(&self, tenant: TenantId) -> TenantUsage {
        self.tenants
            .get(&tenant)
            .map_or_else(TenantUsage::default, |t| t.usage)
    }

    /// Every tenant's ledger, in tenant-id order.
    pub fn usages(&self) -> impl Iterator<Item = (TenantId, TenantUsage)> + '_ {
        self.tenants.iter().map(|(&id, t)| (id, t.usage))
    }

    /// Requests admission of a new flow. On [`Admission::Admitted`] the
    /// flow is open (holding a resident session) and may be fed;
    /// otherwise nothing changed and the refusal is recorded in the
    /// tenant's ledger.
    pub fn open(&mut self, stream: StreamId, spec: FlowSpec) -> Admission {
        let verdict = self.admit(stream, spec);
        if let Admission::Rejected(_) = verdict {
            self.tenant_entry(spec.tenant).usage.flows_rejected += 1;
        }
        verdict
    }

    fn admit(&mut self, stream: StreamId, spec: FlowSpec) -> Admission {
        if self.flows.contains_key(&stream) {
            return Admission::Rejected(RejectReason::DuplicateFlow);
        }
        if let Some(cap) = self.max_open {
            if self.batch.open_count() >= cap {
                return Admission::Rejected(RejectReason::TableFull);
            }
        }
        // Park our own victim before the table's built-in rule runs.
        self.make_room_for(stream);
        if !self.batch.open(stream) {
            return Admission::Rejected(RejectReason::DuplicateFlow);
        }
        let bucket = self.flow_rate.map(TokenBucket::new);
        self.flows.insert(
            stream,
            FlowCtl {
                spec,
                bucket,
                deferred: VecDeque::new(),
            },
        );
        let rate = self
            .tenant_rates
            .get(&spec.tenant)
            .copied()
            .or(self.default_tenant_rate);
        let tenant = self.tenant_entry(spec.tenant);
        if tenant.bucket.is_none() {
            tenant.bucket = rate.map(TokenBucket::new);
        }
        tenant.usage.flows_opened += 1;
        Admission::Admitted
    }

    fn tenant_entry(&mut self, tenant: TenantId) -> &mut TenantCtl {
        self.tenants.entry(tenant).or_default()
    }

    /// Feeds one chunk under the flow's and tenant's byte budgets,
    /// opening unknown flows implicitly with [`FlowSpec::default`]
    /// (an implicit open that is *refused* rejects the whole chunk).
    /// Budget-covered bytes run immediately; the remainder is deferred
    /// up to the buffer bound and rejected beyond it — see
    /// [`FeedVerdict`]. Previously-deferred bytes of the flow always
    /// drain before this chunk's bytes, preserving stream order.
    pub fn feed(&mut self, stream: StreamId, chunk: &[u8]) -> FeedVerdict {
        self.feed_with(stream, chunk, &mut NullObserver)
    }

    /// [`feed`](Self::feed) reporting every cycle to `observer` (energy
    /// accounting across the whole table).
    pub fn feed_with(
        &mut self,
        stream: StreamId,
        chunk: &[u8],
        observer: &mut impl ShardObserver,
    ) -> FeedVerdict {
        if !self.flows.contains_key(&stream) {
            let verdict = self.open(stream, FlowSpec::default());
            if !verdict.is_admitted() {
                self.tenant_entry(FlowSpec::default().tenant)
                    .usage
                    .bytes_rejected += chunk.len() as u64;
                return FeedVerdict {
                    rejected: chunk.len(),
                    ..FeedVerdict::default()
                };
            }
        }
        self.pump(stream, chunk, observer)
    }

    /// The shared feed/drain pump: grants budget over (already-deferred
    /// bytes ++ `chunk`), feeds the granted prefix, defers what the
    /// buffer can hold, rejects the rest.
    fn pump(
        &mut self,
        stream: StreamId,
        chunk: &[u8],
        observer: &mut impl ShardObserver,
    ) -> FeedVerdict {
        let mut verdict = FeedVerdict::default();
        {
            let flow = self
                .flows
                .get_mut(&stream)
                .expect("pump on an unopened flow");
            let tenant = self
                .tenants
                .get_mut(&flow.spec.tenant)
                .expect("flow with no tenant entry");

            let pending = flow.deferred.len();
            let want = (pending + chunk.len()) as u64;
            let avail = flow
                .bucket
                .as_ref()
                .map_or(u64::MAX, TokenBucket::available)
                .min(
                    tenant
                        .bucket
                        .as_ref()
                        .map_or(u64::MAX, TokenBucket::available),
                );
            let grant = want.min(avail) as usize;
            if let Some(bucket) = flow.bucket.as_mut() {
                bucket.take(grant as u64);
            }
            if let Some(bucket) = tenant.bucket.as_mut() {
                bucket.take(grant as u64);
            }

            // Granted bytes: deferred backlog first (stream order), then
            // this chunk's prefix.
            verdict.drained = grant.min(pending);
            verdict.admitted = grant - verdict.drained;
            self.feed_scratch.clear();
            self.feed_scratch
                .extend(flow.deferred.drain(..verdict.drained));
            self.deferred_total -= verdict.drained;
            self.feed_scratch
                .extend_from_slice(&chunk[..verdict.admitted]);

            // Ungranted bytes of this chunk: defer up to the bound.
            let rest = &chunk[verdict.admitted..];
            let room = self.defer_capacity - self.deferred_total;
            verdict.deferred = rest.len().min(room);
            flow.deferred.extend(&rest[..verdict.deferred]);
            self.deferred_total += verdict.deferred;
            verdict.rejected = rest.len() - verdict.deferred;

            tenant.usage.bytes_admitted += grant as u64;
            tenant.usage.bytes_deferred += verdict.deferred as u64;
            tenant.usage.bytes_rejected += verdict.rejected as u64;
        }
        if !self.feed_scratch.is_empty() {
            self.make_room_for(stream);
            let scratch = std::mem::take(&mut self.feed_scratch);
            self.batch.feed_sharded_with(stream, &scratch, observer);
            self.feed_scratch = scratch;
        }
        verdict
    }

    /// Advances the logical clock one tick — refills every bucket, then
    /// drains deferral queues in QoS order. Equivalent to
    /// [`advance`]`(1)`.
    ///
    /// [`advance`]: Self::advance
    pub fn tick(&mut self) -> FeedVerdict {
        self.advance(1)
    }

    /// Advances the logical clock by `ticks`: refills every token
    /// bucket, then drains deferred bytes — highest [`QosClass`] first,
    /// then tightest deadline, then lowest stream id — as far as the
    /// refilled budgets allow. Returns the aggregate drain outcome
    /// (`drained` = bytes that left the buffers for the datapath).
    pub fn advance(&mut self, ticks: u64) -> FeedVerdict {
        self.advance_with(ticks, &mut NullObserver)
    }

    /// [`advance`](Self::advance) reporting every drained cycle to
    /// `observer`.
    pub fn advance_with(&mut self, ticks: u64, observer: &mut impl ShardObserver) -> FeedVerdict {
        self.now = self.now.saturating_add(ticks);
        for flow in self.flows.values_mut() {
            if let Some(bucket) = flow.bucket.as_mut() {
                bucket.refill(ticks);
            }
        }
        for tenant in self.tenants.values_mut() {
            if let Some(bucket) = tenant.bucket.as_mut() {
                bucket.refill(ticks);
            }
        }

        // Drain order: class desc, slack asc (tight deadlines first),
        // stream id asc — fully deterministic regardless of map order.
        let now = self.now;
        self.drain_order.clear();
        for (&stream, flow) in &self.flows {
            if !flow.deferred.is_empty() {
                let slack = flow
                    .spec
                    .deadline
                    .map_or(i64::MAX, |d| d as i64 - now as i64);
                self.drain_order.push((stream, flow.spec.class, slack));
            }
        }
        self.drain_order
            .sort_by_key(|&(stream, class, slack)| (std::cmp::Reverse(class), slack, stream));

        let mut verdict = FeedVerdict::default();
        let order = std::mem::take(&mut self.drain_order);
        for &(stream, ..) in &order {
            verdict.absorb(self.pump(stream, &[], observer));
        }
        self.drain_order = order;
        verdict
    }

    /// Closes a flow and returns its accumulated result. Deferred bytes
    /// are **flushed through the datapath first** — budgets delay
    /// traffic, they never change what an admitted flow computes — so
    /// the result is bit-identical to an unlimited table's. Closing an
    /// unknown flow yields the empty result, like the raw table.
    pub fn close(&mut self, stream: StreamId) -> RunResult {
        self.close_with(stream, &mut NullObserver)
    }

    /// [`close`](Self::close) reporting every cycle it runs to
    /// `observer`: the flushed deferred bytes and a strided flow's final
    /// pair.
    pub fn close_with(&mut self, stream: StreamId, observer: &mut impl ShardObserver) -> RunResult {
        let Some(mut flow) = self.flows.remove(&stream) else {
            return self.batch.close_sharded_with(stream, observer);
        };
        if !flow.deferred.is_empty() {
            // Flush outside the budget: the bytes were already granted
            // deferral (counted in bytes_deferred) and close is the
            // deadline by definition.
            self.feed_scratch.clear();
            self.feed_scratch.extend(flow.deferred.drain(..));
            self.deferred_total -= self.feed_scratch.len();
            let flushed = self.feed_scratch.len() as u64;
            self.make_room_for(stream);
            let scratch = std::mem::take(&mut self.feed_scratch);
            self.batch.feed_sharded_with(stream, &scratch, observer);
            self.feed_scratch = scratch;
            self.tenant_entry(flow.spec.tenant).usage.bytes_admitted += flushed;
        }
        let result = self.batch.close_sharded_with(stream, observer);
        let tenant = self.tenant_entry(flow.spec.tenant);
        tenant.usage.flows_closed += 1;
        tenant.usage.cycles += result.activity.cycles as u64;
        tenant.usage.reports += result.reports.len() as u64;
        result
    }

    /// Drives the control plane from a length-prefixed wire chunk (the
    /// [`frame`](crate::frame) format): data frames feed, close frames
    /// close. Flows closed by the chunk land in `closed` in wire order;
    /// every feed whose verdict signalled backpressure lands in
    /// `backpressure`, so deferral and rejection stay visible even
    /// through the framed path. A flow first seen on the wire is opened
    /// implicitly with [`FlowSpec::default`]; pre-open flows with
    /// [`open`](Self::open) to attach real specs.
    ///
    /// # Errors
    ///
    /// Propagates the decoder's [`FrameError`] on a malformed header;
    /// earlier frames in the chunk have already been applied. At that
    /// point [`FrameDecoder::in_flight`] still attributes the
    /// partially-delivered frame to its stream (and, through the flow's
    /// spec, its tenant).
    pub fn ingest(
        &mut self,
        decoder: &mut FrameDecoder,
        wire: &[u8],
        closed: &mut Vec<(StreamId, RunResult)>,
        backpressure: &mut Vec<(StreamId, FeedVerdict)>,
    ) -> Result<(), FrameError> {
        decoder.feed(wire, |event| match event {
            FrameEvent::Data { stream, chunk } => {
                let verdict = self.feed(stream, chunk);
                if verdict.backpressure() {
                    backpressure.push((stream, verdict));
                }
            }
            FrameEvent::Close { stream } => closed.push((stream, self.close(stream))),
        })
    }

    /// Parks a policy-chosen victim when making `stream` resident would
    /// exceed the table's residency cap, so the built-in idle-then-LRU
    /// fallback never fires.
    fn make_room_for(&mut self, stream: StreamId) {
        let Some(cap) = self.batch.resident_cap() else {
            return;
        };
        if self.batch.is_resident(stream) || self.batch.resident_count() < cap {
            return;
        }
        let now = self.now;
        let batch = &self.batch;
        let flows = &self.flows;
        let load = &mut self.load_scratch;
        batch.shard_load_into(load);
        let candidates = &mut self.candidates;
        candidates.clear();
        batch.for_each_resident(|id, idle, last_touch| {
            let mut hot_shard_load = 0;
            batch.for_each_active_shard_of(id, |shard| {
                hot_shard_load = hot_shard_load.max(load[shard]);
            });
            let spec = flows.get(&id).map_or_else(FlowSpec::default, |f| f.spec);
            candidates.push(VictimCandidate {
                stream: id,
                tenant: spec.tenant,
                class: spec.class,
                deadline_slack: spec.deadline.map(|d| d as i64 - now as i64),
                idle,
                last_touch,
                hot_shard_load,
            });
        });
        if self.candidates.is_empty() {
            return;
        }
        let victim = self.policy.select(&self.candidates);
        let parked = self.batch.park(victim);
        debug_assert!(parked, "policy selected a non-resident victim");
    }
}

impl<P: StreamPlan, V: VictimPolicy> fmt::Display for ControlledBatch<'_, P, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ControlledBatch[{}]: {} open ({} resident, {} parked), {} B deferred",
            self.policy.name(),
            self.open_count(),
            self.resident_count(),
            self.parked_count(),
            self.deferred_total
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{encode_close, encode_frame};
    use crate::Simulator;
    use cama_core::compiled::ShardedAutomaton;
    use cama_core::regex;

    fn plan_for(pattern: &str) -> (cama_core::Nfa, CompiledAutomaton) {
        let nfa = regex::compile(pattern).unwrap();
        let plan = CompiledAutomaton::compile(&nfa);
        (nfa, plan)
    }

    #[test]
    fn unconfigured_control_plane_is_transparent() {
        let (nfa, plan) = plan_for("ab+c");
        let mut table = ControlledBatch::new(&plan, ControlConfig::new());
        let verdict = table.feed(1, b"zabbc");
        assert_eq!(verdict.admitted, 5);
        assert!(!verdict.backpressure());
        assert_eq!(table.close(1), Simulator::new(&nfa).run(b"zabbc"));
    }

    #[test]
    fn admission_rejects_duplicates_and_full_tables() {
        let (_, plan) = plan_for("a");
        let config = ControlConfig::new().max_open(2);
        let mut table = ControlledBatch::new(&plan, config);
        assert!(table.open(1, FlowSpec::new(0)).is_admitted());
        assert_eq!(
            table.open(1, FlowSpec::new(0)),
            Admission::Rejected(RejectReason::DuplicateFlow)
        );
        assert!(table.open(2, FlowSpec::new(1)).is_admitted());
        assert_eq!(
            table.open(3, FlowSpec::new(1)),
            Admission::Rejected(RejectReason::TableFull)
        );
        assert_eq!(table.usage(0).flows_opened, 1);
        assert_eq!(table.usage(0).flows_rejected, 1);
        assert_eq!(table.usage(1).flows_rejected, 1);
        // Closing frees the slot.
        table.close(1);
        assert!(table.open(3, FlowSpec::new(1)).is_admitted());
    }

    #[test]
    fn rate_limit_defers_and_drains_in_stream_order() {
        let (nfa, plan) = plan_for("ab+c");
        let config = ControlConfig::new().flow_rate(RateLimit::new(3, 1));
        let mut table = ControlledBatch::new(&plan, config);
        let verdict = table.feed(1, b"zabbc");
        assert_eq!(
            verdict,
            FeedVerdict {
                admitted: 3,
                deferred: 2,
                rejected: 0,
                drained: 0
            }
        );
        assert!(verdict.backpressure());
        assert_eq!(table.deferred_len(1), 2);
        // One tick refills one byte: one deferred byte drains.
        let drained = table.tick();
        assert_eq!(drained.drained, 1);
        assert_eq!(table.deferred_len(1), 1);
        // New bytes queue behind the backlog — order is preserved.
        let verdict = table.feed(1, b"c");
        assert_eq!(verdict.admitted, 0);
        assert_eq!(verdict.deferred, 1);
        let drained = table.advance(10);
        assert_eq!(drained.drained, 2);
        assert_eq!(table.deferred_total(), 0);
        assert_eq!(table.close(1), Simulator::new(&nfa).run(b"zabbcc"));
    }

    #[test]
    fn deferral_buffer_bound_rejects_explicitly() {
        let (_, plan) = plan_for("a");
        let config = ControlConfig::new()
            .flow_rate(RateLimit::new(2, 0))
            .defer_capacity(3);
        let mut table = ControlledBatch::new(&plan, config);
        let verdict = table.feed(1, b"aaaaaaaa");
        assert_eq!(
            verdict,
            FeedVerdict {
                admitted: 2,
                deferred: 3,
                rejected: 3,
                drained: 0
            }
        );
        let usage = table.usage(0);
        assert_eq!(usage.bytes_admitted, 2);
        assert_eq!(usage.bytes_deferred, 3);
        assert_eq!(usage.bytes_rejected, 3);
        // The bound is global across flows.
        let verdict = table.feed(2, b"aa");
        assert_eq!(verdict.deferred, 0);
        assert_eq!(verdict.rejected, 0);
        assert_eq!(verdict.admitted, 2, "flow 2 has its own bucket");
        let verdict = table.feed(2, b"aa");
        assert_eq!(verdict.rejected, 2, "buffer already full");
    }

    #[test]
    fn tenant_budget_is_shared_across_flows() {
        let (_, plan) = plan_for("a");
        let config = ControlConfig::new().tenant_rate(7, RateLimit::new(4, 0));
        let mut table = ControlledBatch::new(&plan, config);
        table.open(1, FlowSpec::new(7));
        table.open(2, FlowSpec::new(7));
        table.open(3, FlowSpec::new(8)); // different tenant, unlimited
        assert_eq!(table.feed(1, b"aaa").admitted, 3);
        let verdict = table.feed(2, b"aaa");
        assert_eq!(verdict.admitted, 1, "tenant budget exhausted");
        assert_eq!(verdict.deferred, 2);
        assert_eq!(table.feed(3, b"aaaaaa").admitted, 6);
    }

    #[test]
    fn close_flushes_deferred_bytes() {
        let (nfa, plan) = plan_for("ab+c");
        let config = ControlConfig::new().flow_rate(RateLimit::new(1, 0));
        let mut table = ControlledBatch::new(&plan, config);
        let verdict = table.feed(1, b"zabbc");
        assert_eq!(verdict.admitted, 1);
        assert_eq!(verdict.deferred, 4);
        // No ticks at all: close still runs the whole stream.
        assert_eq!(table.close(1), Simulator::new(&nfa).run(b"zabbc"));
        assert_eq!(table.deferred_total(), 0);
        assert_eq!(table.usage(0).bytes_admitted, 5);
    }

    /// Observed closes report the strided flush cycle: an odd-length
    /// flow's zero-padded final pair reaches the observer like every fed
    /// cycle — on flat and sharded 2-stride plans, through the stream
    /// table, and through the control plane with deferred bytes still
    /// pending at close.
    #[test]
    fn observed_close_reports_the_strided_flush_cycle() {
        use crate::activity::{ShardCycleSummary, ShardCycleView};
        use cama_core::compiled::CompiledStridedAutomaton;
        use cama_core::stride::StridedNfa;

        #[derive(Default)]
        struct CycleEnds(usize);
        impl ShardObserver for CycleEnds {
            fn on_shard_cycle(&mut self, _view: &ShardCycleView<'_>) {}
            fn on_cycle_end(&mut self, _summary: &ShardCycleSummary) {
                self.0 += 1;
            }
        }
        // "zabbc": two pair cycles, then the flush pair "c\0".
        fn check<P: StreamPlan>(plan: &P) {
            let mut batch = BatchSimulator::new(plan);
            let mut ends = CycleEnds::default();
            batch.feed_sharded_with(1, b"zabbc", &mut ends);
            let result = batch.close_sharded_with(1, &mut ends);
            assert_eq!((result.activity.cycles, ends.0), (3, 3));

            let config = ControlConfig::new().flow_rate(RateLimit::new(2, 0));
            let mut table = ControlledBatch::new(plan, config);
            let mut ends = CycleEnds::default();
            assert_eq!(table.feed_with(1, b"zabbc", &mut ends).deferred, 3);
            let result = table.close_with(1, &mut ends);
            assert_eq!(result.report_offsets(), vec![4]);
            assert_eq!((result.activity.cycles, ends.0), (3, 3));
        }
        let strided = StridedNfa::from_nfa(&regex::compile("ab+c").unwrap());
        check(&CompiledStridedAutomaton::compile(&strided));
        check(&ShardedAutomaton::compile(&strided, 2));
    }

    #[test]
    fn qos_policy_parks_background_before_realtime() {
        let (nfa, plan) = plan_for("ab+x");
        let config = ControlConfig::new().max_resident(2);
        let mut table = ControlledBatch::new(&plan, config);
        table.open(1, FlowSpec::new(0).with_class(QosClass::Realtime));
        table.open(2, FlowSpec::new(0).with_class(QosClass::Background));
        table.feed(1, b"ab"); // both active: class decides
        table.feed(2, b"ab");
        table.open(3, FlowSpec::new(1)); // needs a slot
        assert!(!table.batch().is_resident(2), "background flow parked");
        assert!(table.batch().is_resident(1));
        // Parking changed nothing about the results.
        table.feed(2, b"bx");
        assert_eq!(table.close(2), Simulator::new(&nfa).run(b"abbx"));
    }

    #[test]
    fn qos_policy_prefers_idle_and_respects_deadlines() {
        let (_, plan) = plan_for("ab+x");
        let config = ControlConfig::new().max_resident(2);
        let mut table = ControlledBatch::new(&plan, config);
        // Flow 1: Background but idle — parks first despite flow 2's
        // lower touch clock.
        table.open(1, FlowSpec::new(0).with_class(QosClass::Realtime));
        table.open(2, FlowSpec::new(0).with_class(QosClass::Background));
        table.feed(2, b"zz"); // idle
        table.feed(1, b"ab"); // active
        table.open(3, FlowSpec::new(1));
        assert!(!table.batch().is_resident(2), "idle flow is the victim");

        // Deadlines: the deadline-less active flow parks before the
        // tight-deadline one of the same class.
        let mut table = ControlledBatch::new(&plan, ControlConfig::new().max_resident(2));
        table.advance(10);
        table.open(4, FlowSpec::new(0).with_deadline(12)); // slack 2
        table.open(5, FlowSpec::new(0)); // no deadline
        table.feed(4, b"ab");
        table.feed(5, b"ab");
        table.open(6, FlowSpec::new(1));
        assert!(!table.batch().is_resident(5), "deadline-less flow parked");
        assert!(table.batch().is_resident(4));
    }

    #[test]
    fn qos_policy_parks_hot_shard_flows_first() {
        let nfa = regex::compile_set(&["ab+c", "xy+z"]).unwrap();
        let plan = ShardedAutomaton::compile_per_component(&nfa);
        let config = ControlConfig::new().max_resident(3);
        let mut table = ControlledBatch::new(&plan, config);
        // Two flows load the ab+c shard (hot), one the xy+z shard
        // (cold). All same class, all active, no deadlines.
        table.open(1, FlowSpec::new(0));
        table.open(2, FlowSpec::new(0));
        table.open(3, FlowSpec::new(1));
        table.feed(3, b"xy"); // cold shard, oldest touch
        table.feed(1, b"ab"); // hot shard
        table.feed(2, b"ab"); // hot shard
        table.open(4, FlowSpec::new(2));
        // Plain LRU would park flow 3; the fairness term protects the
        // cold-shard tenant and parks a hot-shard flow instead.
        assert!(table.batch().is_resident(3), "cold-shard flow survives");
        assert_eq!(
            [1, 2]
                .iter()
                .filter(|&&id| table.batch().is_resident(id))
                .count(),
            1,
            "one hot-shard flow parked"
        );
    }

    #[test]
    fn framed_ingest_surfaces_backpressure() {
        let (nfa, plan) = plan_for("ab+c");
        let config = ControlConfig::new().flow_rate(RateLimit::new(4, 0));
        let mut table = ControlledBatch::new(&plan, config);
        let mut wire = Vec::new();
        encode_frame(1, b"zabbc", &mut wire); // 5 bytes > 4-byte burst
        encode_frame(2, b"abc", &mut wire); // within budget
        encode_close(1, &mut wire);
        encode_close(2, &mut wire);
        let mut decoder = FrameDecoder::new();
        let (mut closed, mut backpressure) = (Vec::new(), Vec::new());
        for piece in wire.chunks(7) {
            table
                .ingest(&mut decoder, piece, &mut closed, &mut backpressure)
                .unwrap();
        }
        assert!(decoder.is_idle());
        // Flow 1 hit its budget (the exact verdict split depends on the
        // wire chunking; the totals must not).
        let (deferred, rejected): (usize, usize) = backpressure
            .iter()
            .filter(|(s, _)| *s == 1)
            .fold((0, 0), |(d, r), (_, v)| (d + v.deferred, r + v.rejected));
        assert_eq!(deferred, 1);
        assert_eq!(rejected, 0);
        assert!(backpressure.iter().all(|(s, _)| *s == 1));
        // Close flushed the deferred byte: results are exact.
        assert_eq!(closed.len(), 2);
        assert_eq!(closed[0].1, Simulator::new(&nfa).run(b"zabbc"));
        assert_eq!(closed[1].1, Simulator::new(&nfa).run(b"abc"));
    }

    #[test]
    fn ledger_sums_match_table_totals() {
        let (_, plan) = plan_for("ab+c");
        let config = ControlConfig::new().flow_rate(RateLimit::new(2, 1));
        let mut table = ControlledBatch::new(&plan, config);
        let streams: &[(StreamId, TenantId, &[u8])] = &[
            (1, 0, b"zabbc"),
            (2, 0, b"abc"),
            (3, 5, b"ababab"),
            (4, 9, b""),
        ];
        let mut total_bytes = 0u64;
        let mut total_reports = 0u64;
        let mut total_cycles = 0u64;
        for &(id, tenant, bytes) in streams {
            table.open(id, FlowSpec::new(tenant));
            table.feed(id, bytes);
            table.tick();
            total_bytes += bytes.len() as u64;
        }
        for &(id, ..) in streams {
            let result = table.close(id);
            total_reports += result.reports.len() as u64;
            total_cycles += result.activity.cycles as u64;
        }
        let summed = table
            .usages()
            .fold(TenantUsage::default(), |mut acc, (_, u)| {
                acc.flows_opened += u.flows_opened;
                acc.flows_closed += u.flows_closed;
                acc.bytes_admitted += u.bytes_admitted;
                acc.bytes_rejected += u.bytes_rejected;
                acc.cycles += u.cycles;
                acc.reports += u.reports;
                acc
            });
        assert_eq!(summed.flows_opened, 4);
        assert_eq!(summed.flows_closed, 4);
        assert_eq!(summed.bytes_admitted, total_bytes, "every byte ran");
        assert_eq!(summed.bytes_rejected, 0);
        assert_eq!(summed.cycles, total_cycles);
        assert_eq!(summed.reports, total_reports);
        assert_eq!(total_cycles, total_bytes, "one cycle per admitted byte");
    }

    #[test]
    fn feed_to_a_rejected_implicit_open_is_fully_rejected() {
        let (_, plan) = plan_for("a");
        let config = ControlConfig::new().max_open(1);
        let mut table = ControlledBatch::new(&plan, config);
        assert_eq!(table.feed(1, b"aa").admitted, 2);
        let verdict = table.feed(2, b"aaa");
        assert_eq!(verdict.rejected, 3);
        assert_eq!(verdict.admitted, 0);
        assert!(!table.batch().is_open(2));
        assert_eq!(table.usage(0).bytes_rejected, 3);
    }

    #[test]
    fn drain_order_follows_class_then_deadline() {
        let (_, plan) = plan_for("a");
        // Tenant-wide budget of 1 byte/tick makes the drain order
        // observable: exactly one deferred byte drains per tick.
        let config = ControlConfig::new().default_tenant_rate(RateLimit::new(1, 1));
        let mut table = ControlledBatch::new(&plan, config);
        table.open(1, FlowSpec::new(0).with_class(QosClass::Background));
        table.open(2, FlowSpec::new(0).with_class(QosClass::Realtime));
        table.open(3, FlowSpec::new(0).with_deadline(2)); // Standard, tight
        table.open(4, FlowSpec::new(0)); // Standard, no deadline
                                         // Exhaust the budget, then defer one byte per flow.
        assert_eq!(table.feed(9, b"a").admitted, 1);
        for id in 1..=4 {
            let verdict = table.feed(id, b"a");
            assert_eq!(verdict.deferred, 1, "flow {id}");
        }
        let order: Vec<StreamId> = (0..4)
            .map(|_| {
                let before: Vec<StreamId> =
                    (1..=4).filter(|&id| table.deferred_len(id) > 0).collect();
                table.tick();
                *before
                    .iter()
                    .find(|&&id| table.deferred_len(id) == 0)
                    .unwrap()
            })
            .collect();
        assert_eq!(
            order,
            vec![2, 3, 4, 1],
            "Realtime, tight Standard, Standard, Background"
        );
    }
}
