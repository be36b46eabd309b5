#ifndef HCPATH_SERVICE_SHARDED_SERVICE_H_
#define HCPATH_SERVICE_SHARDED_SERVICE_H_

#include <cstdint>
#include <future>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "core/batch_context.h"
#include "core/options.h"
#include "core/path.h"
#include "core/query.h"
#include "core/search.h"
#include "graph/graph_store.h"
#include "service/clock.h"
#include "service/fault_injector.h"
#include "service/path_engine.h"
#include "util/rng.h"
#include "util/status.h"

namespace hcpath {

/// How the router picks a query's primary shard (docs/SHARDING.md,
/// "Routing"). Both policies are deterministic functions of the submission
/// stream, so a run replays exactly.
enum class RoutingPolicy {
  /// Mix64 over (tenant, s, t, k): stable placement — the same query always
  /// lands on the same shard, which keeps per-shard endpoint caches warm.
  kHash,
  /// Strict rotation over serving shards: best load spread for adversarial
  /// key distributions.
  kRoundRobin,
};

const char* RoutingPolicyName(RoutingPolicy policy);

/// Supervisor health states for one shard (docs/SHARDING.md, "Supervisor
/// state machine"): healthy → suspect → down → restarting → healthy.
enum class ShardHealth {
  kHealthy,
  kSuspect,     ///< missed >= suspect_after_missed heartbeats
  kDown,        ///< missed >= down_after_missed: failed over, restart queued
  kRestarting,  ///< rebuilding from the shared GraphStore snapshot
};

const char* ShardHealthName(ShardHealth health);

struct ShardedServiceOptions {
  int num_shards = 2;
  RoutingPolicy routing = RoutingPolicy::kHash;

  /// Pipeline configuration every shard runs with; each dispatch is a
  /// one-query RunPipeline call.
  BatchOptions batch;

  /// Materialize each completed query's paths into QueryResult::paths when
  /// no per-batch sink is given. Sinks always stream in submission order.
  bool collect_paths = true;

  /// Virtual service time one attempt occupies its shard for. Shards are
  /// single servers in virtual time: attempts queue FIFO behind
  /// busy_until. (Real enumeration work happens at the completion event
  /// and is byte-deterministic regardless of when it runs.)
  double service_time_seconds = 0.01;

  /// Overall per-query deadline in virtual seconds; 0 disables. Expiry is
  /// terminal (kDeadlineExceeded) and cancels outstanding attempts.
  double deadline_seconds = 0;
  /// Per-attempt timeout measured from dispatch (queue wait included);
  /// 0 disables. A timed-out attempt counts as kUnavailable and feeds the
  /// retry path — this is the only way a dropped reply is ever detected.
  double attempt_timeout_seconds = 0;

  /// Bounded retry for dispatch-layer kUnavailable failures only.
  /// Pipeline errors (e.g. a max_paths ResourceExhausted) are
  /// deterministic replies and are never redispatched.
  int max_retries = 2;
  double retry_backoff_seconds = 0.05;  ///< base of the exponential
  double retry_backoff_multiplier = 2.0;
  /// Backoff is scaled by (1 + jitter * u), u uniform in [0,1) from a
  /// seeded RNG — deterministic per (seed, retry ordinal).
  double retry_jitter_fraction = 0.1;
  uint64_t seed = 0x9E3779B97F4A7C15ull;

  /// Hedged dispatch: when an attempt is still unanswered past the hedge
  /// threshold, re-dispatch to a same-epoch sibling; first reply wins and
  /// the loser is cancelled. Replicated shards make either reply
  /// byte-identical, so hedging never affects results — only latency.
  bool enable_hedging = false;
  /// Cold-start threshold, used until hedge_min_samples latencies exist.
  double hedge_after_seconds = 0.2;
  double hedge_quantile = 0.9;   ///< of recent attempt latencies
  double hedge_multiplier = 2.0; ///< threshold = quantile * multiplier
  int hedge_min_samples = 8;

  /// Heartbeat cadence and the missed-beat thresholds that drive the
  /// health state machine. A hung or crashed shard stops beating; the
  /// supervisor only ever observes missed beats.
  double heartbeat_interval_seconds = 0.05;
  int suspect_after_missed = 2;
  int down_after_missed = 4;
  /// Down → restart-begin delay, then restart-begin → serving duration
  /// (snapshot re-pin happens at restart completion).
  double restart_delay_seconds = 0.1;
  double restart_duration_seconds = 0.2;

  Status Validate() const;
};

/// Per-shard counters; every attempt ends in exactly one of
/// {completions, failures, cancelled, dropped_replies} or is still
/// in flight, so dispatches reconcile as an identity (GetStats checks it).
struct ShardStats {
  uint64_t dispatches = 0;
  uint64_t completions = 0;
  uint64_t failures = 0;
  uint64_t cancelled = 0;
  uint64_t dropped_replies = 0;
  uint64_t crashes = 0;
  uint64_t restarts = 0;
  ShardHealth health = ShardHealth::kHealthy;
  uint64_t epoch = 0;  ///< epoch of the currently pinned snapshot
};

struct ShardedServiceStats {
  // Query-level conservation: submitted == completed + failed + rejected
  // once the service is idle (rejected = failed admission-time validation).
  uint64_t queries_submitted = 0;
  uint64_t queries_completed = 0;
  uint64_t queries_failed = 0;
  uint64_t queries_rejected = 0;
  /// Queries the event loop could never resolve (a fault schedule with no
  /// detection path, e.g. drop-reply with attempt timeouts disabled).
  /// RunToCompletion fails them with kInternal rather than stalling the
  /// merge; any nonzero value is a test/bench failure.
  uint64_t queries_stalled = 0;

  // Attempt-level conservation:
  // dispatches == completed + failed + cancelled + dropped + in_flight.
  uint64_t dispatches = 0;
  uint64_t attempts_completed = 0;
  uint64_t attempts_failed = 0;
  uint64_t attempts_cancelled = 0;
  uint64_t attempts_dropped = 0;
  uint64_t attempts_in_flight = 0;

  uint64_t retries = 0;          ///< kRetryDue dispatches
  uint64_t hedges = 0;           ///< hedge attempts launched
  uint64_t hedged_wins = 0;      ///< queries whose winning reply was a hedge
  uint64_t failovers = 0;        ///< in-flight attempts failed by down shards
  uint64_t attempt_timeouts = 0;
  uint64_t deadline_expired = 0;

  std::vector<ShardStats> shards;
};

/// An in-process sharded serving layer over N replicated-graph shards
/// (docs/SHARDING.md). Each shard pins one GraphStore snapshot and runs
/// the same enumeration pipeline as PathEngine; the router partitions the
/// query stream; per-batch results merge back in submission order, so a
/// batch's output is byte-identical to a 1-shard no-fault reference for
/// every query that completes.
///
/// The whole layer is a discrete-event simulation over the Clock seam:
/// deadlines, retries with jittered backoff, hedged dispatch, heartbeats,
/// crash detection, restart, and the scripted FaultInjector all advance on
/// virtual time via Step()/RunToCompletion(). One driver thread steps the
/// service; enumeration itself may use the configured thread pool (output
/// is thread-count-invariant by the core contract).
///
/// The partitioned-graph mode (each shard owning a subgraph, with
/// cross-shard path stitching) is a documented follow-up; see
/// docs/SHARDING.md "Follow-ups".
class ShardedPathService {
 public:
  /// Store-backed: every shard pins store->Current() at construction and
  /// re-pins at restart completion.
  ShardedPathService(GraphStore* store, const ShardedServiceOptions& options,
                     Clock* clock = nullptr,
                     FaultInjector* injector = nullptr);
  /// Fixed-graph: shards share `graph` (not owned, must outlive the
  /// service); epoch is 0 everywhere and restarts re-pin the same graph.
  ShardedPathService(const Graph* graph,
                     const ShardedServiceOptions& options,
                     Clock* clock = nullptr,
                     FaultInjector* injector = nullptr);

  ~ShardedPathService();

  ShardedPathService(const ShardedPathService&) = delete;
  ShardedPathService& operator=(const ShardedPathService&) = delete;

  /// Construction-time failure (options validation), checked before use.
  Status init_status() const { return init_status_; }

  /// Submits a batch under `tenant`. Each query is validated individually;
  /// invalid queries fail their future with InvalidArgument and occupy a
  /// zero-path slot in the merge (the merge never stalls on them). All
  /// futures resolve in submission order as the ordered merge drains; when
  /// `sink` is non-null, paths stream to it in submission order with
  /// query_index = position in `queries`.
  std::vector<std::future<QueryResult>> SubmitBatch(
      const std::string& tenant, const std::vector<PathQuery>& queries,
      PathSink* sink = nullptr);

  /// Fires every event due at clock->Now() or earlier, in (time, submit
  /// sequence) order. Returns the number of events processed.
  size_t Step();

  /// Virtual timestamp of the next pending event, or a negative value when
  /// idle. Drive loops as: AdvanceTo(NextEventSeconds()); Step().
  double NextEventSeconds() const;

  /// True when no events are pending (all submitted work resolved or
  /// stalled; see RunToCompletion for the stall backstop).
  bool Idle() const;

  /// Advances `clock` event-to-event until Idle(). Any query left
  /// unresolved with an empty event heap (an undetectable fault schedule)
  /// is failed with kInternal and counted in queries_stalled, so the merge
  /// always completes.
  void RunToCompletion(VirtualClock* clock);

  ShardedServiceStats GetStats() const;
  ShardHealth shard_health(int shard) const;
  /// Epoch pinned by `shard` right now (changes across restarts).
  uint64_t shard_epoch(int shard) const;

  const ShardedServiceOptions& options() const { return options_; }

 private:
  enum class EventType {
    kDispatchDone,
    kAttemptTimeout,
    kRetryDue,
    kHedgeDue,
    kDeadline,
    kHeartbeat,
    kRestartBegin,
    kRestartDone,
  };

  struct Event {
    double time = 0;
    uint64_t seq = 0;  ///< tie-break: events at equal time fire in push order
    EventType type = EventType::kHeartbeat;
    uint64_t id = 0;  ///< attempt / query / shard id depending on type
  };
  struct EventAfter {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  enum class AttemptState { kInFlight, kCompleted, kFailed, kCancelled,
                            kDropped };
  struct Attempt {
    uint64_t query_id = 0;
    int shard = 0;
    bool is_hedge = false;
    bool drop_reply = false;
    AttemptState state = AttemptState::kInFlight;
    double dispatch_time = 0;  ///< when the attempt entered the shard queue
    double done_time = 0;      ///< scheduled completion (0: none, crashed)
  };

  enum class QueryState { kPending, kCompleted, kFailed };
  struct QueryRec {
    std::string tenant;
    PathQuery query;
    uint64_t batch = 0;
    size_t index_in_batch = 0;
    QueryState state = QueryState::kPending;
    Status final_status;
    PathSet paths;
    uint64_t path_count = 0;
    uint64_t graph_epoch = 0;
    double submit_time = 0;
    double finish_time = 0;
    double first_service_start = -1;
    int retries_used = 0;
    int last_shard = -1;
    bool hedged = false;         ///< a hedge attempt was launched
    bool won_by_hedge = false;
    bool emitted = false;        ///< drained by the ordered merge
    std::vector<uint64_t> outstanding;  ///< attempt ids not yet terminal
    std::promise<QueryResult> promise;
  };

  struct BatchRec {
    PathSink* sink = nullptr;
    std::vector<uint64_t> query_ids;
    size_t next_emit = 0;
  };

  struct Shard {
    bool alive = true;
    ShardHealth health = ShardHealth::kHealthy;
    std::shared_ptr<const GraphSnapshot> snapshot;  ///< store mode pin
    const Graph* graph = nullptr;  ///< points into snapshot or fixed graph
    uint64_t epoch = 0;
    ResolvedKernel kernel;
    std::unique_ptr<BatchContext> ctx;
    uint64_t dispatch_ordinal = 0;  ///< per-shard count fed to the injector
    double busy_until = 0;
    double hang_until = 0;  ///< heartbeats suppressed before this time
    int missed_beats = 0;
    bool heartbeat_armed = false;
    std::vector<uint64_t> outstanding;  ///< in-flight attempt ids
    ShardStats stats;
  };

  void Init();
  void PinShard(Shard* shard);
  bool ShardServing(const Shard& shard) const;
  int RouteQuery(const std::string& tenant, const PathQuery& q);
  int NextServingShard(int after) const;
  int HedgeSibling(const QueryRec& q, int primary) const;
  double HedgeThresholdLocked() const;
  double BackoffSeconds(int retry_ordinal);

  void PushEvent(double time, EventType type, uint64_t id);
  void ArmHeartbeatLocked(int shard_id);
  bool AnyOutstandingLocked() const;
  /// True when pending queries exist but only heartbeat events remain and
  /// every shard is alive, healthy, and past any injected hang — i.e. no
  /// future event can resolve them (RunToCompletion's backstop trigger).
  bool QuiescentlyStalledLocked() const;

  void DispatchAttempt(uint64_t query_id, int shard_id, bool is_hedge);
  void HandleDispatchDone(uint64_t attempt_id);
  void HandleAttemptTimeout(uint64_t attempt_id);
  void HandleRetryDue(uint64_t query_id);
  void HandleHedgeDue(uint64_t attempt_id);
  void HandleDeadline(uint64_t query_id);
  void HandleHeartbeat(uint64_t shard_id);
  void HandleRestartBegin(uint64_t shard_id);
  void HandleRestartDone(uint64_t shard_id);
  void TransitionDown(int shard_id);

  /// Runs one query on a shard's pinned graph; fills paths/count. The
  /// per-query result is batch-composition-independent (core determinism
  /// contract), which is the whole parity argument.
  Status ExecuteOnShard(Shard* shard, const PathQuery& q, PathSet* paths,
                        uint64_t* count);

  void AttemptFailed(uint64_t attempt_id, const Status& status);
  void CompleteQuery(uint64_t query_id, uint64_t attempt_id,
                     PathSet&& paths, uint64_t count, uint64_t epoch,
                     const Status& status);
  void FailQuery(uint64_t query_id, const Status& status);
  void CancelOutstanding(QueryRec* q, uint64_t except_attempt);
  void DrainBatch(uint64_t batch_id);
  void RecordLatencySample(double seconds);

  ShardedServiceOptions options_;
  Status init_status_;
  GraphStore* store_ = nullptr;     ///< null in fixed-graph mode
  const Graph* fixed_graph_ = nullptr;
  std::unique_ptr<Clock> owned_clock_;
  Clock* clock_ = nullptr;
  FaultInjector* injector_ = nullptr;  ///< null = inert (production)

  mutable std::mutex mu_;
  std::vector<Shard> shards_;
  std::vector<QueryRec> queries_;
  std::vector<Attempt> attempts_;
  std::vector<BatchRec> batches_;
  std::priority_queue<Event, std::vector<Event>, EventAfter> events_;
  uint64_t event_seq_ = 0;
  /// Non-heartbeat events currently in the heap. Heartbeats self-renew
  /// while queries are outstanding, so "heap empty" is the wrong idle
  /// test during a stall — this counter is the progress-possible test.
  size_t pending_work_events_ = 0;
  /// Simulation "now": the clock at SubmitBatch entry, or the firing
  /// event's own timestamp inside Step(). Follow-up events (heartbeats,
  /// backoffs, restart chains) schedule relative to THIS, not to
  /// clock_->Now(), so a driver that advances the clock coarsely (past
  /// several due events at once) replays the same timeline as one that
  /// advances event-to-event.
  double now_ = 0;
  uint64_t round_robin_next_ = 0;
  Rng rng_;

  /// Ring of recent attempt latencies feeding the hedge quantile.
  std::vector<double> latency_ring_;
  size_t latency_next_ = 0;
  size_t latency_count_ = 0;

  ShardedServiceStats stats_;
  /// Queries drained by the ordered merge whose promises are still to be
  /// resolved. Resolution happens after releasing mu_ (set_value may run
  /// caller continuations; never do that under the service lock); ids, not
  /// pointers, because queries_ reallocates while a batch is submitting.
  std::vector<std::pair<uint64_t, QueryResult>> resolved_;
  void FlushResolvedLocked(std::unique_lock<std::mutex>* lk);
};

}  // namespace hcpath

#endif  // HCPATH_SERVICE_SHARDED_SERVICE_H_
