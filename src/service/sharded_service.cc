#include "service/sharded_service.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/enumerator.h"
#include "service/admission_status.h"
#include "util/hash.h"
#include "util/logging.h"

namespace hcpath {

namespace {
constexpr size_t kLatencyRingSize = 256;
}  // namespace

const char* RoutingPolicyName(RoutingPolicy policy) {
  switch (policy) {
    case RoutingPolicy::kHash:
      return "hash";
    case RoutingPolicy::kRoundRobin:
      return "round-robin";
  }
  return "unknown";
}

const char* ShardHealthName(ShardHealth health) {
  switch (health) {
    case ShardHealth::kHealthy:
      return "healthy";
    case ShardHealth::kSuspect:
      return "suspect";
    case ShardHealth::kDown:
      return "down";
    case ShardHealth::kRestarting:
      return "restarting";
  }
  return "unknown";
}

Status ShardedServiceOptions::Validate() const {
  if (num_shards < 1) {
    return Status::InvalidArgument("num_shards must be >= 1, got " +
                                   std::to_string(num_shards));
  }
  HCPATH_RETURN_NOT_OK(batch.Validate());
  if (service_time_seconds < 0) {
    return Status::InvalidArgument("service_time_seconds must be >= 0");
  }
  if (deadline_seconds < 0 || attempt_timeout_seconds < 0) {
    return Status::InvalidArgument(
        "deadline_seconds and attempt_timeout_seconds must be >= 0");
  }
  if (max_retries < 0) {
    return Status::InvalidArgument("max_retries must be >= 0");
  }
  if (retry_backoff_seconds < 0 || retry_backoff_multiplier < 1.0) {
    return Status::InvalidArgument(
        "retry backoff needs base >= 0 and multiplier >= 1");
  }
  if (retry_jitter_fraction < 0) {
    return Status::InvalidArgument("retry_jitter_fraction must be >= 0");
  }
  if (enable_hedging &&
      (hedge_after_seconds <= 0 || hedge_quantile <= 0 ||
       hedge_quantile > 1.0 || hedge_multiplier < 1.0 ||
       hedge_min_samples < 1)) {
    return Status::InvalidArgument(
        "hedging needs hedge_after_seconds > 0, quantile in (0,1], "
        "multiplier >= 1, min_samples >= 1");
  }
  if (heartbeat_interval_seconds <= 0) {
    return Status::InvalidArgument(
        "heartbeat_interval_seconds must be > 0: heartbeats are the only "
        "crash-detection path");
  }
  if (suspect_after_missed < 1 || down_after_missed < suspect_after_missed) {
    return Status::InvalidArgument(
        "need 1 <= suspect_after_missed <= down_after_missed");
  }
  if (restart_delay_seconds < 0 || restart_duration_seconds < 0) {
    return Status::InvalidArgument("restart timings must be >= 0");
  }
  return Status::OK();
}

ShardedPathService::ShardedPathService(GraphStore* store,
                                       const ShardedServiceOptions& options,
                                       Clock* clock, FaultInjector* injector)
    : options_(options), store_(store), clock_(clock), injector_(injector),
      rng_(options.seed) {
  Init();
}

ShardedPathService::ShardedPathService(const Graph* graph,
                                       const ShardedServiceOptions& options,
                                       Clock* clock, FaultInjector* injector)
    : options_(options), fixed_graph_(graph), clock_(clock),
      injector_(injector), rng_(options.seed) {
  Init();
}

void ShardedPathService::Init() {
  init_status_ = options_.Validate();
  if (!init_status_.ok()) return;
  if (clock_ == nullptr) clock_ = &WallClock::Default();
  latency_ring_.assign(kLatencyRingSize, 0.0);
  now_ = clock_->Now();
  shards_.resize(static_cast<size_t>(options_.num_shards));
  stats_.shards.resize(shards_.size());
  for (Shard& shard : shards_) {
    shard.ctx = std::make_unique<BatchContext>();
    shard.ctx->PoolFor(options_.batch.num_threads);
    shard.busy_until = now_;
    PinShard(&shard);
  }
}

ShardedPathService::~ShardedPathService() = default;

void ShardedPathService::PinShard(Shard* shard) {
  if (store_ != nullptr) {
    shard->snapshot = store_->Current();
    shard->graph = &shard->snapshot->graph;
    shard->epoch = shard->snapshot->epoch;
  } else {
    shard->graph = fixed_graph_;
    shard->epoch = 0;
  }
  shard->kernel = ResolveKernel(options_.batch.kernel_mode, *shard->graph);
  shard->stats.epoch = shard->epoch;
}

bool ShardedPathService::ShardServing(const Shard& shard) const {
  return shard.alive && (shard.health == ShardHealth::kHealthy ||
                         shard.health == ShardHealth::kSuspect);
}

int ShardedPathService::RouteQuery(const std::string& tenant,
                                   const PathQuery& q) {
  const int n = options_.num_shards;
  if (options_.routing == RoutingPolicy::kRoundRobin) {
    return static_cast<int>(round_robin_next_++ % static_cast<uint64_t>(n));
  }
  uint64_t h = 0;
  for (char c : tenant) HashCombine(h, static_cast<uint64_t>(c));
  HashCombine(h, static_cast<uint64_t>(q.s));
  HashCombine(h, static_cast<uint64_t>(q.t));
  HashCombine(h, static_cast<uint64_t>(q.k));
  return static_cast<int>(Mix64(h) % static_cast<uint64_t>(n));
}

int ShardedPathService::NextServingShard(int after) const {
  const int n = options_.num_shards;
  for (int i = 1; i <= n; ++i) {
    const int cand = (after + i) % n;
    if (ShardServing(shards_[static_cast<size_t>(cand)])) return cand;
  }
  // Nothing is serving: return the rotation anyway; the dispatch fails
  // with kUnavailable and the bounded retry budget decides the outcome
  // (graceful degradation, not a stall).
  return (after + 1) % n;
}

int ShardedPathService::HedgeSibling(const QueryRec& q, int primary) const {
  const int n = options_.num_shards;
  const uint64_t epoch = shards_[static_cast<size_t>(primary)].epoch;
  for (int i = 1; i < n; ++i) {
    const int cand = (primary + i) % n;
    const Shard& s = shards_[static_cast<size_t>(cand)];
    // Hedging must not change bytes: only a replica pinning the same
    // snapshot epoch is a valid sibling (docs/SHARDING.md, "Determinism").
    if (ShardServing(s) && s.epoch == epoch) return cand;
  }
  (void)q;
  return -1;
}

double ShardedPathService::HedgeThresholdLocked() const {
  if (latency_count_ < static_cast<size_t>(options_.hedge_min_samples)) {
    return options_.hedge_after_seconds;
  }
  std::vector<double> samples(latency_ring_.begin(),
                              latency_ring_.begin() +
                                  static_cast<long>(latency_count_));
  std::sort(samples.begin(), samples.end());
  const size_t idx = std::min(
      samples.size() - 1,
      static_cast<size_t>(options_.hedge_quantile *
                          static_cast<double>(samples.size())));
  return samples[idx] * options_.hedge_multiplier;
}

double ShardedPathService::BackoffSeconds(int retry_ordinal) {
  const double base = options_.retry_backoff_seconds *
                      std::pow(options_.retry_backoff_multiplier,
                               static_cast<double>(retry_ordinal));
  // Jitter is multiplicative and comes from the seeded RNG: the ordinal
  // position of this draw in the event-processing order is deterministic,
  // so a schedule replays exactly under VirtualClock.
  return base * (1.0 + options_.retry_jitter_fraction * rng_.NextDouble());
}

void ShardedPathService::PushEvent(double time, EventType type,
                                   uint64_t id) {
  if (type != EventType::kHeartbeat) ++pending_work_events_;
  events_.push(Event{time, event_seq_++, type, id});
}

bool ShardedPathService::QuiescentlyStalledLocked() const {
  // A pending query is stalled when nothing but heartbeats remains in the
  // heap AND every shard is nominal: heartbeats only produce query
  // progress through failure detection (missed beats -> down -> failover
  // -> retry), so with every shard alive, healthy, and past any injected
  // hang, no future event can resolve the query. Without this check the
  // heartbeat re-arm (which keeps beating while queries are outstanding)
  // would keep the heap non-empty forever and the RunToCompletion
  // backstop would be unreachable.
  if (pending_work_events_ > 0 || !AnyOutstandingLocked()) return false;
  for (const Shard& shard : shards_) {
    if (!shard.alive || shard.health != ShardHealth::kHealthy ||
        shard.hang_until > now_) {
      return false;
    }
  }
  return true;
}

bool ShardedPathService::AnyOutstandingLocked() const {
  return stats_.queries_submitted >
         stats_.queries_completed + stats_.queries_failed +
             stats_.queries_rejected;
}

void ShardedPathService::ArmHeartbeatLocked(int shard_id) {
  Shard& shard = shards_[static_cast<size_t>(shard_id)];
  if (shard.heartbeat_armed) return;
  shard.heartbeat_armed = true;
  PushEvent(now_ + options_.heartbeat_interval_seconds,
            EventType::kHeartbeat, static_cast<uint64_t>(shard_id));
}

std::vector<std::future<QueryResult>> ShardedPathService::SubmitBatch(
    const std::string& tenant, const std::vector<PathQuery>& queries,
    PathSink* sink) {
  std::vector<std::future<QueryResult>> futures;
  futures.reserve(queries.size());
  std::unique_lock<std::mutex> lk(mu_);
  HCPATH_CHECK(init_status_.ok());
  now_ = std::max(now_, clock_->Now());
  const double now = now_;
  const uint64_t batch_id = static_cast<uint64_t>(batches_.size());
  batches_.push_back(BatchRec{sink, {}, 0});
  BatchRec& batch = batches_.back();
  batch.query_ids.reserve(queries.size());

  // Validation graph: what the router sees now. All shards pinned the same
  // snapshot unless a restart re-pinned a newer one; validation is
  // endpoint-range + hop-bound checks, identical across those.
  const Graph* vg = fixed_graph_;
  std::shared_ptr<const GraphSnapshot> vsnap;
  if (store_ != nullptr) {
    vsnap = store_->Current();
    vg = &vsnap->graph;
  }

  for (size_t i = 0; i < queries.size(); ++i) {
    const uint64_t qid = static_cast<uint64_t>(queries_.size());
    queries_.emplace_back();
    QueryRec& rec = queries_.back();
    rec.tenant = tenant;
    rec.query = queries[i];
    rec.batch = batch_id;
    rec.index_in_batch = i;
    rec.submit_time = now;
    batch.query_ids.push_back(qid);
    futures.push_back(rec.promise.get_future());
    ++stats_.queries_submitted;

    const std::vector<PathQuery> one{queries[i]};
    Status v = ValidateQueries(*vg, one);
    if (!v.ok()) {
      // Individual rejection: the query occupies a zero-path slot in the
      // merge so a bad query never stalls its batch.
      ++stats_.queries_rejected;
      rec.state = QueryState::kFailed;
      rec.final_status = std::move(v);
      rec.finish_time = now;
      continue;
    }

    if (options_.deadline_seconds > 0) {
      PushEvent(now + options_.deadline_seconds, EventType::kDeadline, qid);
    }
    DispatchAttempt(qid, RouteQuery(tenant, queries[i]), /*is_hedge=*/false);
  }
  for (int s = 0; s < options_.num_shards; ++s) ArmHeartbeatLocked(s);
  DrainBatch(batch_id);  // resolve any all-rejected prefix immediately
  FlushResolvedLocked(&lk);
  return futures;
}

void ShardedPathService::DispatchAttempt(uint64_t query_id, int shard_id,
                                         bool is_hedge) {
  QueryRec& q = queries_[query_id];
  Shard& shard = shards_[static_cast<size_t>(shard_id)];
  const double now = now_;

  const uint64_t aid = static_cast<uint64_t>(attempts_.size());
  attempts_.emplace_back();
  Attempt& a = attempts_.back();
  a.query_id = query_id;
  a.shard = shard_id;
  a.is_hedge = is_hedge;
  a.dispatch_time = now;
  q.last_shard = shard_id;
  if (is_hedge) q.hedged = true;
  ++stats_.dispatches;
  ++shard.stats.dispatches;

  if (!ShardServing(shard)) {
    // Routed into a down/restarting shard: immediate dispatch-layer
    // failure; the retry budget decides whether a sibling absorbs it.
    a.state = AttemptState::kFailed;
    ++stats_.attempts_failed;
    ++shard.stats.failures;
    AttemptFailed(aid, ShardUnavailableStatus(
                           shard_id, std::string(ShardHealthName(
                                         shard.health)) +
                                         ", not serving"));
    return;
  }

  FaultDecision fault;
  if (injector_ != nullptr) {
    fault = injector_->OnDispatch(shard_id, shard.dispatch_ordinal);
  }
  ++shard.dispatch_ordinal;

  if (fault.crash) {
    // The shard process dies mid-dispatch: no reply will ever arrive for
    // this or any queued attempt. Detection is heartbeat-only.
    shard.alive = false;
    ++shard.stats.crashes;
    q.outstanding.push_back(aid);
    shard.outstanding.push_back(aid);
    return;
  }
  if (fault.fail) {
    a.state = AttemptState::kFailed;
    ++stats_.attempts_failed;
    ++shard.stats.failures;
    AttemptFailed(aid, ShardUnavailableStatus(shard_id,
                                              "injected transient failure"));
    return;
  }

  a.drop_reply = fault.drop_reply;
  const double service =
      options_.service_time_seconds * fault.slow_factor + fault.hang_seconds;
  const double start = std::max(now, shard.busy_until);
  a.done_time = start + service;
  shard.busy_until = a.done_time;
  if (fault.hang_seconds > 0) {
    // A hung shard stops heartbeating until the stall clears.
    shard.hang_until = std::max(shard.hang_until, start + fault.hang_seconds);
  }
  if (q.first_service_start < 0) q.first_service_start = start;
  q.outstanding.push_back(aid);
  shard.outstanding.push_back(aid);
  PushEvent(a.done_time, EventType::kDispatchDone, aid);
  if (options_.attempt_timeout_seconds > 0) {
    PushEvent(now + options_.attempt_timeout_seconds,
              EventType::kAttemptTimeout, aid);
  }
  if (options_.enable_hedging && !is_hedge && options_.num_shards > 1) {
    PushEvent(now + HedgeThresholdLocked(), EventType::kHedgeDue, aid);
  }
}

Status ShardedPathService::ExecuteOnShard(Shard* shard, const PathQuery& q,
                                          PathSet* paths, uint64_t* count) {
  CollectingSink sink(1);
  BatchStats bstats;
  const Status st = RunPipeline(*shard->graph, {q}, options_.batch,
                                shard->kernel, &sink, &bstats,
                                shard->ctx.get());
  if (st.ok()) {
    *count = sink.paths(0).size();
    paths->AppendSet(sink.paths(0));
  }
  return st;
}

size_t ShardedPathService::Step() {
  std::unique_lock<std::mutex> lk(mu_);
  const double now = clock_->Now();
  size_t processed = 0;
  while (!events_.empty() && events_.top().time <= now) {
    const Event ev = events_.top();
    events_.pop();
    if (ev.type != EventType::kHeartbeat) --pending_work_events_;
    ++processed;
    now_ = std::max(now_, ev.time);
    switch (ev.type) {
      case EventType::kDispatchDone:
        HandleDispatchDone(ev.id);
        break;
      case EventType::kAttemptTimeout:
        HandleAttemptTimeout(ev.id);
        break;
      case EventType::kRetryDue:
        HandleRetryDue(ev.id);
        break;
      case EventType::kHedgeDue:
        HandleHedgeDue(ev.id);
        break;
      case EventType::kDeadline:
        HandleDeadline(ev.id);
        break;
      case EventType::kHeartbeat:
        HandleHeartbeat(ev.id);
        break;
      case EventType::kRestartBegin:
        HandleRestartBegin(ev.id);
        break;
      case EventType::kRestartDone:
        HandleRestartDone(ev.id);
        break;
    }
  }
  FlushResolvedLocked(&lk);
  return processed;
}

double ShardedPathService::NextEventSeconds() const {
  std::lock_guard<std::mutex> lk(mu_);
  if (events_.empty()) return -1;
  return events_.top().time;
}

bool ShardedPathService::Idle() const {
  std::lock_guard<std::mutex> lk(mu_);
  return events_.empty();
}

void ShardedPathService::RunToCompletion(VirtualClock* clock) {
  while (true) {
    const double next = NextEventSeconds();
    if (next < 0) break;
    {
      std::lock_guard<std::mutex> lk(mu_);
      // Only heartbeats left, every shard nominal, queries still pending:
      // no event can make progress — fall through to the backstop instead
      // of beating forever.
      if (QuiescentlyStalledLocked()) break;
    }
    clock->AdvanceTo(std::max(next, clock->Now()));
    Step();
  }
  // Backstop: a fault schedule with no detection path (e.g. drop-reply and
  // attempt timeouts disabled) leaves queries unresolvable. Fail them
  // loudly instead of stalling the merge; queries_stalled != 0 is a bug in
  // the schedule or the configuration, and tests assert it is zero.
  std::unique_lock<std::mutex> lk(mu_);
  for (uint64_t qid = 0; qid < queries_.size(); ++qid) {
    if (queries_[qid].state == QueryState::kPending) {
      ++stats_.queries_stalled;
      FailQuery(qid, Status::Internal(
                         "query stalled: no pending event can resolve it "
                         "(undetectable fault schedule?)"));
    }
  }
  FlushResolvedLocked(&lk);
}

void ShardedPathService::HandleDispatchDone(uint64_t attempt_id) {
  Attempt& a = attempts_[attempt_id];
  if (a.state != AttemptState::kInFlight) return;  // cancelled/failed: late
  Shard& shard = shards_[static_cast<size_t>(a.shard)];
  if (!shard.alive) return;  // crashed before completion; failover handles
  QueryRec& q = queries_[a.query_id];

  if (a.drop_reply) {
    // The work happened; the reply is lost. Only the attempt timeout can
    // resurrect this query.
    a.state = AttemptState::kDropped;
    ++stats_.attempts_dropped;
    ++shard.stats.dropped_replies;
    return;
  }
  if (q.state != QueryState::kPending) {
    // The race was already won (hedge sibling or an earlier retry).
    a.state = AttemptState::kCancelled;
    ++stats_.attempts_cancelled;
    ++shard.stats.cancelled;
    return;
  }

  PathSet paths;
  uint64_t count = 0;
  const Status st = ExecuteOnShard(&shard, q.query, &paths, &count);
  a.state = AttemptState::kCompleted;
  ++stats_.attempts_completed;
  ++shard.stats.completions;
  RecordLatencySample(now_ - a.dispatch_time);
  // A pipeline error (max_paths ResourceExhausted, internal invariants) is
  // a deterministic reply — every replica would say the same — so it
  // resolves the query instead of feeding the retry path.
  CompleteQuery(a.query_id, attempt_id, std::move(paths), count, shard.epoch,
                st);
}

void ShardedPathService::HandleAttemptTimeout(uint64_t attempt_id) {
  Attempt& a = attempts_[attempt_id];
  QueryRec& q = queries_[a.query_id];
  if (q.state != QueryState::kPending) return;
  if (a.state == AttemptState::kInFlight) {
    a.state = AttemptState::kFailed;
    ++stats_.attempts_failed;
    ++shards_[static_cast<size_t>(a.shard)].stats.failures;
    ++stats_.attempt_timeouts;
    AttemptFailed(attempt_id,
                  ShardUnavailableStatus(
                      a.shard, "attempt timed out after " +
                                   std::to_string(
                                       options_.attempt_timeout_seconds) +
                                   "s"));
  } else if (a.state == AttemptState::kDropped) {
    // The shard finished but the reply never arrived; the timeout is the
    // detection path. The attempt already reconciled as dropped — and this
    // was its one timeout, so it can never answer or be rescued again:
    // take it out of the query's outstanding set so a LATER attempt's
    // failure does not wait on it forever (the gate in AttemptFailed
    // treats kDropped as "rescue scheduled", which is now false).
    q.outstanding.erase(
        std::find(q.outstanding.begin(), q.outstanding.end(), attempt_id));
    ++stats_.attempt_timeouts;
    AttemptFailed(attempt_id,
                  ShardUnavailableStatus(a.shard, "reply lost (timeout)"));
  }
}

void ShardedPathService::HandleRetryDue(uint64_t query_id) {
  QueryRec& q = queries_[query_id];
  if (q.state != QueryState::kPending) return;
  ++stats_.retries;
  DispatchAttempt(query_id, NextServingShard(q.last_shard),
                  /*is_hedge=*/false);
}

void ShardedPathService::HandleHedgeDue(uint64_t attempt_id) {
  Attempt& a = attempts_[attempt_id];
  QueryRec& q = queries_[a.query_id];
  if (q.state != QueryState::kPending) return;
  if (a.state != AttemptState::kInFlight) return;  // already resolved
  if (q.hedged) return;  // one hedge per query
  const int sibling = HedgeSibling(q, a.shard);
  if (sibling < 0) return;  // no same-epoch serving replica
  ++stats_.hedges;
  DispatchAttempt(a.query_id, sibling, /*is_hedge=*/true);
}

void ShardedPathService::HandleDeadline(uint64_t query_id) {
  QueryRec& q = queries_[query_id];
  if (q.state != QueryState::kPending) return;
  ++stats_.deadline_expired;
  FailQuery(query_id, QueryDeadlineStatus(options_.deadline_seconds));
}

void ShardedPathService::HandleHeartbeat(uint64_t shard_id) {
  Shard& shard = shards_[static_cast<size_t>(shard_id)];
  shard.heartbeat_armed = false;
  const double now = now_;
  if (shard.health == ShardHealth::kDown ||
      shard.health == ShardHealth::kRestarting) {
    // Expected-down: the restart event chain owns recovery; keep beating
    // so the supervisor wakes to observe it.
    ArmHeartbeatLocked(static_cast<int>(shard_id));
    return;
  }
  const bool beat = shard.alive && now >= shard.hang_until;
  if (beat) {
    shard.missed_beats = 0;
    if (shard.health == ShardHealth::kSuspect) {
      shard.health = ShardHealth::kHealthy;
    }
  } else {
    ++shard.missed_beats;
    if (shard.missed_beats >= options_.down_after_missed) {
      TransitionDown(static_cast<int>(shard_id));
    } else if (shard.missed_beats >= options_.suspect_after_missed) {
      shard.health = ShardHealth::kSuspect;
    }
  }
  // Keep beating while anything is outstanding or this shard is not
  // plainly healthy; otherwise let the heap drain so Idle() is reachable.
  if (AnyOutstandingLocked() || !shard.alive ||
      shard.health != ShardHealth::kHealthy) {
    ArmHeartbeatLocked(static_cast<int>(shard_id));
  }
}

void ShardedPathService::TransitionDown(int shard_id) {
  Shard& shard = shards_[static_cast<size_t>(shard_id)];
  shard.health = ShardHealth::kDown;
  // Fail over everything the dead shard held: pending and in-flight
  // attempts alike become dispatch-layer kUnavailable, which the bounded
  // retry re-routes to siblings.
  std::vector<uint64_t> held;
  held.swap(shard.outstanding);
  for (uint64_t aid : held) {
    Attempt& a = attempts_[aid];
    if (a.state != AttemptState::kInFlight) continue;
    a.state = AttemptState::kFailed;
    ++stats_.attempts_failed;
    ++shard.stats.failures;
    ++stats_.failovers;
    AttemptFailed(aid, ShardUnavailableStatus(shard_id,
                                              "shard down (failover)"));
  }
  PushEvent(now_ + options_.restart_delay_seconds,
            EventType::kRestartBegin, static_cast<uint64_t>(shard_id));
}

void ShardedPathService::HandleRestartBegin(uint64_t shard_id) {
  Shard& shard = shards_[static_cast<size_t>(shard_id)];
  shard.health = ShardHealth::kRestarting;
  ++shard.stats.restarts;
  PushEvent(now_ + options_.restart_duration_seconds,
            EventType::kRestartDone, shard_id);
}

void ShardedPathService::HandleRestartDone(uint64_t shard_id) {
  Shard& shard = shards_[static_cast<size_t>(shard_id)];
  // Rebuild from the shared store: drop the old pin, pin Current(). The
  // old snapshot stays valid for any sibling still draining it — GC is
  // pin-aware (graph_store_test ConcurrentRestartUpdateGc).
  PinShard(&shard);
  shard.alive = true;
  shard.health = ShardHealth::kHealthy;
  shard.missed_beats = 0;
  shard.busy_until = now_;
  shard.hang_until = 0;
  if (AnyOutstandingLocked()) {
    ArmHeartbeatLocked(static_cast<int>(shard_id));
  }
}

void ShardedPathService::AttemptFailed(uint64_t attempt_id,
                                       const Status& status) {
  Attempt& a = attempts_[attempt_id];
  QueryRec& q = queries_[a.query_id];
  if (q.state != QueryState::kPending) return;
  // Another attempt may still be racing (a hedge pair where one side
  // failed): only schedule recovery when nothing else can answer.
  for (uint64_t oid : q.outstanding) {
    if (oid == attempt_id) continue;
    const AttemptState s = attempts_[oid].state;
    if (s == AttemptState::kInFlight || s == AttemptState::kDropped) return;
  }
  if (q.retries_used < options_.max_retries) {
    ++q.retries_used;
    PushEvent(now_ + BackoffSeconds(q.retries_used - 1),
              EventType::kRetryDue, a.query_id);
    return;
  }
  FailQuery(a.query_id, status);
}

void ShardedPathService::CompleteQuery(uint64_t query_id, uint64_t attempt_id,
                                       PathSet&& paths, uint64_t count,
                                       uint64_t epoch, const Status& status) {
  QueryRec& q = queries_[query_id];
  HCPATH_DCHECK(q.state == QueryState::kPending);
  q.state = QueryState::kCompleted;
  q.final_status = status;
  q.paths = std::move(paths);
  q.path_count = count;
  q.graph_epoch = epoch;
  q.finish_time = now_;
  ++stats_.queries_completed;
  if (attempts_[attempt_id].is_hedge) {
    q.won_by_hedge = true;
    ++stats_.hedged_wins;
  }
  CancelOutstanding(&q, attempt_id);
  DrainBatch(q.batch);
}

void ShardedPathService::FailQuery(uint64_t query_id, const Status& status) {
  QueryRec& q = queries_[query_id];
  HCPATH_DCHECK(q.state == QueryState::kPending);
  q.state = QueryState::kFailed;
  q.final_status = status;
  q.finish_time = now_;
  ++stats_.queries_failed;
  CancelOutstanding(&q, static_cast<uint64_t>(-1));
  DrainBatch(q.batch);
}

void ShardedPathService::CancelOutstanding(QueryRec* q,
                                           uint64_t except_attempt) {
  for (uint64_t aid : q->outstanding) {
    if (aid == except_attempt) continue;
    Attempt& a = attempts_[aid];
    if (a.state != AttemptState::kInFlight) continue;
    // Lazy cancellation: the shard finishes (or died with) the work; only
    // the reply is ignored. Counters reconcile the attempt as cancelled.
    a.state = AttemptState::kCancelled;
    ++stats_.attempts_cancelled;
    ++shards_[static_cast<size_t>(a.shard)].stats.cancelled;
  }
  q->outstanding.clear();
}

void ShardedPathService::DrainBatch(uint64_t batch_id) {
  BatchRec& batch = batches_[batch_id];
  // Contiguous-prefix drain in submission order: paths (and futures) for
  // query i are emitted before anything of query i+1, which is exactly the
  // 1-shard reference stream. A failed query is a zero-path slot.
  while (batch.next_emit < batch.query_ids.size()) {
    const uint64_t qid = batch.query_ids[batch.next_emit];
    QueryRec& q = queries_[qid];
    if (q.state == QueryState::kPending) break;
    HCPATH_DCHECK(!q.emitted);
    q.emitted = true;
    ++batch.next_emit;
    QueryResult r;
    r.status = q.final_status;
    r.tenant = q.tenant;
    r.path_count = q.path_count;
    r.graph_epoch = q.graph_epoch;
    r.wait_seconds =
        q.first_service_start >= 0 ? q.first_service_start - q.submit_time
                                   : 0;
    r.batch_seconds = q.finish_time - q.submit_time;
    if (q.state == QueryState::kCompleted && batch.sink != nullptr) {
      batch.sink->OnPaths(q.index_in_batch, q.paths, 0, q.paths.size());
    } else if (q.state == QueryState::kCompleted && options_.collect_paths) {
      r.paths = std::move(q.paths);
    }
    // Release the storage, not just the contents: a drained query's record
    // lives on, and Clear() would keep its path capacity with it.
    q.paths = PathSet();
    resolved_.emplace_back(qid, std::move(r));
  }
}

void ShardedPathService::RecordLatencySample(double seconds) {
  latency_ring_[latency_next_] = seconds;
  latency_next_ = (latency_next_ + 1) % latency_ring_.size();
  latency_count_ = std::min(latency_count_ + 1, latency_ring_.size());
}

void ShardedPathService::FlushResolvedLocked(
    std::unique_lock<std::mutex>* lk) {
  if (resolved_.empty()) return;
  std::vector<std::pair<std::promise<QueryResult>, QueryResult>> out;
  out.reserve(resolved_.size());
  for (auto& [qid, result] : resolved_) {
    out.emplace_back(std::move(queries_[qid].promise), std::move(result));
  }
  resolved_.clear();
  lk->unlock();
  for (auto& [promise, result] : out) {
    promise.set_value(std::move(result));
  }
  lk->lock();
}

ShardedServiceStats ShardedPathService::GetStats() const {
  std::lock_guard<std::mutex> lk(mu_);
  ShardedServiceStats s = stats_;
  for (size_t i = 0; i < shards_.size(); ++i) {
    s.shards[i] = shards_[i].stats;
    s.shards[i].health = shards_[i].health;
    s.shards[i].epoch = shards_[i].epoch;
  }
  // The attempt identity: everything dispatched is accounted exactly once.
  s.attempts_in_flight = s.dispatches - s.attempts_completed -
                         s.attempts_failed - s.attempts_cancelled -
                         s.attempts_dropped;
  return s;
}

ShardHealth ShardedPathService::shard_health(int shard) const {
  std::lock_guard<std::mutex> lk(mu_);
  return shards_[static_cast<size_t>(shard)].health;
}

uint64_t ShardedPathService::shard_epoch(int shard) const {
  std::lock_guard<std::mutex> lk(mu_);
  return shards_[static_cast<size_t>(shard)].epoch;
}

}  // namespace hcpath
