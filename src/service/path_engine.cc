#include "service/path_engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <utility>

#include "core/enumerator.h"
#include "index/cache_persist.h"
#include "service/admission_status.h"
#include "util/timer.h"

namespace hcpath {

namespace {

/// Routes the micro-batch's emission stream to per-query destinations:
/// counts every path, forwards to the query's own sink when given, and
/// otherwise materializes into the query's result set when the engine
/// collects. OnPath calls arrive serialized (the pipeline's ordered merge
/// holds a drain lock), in the deterministic emission order.
class DemuxSink : public PathSink {
 public:
  DemuxSink(size_t n, const std::vector<PathSink*>& sinks, bool collect)
      : counts_(n, 0), sinks_(sinks), collect_(collect) {
    if (collect_) sets_.resize(n);
  }

  void OnPath(size_t query_index, PathView path) override {
    ++counts_[query_index];
    if (sinks_[query_index] != nullptr) {
      sinks_[query_index]->OnPath(query_index, path);
    } else if (collect_) {
      sets_[query_index].Add(path);
    }
  }

  uint64_t count(size_t i) const { return counts_[i]; }
  PathSet TakePaths(size_t i) {
    return collect_ ? std::move(sets_[i]) : PathSet();
  }

 private:
  std::vector<uint64_t> counts_;
  const std::vector<PathSink*>& sinks_;
  bool collect_;
  std::vector<PathSet> sets_;
};

QueryResult MakeErrorResult(Status status, const std::string& tenant) {
  QueryResult r;
  r.status = std::move(status);
  r.tenant = tenant;
  return r;
}

/// The pipeline requires a sink; count-only callers pass nullptr.
class DiscardSink : public PathSink {
 public:
  void OnPath(size_t, PathView) override {}
};

}  // namespace

PathEngine::PathEngine(const Graph& g, const PathEngineOptions& options)
    : fixed_graph_(&g),
      options_(options),
      init_status_(options.batch.Validate()),
      clock_(options.clock != nullptr ? options.clock : &WallClock::Default()),
      cache_(options.enable_distance_cache
                 ? options.distance_cache_max_entries
                 : 0,
             options.distance_cache_max_bytes),
      queue_(options.admission.default_tenant_weight > 0
                 ? options.admission.default_tenant_weight
                 : 1.0) {
  Init();
}

PathEngine::PathEngine(GraphStore* store, const PathEngineOptions& options)
    : store_(store),
      options_(options),
      init_status_(store != nullptr
                       ? options.batch.Validate()
                       : Status::InvalidArgument(
                             "PathEngine requires a non-null GraphStore")),
      clock_(options.clock != nullptr ? options.clock : &WallClock::Default()),
      cache_(options.enable_distance_cache
                 ? options.distance_cache_max_entries
                 : 0,
             options.distance_cache_max_bytes),
      queue_(options.admission.default_tenant_weight > 0
                 ? options.admission.default_tenant_weight
                 : 1.0) {
  Init();
}

void PathEngine::Init() {
  if (init_status_.ok()) init_status_ = options_.admission.Validate();
  if (!init_status_.ok()) return;
  // Bootstrap the serving view; in store mode ApplyUpdates derives a new
  // one per snapshot.
  if (store_ != nullptr) {
    view_ = MakeView(store_->Current(), nullptr, 0);
  } else {
    view_ = MakeView(nullptr, fixed_graph_, 0);
  }
  for (const auto& [tenant, weight] : options_.admission.tenant_weights) {
    queue_.SetWeight(tenant, weight);
  }
  if (options_.enable_distance_cache) ctx_.distance_cache = &cache_;
  // Resolve the pool once up front: the engine, not the batch call, owns
  // the threads for its whole lifetime.
  ctx_.PoolFor(options_.batch.num_threads);
  if (!options_.manual_dispatch) {
    dispatcher_ = std::thread([this] { DispatchLoop(); });
  }
}

std::shared_ptr<const PathEngine::EngineView> PathEngine::MakeView(
    std::shared_ptr<const GraphSnapshot> snapshot, const Graph* graph,
    uint64_t epoch) const {
  auto view = std::make_shared<EngineView>();
  if (snapshot != nullptr) {
    view->graph = &snapshot->graph;
    view->epoch = snapshot->epoch;
    view->snapshot = std::move(snapshot);
  } else {
    view->graph = graph;
    view->epoch = epoch;
  }
  view->kernel = ResolveKernel(options_.batch.kernel_mode, *view->graph);
  return view;
}

std::shared_ptr<const PathEngine::EngineView> PathEngine::CurrentView()
    const {
  std::lock_guard<std::mutex> lk(view_mu_);
  return view_;
}

uint64_t PathEngine::current_epoch() const {
  if (!init_status_.ok()) return 0;
  return CurrentView()->epoch;
}

PathEngine::~PathEngine() {
  {
    std::unique_lock<std::mutex> lk(mu_);
    stopping_ = true;
    // Wake the dispatcher (shutdown = final Flush) and every submit
    // blocked on queue space (they fail with FailedPrecondition, never
    // enqueue) — then wait for in-flight submits to leave the admission
    // critical region: a woken submitter still touches the ticket deque
    // and condition variables on its way out.
    work_cv_.notify_all();
    space_cv_.notify_all();
    idle_cv_.wait(lk, [&] { return submits_active_ == 0; });
  }
  if (dispatcher_.joinable()) dispatcher_.join();
  if (options_.manual_dispatch && init_status_.ok()) {
    // Manual mode has no dispatcher thread: the destructor steps the
    // scheduler itself until the queue is drained.
    std::unique_lock<std::mutex> lk(mu_);
    while (!queue_.empty()) {
      if (StepDispatchLocked(lk) == 0) break;  // unreachable: kFlush cuts
    }
  }
}

uint64_t PathEngine::QueryCostBytes(const std::string& tenant_id) {
  return sizeof(QueueItem) + tenant_id.size();
}

bool PathEngine::HasSpaceLocked(uint64_t cost) const {
  if (queue_.empty()) return true;  // a lone query is always admissible
  const AdmissionOptions& adm = options_.admission;
  return queue_.size() + 1 <= adm.max_queued_queries &&
         queue_.bytes() + cost <= adm.max_queued_bytes;
}

void PathEngine::UpdateOverloadLocked() {
  const AdmissionOptions& adm = options_.admission;
  const bool overloaded =
      static_cast<double>(queue_.size()) >=
          adm.shed_high_watermark *
              static_cast<double>(adm.max_queued_queries) ||
      static_cast<double>(queue_.bytes()) >=
          adm.shed_high_watermark * static_cast<double>(adm.max_queued_bytes);
  if (overloaded) {
    if (!overload_since_.has_value()) overload_since_ = clock_->Now();
  } else {
    overload_since_.reset();
  }
}

void PathEngine::ShedTargetsLocked(size_t* target_items,
                                   uint64_t* target_bytes) const {
  const AdmissionOptions& adm = options_.admission;
  *target_items = static_cast<size_t>(
      adm.shed_low_watermark * static_cast<double>(adm.max_queued_queries));
  *target_bytes = static_cast<uint64_t>(
      adm.shed_low_watermark * static_cast<double>(adm.max_queued_bytes));
}

bool PathEngine::AboveShedTargetsLocked() const {
  size_t target_items;
  uint64_t target_bytes;
  ShedTargetsLocked(&target_items, &target_bytes);
  return queue_.size() > target_items || queue_.bytes() > target_bytes;
}

bool PathEngine::ShedDueLocked() const {
  return overload_since_.has_value() && AboveShedTargetsLocked() &&
         clock_->Now() - *overload_since_ >=
             options_.admission.shed_patience_seconds;
}

bool PathEngine::ShedIfDueLocked(std::vector<QueueItem>* shed) {
  if (!ShedDueLocked()) return false;
  size_t target_items;
  uint64_t target_bytes;
  ShedTargetsLocked(&target_items, &target_bytes);
  *shed = queue_.ShedDownTo(target_items, target_bytes);
  if (shed->empty()) return false;
  ++stats_.shed_rounds;
  stats_.queries_shed += shed->size();
  for (const QueueItem& item : *shed) ++stats_.tenants[item.tenant].shed;
  UpdateOverloadLocked();
  return true;
}

void PathEngine::FinishSubmitLocked() {
  --submits_active_;
  if (submits_active_ == 0) idle_cv_.notify_all();
}

bool PathEngine::ShedAndResolveLocked(std::unique_lock<std::mutex>& lk) {
  std::vector<QueueItem> shed;
  if (!ShedIfDueLocked(&shed)) return false;
  space_cv_.notify_all();
  if (queue_.empty() && batches_in_flight_ == 0) drained_cv_.notify_all();
  lk.unlock();
  ResolveShed(std::move(shed));
  lk.lock();
  return true;
}

void PathEngine::ResolveShed(std::vector<QueueItem> shed) {
  for (QueueItem& item : shed) {
    // The documented shed outcome (docs/SERVICE.md, "Overload behavior"):
    // canonical retryable ResourceExhausted identifying the policy and the
    // tenant (admission_status.h owns the vocabulary).
    item.value.promise.set_value(
        MakeErrorResult(ShedStatus(item.tenant, item.weight), item.tenant));
  }
}

std::vector<PathEngine::QueueItem> PathEngine::CutBatchLocked(size_t take) {
  std::vector<QueueItem> batch;
  batch.reserve(take);
  for (size_t i = 0; i < take; ++i) batch.push_back(queue_.PopNext());
  UpdateOverloadLocked();
  space_cv_.notify_all();  // capacity freed: admit blocked submitters
  return batch;
}

std::future<QueryResult> PathEngine::Submit(const PathQuery& query,
                                            PathSink* sink) {
  return Submit(kDefaultTenant, query, sink);
}

std::future<QueryResult> PathEngine::Submit(const std::string& tenant_id,
                                            const PathQuery& query,
                                            PathSink* sink) {
  std::promise<QueryResult> promise;
  std::future<QueryResult> future = promise.get_future();
  if (!init_status_.ok()) {
    promise.set_value(MakeErrorResult(init_status_, tenant_id));
    return future;
  }
  // Pin the serving view current at admission: this query will validate
  // against, and enumerate, exactly this snapshot, however many updates
  // land before its micro-batch runs (docs/DYNAMIC.md).
  std::shared_ptr<const EngineView> view = CurrentView();
  // Admission-time validation: a bad query is rejected here, alone, so it
  // can never fail the whole micro-batch it would have been cut into.
  Status st = ValidateQueries(*view->graph, {query});
  if (!st.ok()) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      ++stats_.queries_rejected;
      TenantAdmissionStats& ts = stats_.tenants[tenant_id];
      ++ts.submitted;
      ++ts.rejected;
    }
    promise.set_value(MakeErrorResult(std::move(st), tenant_id));
    return future;
  }

  const AdmissionOptions& adm = options_.admission;
  const uint64_t cost = QueryCostBytes(tenant_id);
  std::unique_lock<std::mutex> lk(mu_);
  const double submitted_seconds = clock_->Now();
  ++submits_active_;
  ++stats_.tenants[tenant_id].submitted;
  bool ticketed = false;
  uint64_t ticket = 0;
  bool counted_block = false;
  for (;;) {
    if (stopping_) {
      if (ticketed) {
        blocked_.erase(std::find(blocked_.begin(), blocked_.end(), ticket));
        space_cv_.notify_all();  // the next ticket holder re-evaluates
      }
      FinishSubmitLocked();
      lk.unlock();
      // Canonical non-retryable release of a (possibly blocked) submitter
      // at shutdown: this engine will never admit again, so the classifier
      // must steer callers to a different engine, not a retry loop.
      promise.set_value(MakeErrorResult(ShuttingDownStatus(), tenant_id));
      return future;
    }
    // Overload shedding may be due while we wait for space (every blocked
    // submitter and the dispatcher race benignly for it — ShedIfDueLocked
    // re-checks the targets under the lock).
    if (ShedAndResolveLocked(lk)) continue;
    // Admit when there is space AND we are first in line: a ticket holder
    // must be at the front of the blocked FIFO, and a new arrival may not
    // overtake anyone already blocked (otherwise steady arrivals could
    // starve a blocked submitter by taking every freed slot).
    if (HasSpaceLocked(cost) &&
        (ticketed ? blocked_.front() == ticket : blocked_.empty())) {
      break;
    }
    if (adm.backpressure == AdmissionBackpressure::kFailFast) {
      ++stats_.submits_fast_failed;
      ++stats_.tenants[tenant_id].fast_failed;
      // The documented fast-fail outcome (docs/SERVICE.md): canonical
      // retryable ResourceExhausted from admission_status.h.
      const Status full = QueueFullStatus(queue_.size(), queue_.bytes());
      // A fail-fast submit never blocks, so it can never hold a ticket.
      HCPATH_DCHECK(!ticketed);
      FinishSubmitLocked();
      lk.unlock();
      promise.set_value(MakeErrorResult(full, tenant_id));
      return future;
    }
    if (!ticketed) {
      ticketed = true;
      ticket = next_ticket_++;
      blocked_.push_back(ticket);
    }
    if (!counted_block) {
      counted_block = true;
      ++stats_.backpressure_blocks;
      ++stats_.tenants[tenant_id].blocked;
    }
    const auto ready = [&] {
      return stopping_ ||
             (blocked_.front() == ticket && HasSpaceLocked(cost)) ||
             ShedDueLocked();
    };
    if (overload_since_.has_value() && AboveShedTargetsLocked()) {
      // Sleep at most until shedding becomes due, so a fully-blocked
      // system still sheds on schedule.
      clock_->WaitUntil(lk, space_cv_,
                        *overload_since_ + adm.shed_patience_seconds, ready);
    } else {
      clock_->Wait(lk, space_cv_, ready);
    }
  }
  if (ticketed) {
    blocked_.erase(std::find(blocked_.begin(), blocked_.end(), ticket));
    space_cv_.notify_all();  // the next ticket may be admissible now
  }
  Pending p;
  p.query = query;
  p.sink = sink;
  p.promise = std::move(promise);
  p.view = std::move(view);
  p.submitted_seconds = submitted_seconds;
  queue_.Push(tenant_id, clock_->Now(), cost, std::move(p));
  ++stats_.queries_submitted;
  ++stats_.tenants[tenant_id].admitted;
  stats_.peak_queued_queries =
      std::max(stats_.peak_queued_queries,
               static_cast<uint64_t>(queue_.size()));
  stats_.peak_queued_bytes =
      std::max(stats_.peak_queued_bytes, queue_.bytes());
  UpdateOverloadLocked();
  // Wake the dispatcher on the first pending query (it must arm the
  // max-wait timer) and whenever the size cut is reached. Notified under
  // the lock: the engine may be destroyed the moment the lock is free.
  if (queue_.size() == 1 || queue_.size() >= options_.max_batch_size) {
    work_cv_.notify_all();
  }
  FinishSubmitLocked();
  lk.unlock();
  return future;
}

void PathEngine::Flush() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (queue_.empty()) return;
    flush_requested_ = true;
  }
  work_cv_.notify_all();
}

void PathEngine::Drain() {
  std::unique_lock<std::mutex> lk(mu_);
  drained_cv_.wait(lk,
                   [&] { return queue_.empty() && batches_in_flight_ == 0; });
}

size_t PathEngine::StepDispatch() {
  if (!init_status_.ok() || !options_.manual_dispatch) return 0;
  std::unique_lock<std::mutex> lk(mu_);
  // Counted like a Submit: the destructor must not free the engine while
  // an external stepper is still running a batch.
  ++submits_active_;
  const size_t n = StepDispatchLocked(lk);
  FinishSubmitLocked();
  return n;
}

size_t PathEngine::StepDispatchLocked(std::unique_lock<std::mutex>& lk) {
  const size_t max_batch =
      options_.max_batch_size < 1 ? 1 : options_.max_batch_size;
  // Overload decisions precede cut decisions — except at shutdown, which
  // drains: every still-queued query runs.
  if (!stopping_) ShedAndResolveLocked(lk);
  if (queue_.empty()) {
    flush_requested_ = false;
    if (batches_in_flight_ == 0) drained_cv_.notify_all();
    return 0;
  }
  CutReason reason;
  if (queue_.size() >= max_batch) {
    reason = CutReason::kSize;
  } else if (stopping_ || flush_requested_) {
    reason = CutReason::kFlush;
  } else if (options_.max_wait_seconds > 0 &&
             clock_->Now() >= queue_.OldestEnqueueSeconds() +
                                  options_.max_wait_seconds) {
    reason = CutReason::kWait;
  } else {
    return 0;
  }
  std::vector<QueueItem> batch =
      CutBatchLocked(std::min(queue_.size(), max_batch));
  const size_t n = batch.size();
  ++batches_in_flight_;
  lk.unlock();
  RunMicroBatch(std::move(batch), reason);
  lk.lock();
  --batches_in_flight_;
  if (queue_.empty()) {
    flush_requested_ = false;
    if (batches_in_flight_ == 0) drained_cv_.notify_all();
  }
  return n;
}

Status PathEngine::RunBatch(const std::vector<PathQuery>& queries,
                            PathSink* sink, BatchStats* stats) {
  if (!init_status_.ok()) return init_status_;
  // Synchronous batches pin the current view exactly like Submit does.
  std::shared_ptr<const EngineView> view = CurrentView();
  DiscardSink discard;
  BatchStats local_stats;
  Status st;
  {
    std::lock_guard<std::mutex> lk(run_mu_);
    ctx_.graph_epoch = view->epoch;
    st = RunPipeline(*view->graph, queries, options_.batch, view->kernel,
                     sink != nullptr ? sink : &discard, &local_stats, &ctx_);
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.batches_run;
    stats_.batch_stats.Accumulate(local_stats);
    stats_.distance_cache_hits += local_stats.distance_cache_hits;
    stats_.distance_cache_misses += local_stats.distance_cache_misses;
  }
  if (stats != nullptr) stats->Accumulate(local_stats);
  view.reset();  // drop the pin before GC so this snapshot can collect
  if (store_ != nullptr) store_->CollectGarbage();
  return st;
}

StatusOr<GraphUpdateResult> PathEngine::ApplyUpdates(
    std::span<const EdgeUpdate> updates) {
  if (!init_status_.ok()) return init_status_;
  if (store_ == nullptr) {
    return Status::FailedPrecondition(
        "ApplyUpdates requires a store-backed PathEngine");
  }
  // Serializes updaters only: admitted batches keep enumerating their
  // pinned snapshots while the new one is built and installed, so updates
  // never stall serving (docs/DYNAMIC.md has the lifecycle).
  std::lock_guard<std::mutex> lk(update_mu_);
  std::shared_ptr<const EngineView> old_view = CurrentView();
  StatusOr<GraphUpdateResult> applied = store_->ApplyUpdates(updates);
  HCPATH_RETURN_NOT_OK(applied.status());
  std::shared_ptr<const EngineView> next =
      MakeView(applied->snapshot, nullptr, 0);
  if (options_.enable_distance_cache) {
    // Cone-precise reconciliation: only entries whose capped BFS can cross
    // a touched edge are dropped; everything else is revalidated for the
    // new epoch and keeps serving (EndpointDistanceCache::InvalidateUpdated
    // has the argument).
    std::vector<EndpointDistanceCache::RepairKey> dead;
    const bool repair = options_.cache_repair_max_keys > 0;
    cache_.InvalidateUpdated(*old_view->graph, *next->graph,
                             applied->applied.added, applied->applied.removed,
                             old_view->epoch, next->epoch,
                             repair ? &dead : nullptr);
    // Repair before publishing the view: by the time any query can pin the
    // new epoch, the repaired entries are already serving it.
    if (!dead.empty()) RepairCacheEntries(*next, dead);
  }
  {
    std::lock_guard<std::mutex> vlk(view_mu_);
    view_ = next;
  }
  {
    std::lock_guard<std::mutex> slk(mu_);
    ++stats_.graph_updates;
  }
  // Max-lag enforcement AFTER the swap: `next` is the current epoch the
  // queued pins are measured against, and the failed queries' pins are
  // released before the GC below so their snapshots can reclaim now.
  if (options_.admission.max_snapshot_lag > 0) {
    FailOverLaggedQueued(next->epoch);
  }
  old_view.reset();  // drop our pin on the retired snapshot before GC
  store_->CollectGarbage();
  return applied;
}

void PathEngine::RepairCacheEntries(
    const EngineView& view, std::vector<EndpointDistanceCache::RepairKey>& dead) {
  // `dead` is MRU-first, so truncating to the budget keeps the keys most
  // likely to be probed again; the remainder refills lazily on its next
  // miss exactly as with repair disabled.
  uint64_t skipped = 0;
  if (dead.size() > options_.cache_repair_max_keys) {
    skipped = dead.size() - options_.cache_repair_max_keys;
    dead.resize(options_.cache_repair_max_keys);
  }
  const Graph& g = *view.graph;
  uint64_t repaired = 0;
  for (Direction dir : {Direction::kForward, Direction::kBackward}) {
    repair_sources_.clear();
    repair_caps_.clear();
    for (const EndpointDistanceCache::RepairKey& k : dead) {
      if (k.dir != dir || k.vertex >= g.NumVertices()) continue;
      repair_sources_.push_back(k.vertex);
      repair_caps_.push_back(k.cap);
    }
    if (repair_sources_.empty()) continue;
    // Exactly the BFS a cache miss in the next index build would run
    // (DistanceIndex::Build's miss path), so a repaired entry is
    // bit-identical to the map a cold probe would insert.
    MultiSourceBfs(g, repair_sources_, repair_caps_, dir, nullptr,
                   &repair_scratch_, &repair_result_);
    for (size_t i = 0; i < repair_sources_.size(); ++i) {
      cache_.Insert(repair_sources_[i], dir, repair_caps_[i], view.epoch,
                    std::move(repair_result_.per_source[i]));
    }
    repaired += repair_sources_.size();
  }
  std::lock_guard<std::mutex> lk(mu_);
  stats_.cache_entries_repaired += repaired;
  stats_.cache_repair_skipped += skipped;
}

void PathEngine::FailOverLaggedQueued(uint64_t new_epoch) {
  const uint64_t max_lag = options_.admission.max_snapshot_lag;
  std::vector<QueueItem> lagged;
  {
    std::lock_guard<std::mutex> lk(mu_);
    lagged = queue_.RemoveIf([&](const QueueItem& item) {
      return item.value.view->epoch + max_lag < new_epoch;
    });
    if (lagged.empty()) return;
    stats_.queries_lag_failed += lagged.size();
    for (const QueueItem& item : lagged) {
      ++stats_.tenants[item.tenant].lag_failed;
    }
    UpdateOverloadLocked();
    space_cv_.notify_all();  // capacity freed: admit blocked submitters
    if (queue_.empty() && batches_in_flight_ == 0) drained_cv_.notify_all();
  }
  for (QueueItem& item : lagged) {
    const uint64_t pinned = item.value.view->epoch;
    item.value.view.reset();  // release the snapshot pin before resolving
    // The documented max-lag outcome (docs/DYNAMIC.md): canonical
    // permanent FailedPrecondition naming both epochs and the bound
    // (admission_status.h owns the vocabulary).
    QueryResult r = MakeErrorResult(
        SnapshotLagStatus(pinned, new_epoch, max_lag, item.tenant),
        item.tenant);
    r.graph_epoch = pinned;
    item.value.promise.set_value(std::move(r));
  }
}

void PathEngine::DispatchLoop() {
  const size_t max_batch = options_.max_batch_size < 1
                               ? 1
                               : options_.max_batch_size;
  const bool timed_cuts = options_.max_wait_seconds > 0;

  std::unique_lock<std::mutex> lk(mu_);
  while (true) {
    if (queue_.empty()) {
      if (stopping_) break;
      flush_requested_ = false;  // nothing left to flush
      drained_cv_.notify_all();
      clock_->Wait(lk, work_cv_, [&] {
        return stopping_ || flush_requested_ || !queue_.empty();
      });
      continue;
    }

    // Overload decisions precede cut decisions — except at shutdown, which
    // drains everything still queued.
    if (!stopping_ && ShedAndResolveLocked(lk)) continue;

    // Decide the cut. Size, flush, and shutdown cut immediately; otherwise
    // sleep until the earliest actionable deadline — the oldest pending
    // query's wait cut and/or the overload shed patience — and re-check.
    CutReason reason;
    if (queue_.size() >= max_batch) {
      reason = CutReason::kSize;
    } else if (stopping_ || flush_requested_) {
      reason = CutReason::kFlush;
    } else {
      double deadline = std::numeric_limits<double>::infinity();
      if (timed_cuts) {
        deadline = queue_.OldestEnqueueSeconds() + options_.max_wait_seconds;
      }
      if (overload_since_.has_value() && AboveShedTargetsLocked()) {
        deadline = std::min(deadline,
                            *overload_since_ +
                                options_.admission.shed_patience_seconds);
      }
      const auto pred = [&] {
        return stopping_ || flush_requested_ || queue_.size() >= max_batch;
      };
      if (!std::isfinite(deadline)) {
        // Untimed mode, no overload: only size / flush / shutdown cut.
        clock_->Wait(lk, work_cv_, pred);
        continue;
      }
      if (clock_->WaitUntil(lk, work_cv_, deadline, pred)) {
        continue;  // woken by a stronger cut; re-evaluate
      }
      // The deadline expired — but the lock was released while we slept:
      // a blocked submitter may have shed the whole queue in the interim.
      if (queue_.empty()) continue;
      // Shedding wins over the wait cut (the loop top sheds); only claim
      // a wait cut when it actually expired.
      if (ShedDueLocked()) continue;
      if (!timed_cuts ||
          clock_->Now() < queue_.OldestEnqueueSeconds() +
                              options_.max_wait_seconds) {
        continue;
      }
      reason = CutReason::kWait;
    }

    std::vector<QueueItem> batch =
        CutBatchLocked(std::min(queue_.size(), max_batch));
    ++batches_in_flight_;
    lk.unlock();
    RunMicroBatch(std::move(batch), reason);
    lk.lock();
    --batches_in_flight_;
    if (queue_.empty() && batches_in_flight_ == 0) drained_cv_.notify_all();
  }
  drained_cv_.notify_all();
}

void PathEngine::RunMicroBatch(std::vector<QueueItem> batch,
                               CutReason reason) {
  const size_t n = batch.size();
  const double dispatched = clock_->Now();

  // Group the cut's queries by pinned snapshot, preserving WFQ drain order
  // within each group. Splitting is sound because admission never alters
  // results: a query's paths, count, and Status are independent of which
  // queries share its pipeline invocation (the determinism contract), so
  // executing per-epoch sub-batches changes no individual result. A
  // fixed-mode cut — and any cut with no update in between — is exactly
  // one group, i.e. the pre-dynamic behavior.
  struct Group {
    const EngineView* view = nullptr;
    std::vector<size_t> items;  // indices into `batch`
  };
  std::vector<Group> groups;
  for (size_t i = 0; i < n; ++i) {
    const EngineView* v = batch[i].value.view.get();
    Group* group = nullptr;
    for (Group& cand : groups) {
      if (cand.view->epoch == v->epoch) {
        group = &cand;
        break;
      }
    }
    if (group == nullptr) {
      groups.push_back({v, {}});
      group = &groups.back();
    }
    group->items.push_back(i);
  }

  std::vector<Status> item_status(n);
  std::vector<uint64_t> item_count(n);
  std::vector<PathSet> item_paths(n);
  std::vector<double> item_seconds(n, 0.0);
  std::vector<uint64_t> item_epoch(n, 0);
  BatchStats cut_stats;
  {
    // One run_mu_ hold for the whole cut: the BatchContext (and its
    // graph_epoch) admit one pipeline invocation at a time.
    std::lock_guard<std::mutex> lk(run_mu_);
    for (const Group& group : groups) {
      std::vector<PathQuery> queries;
      std::vector<PathSink*> sinks;
      queries.reserve(group.items.size());
      sinks.reserve(group.items.size());
      for (size_t i : group.items) {
        queries.push_back(batch[i].value.query);
        sinks.push_back(batch[i].value.sink);
      }
      DemuxSink demux(group.items.size(), sinks, options_.collect_paths);
      BatchStats group_stats;
      WallTimer timer;
      ctx_.graph_epoch = group.view->epoch;
      const Status st =
          RunPipeline(*group.view->graph, queries, options_.batch,
                      group.view->kernel, &demux, &group_stats, &ctx_);
      const double group_seconds = timer.ElapsedSeconds();
      for (size_t k = 0; k < group.items.size(); ++k) {
        const size_t i = group.items[k];
        // The whole sub-batch shares its pipeline invocation's outcome.
        item_status[i] = st;
        item_count[i] = demux.count(k);
        item_paths[i] = demux.TakePaths(k);
        item_seconds[i] = group_seconds;
        item_epoch[i] = group.view->epoch;
      }
      cut_stats.Accumulate(group_stats);
    }
  }

  // Account the batch before resolving any future: a caller that wakes on
  // future.get() must observe the engine stats already covering its batch.
  {
    std::lock_guard<std::mutex> lk(mu_);
    stats_.batches_run += groups.size();
    switch (reason) {
      case CutReason::kSize: ++stats_.size_cuts; break;
      case CutReason::kWait: ++stats_.wait_cuts; break;
      case CutReason::kFlush: ++stats_.flush_cuts; break;
    }
    stats_.queries_completed += n;
    for (const QueueItem& item : batch) {
      ++stats_.tenants[item.tenant].completed;
    }
    stats_.batch_stats.Accumulate(cut_stats);
    stats_.distance_cache_hits += cut_stats.distance_cache_hits;
    stats_.distance_cache_misses += cut_stats.distance_cache_misses;
  }

  for (size_t i = 0; i < n; ++i) {
    QueryResult r;
    r.status = std::move(item_status[i]);
    r.tenant = batch[i].tenant;
    r.path_count = item_count[i];
    r.paths = std::move(item_paths[i]);
    r.graph_epoch = item_epoch[i];
    r.wait_seconds = dispatched - batch[i].value.submitted_seconds;
    r.batch_seconds = item_seconds[i];
    batch[i].value.promise.set_value(std::move(r));
  }
  // Drop this cut's snapshot pins before collecting, so a snapshot whose
  // last reader was this cut reclaims now instead of at the next update.
  batch.clear();
  if (store_ != nullptr) store_->CollectGarbage();
}

PathEngineStats PathEngine::GetStats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

void PathEngine::InvalidateDistanceCache() {
  std::lock_guard<std::mutex> lk(run_mu_);
  cache_.Invalidate();
}

Status PathEngine::SaveDistanceCache(const std::string& path) {
  if (!init_status_.ok()) return init_status_;
  if (!options_.enable_distance_cache) {
    return Status::FailedPrecondition(
        "distance cache is disabled on this engine");
  }
  // update_mu_ excludes ApplyUpdates, so the view (and with it the epoch
  // and run graph the export is keyed to) cannot advance mid-spill.
  // Lookups/inserts from a concurrently running batch are fine: the cache
  // is internally locked and ExportEntries only takes entries valid at
  // this epoch.
  std::lock_guard<std::mutex> update_lk(update_mu_);
  std::shared_ptr<const EngineView> view = CurrentView();
  return SaveEndpointCacheSpill(cache_, view->epoch, *view->graph, path);
}

StatusOr<size_t> PathEngine::RestoreDistanceCache(const std::string& path) {
  if (!init_status_.ok()) return init_status_;
  if (!options_.enable_distance_cache) {
    return Status::FailedPrecondition(
        "distance cache is disabled on this engine");
  }
  std::lock_guard<std::mutex> update_lk(update_mu_);
  std::shared_ptr<const EngineView> view = CurrentView();
  return RestoreEndpointCacheSpill(&cache_, view->epoch, *view->graph, path);
}

}  // namespace hcpath
