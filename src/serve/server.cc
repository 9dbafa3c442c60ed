#include "src/serve/server.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/json.h"
#include "src/data/table_file.h"
#include "src/obs/metrics.h"
#include "src/serve/fingerprint.h"

namespace autodc::serve {

namespace {

ServeResponse StatusResponse(ServeStatus status, std::string message) {
  ServeResponse resp;
  resp.status = status;
  resp.message = std::move(message);
  return resp;
}

#ifndef AUTODC_DISABLE_OBS
// The serve layer's metric handles, resolved once. Latency/wait
// histograms record MICROSECONDS and need the log-scale preset — the
// old default decade-of-ms bounds collapsed every µs-scale latency
// into one bucket, making p99 unresolvable from bucket counts. The
// labeled families break serve.completed / serve.latency_us down per
// tenant and per request kind with bounded cardinality.
//
// Direct pointer members (not the AUTODC_OBS_* macros) would break the
// zero-overhead AUTODC_DISABLE_OBS contract as server fields, so they
// live in this #ifdef'd function-local static instead.
struct ServeMetrics {
  obs::Histogram* latency_us;
  obs::Histogram* queue_wait_us;
  obs::LabeledCounter* completed_tenant;
  obs::LabeledCounter* completed_kind;
  obs::LabeledHistogram* latency_tenant;

  static const ServeMetrics& Get() {
    static const ServeMetrics m = [] {
      auto& reg = obs::MetricsRegistry::Global();
      ServeMetrics s;
      s.latency_us = reg.GetHistogram("serve.latency_us",
                                      obs::Histogram::LogBoundsUs());
      s.queue_wait_us = reg.GetHistogram("serve.queue.wait_us",
                                         obs::Histogram::LogBoundsUs());
      s.completed_tenant = reg.GetLabeledCounter("serve.completed", "tenant");
      s.completed_kind = reg.GetLabeledCounter("serve.completed", "kind");
      s.latency_tenant = reg.GetLabeledHistogram(
          "serve.latency_us", "tenant", obs::Histogram::LogBoundsUs());
      return s;
    }();
    return m;
  }
};
#endif  // !AUTODC_DISABLE_OBS

double MicrosSince(std::chrono::steady_clock::time_point since,
                   std::chrono::steady_clock::time_point now) {
  return std::chrono::duration<double, std::micro>(now - since).count();
}

}  // namespace

// ---- PendingBatch ------------------------------------------------------

const std::vector<ServeResponse>& PendingBatch::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return remaining_ == 0; });
  return responses_;
}

bool PendingBatch::Ready() const {
  std::lock_guard<std::mutex> lock(mu_);
  return remaining_ == 0;
}

void PendingBatch::CompleteSlot(size_t slot, ServeResponse&& resp) {
  bool done;
  {
    std::lock_guard<std::mutex> lock(mu_);
    responses_[slot] = std::move(resp);
    done = (--remaining_ == 0);
  }
  // One wakeup per window, not per request — the client sleeps through
  // every completion but the last.
  if (done) cv_.notify_all();
}

void PendingBatch::CompleteSlots(const size_t* slots, ServeResponse* resps,
                                 size_t count) {
  bool done;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < count; ++i) {
      responses_[slots[i]] = std::move(resps[i]);
    }
    remaining_ -= count;
    done = (remaining_ == 0);
  }
  if (done) cv_.notify_all();
}

// ---- CurationServer ----------------------------------------------------

CurationServer::CurationServer(const ServeConfig& config)
    : config_(config), sessions_(std::max<size_t>(1, config.session_capacity)) {
  if (config_.threads == 0) config_.threads = 1;
  if (config_.batch_max == 0) config_.batch_max = 1;
  if (config_.queue_cap == 0) config_.queue_cap = 1;
  workers_.reserve(config_.threads);
  for (size_t i = 0; i < config_.threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

CurationServer::~CurationServer() { Stop(); }

Result<uint64_t> CurationServer::OpenSession(const std::string& adct_path) {
  auto fpr = FingerprintFile(adct_path);
  if (!fpr.ok()) return fpr.status();
  uint64_t fp = fpr.ValueOrDie();
  if (sessions_.Get(fp) != nullptr) return fp;  // byte-identical data: reuse
  auto table = data::OpenTableFile(adct_path);
  if (!table.ok()) return table.status();
  auto session =
      Session::Build(std::move(table).ValueOrDie(), fp, config_.session);
  if (!session.ok()) return session.status();
  sessions_.Put(fp, std::move(session).ValueOrDie());
  return fp;
}

Result<uint64_t> CurationServer::OpenSessionFromTable(
    const data::Table& table) {
  uint64_t fp = FingerprintTable(table);
  if (sessions_.Get(fp) != nullptr) return fp;
  auto session = Session::Build(table, fp, config_.session);
  if (!session.ok()) return session.status();
  sessions_.Put(fp, std::move(session).ValueOrDie());
  return fp;
}

std::shared_ptr<Session> CurationServer::FindSession(uint64_t fingerprint) {
  return sessions_.Get(fingerprint);
}

Status CurationServer::RefreshSession(uint64_t fingerprint) {
  std::shared_ptr<Session> session = sessions_.Get(fingerprint);
  if (session == nullptr) {
    return Status::NotFound("no session for fingerprint " +
                            std::to_string(fingerprint));
  }
  return session->Refresh();
}

std::shared_ptr<PendingBatch> CurationServer::Submit(
    const ServeRequest& request) {
  return SubmitMany({request});
}

std::shared_ptr<PendingBatch> CurationServer::SubmitMany(
    const std::vector<ServeRequest>& requests) {
  auto group =
      std::shared_ptr<PendingBatch>(new PendingBatch(requests.size()));
  size_t enqueued = 0;
  auto now = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Windows are usually single-tenant; unordered_map references are
    // stable, so one lookup serves the whole run.
    size_t* inflight_slot = nullptr;
    const std::string* inflight_tenant = nullptr;
    for (size_t i = 0; i < requests.size(); ++i) {
      const ServeRequest& r = requests[i];
      if (stopping_) {
        shutdown_flushed_.fetch_add(1, std::memory_order_relaxed);
        AUTODC_OBS_INC("serve.reject.shutdown");
        group->CompleteSlot(
            i, StatusResponse(ServeStatus::kShutdown, "server stopping"));
        continue;
      }
      if (queue_.size() >= config_.queue_cap) {
        rejected_queue_full_.fetch_add(1, std::memory_order_relaxed);
        AUTODC_OBS_INC("serve.reject.queue_full");
        group->CompleteSlot(
            i, StatusResponse(ServeStatus::kRejectedQueueFull,
                              "request queue at capacity"));
        continue;
      }
      if (inflight_slot == nullptr || *inflight_tenant != r.tenant) {
        inflight_slot = &tenant_inflight_[r.tenant];
        inflight_tenant = &r.tenant;
      }
      size_t& inflight = *inflight_slot;
      if (inflight >= config_.tenant_inflight_cap) {
        rejected_tenant_cap_.fetch_add(1, std::memory_order_relaxed);
        AUTODC_OBS_INC("serve.reject.tenant_cap");
        group->CompleteSlot(
            i, StatusResponse(ServeStatus::kRejectedTenantCap,
                              "tenant in-flight cap reached"));
        continue;
      }
      ++inflight;
      ++enqueued;
      Item item{r, group, i, now, obs::TraceContext{}};
#ifndef AUTODC_DISABLE_OBS
      if (SampleTrace()) {
        // The admission span is the trace root: it marks where the
        // request entered and hands its identity to whichever worker
        // picks the request up. It closes here (admission is a point
        // event); the worker spans parent under it by context.
        obs::Span admit("serve.admit", obs::NewTrace());
        item.trace = admit.Context();
      }
#endif
      queue_.push_back(std::move(item));
    }
    admitted_.fetch_add(enqueued, std::memory_order_relaxed);
    AUTODC_OBS_COUNT("serve.admit", enqueued);
    AUTODC_OBS_GAUGE_SET("serve.queue.depth",
                         static_cast<double>(queue_.size()));
  }
  if (enqueued > 0) {
    // A window bigger than one batch is work for several workers.
    if (config_.threads > 1 && enqueued > config_.batch_max) {
      cv_.notify_all();
    } else {
      cv_.notify_one();
    }
  }
  return group;
}

ServeResponse CurationServer::ExecuteSequential(const ServeRequest& request) {
  std::shared_ptr<Session> session = sessions_.Get(request.session);
  if (session == nullptr) {
    return StatusResponse(ServeStatus::kError,
                          "unknown session " + std::to_string(request.session));
  }
  return session->Execute(request);
}

bool CurationServer::SampleTrace() {
#ifndef AUTODC_DISABLE_OBS
  double rate = config_.trace_sample;
  if (rate <= 0.0) return false;
  if (rate >= 1.0) return true;
  // Stride sampling: request n is traced when the accumulated quota
  // floor((n+1)*rate) crosses an integer. Deterministic — no RNG on
  // the admission path — and exact over any window: k of every
  // ceil(1/rate)-ish requests.
  uint64_t n = trace_seq_.fetch_add(1, std::memory_order_relaxed);
  double a = static_cast<double>(n) * rate;
  return std::floor(a + rate) > std::floor(a);
#else
  return false;
#endif
}

void CurationServer::WorkerLoop() {
  // Workers are long-lived and span-heavy under sampling; a bigger
  // completed-span buffer means a full bench run drops zero spans.
  obs::SetThreadSpanBufferCap(config_.worker_span_buffer);
  std::vector<Item> batch;
  for (;;) {
    batch.clear();
    if (!NextBatch(&batch)) return;
    ExecuteAndComplete(&batch);
  }
}

bool CurationServer::NextBatch(std::vector<Item>* batch) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
    if (stopping_) return false;
    if (config_.batch_wait_us > 0 && queue_.size() < config_.batch_max) {
      // Deadline coalescing: hold the oldest request briefly so
      // concurrent submitters can fill the batch.
      auto deadline = queue_.front().enqueued +
                      std::chrono::microseconds(config_.batch_wait_us);
      cv_.wait_until(lock, deadline, [&] {
        return stopping_ || queue_.size() >= config_.batch_max;
      });
      if (stopping_) return false;
      if (queue_.empty()) continue;  // a sibling worker drained it
    }
    break;
  }
  // Coalesce from the front: everything bound for the same (session,
  // kind) joins this batch, other requests keep their queue position.
  uint64_t session = queue_.front().request.session;
  RequestKind kind = queue_.front().request.kind;
  batch->push_back(std::move(queue_.front()));
  queue_.pop_front();
  for (auto it = queue_.begin();
       it != queue_.end() && batch->size() < config_.batch_max;) {
    if (it->request.session == session && it->request.kind == kind) {
      batch->push_back(std::move(*it));
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
  AUTODC_OBS_GAUGE_SET("serve.queue.depth", static_cast<double>(queue_.size()));
  if (!queue_.empty()) cv_.notify_one();
  return true;
}

void CurationServer::ExecuteAndComplete(std::vector<Item>* batch) {
  size_t n = batch->size();
  auto start = std::chrono::steady_clock::now();
  batches_.fetch_add(1, std::memory_order_relaxed);
  AUTODC_OBS_INC("serve.batches");
  AUTODC_OBS_HIST("serve.batch.size", static_cast<double>(n));
#ifndef AUTODC_DISABLE_OBS
  const ServeMetrics& sm = ServeMetrics::Get();
  for (const Item& item : *batch) {
    sm.queue_wait_us->Record(MicrosSince(item.enqueued, start));
  }
  // Worker-side spans for sampled requests: "serve.batch" covers the
  // request's whole residency in this batch, "serve.execute" the model
  // forward inside it. Both adopt the admission span's context, so the
  // request is one connected tree across the submitter thread and this
  // worker. Untraced batches never touch the vectors.
  std::vector<std::unique_ptr<obs::Span>> batch_spans;
  bool any_traced = false;
  for (const Item& item : *batch) {
    if (item.trace.trace_id != 0) {
      any_traced = true;
      break;
    }
  }
  if (any_traced) {
    batch_spans.resize(n);
    for (size_t i = 0; i < n; ++i) {
      if ((*batch)[i].trace.trace_id != 0) {
        batch_spans[i] =
            std::make_unique<obs::Span>("serve.batch", (*batch)[i].trace);
      }
    }
  }
#endif

  std::shared_ptr<Session> session = sessions_.Get((*batch)[0].request.session);
  std::vector<ServeResponse> responses;
  if (session == nullptr) {
    responses.reserve(n);
    for (const Item& item : *batch) {
      responses.push_back(
          StatusResponse(ServeStatus::kError,
                         "unknown session " +
                             std::to_string(item.request.session)));
    }
  } else {
    std::vector<const ServeRequest*> requests;
    requests.reserve(n);
    for (const Item& item : *batch) requests.push_back(&item.request);
#ifndef AUTODC_DISABLE_OBS
    {
      std::vector<std::unique_ptr<obs::Span>> exec_spans;
      if (any_traced) {
        exec_spans.resize(n);
        for (size_t i = 0; i < n; ++i) {
          if (batch_spans[i] != nullptr) {
            exec_spans[i] = std::make_unique<obs::Span>(
                "serve.execute", batch_spans[i]->Context());
          }
        }
      }
      responses = session->ExecuteBatch(requests);
    }
#else
    responses = session->ExecuteBatch(requests);
#endif
  }

  // Account BEFORE waking clients: a caller returning from Wait() must
  // see its requests in stats().completed and its tenant's in-flight
  // budget already released (otherwise an immediate pipelined resubmit
  // can bounce off its own not-yet-decremented window).
  auto end = std::chrono::steady_clock::now();
#ifndef AUTODC_DISABLE_OBS
  // Per-tenant rollups by coalesced run: batches come off the queue in
  // contiguous same-tenant stretches, so label resolution happens once
  // per run, not once per request.
  sm.completed_kind->WithLabel(RequestKindName((*batch)[0].request.kind))
      ->Add(n);
  for (size_t i = 0; i < n;) {
    const std::string& tenant = (*batch)[i].request.tenant;
    size_t j = i;
    obs::Histogram* tenant_lat = sm.latency_tenant->WithLabel(tenant);
    while (j < n && (*batch)[j].request.tenant == tenant) {
      double lat = MicrosSince((*batch)[j].enqueued, end);
      sm.latency_us->Record(lat);
      tenant_lat->Record(lat);
      ++j;
    }
    sm.completed_tenant->WithLabel(tenant)->Add(j - i);
    i = j;
  }
#endif
  completed_.fetch_add(n, std::memory_order_relaxed);
  AUTODC_OBS_COUNT("serve.completed", n);
  DecrementInflight(*batch);

  // A batch is usually one client window (or a few runs of them):
  // complete each same-group run under a single group lock.
  std::vector<size_t> slots;
  slots.reserve(n);
  for (size_t i = 0; i < n;) {
    PendingBatch* group = (*batch)[i].group.get();
    size_t j = i;
    slots.clear();
    while (j < n && (*batch)[j].group.get() == group) {
      slots.push_back((*batch)[j].slot);
      ++j;
    }
    group->CompleteSlots(slots.data(), responses.data() + i, slots.size());
    i = j;
  }
}

void CurationServer::DecrementInflight(const std::vector<Item>& batch) {
  std::lock_guard<std::mutex> lock(mu_);
  // Coalesced batches come from contiguous queue runs, so same-tenant
  // items are adjacent: one map lookup per run, not per request.
  for (size_t i = 0; i < batch.size();) {
    const std::string& tenant = batch[i].request.tenant;
    size_t j = i + 1;
    while (j < batch.size() && batch[j].request.tenant == tenant) ++j;
    auto it = tenant_inflight_.find(tenant);
    if (it != tenant_inflight_.end()) {
      it->second -= std::min(it->second, j - i);
      if (it->second == 0) tenant_inflight_.erase(it);
    }
    i = j;
  }
}

void CurationServer::Stop() {
  std::call_once(stop_once_, [this] {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    // Workers finish the batch they already extracted (in-flight work
    // drains), then exit without taking more.
    for (std::thread& t : workers_) {
      if (t.joinable()) t.join();
    }
    // Everything still queued gets the typed shutdown status.
    std::deque<Item> leftover;
    {
      std::lock_guard<std::mutex> lock(mu_);
      leftover.swap(queue_);
      tenant_inflight_.clear();
      AUTODC_OBS_GAUGE_SET("serve.queue.depth", 0.0);
    }
    for (Item& item : leftover) {
      shutdown_flushed_.fetch_add(1, std::memory_order_relaxed);
      AUTODC_OBS_INC("serve.shutdown.flushed");
      item.group->CompleteSlot(
          item.slot, StatusResponse(ServeStatus::kShutdown,
                                    "server stopped before execution"));
    }
    stopped_.store(true, std::memory_order_release);
  });
}

CurationServer::DebugSnapshot CurationServer::GetDebugSnapshot() {
  DebugSnapshot d;
  {
    std::lock_guard<std::mutex> lock(mu_);
    d.queue_depth = queue_.size();
    d.inflight_tenants = tenant_inflight_.size();
    for (const auto& [tenant, count] : tenant_inflight_) {
      d.inflight_requests += count;
    }
    d.stopping = stopping_;
  }
  d.stats = stats();
  d.sessions = sessions_.size();
  d.session_capacity = sessions_.capacity();
  SessionCache::Stats cs = sessions_.stats();
  d.session_hits = cs.hits;
  d.session_misses = cs.misses;
  d.session_evictions = cs.evictions;
  d.threads = config_.threads;
  d.queue_cap = config_.queue_cap;
  d.batch_max = config_.batch_max;
  return d;
}

std::string CurationServer::DebugSnapshotJson() {
  DebugSnapshot d = GetDebugSnapshot();
  JsonObject queue;
  queue.Set("depth", static_cast<size_t>(d.queue_depth))
      .Set("cap", d.queue_cap)
      .Set("inflight_tenants", d.inflight_tenants)
      .Set("inflight_requests", static_cast<size_t>(d.inflight_requests));
  JsonObject stats;
  stats.Set("admitted", static_cast<size_t>(d.stats.admitted))
      .Set("rejected_queue_full",
           static_cast<size_t>(d.stats.rejected_queue_full))
      .Set("rejected_tenant_cap",
           static_cast<size_t>(d.stats.rejected_tenant_cap))
      .Set("shutdown_flushed", static_cast<size_t>(d.stats.shutdown_flushed))
      .Set("completed", static_cast<size_t>(d.stats.completed))
      .Set("batches", static_cast<size_t>(d.stats.batches))
      .Set("mean_batch", d.stats.MeanBatch());
  JsonObject sessions;
  sessions.Set("resident", d.sessions)
      .Set("capacity", d.session_capacity)
      .Set("hits", static_cast<size_t>(d.session_hits))
      .Set("misses", static_cast<size_t>(d.session_misses))
      .Set("evictions", static_cast<size_t>(d.session_evictions));
  JsonObject out;
  out.SetRaw("stopping", d.stopping ? "true" : "false");
  out.Set("threads", d.threads)
      .Set("batch_max", d.batch_max)
      .SetRaw("queue", queue.str())
      .SetRaw("stats", stats.str())
      .SetRaw("sessions", sessions.str());
  return out.str();
}

CurationServer::Stats CurationServer::stats() const {
  Stats s;
  s.admitted = admitted_.load(std::memory_order_relaxed);
  s.rejected_queue_full = rejected_queue_full_.load(std::memory_order_relaxed);
  s.rejected_tenant_cap = rejected_tenant_cap_.load(std::memory_order_relaxed);
  s.shutdown_flushed = shutdown_flushed_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace autodc::serve
