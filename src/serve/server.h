#ifndef AUTODC_SERVE_SERVER_H_
#define AUTODC_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/common/result.h"
#include "src/data/table.h"
#include "src/obs/trace.h"
#include "src/serve/request.h"
#include "src/serve/session.h"
#include "src/serve/session_cache.h"

namespace autodc::serve {

/// Server shape: queue bound, micro-batch flush policy, admission caps,
/// session cache size. Configured in code; there is no environment
/// layer.
struct ServeConfig {
  /// Worker threads draining the queue. The server owns its workers
  /// (the global ThreadPool may legitimately have zero).
  size_t threads = 1;
  /// Bounded request-queue depth; submissions past it are rejected
  /// with kRejectedQueueFull (backpressure, never unbounded memory).
  size_t queue_cap = 1024;
  /// Micro-batch flush size: a worker coalesces up to this many
  /// same-(session, kind) requests into one batched forward.
  size_t batch_max = 32;
  /// Deadline flush: a worker holds the oldest request at most this
  /// long waiting for the batch to fill. 0 = flush immediately.
  size_t batch_wait_us = 200;
  /// Per-tenant admitted-but-incomplete cap; past it submissions get
  /// kRejectedTenantCap.
  size_t tenant_inflight_cap = 256;
  /// LRU slots in the session/model cache.
  size_t session_capacity = 8;
  /// Fraction of admitted requests that get a request-scoped trace
  /// (admission → batch → execute spans under one trace id). 0 = off
  /// (the default: tracing every request costs real QPS), 1 = all.
  double trace_sample = 0.0;
  /// Per-worker completed-span buffer capacity (0 = the library
  /// default, obs::kSpanBufferCap). Sized so a full bench_serve run at
  /// trace_sample=1 drops zero spans.
  size_t worker_span_buffer = 65536;
  SessionConfig session;
};

/// Completion handle for one Submit/SubmitMany call: responses land
/// positionally (response i answers request i), and Wait() blocks until
/// every slot — admitted, rejected, or shutdown-flushed — is filled.
/// One handle serves a whole client window, so a pipelined client pays
/// one wakeup per window rather than one per request.
class PendingBatch {
 public:
  /// Blocks until all responses are in, then returns them.
  const std::vector<ServeResponse>& Wait();
  bool Ready() const;

 private:
  friend class CurationServer;
  explicit PendingBatch(size_t n) : remaining_(n), responses_(n) {}
  void CompleteSlot(size_t slot, ServeResponse&& resp);
  /// Fills `count` slots under one lock — a worker finishing a batch
  /// pays one lock per (group, run), not one per request.
  void CompleteSlots(const size_t* slots, ServeResponse* resps, size_t count);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  size_t remaining_;
  std::vector<ServeResponse> responses_;
};

/// The long-running, multi-tenant curation server (DESIGN.md §13):
/// bounded MPMC queue → micro-batcher → worker threads → per-dataset
/// session cache. Thread-safe throughout; destruction stops the server
/// (in-flight batches drain, queued requests get kShutdown).
class CurationServer {
 public:
  explicit CurationServer(const ServeConfig& config);
  ~CurationServer();

  CurationServer(const CurationServer&) = delete;
  CurationServer& operator=(const CurationServer&) = delete;

  /// Opens (or re-finds) a session for an ADCT table file, keyed on the
  /// file's content fingerprint. A second open of byte-identical data
  /// is a cache hit — no rebuild.
  Result<uint64_t> OpenSession(const std::string& adct_path);
  /// Same, from an in-memory table (fingerprint of its logical content).
  Result<uint64_t> OpenSessionFromTable(const data::Table& table);

  /// The cached session, or null (evicted / never opened).
  std::shared_ptr<Session> FindSession(uint64_t fingerprint);

  /// Re-syncs a session's serving state after updates (re-encode,
  /// embedding overwrite, ANN rebuild — see Session::Refresh).
  Status RefreshSession(uint64_t fingerprint);

  /// Enqueues one request. Admission control may settle it immediately
  /// (typed reject); otherwise a worker completes it.
  std::shared_ptr<PendingBatch> Submit(const ServeRequest& request);
  /// Enqueues a window of requests under one completion handle. Each
  /// request is admitted independently — a window may come back with a
  /// mix of kOk and typed rejects.
  std::shared_ptr<PendingBatch> SubmitMany(
      const std::vector<ServeRequest>& requests);

  /// Executes a request inline on the unbatched sequential path — no
  /// queue, no coalescing. The correctness oracle for the batched path
  /// (results must be byte-identical) and the single-threaded QPS
  /// baseline bench_serve measures against.
  ServeResponse ExecuteSequential(const ServeRequest& request);

  /// Stops the server: workers finish the batch they are executing
  /// (in-flight work drains), everything still queued completes with
  /// kShutdown, workers join. Idempotent; later submissions are
  /// settled immediately with kShutdown.
  void Stop();
  bool stopped() const { return stopped_.load(std::memory_order_acquire); }

  const ServeConfig& config() const { return config_; }
  SessionCache& sessions() { return sessions_; }

  struct Stats {
    uint64_t admitted = 0;
    uint64_t rejected_queue_full = 0;
    uint64_t rejected_tenant_cap = 0;
    uint64_t shutdown_flushed = 0;
    uint64_t completed = 0;
    uint64_t batches = 0;
    /// Mean micro-batch size over all executed batches — > 1 under
    /// concurrent load is the "batching actually engaged" check.
    double MeanBatch() const {
      return batches == 0 ? 0.0
                          : static_cast<double>(completed) /
                                static_cast<double>(batches);
    }
  };
  Stats stats() const;

  /// One consistent live view of the server's internals — what obs_top
  /// renders and what an operator asks for when the server misbehaves.
  /// Cheap: one short critical section, no model or session work.
  struct DebugSnapshot {
    uint64_t queue_depth = 0;
    size_t inflight_tenants = 0;    ///< tenants with admitted work
    uint64_t inflight_requests = 0; ///< admitted-but-incomplete requests
    bool stopping = false;
    Stats stats;
    size_t sessions = 0;
    size_t session_capacity = 0;
    uint64_t session_hits = 0;
    uint64_t session_misses = 0;
    uint64_t session_evictions = 0;
    size_t threads = 0;
    size_t queue_cap = 0;
    size_t batch_max = 0;
  };
  DebugSnapshot GetDebugSnapshot();
  /// The snapshot as a one-line JSON object (common/json escaping).
  std::string DebugSnapshotJson();

 private:
  struct Item {
    ServeRequest request;
    std::shared_ptr<PendingBatch> group;
    size_t slot = 0;
    std::chrono::steady_clock::time_point enqueued;
    /// Nonzero trace_id = this request was sampled for tracing; the
    /// context is the admission span, which worker spans parent under.
    obs::TraceContext trace;
  };

  void WorkerLoop();
  /// Pops a coalesced batch off the queue (same session + kind, up to
  /// batch_max, deadline-waited). Returns false on shutdown.
  bool NextBatch(std::vector<Item>* batch);
  void ExecuteAndComplete(std::vector<Item>* batch);
  void DecrementInflight(const std::vector<Item>& batch);
  /// Deterministic stride sampling against config_.trace_sample.
  bool SampleTrace();

  ServeConfig config_;
  SessionCache sessions_;

  std::once_flag stop_once_;  ///< Stop() runs exactly once; later calls wait
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Item> queue_;
  std::unordered_map<std::string, size_t> tenant_inflight_;
  bool stopping_ = false;
  std::atomic<bool> stopped_{false};

  std::vector<std::thread> workers_;

  // Counters are written under mu_ on the submit path and from workers
  // on completion; atomics keep stats() lock-free and exact.
  std::atomic<uint64_t> admitted_{0};
  std::atomic<uint64_t> rejected_queue_full_{0};
  std::atomic<uint64_t> rejected_tenant_cap_{0};
  std::atomic<uint64_t> shutdown_flushed_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> trace_seq_{0};  ///< stride-sampling sequence
};

}  // namespace autodc::serve

#endif  // AUTODC_SERVE_SERVER_H_
