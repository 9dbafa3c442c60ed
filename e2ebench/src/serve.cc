// serve_mixed (open loop, independent tenants) and serve_churn (closed
// loop, one caller cycling over more datasets than the session cache
// holds) against serve::CurationServer.
//
// Completion in the open loop is observed by one observer thread that
// waits on each request's completion handle in submission order. A
// request that finishes before an earlier one is only seen once the
// earlier one is seen (head-of-line bias): its latency is overstated by
// at most the earlier request's remaining time. Requests finish out of
// order only through same-(session, kind) batching and the two workers
// running batches side by side, so the bias is bounded by the batches in
// flight (one per worker).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "e2ebench/src/bench.h"
#include "e2ebench/src/lake.h"
#include "e2ebench/src/layers.h"
#include "e2ebench/src/stats.h"
#include "src/common/rng.h"
#include "src/data/table_file.h"
#include "src/serve/server.h"

namespace e2ebench {

namespace {

using autodc::Rng;
using autodc::serve::CurationServer;
using autodc::serve::PendingBatch;
using autodc::serve::RequestKind;
using autodc::serve::ServeConfig;
using autodc::serve::ServeRequest;
using autodc::serve::ServeResponse;
using autodc::serve::ServeStatus;
namespace obs = autodc::obs;

// Fresh servers built in turn for setup_s, which reports their median.
// Session builds train on the global pool, so one slow vCPU stretches a
// build; over five servers the median still moved 25% between runs.
constexpr int kSetupRepeats = 9;
// Every this many OK responses one is kept for the oracle comparison, up
// to a fixed number so memory does not grow with throughput.
constexpr size_t kOracleEvery = 16;
constexpr size_t kOracleMax = 6000;
// Traced runs sample one request in this many for request-scoped spans.
constexpr double kTraceSample = 1.0 / 32;
// Sequential service-time probes per request kind in a traced run.
constexpr int kProbes = 300;
// serve_mixed: share of the run in the low, high and saturation phases.
constexpr double kLowShare = 0.3, kHighShare = 0.3, kSatShare = 0.4;
constexpr size_t kTenants = 8;
constexpr size_t kSatWindow = 64;
constexpr size_t kSatDepth = 4;
// Above p90 the low-rate tail is set by how fast the host wakes idle
// vCPUs, not by the server: on a shared 4-vCPU VM the p99 of five seeds
// spread from 0.75 to 1.7 ms while p90 stayed within 0.52-0.64 ms. The
// gated tail is p90, taken per one-second slice of the low-rate phase
// with the median over slices reported, so a burst of host contention
// shorter than half the phase does not decide it; p99 is still printed.
constexpr double kMixedTailPercentile = 90.0;
// serve_churn: three hot datasets stay resident in a four-slot cache
// while three cold ones take turns in the fourth slot. Every round visits
// the hot ones in a seeded order and then the next cold one, so after the
// first round exactly one visit in four misses and rebuilds; in two of
// every five rounds one hot visit also updates and refreshes (10% of
// visits). The structure is fixed, so the miss and refresh shares do not
// move with the seed.
constexpr size_t kChurnHot = 3;
constexpr size_t kChurnCold = 3;
constexpr size_t kChurnCapacity = kChurnHot + 1;
constexpr size_t kChurnWindow = 16;
// A churn run makes at least this many visits whatever the time budget,
// so the visit tail always has 10 visits beyond it.
constexpr size_t kMinVisits = 11;
// The churn tail leaves this share of the visits (and at least 10) beyond
// it, about p95: the slowest misses are single session builds that a host
// stall stretched, and over ten seeds the visit at rank n - 10 (p99)
// spread 25% while the median miss held within a few percent.
constexpr size_t kChurnTailShareInverse = 20;

// Request mix of serve_mixed and of every serve_churn read window. No
// source gives a tenant mix for this kind of server, so the shares are an
// assumption: score_pair, the kind the server coalesces into batches,
// draws twice the share of each other kind. Per-kind costs differ by
// about 1000x, so the mix decides where the service time goes; a traced
// run prints each kind's share of it.
struct KindShare {
  RequestKind kind;
  const char* name;
  double share;
};
constexpr KindShare kMix[] = {
    {RequestKind::kScorePair, "score_pair", 0.4},
    {RequestKind::kNearestRows, "nearest_rows", 0.2},
    {RequestKind::kImpute, "impute", 0.2},
    {RequestKind::kOutlierCheck, "outlier_check", 0.2},
};

RequestKind DrawKind(Rng* rng) {
  double u = rng->Uniform();
  for (const KindShare& k : kMix) {
    if (u < k.share) return k.kind;
    u -= k.share;
  }
  return kMix[std::size(kMix) - 1].kind;
}

// One generated request with its ground truth for score_pair.
struct Req {
  ServeRequest r;
  int label = -1;  ///< score_pair: 1 planted duplicate, 0 not
};

struct Dataset {
  const ServeDataset* file = nullptr;
  uint64_t session = 0;
  std::set<std::pair<size_t, size_t>> planted;
};

Req MakeRequest(Rng* rng, const Dataset& d, const std::string& tenant) {
  Req q;
  q.r.session = d.session;
  q.r.tenant = tenant;
  auto row = [&] {
    return static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(d.file->rows) - 1));
  };
  q.r.kind = DrawKind(rng);
  if (q.r.kind == RequestKind::kScorePair) {
    if (rng->Bernoulli(0.5) && !d.file->planted.empty()) {
      auto p = d.file->planted[static_cast<size_t>(rng->UniformInt(
          0, static_cast<int64_t>(d.file->planted.size()) - 1))];
      q.r.row_a = p.first;
      q.r.row_b = p.second;
    } else {
      q.r.row_a = row();
      do {
        q.r.row_b = row();
      } while (q.r.row_b == q.r.row_a);
    }
    auto key = std::minmax(q.r.row_a, q.r.row_b);
    q.label = d.planted.count({key.first, key.second}) ? 1 : 0;
  } else if (q.r.kind == RequestKind::kNearestRows) {
    q.r.row_a = row();
    q.r.k = 5;
  } else if (q.r.kind == RequestKind::kImpute) {
    q.r.row_a = row();
    q.r.col = static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(d.file->cols) - 1));
  } else {
    q.r.row_a = row();
    q.r.col = d.file->numeric_col;
  }
  return q;
}

// Precision/recall of score_pair at 0.5 over the served responses.
struct MatchStats {
  size_t tp = 0, fp = 0, fn = 0;
  void Add(const Req& q, const ServeResponse& resp) {
    if (q.label < 0 || resp.status != ServeStatus::kOk) return;
    bool pred = resp.score >= 0.5;
    if (pred && q.label == 1) ++tp;
    if (pred && q.label == 0) ++fp;
    if (!pred && q.label == 1) ++fn;
  }
  double Precision() const { return tp + fp ? double(tp) / (tp + fp) : 0.0; }
  double Recall() const { return tp + fn ? double(tp) / (tp + fn) : 0.0; }
};

// Everything a run keeps across phases for the checks and metrics.
struct Ledger {
  MatchStats match;
  std::vector<std::pair<ServeRequest, ServeResponse>> oracle;
  size_t ok_seen = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Add(const Req& q, const ServeResponse& resp) {
    ++attempted;
    if (resp.status != ServeStatus::kOk) {
      ++failed;
      return;
    }
    match.Add(q, resp);
    if (ok_seen++ % kOracleEvery == 0 && oracle.size() < kOracleMax) {
      oracle.emplace_back(q.r, resp);
    }
  }
};

ServeConfig MakeConfig(size_t workers, size_t session_capacity, bool trace) {
  ServeConfig cfg;  // library defaults, never the environment
  cfg.threads = workers;
  cfg.queue_cap = 4096;
  cfg.session_capacity = session_capacity;
  cfg.trace_sample = trace ? kTraceSample : 0.0;
  return cfg;
}

std::vector<Dataset> Attach(const std::vector<ServeDataset>& files) {
  std::vector<Dataset> ds(files.size());
  for (size_t i = 0; i < files.size(); ++i) {
    ds[i].file = &files[i];
    for (const auto& p : files[i].planted) ds[i].planted.insert(p);
  }
  return ds;
}

// Builds kSetupRepeats fresh servers in turn, each opening sessions for
// `open` datasets and timing each OpenSession; the last server stays.
// Returns the median set-up time in ms.
double SetUp(const ServeConfig& cfg, std::vector<Dataset>* ds, size_t open,
             std::unique_ptr<CurationServer>* server,
             std::vector<double>* build_ms, Report* report) {
  std::vector<double> setup_ms;
  for (int k = 0; k < kSetupRepeats; ++k) {
    server->reset();
    int64_t t0 = NowNs();
    *server = std::make_unique<CurationServer>(cfg);
    for (size_t i = 0; i < open; ++i) {
      int64_t b0 = NowNs();
      auto id = (*server)->OpenSession((*ds)[i].file->path);
      build_ms->push_back(MsSince(b0));
      report->Check(id.ok(), "OpenSession failed: " + id.status().ToString());
      if (id.ok()) (*ds)[i].session = id.ValueOrDie();
    }
    setup_ms.push_back(MsSince(t0));
  }
  std::printf("set-up: median %.1f ms over %d fresh servers opening %zu "
              "sessions each (min %.1f, max %.1f ms)\n",
              Median(setup_ms), kSetupRepeats, open,
              *std::min_element(setup_ms.begin(), setup_ms.end()),
              *std::max_element(setup_ms.begin(), setup_ms.end()));
  return Median(setup_ms);
}

// ---- Open loop ---------------------------------------------------------

struct InFlight {
  size_t idx;
  int64_t due;
  int64_t sent;
  std::shared_ptr<PendingBatch> handle;
};

// Sends `reqs` at `t0 + offset_ns[i]` from this thread (sleeping, never
// spinning, until each due time) while one observer thread waits on the
// completions in order.
PhaseRecorder OpenLoop(CurationServer* server, const std::vector<Req>& reqs,
                       const std::vector<int64_t>& offset_ns, double slo_ms,
                       Ledger* ledger) {
  PhaseRecorder rec(slo_ms);
  std::mutex mu;
  std::condition_variable cv;
  std::deque<InFlight> queue;
  bool done = false;

  std::thread observer([&] {
    for (;;) {
      InFlight f;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return done || !queue.empty(); });
        if (queue.empty()) return;
        f = std::move(queue.front());
        queue.pop_front();
      }
      const ServeResponse& resp = f.handle->Wait()[0];
      int64_t finished = NowNs();
      rec.Record(f.due, f.sent, finished, resp.status == ServeStatus::kOk);
      ledger->Add(reqs[f.idx], resp);
    }
  });

  int64_t t0 = NowNs() + 1000000;
  for (size_t i = 0; i < reqs.size(); ++i) {
    int64_t due = t0 + offset_ns[i];
    if (NowNs() < due) {
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(due)));
    }
    int64_t sent = NowNs();
    auto handle = server->Submit(reqs[i].r);
    {
      std::lock_guard<std::mutex> lock(mu);
      queue.push_back({i, due, sent, std::move(handle)});
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_one();
  observer.join();
  return rec;
}

// Poisson arrivals at `rps` for `seconds`: independent tenants.
std::vector<int64_t> Arrivals(Rng* rng, double rps, double seconds) {
  std::vector<int64_t> out;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng->Uniform()) / rps;
    if (t >= seconds) return out;
    out.push_back(static_cast<int64_t>(t * 1e9));
  }
}

std::vector<Req> MixedRequests(Rng* rng, const std::vector<Dataset>& ds,
                               size_t n) {
  std::vector<Req> reqs;
  reqs.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const Dataset& d = ds[static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(ds.size()) - 1))];
    std::string tenant = "tenant-" + std::to_string(rng->UniformInt(
                                         0, kTenants - 1));
    reqs.push_back(MakeRequest(rng, d, tenant));
  }
  return reqs;
}

// Closed-loop saturation: windows of requests, kSatDepth in flight so
// the worker never waits on the submitter. Returns the median over
// one-second slices of completed-OK requests per second, so a burst of
// host contention in one slice does not decide the figure.
double Saturate(CurationServer* server, Rng* rng,
                const std::vector<Dataset>& ds, double seconds,
                Ledger* ledger) {
  std::deque<std::pair<std::vector<Req>, std::shared_ptr<PendingBatch>>>
      inflight;
  std::vector<double> per_slice(std::max<size_t>(1, size_t(seconds)), 0.0);
  size_t window = 0;
  int64_t t0 = NowNs();
  auto drain_one = [&] {
    auto& [reqs, handle] = inflight.front();
    const auto& resps = handle->Wait();
    size_t slice = static_cast<size_t>(MsSince(t0) / 1e3);
    for (size_t i = 0; i < reqs.size(); ++i) {
      ledger->Add(reqs[i], resps[i]);
      if (resps[i].status == ServeStatus::kOk && slice < per_slice.size()) {
        per_slice[slice] += 1.0;
      }
    }
    inflight.pop_front();
  };
  while (MsSince(t0) < per_slice.size() * 1e3) {
    std::vector<Req> reqs = MixedRequests(rng, ds, kSatWindow);
    std::vector<ServeRequest> batch;
    for (Req& q : reqs) {
      q.r.tenant = "saturate-" + std::to_string(window % kSatDepth);
      batch.push_back(q.r);
    }
    ++window;
    inflight.emplace_back(std::move(reqs), server->SubmitMany(batch));
    if (inflight.size() >= kSatDepth) drain_one();
  }
  while (!inflight.empty()) drain_one();
  return Median(per_slice);
}

// Compares every kept response with the sequential oracle.
double OracleAgree(CurationServer* server, const Ledger& ledger,
                   Report* report) {
  size_t agree = 0;
  for (const auto& [req, resp] : ledger.oracle) {
    if (server->ExecuteSequential(req) == resp) ++agree;
  }
  double share = ledger.oracle.empty()
                     ? 0.0
                     : static_cast<double>(agree) / ledger.oracle.size();
  report->Check(!ledger.oracle.empty() && agree == ledger.oracle.size(),
                "served responses differ from ExecuteSequential (" +
                    std::to_string(agree) + "/" +
                    std::to_string(ledger.oracle.size()) + ")");
  return share;
}

// Median microseconds of ExecuteSequential over `kProbes` requests of one
// kind, drawn like the workload's own.
double ProbeKind(CurationServer* server, Rng* rng,
                 const std::vector<Dataset>& ds, RequestKind kind) {
  std::vector<double> us;
  while (us.size() < static_cast<size_t>(kProbes)) {
    Req q = MakeRequest(rng, ds[us.size() % ds.size()], "probe");
    if (q.r.kind != kind) continue;
    int64_t t0 = NowNs();
    ServeResponse resp = server->ExecuteSequential(q.r);
    us.push_back(MsSince(t0) * 1e3);
    (void)resp;
  }
  return Median(us);
}

// Queue wait of the requests admitted between two snapshots.
void SetQueueWait(const obs::MetricsSnapshot& before,
                  const obs::MetricsSnapshot& after, Report* report) {
  for (double q : {0.5, 0.99}) {
    report->Set(q == 0.5 ? "serve.queue_wait_ms_p50" : "serve.queue_wait_ms_p99",
                HistDeltaQuantile(before, after, "serve.queue.wait_us", q) /
                    1e3);
  }
}

// Per-layer metrics every traced serve run reports.
void TraceServeLayers(CurationServer* server, Rng* rng,
                      const std::vector<Dataset>& ds, Report* report) {
  obs::MetricsSnapshot run = obs::MetricsRegistry::Global().Snapshot();
  CurationServer::Stats st = server->stats();
  report->Set("serve.batch_size_mean", st.MeanBatch());
  double rejected =
      static_cast<double>(st.rejected_queue_full + st.rejected_tenant_cap);
  report->Set("serve.reject_ratio",
              ShareOf(rejected, static_cast<double>(st.admitted)));
  SetRuntimeLayers(run, 1.0, report);

  report->Set("nn.score_us", ProbeKind(server, rng, ds, RequestKind::kScorePair));
  report->Set("cleaning.knn_impute_us",
              ProbeKind(server, rng, ds, RequestKind::kImpute));
  report->Set("serve.outlier_us",
              ProbeKind(server, rng, ds, RequestKind::kOutlierCheck));
  obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
  report->Set("ann.nearest_us",
              ProbeKind(server, rng, ds, RequestKind::kNearestRows));
  obs::MetricsSnapshot after = obs::MetricsRegistry::Global().Snapshot();
  double searches = CounterValue(after, "ann.searches") -
                    CounterValue(before, "ann.searches");
  double evals = CounterValue(after, "ann.distance_evals") -
                 CounterValue(before, "ann.distance_evals");
  report->Set("ann.distance_evals_per_search",
              searches > 0 ? evals / searches : 0.0);
  const std::map<std::string, double>& m = report->metrics();
  // In kMix order.
  const double kind_us[] = {m.at("nn.score_us"), m.at("ann.nearest_us"),
                            m.at("cleaning.knn_impute_us"),
                            m.at("serve.outlier_us")};
  double total_us = 0.0;
  for (size_t i = 0; i < std::size(kMix); ++i) {
    total_us += kMix[i].share * kind_us[i];
  }
  std::printf("sequential service time by kind at the request mix:");
  for (size_t i = 0; i < std::size(kMix); ++i) {
    std::printf(" %s %.1f%% (%.0f%% of requests x %.2f us)", kMix[i].name,
                100.0 * kMix[i].share * kind_us[i] / total_us,
                100.0 * kMix[i].share, kind_us[i]);
  }
  std::printf("\n");

  // Batched scoring straight through Session::ExecuteBatch.
  auto session = server->FindSession(ds[0].session);
  std::vector<double> per_req;
  if (session != nullptr) {
    for (int rep = 0; rep < 50; ++rep) {
      std::vector<Req> batch;
      while (batch.size() < 32) {
        Req q = MakeRequest(rng, ds[0], "probe");
        if (q.r.kind == RequestKind::kScorePair) batch.push_back(q);
      }
      std::vector<const ServeRequest*> ptrs;
      for (const Req& q : batch) ptrs.push_back(&q.r);
      int64_t t0 = NowNs();
      auto resps = session->ExecuteBatch(ptrs);
      per_req.push_back(MsSince(t0) * 1e3 / 32.0);
    }
  }
  report->Set("nn.score_batched_us_per_req", Median(per_req));

  std::vector<double> open_ms;
  for (const Dataset& d : ds) {
    int64_t t0 = NowNs();
    auto t = autodc::data::OpenTableFile(d.file->path);
    open_ms.push_back(MsSince(t0));
    report->Check(t.ok(), "OpenTableFile failed on " + d.file->path);
  }
  report->Set("data.ingest_ms", Median(open_ms));
  uint64_t bytes = 0;
  for (const Dataset& d : ds) bytes += FileBytes(d.file->path);
  report->Set("data.input_bytes", static_cast<double>(bytes));
}

// Output-quality floors for score_pair at 0.5 on planted and random
// pairs: seeds 1-10 measured precision >= 0.99 and recall 0.58-0.67.
constexpr double kMinPrecision = 0.9;
constexpr double kMinRecall = 0.4;

void CheckMatchQuality(const Ledger& ledger, Report* report) {
  report->Check(ledger.match.Precision() >= kMinPrecision,
                "score_pair precision " +
                    std::to_string(ledger.match.Precision()) + " below floor");
  report->Check(ledger.match.Recall() >= kMinRecall,
                "score_pair recall " + std::to_string(ledger.match.Recall()) +
                    " below floor");
}

void SetLedgerLayers(const Ledger& ledger, Report* report) {
  report->Set("serve.match_precision", ledger.match.Precision());
  report->Set("serve.match_recall", ledger.match.Recall());
  report->Set("serve.fail_ratio",
              ledger.attempted ? static_cast<double>(ledger.failed) /
                                     static_cast<double>(ledger.attempted)
                               : 0.0);
}

void PrintTail(const char* what, const std::vector<double>& ms) {
  Tail t = TailWithSupport(ms);
  std::printf("%s: %zu samples, p50 %.3f p90 %.3f p95 %.3f p99 %.3f max "
              "%.3f ms; supported tail p%.1f (%zu beyond)\n",
              what, t.samples, Median(ms), PercentileNearestRank(ms, 90),
              PercentileNearestRank(ms, 95), PercentileNearestRank(ms, 99),
              PercentileNearestRank(ms, 100), t.percentile, t.beyond);
}
}  // namespace

int RunServeMixed(const Options& opt, Report* report) {
  int64_t g0 = NowNs();
  std::vector<ServeDataset> files =
      WriteServeDatasets(opt.seed, opt.work_dir, 3, {420, 360, 480});
  std::vector<Dataset> ds = Attach(files);
  Rng rng(opt.seed * 7919 + 1);
  double low_s = opt.seconds * kLowShare, high_s = opt.seconds * kHighShare;
  std::vector<int64_t> low_at = Arrivals(&rng, opt.low_rps, low_s);
  std::vector<int64_t> high_at = Arrivals(&rng, opt.high_rps, high_s);
  std::printf("generation: %.1f ms, %zu datasets, %zu + %zu arrivals "
              "(not part of any metric)\n",
              MsSince(g0), files.size(), low_at.size(), high_at.size());

  // Generator + observer + workers stay within the machine's cores. Two
  // workers rather than one: on a shared VM one core can run 1.5x slower
  // than another for seconds at a time, and a single worker's throughput
  // follows whichever core it landed on.
  size_t cores = std::max(1u, std::thread::hardware_concurrency());
  size_t workers = cores >= 4 ? 2 : 1;
  std::printf("threads: generator 1, observer 1, server workers %zu (%zu "
              "cores)\n",
              workers, cores);
  ServeConfig cfg = MakeConfig(workers, 8, opt.trace);
  std::unique_ptr<CurationServer> server;
  std::vector<double> build_ms;
  double setup_ms = SetUp(cfg, &ds, ds.size(), &server, &build_ms, report);
  if (!report->correct()) return 0;
  // Request contents need the session handles, so they follow set-up.
  std::vector<Req> low = MixedRequests(&rng, ds, low_at.size());
  std::vector<Req> high = MixedRequests(&rng, ds, high_at.size());

  if (opt.trace) {
    ZeroPerLayer(report);
    obs::SetEnabled(true);
    obs::SetThreadSpanBufferCap(1 << 20);
    obs::ClearSpans();
    obs::MetricsRegistry::Global().ResetValues();
  }
  // Warm-up window: first batches, lazy buffers.
  Ledger warm;
  Saturate(server.get(), &rng, ds, 1.0, &warm);

  Ledger ledger;
  obs::MetricsSnapshot before_low = obs::MetricsRegistry::Global().Snapshot();
  PhaseRecorder lo = OpenLoop(server.get(), low, low_at, opt.Slo(), &ledger);
  obs::MetricsSnapshot after_low = obs::MetricsRegistry::Global().Snapshot();
  PhaseRecorder hi = OpenLoop(server.get(), high, high_at, opt.Slo(), &ledger);
  double capacity = Saturate(server.get(), &rng, ds,
                             opt.seconds * kSatShare, &ledger);
  report->attempted = ledger.attempted + warm.attempted;
  report->failed = ledger.failed + warm.failed;
  report->Check(report->failed == 0,
                std::to_string(report->failed) + " requests failed");
  double agree = OracleAgree(server.get(), ledger, report);
  CheckMatchQuality(ledger, report);

  std::vector<double> late = lo.lateness_ms();
  late.insert(late.end(), hi.lateness_ms().begin(), hi.lateness_ms().end());
  double late_max = PercentileNearestRank(late, 100);
  PrintTail("low rate", lo.latency_ms());
  PrintTail("high rate", hi.latency_ms());
  std::printf("saturation: %.0f requests/s; generator late p99 %.3f ms, max "
              "%.3f ms; score_pair precision %.3f recall %.3f; oracle %zu "
              "samples\n",
              capacity, PercentileNearestRank(late, 99), late_max,
              ledger.match.Precision(), ledger.match.Recall(),
              ledger.oracle.size());

  if (opt.trace) {
    TraceServeLayers(server.get(), &rng, ds, report);
    SetLedgerLayers(ledger, report);
    report->Set("oracle_agree", agree);
    SetQueueWait(before_low, after_low, report);
    report->Set("serve.session_build_ms", Median(build_ms));
    report->Set("serve.latency_high_ms", Median(hi.latency_ms()));
    report->Set("serve.tail_high_ms",
                PercentileNearestRank(hi.latency_ms(), 99));
    report->Set("gen.late_ms_p99", PercentileNearestRank(late, 99));
    report->Set("gen.late_ms_max", late_max);
    std::vector<double> fp_ms;
    for (int i = 0; i < 20; ++i) {
      int64_t t0 = NowNs();
      auto id = server->OpenSession(ds[i % ds.size()].file->path);
      fp_ms.push_back(MsSince(t0));
      report->Check(id.ok(), "re-open failed");
    }
    report->Set("data.fingerprint_ms", Median(fp_ms));
    // Tracing overhead: saturation throughput with obs off, then on.
    std::vector<obs::SpanRecord> spans = obs::TakeSpans();
    obs::SetEnabled(false);
    Ledger scratch;
    double cap_off = Saturate(server.get(), &rng, ds, 1.0, &scratch);
    obs::SetEnabled(true);
    double cap_on = Saturate(server.get(), &rng, ds, 1.0, &scratch);
    std::vector<obs::SpanRecord> more = obs::TakeSpans();
    spans.insert(spans.end(), more.begin(), more.end());
    obs::SetEnabled(false);
    report->Set("obs.trace_overhead_pct",
                cap_off > 0 ? (cap_off - cap_on) / cap_off * 100.0 : 0.0);
    ReportSpans(opt, spans, report);
    return 0;
  }

  size_t slices = std::max<size_t>(1, static_cast<size_t>(low_s));
  Tail p50 = SlicedPercentile(lo.latency_ms(), slices, 50.0);
  Tail tail = SlicedPercentile(lo.latency_ms(), slices, kMixedTailPercentile);
  report->Check(tail.beyond >= 10, "low-rate tail has under 10 samples beyond");
  std::printf("low rate, median over %zu slices: p50 %.3f ms, p%g %.3f ms "
              "(%zu samples and %zu beyond per slice)\n",
              slices, p50.value, tail.percentile, tail.value, tail.samples,
              tail.beyond);
  double both = static_cast<double>(lo.attempted() + hi.attempted());
  report->Set("setup_s", setup_ms / 1e3);
  report->Set("latency_ms", p50.value);
  report->Set("tail_ms", tail.value);
  report->Set("capacity_rps", capacity);
  report->Set("slo_ok_ratio",
              static_cast<double>(lo.slo_ok() + hi.slo_ok()) / both);
  report->Set("peak_rss_mb", PeakRssMb());
  return 0;
}

namespace {

struct ChurnStats {
  std::vector<double> visit_ms, hit_ms, miss_ms, refresh_ms;
  size_t served_ok = 0;
  size_t compared = 0;
  size_t agree = 0;
};

// One closed-loop caller: each visit opens (or re-finds) a dataset's
// session, reads a window, and on a refresh visit updates three cells and
// refreshes the session. Served responses are compared with
// ExecuteSequential before any update, outside the visit's timing.
void ChurnLoop(CurationServer* server, Rng* rng, std::vector<Dataset>* ds,
               double seconds, Ledger* ledger, ChurnStats* st,
               Report* report) {
  uint64_t updates = 0;
  int64_t loop0 = NowNs();
  for (size_t round = 0;
       MsSince(loop0) < seconds * 1e3 || st->visit_ms.size() < kMinVisits;
       ++round) {
    std::vector<size_t> order(kChurnHot);
    for (size_t i = 0; i < kChurnHot; ++i) order[i] = i;
    rng->Shuffle(&order);
    size_t refresh_at = round % 5 == 1 || round % 5 == 3
                            ? static_cast<size_t>(rng->UniformInt(
                                  0, static_cast<int64_t>(kChurnHot) - 1))
                            : SIZE_MAX;
    order.push_back(kChurnHot + round % kChurnCold);
    for (size_t v = 0; v < order.size(); ++v) {
      Dataset& d = (*ds)[order[v]];
      bool resident = server->sessions().Contains(d.session);
      int64_t t0 = NowNs();
      auto id = server->OpenSession(d.file->path);
      double open_ms = MsSince(t0);
      ++ledger->attempted;
      if (!id.ok()) {
        ++ledger->failed;
        report->Check(false, "OpenSession failed: " + id.status().ToString());
        return;
      }
      (resident ? st->hit_ms : st->miss_ms).push_back(open_ms);
      d.session = id.ValueOrDie();
      std::vector<Req> window;
      std::vector<ServeRequest> batch;
      for (size_t i = 0; i < kChurnWindow; ++i) {
        window.push_back(MakeRequest(rng, d, "churn"));
        batch.push_back(window.back().r);
      }
      const std::vector<ServeResponse> resps =
          server->SubmitMany(batch)->Wait();
      double read_ms = MsSince(t0);

      for (size_t i = 0; i < window.size(); ++i) {
        ledger->Add(window[i], resps[i]);
        if (resps[i].status != ServeStatus::kOk) continue;
        ++st->served_ok;
        ++st->compared;
        if (server->ExecuteSequential(window[i].r) == resps[i]) ++st->agree;
      }

      double write_ms = 0.0;
      if (v == refresh_at) {
        int64_t w0 = NowNs();
        auto session = server->FindSession(d.session);
        bool ok = session != nullptr;
        for (int c = 0; ok && c < 3; ++c) {
          size_t r = static_cast<size_t>(
              rng->UniformInt(0, static_cast<int64_t>(d.file->rows) - 1));
          ok = session
                   ->Update(r, 0, autodc::data::Value(
                                      "updated " + std::to_string(updates++)))
                   .ok();
        }
        int64_t r0 = NowNs();
        ok = ok && server->RefreshSession(d.session).ok();
        st->refresh_ms.push_back(MsSince(r0));
        write_ms = MsSince(w0);
        ++ledger->attempted;
        if (!ok) ++ledger->failed;
        report->Check(ok, "Update/RefreshSession failed");
      }
      st->visit_ms.push_back(read_ms + write_ms);
    }
  }
}

}  // namespace

int RunServeChurn(const Options& opt, Report* report) {
  int64_t g0 = NowNs();
  std::vector<ServeDataset> files = WriteServeDatasets(
      opt.seed, opt.work_dir, kChurnHot + kChurnCold, {330});
  std::vector<Dataset> ds = Attach(files);
  Rng rng(opt.seed * 104729 + 3);
  std::printf("generation: %.1f ms, %zu datasets (not part of any metric)\n",
              MsSince(g0), files.size());

  ServeConfig cfg = MakeConfig(1, kChurnCapacity, opt.trace);
  std::unique_ptr<CurationServer> server;
  std::vector<double> build_ms;
  double setup_ms = SetUp(cfg, &ds, kChurnCapacity, &server, &build_ms, report);
  if (!report->correct()) return 0;

  Ledger ledger;
  ChurnStats st;
  if (opt.trace) {
    // Half the run untraced, half traced: the median visits of the two
    // halves give the tracing overhead.
    ZeroPerLayer(report);
    ChurnStats plain;
    ChurnLoop(server.get(), &rng, &ds, opt.seconds / 2, &ledger, &plain,
              report);
    obs::SetEnabled(true);
    obs::SetThreadSpanBufferCap(1 << 20);
    obs::ClearSpans();
    obs::MetricsRegistry::Global().ResetValues();
    obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
    ChurnLoop(server.get(), &rng, &ds, opt.seconds / 2, &ledger, &st, report);
    CheckMatchQuality(ledger, report);
    SetQueueWait(before, obs::MetricsRegistry::Global().Snapshot(), report);
    std::vector<obs::SpanRecord> spans = obs::TakeSpans();
    report->attempted = ledger.attempted;
    report->failed = ledger.failed;
    TraceServeLayers(server.get(), &rng, ds, report);
    obs::SetEnabled(false);
    SetLedgerLayers(ledger, report);
    std::vector<double> builds = build_ms;
    builds.insert(builds.end(), st.miss_ms.begin(), st.miss_ms.end());
    report->Set("serve.session_build_ms", Median(builds));
    report->Set("serve.refresh_ms", Median(st.refresh_ms));
    report->Set("data.fingerprint_ms", Median(st.hit_ms));
    report->Set("serve.session_hit_ratio",
                ShareOf(static_cast<double>(st.hit_ms.size()),
                        static_cast<double>(st.miss_ms.size())));
    double off = Median(plain.visit_ms);
    report->Set("obs.trace_overhead_pct",
                off > 0 ? (Median(st.visit_ms) - off) / off * 100.0 : 0.0);
    report->Check(plain.agree == plain.compared && st.agree == st.compared,
                  "served responses differ from ExecuteSequential");
    report->Set("oracle_agree",
                static_cast<double>(plain.agree + st.agree) /
                    static_cast<double>(plain.compared + st.compared));
    ReportSpans(opt, spans, report);
    return 0;
  }

  ChurnLoop(server.get(), &rng, &ds, opt.seconds, &ledger, &st, report);
  CheckMatchQuality(ledger, report);
  report->attempted = ledger.attempted;
  report->failed = ledger.failed;
  report->Check(ledger.failed == 0,
                std::to_string(ledger.failed) + " operations failed");
  report->Check(st.compared > 0 && st.agree == st.compared,
                "served responses differ from ExecuteSequential (" +
                    std::to_string(st.agree) + "/" +
                    std::to_string(st.compared) + ")");
  PrintTail("visits", st.visit_ms);
  std::printf("cache hits %zu (median %.3f ms), misses %zu (median %.1f ms), "
              "refreshes %zu (median %.1f ms); score_pair precision %.3f "
              "recall %.3f\n",
              st.hit_ms.size(), Median(st.hit_ms), st.miss_ms.size(),
              Median(st.miss_ms), st.refresh_ms.size(), Median(st.refresh_ms),
              ledger.match.Precision(), ledger.match.Recall());

  Tail tail = TailWithSupport(
      st.visit_ms,
      std::max<size_t>(10, st.visit_ms.size() / kChurnTailShareInverse));
  std::printf("visit tail: p%.1f = %.3f ms (%zu samples, %zu beyond)\n",
              tail.percentile, tail.value, tail.samples, tail.beyond);
  size_t slo_ok = 0;
  double visits_ms = 0.0;
  for (double ms : st.visit_ms) {
    slo_ok += ms <= opt.Slo() ? 1 : 0;
    visits_ms += ms;
  }
  double n = static_cast<double>(st.visit_ms.size());
  report->Set("setup_s", setup_ms / 1e3);
  report->Set("latency_ms", Median(st.visit_ms));
  report->Set("tail_ms", tail.value);
  // Served requests per second of visit time: the oracle comparison
  // between visits is the benchmark's work, not the server's.
  report->Set("capacity_rps",
              static_cast<double>(st.served_ok) / (visits_ms / 1e3));
  report->Set("slo_ok_ratio", static_cast<double>(slo_ok) / n);
  report->Set("peak_rss_mb", PeakRssMb());
  return 0;
}

}  // namespace e2ebench
