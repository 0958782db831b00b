// The ledger's workload interface and the helpers the workloads share.
//
// A workload builds its inputs from two seeds: the application seed (the
// generator seed of the paper's SDF3-substitute workload, 2007 by default)
// and the op seed (`--seed`), which draws the op stream: use-case order,
// candidates, query mixes. Every op stream is a pure function of
// (op seed, op index), so two runs with the same seeds do the same work.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "platform/system.h"
#include "platform/system_view.h"
#include "prob/estimator.h"
#include "trace.h"

// Declared here so the short aliases below resolve in every ledger file.
namespace procon::admission {}
namespace procon::api {}
namespace procon::gen {}
namespace procon::sim {}
namespace procon::util {}
namespace procon::wcrt {}

namespace ledger {

namespace admission = procon::admission;
namespace analysis = procon::analysis;
namespace api = procon::api;
namespace gen = procon::gen;
namespace platform = procon::platform;
namespace prob = procon::prob;
namespace sdf = procon::sdf;
namespace sim = procon::sim;
namespace util = procon::util;
namespace wcrt = procon::wcrt;

/// Minimal ordered JSON object writer. Numbers keep all their digits.
class Json {
 public:
  Json& num(const std::string& key, double v);
  Json& count(const std::string& key, std::uint64_t v);
  Json& str(const std::string& key, const std::string& v);
  Json& flag(const std::string& key, bool v);
  Json& obj(const std::string& key, const Json& v);
  Json& nums(const std::string& key, std::span<const double> v);
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  void key(const std::string& k);
  std::string body_;
};

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// How ops are traced during a run.
enum class Mode {
  Plain,      ///< no spans: the untraced end-to-end run
  Alternate,  ///< blocks of ops alternate untraced / traced (overhead pairs)
  Traced,     ///< every op traced (the short passes of a traced run)
};

[[nodiscard]] bool traced_op(std::uint64_t i, Mode mode) noexcept;

/// Closed-loop statistics in windows of a fixed number of ops: each window
/// yields its throughput and latency percentiles. Other tenants of the host
/// only ever slow a window down, so a run reports its quiet windows: the
/// 90th percentile of window throughput and the 10th percentile of the
/// windows' latency percentiles (see quiet()). Memory is bounded by one
/// window of latencies.
class Windows {
 public:
  explicit Windows(std::uint64_t ops_per_window);
  /// (Re)starts the clock of the open window.
  void start(std::int64_t t_ns) { t0_ = t_ns; }
  /// One op's latency; `t_ns` is when it (and any work after it) ended.
  /// True when this op completed a window.
  bool add(double latency_us, std::int64_t t_ns);
  /// Closes a trailing partial window only when no window completed.
  void finish(std::int64_t t_ns);
  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }

  std::vector<double> ops_per_s;  ///< per completed window
  std::vector<double> p50_us;
  std::vector<double> p99_us;

 private:
  void close(std::int64_t t_ns);
  std::uint64_t size_;
  std::vector<double> buf_;
  std::int64_t t0_ = 0;
};

[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank q-quantile.
[[nodiscard]] double quantile(std::vector<double> v, double q);
/// Quiet-window statistic over per-window values: the 90th percentile when
/// higher is better (throughput), the 10th when lower is (latency).
[[nodiscard]] double quiet(std::vector<double> v, bool higher_is_better);

/// What one run of the op loop measured.
struct LoopResult {
  double ops_per_s = 0.0;          ///< quiet window throughput (summed over clients)
  double p50_us = 0.0;             ///< quiet windows' p50 latency
  double p99_us = 0.0;             ///< quiet windows' p99 latency
  std::uint64_t windows = 0;
  std::uint64_t window_ops = 0;
  std::vector<double> window_ops_per_s;  ///< per window, for the record
  double elapsed_s = 0.0;          ///< wall time of the whole loop
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;        ///< ops that threw
  // Alternate mode: untraced vs traced op time, for the tracing overhead.
  double plain_us = 0.0;
  double traced_us = 0.0;
  std::uint64_t plain_n = 0;
  std::uint64_t traced_n = 0;
};

/// Outcome of the correctness gate: sampled ops checked against slower
/// direct oracles, plus the traced run's in-line replay comparisons.
struct Gate {
  std::uint64_t checked = 0;
  std::uint64_t mismatched = 0;
  void expect(bool ok, const std::string& what);
};

/// Layer groups a workload's ops cross (for the traced run).
enum Layer : unsigned {
  kSim = 1u << 0,       ///< sim::SimEngine
  kEst = 1u << 1,       ///< prob estimator steps
  kAnalysis = 1u << 2,  ///< analysis::ThroughputEngine
  kWcrt = 1u << 3,      ///< wcrt bounds
  kWorkbench = 1u << 4, ///< api::Workbench overhead
  kAdmission = 1u << 5, ///< admission::AdmissionController
  kService = 1u << 6,   ///< api::AnalysisService and its transposition table
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generation, construction and warm-up: everything before the first op.
  virtual void setup() = 0;
  /// Ops over which the exact work counters are taken (and the minimum run).
  [[nodiscard]] virtual std::uint64_t counter_ops() const = 0;
  /// Ops per statistics window (per client for multi-client workloads).
  [[nodiscard]] virtual std::uint64_t window_ops() const = 0;
  /// Closed loop on the calling thread until `seconds` have passed and at
  /// least `min_ops` ops ran. `interlude`, when set, runs between two
  /// statistics windows about once a second, outside the windows' time.
  virtual LoopResult run(double seconds, std::uint64_t min_ops, Mode mode,
                         const std::function<void()>& interlude = {});
  /// Post-run oracle checks of the sampled ops.
  virtual void check(Gate& gate) = 0;
  /// Workload parameters for the record header.
  virtual void describe(Json& params) const = 0;
  /// Work counters (and any workload-specific results) for the record.
  virtual void record(Json& rec) const = 0;
  /// Workload-specific end-to-end results for the record (Table 1 accuracy).
  virtual void extra_metrics(Metrics& /*out*/) const {}
  /// True when the counters are exact (repeatable bit for bit).
  [[nodiscard]] virtual bool exact_counters() const { return true; }
  /// Per-layer metrics of the layers in layers(), from a traced run.
  virtual void layer_metrics(Metrics& out) const = 0;
  [[nodiscard]] virtual unsigned layers() const = 0;
  /// Traces recorded by this workload (one per recording thread).
  [[nodiscard]] virtual std::vector<const Trace*> traces() const { return {&trace_}; }

 protected:
  /// Called before op i, outside its latency (e.g. a session restart).
  virtual void prepare(std::uint64_t /*i*/) {}
  virtual void op(std::uint64_t i, Trace* t) = 0;
  /// Extra traced work after a traced op (replays, direct calls); its
  /// comparisons land in probe_gate_.
  virtual void probe(std::uint64_t /*i*/, Trace& /*t*/) {}

  Trace trace_{0};
  Gate probe_gate_;

  friend void merge_probe_gate(const Workload& w, Gate& gate);
};

void merge_probe_gate(const Workload& w, Gate& gate);

[[nodiscard]] std::unique_ptr<Workload> make_sweep(bool table1, std::uint64_t seed,
                                                   std::uint64_t app_seed);
[[nodiscard]] std::unique_ptr<Workload> make_admission(std::uint64_t seed,
                                                       std::uint64_t app_seed);
[[nodiscard]] std::unique_ptr<Workload> make_service(std::uint64_t seed,
                                                     std::uint64_t app_seed);

/// Hard cap on one loop, far inside the benchmark's per-run time limit.
[[nodiscard]] double loop_hard_limit_s(double seconds) noexcept;

// ---------------------------------------------------------------- inputs --

/// The paper's workload: `apps` generated applications, actor j on node j.
/// Same construction as the paper-reproduction harnesses, so seed 2007 gives
/// the applications of the Table 1 reproduction.
[[nodiscard]] platform::System paper_system(std::uint64_t app_seed, std::size_t apps,
                                            const std::string& prefix = "");

/// Up to `per_size` distinct random use-cases of every cardinality.
[[nodiscard]] std::vector<platform::UseCase> sample_use_cases(std::size_t apps,
                                                              std::size_t per_size,
                                                              std::uint64_t seed);

/// Cumulative Zipf(s) weights over n ranks, for skewed draws.
[[nodiscard]] std::vector<double> zipf_cdf(std::size_t n, double s);
[[nodiscard]] std::size_t draw(std::span<const double> cdf, double u01) noexcept;

// -------------------------------------------------------------- Figure 4 --

/// One of the techniques an op evaluates.
struct Technique {
  const char* key = "";
  bool wcrt = false;                 ///< worst-case bound instead of Figure 4
  prob::EstimatorOptions estimator;  ///< when !wcrt
};

/// Engines freshly built for every application of a view: what a one-shot
/// caller has, and the cold state estimate_into and the replay expect.
struct FreshEngines {
  explicit FreshEngines(const platform::SystemView& view);
  FreshEngines(const FreshEngines&) = delete;  // ptrs point into engines
  FreshEngines& operator=(const FreshEngines&) = delete;

  std::vector<analysis::ThroughputEngine> engines;
  std::vector<analysis::ThroughputEngine*> ptrs;
};

/// Slow direct oracle: per-app periods of one technique from freshly built
/// engines (what a one-shot caller gets).
void oracle_periods(const platform::SystemView& view, const Technique& t,
                    std::vector<double>& out);

struct ReplayScratch {
  struct Occupant {
    sdf::AppId app = 0;
    sdf::ActorId actor = 0;
    prob::ActorLoad load;
  };
  std::vector<std::vector<prob::ActorLoad>> loads;
  std::vector<std::vector<Occupant>> per_node;
  std::vector<std::vector<double>> response;
  std::vector<prob::ActorLoad> others;
};

struct ReplayCounts {
  std::uint64_t kernel_calls = 0;
  std::uint64_t cold_recomputes = 0;
  std::uint64_t warm_recomputes = 0;
};

/// Figure 4 replayed with the library's public calls, one span per step:
/// ThroughputEngine::recompute (step 1), derive_loads_into (2), per-node
/// grouping (3), the waiting_time_* / compose_all kernels (4) and recompute
/// on the response times (5). `engines` must be freshly built or reset, as
/// estimate_into expects them; the result is then bitwise estimate_into's.
/// Covers the deterministic, topology-free pipeline the workloads use.
void replay_estimate(const platform::SystemView& view,
                     std::span<analysis::ThroughputEngine* const> engines,
                     const prob::EstimatorOptions& opts, ReplayScratch& s,
                     std::vector<prob::AppEstimate>& out, Trace* t, std::uint64_t op,
                     ReplayCounts& counts);

/// Bitwise equality of two estimate lists (every period, waiting and
/// response time).
[[nodiscard]] bool same_bits(std::span<const prob::AppEstimate> a,
                             std::span<const prob::AppEstimate> b) noexcept;
[[nodiscard]] bool same_bits(double a, double b) noexcept;

}  // namespace ledger
