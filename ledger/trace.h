// In-memory span recorder for the traced ledger run.
//
// Spans are recorded by the benchmark itself, around each call it makes into
// a layer's public functions; nothing inside the library is instrumented.
// One Trace per recording thread: begin/end push onto a small stack, so each
// span knows the span that caused it, and every span carries the id of the
// op it belongs to. Durations are aggregated online per span kind (count,
// total, self time = total minus child spans); the raw spans are kept up to
// a fixed capacity and written out as a Chrome trace-event file at the end.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace ledger {

/// Span kinds: one per layer boundary the benchmark crosses.
enum class Span : std::uint8_t {
  Op,             ///< one timed op of the workload
  SimRun,         ///< sim::SimEngine reset(uc) + run_view
  WbContention,   ///< api::Workbench::contention_view
  WbWcrt,         ///< api::Workbench::wcrt
  WbAgain,        ///< api::Workbench::contention_view repeated after EstDirect
  EstDirect,      ///< prob::ContentionEstimator::estimate_into, caller engines
  EstReplay,      ///< Figure 4 replayed through public calls
  Step1,          ///< replay step 1: isolation periods (cold recompute)
  Step2,          ///< replay step 2: derive_loads_into
  Step3,          ///< replay step 3: group actors per node
  Step4,          ///< replay step 4: waiting-time kernels
  Step5,          ///< replay step 5: response-time recompute (warm)
  EngineBuild,    ///< analysis::ThroughputEngine construction
  RecomputeCold,  ///< ThroughputEngine::recompute after construction/reset
  RecomputeWarm,  ///< ThroughputEngine::recompute, warm-started
  AdmVerdict,     ///< AdmissionController::what_if_admit, verdict only
  AdmFull,        ///< AdmissionController::what_if_admit, full report
  AdmRequest,     ///< AdmissionController::request
  AdmRemove,      ///< AdmissionController::remove
  SvcSubmit,      ///< api::AnalysisService::submit
  SvcGet,         ///< Ticket::get
  kCount,
};

[[nodiscard]] const char* span_name(Span s) noexcept;

/// Online aggregate of one span kind.
struct SpanAgg {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;

  [[nodiscard]] double total_us() const noexcept { return 1e-3 * total_ns; }
  [[nodiscard]] double mean_us() const noexcept {
    return count == 0 ? 0.0 : total_us() / static_cast<double>(count);
  }
};

using SpanTotals = std::array<SpanAgg, static_cast<std::size_t>(Span::kCount)>;

[[nodiscard]] std::int64_t now_ns() noexcept;

class Trace {
 public:
  /// `capacity` raw spans are kept for the trace file; aggregation covers
  /// every span regardless.
  explicit Trace(std::uint32_t thread, std::size_t capacity = 1 << 13);

  void begin(Span s, std::uint64_t op);
  void end();

  [[nodiscard]] const SpanTotals& totals() const noexcept { return totals_; }
  [[nodiscard]] const SpanAgg& operator[](Span s) const noexcept {
    return totals_[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

  /// Appends this trace's raw spans as Chrome trace events ("ph":"X") to
  /// `out`, each prefixed by a comma unless `out` ends with '['.
  void append_events(std::string& out, const std::string& process) const;

 private:
  struct Record {
    std::int64_t t0 = 0;
    std::int64_t t1 = 0;
    std::uint64_t op = 0;
    std::uint32_t parent = kNone;  // index into records_, kNone when absent
    Span span = Span::Op;
  };
  struct Open {
    Span span = Span::Op;
    std::uint64_t op = 0;
    std::int64_t t0 = 0;
    std::int64_t child_ns = 0;
    std::uint32_t record = kNone;
  };
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;
  static constexpr std::size_t kMaxDepth = 8;

  std::uint32_t thread_;
  std::size_t capacity_;
  std::vector<Record> records_;
  std::array<Open, kMaxDepth> stack_{};
  std::size_t depth_ = 0;
  std::uint64_t dropped_ = 0;
  SpanTotals totals_{};
};

/// RAII span; a null trace records nothing, so untraced ops pay one branch.
class Scope {
 public:
  Scope(Trace* t, Span s, std::uint64_t op) : t_(t) {
    if (t_ != nullptr) t_->begin(s, op);
  }
  ~Scope() {
    if (t_ != nullptr) t_->end();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Trace* t_;
};

}  // namespace ledger
