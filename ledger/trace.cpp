#include "trace.h"

#include <chrono>
#include <cstdio>
#include <stdexcept>

namespace ledger {

const char* span_name(Span s) noexcept {
  switch (s) {
    case Span::Op: return "op";
    case Span::SimRun: return "sim.run";
    case Span::WbContention: return "api.contention_view";
    case Span::WbWcrt: return "api.wcrt";
    case Span::WbAgain: return "api.contention_view.again";
    case Span::EstDirect: return "prob.estimate_into";
    case Span::EstReplay: return "prob.replay";
    case Span::Step1: return "prob.step1";
    case Span::Step2: return "prob.step2";
    case Span::Step3: return "prob.step3";
    case Span::Step4: return "prob.step4";
    case Span::Step5: return "prob.step5";
    case Span::EngineBuild: return "analysis.engine_build";
    case Span::RecomputeCold: return "analysis.recompute_cold";
    case Span::RecomputeWarm: return "analysis.recompute_warm";
    case Span::AdmVerdict: return "admission.what_if_verdict";
    case Span::AdmFull: return "admission.what_if_full";
    case Span::AdmRequest: return "admission.request";
    case Span::AdmRemove: return "admission.remove";
    case Span::SvcSubmit: return "service.submit";
    case Span::SvcGet: return "service.get";
    case Span::kCount: break;
  }
  return "?";
}

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Trace::Trace(std::uint32_t thread, std::size_t capacity)
    : thread_(thread), capacity_(capacity) {
  records_.reserve(capacity_);
}

void Trace::begin(Span s, std::uint64_t op) {
  if (depth_ == kMaxDepth) throw std::logic_error("Trace: spans nested too deep");
  Open& o = stack_[depth_++];
  o.span = s;
  o.op = op;
  o.child_ns = 0;
  o.record = kNone;
  if (records_.size() < capacity_) {
    o.record = static_cast<std::uint32_t>(records_.size());
    Record r;
    r.op = op;
    r.span = s;
    r.parent = depth_ > 1 ? stack_[depth_ - 2].record : kNone;
    records_.push_back(r);
  } else {
    ++dropped_;
  }
  o.t0 = now_ns();  // last, so bookkeeping stays outside the span
}

void Trace::end() {
  const std::int64_t t1 = now_ns();
  if (depth_ == 0) throw std::logic_error("Trace: end without begin");
  const Open& o = stack_[--depth_];
  const std::int64_t dur = t1 - o.t0;
  SpanAgg& agg = totals_[static_cast<std::size_t>(o.span)];
  ++agg.count;
  agg.total_ns += dur;
  agg.self_ns += dur - o.child_ns;
  if (depth_ > 0) stack_[depth_ - 1].child_ns += dur;
  if (o.record != kNone) {
    records_[o.record].t0 = o.t0;
    records_[o.record].t1 = t1;
  }
}

void Trace::append_events(std::string& out, const std::string& process) const {
  char buf[320];
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (!out.empty() && out.back() != '[') out += ",\n";
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":\"%s\",\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,\"span\":%zu,"
                  "\"parent\":%lld}}",
                  span_name(r.span), process.c_str(), thread_, 1e-3 * r.t0,
                  1e-3 * (r.t1 - r.t0), static_cast<unsigned long long>(r.op), i,
                  r.parent == kNone ? -1LL : static_cast<long long>(r.parent));
    out += buf;
  }
}

}  // namespace ledger
