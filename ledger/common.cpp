#include <sched.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <set>
#include <stdexcept>

#include "analysis/engine.h"
#include "gen/graph_generator.h"
#include "platform/mapping.h"
#include "prob/compose.h"
#include "prob/load.h"
#include "prob/waiting_time.h"
#include "util/rng.h"
#include "wcrt/wcrt.h"
#include "workload.h"

namespace ledger {

// ------------------------------------------------------------------ JSON --

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void Json::key(const std::string& k) {
  if (!body_.empty()) body_ += ", ";
  body_ += '"' + k + "\": ";
}

Json& Json::num(const std::string& k, double v) {
  key(k);
  body_ += json_number(v);
  return *this;
}

Json& Json::count(const std::string& k, std::uint64_t v) {
  key(k);
  body_ += std::to_string(v);
  return *this;
}

Json& Json::str(const std::string& k, const std::string& v) {
  key(k);
  body_ += '"';
  for (const char c : v) {
    if (c == '"' || c == '\\') body_ += '\\';
    body_ += (c == '\n' || c == '\t') ? ' ' : c;
  }
  body_ += '"';
  return *this;
}

Json& Json::flag(const std::string& k, bool v) {
  key(k);
  body_ += v ? "true" : "false";
  return *this;
}

Json& Json::obj(const std::string& k, const Json& v) {
  key(k);
  body_ += v.text();
  return *this;
}

Json& Json::nums(const std::string& k, std::span<const double> v) {
  key(k);
  body_ += '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) body_ += ", ";
    body_ += json_number(v[i]);
  }
  body_ += ']';
  return *this;
}

// -------------------------------------------------------------- op loop --

bool traced_op(std::uint64_t i, Mode mode) noexcept {
  switch (mode) {
    case Mode::Plain: return false;
    case Mode::Traced: return true;
    case Mode::Alternate: return (i / 8) % 2 == 1;
  }
  return false;
}

void Gate::expect(bool ok, const std::string& what) {
  ++checked;
  if (!ok) {
    ++mismatched;
    if (mismatched <= 10) std::cerr << "ledger: correctness mismatch: " << what << "\n";
  }
}

void merge_probe_gate(const Workload& w, Gate& gate) {
  gate.checked += w.probe_gate_.checked;
  gate.mismatched += w.probe_gate_.mismatched;
}

Windows::Windows(std::uint64_t ops_per_window) : size_(std::max<std::uint64_t>(ops_per_window, 1)) {
  buf_.reserve(size_);
}

bool Windows::add(double latency_us, std::int64_t t_ns) {
  buf_.push_back(latency_us);
  if (buf_.size() < size_) return false;
  close(t_ns);
  return true;
}

void Windows::finish(std::int64_t t_ns) {
  if (ops_per_s.empty() && !buf_.empty()) close(t_ns);
}

void Windows::close(std::int64_t t_ns) {
  ops_per_s.push_back(static_cast<double>(buf_.size()) / (1e-9 * static_cast<double>(t_ns - t0_)));
  p50_us.push_back(quantile(buf_, 0.50));
  p99_us.push_back(quantile(buf_, 0.99));
  buf_.clear();
  t0_ = t_ns;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  if (v.size() % 2 == 1) return *mid;
  return 0.5 * (*mid + *std::max_element(v.begin(), mid));
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  const auto nth = v.begin() + static_cast<std::ptrdiff_t>(std::clamp<std::size_t>(k, 1, v.size()) - 1);
  std::nth_element(v.begin(), nth, v.end());
  return *nth;
}

double quiet(std::vector<double> v, bool higher_is_better) {
  return quantile(std::move(v), higher_is_better ? 0.9 : 0.1);
}

double loop_hard_limit_s(double seconds) noexcept {
  return std::min(120.0, 3.0 * seconds + 30.0);
}

namespace {

/// Pins the calling thread to each CPU it may use in turn, and restores its
/// affinity when destroyed. Other tenants of a shared host load its cores
/// unevenly (on a shared 4-vCPU Xeon VM one core ran 20-35% slower than
/// another within the same run), and
/// the scheduler keeps a lone busy thread on one core for a whole run;
/// moving on every window lets the quiet windows find the least loaded one.
class CpuRotation {
 public:
  CpuRotation() {
    if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
    }
    next();
  }
  ~CpuRotation() {
    if (cpus_.size() > 1) (void)sched_setaffinity(0, sizeof allowed_, &allowed_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_], &one);
    (void)sched_setaffinity(0, sizeof one, &one);
    next_ = (next_ + 1) % cpus_.size();
  }

 private:
  cpu_set_t allowed_{};
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

}  // namespace

LoopResult Workload::run(double seconds, std::uint64_t min_ops, Mode mode,
                         const std::function<void()>& interlude) {
  constexpr std::int64_t kInterludeGapNs = 1'000'000'000;
  LoopResult r;
  Windows win(window_ops());
  CpuRotation cpus;
  const std::int64_t start = now_ns();
  win.start(start);
  std::int64_t last_interlude = start;
  const auto budget = static_cast<std::int64_t>(seconds * 1e9);
  const auto hard = static_cast<std::int64_t>(loop_hard_limit_s(seconds) * 1e9);
  for (std::uint64_t i = 0;; ++i) {
    const std::int64_t t = now_ns() - start;
    if ((i >= min_ops && t >= budget) || t >= hard) break;
    prepare(i);
    const bool traced = traced_op(i, mode);
    Trace* tr = traced ? &trace_ : nullptr;
    const std::int64_t t0 = now_ns();
    try {
      const Scope s(tr, Span::Op, i);
      op(i, tr);
    } catch (const std::exception& e) {
      ++r.failed;
      std::cerr << "ledger: op " << i << " failed: " << e.what() << "\n";
    }
    const double us = 1e-3 * static_cast<double>(now_ns() - t0);
    if (mode == Mode::Alternate) {
      (traced ? r.traced_us : r.plain_us) += us;
      ++(traced ? r.traced_n : r.plain_n);
    }
    if (traced) {
      try {
        probe(i, *tr);
      } catch (const std::exception& e) {
        ++r.failed;
        std::cerr << "ledger: probe of op " << i << " failed: " << e.what() << "\n";
      }
    }
    const std::int64_t done = now_ns();
    ++r.ops;
    if (!win.add(us, done)) continue;
    cpus.next();
    if (interlude && done - last_interlude >= kInterludeGapNs) {
      interlude();
      last_interlude = now_ns();
    }
    win.start(now_ns());
  }
  const std::int64_t end = now_ns();
  win.finish(end);
  r.elapsed_s = 1e-9 * static_cast<double>(end - start);
  r.ops_per_s = quiet(win.ops_per_s, true);
  r.p50_us = quiet(win.p50_us, false);
  r.p99_us = quiet(win.p99_us, false);
  r.windows = win.ops_per_s.size();
  r.window_ops = win.size();
  r.window_ops_per_s = win.ops_per_s;
  return r;
}

// ---------------------------------------------------------------- inputs --

platform::System paper_system(std::uint64_t app_seed, std::size_t apps,
                              const std::string& prefix) {
  util::Rng rng(app_seed);
  std::vector<sdf::Graph> graphs =
      gen::generate_graphs(rng, gen::GeneratorOptions{}, apps, prefix);
  std::size_t max_actors = 0;
  for (const sdf::Graph& g : graphs) max_actors = std::max(max_actors, g.actor_count());
  platform::Platform plat = platform::Platform::homogeneous(max_actors);
  platform::Mapping map = platform::Mapping::by_index(graphs, plat);
  return platform::System(std::move(graphs), std::move(plat), std::move(map));
}

std::vector<platform::UseCase> sample_use_cases(std::size_t apps, std::size_t per_size,
                                                std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<platform::UseCase> out;
  std::vector<sdf::AppId> pool(apps);
  for (std::size_t k = 1; k <= apps; ++k) {
    // C(apps, k), saturated: small cardinalities may have fewer than
    // per_size distinct use-cases.
    double combos = 1.0;
    for (std::size_t j = 0; j < k; ++j) {
      combos = combos * static_cast<double>(apps - j) / static_cast<double>(j + 1);
    }
    const std::size_t want =
        std::min<std::size_t>(per_size, static_cast<std::size_t>(std::llround(combos)));
    std::set<platform::UseCase> chosen;
    while (chosen.size() < want) {
      for (std::size_t i = 0; i < apps; ++i) pool[i] = static_cast<sdf::AppId>(i);
      rng.shuffle(pool);
      platform::UseCase uc(pool.begin(), pool.begin() + static_cast<std::ptrdiff_t>(k));
      std::sort(uc.begin(), uc.end());
      chosen.insert(std::move(uc));
    }
    out.insert(out.end(), chosen.begin(), chosen.end());
  }
  return out;
}

std::vector<double> zipf_cdf(std::size_t n, double s) {
  std::vector<double> cdf(n);
  double sum = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    sum += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf[r] = sum;
  }
  for (double& c : cdf) c /= sum;
  return cdf;
}

std::size_t draw(std::span<const double> cdf, double u01) noexcept {
  const auto it = std::upper_bound(cdf.begin(), cdf.end(), u01);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf.begin()),
                               cdf.size() - 1);
}

// -------------------------------------------------------------- Figure 4 --

FreshEngines::FreshEngines(const platform::SystemView& view) {
  engines.reserve(view.app_count());
  for (sdf::AppId i = 0; i < view.app_count(); ++i) engines.emplace_back(view.app(i));
  for (analysis::ThroughputEngine& e : engines) ptrs.push_back(&e);
}

void oracle_periods(const platform::SystemView& view, const Technique& t,
                    std::vector<double>& out) {
  const FreshEngines fresh(view);
  out.clear();
  if (t.wcrt) {
    wcrt::WcrtWorkspace ws;
    std::vector<wcrt::AppBound> bounds(view.app_count());
    wcrt::worst_case_bounds_into(view, {}, fresh.ptrs, ws, bounds);
    for (const wcrt::AppBound& b : bounds) out.push_back(b.worst_case_period);
  } else {
    prob::EstimatorWorkspace ws;
    std::vector<prob::AppEstimate> est(view.app_count());
    prob::ContentionEstimator(t.estimator).estimate_into(view, {}, fresh.ptrs, ws, est);
    for (const prob::AppEstimate& e : est) out.push_back(e.estimated_period);
  }
}

namespace {

double kernel(const prob::EstimatorOptions& opts, std::span<const prob::ActorLoad> others) {
  switch (opts.method) {
    case prob::Method::Exact: return prob::waiting_time_exact(others);
    case prob::Method::SecondOrder: return prob::waiting_time_second_order(others);
    case prob::Method::FourthOrder: return prob::waiting_time_fourth_order(others);
    case prob::Method::MthOrder: return prob::waiting_time_approx(others, opts.order);
    case prob::Method::Composability: return prob::compose_all(others).weighted_blocking;
    case prob::Method::CompositionInverse:
    case prob::Method::MonteCarlo: break;
  }
  throw std::invalid_argument("replay: method not covered by the ledger replay");
}

template <typename T>
void grow(std::vector<T>& v, std::size_t n) {
  if (v.size() < n) v.resize(n);
}

}  // namespace

void replay_estimate(const platform::SystemView& view,
                     std::span<analysis::ThroughputEngine* const> engines,
                     const prob::EstimatorOptions& opts, ReplayScratch& s,
                     std::vector<prob::AppEstimate>& out, Trace* t, std::uint64_t op,
                     ReplayCounts& counts) {
  if (!view.platform().topology().none()) {
    throw std::invalid_argument("replay: routed topologies are not replayed");
  }
  const Scope whole(t, Span::EstReplay, op);
  const std::size_t napps = view.app_count();
  const std::size_t nnodes = view.platform().node_count();
  out.resize(napps);
  grow(s.loads, napps);
  grow(s.response, napps);
  grow(s.per_node, nnodes);

  {
    const Scope step(t, Span::Step1, op);
    for (sdf::AppId i = 0; i < napps; ++i) {
      const analysis::PeriodResult iso = engines[i]->recompute();
      if (iso.deadlocked || iso.period <= 0.0) {
        throw std::runtime_error("replay: no positive isolation period");
      }
      out[i].isolation_period = iso.period;
      out[i].estimated_period = iso.period;
      out[i].actors.resize(view.app(i).actor_count());
    }
  }
  counts.cold_recomputes += napps;

  for (int pass = 0; pass < opts.iterations; ++pass) {
    {
      const Scope step(t, Span::Step2, op);
      for (sdf::AppId i = 0; i < napps; ++i) {
        prob::derive_loads_into(view.app(i), engines[i]->repetition_vector(),
                                out[i].estimated_period, s.loads[i]);
      }
    }
    {
      const Scope step(t, Span::Step3, op);
      for (std::size_t n = 0; n < nnodes; ++n) s.per_node[n].clear();
      for (sdf::AppId i = 0; i < napps; ++i) {
        for (sdf::ActorId a = 0; a < view.app(i).actor_count(); ++a) {
          s.per_node[view.node_of(i, a)].push_back({i, a, s.loads[i][a]});
        }
      }
    }
    {
      const Scope step(t, Span::Step4, op);
      for (sdf::AppId i = 0; i < napps; ++i) {
        s.response[i].resize(view.app(i).actor_count(), 0.0);
      }
      for (std::size_t n = 0; n < nnodes; ++n) {
        const auto& entries = s.per_node[n];
        for (std::size_t k = 0; k < entries.size(); ++k) {
          s.others.clear();
          for (std::size_t j = 0; j < entries.size(); ++j) {
            if (j != k) s.others.push_back(entries[j].load);
          }
          const double twait = kernel(opts, s.others);
          const auto& e = entries[k];
          const double exec = static_cast<double>(view.app(e.app).actor(e.actor).exec_time);
          out[e.app].actors[e.actor].waiting_time = twait;
          s.response[e.app][e.actor] = exec + twait;
          out[e.app].actors[e.actor].response_time = s.response[e.app][e.actor];
        }
        counts.kernel_calls += entries.size();
      }
    }
    {
      const Scope step(t, Span::Step5, op);
      for (sdf::AppId i = 0; i < napps; ++i) {
        const analysis::PeriodResult res = engines[i]->recompute(s.response[i]);
        if (res.deadlocked) throw std::runtime_error("replay: response graph deadlocks");
        out[i].estimated_period = res.period;
      }
    }
    counts.warm_recomputes += napps;
  }
}

bool same_bits(double a, double b) noexcept {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_bits(std::span<const prob::AppEstimate> a,
               std::span<const prob::AppEstimate> b) noexcept {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i].isolation_period, b[i].isolation_period) ||
        !same_bits(a[i].estimated_period, b[i].estimated_period) ||
        a[i].actors.size() != b[i].actors.size()) {
      return false;
    }
    for (std::size_t k = 0; k < a[i].actors.size(); ++k) {
      if (!same_bits(a[i].actors[k].waiting_time, b[i].actors[k].waiting_time) ||
          !same_bits(a[i].actors[k].response_time, b[i].actors[k].response_time)) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace ledger
