// procon_ledger: the repository's benchmark, one binary for every workload.
//
//   procon_ledger --workload NAME --seed N --seconds S --trace 0|1
//                 [--app-seed N] [--out DIR] [--git-sha SHA]
//
// Untraced (--trace 0): sets the workload up repeatedly for a second, runs
// its closed op loop for S seconds, checks sampled ops against slower direct
// oracles, sets up for another second, and prints the end-to-end metrics
// (setup_s is the fastest of all the set-ups). Traced
// (--trace 1): the same loop with blocks of ops alternating untraced and
// traced (spans around every layer call the benchmark makes), giving the
// per-layer metrics and the tracing overhead; layers the workload's ops do
// not cross are measured on a short traced pass of their home workload.
//
// Output: one record line (header, parameters, every end-to-end figure with
// its unit, work counters, gate outcome), then, as the last line, the result
// object {"correct", "attempted", "failed", "metrics"}. The record is also
// written to DIR, and a traced run writes its spans there as a Chrome
// trace-event file. Exit status is non-zero on any correctness mismatch.
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <thread>

#include "workload.h"

#ifndef LEDGER_COMPILER
#define LEDGER_COMPILER "unknown"
#endif
#ifndef LEDGER_CXX_FLAGS
#define LEDGER_CXX_FLAGS "unknown"
#endif
#ifndef LEDGER_BUILD_TYPE
#define LEDGER_BUILD_TYPE "unknown"
#endif

namespace ledger {
namespace {

/// Application seed kept out of tuning, for conformance checks on unseen
/// data (pass it as --app-seed).
constexpr std::uint64_t kHeldOutAppSeed = 4099;
constexpr std::uint64_t kPaperAppSeed = 2007;
/// Set-ups are repeated for this long (and at least kSetupMinReps times)
/// before the measured loop and again after it.
constexpr double kSetupPhaseS = 1.0;
constexpr std::size_t kSetupMinReps = 5;

struct Args {
  std::string workload;
  std::uint64_t seed = kPaperAppSeed;
  double seconds = 10.0;
  bool trace = false;
  std::uint64_t app_seed = kPaperAppSeed;
  std::string out = ".";
  std::string git_sha = "unknown";
};

/// Every per-layer metric, in report order, with its unit.
const std::vector<std::pair<const char*, const char*>>& per_layer_metrics() {
  static const std::vector<std::pair<const char*, const char*>> kList = {
      {"sim.run_us", "us"},
      {"sim.events", "count"},
      {"sim.events_per_s", "1/s"},
      {"sim.share", "ratio"},
      {"est.step1_us", "us"},
      {"est.step2_us", "us"},
      {"est.step4_us", "us"},
      {"est.step5_us", "us"},
      {"est.other_us", "us"},
      {"est.total_us", "us"},
      {"est.kernel_calls", "count"},
      {"est.node_occupancy", "actors"},
      {"analysis.engine_build_us", "us"},
      {"analysis.recompute_cold_us", "us"},
      {"analysis.recompute_warm_us", "us"},
      {"analysis.recompute_calls", "count"},
      {"wcrt.bounds_us", "us"},
      {"adm.probe_verdict_us", "us"},
      {"adm.probe_full_us", "us"},
      {"adm.request_us", "us"},
      {"adm.remove_us", "us"},
      {"adm.admit_frac", "ratio"},
      {"api.workbench_overhead_us", "us"},
      {"svc.overhead_us", "us"},
      {"svc.result_hit_rate", "ratio"},
      {"svc.coalesce_rate", "ratio"},
      {"svc.exec_per_submit", "ratio"},
      {"tt.hit_rate", "ratio"},
      {"tt.evictions", "count"},
      {"trace.overhead_pct", "%"},
  };
  return kList;
}

/// Short traced passes for layers a workload's ops do not cross: the home
/// workload of each layer group and how many ops it runs.
struct Home {
  unsigned layers;
  const char* workload;
  std::uint64_t ops;
};
constexpr Home kHomes[] = {
    {kSim, "table1_sweep", 32},
    {kEst | kWcrt | kWorkbench | kAnalysis, "estimate_dense", 48},
    {kAdmission, "admission_churn", 4000},
    {kService, "service_mixed", 1000},
};

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        std::uint64_t app_seed) {
  if (name == "table1_sweep") return make_sweep(true, seed, app_seed);
  if (name == "estimate_dense") return make_sweep(false, seed, app_seed);
  if (name == "admission_churn") return make_admission(seed, app_seed);
  if (name == "service_mixed") return make_service(seed, app_seed);
  return nullptr;
}

/// Peak resident set of this process image. VmHWM rather than getrusage's
/// ru_maxrss, which carries over the peak of the process that exec'd us.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

/// Per span kind over `traces`: calls, total and self time (self = the
/// span's time minus the spans it caused).
Json span_summary(const std::vector<const Trace*>& traces) {
  Json out;
  for (std::size_t k = 0; k < static_cast<std::size_t>(Span::kCount); ++k) {
    SpanAgg sum;
    for (const Trace* t : traces) {
      const SpanAgg& a = t->totals()[k];
      sum.count += a.count;
      sum.total_ns += a.total_ns;
      sum.self_ns += a.self_ns;
    }
    if (sum.count == 0) continue;
    out.obj(span_name(static_cast<Span>(k)), Json()
                                                  .count("calls", sum.count)
                                                  .num("total_us", sum.total_us())
                                                  .num("self_us", 1e-3 * sum.self_ns));
  }
  return out;
}

Json metrics_json(const Metrics& ms) {
  Json j;
  for (const Metric& m : ms) j.obj(m.name, Json().num("value", m.value).str("unit", m.unit));
  return j;
}

void usage() {
  std::cerr << "usage: procon_ledger --workload table1_sweep|estimate_dense|"
               "admission_churn|service_mixed --seed N --seconds S --trace 0|1 "
               "[--app-seed N] [--out DIR] [--git-sha SHA]\n";
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = v == "1";
    } else if (flag == "--app-seed") {
      a.app_seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--out") {
      a.out = v;
    } else if (flag == "--git-sha") {
      a.git_sha = v;
    } else {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0.0 && a.seconds <= 60.0;
}

/// A fresh workload, set up; the set-up's time is appended to `times`.
std::unique_ptr<Workload> timed_setup(const Args& a, std::vector<double>& times) {
  std::unique_ptr<Workload> w = make_workload(a.workload, a.seed, a.app_seed);
  const std::int64_t t0 = now_ns();
  w->setup();
  times.push_back(1e-9 * static_cast<double>(now_ns() - t0));
  return w;
}

/// Sets fresh workloads up, one at a time, for kSetupPhaseS seconds and at
/// least kSetupMinReps times; returns the last one.
std::unique_ptr<Workload> setup_phase(const Args& a, std::vector<double>& times) {
  std::unique_ptr<Workload> w;
  const std::int64_t start = now_ns();
  for (std::size_t rep = 0;
       rep < kSetupMinReps || 1e-9 * static_cast<double>(now_ns() - start) < kSetupPhaseS; ++rep) {
    w.reset();
    w = timed_setup(a, times);
  }
  return w;
}

int run(const Args& a) {
  if (!make_workload(a.workload, a.seed, a.app_seed)) {
    usage();
    return 2;
  }
  // Set-ups are timed before the loop, about once a second during it (between
  // statistics windows, on the single-threaded loops) and after it, so they
  // sample the host at the moments the op windows do. Other tenants of the
  // host only ever slow a set-up down, so setup_s is the fastest of them
  // (ledger/README.md compares this with other statistics).
  std::vector<double> setup_times;
  std::unique_ptr<Workload> w = setup_phase(a, setup_times);

  const Mode mode = a.trace ? Mode::Alternate : Mode::Plain;
  const std::uint64_t min_ops = std::max<std::uint64_t>(w->counter_ops(), 1000);
  const LoopResult r =
      w->run(a.seconds, min_ops, mode, [&] { (void)timed_setup(a, setup_times); });
  Gate gate;
  w->check(gate);
  merge_probe_gate(*w, gate);
  // Before the last phase, whose instances live beside this one.
  const double rss_mb = peak_rss_mb();
  (void)setup_phase(a, setup_times);
  const double setup_s = *std::min_element(setup_times.begin(), setup_times.end());
  std::uint64_t attempted = r.ops;
  std::uint64_t failed_ops = r.failed;

  Json params;
  w->describe(params);
  Json rec;
  rec.str("record", "procon-ledger").count("schema", 1);
  rec.str("workload", a.workload).flag("traced", a.trace);
  rec.count("seed", a.seed).count("app_seed", a.app_seed);
  rec.count("held_out_app_seed", kHeldOutAppSeed).num("seconds", a.seconds);
  rec.str("git_sha", a.git_sha).str("compiler", LEDGER_COMPILER);
  rec.str("cxx_flags", LEDGER_CXX_FLAGS).str("build_type", LEDGER_BUILD_TYPE);
  rec.count("hardware_threads", std::thread::hardware_concurrency());
  rec.obj("params", params);
  rec.count("setup_reps", setup_times.size());
  rec.num("setup_s_q10", quantile(setup_times, 0.1)).num("setup_s_median", median(setup_times));
  rec.count("op_samples", r.ops).count("windows", r.windows).count("window_ops", r.window_ops);
  rec.num("elapsed_s", r.elapsed_s).nums("window_ops_per_s", r.window_ops_per_s);

  Metrics metrics;
  std::string trace_events;
  if (!a.trace) {
    metrics.push_back({"setup_s", setup_s, "s"});
    metrics.push_back({"ops_per_s", r.ops_per_s, "1/s"});
    metrics.push_back({"op_p50_us", r.p50_us, "us"});
    metrics.push_back({"peak_rss_mb", rss_mb, "MB"});
  } else {
    Metrics found;
    w->layer_metrics(found);
    trace_events = "[";
    for (const Trace* t : w->traces()) t->append_events(trace_events, a.workload);
    rec.obj("spans", span_summary(w->traces()));
    unsigned covered = w->layers();
    std::uint64_t dropped = 0;
    for (const Trace* t : w->traces()) dropped += t->dropped();
    Json passes;
    for (const Home& h : kHomes) {
      if ((h.layers & ~covered) == 0) continue;
      std::unique_ptr<Workload> x = make_workload(h.workload, a.seed, a.app_seed);
      x->setup();
      const LoopResult xr = x->run(0.0, h.ops, Mode::Traced);
      x->check(gate);
      merge_probe_gate(*x, gate);
      attempted += xr.ops;
      failed_ops += xr.failed;
      Metrics more;
      x->layer_metrics(more);
      for (const Metric& m : more) {
        const bool seen = std::any_of(found.begin(), found.end(),
                                      [&](const Metric& f) { return f.name == m.name; });
        if (!seen) found.push_back(m);
      }
      for (const Trace* t : x->traces()) {
        t->append_events(trace_events, h.workload);
        dropped += t->dropped();
      }
      covered |= x->layers();
      passes.count(h.workload, xr.ops);
    }
    trace_events += "]";
    const double plain = r.plain_n > 0 ? r.plain_us / static_cast<double>(r.plain_n) : 0.0;
    const double traced = r.traced_n > 0 ? r.traced_us / static_cast<double>(r.traced_n) : 0.0;
    found.push_back({"trace.overhead_pct", plain > 0.0 ? 100.0 * (traced - plain) / plain : 0.0,
                     "%"});
    rec.obj("short_passes", passes);
    rec.num("traced_op_mean_us", traced).num("untraced_op_mean_us", plain);
    rec.num("trace_overhead_us_per_op", traced - plain).count("spans_dropped", dropped);
    for (const auto& [name, unit] : per_layer_metrics()) {
      const auto it = std::find_if(found.begin(), found.end(),
                                   [&](const Metric& m) { return m.name == name; });
      if (it == found.end()) {
        std::cerr << "ledger: per-layer metric " << name << " was not measured\n";
        return 3;
      }
      metrics.push_back({name, it->value, unit});
    }
  }

  const std::uint64_t failed = std::min(attempted, failed_ops + gate.mismatched);
  // The record carries every end-to-end figure; the result only the gated
  // ones. The p99 is reported but not gated: on a shared host the heaviest
  // ops slow down most under contention, so its run-to-run spread is the
  // widest of all.
  Metrics e2e = a.trace ? Metrics{{"setup_s", setup_s, "s"}} : metrics;
  if (!a.trace) e2e.push_back({"op_p99_us", r.p99_us, "us"});
  e2e.push_back({"fail_frac", static_cast<double>(failed) / static_cast<double>(attempted),
                 "ratio"});
  w->extra_metrics(e2e);
  rec.obj("end_to_end", metrics_json(e2e));
  if (a.trace) rec.obj("per_layer", metrics_json(metrics));
  w->record(rec);
  rec.str("counters_class", w->exact_counters() ? "exact" : "timings");
  rec.obj("gate", Json().count("checked", gate.checked).count("mismatched", gate.mismatched));

  const std::string stem = a.out + "/" + a.workload + "-seed" + std::to_string(a.seed) +
                           (a.trace ? "-traced" : "");
  std::ofstream(stem + ".json") << rec.text() << "\n";
  if (a.trace) std::ofstream(stem + ".trace.json") << "{\"traceEvents\":" << trace_events << "}\n";

  Json result;
  result.flag("correct", failed == 0).count("attempted", attempted).count("failed", failed);
  result.obj("metrics", metrics_json(metrics));
  std::cout << rec.text() << "\n" << result.text() << std::endl;
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace ledger

int main(int argc, char** argv) {
  ledger::Args args;
  if (!ledger::parse(argc, argv, args)) {
    ledger::usage();
    return 2;
  }
  try {
    return ledger::run(args);
  } catch (const std::exception& e) {
    std::cerr << "ledger: " << e.what() << "\n";
    return 1;
  }
}
