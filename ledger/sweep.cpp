// table1_sweep and estimate_dense: one use-case per op, through a table-free
// api::Workbench session (plus, for table1_sweep, a 500k-horizon reference
// simulation on a session sim::SimEngine).
//
// table1_sweep is the paper's Table 1 experiment: 10 generated applications,
// every one of the 1023 use-cases, the four paper techniques. Each pass
// visits every use-case once in an order drawn from the op seed; the first
// pass is always completed, and its errors against the simulation are the
// t1_* accuracy figures. estimate_dense runs the estimator alone on 20
// applications (about 20 actors per node) over a seeded sample of
// use-cases of every cardinality, with six techniques per op.
#include <algorithm>
#include <array>
#include <cmath>
#include <optional>

#include "analysis/engine.h"
#include "api/workbench.h"
#include "gen/use_cases.h"
#include "sim/sim_engine.h"
#include "util/rng.h"
#include "workload.h"

namespace ledger {
namespace {

constexpr sdf::Time kHorizon = 500'000;

std::vector<Technique> table1_techniques() {
  using prob::Method;
  return {{"wc", true, {}},
          {"comp", false, {.method = Method::Composability}},
          {"fo", false, {.method = Method::FourthOrder}},
          {"so", false, {.method = Method::SecondOrder}}};
}

std::vector<Technique> dense_techniques() {
  using prob::Method;
  return {{"so", false, {.method = Method::SecondOrder}},
          {"fo", false, {.method = Method::FourthOrder}},
          {"exact", false, {.method = Method::Exact}},
          {"comp", false, {.method = Method::Composability}},
          {"so8", false, {.method = Method::SecondOrder, .iterations = 8}},
          {"wc", true, {}}};
}

double pct_abs_diff(double estimate, double reference) {
  return 100.0 * std::abs(estimate - reference) / std::abs(reference);
}

class SweepWorkload final : public Workload {
 public:
  SweepWorkload(bool table1, std::uint64_t seed, std::uint64_t app_seed)
      : table1_(table1),
        seed_(seed),
        app_seed_(app_seed),
        apps_(table1 ? 10 : 20),
        techniques_(table1 ? table1_techniques() : dense_techniques()) {}

  void setup() override {
    sys_ = paper_system(app_seed_, apps_);
    // The use-case set belongs to the applications; the op seed only orders it.
    ucs_ = table1_ ? gen::all_use_cases(apps_)
                   : sample_use_cases(apps_, kDensePerSize,
                                      util::counter_seed(app_seed_, 2, 0));
    wb_ = std::make_unique<api::Workbench>(sys_, api::WorkbenchOptions{.threads = 1});
    if (table1_) sim_ = std::make_unique<sim::SimEngine>(sys_);
    probe_engines_.reserve(apps_);
    for (const sdf::Graph& g : sys_.apps()) probe_engines_.emplace_back(g);
    periods_.resize(techniques_.size());
    wb_est_.resize(techniques_.size());
    if (table1_) {
      sim_avg_.resize(apps_);
      err_thr_.assign(techniques_.size(), std::vector<double>(ucs_.size(), 0.0));
      err_per_.assign(techniques_.size(), std::vector<double>(ucs_.size(), 0.0));
      err_n_.assign(ucs_.size(), 0);
    }
    // Warm-up: the session arenas see the largest shapes once.
    for (std::size_t w = 0; w < kWarmUps; ++w) evaluate(ucs_[ucs_.size() - 1 - w], nullptr, 0);
  }

  std::uint64_t counter_ops() const override { return ucs_.size(); }
  // Windows that hold the same use-cases whatever the seed: one stratum of
  // table1_sweep (93 ops, ~0.65 s), one pass of estimate_dense (153 ops,
  // ~0.15 s). Short, so the quiet windows find the host's brief quiet spells.
  std::uint64_t window_ops() const override {
    return table1_ ? ucs_.size() / kStrata : ucs_.size();
  }

  void describe(Json& p) const override {
    p.count("apps", apps_).count("use_cases", ucs_.size());
    p.str("use_case_set", table1_ ? "all 2^10-1" : "sampled per cardinality");
    if (!table1_) p.count("per_cardinality", kDensePerSize);
    p.count("sim_horizon", table1_ ? kHorizon : 0);
    std::string keys;
    for (const Technique& t : techniques_) keys += std::string(keys.empty() ? "" : ",") + t.key;
    p.str("techniques", keys).count("warm_up_ops", kWarmUps);
    p.str("session", "api::Workbench threads=1, no transposition table");
  }

  void record(Json& rec) const override {
    Json c;
    c.count("ops", counter_ops());
    if (table1_) c.count("sim_events", sim_events_);
    c.count("kernel_calls", kernel_calls_).count("recompute_calls", recompute_calls_);
    rec.obj("counters", c);
    if (!table1_) return;
    // The paper's Table 1 values, printed beside ours as reference only.
    static constexpr std::array<std::array<double, 2>, 4> kPaper = {
        {{49.0, 112.0}, {4.0, 14.0}, {0.7, 13.0}, {2.8, 11.0}}};
    Json paper;
    for (std::size_t t = 0; t < techniques_.size(); ++t) {
      const std::string k = techniques_[t].key;
      paper.num("t1_thr_err_pct." + k, kPaper[t][0]).num("t1_per_err_pct." + k, kPaper[t][1]);
    }
    std::size_t converged = 0;
    for (const std::uint32_t n : err_n_) converged += n > 0 ? 1 : 0;
    rec.obj("t1_paper_reference", paper);
    rec.count("t1_use_cases", converged).count("t1_skipped_unconverged", ucs_.size() - converged);
  }

  /// Mean absolute throughput and period errors against the reference
  /// simulation over the first full pass, summed in canonical use-case order.
  void extra_metrics(Metrics& out) const override {
    if (!table1_) return;
    for (const char* what : {"thr", "per"}) {
      const bool thr = what[0] == 't';
      for (std::size_t t = 0; t < techniques_.size(); ++t) {
        double sum = 0.0, n = 0.0;
        for (std::size_t u = 0; u < ucs_.size(); ++u) {
          sum += thr ? err_thr_[t][u] : err_per_[t][u];
          n += err_n_[u];
        }
        out.push_back({std::string("t1_") + what + "_err_pct." + techniques_[t].key,
                       n > 0 ? sum / n : 0.0, "%"});
      }
    }
  }

  void check(Gate& gate) override {
    std::vector<double> oracle;
    std::vector<prob::AppEstimate> direct, replayed;
    ReplayScratch scratch;
    ReplayCounts counts;
    for (const Sample& s : samples_) {
      const platform::SystemView view(sys_, ucs_[s.uc]);
      for (std::size_t t = 0; t < techniques_.size(); ++t) {
        const Technique& tech = techniques_[t];
        oracle_periods(view, tech, oracle);
        gate.expect(oracle.size() == s.periods[t].size() &&
                        std::equal(oracle.begin(), oracle.end(), s.periods[t].begin(),
                                   [](double a, double b) { return same_bits(a, b); }),
                    std::string(tech.key) + " periods differ from the one-shot oracle");
        if (tech.wcrt) continue;
        // The Figure 4 replay reproduces estimate_into bit for bit.
        FreshEngines a(view), b(view);
        prob::EstimatorWorkspace ws;
        direct.assign(view.app_count(), {});
        prob::ContentionEstimator(tech.estimator).estimate_into(view, {}, a.ptrs, ws, direct);
        replay_estimate(view, b.ptrs, tech.estimator, scratch, replayed, nullptr, 0, counts);
        gate.expect(same_bits(direct, replayed),
                    std::string(tech.key) + " replay differs from estimate_into");
      }
    }
  }

  void layer_metrics(Metrics& out) const override {
    const Trace& t = trace_;
    const double ops = static_cast<double>(std::max<std::uint64_t>(t[Span::Op].count, 1));
    if (table1_) {
      out.push_back({"sim.run_us", t[Span::SimRun].mean_us(), "us"});
      out.push_back({"sim.events", static_cast<double>(sim_events_), "count"});
      out.push_back({"sim.events_per_s",
                     static_cast<double>(traced_events_) / (1e-6 * t[Span::SimRun].total_us()),
                     "1/s"});
      out.push_back({"sim.share",
                     static_cast<double>(t[Span::SimRun].total_ns) /
                         static_cast<double>(t[Span::Op].total_ns),
                     "ratio"});
    }
    const double s1 = t[Span::Step1].total_us() / ops, s2 = t[Span::Step2].total_us() / ops,
                 s4 = t[Span::Step4].total_us() / ops, s5 = t[Span::Step5].total_us() / ops,
                 total = t[Span::EstReplay].total_us() / ops;
    out.push_back({"est.step1_us", s1, "us"});
    out.push_back({"est.step2_us", s2, "us"});
    out.push_back({"est.step4_us", s4, "us"});
    out.push_back({"est.step5_us", s5, "us"});
    out.push_back({"est.total_us", total, "us"});
    out.push_back({"est.other_us", total - s1 - s2 - s4 - s5, "us"});
    out.push_back({"est.kernel_calls", static_cast<double>(kernel_calls_), "count"});
    out.push_back({"est.node_occupancy", occupancy_sum_ / std::max(occupied_nodes_, 1.0),
                   "actors"});
    out.push_back({"analysis.engine_build_us", t[Span::EngineBuild].mean_us(), "us"});
    out.push_back({"analysis.recompute_cold_us",
                   t[Span::Step1].total_us() /
                       static_cast<double>(std::max<std::uint64_t>(replayed_.cold_recomputes, 1)),
                   "us"});
    out.push_back({"analysis.recompute_warm_us",
                   t[Span::Step5].total_us() /
                       static_cast<double>(std::max<std::uint64_t>(replayed_.warm_recomputes, 1)),
                   "us"});
    out.push_back({"analysis.recompute_calls", static_cast<double>(recompute_calls_), "count"});
    out.push_back({"wcrt.bounds_us", t[Span::WbWcrt].total_us() / ops, "us"});
    out.push_back({"api.workbench_overhead_us",
                   (t[Span::WbAgain].total_us() - t[Span::EstDirect].total_us()) / ops,
                   "us"});
  }

  unsigned layers() const override {
    return kEst | kAnalysis | kWcrt | kWorkbench | (table1_ ? kSim : 0u);
  }

 protected:
  void prepare(std::uint64_t i) override {
    if (i % ucs_.size() != 0) return;
    // Pass p visits every use-case once. table1_sweep visits them stratum by
    // stratum (use-case index mod kStrata), each in an order drawn from
    // (seed, p, stratum): a statistics window is one stratum, so every
    // window holds the same use-cases whatever the seed.
    const std::size_t strata = table1_ ? kStrata : 1;
    const std::uint64_t pass = i / ucs_.size();
    order_.clear();
    for (std::size_t r = 0; r < strata; ++r) {
      const std::size_t begin = order_.size();
      for (std::size_t u = r; u < ucs_.size(); u += strata) {
        order_.push_back(static_cast<std::uint32_t>(u));
      }
      std::span<std::uint32_t> stratum(order_.data() + begin, order_.size() - begin);
      util::Rng rng = util::counter_rng(seed_, 1, pass * strata + r);
      rng.shuffle(stratum);
    }
  }

  void op(std::uint64_t i, Trace* t) override {
    const std::uint32_t u = order_[i % ucs_.size()];
    const std::uint64_t events = evaluate(ucs_[u], t, i);
    if (t != nullptr) traced_events_ += events;
    if (i < counter_ops()) count_work(ucs_[u], events);
    if (table1_ && i < ucs_.size() && sim_converged_) accumulate_errors(u);
    if (i < counter_ops() && i % gate_stride() == 0) samples_.push_back({u, periods_});
  }

  void probe(std::uint64_t i, Trace& t) override {
    const platform::UseCase& uc = ucs_[order_[i % ucs_.size()]];
    view_.rebind(sys_, uc);
    for (std::size_t k = 0; k < techniques_.size(); ++k) {
      const Technique& tech = techniques_[k];
      if (tech.wcrt) continue;
      // The Workbench's work without the Workbench: reset engines, one
      // estimate_into into caller-owned slots.
      {
        const Scope s(&t, Span::EstDirect, i);
        const auto ptrs = reset_probe_engines(uc);
        direct_.resize(uc.size());
        prob::ContentionEstimator(tech.estimator).estimate_into(view_, {}, ptrs, ws_, direct_);
      }
      probe_gate_.expect(same_bits(direct_, wb_est_[k]),
                         std::string(tech.key) + " estimate_into differs from the Workbench");
      // The same Workbench call again, in the same warm state as the direct
      // call: their difference is the Workbench's own overhead.
      {
        const Scope s(&t, Span::WbAgain, i);
        (void)wb_->contention_view(uc, tech.estimator);
      }
      const auto ptrs = reset_probe_engines(uc);
      replay_estimate(view_, ptrs, tech.estimator, scratch_, replay_out_, &t, i, replayed_);
      probe_gate_.expect(same_bits(replay_out_, wb_est_[k]),
                         std::string(tech.key) + " replay differs from the Workbench");
    }
    for (const sdf::AppId a : uc) {
      std::optional<analysis::ThroughputEngine> fresh;
      {
        const Scope s(&t, Span::EngineBuild, i);
        fresh.emplace(sys_.app(a));
      }
    }
  }

 private:
  static constexpr std::size_t kDensePerSize = 8;
  static constexpr std::size_t kStrata = 11;  // 1023 = 11 x 93
  static constexpr std::size_t kWarmUps = 4;

  struct Sample {
    std::uint32_t uc = 0;
    std::vector<std::vector<double>> periods;  // per technique
  };

  std::uint64_t gate_stride() const { return table1_ ? 8 : 2; }

  /// One op's work: reference simulation (table1_sweep) and every technique
  /// through the session. Returns the simulation's event count.
  std::uint64_t evaluate(const platform::UseCase& uc, Trace* t, std::uint64_t i) {
    std::uint64_t events = 0;
    if (sim_) {
      const Scope s(t, Span::SimRun, i);
      sim_->reset(uc);
      const sim::SimResultView v = sim_->run_view(sim::SimOptions{.horizon = kHorizon});
      events = v.events_processed;
      sim_converged_ = true;
      for (std::size_t k = 0; k < v.apps.size(); ++k) {
        sim_avg_[k] = v.apps[k].average_period;
        sim_converged_ = sim_converged_ && v.apps[k].converged;
      }
    }
    for (std::size_t k = 0; k < techniques_.size(); ++k) {
      const Technique& tech = techniques_[k];
      std::vector<double>& out = periods_[k];
      out.clear();
      if (tech.wcrt) {
        const Scope s(t, Span::WbWcrt, i);
        const auto report = wb_->wcrt(uc);
        for (const wcrt::AppBound& b : report.value) out.push_back(b.worst_case_period);
      } else {
        std::span<const prob::AppEstimate> est;
        {
          const Scope s(t, Span::WbContention, i);
          est = wb_->contention_view(uc, tech.estimator).value;
        }
        for (const prob::AppEstimate& e : est) out.push_back(e.estimated_period);
        if (t != nullptr) wb_est_[k].assign(est.begin(), est.end());
      }
    }
    return events;
  }

  /// Exact work counts of one op, from its inputs: estimate_into makes one
  /// waiting-time kernel call per actor per pass and (1 + passes) recompute
  /// calls per application; a WCRT bound makes two recomputes per application.
  void count_work(const platform::UseCase& uc, std::uint64_t events) {
    sim_events_ += events;
    std::uint64_t actors = 0;
    std::vector<std::uint32_t> per_node(sys_.platform().node_count(), 0);
    for (const sdf::AppId a : uc) {
      actors += sys_.app(a).actor_count();
      for (sdf::ActorId k = 0; k < sys_.app(a).actor_count(); ++k) {
        ++per_node[sys_.mapping().node_of(a, k)];
      }
    }
    for (const std::uint32_t n : per_node) {
      occupancy_sum_ += n;
      occupied_nodes_ += n > 0 ? 1.0 : 0.0;
    }
    for (const Technique& tech : techniques_) {
      const auto passes = static_cast<std::uint64_t>(tech.estimator.iterations);
      if (tech.wcrt) {
        recompute_calls_ += 2 * uc.size();
      } else {
        kernel_calls_ += actors * passes;
        recompute_calls_ += uc.size() * (1 + passes);
      }
    }
  }

  void accumulate_errors(std::uint32_t u) {
    for (std::size_t t = 0; t < techniques_.size(); ++t) {
      for (std::size_t k = 0; k < periods_[t].size(); ++k) {
        err_per_[t][u] += pct_abs_diff(periods_[t][k], sim_avg_[k]);
        err_thr_[t][u] += pct_abs_diff(1.0 / periods_[t][k], 1.0 / sim_avg_[k]);
      }
    }
    err_n_[u] = static_cast<std::uint32_t>(periods_[0].size());
  }

  std::span<analysis::ThroughputEngine* const> reset_probe_engines(const platform::UseCase& uc) {
    probe_ptrs_.clear();
    for (const sdf::AppId a : uc) {
      probe_engines_[a].reset();
      probe_ptrs_.push_back(&probe_engines_[a]);
    }
    return probe_ptrs_;
  }

  const bool table1_;
  const std::uint64_t seed_;
  const std::uint64_t app_seed_;
  const std::size_t apps_;
  const std::vector<Technique> techniques_;

  platform::System sys_;
  std::vector<platform::UseCase> ucs_;
  std::vector<std::uint32_t> order_;
  std::unique_ptr<api::Workbench> wb_;
  std::unique_ptr<sim::SimEngine> sim_;

  // Per-op results.
  std::vector<std::vector<double>> periods_;          // per technique
  std::vector<std::vector<prob::AppEstimate>> wb_est_;  // traced ops only
  std::vector<double> sim_avg_;
  bool sim_converged_ = false;

  // Probe state (traced ops).
  std::vector<analysis::ThroughputEngine> probe_engines_;
  std::vector<analysis::ThroughputEngine*> probe_ptrs_;
  platform::SystemView view_;
  prob::EstimatorWorkspace ws_;
  std::vector<prob::AppEstimate> direct_;
  std::vector<prob::AppEstimate> replay_out_;
  ReplayScratch scratch_;
  ReplayCounts replayed_;
  std::uint64_t traced_events_ = 0;

  // Exact counters over the first counter_ops() ops.
  std::uint64_t sim_events_ = 0;
  std::uint64_t kernel_calls_ = 0;
  std::uint64_t recompute_calls_ = 0;
  double occupancy_sum_ = 0.0;
  double occupied_nodes_ = 0.0;

  // Table 1 accuracy over the first pass, per use-case.
  std::vector<std::vector<double>> err_thr_;
  std::vector<std::vector<double>> err_per_;
  std::vector<std::uint32_t> err_n_;

  std::vector<Sample> samples_;
};

}  // namespace

std::unique_ptr<Workload> make_sweep(bool table1, std::uint64_t seed, std::uint64_t app_seed) {
  return std::make_unique<SweepWorkload>(table1, seed, app_seed);
}

}  // namespace ledger
