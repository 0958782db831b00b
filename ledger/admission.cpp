// admission_churn: the paper's run-time use. An admission::AdmissionController
// (default candidate LRU of 8, no transposition table) holds a resident set
// and serves a seeded op stream: mostly verdict-only what_if_admit probes,
// some full-report probes, and request/remove pairs. Candidates are drawn
// Zipf-skewed from 24 distinct graphs, three times what the LRU holds, and
// QoS bounds are multiples of each candidate's isolation period, so both
// verdicts occur.
//
// The controller keeps every application it ever admitted in its store, so
// an unbounded stream would slow every probe down over time. The stream is
// therefore cut into sessions of kSession ops; each session starts from a
// fresh controller with the same initial residents (restarted outside the
// op latencies), which keeps the measured state the same in every run.
#include <cmath>
#include <deque>
#include <optional>

#include "admission/admission.h"
#include "analysis/engine.h"
#include "gen/graph_generator.h"
#include "prob/compose.h"
#include "prob/load.h"
#include "util/rng.h"
#include "workload.h"

namespace ledger {
namespace {

constexpr std::size_t kPool = 24;          // distinct candidate graphs
constexpr std::size_t kLru = 8;            // controller's default capacity
constexpr std::size_t kInitial = 4;        // residents at session start
constexpr std::size_t kMaxResidents = 8;
constexpr std::uint64_t kSession = 20'000; // ops per controller session
constexpr double kZipf = 1.0;
constexpr double kQosLo = 1.5;             // QoS = isolation period x U[lo, hi)
constexpr double kQosHi = 4.0;

enum class Kind : std::uint8_t { Verdict, Full, Request, Remove };

admission::WhatIfOptions what_if(bool full_report) {
  admission::WhatIfOptions o;
  o.with_estimates = full_report;
  return o;
}

class AdmissionWorkload final : public Workload {
 public:
  AdmissionWorkload(std::uint64_t seed, std::uint64_t app_seed)
      : seed_(seed), app_seed_(app_seed) {}

  void setup() override {
    util::Rng rng(app_seed_);
    graphs_ = gen::generate_graphs(rng, gen::GeneratorOptions{}, kPool, "cand");
    std::size_t max_actors = 0;
    for (const sdf::Graph& g : graphs_) {
      max_actors = std::max(max_actors, g.actor_count());
      std::vector<platform::NodeId> nodes(g.actor_count());
      for (std::size_t a = 0; a < nodes.size(); ++a) nodes[a] = static_cast<platform::NodeId>(a);
      nodes_.push_back(std::move(nodes));
      analysis::ThroughputEngine engine(g);
      iso_.push_back(engine.recompute().period);
    }
    platform_ = platform::Platform::homogeneous(max_actors);
    cdf_ = zipf_cdf(kPool, kZipf);
    // Warm-up: one short session, then the measured state starts afresh.
    start_session();
    for (std::uint64_t i = 0; i < 64; ++i) {
      ctl_->what_if_admit(graphs_[i % kPool], nodes_[i % kPool], {iso_[i % kPool] * 2.0},
                          report_, what_if(false));
    }
    start_session();
  }

  std::uint64_t counter_ops() const override { return kSession; }
  std::uint64_t window_ops() const override { return kSession; }

  void describe(Json& p) const override {
    p.count("candidate_graphs", kPool).count("lru_capacity", kLru);
    p.count("initial_residents", kInitial).count("max_residents", kMaxResidents);
    p.count("session_ops", kSession).num("zipf_s", kZipf);
    p.num("qos_factor_lo", kQosLo).num("qos_factor_hi", kQosHi);
    p.str("mix", "80% verdict probe, 10% full probe, 10% request/remove");
  }

  void record(Json& rec) const override {
    Json c;
    c.count("ops", counter_ops()).count("verdict_probes", n_verdict_);
    c.count("full_probes", n_full_).count("requests", n_request_).count("removes", n_remove_);
    c.count("admits", admits_).count("rejects", rejects_);
    c.count("lru_hits", lru_hits_).count("lru_misses", lru_misses_);
    c.count("recompute_calls", recomputes_);
    rec.obj("counters", c);
  }

  void check(Gate& gate) override {
    const std::vector<Write>& log = first_session_.empty() ? writes_ : first_session_;
    for (const Sample& s : samples_) {
      // A fresh controller given the same writes, without the probe traffic
      // (LRU hits and misses, warm engines) the live one has served.
      admission::AdmissionController fresh(platform_, kLru, nullptr);
      bool replayed = true;
      for (std::size_t w = 0; w < s.writes; ++w) {
        if (log[w].remove) {
          fresh.remove(log[w].handle);
        } else {
          replayed = fresh.request(graphs_[log[w].graph], nodes_[log[w].graph], {log[w].qos})
                         .admitted &&
                     replayed;
        }
      }
      gate.expect(replayed, "a fresh controller refused a replayed admission");
      admission::WhatIfReport rep;
      fresh.what_if_admit(graphs_[s.graph], nodes_[s.graph], {s.qos}, rep, what_if(false));
      gate.expect(rep.admissible == s.admissible && close(rep.predicted_period, s.predicted),
                  "verdict differs from a fresh controller");
    }
  }

  void layer_metrics(Metrics& out) const override {
    const Trace& t = trace_;
    out.push_back({"adm.probe_verdict_us", t[Span::AdmVerdict].mean_us(), "us"});
    out.push_back({"adm.probe_full_us", t[Span::AdmFull].mean_us(), "us"});
    out.push_back({"adm.request_us", t[Span::AdmRequest].mean_us(), "us"});
    out.push_back({"adm.remove_us", t[Span::AdmRemove].mean_us(), "us"});
    out.push_back({"adm.admit_frac",
                   static_cast<double>(admits_) /
                       static_cast<double>(std::max<std::uint64_t>(admits_ + rejects_, 1)),
                   "ratio"});
    out.push_back({"analysis.engine_build_us", t[Span::EngineBuild].mean_us(), "us"});
    out.push_back({"analysis.recompute_cold_us", t[Span::RecomputeCold].mean_us(), "us"});
    out.push_back({"analysis.recompute_warm_us", t[Span::RecomputeWarm].mean_us(), "us"});
    out.push_back({"analysis.recompute_calls", static_cast<double>(recomputes_), "count"});
  }

  unsigned layers() const override { return kAdmission | kAnalysis; }

 protected:
  void prepare(std::uint64_t i) override {
    if (i == 0 || i % kSession != 0) return;
    if (first_session_.empty()) first_session_ = writes_;
    start_session();
  }

  void op(std::uint64_t i, Trace* t) override {
    util::Rng rng = util::counter_rng(seed_, 3, i);
    const double x = rng.uniform01();
    kind_ = x < 0.80 ? Kind::Verdict : x < 0.90 ? Kind::Full : Kind::Request;
    if (kind_ == Kind::Request &&
        (residents_.size() >= kMaxResidents ||
         (residents_.size() > kInitial && rng.bernoulli(0.5)))) {
      kind_ = Kind::Remove;
    }
    const bool counted = i < counter_ops();
    if (kind_ == Kind::Remove) {
      {
        const Scope s(t, Span::AdmRemove, i);
        ctl_->remove(residents_.front().handle);
      }
      writes_.push_back({true, residents_.front().handle, 0, 0.0});
      residents_.pop_front();
      n_remove_ += counted ? 1 : 0;
      return;
    }
    graph_ = draw(cdf_, rng.uniform01());
    const double qos = iso_[graph_] * rng.uniform_real(kQosLo, kQosHi);
    const bool miss = touch_lru(graph_);
    bool admissible = false;
    double predicted = 0.0;
    std::size_t peers = 0;
    std::size_t report_apps = 0;
    if (kind_ == Kind::Request) {
      admission::Decision d;
      {
        const Scope s(t, Span::AdmRequest, i);
        d = ctl_->request(graphs_[graph_], nodes_[graph_], {qos});
      }
      if (d.admitted) {
        residents_.push_back({*d.handle, graph_, qos});
        writes_.push_back({false, *d.handle, graph_, qos});
      }
      admissible = d.admitted;
      predicted = d.predicted_period;
      for (const double p : d.peer_periods) peers += p > 0.0 ? 1 : 0;
    } else {
      const bool full = kind_ == Kind::Full;
      {
        const Scope s(t, full ? Span::AdmFull : Span::AdmVerdict, i);
        ctl_->what_if_admit(graphs_[graph_], nodes_[graph_], {qos}, report_, what_if(full));
      }
      admissible = report_.admissible;
      predicted = report_.predicted_period;
      for (const double p : report_.peer_periods) peers += p > 0.0 ? 1 : 0;
      report_apps = report_.estimates.size();
    }
    predicted_ = predicted;
    if (counted) {
      ++(kind_ == Kind::Request ? n_request_ : kind_ == Kind::Full ? n_full_ : n_verdict_);
      ++(admissible ? admits_ : rejects_);
      ++(miss ? lru_misses_ : lru_hits_);
      // A miss builds and cold-solves the candidate's engine; the verdict
      // recomputes the candidate and every peer it reached; a full report
      // runs one Figure 4 pass (two recomputes per application).
      recomputes_ += (miss ? 1 : 0) + 1 + peers + 2 * report_apps;
    }
    if (counted && i % 97 == 0 && samples_.size() < 64) {
      // Writes before this op: the state the verdict was given in.
      const std::size_t before = writes_.size() - (kind_ == Kind::Request && admissible ? 1 : 0);
      samples_.push_back({before, graph_, qos, admissible, predicted});
    }
  }

  /// Traced probes: the controller's candidate prediction replayed with
  /// public calls (engine build, cold isolation solve, composites from
  /// node_load, warm solve on the response times).
  void probe(std::uint64_t i, Trace& t) override {
    if (kind_ != Kind::Verdict && kind_ != Kind::Full) return;
    const sdf::Graph& g = graphs_[graph_];
    const std::vector<platform::NodeId>& nodes = nodes_[graph_];
    std::optional<analysis::ThroughputEngine> engine;
    {
      const Scope s(&t, Span::EngineBuild, i);
      engine.emplace(g);
    }
    double iso = 0.0;
    {
      const Scope s(&t, Span::RecomputeCold, i);
      iso = engine->recompute().period;
    }
    const std::vector<prob::ActorLoad> loads =
        prob::derive_loads(g, engine->repetition_vector(), iso);
    totals_.resize(platform_.node_count());
    for (platform::NodeId n = 0; n < totals_.size(); ++n) totals_[n] = ctl_->node_load(n);
    for (std::size_t a = 0; a < nodes.size(); ++a) {
      totals_[nodes[a]] = prob::compose(totals_[nodes[a]], prob::to_composite(loads[a]));
    }
    response_.assign(g.actor_count(), 0.0);
    for (sdf::ActorId a = 0; a < g.actor_count(); ++a) {
      const prob::Composite self = prob::to_composite(loads[a]);
      const prob::Composite& total = totals_[nodes[a]];
      const double twait = prob::can_invert(self) ? prob::decompose(total, self).weighted_blocking
                                                  : total.weighted_blocking;
      response_[a] = static_cast<double>(g.actor(a).exec_time) + twait;
    }
    double period = 0.0;
    {
      const Scope s(&t, Span::RecomputeWarm, i);
      period = engine->recompute(response_).period;
    }
    probe_gate_.expect(close(period, predicted_), "replayed admission prediction differs");
  }

 private:
  struct Resident {
    admission::AppHandle handle = 0;
    std::size_t graph = 0;
    double qos = 0.0;
  };
  /// One state change of the controller: an admitted request or a removal.
  struct Write {
    bool remove = false;
    admission::AppHandle handle = 0;
    std::size_t graph = 0;
    double qos = 0.0;
  };
  struct Sample {
    std::size_t writes = 0;  // prefix of the session's write log
    std::size_t graph = 0;
    double qos = 0.0;
    bool admissible = false;
    double predicted = 0.0;
  };

  /// Warm-started Howard solves may differ from a cold solve in the last
  /// bits when two critical cycles tie; verdicts and periods must agree to
  /// far better than the QoS resolution.
  static bool close(double a, double b) {
    return std::abs(a - b) <= 1e-9 * std::max(std::abs(a), std::abs(b));
  }

  void start_session() {
    ctl_ = std::make_unique<admission::AdmissionController>(platform_, kLru, nullptr);
    residents_.clear();
    writes_.clear();
    lru_.clear();
    for (std::size_t r = 0; r < kInitial; ++r) {
      const std::size_t g = kPool - 1 - r;  // the coldest graphs: rarely probed
      const double qos = iso_[g] * 3.0;
      const admission::Decision d = ctl_->request(graphs_[g], nodes_[g], {qos});
      if (d.admitted) {
        residents_.push_back({*d.handle, g, qos});
        writes_.push_back({false, *d.handle, g, qos});
      }
      touch_lru(g);
    }
  }

  /// Mirrors the controller's candidate LRU (same capacity, same
  /// least-recently-used eviction); returns true on a miss.
  bool touch_lru(std::size_t g) {
    ++clock_;
    for (auto& [graph, stamp] : lru_) {
      if (graph == g) {
        stamp = clock_;
        return false;
      }
    }
    if (lru_.size() < kLru) {
      lru_.push_back({g, clock_});
    } else {
      auto victim = lru_.begin();
      for (auto it = lru_.begin(); it != lru_.end(); ++it) {
        if (it->second < victim->second) victim = it;
      }
      *victim = {g, clock_};
    }
    return true;
  }

  const std::uint64_t seed_;
  const std::uint64_t app_seed_;
  std::vector<sdf::Graph> graphs_;
  std::vector<std::vector<platform::NodeId>> nodes_;
  std::vector<double> iso_;
  std::vector<double> cdf_;
  platform::Platform platform_;

  std::unique_ptr<admission::AdmissionController> ctl_;
  std::deque<Resident> residents_;
  std::vector<Write> writes_;         // this session's state changes
  std::vector<Write> first_session_;  // kept for the gate once a session ends
  admission::WhatIfReport report_;
  std::vector<std::pair<std::size_t, std::uint64_t>> lru_;
  std::uint64_t clock_ = 0;

  // Last op, for the probe.
  Kind kind_ = Kind::Verdict;
  std::size_t graph_ = 0;
  double predicted_ = 0.0;
  std::vector<prob::Composite> totals_;
  std::vector<double> response_;

  // Exact counters over the first session.
  std::uint64_t n_verdict_ = 0, n_full_ = 0, n_request_ = 0, n_remove_ = 0;
  std::uint64_t admits_ = 0, rejects_ = 0, lru_hits_ = 0, lru_misses_ = 0;
  std::uint64_t recomputes_ = 0;

  std::vector<Sample> samples_;
};

}  // namespace

std::unique_ptr<Workload> make_admission(std::uint64_t seed, std::uint64_t app_seed) {
  return std::make_unique<AdmissionWorkload>(seed, app_seed);
}

}  // namespace ledger
