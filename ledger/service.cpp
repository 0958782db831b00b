// service_mixed: an api::AnalysisService with two background workers and its
// shared transposition table on, driven by two closed-loop client threads.
// Tenants are two application seeds, each registered under two renamed
// copies (structurally identical, so they share table entries but not
// sessions). Each client draws a seeded mix of contention, WCRT,
// throughput/latency and short-horizon simulation queries over Zipf-skewed
// use-cases; the distinct queries far outnumber the result cache. Latency is
// measured from submit to get.
#include <thread>
#include <variant>

#include "api/service.h"
#include "gen/use_cases.h"
#include "util/rng.h"
#include "workload.h"

namespace ledger {
namespace {

constexpr std::size_t kClients = 2;
constexpr std::size_t kWorkers = 2;      // background service workers
constexpr std::size_t kTenants = 4;      // 2 seeds x 2 renamed copies
constexpr sdf::Time kSimHorizon = 20'000;
// Skew of the use-case draws. About a fifth of the submits then hit the
// result cache, so the median op is an executed query. At 1.1 some 42% hit,
// and the median sat on the steep edge between the cache-hit latencies
// (~1 us) and the executed ones (~50-150 us), where a point of hit rate
// moved op_p50_us by a tenth.
constexpr double kZipf = 0.8;
constexpr std::uint64_t kSampleStride = 64;
constexpr std::size_t kSamplesPerClient = 32;

struct Query {
  std::size_t tenant = 0;
  api::QueryDesc desc;
};

double wall_ms(const api::QueryValue& v) {
  return std::visit([](const auto& report) { return report.provenance.wall_ms; }, v);
}

class ServiceWorkload final : public Workload {
 public:
  ServiceWorkload(std::uint64_t seed, std::uint64_t app_seed)
      : seed_(seed), app_seed_(app_seed) {}

  void setup() override {
    for (std::size_t t = 0; t < kTenants; ++t) {
      systems_.push_back(paper_system(app_seed_ + t / 2, 10, t % 2 == 0 ? "" : "copy"));
    }
    service_ = std::make_unique<api::AnalysisService>(
        api::ServiceOptions{.threads = kWorkers + 1});
    for (const platform::System& sys : systems_) ids_.push_back(service_->register_system(sys));
    ucs_ = gen::all_use_cases(10);
    rank_.resize(ucs_.size());
    for (std::size_t u = 0; u < rank_.size(); ++u) rank_[u] = static_cast<std::uint32_t>(u);
    util::Rng rng = util::counter_rng(seed_, 4, 0);
    rng.shuffle(rank_);
    cdf_ = zipf_cdf(ucs_.size(), kZipf);
    for (std::size_t c = 0; c < kClients; ++c) {
      traces_.push_back(std::make_unique<Trace>(static_cast<std::uint32_t>(c + 1)));
    }
    clients_.resize(kClients);
    // Warm-up: every tenant's session is built before the first timed op.
    api::QueryDesc warm;
    warm.kind = api::QueryKind::Contention;
    for (const api::SystemId id : ids_) (void)service_->submit(id, warm).share();
  }

  std::uint64_t counter_ops() const override { return 1000; }
  std::uint64_t window_ops() const override { return 2000; }  // per client
  bool exact_counters() const override { return false; }

  // No interludes: a set-up timed beside the client threads would measure
  // them as much as itself.
  LoopResult run(double seconds, std::uint64_t min_ops, Mode mode,
                 const std::function<void()>& /*interlude*/) override {
    const std::uint64_t per_client = (min_ops + kClients - 1) / kClients;
    const std::int64_t start = now_ns();
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (std::size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        try {
          client(c, start, seconds, per_client, mode);
        } catch (const std::exception&) {
          ++clients_[c].loop.failed;
        }
      });
    }
    for (std::thread& t : threads) t.join();
    LoopResult r;
    r.elapsed_s = 1e-9 * static_cast<double>(now_ns() - start);
    std::vector<double> p50, p99;
    for (const Client& c : clients_) {
      // Throughput adds up over the clients; latency windows pool.
      r.ops_per_s += quiet(c.windows.ops_per_s, true);
      p50.insert(p50.end(), c.windows.p50_us.begin(), c.windows.p50_us.end());
      p99.insert(p99.end(), c.windows.p99_us.begin(), c.windows.p99_us.end());
      r.windows += c.windows.ops_per_s.size();
      r.window_ops_per_s.insert(r.window_ops_per_s.end(), c.windows.ops_per_s.begin(),
                                c.windows.ops_per_s.end());
      r.ops += c.loop.ops;
      r.failed += c.loop.failed;
      r.plain_us += c.loop.plain_us;
      r.traced_us += c.loop.traced_us;
      r.plain_n += c.loop.plain_n;
      r.traced_n += c.loop.traced_n;
    }
    r.p50_us = quiet(std::move(p50), false);
    r.p99_us = quiet(std::move(p99), false);
    r.window_ops = window_ops();
    return r;
  }

  void describe(Json& p) const override {
    p.count("tenants", kTenants).str("tenant_systems", "2 seeds x 2 renamed copies, 10 apps");
    p.count("clients", kClients).count("service_workers", kWorkers);
    p.str("transposition_table", "on (service default capacity)");
    p.num("zipf_s", kZipf).count("sim_horizon", kSimHorizon);
    p.str("mix", "45% contention (so/comp), 20% wcrt, 20% throughput/latency, 15% simulate");
  }

  void record(Json& rec) const override {
    const api::ServiceStats s = service_->stats();
    const analysis::TranspositionTable::Stats tt = service_->transposition_stats();
    Json c;
    c.count("submitted", s.submitted).count("executed", s.executed);
    c.count("coalesced", s.coalesced).count("result_hits", s.result_hits);
    c.count("sessions_built", s.sessions_built);
    c.count("tt_hits", tt.hits).count("tt_misses", tt.misses).count("tt_evictions", tt.evictions);
    rec.obj("counters", c);
    rec.str("counters_note",
            "timings-class: coalescing, result-cache and table hits depend on how the two "
            "clients' submits interleave with the workers, so they are not gated exactly");
  }

  void check(Gate& gate) override {
    std::vector<std::unique_ptr<api::Workbench>> direct;
    for (const platform::System& sys : systems_) {
      direct.push_back(
          std::make_unique<api::Workbench>(sys, api::WorkbenchOptions{.threads = 1}));
    }
    for (std::size_t c = 0; c < kClients; ++c) {
      for (const auto& [k, value] : clients_[c].samples) {
        const Query q = draw_query(c, k);
        gate.expect(matches(*direct[q.tenant], q.desc, *value),
                    "service ticket differs from a direct Workbench call");
      }
    }
  }

  void layer_metrics(Metrics& out) const override {
    const api::ServiceStats s = service_->stats();
    const analysis::TranspositionTable::Stats tt = service_->transposition_stats();
    double overhead = 0.0;
    std::uint64_t n = 0;
    for (const Client& c : clients_) {
      overhead += c.overhead_us;
      n += c.overhead_n;
    }
    const auto submitted = static_cast<double>(std::max<std::uint64_t>(s.submitted, 1));
    out.push_back({"svc.overhead_us", n > 0 ? overhead / static_cast<double>(n) : 0.0, "us"});
    out.push_back({"svc.result_hit_rate", static_cast<double>(s.result_hits) / submitted, "ratio"});
    out.push_back({"svc.coalesce_rate", static_cast<double>(s.coalesced) / submitted, "ratio"});
    out.push_back({"svc.exec_per_submit", static_cast<double>(s.executed) / submitted, "ratio"});
    out.push_back({"tt.hit_rate", tt.hit_rate(), "ratio"});
    out.push_back({"tt.evictions", static_cast<double>(tt.evictions), "count"});
  }

  unsigned layers() const override { return kService; }

  std::vector<const Trace*> traces() const override {
    std::vector<const Trace*> out;
    for (const auto& t : traces_) out.push_back(t.get());
    return out;
  }

 protected:
  void op(std::uint64_t, Trace*) override {}  // run() drives the clients

 private:
  struct Client {
    LoopResult loop;
    Windows windows{0};
    double overhead_us = 0.0;  // submit->get minus Workbench time, executed tickets
    std::uint64_t overhead_n = 0;
    std::vector<std::pair<std::uint64_t, std::shared_ptr<const api::QueryValue>>> samples;
  };

  /// Query k of client c: a pure function of (seed, client, k).
  Query draw_query(std::size_t c, std::uint64_t k) const {
    util::Rng r = util::counter_rng(seed_, 10 + c, k);
    Query q;
    q.tenant = static_cast<std::size_t>(r.uniform_int(0, kTenants - 1));
    const double x = r.uniform01();
    const platform::UseCase& uc = ucs_[rank_[draw(cdf_, r.uniform01())]];
    const bool coin = r.bernoulli(0.5);
    const auto app = static_cast<sdf::AppId>(r.uniform_int(0, 9));
    api::QueryDesc& d = q.desc;
    if (x < 0.45) {
      d.kind = api::QueryKind::Contention;
      d.use_case = uc;
      d.estimator.method = coin ? prob::Method::SecondOrder : prob::Method::Composability;
    } else if (x < 0.65) {
      d.kind = api::QueryKind::Wcrt;
      d.use_case = uc;
    } else if (x < 0.85) {
      d.kind = coin ? api::QueryKind::Throughput : api::QueryKind::Latency;
      d.app = app;
    } else {
      d.kind = api::QueryKind::Simulate;
      d.use_case = uc;
      d.sim.horizon = kSimHorizon;
    }
    return q;
  }

  void client(std::size_t c, std::int64_t start, double seconds, std::uint64_t min_ops,
              Mode mode) {
    Client& me = clients_[c];
    Trace& trace = *traces_[c];
    const auto budget = static_cast<std::int64_t>(seconds * 1e9);
    const auto hard = static_cast<std::int64_t>(loop_hard_limit_s(seconds) * 1e9);
    me.windows = Windows(window_ops());
    me.windows.start(start);
    for (std::uint64_t k = 0;; ++k) {
      const std::int64_t now = now_ns() - start;
      if ((k >= min_ops && now >= budget) || now >= hard) break;
      const Query q = draw_query(c, k);
      const bool traced = traced_op(k, mode);
      Trace* t = traced ? &trace : nullptr;
      std::shared_ptr<const api::QueryValue> value;
      bool cached = false;
      const std::int64_t t0 = now_ns();
      try {
        const Scope s(t, Span::Op, k);
        api::QueryTicket ticket;
        {
          const Scope sub(t, Span::SvcSubmit, k);
          ticket = service_->submit(ids_[q.tenant], q.desc);
        }
        cached = traced && ticket.status() == api::TicketStatus::Done;
        {
          const Scope get(t, Span::SvcGet, k);
          value = ticket.share();
        }
      } catch (const std::exception&) {
        ++me.loop.failed;
      }
      const std::int64_t t1 = now_ns();
      const double us = 1e-3 * static_cast<double>(t1 - t0);
      me.windows.add(us, t1);
      ++me.loop.ops;
      if (mode == Mode::Alternate) {
        (traced ? me.loop.traced_us : me.loop.plain_us) += us;
        ++(traced ? me.loop.traced_n : me.loop.plain_n);
      }
      if (traced && value && !cached) {
        me.overhead_us += us - 1e3 * wall_ms(*value);
        ++me.overhead_n;
      }
      if (value && k % kSampleStride == 0 && me.samples.size() < kSamplesPerClient) {
        me.samples.emplace_back(k, value);
      }
    }
    me.windows.finish(now_ns());
  }

  static bool matches(api::Workbench& wb, const api::QueryDesc& d, const api::QueryValue& v) {
    switch (d.kind) {
      case api::QueryKind::Contention: {
        const auto* got = std::get_if<api::Report<std::vector<prob::AppEstimate>>>(&v);
        return got != nullptr &&
               same_bits(got->value, wb.contention_view(d.use_case, d.estimator).value);
      }
      case api::QueryKind::Wcrt: {
        const auto* got = std::get_if<api::Report<std::vector<wcrt::AppBound>>>(&v);
        const auto want = wb.wcrt(d.use_case, d.wcrt);
        if (got == nullptr || got->value.size() != want.value.size()) return false;
        for (std::size_t i = 0; i < want.value.size(); ++i) {
          if (!same_bits(got->value[i].worst_case_period, want.value[i].worst_case_period) ||
              !same_bits(got->value[i].isolation_period, want.value[i].isolation_period)) {
            return false;
          }
        }
        return true;
      }
      case api::QueryKind::Throughput: {
        const auto* got = std::get_if<api::Report<analysis::PeriodResult>>(&v);
        const auto want = wb.throughput(d.app);
        return got != nullptr && got->value.deadlocked == want.value.deadlocked &&
               same_bits(got->value.period, want.value.period);
      }
      case api::QueryKind::Latency: {
        const auto* got = std::get_if<api::Report<analysis::GraphLatencyResult>>(&v);
        const auto want = wb.latency(d.app);
        return got != nullptr && same_bits(got->value.latency, want.value.latency) &&
               got->value.critical_actors == want.value.critical_actors;
      }
      case api::QueryKind::Simulate: {
        const auto* got = std::get_if<api::Report<sim::SimResult>>(&v);
        const auto want = wb.simulate(d.use_case, d.sim);
        if (got == nullptr || got->value.events_processed != want.value.events_processed ||
            got->value.apps.size() != want.value.apps.size()) {
          return false;
        }
        for (std::size_t i = 0; i < want.value.apps.size(); ++i) {
          if (!same_bits(got->value.apps[i].average_period, want.value.apps[i].average_period)) {
            return false;
          }
        }
        return true;
      }
      case api::QueryKind::Bottleneck:
      case api::QueryKind::BufferFrontier:
      case api::QueryKind::TopologySweep: break;
    }
    return false;
  }

  const std::uint64_t seed_;
  const std::uint64_t app_seed_;
  std::vector<platform::System> systems_;
  std::vector<std::uint32_t> rank_;
  std::vector<platform::UseCase> ucs_;
  std::vector<double> cdf_;
  std::vector<std::unique_ptr<Trace>> traces_;
  std::vector<Client> clients_;
  std::vector<api::SystemId> ids_;
  // Declared last: destroyed first, so the service drains while everything
  // its queries read is alive.
  std::unique_ptr<api::AnalysisService> service_;
};

}  // namespace

std::unique_ptr<Workload> make_service(std::uint64_t seed, std::uint64_t app_seed) {
  return std::make_unique<ServiceWorkload>(seed, app_seed);
}

}  // namespace ledger
