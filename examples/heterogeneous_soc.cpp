// Heterogeneous SoC co-design walkthrough: combines the heterogeneous
// timing table, the annealing mapper, the buffer-capacity explorer and the
// trace/Gantt output - the "design a media SoC before RTL exists" workflow
// the paper's analysis speed enables.
//
// Scenario: two streaming applications must share a platform with two slow
// general-purpose cores and one fast DSP. We (1) model per-type execution
// times, (2) let the mapper place actors using the probabilistic estimate,
// (3) size the channel buffers on the Pareto frontier, and (4) inspect the
// final schedule as an ASCII Gantt chart validated by simulation.
#include <iostream>
#include <vector>

#include "api/workbench.h"
#include "gen/graph_generator.h"
#include "platform/heterogeneous.h"
#include "sim/trace_export.h"
#include "util/stats.h"
#include "util/table.h"

using namespace procon;

int main() {
  // Two generated streaming applications (5-6 actors each).
  util::Rng rng(4242);
  gen::GeneratorOptions gopts;
  gopts.min_actors = 5;
  gopts.max_actors = 6;
  const auto apps = gen::generate_graphs(rng, gopts, 2, "app");

  // Platform: two general-purpose cores (type 0) and one DSP (type 1).
  constexpr platform::NodeType kCore = 0;
  constexpr platform::NodeType kDsp = 1;
  platform::Platform plat;
  plat.add_node("core0", kCore);
  plat.add_node("core1", kCore);
  plat.add_node("dsp0", kDsp);

  // Execution times: every actor runs 3x faster on the DSP.
  platform::HeterogeneousTiming timing(apps, 2);
  for (sdf::AppId i = 0; i < apps.size(); ++i) {
    for (sdf::ActorId a = 0; a < apps[i].actor_count(); ++a) {
      timing.set(i, a, kDsp, std::max<sdf::Time>(1, apps[i].actor(a).exec_time / 3));
    }
  }

  // Mapping exploration: score = worst estimated slowdown of the
  // *heterogeneous* system, so the mapper weighs "fast but contended DSP"
  // against "slow but private core" automatically. The session is opened on
  // the heterogeneous-applied graphs; the annealer scores one candidate per
  // step on the session's engines.
  platform::Mapping start = platform::Mapping::load_balanced(apps, plat);
  platform::System base(std::vector<sdf::Graph>(apps), plat, start);
  api::Workbench explorer(timing.apply(base));
  dse::MapperOptions mopts;
  mopts.iterations = 600;
  const auto mapped = explorer.optimise_mapping(mopts);
  std::cout << "mapping exploration: score "
            << util::format_double(mapped->initial_score, 2) << " -> "
            << util::format_double(mapped->score, 2) << " after "
            << mapped->evaluations << " evaluations\n\n";

  // Materialise the chosen heterogeneous system as its own session.
  platform::System chosen_base(std::vector<sdf::Graph>(apps), plat, mapped->mapping);
  api::Workbench bench(timing.apply(chosen_base));
  const platform::System& chosen = bench.system();

  // Buffer sizing for each application on its own Pareto frontier (each
  // candidate capacity vector is solved on a fresh engine).
  util::Table buffers("Buffer sizing (per application, analytic)");
  buffers.set_header({"app", "frontier points", "min-buffer period",
                      "full-speed period", "tokens at full speed"});
  for (sdf::AppId i = 0; i < bench.app_count(); ++i) {
    const auto frontier = bench.buffer_frontier(i);
    buffers.add_row({chosen.app(i).name(),
                     std::to_string(frontier->size()),
                     util::format_double(frontier->front().period, 1),
                     util::format_double(frontier->back().period, 1),
                     std::to_string(frontier->back().total_tokens)});
  }
  std::cout << buffers.render() << '\n';

  // Validate with the simulator and show the schedule.
  sim::SimOptions sopts{.horizon = 200'000};
  sopts.collect_trace = true;
  const auto result = bench.simulate(sopts);
  util::Table periods("Validation: estimate vs simulation");
  periods.set_header({"app", "estimated", "simulated"});
  const auto est = bench.contention();
  for (sdf::AppId i = 0; i < bench.app_count(); ++i) {
    periods.add_row({chosen.app(i).name(),
                     util::format_double((*est)[i].estimated_period, 1),
                     util::format_double(result->apps[i].average_period, 1)});
  }
  std::cout << periods.render() << '\n';

  std::cout << "schedule snapshot (letters = applications, '.' = idle):\n"
            << sim::render_gantt(chosen, *result, 0, 3000, 90) << '\n';
  std::cout << "(a VCD waveform of the same trace is available via sim::to_vcd)\n";
  return 0;
}
