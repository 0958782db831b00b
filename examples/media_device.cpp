// A multi-featured media device: the motivating scenario of the paper's
// introduction. A portable device decodes video (H.263), audio (MP3) and
// images (JPEG) concurrently on a small heterogeneous MPSoC, and the
// designer wants per-application throughput for every feature combination
// without simulating each one.
//
// The three decoder task graphs below follow the classical SDF models used
// in the dataflow literature (Sriram & Bhattacharyya; SDF3's example set):
// multi-rate where the standards are (H.263: 1 frame = 99 macroblocks at
// QCIF; MP3: 2 granules per frame), execution times in microseconds of the
// same order as published measurements.
#include <iomanip>
#include <iostream>
#include <vector>

#include "api/workbench.h"
#include "gen/use_cases.h"
#include "util/stats.h"
#include "util/table.h"

using namespace procon;

namespace {

/// H.263 QCIF decoder: VLD -> IQ/IDCT (99 macroblocks/frame) -> MC -> out.
sdf::Graph h263_decoder() {
  sdf::Graph g("H263");
  const auto vld = g.add_actor("vld", 2600);
  const auto idct = g.add_actor("idct", 40);    // per macroblock
  const auto mc = g.add_actor("mc", 40);        // per macroblock
  const auto frame = g.add_actor("frame", 500); // reconstruction + display
  g.add_channel(vld, idct, 99, 1, 0);   // one VLD emits 99 macroblocks
  g.add_channel(idct, mc, 1, 1, 0);
  g.add_channel(mc, frame, 1, 99, 0);   // frame consumes all macroblocks
  g.add_channel(frame, vld, 1, 1, 1);   // single-frame pipeline feedback
  return g;
}

/// MP3 decoder: huffman -> requantise -> (2 granules) imdct -> synth.
sdf::Graph mp3_decoder() {
  sdf::Graph g("MP3");
  const auto huff = g.add_actor("huffman", 700);
  const auto req = g.add_actor("requant", 400);
  const auto imdct = g.add_actor("imdct", 500);  // per granule
  const auto synth = g.add_actor("synth", 600);  // per granule
  g.add_channel(huff, req, 1, 1, 0);
  g.add_channel(req, imdct, 2, 1, 0);   // a frame holds two granules
  g.add_channel(imdct, synth, 1, 1, 0);
  g.add_channel(synth, huff, 1, 2, 2);  // feedback: next frame after both
  return g;
}

/// JPEG decoder: parse -> (6 MCU blocks) idct -> colour conversion.
sdf::Graph jpeg_decoder() {
  sdf::Graph g("JPEG");
  const auto parse = g.add_actor("parse", 1200);
  const auto idct = g.add_actor("jidct", 300);  // per MCU
  const auto cc = g.add_actor("colour", 900);
  g.add_channel(parse, idct, 6, 1, 0);
  g.add_channel(idct, cc, 1, 6, 0);
  g.add_channel(cc, parse, 1, 1, 1);
  return g;
}

}  // namespace

int main() {
  // Platform: a RISC host, a DSP and a pixel accelerator. Front-end actors
  // (parsers / VLD / huffman) share the RISC, transform kernels share the
  // DSP, and back-end filters share the accelerator - the natural
  // heterogeneous assignment the paper's device model assumes.
  std::vector<sdf::Graph> apps{h263_decoder(), mp3_decoder(), jpeg_decoder()};
  platform::Platform plat;
  const auto risc = plat.add_node("RISC");
  const auto dsp = plat.add_node("DSP");
  const auto accel = plat.add_node("ACCEL");

  platform::Mapping map(apps);
  // H263: vld->RISC, idct->DSP, mc->ACCEL, frame->ACCEL.
  map.assign(0, 0, risc);
  map.assign(0, 1, dsp);
  map.assign(0, 2, accel);
  map.assign(0, 3, accel);
  // MP3: huffman->RISC, requant->DSP, imdct->DSP, synth->ACCEL.
  map.assign(1, 0, risc);
  map.assign(1, 1, dsp);
  map.assign(1, 2, dsp);
  map.assign(1, 3, accel);
  // JPEG: parse->RISC, idct->DSP, colour->ACCEL.
  map.assign(2, 0, risc);
  map.assign(2, 1, dsp);
  map.assign(2, 2, accel);

  // One analysis session for the whole device: per-application engines are
  // built once, and all 2^3 - 1 feature combinations are estimated in a
  // single sweep that shards across the session's thread pool.
  api::Workbench bench(
      platform::System(std::move(apps), std::move(plat), std::move(map)));

  std::cout << "Multi-featured media device: H.263 + MP3 + JPEG on RISC/DSP/ACCEL\n\n";

  api::SweepOptions sweep_opts;
  sweep_opts.with_wcrt = true;
  const auto swept =
      bench.sweep_use_cases(gen::all_use_cases(bench.app_count()), sweep_opts);

  util::Table table("Per-feature period (time units) per use-case");
  table.set_header({"use-case", "app", "isolation", "estimated", "worst-case",
                    "simulated"});
  for (const api::UseCaseResult& uc : *swept) {
    const auto sim =
        bench.simulate(uc.use_case, sim::SimOptions{.horizon = 2'000'000});
    std::string label;
    for (const auto id : uc.use_case) {
      label += bench.system().app(id).name().substr(0, 1);
    }
    for (std::size_t i = 0; i < uc.estimates.size(); ++i) {
      table.add_row({label, bench.system().app(uc.use_case[i]).name(),
                     util::format_double(uc.estimates[i].isolation_period, 0),
                     util::format_double(uc.estimates[i].estimated_period, 0),
                     util::format_double(uc.bounds[i].worst_case_period, 0),
                     sim->apps[i].converged
                         ? util::format_double(sim->apps[i].average_period, 0)
                         : "n/a"});
    }
  }
  std::cout << table.render() << '\n';
  std::cout << "(sweep of " << swept.provenance.evaluations << " use-cases on "
            << swept.provenance.threads << " thread(s): "
            << util::format_double(swept.provenance.wall_ms, 2) << " ms)\n\n";

  std::cout << "Reading: the probabilistic estimate answers \"can the device\n"
               "decode video while playing MP3?\" per combination without\n"
               "simulating it; the worst-case column shows how much capacity a\n"
               "conservative bound would waste.\n";
  return 0;
}
