// FIG7 — reproduces Figure 7 of the paper: transaction-level simulation of
// the two-PE MPEG-2 decoder with PE2 clocked at the computed F^γ_min; the
// maximum FIFO backlog per clip, normalized to the buffer size b = 1620,
// must stay <= 1.0 with several clips approaching the bound ("sensible
// assumptions for system designers").
#include <iostream>
#include <optional>

#include "bench/experiment_common.h"
#include "common/table.h"
#include "mpeg/clip.h"
#include "rtc/sizing.h"
#include "sim/components.h"

int main(int argc, char** argv) {
  using namespace wlc;
  const bench::CsvSink csv(argc, argv);
  const mpeg::TraceConfig cfg = bench::paper_config();
  const std::int64_t window = 24LL * cfg.stream.mb_per_frame();
  const EventCount buffer = cfg.stream.mb_per_frame();

  std::cout << "=== FIG7: simulated FIFO backlog in front of PE2 at F^γ_min ===\n\n";

  // Phase 1: the paper's sizing — curves combined over all clips.
  std::vector<bench::ClipAnalysis> clips;
  std::optional<workload::WorkloadCurve> gu;
  std::optional<trace::EmpiricalArrivalCurve> arr;
  for (const auto& profile : mpeg::clip_library()) {
    clips.push_back(bench::analyze_clip(cfg, profile, window));
    gu = gu ? workload::WorkloadCurve::combine(*gu, clips.back().gamma_u) : clips.back().gamma_u;
    arr = arr ? trace::EmpiricalArrivalCurve::combine(*arr, clips.back().arrivals)
              : clips.back().arrivals;
  }
  const Hertz f_gamma = rtc::min_frequency_workload(*arr, *gu, buffer);
  std::cout << "PE2 clocked at F^γ_min = " << common::fmt_f(f_gamma / 1e6, 1) << " MHz; FIFO b = "
            << common::fmt_i(buffer) << " macroblocks\n\n";

  // Phase 2: pipeline simulation per clip (Fig. 7's bars). The extra
  // "own F" column sizes each clip by its own curves — it isolates how much
  // of the headroom comes from combining curves across clips versus from
  // the bound itself.
  common::Table table(
      {"nr", "clip", "max backlog", "normalized", "bar", "normalized @ own F"});
  double worst = 0.0;
  bool overflow = false;
  for (std::size_t i = 0; i < clips.size(); ++i) {
    const sim::PipelineStats stats = sim::run_fifo_pipeline(clips[i].trace.pe2_input, f_gamma);
    const double norm =
        static_cast<double>(stats.max_backlog) / static_cast<double>(buffer);
    worst = std::max(worst, norm);
    overflow = overflow || stats.max_backlog > buffer;
    const Hertz f_own = rtc::min_frequency_workload(clips[i].arrivals, clips[i].gamma_u, buffer);
    const sim::PipelineStats own = sim::run_fifo_pipeline(clips[i].trace.pe2_input, f_own);
    overflow = overflow || own.max_backlog > buffer;
    table.add_row({std::to_string(i + 1), clips[i].trace.name,
                   common::fmt_i(stats.max_backlog), common::fmt_f(norm, 3),
                   common::ascii_bar(norm, 1.0, 40),
                   common::fmt_f(static_cast<double>(own.max_backlog) /
                                     static_cast<double>(buffer),
                                 3)});
  }
  table.print(std::cout);
  csv.write("fig7_backlogs", table);

  std::cout << "\nReproduction check (paper Fig. 7): every normalized backlog <= 1.0 ("
            << (overflow ? "VIOLATED" : "holds") << "), worst = " << common::fmt_f(worst, 3)
            << " — bars close to 1.0 show the worst-case bound is not overly pessimistic.\n\n";
  return overflow ? 1 : 0;
}
