// Example: watch a split task live. Builds a small system where one task
// is split across three cores (two migrations per period), runs it in the
// simulator with the paper's overheads, and prints the event log plus a
// Gantt chart — the runtime behaviour of §2 of the paper made visible.
//
// Build & run:  ./build/examples/split_trace

#include <cstdio>

#include "obs/report.hpp"
#include "overhead/model.hpp"
#include "partition/placement.hpp"
#include "partition/verify.hpp"
#include "rt/task.hpp"
#include "sim/engine.hpp"
#include "trace/gantt.hpp"
#include "trace/trace.hpp"

using namespace sps;

int main() {
  // Hand-built placement: tau0 is split 4ms + 3ms + 2ms across cores
  // 0-1-2 (T = 20ms); each core also runs a local normal task.
  partition::Partition p;
  p.num_cores = 3;
  {
    partition::PlacedTask split;
    split.task = rt::MakeTask(0, Millis(9), Millis(20));
    split.parts = {{0, Millis(4), 0},   // body subtask 1 (elevated)
                   {1, Millis(3), 0},   // body subtask 2
                   {2, Millis(2), 0}};  // tail subtask
    p.tasks.push_back(split);
  }
  for (partition::CoreId c = 0; c < 3; ++c) {
    partition::PlacedTask normal;
    normal.task = rt::MakeTask(static_cast<rt::TaskId>(1 + c),
                               Millis(6), Millis(25 + 5 * c));
    normal.parts = {{c, Millis(6),
                     partition::kNormalPriorityBase + 1 + c}};
    p.tasks.push_back(normal);
  }

  const overhead::OverheadModel model = overhead::OverheadModel::PaperCoreI7();
  const partition::PartitionAnalysis pa = AnalyzePartition(p, model);
  std::printf("verifier: %s\n\n", pa.schedulable
                                      ? "schedulable"
                                      : pa.failure_reason.c_str());

  sim::SimConfig cfg;
  cfg.horizon = Millis(40);  // two periods of the split task
  cfg.overheads = model;
  // The observability sink (DESIGN.md §10) delivers the canonical trace
  // and the streaming metrics in the SimResult itself. Recording runs
  // are serial, so in sps_cli these two flags give the same bytes under
  // any --shards value.
  cfg.record_trace = true;
  cfg.record_metrics = true;
  const sim::SimResult r = Simulate(p, cfg);

  std::printf("--- first period: the split task's journey ---\n");
  for (const trace::Event& e : r.trace_events) {
    if (e.time > Millis(20)) break;
    if (e.task != 0 && e.kind != trace::EventKind::kMigrateIn) continue;
    if (e.kind == trace::EventKind::kOverheadBegin ||
        e.kind == trace::EventKind::kOverheadEnd) {
      continue;
    }
    std::printf("%s\n", trace::FormatEvent(e).c_str());
  }

  std::printf("\n--- Gantt (40ms; tau0 = '0' hopping between cores) ---\n%s",
              trace::RenderGantt(r.trace_events,
                                 {.start = 0, .end = Millis(40),
                                  .columns = 110, .num_cores = 3})
                  .c_str());

  std::printf("\n--- stats ---\n%s", r.summary().c_str());
  const obs::MetricsReport rep = obs::BuildMetricsReport(r);
  std::printf("\n--- per-core occupancy (busy+overhead+idle == span) ---\n%s",
              rep.CoreCsv().c_str());
  std::printf("\nNote the paper's semantics: budget exhaustion on core 0/1 "
              "inserts tau0 into the NEXT core's ready queue "
              "(MIGRATE_OUT/MIGRATE_IN pairs); the tail finish on core 2 "
              "returns it to core 0's sleep queue, so the next RELEASE is "
              "again on core 0.\n");
  return 0;
}
