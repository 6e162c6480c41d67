// Online admission-service benchmark.
//
// One closed-loop caller on one thread drives the public online::Controller
// API over a load-controlled request stream, in stream order: Admit/Leave
// per request, AdvanceEpoch at each 1 s epoch boundary, and the epoch's
// validation through CurrentPartition, ExecGenerations and
// sim::RunConfigSweep(.., {.jobs = 1}). That is the loop of
// online::ReplayStream's non-durable path; driving it here lets every
// public call be timed. ReplayStream itself is the correctness oracle.
//
//   svcbench --workload NAME --seed N --seconds S --trace 0|1 [--commit C]
//
// --trace 0 prints the end-to-end metrics (tracing off); --trace 1 runs
// untraced/traced pass pairs of the same stream and prints the per-layer
// split. The last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}. NOTES.md records why each
// workload exists and what shape it has.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "analysis/memo.hpp"
#include "obs/reqtrace.hpp"
#include "obs/spans.hpp"
#include "online/controller.hpp"
#include "online/workload_stream.hpp"
#include "overhead/model.hpp"
#include "sim/batch.hpp"
#include "util/rng.hpp"

namespace {

using namespace sps;
using Clock = std::chrono::steady_clock;

double NsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

// ---- workloads ---------------------------------------------------------

struct Workload {
  const char* name;
  partition::SchedPolicy policy;
  unsigned cores;
  double rho;               ///< offered-load target
  double soft_fraction;     ///< share of soft (sheddable) admits
  Time validate_horizon;    ///< per-epoch validation sim
  std::size_t num_admits;   ///< stream size; every admit later leaves
};

// Why each workload exists, and its measured shape: NOTES.md.
constexpr Workload kWorkloads[] = {
    {"calm_m64", partition::SchedPolicy::kEdf, 64, 0.70, 0.0, Millis(1000),
     20000},
    {"overload_m16", partition::SchedPolicy::kEdf, 16, 1.30, 0.0, Millis(200),
     3000},
    {"soft_fp_m16", partition::SchedPolicy::kFixedPriority, 16, 0.95, 0.3,
     Millis(200), 20000},
};

/// Realized offered load may miss its target by this many standard
/// errors of the sample mean of u·lifetime (2-6% at these stream sizes).
constexpr double kLoadToleranceSe = 4.0;

/// setup_s is the median of at least this many setups.
constexpr std::size_t kMinSetups = 15;

/// The end-to-end timings pool at least this many passes.
constexpr std::size_t kMinPasses = 2;

online::StreamConfig MakeStreamConfig(const Workload& w, std::uint64_t seed) {
  online::StreamConfig s;
  s.num_admits = w.num_admits;
  s.leave_fraction = 1.0;
  s.soft_fraction = w.soft_fraction;
  s.seed = seed;
  // Admit window that makes the time-averaged resident utilization ρ·m:
  // span = n · E[lifetime] · E[u] / (ρ · m).
  const double mean_lifetime =
      0.5 * static_cast<double>(s.min_lifetime + s.max_lifetime);
  const double mean_util = 0.5 * (s.util_min + s.util_max);
  s.span = static_cast<Time>(static_cast<double>(w.num_admits) *
                             mean_lifetime * mean_util /
                             (w.rho * static_cast<double>(w.cores)));
  return s;
}

/// Σ uᵢ·lifetimeᵢ / (span·m) over the generated stream.
double RealizedLoad(const online::WorkloadStream& s,
                    const online::StreamConfig& cfg, unsigned cores) {
  std::unordered_map<rt::TaskId, std::pair<Time, double>> open;
  double area = 0.0;
  for (const online::Request& r : s.requests()) {
    if (r.kind == online::RequestKind::kAdmit) {
      open.emplace(r.id, std::make_pair(r.at, r.task.utilization()));
      continue;
    }
    const auto it = open.find(r.id);
    if (it == open.end()) continue;
    area += it->second.second * static_cast<double>(r.at - it->second.first);
    open.erase(it);
  }
  return area / (static_cast<double>(cfg.span) * static_cast<double>(cores));
}

/// Relative standard error of the realized load: u and lifetime are
/// independent uniforms, so CV²(u·L) = E[u²]E[L²] / (E[u]E[L])² − 1.
double LoadStandardError(const online::StreamConfig& cfg) {
  const auto moments = [](double lo, double hi) {
    return std::make_pair((lo + hi) / 2, (lo * lo + lo * hi + hi * hi) / 3);
  };
  const auto [u1, u2] = moments(cfg.util_min, cfg.util_max);
  const auto [l1, l2] = moments(static_cast<double>(cfg.min_lifetime),
                                static_cast<double>(cfg.max_lifetime));
  const double cv = std::sqrt(u2 * l2 / (u1 * u1 * l1 * l1) - 1.0);
  return cv / std::sqrt(static_cast<double>(cfg.num_admits));
}

/// The `sps_cli --online` defaults: PaperCoreI7 overheads, first-fit,
/// split, fallback, ladder and hysteresis on, 1 s epochs; every epoch is
/// validated by simulation.
online::ReplayConfig MakeReplayConfig(const Workload& w, std::uint64_t seed,
                                      analysis::AnalysisMemo* memo) {
  online::ReplayConfig c;
  c.controller.admission.num_cores = w.cores;
  c.controller.admission.policy = w.policy;
  c.controller.admission.model = overhead::OverheadModel::PaperCoreI7();
  // A private table per replay: the process-wide SharedMemo would carry
  // warm verdicts from one pass into the next.
  c.controller.admission.memo.table = memo;
  c.seed = seed;
  c.validate_by_simulation = true;
  c.validate_sim.horizon = w.validate_horizon;
  return c;
}

/// Nearest-rank percentile of `v` (sorted in place); q in (0, 1].
double Percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double Median(std::vector<double> v) { return Percentile(v, 0.5); }

/// The reported tail: p99, or the highest percentile that still has ten
/// samples beyond it when there are fewer than 1000.
double TailQuantile(std::size_t samples) {
  return std::min(0.99, 1.0 - 10.0 / static_cast<double>(
                                         std::max<std::size_t>(samples, 20)));
}

/// The CPUs this process may run on, in id order; empty if unknown.
std::vector<int> AllowedCpus(cpu_set_t& set) {
  std::vector<int> cpus;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

void PinToCpu(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  sched_setaffinity(0, sizeof(one), &one);
}

// ---- one replay pass -----------------------------------------------------

struct EpochCheck {
  bool validated = false;
  std::uint64_t sim_misses = 0;
  friend bool operator==(const EpochCheck&, const EpochCheck&) = default;
};

/// What must repeat exactly between passes and match the oracle.
struct Decisions {
  std::uint64_t admits = 0;
  std::uint64_t rejects = 0;
  std::uint64_t leaves = 0;
  online::ChurnStats churn;
  online::OverloadStats overload;
  partition::AdmitStats admission;
  partition::Partition final_partition;
  std::vector<EpochCheck> epochs;
};

struct SimTotals {
  std::uint64_t validations = 0;
  std::uint64_t events = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t ready_ops = 0;
  std::uint64_t sleep_ops = 0;
  std::uint64_t event_ops = 0;
};

/// Util-screen / memo-probe / analysis span time of one nesting context.
struct AnalysisTime {
  double util = 0.0;
  double memo = 0.0;
  double analysis = 0.0;
  [[nodiscard]] double total() const { return util + memo + analysis; }
};

/// Traced-pass instrumentation. One profiler per public call that has
/// nested stages (Admit, AdvanceEpoch), so each profiler's stage totals
/// are exactly the spans nested in that call.
/// Analysis spans occur under both a placement and a fallback (admit), or
/// under a placement and directly (epoch tick); those calls also run
/// under a request tracer whose span tree attributes them.
struct Tracing {
  obs::SpanProfiler admit_prof;
  obs::SpanProfiler tick_prof;
  // top_k = 1 and no flight ring: only the trace just closed is read back.
  obs::RequestTracer tracer{obs::RequestTracer::Options{1, 0, "."}};

  double admit_ns = 0.0;
  double leave_ns = 0.0;
  double tick_ns = 0.0;
  double snapshot_ns = 0.0;
  double validate_ns = 0.0;
  AnalysisTime admit_in_fallback;
  AnalysisTime tick_in_placement;
};

struct PassResult {
  Decisions d;
  std::uint64_t requests = 0;
  std::uint64_t leave_breaches = 0;  ///< LEAVE result != "id was accepted"
  std::uint64_t hard_misses = 0;
  std::uint64_t split_accepts = 0;   ///< admits accepted as split tasks
  SimTotals sim;
  double wall_ns = 0.0;
  std::vector<double> admit_ns;  ///< host time per Admit call
  std::vector<double> epoch_ns;  ///< host time per epoch close
};

/// Adds the analysis-stage span time of retained trace `seq` that is
/// nested under a span of stage `under`.
void AddNested(const obs::RequestTracer& tr, std::uint64_t seq,
               obs::SpanStage under, AnalysisTime& out) {
  for (const obs::RequestTrace& t : tr.Retained()) {
    if (t.seq != seq) continue;
    for (const obs::SpanRecord& s : t.spans) {
      bool nested = false;
      for (std::int32_t p = s.parent; p >= 0 && !nested;
           p = t.spans[static_cast<std::size_t>(p)].parent) {
        nested = t.spans[static_cast<std::size_t>(p)].stage == under;
      }
      if (!nested) continue;
      const auto dur = static_cast<double>(s.dur_ns);
      if (s.stage == obs::SpanStage::kUtilScreen) out.util += dur;
      if (s.stage == obs::SpanStage::kMemoProbe) out.memo += dur;
      if (s.stage == obs::SpanStage::kAnalysis) out.analysis += dur;
    }
  }
}

/// What one pass replays with, built by the timed setup: the stream, a
/// fresh memo table and a fresh controller.
struct Setup {
  online::WorkloadStream stream;
  std::unique_ptr<analysis::AnalysisMemo> memo;
  online::ReplayConfig rcfg;
  std::unique_ptr<online::Controller> ctrl;
  double generate_ns = 0.0;
  double setup_ns = 0.0;
};

Setup MakeSetup(const Workload& w, const online::StreamConfig& scfg) {
  Setup s;
  const auto t0 = Clock::now();
  s.stream = online::GenerateStream(scfg);
  const auto t1 = Clock::now();
  s.memo = std::make_unique<analysis::AnalysisMemo>(
      analysis::MemoConfig::kDefaultSharedEntries);
  s.rcfg = MakeReplayConfig(w, scfg.seed, s.memo.get());
  s.ctrl = std::make_unique<online::Controller>(s.rcfg.controller);
  const auto t2 = Clock::now();
  s.generate_ns = NsBetween(t0, t1);
  s.setup_ns = NsBetween(t0, t2);
  return s;
}

PassResult RunPass(const Setup& setup, Tracing* tr) {
  const online::ReplayConfig& rcfg = setup.rcfg;
  online::Controller& ctrl = *setup.ctrl;
  const online::WorkloadStream& stream = setup.stream;
  const std::vector<online::Request>& reqs = stream.requests();

  PassResult out;
  std::vector<double>& admit_ns = out.admit_ns;
  admit_ns.reserve(stream.num_admits());
  std::unordered_set<rt::TaskId> accepted;
  const Time epoch_len = rcfg.epoch;
  // ReplayStream compresses idle gaps longer than this many epochs.
  constexpr Time kMaxIdleEpochs = 1024;
  Time epoch_start = 0;
  std::size_t epoch_index = 0;

  const auto close_epoch = [&] {
    EpochCheck e;
    if (rcfg.validate_by_simulation && ctrl.resident() > 0) {
      sim::SimConfig scfg = rcfg.validate_sim;
      scfg.overheads = rcfg.controller.admission.model;
      scfg.exec.seed = util::DeriveSeed(rcfg.seed, epoch_index, 0);
      scfg.arrivals.seed = util::DeriveSeed(rcfg.seed, epoch_index, 1);
      const auto t0 = Clock::now();
      const partition::Partition p = ctrl.CurrentPartition();
      scfg.exec_generations = ctrl.ExecGenerations();
      const auto t1 = Clock::now();
      const std::vector<sim::BatchRun> runs =
          sim::RunConfigSweep(p, {{"epoch", scfg}}, {.jobs = 1});
      const auto t2 = Clock::now();
      if (tr != nullptr) {
        tr->snapshot_ns += NsBetween(t0, t1);
        tr->validate_ns += NsBetween(t1, t2);
      }
      const sim::SimResult& r = runs.front().result;
      e.validated = true;
      e.sim_misses = r.total_misses;
      for (std::size_t i = 0; i < r.tasks.size() && i < p.tasks.size(); ++i) {
        if (p.tasks[i].task.crit == rt::Criticality::kHard) {
          out.hard_misses += r.tasks[i].deadline_misses;
        }
      }
      ++out.sim.validations;
      out.sim.events += r.event_ops.pops;
      out.sim.preemptions += r.total_preemptions;
      out.sim.ready_ops += r.ready_ops.total();
      out.sim.sleep_ops += r.sleep_ops.total();
      out.sim.event_ops += r.event_ops.total();
    }
    out.d.epochs.push_back(e);
  };

  const auto tick = [&] {
    if (tr == nullptr) {
      ctrl.AdvanceEpoch(false);
      return;
    }
    const std::uint64_t trace_seq = reqs.size() + epoch_index;
    obs::ProfilerInstallation pi(&tr->tick_prof);
    obs::TracerInstallation ti(&tr->tracer);
    tr->tracer.BeginTrace(trace_seq, trace_seq, false);
    const auto t0 = Clock::now();
    ctrl.AdvanceEpoch(false);
    const auto t1 = Clock::now();
    tr->tick_ns += NsBetween(t0, t1);
    // Flagged so the trace is retained and its span tree can be read.
    tr->tracer.EndTrace(false, true, false);
    AddNested(tr->tracer, trace_seq, obs::SpanStage::kPlacement,
              tr->tick_in_placement);
  };

  const auto pass_start = Clock::now();
  for (std::size_t seq = 0; seq < reqs.size(); ++seq) {
    const online::Request& r = reqs[seq];
    while (r.at - epoch_start >= epoch_len) {
      const auto t0 = Clock::now();
      close_epoch();
      epoch_start += epoch_len;
      ++epoch_index;
      const Time idle_epochs = (r.at - epoch_start) / epoch_len;
      if (idle_epochs > kMaxIdleEpochs) {
        epoch_start += idle_epochs * epoch_len;
        epoch_index += static_cast<std::size_t>(idle_epochs);
      }
      tick();
      out.epoch_ns.push_back(NsBetween(t0, Clock::now()));
    }
    if (r.kind == online::RequestKind::kAdmit) {
      online::AdmitOutcome o;
      if (tr == nullptr) {
        const auto t0 = Clock::now();
        o = ctrl.Admit(r.task);
        admit_ns.push_back(NsBetween(t0, Clock::now()));
      } else {
        obs::ProfilerInstallation pi(&tr->admit_prof);
        obs::TracerInstallation ti(&tr->tracer);
        tr->tracer.BeginTrace(seq, seq, true);
        const auto t0 = Clock::now();
        o = ctrl.Admit(r.task);
        const double ns = NsBetween(t0, Clock::now());
        admit_ns.push_back(ns);
        tr->admit_ns += ns;
        // The fallback runs exactly when placement and ladder failed.
        const bool fell_back = !o.accepted || o.via_fallback;
        tr->tracer.EndTrace(false, fell_back, false);
        if (fell_back) {
          AddNested(tr->tracer, seq, obs::SpanStage::kFallback,
                    tr->admit_in_fallback);
        }
      }
      if (o.accepted) {
        ++out.d.admits;
        accepted.insert(r.id);
        if (o.parts > 1 && !o.via_fallback) ++out.split_accepts;
      } else {
        ++out.d.rejects;
      }
    } else {
      bool left = false;
      if (tr == nullptr) {
        left = ctrl.Leave(r.id);
      } else {
        const auto t0 = Clock::now();
        left = ctrl.Leave(r.id);
        tr->leave_ns += NsBetween(t0, Clock::now());
      }
      // Accepted ids (resident or shed) must leave; rejected ids cannot.
      if (left != (accepted.count(r.id) != 0)) ++out.leave_breaches;
      if (left) ++out.d.leaves;
    }
  }
  {
    const auto t0 = Clock::now();
    close_epoch();
    out.epoch_ns.push_back(NsBetween(t0, Clock::now()));
  }
  out.wall_ns = NsBetween(pass_start, Clock::now());
  out.requests = reqs.size();
  out.d.churn = ctrl.churn();
  out.d.overload = ctrl.overload_stats();
  out.d.admission = ctrl.admission_stats();
  out.d.final_partition = ctrl.CurrentPartition();
  return out;
}

// ---- correctness ---------------------------------------------------------

bool SamePartition(const partition::Partition& a,
                   const partition::Partition& b) {
  if (a.num_cores != b.num_cores || a.policy != b.policy ||
      a.tasks.size() != b.tasks.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    const partition::PlacedTask& x = a.tasks[i];
    const partition::PlacedTask& y = b.tasks[i];
    if (!(x.task == y.task) || x.parts.size() != y.parts.size()) return false;
    for (std::size_t k = 0; k < x.parts.size(); ++k) {
      const partition::SubtaskPlacement& p = x.parts[k];
      const partition::SubtaskPlacement& q = y.parts[k];
      if (p.core != q.core || p.budget != q.budget ||
          p.local_priority != q.local_priority ||
          p.rel_deadline != q.rel_deadline) {
        return false;
      }
    }
  }
  return true;
}

/// Counts the fields in which a pass differs from the oracle, printing
/// each.
std::uint64_t CompareDecisions(const Decisions& got, const Decisions& want) {
  std::uint64_t bad = 0;
  const auto check = [&](bool ok, const char* field) {
    if (ok) return;
    ++bad;
    std::printf("FAIL replay vs ReplayStream: %s differs\n", field);
  };
  check(got.admits == want.admits && got.rejects == want.rejects &&
            got.leaves == want.leaves,
        "admits/rejects/leaves");
  check(got.churn == want.churn, "ChurnStats");
  check(got.overload == want.overload, "OverloadStats");
  check(got.admission.util_rejects == want.admission.util_rejects &&
            got.admission.density_accepts ==
                want.admission.density_accepts &&
            got.admission.full_tests == want.admission.full_tests,
        "AdmitStats decision counters");
  check(got.admission.memo_hits == want.admission.memo_hits &&
            got.admission.memo_misses == want.admission.memo_misses &&
            got.admission.memo_evicts == want.admission.memo_evicts,
        "memo hit/miss/evict counters");
  check(SamePartition(got.final_partition, want.final_partition),
        "final partition");
  check(got.epochs == want.epochs, "per-epoch sim_misses");
  return bad;
}

Decisions OracleDecisions(const Workload& w, std::uint64_t seed,
                          const online::WorkloadStream& stream) {
  analysis::AnalysisMemo memo(analysis::MemoConfig::kDefaultSharedEntries);
  const online::ReplayResult r =
      online::ReplayStream(stream, MakeReplayConfig(w, seed, &memo));
  Decisions d;
  d.admits = r.admits;
  d.rejects = r.rejects;
  d.leaves = r.leaves;
  d.churn = r.churn;
  d.overload = r.overload;
  d.admission = r.admission;
  d.final_partition = r.final_partition;
  for (const online::EpochStats& e : r.epochs) {
    d.epochs.push_back(EpochCheck{e.validated, e.sim_misses});
  }
  return d;
}

// ---- reporting -----------------------------------------------------------

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Metric {
  std::string name;
  double value = 0.0;
  const char* unit = "";
};

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(),
                metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
}

/// Busy/self/count row of the traced-run layer table. A layer that did
/// no work on this workload prints "n/a".
void LayerRow(const char* layer, double busy_ns, double self_ns,
              std::uint64_t count, bool ran) {
  if (!ran) {
    std::printf("  %-28s %12s %12s %10s\n", layer, "n/a", "n/a", "n/a");
    return;
  }
  std::printf("  %-28s %12.3f %12.3f %10llu\n", layer, busy_ns / 1e6,
              self_ns / 1e6, static_cast<unsigned long long>(count));
}

struct StageTotals {
  double ns[static_cast<std::size_t>(obs::SpanStage::kCount)] = {};
  std::uint64_t count[static_cast<std::size_t>(obs::SpanStage::kCount)] = {};

  explicit StageTotals(const obs::SpanProfiler& p) {
    for (const obs::SpanProfiler::StageReport& r : p.Report()) {
      ns[static_cast<std::size_t>(r.stage)] = static_cast<double>(r.total_ns);
      count[static_cast<std::size_t>(r.stage)] = r.count;
    }
  }
  [[nodiscard]] double Ns(obs::SpanStage s) const {
    return ns[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] std::uint64_t Count(obs::SpanStage s) const {
    return count[static_cast<std::size_t>(s)];
  }
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* k = argv[i];
    const char* v = argv[i + 1];
    if (std::strcmp(k, "--workload") == 0) {
      a.workload = v;
    } else if (std::strcmp(k, "--seed") == 0) {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(k, "--seconds") == 0) {
      a.seconds = std::strtod(v, nullptr);
    } else if (std::strcmp(k, "--trace") == 0) {
      a.trace = std::strcmp(v, "0") != 0;
    } else if (std::strcmp(k, "--commit") == 0) {
      a.commit = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: svcbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--commit C]\n");
    return 2;
  }
#ifdef NDEBUG
  constexpr bool kOptimized = true;
#else
  constexpr bool kOptimized = false;
#endif
  if (std::strcmp(SVCBENCH_BUILD_TYPE, "Release") != 0 || !kOptimized) {
    std::fprintf(stderr, "svcbench: refusing to report from a %s build\n",
                 SVCBENCH_BUILD_TYPE);
    return 2;
  }
  const Workload* wp = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) wp = &w;
  }
  if (wp == nullptr) {
    std::fprintf(stderr, "svcbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  const Workload& w = *wp;
  std::printf("svcbench workload=%s seed=%llu seconds=%g trace=%d "
              "hardware_threads=%u build=%s commit=%s\n",
              w.name, static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0,
              std::thread::hardware_concurrency(), SVCBENCH_BUILD_TYPE,
              args.commit.c_str());

  std::uint64_t failed = 0;

  // Every pass replays the whole stream through its own setup: stream
  // generation, a fresh memo table and a fresh controller, timed as
  // setup_s. Passes run while another one still fits the time budget (at
  // least kMinPasses). In trace mode the passes alternate untraced /
  // traced.
  const online::StreamConfig scfg = MakeStreamConfig(w, args.seed);
  std::vector<double> setup_ns;
  std::vector<double> generate_ns;
  std::vector<PassResult> plain;
  std::vector<PassResult> traced;
  Tracing tracing;
  online::WorkloadStream stream;
  // The CPUs of a shared host slow down and recover independently, and
  // the kernel keeps one thread on one CPU for long. So pass i of each kind
  // runs pinned to allowed CPU i mod n: a run's timings are not all drawn
  // from one contended CPU.
  cpu_set_t allowed;
  const std::vector<int> cpus = AllowedCpus(allowed);
  // Read after the first pass: every later pass repeats the program's
  // footprint and only adds timing samples of the benchmark's own.
  double peak_rss_mb = 0.0;
  const auto run_pass = [&](Tracing* tr) {
    std::vector<PassResult>& done = tr == nullptr ? plain : traced;
    if (!cpus.empty()) PinToCpu(cpus[done.size() % cpus.size()]);
    Setup s = MakeSetup(w, scfg);
    setup_ns.push_back(s.setup_ns);
    generate_ns.push_back(s.generate_ns);
    if (stream.empty()) {
      stream = s.stream;
    } else if (!(s.stream.requests() == stream.requests())) {
      ++failed;
      std::printf("FAIL stream generation is not deterministic\n");
    }
    done.push_back(RunPass(s, tr));
    if (plain.size() == 1 && traced.empty()) peak_rss_mb = PeakRssMb();
  };
  const auto budget_start = Clock::now();
  double elapsed = 0.0;
  do {
    run_pass(nullptr);
    if (args.trace) run_pass(&tracing);
    elapsed = NsBetween(budget_start, Clock::now());
  } while (plain.size() < kMinPasses ||
           elapsed * static_cast<double>(plain.size() + 1) /
                   static_cast<double>(plain.size()) <=
               args.seconds * 1e9);
  if (!cpus.empty()) sched_setaffinity(0, sizeof(allowed), &allowed);
  // Runs with few, long passes still report a median of several setups.
  while (setup_ns.size() < kMinSetups) {
    const Setup s = MakeSetup(w, scfg);
    setup_ns.push_back(s.setup_ns);
    generate_ns.push_back(s.generate_ns);
  }

  const double rho = RealizedLoad(stream, scfg, w.cores);
  const double load_tolerance = kLoadToleranceSe * LoadStandardError(scfg);
  const bool load_ok = std::abs(rho / w.rho - 1.0) <= load_tolerance;
  std::printf("stream: %zu requests (%zu admits), span %.3f s, offered load "
              "%.4f (target %.2f ± %.1f%%)%s\n",
              stream.size(), stream.num_admits(), ToMillis(scfg.span) / 1e3,
              rho, w.rho, 100 * load_tolerance,
              load_ok ? "" : "  FAIL off target");
  if (!load_ok) ++failed;

  // Correctness, outside the timed region.
  const Decisions oracle = OracleDecisions(w, args.seed, stream);
  std::uint64_t attempted = 0;
  std::uint64_t hard_misses = 0;
  std::uint64_t leave_breaches = 0;
  for (const std::vector<PassResult>* set : {&plain, &traced}) {
    for (const PassResult& p : *set) {
      attempted += p.requests;
      hard_misses += p.hard_misses;
      leave_breaches += p.leave_breaches;
      failed += CompareDecisions(p.d, oracle) +
                p.hard_misses + p.leave_breaches;
    }
  }
  const PassResult& first = plain.front();
  const Decisions& d = first.d;
  std::printf("oracle: admits %llu rejects %llu leaves %llu | churn moved "
              "%llu split %llu unsplit %llu | memo hits %llu misses %llu "
              "evicts %llu | hard misses %llu, failed leaves %llu\n",
              static_cast<unsigned long long>(d.admits),
              static_cast<unsigned long long>(d.rejects),
              static_cast<unsigned long long>(d.leaves),
              static_cast<unsigned long long>(d.churn.moved),
              static_cast<unsigned long long>(d.churn.split),
              static_cast<unsigned long long>(d.churn.unsplit),
              static_cast<unsigned long long>(d.admission.memo_hits),
              static_cast<unsigned long long>(d.admission.memo_misses),
              static_cast<unsigned long long>(d.admission.memo_evicts),
              static_cast<unsigned long long>(hard_misses),
              static_cast<unsigned long long>(leave_breaches));

  std::vector<Metric> metrics;
  const double admits_attempted = static_cast<double>(d.admits + d.rejects);
  if (!args.trace) {
    // Timings pool every pass of the run: a few seconds of host slowdown
    // then weigh as much as they last, and no more.
    double requests = 0.0;
    double wall_ns = 0.0;
    std::vector<double> admit_ns;
    std::vector<double> epoch_ns;
    for (const PassResult& p : plain) {
      requests += static_cast<double>(p.requests);
      wall_ns += p.wall_ns;
      admit_ns.insert(admit_ns.end(), p.admit_ns.begin(), p.admit_ns.end());
      epoch_ns.insert(epoch_ns.end(), p.epoch_ns.begin(), p.epoch_ns.end());
    }
    const double req_per_s = requests / (wall_ns / 1e9);
    const double admit_q = TailQuantile(admit_ns.size());
    const double epoch_q = TailQuantile(epoch_ns.size());
    const double admit_p50 = Percentile(admit_ns, 0.5);
    const double admit_p99 = Percentile(admit_ns, admit_q);
    const double epoch_p50 = Percentile(epoch_ns, 0.5);
    const double epoch_p99 = Percentile(epoch_ns, epoch_q);
    const auto [fastest, slowest] = std::minmax_element(
        plain.begin(), plain.end(),
        [](const PassResult& a, const PassResult& b) {
          return a.wall_ns < b.wall_ns;
        });
    std::printf("setup n=%zu median %.4f s\n", setup_ns.size(),
                Median(setup_ns) / 1e9);
    std::printf("passes %zu (wall %.1f-%.1f ms), pooled: %.1f req/s | admit "
                "n=%zu p50 %.3f us p%.3g %.3f us | epoch close n=%zu p50 "
                "%.4f ms p%.3g %.4f ms\n",
                plain.size(), fastest->wall_ns / 1e6, slowest->wall_ns / 1e6,
                req_per_s, admit_ns.size(), admit_p50 / 1e3,
                100 * admit_q, admit_p99 / 1e3, epoch_ns.size(),
                epoch_p50 / 1e6, 100 * epoch_q, epoch_p99 / 1e6);
    metrics = {
        {"req_per_s", req_per_s, "req/s"},
        {"admit_p50_us", admit_p50 / 1e3, "us"},
        {"admit_p99_us", admit_p99 / 1e3, "us"},
        {"epoch_p50_ms", epoch_p50 / 1e6, "ms"},
        {"epoch_p99_ms", epoch_p99 / 1e6, "ms"},
        {"acceptance_ratio", static_cast<double>(d.admits) / admits_attempted,
         "ratio"},
        // Placements written per accepted admit: the admitted task itself
        // plus every moved, split or unsplit resident. Counting the
        // admitted task keeps the metric above 0 on churn-free workloads.
        {"churn_per_admit",
         static_cast<double>(d.admits + d.churn.total()) /
             static_cast<double>(std::max<std::uint64_t>(d.admits, 1)),
         "tasks"},
        {"setup_s", Median(setup_ns) / 1e9, "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
  } else {
    // Per traced pass: timings are means over the traced passes; counts
    // are identical in every pass (checked against the oracle above).
    const double n = static_cast<double>(traced.size());
    double plain_wall = 0.0;
    double traced_wall = 0.0;
    for (const PassResult& p : plain) plain_wall += p.wall_ns;
    for (const PassResult& p : traced) traced_wall += p.wall_ns;
    plain_wall /= static_cast<double>(plain.size());
    traced_wall /= n;

    using S = obs::SpanStage;
    const StageTotals a(tracing.admit_prof);
    const StageTotals t(tracing.tick_prof);
    const double admit = tracing.admit_ns / n;
    const double leave = tracing.leave_ns / n;
    const double tick = tracing.tick_ns / n;
    const double snapshot = tracing.snapshot_ns / n;
    const double validate = tracing.validate_ns / n;
    const double fallback = a.Ns(S::kFallback) / n;
    const double ladder = (a.Ns(S::kLadderDegrade) + a.Ns(S::kLadderShed)) / n;
    const double placement = (a.Ns(S::kPlacement) + t.Ns(S::kPlacement)) / n;
    const double util = (a.Ns(S::kUtilScreen) + t.Ns(S::kUtilScreen)) / n;
    const double memo = (a.Ns(S::kMemoProbe) + t.Ns(S::kMemoProbe)) / n;
    const double analysis = (a.Ns(S::kAnalysis) + t.Ns(S::kAnalysis)) / n;
    const double in_fallback = tracing.admit_in_fallback.total() / n;
    const double tick_analysis =
        (t.Ns(S::kUtilScreen) + t.Ns(S::kMemoProbe) + t.Ns(S::kAnalysis)) / n;
    const double tick_in_placement = tracing.tick_in_placement.total() / n;
    const double analysis_all = util + memo + analysis;
    // Analysis spans not under a fallback, and not directly in the tick,
    // are under a placement.
    const double placement_analysis =
        analysis_all - in_fallback - (tick_analysis - tick_in_placement);

    const double admit_self = admit - a.Ns(S::kPlacement) / n - fallback -
                              ladder;
    const double placement_self = placement - placement_analysis;
    const double fallback_self = fallback - in_fallback;
    const double tick_self =
        tick - t.Ns(S::kPlacement) / n - (tick_analysis - tick_in_placement);
    const double loop_self =
        traced_wall - admit - leave - tick - snapshot - validate;

    const SimTotals& sim = traced.front().sim;
    const partition::AdmitStats& as = d.admission;
    const bool validates = sim.validations > 0;
    const std::uint64_t fallback_runs = a.Count(S::kFallback);
    const std::uint64_t ladder_steps =
        a.Count(S::kLadderDegrade) + a.Count(S::kLadderShed);
    const std::uint64_t analysis_runs =
        a.Count(S::kAnalysis) + t.Count(S::kAnalysis);

    std::printf("traced run: %zu untraced + %zu traced passes, wall %.3f ms "
                "untraced, %.3f ms traced (per pass)\n",
                plain.size(), traced.size(), plain_wall / 1e6,
                traced_wall / 1e6);
    std::printf("  %-28s %12s %12s %10s\n", "layer (per traced pass)",
                "busy_ms", "self_ms", "count");
    LayerRow("online.admit", admit, admit_self, d.admits + d.rejects, true);
    LayerRow("online.leave", leave, leave,
             first.requests - first.admit_ns.size(), true);
    LayerRow("online.epoch_tick", tick, tick_self,
             first.epoch_ns.size() - 1, true);
    LayerRow("online.snapshot", snapshot, snapshot, sim.validations,
             validates);
    LayerRow("online.fallback", fallback, fallback_self,
             fallback_runs / traced.size(), fallback_runs > 0);
    LayerRow("online.ladder", ladder, ladder, ladder_steps / traced.size(),
             ladder_steps > 0);
    LayerRow("partition.placement", placement, placement_self,
             (a.Count(S::kPlacement) + t.Count(S::kPlacement)) /
                 traced.size(),
             true);
    LayerRow("analysis.util_screen", util, util,
             (a.Count(S::kUtilScreen) + t.Count(S::kUtilScreen)) /
                 traced.size(),
             true);
    LayerRow("analysis.memo_probe", memo, memo,
             (a.Count(S::kMemoProbe) + t.Count(S::kMemoProbe)) /
                 traced.size(),
             true);
    LayerRow("analysis.demand_test", analysis, analysis,
             analysis_runs / traced.size(), analysis_runs > 0);
    LayerRow("sim.validate", validate, validate, sim.validations, validates);
    LayerRow("bench.loop", loop_self, loop_self, first.requests, true);
    const double self_sum = admit_self + leave + tick_self + snapshot +
                            fallback_self + ladder + placement_self +
                            analysis_all + validate + loop_self;
    std::printf("  self times sum to %.3f ms of %.3f ms traced wall; "
                "obs.trace_overhead %.3f\n",
                self_sum / 1e6, traced_wall / 1e6, traced_wall / plain_wall);

    const auto per_pass = [&](std::uint64_t c) {
      return static_cast<double>(c) / n;
    };
    const double hits = static_cast<double>(as.memo_hits);
    const double lookups = static_cast<double>(as.memo_hits + as.memo_misses);
    metrics = {
        {"online.generate_ms", Median(generate_ns) / 1e6, "ms"},
        {"online.admit.busy_ms", admit / 1e6, "ms"},
        {"online.admit.self_ms", admit_self / 1e6, "ms"},
        {"online.leave.busy_ms", leave / 1e6, "ms"},
        {"online.epoch_tick.busy_ms", tick / 1e6, "ms"},
        {"online.epoch_tick.self_ms", tick_self / 1e6, "ms"},
        {"online.snapshot.busy_ms", snapshot / 1e6, "ms"},
        {"online.fallback.runs", per_pass(fallback_runs), "count"},
        {"online.fallback.busy_ms", fallback / 1e6, "ms"},
        {"online.fallback.self_ms", fallback_self / 1e6, "ms"},
        {"online.fallback.adopted", static_cast<double>(d.churn.repartitions),
         "count"},
        {"online.fallback.hysteresis_blocks",
         static_cast<double>(d.overload.hysteresis_blocks), "count"},
        {"online.ladder.degrades", static_cast<double>(d.overload.degrades),
         "count"},
        {"online.ladder.sheds", static_cast<double>(d.overload.sheds),
         "count"},
        {"online.ladder.shed_restores",
         static_cast<double>(d.overload.shed_restores), "count"},
        {"online.ladder.retry_attempts",
         static_cast<double>(d.overload.retry_attempts), "count"},
        {"online.ladder.busy_ms", ladder / 1e6, "ms"},
        {"online.churn.moved", static_cast<double>(d.churn.moved), "count"},
        {"online.churn.split", static_cast<double>(d.churn.split), "count"},
        {"partition.placement.busy_ms", placement / 1e6, "ms"},
        {"partition.placement.self_ms", placement_self / 1e6, "ms"},
        {"partition.core_tests_per_admit",
         static_cast<double>(as.decisions()) / admits_attempted, "count"},
        {"partition.split_accepts", static_cast<double>(first.split_accepts),
         "count"},
        {"analysis.util_rejects", static_cast<double>(as.util_rejects),
         "count"},
        {"analysis.density_accepts", static_cast<double>(as.density_accepts),
         "count"},
        {"analysis.full_tests", static_cast<double>(as.full_tests), "count"},
        {"analysis.busy_ms", analysis / 1e6, "ms"},
        {"analysis.us_per_full_test",
         analysis_runs == 0 ? 0.0 : analysis / 1e3 / per_pass(analysis_runs),
         "us"},
        {"analysis.util_screen.busy_ms", util / 1e6, "ms"},
        {"analysis.memo_probe.busy_ms", memo / 1e6, "ms"},
        {"analysis.memo.hit_ratio", lookups == 0 ? 0.0 : hits / lookups,
         "ratio"},
        {"analysis.memo.evicts", static_cast<double>(as.memo_evicts), "count"},
        {"sim.validate.count", static_cast<double>(sim.validations), "count"},
        {"sim.validate.busy_ms", validate / 1e6, "ms"},
        {"sim.events", static_cast<double>(sim.events), "count"},
        {"sim.events_per_s",
         validates ? static_cast<double>(sim.events) / (validate / 1e9) : 0.0,
         "1/s"},
        {"sim.preemptions", static_cast<double>(sim.preemptions), "count"},
        {"containers.ready_ops", static_cast<double>(sim.ready_ops), "count"},
        {"containers.sleep_ops", static_cast<double>(sim.sleep_ops), "count"},
        {"containers.event_ops", static_cast<double>(sim.event_ops), "count"},
        {"obs.trace_overhead", traced_wall / plain_wall, "x"},
    };
  }
  PrintResult(failed == 0, attempted, failed, metrics);
  return 0;
}
