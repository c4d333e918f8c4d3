// perfbench: runs one workload a fixed number of times and prints its metrics.
//
//   perfbench --workload web_farm|server_farm|cluster16 --seed N --seconds S
//             --trace 0|1
//
// Every run covers the workload's fixed simulated horizon (DefaultHorizon). The
// number of runs depends on S and the workload alone (Repetitions), never on the
// wall clock, so every build measures the same work.
//
// --trace 0 repeats set-up + one measured run and reports the end-to-end
// metrics: throughputs from the fastest run, set-up time as the median,
// simulated metrics from the first run (every run of one seed must repeat them
// exactly).
//
// --trace 1 reports the per-layer metrics. On web_farm and server_farm it repeats
// pairs of an untraced and a traced run (timing decorators around every
// scheduler call and the controller's RunOnce); the two must produce the same
// trace hash. cluster16 has no traced stack and reports counts only.
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, metrics. A failed output check prints the reason to standard error,
// reports correct=false and exits with code 1.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "farms.h"
#include "layer_trace.h"
#include "report.h"

namespace perfbench {
namespace {

constexpr int kMinRuns = 3;

struct Args {
  Workload workload = Workload::kWebFarm;
  uint64_t seed = 99;
  double seconds = 10.0;
  bool trace = false;
};

// Wall seconds of one set-up plus one run of each workload on the reference host
// (perfbench/NOTES.md). They turn --seconds into a fixed repetition count.
double NominalRunSeconds(Workload w) {
  switch (w) {
    case Workload::kWebFarm:
      return 0.6;
    case Workload::kServerFarm:
      return 0.7;
    case Workload::kCluster16:
      return 0.75;
  }
  return 1.0;
}

// The number of measured runs (--trace 0), or of untraced + traced pairs
// (--trace 1, where a traced run costs about two untraced ones): as many as fill
// --seconds on the reference host, and at least `min`.
int Repetitions(const Args& args, double runs_per_repetition, int min) {
  const double n = args.seconds / (NominalRunSeconds(args.workload) * runs_per_repetition);
  return std::max(min, static_cast<int>(n));
}

[[noreturn]] void Usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload web_farm|server_farm|cluster16 --seed N"
               " --seconds S --trace 0|1\n";
  std::exit(2);
}

double ParseNumber(std::string_view flag, const std::string& text) {
  size_t used = 0;
  double v = 0.0;
  try {
    v = std::stod(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != text.size() || !(v >= 0.0)) {
    Usage("bad value for " + std::string(flag) + ": " + text);
  }
  return v;
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) {
      Usage("missing value for " + std::string(flag));
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      const auto w = ParseWorkload(value);
      if (!w) {
        Usage("unknown workload " + value);
      }
      args.workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      size_t used = 0;
      try {
        args.seed = std::stoull(value, &used);
      } catch (const std::exception&) {
        used = 0;
      }
      if (used == 0 || used != value.size() || value[0] == '-') {
        Usage("bad value for --seed: " + value);
      }
    } else if (flag == "--seconds") {
      args.seconds = ParseNumber(flag, value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        Usage("--trace takes 0 or 1");
      }
      args.trace = value == "1";
    } else {
      Usage("unknown flag " + std::string(flag));
    }
  }
  if (!have_workload) {
    Usage("--workload is required");
  }
  return args;
}

double Now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch()).count();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux.
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// One set-up plus one measured run.
struct RunRecord {
  SetupTimes setup;
  double setup_s = 0.0;
  double run_s = 0.0;
  Outcome outcome;
};

// The CPUs this process may run on. Each run is pinned to the next one in turn:
// on a shared host the CPUs' contention differs and drifts, and the scheduler
// may leave a lone thread on a busy one for tens of seconds; rotating spreads
// the runs over all of them, so the fastest run does not depend on placement.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed)) {
          cpus_.push_back(cpu);
        }
      }
    }
  }

  void PinNext() {
    if (cpus_.empty()) {
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  std::vector<int> cpus_;
  size_t next_ = 0;
};

RunRecord RunOnce(const Args& args, LayerTracer* tracer) {
  RunRecord r;
  const double t0 = Now();
  std::unique_ptr<Rig> rig =
      BuildRig(args.workload, args.seed, DefaultHorizon(args.workload), tracer, &r.setup);
  const double t1 = Now();
  rig->Run();
  const double t2 = Now();
  r.outcome = rig->Harvest();
  r.setup_s = t1 - t0;
  r.run_s = t2 - t1;
  CheckOutcome(args.workload, r.outcome);
  return r;
}

void PrintOutcome(const Args& args, const Outcome& o) {
  std::printf("workload=%s seed=%llu horizon_s=%.3f host_cpus=%ld host_threads=1\n",
              WorkloadName(args.workload), static_cast<unsigned long long>(args.seed),
              DefaultHorizon(args.workload).ToSeconds(), sysconf(_SC_NPROCESSORS_ONLN));
  std::printf("simulated: offered=%lld injected=%lld served=%lld listen_drops=%lld "
              "dispatch_drops=%lld p50_ms=%.4f p999_ms=%.4f consumed_bytes=%lld "
              "deadline_misses=%lld periods=%lld user_frac=%.6f events=%lld "
              "samples_beyond_p999=%lld\n",
              static_cast<long long>(o.offered), static_cast<long long>(o.injected),
              static_cast<long long>(o.served), static_cast<long long>(o.listen_drops),
              static_cast<long long>(o.dispatch_drops), o.latency_p50_ms, o.latency_p999_ms,
              static_cast<long long>(o.consumed_bytes), static_cast<long long>(o.deadline_misses),
              static_cast<long long>(o.reservation_periods), o.user_frac,
              static_cast<long long>(o.events), static_cast<long long>(o.served / 1000));
}

// Requests served in the simulation: web and cluster requests, or the server
// farm's producer items delivered to consumers.
double Requests(Workload w, const Outcome& o) {
  return static_cast<double>(w == Workload::kServerFarm ? o.consumed_items : o.served);
}

// The simulated service quality the paper is about. drop_frac and the latencies
// apply to web_farm and cluster16, deadline_miss_frac to server_farm; each reads 0
// where it does not apply, which is why they are per-layer metrics, not end-to-end.
std::vector<Metric> ServiceQuality(const Outcome& o) {
  const auto drops = static_cast<double>(o.listen_drops + o.dispatch_drops);
  return {
      {"drop_frac", Ratio(drops, static_cast<double>(o.offered)), "ratio"},
      {"latency_p50_ms", o.latency_p50_ms, "ms"},
      {"latency_p999_ms", o.latency_p999_ms, "ms"},
      {"served", static_cast<double>(o.served), "count"},
      {"deadline_miss_frac",
       Ratio(static_cast<double>(o.deadline_misses), static_cast<double>(o.reservation_periods)),
       "ratio"},
  };
}

int EndToEnd(const Args& args) {
  std::vector<RunRecord> runs;
  CpuRotation cpus;
  const int repetitions = Repetitions(args, 1.0, kMinRuns);
  while (static_cast<int>(runs.size()) < repetitions) {
    cpus.PinNext();
    runs.push_back(RunOnce(args, nullptr));
    if (!(runs.front().outcome == runs.back().outcome)) {
      throw std::runtime_error("two runs of one seed produced different simulations");
    }
  }
  const Outcome& o = runs.front().outcome;
  PrintOutcome(args, o);

  // Host throughputs come from the fastest run. The work of every run is the same
  // (one seed), and on a shared host neighbours' load only ever slows a run (by up
  // to 2x on a shared 4-vCPU VM), so the fastest run is the most repeatable
  // measure of the simulator itself. The median is printed alongside.
  std::vector<double> run_s, setup;
  for (const RunRecord& r : runs) {
    run_s.push_back(r.run_s);
    setup.push_back(r.setup_s);
    std::printf("run: setup_s=%.4f (generate %.4f, build %.4f) run_s=%.4f\n", r.setup_s,
                r.setup.generate_s, r.setup.build_s, r.run_s);
  }
  const double best_run_s = *std::min_element(run_s.begin(), run_s.end());
  const double horizon_s = DefaultHorizon(args.workload).ToSeconds();
  const double requests = Requests(args.workload, o);
  std::printf("runs=%zu best run_s=%.4f median run_s=%.4f (median sim_s_per_wall_s %.6g)\n",
              runs.size(), best_run_s, Median(run_s), horizon_s / Median(run_s));
  std::vector<Metric> metrics = {
      {"sim_s_per_wall_s", horizon_s / best_run_s, "s/s"},
      {"req_per_wall_s", requests / best_run_s, "1/s"},
      {"setup_s", Median(setup), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"user_frac", o.user_frac, "ratio"},
  };
  for (const Metric& m : ServiceQuality(o)) {
    std::printf("%-20s %.6g %s (simulated; reported with --trace 1)\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const Metric& m : metrics) {
    std::printf("%-20s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::cout << ResultJson(true, static_cast<int64_t>(runs.size()), 0, metrics) << std::endl;
  return 0;
}

int Traced(const Args& args) {
  const bool has_tracer = args.workload != Workload::kCluster16;
  LayerTracer tracer(has_tracer ? LayerTracer::Calibrate() : TracerCosts{});
  std::vector<double> overhead;
  std::vector<RunRecord> plain_runs;
  CpuRotation cpus;
  const int repetitions =
      has_tracer ? Repetitions(args, 3.0, 1) : Repetitions(args, 1.0, 2);
  do {
    cpus.PinNext();  // Both runs of a pair share a CPU.
    plain_runs.push_back(RunOnce(args, nullptr));
    if (has_tracer) {
      const RunRecord traced = RunOnce(args, &tracer);
      if (traced.outcome.machine_hashes != plain_runs.back().outcome.machine_hashes) {
        throw std::runtime_error("the traced run's trace hash differs from the untraced run's");
      }
      overhead.push_back(traced.run_s / plain_runs.back().run_s - 1.0);
    } else if (plain_runs.size() >= 2 &&
               plain_runs.back().outcome.machine_hashes !=
                   plain_runs.front().outcome.machine_hashes) {
      throw std::runtime_error("two runs of one seed produced different per-machine hashes");
    }
  } while (static_cast<int>(plain_runs.size()) < repetitions);

  const Outcome& o = plain_runs.front().outcome;
  PrintOutcome(args, o);
  const double wall = static_cast<double>(tracer.wall_ns());
  const double horizon_s = DefaultHorizon(args.workload).ToSeconds();
  const auto& pick = tracer.stats(Layer::kSchedPick);
  const auto& task = tracer.stats(Layer::kTaskRun);
  const auto& core = tracer.stats(Layer::kCoreRunOnce);
  const auto share = [&](Layer l) { return Ratio(static_cast<double>(tracer.stats(l).self_ns), wall); };
  // The tracer sums over every traced run; counts are reported per run, like the
  // simulation's own counters (every traced run repeats the same simulation).
  const auto traced_runs = static_cast<double>(overhead.size());
  const auto per_run = [&](int64_t total) { return Ratio(static_cast<double>(total), traced_runs); };
  const double traced_events = static_cast<double>(o.events) * traced_runs;
  const double ok_ops = static_cast<double>(o.queue_ops - o.queue_full_hits - o.queue_empty_hits);
  std::vector<double> generate, build;
  for (const RunRecord& r : plain_runs) {
    generate.push_back(r.setup.generate_s);
    build.push_back(r.setup.build_s);
  }

  std::vector<Metric> metrics = {
      {"sim.events", static_cast<double>(o.events), "count"},
      {"sim.events_per_sim_s", static_cast<double>(o.events) / horizon_s, "1/s"},
      {"sim.residual_share", Ratio(static_cast<double>(tracer.residual_ns()), wall), "ratio"},
      {"sim.residual_ns_per_event", Ratio(static_cast<double>(tracer.residual_ns()), traced_events),
       "ns"},
      {"sched.pick_calls", per_run(pick.calls), "count"},
      {"sched.pick_ns_p50", pick.self_hist.Percentile(50.0), "ns"},
      {"sched.pick_ns_p99", pick.self_hist.Percentile(99.0), "ns"},
      {"sched.pick_share", share(Layer::kSchedPick), "ratio"},
      {"sched.null_pick_ratio",
       Ratio(static_cast<double>(tracer.null_picks), static_cast<double>(pick.calls)), "ratio"},
      {"sched.on_tick_share", share(Layer::kSchedOnTick), "ratio"},
      {"sched.accounting_share", share(Layer::kSchedAccounting), "ratio"},
      {"sched.ticks_skipped", per_run(tracer.ticks_skipped), "count"},
      {"sched.idle_suspensions", static_cast<double>(o.idle_suspensions), "count"},
      {"sched.dispatches", static_cast<double>(o.dispatches), "count"},
      {"sched.context_switches", static_cast<double>(o.context_switches), "count"},
      {"task.run_calls", per_run(task.calls), "count"},
      {"task.run_ns_p50", task.self_hist.Percentile(50.0), "ns"},
      {"task.run_ns_p99", task.self_hist.Percentile(99.0), "ns"},
      {"task.run_share", share(Layer::kTaskRun), "ratio"},
      {"queue.push_bytes", static_cast<double>(o.queue_push_bytes), "bytes"},
      {"queue.pop_bytes", static_cast<double>(o.queue_pop_bytes), "bytes"},
      {"queue.full_hits", static_cast<double>(o.queue_full_hits), "count"},
      {"queue.empty_hits", static_cast<double>(o.queue_empty_hits), "count"},
      {"queue.push_ok_ratio", Ratio(ok_ops, ok_ops + static_cast<double>(o.queue_full_hits)),
       "ratio"},
      {"core.invocations", static_cast<double>(o.controller_invocations), "count"},
      {"core.run_once_us_p50", core.self_hist.Percentile(50.0) / 1e3, "us"},
      {"core.run_once_us_p99", core.self_hist.Percentile(99.0) / 1e3, "us"},
      {"core.share", share(Layer::kCoreRunOnce), "ratio"},
      {"core.squish_events", static_cast<double>(o.squish_events), "count"},
      {"core.quality_exceptions", static_cast<double>(o.quality_exceptions), "count"},
      {"workloads.generate_s", Median(generate), "s"},
      {"workloads.build_s", Median(build), "s"},
      {"workloads.offered", static_cast<double>(o.offered), "count"},
      {"cluster.epochs", static_cast<double>(o.cluster_epochs), "count"},
      {"cluster.epoch_fences", static_cast<double>(o.epoch_fences), "count"},
      {"cluster.rebalanced", static_cast<double>(o.rebalanced), "count"},
      {"cluster.imbalance_ratio", o.imbalance_ratio, "ratio"},
      {"trace.overhead_frac", Median(overhead), "ratio"},
      {"trace.cost_share", Ratio(static_cast<double>(tracer.tracer_ns()), wall), "ratio"},
      {"trace.span_ns", static_cast<double>(tracer.costs().SpanNs()), "ns"},
  };
  for (Metric& m : ServiceQuality(o)) {
    metrics.push_back(std::move(m));
  }
  if (has_tracer) {
    const TracerCosts& c = tracer.costs();
    std::printf("per-layer wall shares (traced wall %.3f s over %zu runs; calibrated tracer "
                "costs: read %lld ns, open %lld ns, close %lld ns):\n",
                wall / 1e9, overhead.size(), static_cast<long long>(c.read_ns),
                static_cast<long long>(c.open_ns), static_cast<long long>(c.close_ns));
    for (const Share& s : LayerShares(tracer)) {
      std::printf("  %-18s %6.2f%%\n", s.name.c_str(), 100.0 * s.share);
    }
  }
  for (const Metric& m : metrics) {
    std::printf("%-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const auto attempted = static_cast<int64_t>(plain_runs.size() + overhead.size());
  std::cout << ResultJson(true, attempted, 0, metrics) << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::ParseArgs(argc, argv);
  try {
    return args.trace ? perfbench::Traced(args) : perfbench::EndToEnd(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: output check failed: " << e.what() << "\n";
    std::cout << perfbench::ResultJson(false, 1, 1, {}) << std::endl;
    return 1;
  }
}
