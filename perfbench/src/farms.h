// The benchmark's three workloads, built from the realrate library's public
// pieces so that set-up, the measured run and the result harvest can be timed
// apart, and so that the traced run can slip a timing decorator between each
// core's RbsScheduler and the Machine.
//
//   web_farm     8 cores, 64 workers + 1 acceptor, open-loop Poisson at 0.8x
//                WebFarmCapacityRps (event-queue, injector and low-occupancy
//                pick heavy; real work in set-up).
//   server_farm  4 cores, 1022 producer->consumer pipelines + 4 hogs at 2 ppt
//                (2048 threads, closed loop, no random input; indexed pick and
//                controller heavy).
//   cluster16    16 machines x 2 cores x 4 workers behind the default router and
//                rebalancer, one cluster-wide Poisson stream at 0.9x
//                ClusterFarmCapacityRps (the only workload crossing cluster/).
//
// Every rig uses the library's production defaults: no host_threads, pick-mode,
// slab, controller-mode or idle-fast-forward setting is touched here.
#ifndef PERFBENCH_FARMS_H_
#define PERFBENCH_FARMS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/cluster_farm.h"
#include "exp/scenarios.h"
#include "exp/system.h"
#include "workloads/arrivals.h"
#include "workloads/web_farm.h"

namespace perfbench {

class LayerTracer;

enum class Workload { kWebFarm, kServerFarm, kCluster16 };

const char* WorkloadName(Workload w);
std::optional<Workload> ParseWorkload(std::string_view name);

// The simulated horizon one measured run covers.
realrate::Duration DefaultHorizon(Workload w);

// --- Request streams and the stream-cap guard ---------------------------------

// ArrivalConfig::max_requests silently truncates a stream. The benchmark sizes the
// cap from horizon x rate with a wide margin (mean + 10 sigma + 1000 for Poisson).
int64_t StreamCapFor(double requests_per_sec, realrate::Duration horizon);

// Throws std::runtime_error when `records` looks truncated by the generator cap:
// offered == config.max_requests, or the last arrival falls short of `horizon`
// by more than 30 mean inter-arrival gaps of the flat rate. (A Poisson stream's
// tail gap is Exp(rate): one gap is exceeded by 37% of honest streams, 30 gaps
// by about 1e-13 of them, while a cap that binds leaves thousands of gaps.)
void CheckStreamCoverage(const std::vector<realrate::RequestRecord>& records,
                         const realrate::ArrivalConfig& config, realrate::Duration horizon);

// GenerateRequests followed by CheckStreamCoverage.
std::vector<realrate::RequestRecord> GenerateCheckedStream(const realrate::ArrivalConfig& config,
                                                           realrate::Duration horizon);

// --- Workload parameters --------------------------------------------------------

realrate::WebFarmParams WebFarmParamsFor(uint64_t seed, realrate::Duration horizon);
realrate::ServerFarmParams ServerFarmParamsFor(realrate::Duration horizon);
realrate::ClusterFarmParams Cluster16ParamsFor(uint64_t seed, realrate::Duration horizon);

// --- One machine's stack ----------------------------------------------------------

// Untraced (tracer == nullptr): a realrate::System, the library's standard
// wiring. Traced: the same pieces built by hand — one RbsScheduler per core,
// each behind a TimedScheduler — and the controller driven by this stack's own
// periodic event (timed RunOnce) instead of FeedbackAllocator::Start. Both
// produce the same trace.
class MachineStack {
 public:
  MachineStack(const realrate::SystemConfig& config, LayerTracer* tracer);
  ~MachineStack();

  MachineStack(const MachineStack&) = delete;
  MachineStack& operator=(const MachineStack&) = delete;

  realrate::Simulator& sim();
  realrate::ThreadRegistry& threads();
  realrate::QueueRegistry& queues();
  realrate::Machine& machine();
  realrate::FeedbackAllocator& controller();

  realrate::BoundedBuffer* CreateQueue(std::string name, int64_t capacity_bytes);
  realrate::SimThread* Spawn(std::string name, std::unique_ptr<realrate::WorkModel> work);

  void Start();
  void RunFor(realrate::Duration d) { machine().RunFor(d); }

 private:
  struct Parts;
  void ScheduleController();

  std::unique_ptr<realrate::System> system_;
  std::unique_ptr<Parts> parts_;
  LayerTracer* tracer_;
};

// --- Results ----------------------------------------------------------------------

// Host-independent results of one run: a pure function of (workload, seed,
// horizon). Every field repeats exactly across runs of the same inputs.
struct Outcome {
  // Requests (web_farm, cluster16).
  int64_t offered = 0;
  int64_t injected = 0;
  int64_t listen_drops = 0;
  int64_t dispatch_drops = 0;
  int64_t served = 0;
  double latency_p50_ms = 0.0;
  double latency_p999_ms = 0.0;
  // Closed-loop pipelines (server_farm).
  int producers = 0;
  int producers_admitted = 0;
  int64_t consumed_bytes = 0;
  int64_t consumed_items = 0;
  int64_t deadline_misses = 0;
  int64_t reservation_periods = 0;
  // Every workload.
  double user_frac = 0.0;
  int64_t events = 0;
  int64_t dispatches = 0;
  int64_t context_switches = 0;
  int64_t idle_suspensions = 0;
  int64_t controller_invocations = 0;
  int64_t squish_events = 0;
  int64_t quality_exceptions = 0;
  int64_t queue_push_bytes = 0;
  int64_t queue_pop_bytes = 0;
  int64_t queue_full_hits = 0;
  int64_t queue_empty_hits = 0;
  int64_t queue_ops = 0;  // Push and pop attempts (BoundedBuffer change epochs).
  // cluster16 only.
  int64_t cluster_epochs = 0;
  int64_t epoch_fences = 0;
  int64_t rebalanced = 0;
  double imbalance_ratio = 0.0;
  // One hash per machine (a single entry off the cluster).
  std::vector<uint64_t> machine_hashes;

  friend bool operator==(const Outcome&, const Outcome&) = default;
};

// Set-up wall times, seconds.
struct SetupTimes {
  double generate_s = 0.0;  // Request-stream generation (zero for server_farm).
  double build_s = 0.0;     // Construction and start.
};

// One built, started workload. Construct (that is the set-up), Run once, then
// Harvest.
class Rig {
 public:
  virtual ~Rig() = default;
  virtual void Run() = 0;
  virtual Outcome Harvest() = 0;
};

// Builds and starts `w`. `tracer` non-null builds the traced stack (web_farm and
// server_farm only; cluster16 nodes are built inside realrate::Cluster, which has
// no seam for a decorator).
std::unique_ptr<Rig> BuildRig(Workload w, uint64_t seed, realrate::Duration horizon,
                              LayerTracer* tracer, SetupTimes* times);

// Throws std::runtime_error naming the first violated output check.
void CheckOutcome(Workload w, const Outcome& o);

}  // namespace perfbench

#endif  // PERFBENCH_FARMS_H_
