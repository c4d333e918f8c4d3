#include "farms.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "cluster/cluster.h"
#include "cluster/cluster_farm.h"
#include "cluster/router.h"
#include "layer_trace.h"
#include "workloads/arrivals.h"
#include "workloads/misc_work.h"
#include "workloads/producer_consumer.h"
#include "workloads/web_farm.h"

namespace perfbench {

using realrate::ArrivalConfig;
using realrate::BoundedBuffer;
using realrate::ClusterFarmParams;
using realrate::CpuUse;
using realrate::Duration;
using realrate::FeedbackAllocator;
using realrate::Machine;
using realrate::QueueRegistry;
using realrate::QueueRole;
using realrate::RequestRecord;
using realrate::SampleSet;
using realrate::ServerFarmParams;
using realrate::SimThread;
using realrate::Simulator;
using realrate::System;
using realrate::SystemConfig;
using realrate::ThreadRegistry;
using realrate::TimePoint;
using realrate::WebFarmInstance;
using realrate::WebFarmParams;

namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

[[noreturn]] void Fail(const std::string& what) { throw std::runtime_error(what); }

// Offered load as a share of the capacity the CPUs saturate at: near enough to
// capacity that queues, drops and the tail matter. The single-machine farm runs
// at 0.8x because from about 0.85x up it is bistable: per seed it settles into a
// regime with ~3% or ~30% listen drops and keeps it for the whole horizon, which
// would make the host metrics measure the seed rather than the simulator (at
// 0.8x about one seed in twelve still settles a few percent lower). The
// 16-machine cluster averages its nodes and stays in one regime at 0.9x.
constexpr double kWebFarmLoad = 0.8;
constexpr double kClusterLoad = 0.9;

// See CheckStreamCoverage.
constexpr double kCoverageGaps = 30.0;

// The server farm's producer periods, as in RunServerFarmScenario (scenarios.cc).
constexpr int64_t kPeriodSpreadMs[] = {5, 8, 10, 12, 16, 20, 25, 32, 40};

SystemConfig StackConfig(int num_cpus, double clock_hz) {
  SystemConfig config;
  config.num_cpus = num_cpus;
  config.cpu.clock_hz = clock_hz;
  return config;
}

realrate::WebFarmBuild FarmBuild(const WebFarmParams& params, std::vector<RequestRecord> records) {
  realrate::WebFarmBuild build;
  build.tag = "web";
  build.num_workers = params.num_workers;
  build.num_acceptors = params.num_acceptors;
  build.accept_cycles = params.accept_cycles;
  build.listen_queue_bytes = params.listen_queue_bytes;
  build.worker_queue_bytes = params.worker_queue_bytes;
  build.clock_hz = params.clock_hz;
  build.records = std::move(records);
  return build;
}

double UserFraction(Simulator& sim, Duration horizon) {
  const auto per_core = static_cast<double>(sim.cpu().DurationToCycles(horizon));
  return static_cast<double>(sim.UsedAllCpus(CpuUse::kUser)) / (per_core * sim.num_cpus());
}

// Simulator-, machine-, controller- and queue-layer counters of one machine,
// added into `o`, and the machine's trace hash appended.
void AddMachineCounts(Simulator& sim, Machine& machine, FeedbackAllocator& controller,
                      QueueRegistry& queues, Outcome& o) {
  o.events += static_cast<int64_t>(sim.events_processed());
  o.dispatches += machine.dispatches();
  o.context_switches += machine.context_switches();
  o.idle_suspensions += machine.idle_suspensions();
  o.epoch_fences += machine.epoch_fences();
  o.controller_invocations += controller.invocations();
  o.squish_events += controller.squish_events();
  o.quality_exceptions += controller.quality_exceptions();
  for (const BoundedBuffer* q : queues.AllQueues()) {
    o.queue_push_bytes += q->total_pushed();
    o.queue_pop_bytes += q->total_popped();
    o.queue_full_hits += q->full_hits();
    o.queue_empty_hits += q->empty_hits();
    o.queue_ops += static_cast<int64_t>(q->change_epoch());
  }
  o.machine_hashes.push_back(sim.trace().Hash());
}

void AddMachineCounts(MachineStack& stack, Outcome& o) {
  AddMachineCounts(stack.sim(), stack.machine(), stack.controller(), stack.queues(), o);
}

void HashOnlyTrace(Simulator& sim) {
  sim.trace().SetEnabled(true);
  sim.trace().SetHashOnly(true);
}

void SetLatencies(const SampleSet& latencies, Outcome& o) {
  if (!latencies.empty()) {
    o.latency_p50_ms = latencies.Percentile(50.0) * 1e3;
    o.latency_p999_ms = latencies.Percentile(99.9) * 1e3;
  }
}

// --- web_farm ------------------------------------------------------------------------

class WebFarmRig final : public Rig {
 public:
  WebFarmRig(uint64_t seed, Duration horizon, LayerTracer* tracer, SetupTimes* times)
      : params_(WebFarmParamsFor(seed, horizon)), tracer_(tracer) {
    auto t0 = std::chrono::steady_clock::now();
    std::vector<RequestRecord> records = GenerateCheckedStream(params_.arrivals, horizon);
    offered_ = static_cast<int64_t>(records.size());
    times->generate_s = SecondsSince(t0);

    t0 = std::chrono::steady_clock::now();
    stack_ = std::make_unique<MachineStack>(StackConfig(params_.num_cpus, params_.clock_hz), tracer);
    HashOnlyTrace(stack_->sim());
    farm_ = realrate::BuildWebFarm(FarmBuild(params_, std::move(records)), stack_->sim(),
                                   stack_->threads(), stack_->queues(), stack_->machine(),
                                   &stack_->controller());
    stack_->Start();
    times->build_s = SecondsSince(t0);
  }

  void Run() override {
    if (tracer_ != nullptr) {
      tracer_->StartRun();
    }
    stack_->RunFor(params_.run_for);
    if (tracer_ != nullptr) {
      tracer_->StopRun();
    }
  }

  Outcome Harvest() override {
    Outcome o;
    o.offered = offered_;
    o.injected = farm_->injector->injected();
    o.listen_drops = farm_->listen_drops;
    o.dispatch_drops = farm_->dispatch_drops();
    o.served = farm_->served();
    SetLatencies(farm_->latencies, o);
    o.user_frac = UserFraction(stack_->sim(), params_.run_for);
    AddMachineCounts(*stack_, o);
    return o;
  }

 private:
  WebFarmParams params_;
  LayerTracer* tracer_;
  int64_t offered_ = 0;
  std::unique_ptr<MachineStack> stack_;
  std::unique_ptr<WebFarmInstance> farm_;
};

// --- server_farm ---------------------------------------------------------------------

class ServerFarmRig final : public Rig {
 public:
  ServerFarmRig(Duration horizon, LayerTracer* tracer, SetupTimes* times)
      : params_(ServerFarmParamsFor(horizon)), tracer_(tracer) {
    const auto t0 = std::chrono::steady_clock::now();
    stack_ = std::make_unique<MachineStack>(StackConfig(params_.num_cpus, params_.clock_hz), tracer);
    HashOnlyTrace(stack_->sim());
    // The wiring of RunServerFarmScenario, step for step: the trace hash of this
    // rig is pinned to the scenario's by the benchmark's tests.
    constexpr size_t kSpread = std::size(kPeriodSpreadMs);
    for (int i = 0; i < params_.num_pipelines; ++i) {
      const std::string tag = std::to_string(i);
      BoundedBuffer* queue = stack_->CreateQueue("farm" + tag, params_.queue_bytes);
      SimThread* producer = stack_->Spawn(
          "producer" + tag,
          std::make_unique<realrate::ProducerWork>(queue, params_.producer_cycles_per_item,
                                                   realrate::RateSchedule(params_.bytes_per_item)));
      SimThread* consumer = stack_->Spawn(
          "consumer" + tag,
          std::make_unique<realrate::ConsumerWork>(queue, params_.consumer_cycles_per_byte));
      stack_->queues().Register(queue, producer->id(), QueueRole::kProducer);
      stack_->queues().Register(queue, consumer->id(), QueueRole::kConsumer);
      const Duration period = Duration::Millis(kPeriodSpreadMs[static_cast<size_t>(i) % kSpread]);
      if (stack_->controller().AddRealTime(producer, params_.producer_proportion, period)) {
        ++admitted_;
      }
      stack_->controller().AddRealRate(consumer);
      producers_.push_back({producer, period});
      consumers_.push_back(consumer);
    }
    for (int i = 0; i < params_.num_hogs; ++i) {
      SimThread* hog =
          stack_->Spawn("hog" + std::to_string(i), std::make_unique<realrate::CpuHogWork>());
      stack_->controller().AddMiscellaneous(hog);
    }
    stack_->Start();
    times->generate_s = 0.0;
    times->build_s = SecondsSince(t0);
  }

  void Run() override {
    if (tracer_ != nullptr) {
      tracer_->StartRun();
    }
    stack_->RunFor(params_.run_for);
    if (tracer_ != nullptr) {
      tracer_->StopRun();
    }
  }

  Outcome Harvest() override {
    Outcome o;
    o.producers = params_.num_pipelines;
    o.producers_admitted = admitted_;
    for (const SimThread* consumer : consumers_) {
      o.consumed_bytes += consumer->progress_units();
    }
    o.consumed_items =
        static_cast<int64_t>(static_cast<double>(o.consumed_bytes) / params_.bytes_per_item);
    for (const auto& [producer, period] : producers_) {
      o.deadline_misses += producer->deadline_misses();
      o.reservation_periods += params_.run_for / period;
    }
    o.user_frac = UserFraction(stack_->sim(), params_.run_for);
    AddMachineCounts(*stack_, o);
    return o;
  }

 private:
  struct Producer {
    const SimThread* thread;
    Duration period;
  };
  ServerFarmParams params_;
  LayerTracer* tracer_;
  int admitted_ = 0;
  std::unique_ptr<MachineStack> stack_;
  std::vector<Producer> producers_;
  std::vector<const SimThread*> consumers_;
};

// --- cluster16 -----------------------------------------------------------------------

// RunClusterFarmScenario's router and rebalancer, rebuilt on the public Cluster so
// that set-up is timed apart from the run and every node's counters can be read.
// The per-machine trace hashes are pinned to the scenario's by the benchmark's
// tests; keep the two in step.
class Cluster16Rig final : public Rig {
 public:
  Cluster16Rig(uint64_t seed, Duration horizon, SetupTimes* times)
      : params_(Cluster16ParamsFor(seed, horizon)),
        router_(params_.router, params_.num_machines),
        clamp_bytes_(std::min(params_.farm.listen_queue_bytes, params_.farm.worker_queue_bytes)) {
    auto t0 = std::chrono::steady_clock::now();
    records_ = GenerateCheckedStream(params_.farm.arrivals, horizon);
    times->generate_s = SecondsSince(t0);

    t0 = std::chrono::steady_clock::now();
    realrate::ClusterConfig config;
    config.num_machines = params_.num_machines;
    config.node = StackConfig(params_.farm.num_cpus, params_.farm.clock_hz);
    config.epoch = params_.epoch;
    cluster_ = std::make_unique<realrate::Cluster>(config);
    for (int m = 0; m < params_.num_machines; ++m) {
      System& node = cluster_->node(m);
      HashOnlyTrace(node.sim());
      // M > 1: the router feeds each node epoch by epoch, so nodes start empty.
      farms_.push_back(realrate::BuildWebFarm(FarmBuild(params_.farm, {}), node.sim(),
                                              node.threads(), node.queues(), node.machine(),
                                              &node.controller()));
    }
    const Duration epoch = params_.epoch;
    rebalance_every_ = std::max<int64_t>(
        1, (params_.rebalance_interval + epoch - Duration::Nanos(1)) / epoch);
    cluster_->SetEpochHook([this](TimePoint epoch_start) { OnEpoch(epoch_start); });
    cluster_->Start();
    times->build_s = SecondsSince(t0);
  }

  void Run() override { cluster_->RunFor(params_.farm.run_for); }

  Outcome Harvest() override {
    Outcome o;
    o.offered = static_cast<int64_t>(records_.size());
    SampleSet latencies;
    int64_t max_served = 0;
    double user = 0.0;
    for (int m = 0; m < params_.num_machines; ++m) {
      WebFarmInstance& farm = *farms_[static_cast<size_t>(m)];
      o.listen_drops += farm.listen_drops;
      o.dispatch_drops += farm.dispatch_drops();
      const int64_t served = farm.served();
      o.served += served;
      max_served = std::max(max_served, served);
      for (double s : farm.latencies.samples()) {
        latencies.Add(s);
      }
      System& node = cluster_->node(m);
      user += UserFraction(node.sim(), params_.farm.run_for);
      AddMachineCounts(node.sim(), node.machine(), node.controller(), node.queues(), o);
    }
    for (const auto& injector : injectors_) {
      o.injected += injector->injected();
    }
    SetLatencies(latencies, o);
    o.user_frac = user / params_.num_machines;
    o.cluster_epochs = cluster_->epochs();
    o.rebalanced = rebalanced_;
    o.imbalance_ratio = o.served > 0 ? static_cast<double>(max_served) * params_.num_machines /
                                           static_cast<double>(o.served)
                                     : 1.0;
    return o;
  }

 private:
  void Rebalance() {
    const int machines = params_.num_machines;
    int donor = 0;
    int recipient = 0;
    for (int m = 1; m < machines; ++m) {
      const size_t backlog = farms_[static_cast<size_t>(m)]->listen.meta.size();
      if (backlog > farms_[static_cast<size_t>(donor)]->listen.meta.size()) {
        donor = m;
      }
      if (backlog < farms_[static_cast<size_t>(recipient)]->listen.meta.size()) {
        recipient = m;
      }
    }
    auto& from = farms_[static_cast<size_t>(donor)]->listen;
    auto& to = farms_[static_cast<size_t>(recipient)]->listen;
    int moves = 0;
    while (moves < params_.rebalance_max_moves &&
           from.meta.size() > static_cast<size_t>(params_.rebalance_threshold *
                                                  static_cast<double>(to.meta.size() + 1)) &&
           to.buffer->fill() + from.meta.back().bytes <= to.buffer->capacity()) {
      const realrate::PendingRequest moved = from.meta.back();
      from.meta.pop_back();
      if (!from.buffer->TryPopExact(moved.bytes) || !to.buffer->TryPush(moved.bytes)) {
        Fail("cluster16: rebalancer move failed");
      }
      to.meta.push_back(moved);
      ++moves;
    }
    rebalanced_ += moves;
  }

  void OnEpoch(TimePoint epoch_start) {
    const int machines = params_.num_machines;
    if (epoch_index_ > 0 && epoch_index_ % rebalance_every_ == 0) {
      Rebalance();
    }
    std::vector<realrate::MachineSignals> signals(static_cast<size_t>(machines));
    for (int m = 0; m < machines; ++m) {
      signals[static_cast<size_t>(m)] = {cluster_->SpareSignal(m), cluster_->PressureSignal(m)};
    }
    router_.UpdateSignals(signals);

    const Duration horizon = params_.farm.run_for;
    const Duration remaining = horizon - (epoch_start - TimePoint::Origin());
    const Duration step = remaining < params_.epoch ? remaining : params_.epoch;
    const Duration window_end = (epoch_start + step) - TimePoint::Origin();
    std::vector<std::vector<RequestRecord>> batches(static_cast<size_t>(machines));
    while (next_record_ < records_.size() && records_[next_record_].arrival < window_end) {
      batches[static_cast<size_t>(router_.Route())].push_back(records_[next_record_]);
      ++next_record_;
    }
    for (int m = 0; m < machines; ++m) {
      auto& batch = batches[static_cast<size_t>(m)];
      if (batch.empty()) {
        continue;
      }
      WebFarmInstance* farm = farms_[static_cast<size_t>(m)].get();
      const int64_t clamp = clamp_bytes_;
      injectors_.push_back(std::make_unique<realrate::RequestInjector>(
          cluster_->node(m).sim(), std::move(batch), [farm, clamp](const RequestRecord& rec) {
            realrate::PendingRequest p;
            p.arrival = rec.arrival;
            p.bytes = std::clamp<int64_t>(rec.bytes, 1, clamp);
            p.service_cycles = rec.service_cycles;
            if (farm->listen.buffer->TryPush(p.bytes)) {
              farm->listen.meta.push_back(p);
            } else {
              ++farm->listen_drops;
            }
          }));
      injectors_.back()->Start();
    }
    ++epoch_index_;
  }

  ClusterFarmParams params_;
  realrate::FrontEndRouter router_;
  const int64_t clamp_bytes_;
  std::vector<RequestRecord> records_;
  std::unique_ptr<realrate::Cluster> cluster_;
  std::vector<std::unique_ptr<WebFarmInstance>> farms_;
  std::vector<std::unique_ptr<realrate::RequestInjector>> injectors_;
  size_t next_record_ = 0;
  int64_t epoch_index_ = 0;
  int64_t rebalance_every_ = 1;
  int64_t rebalanced_ = 0;
};

}  // namespace

// --- Names and parameters --------------------------------------------------------------

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kWebFarm:
      return "web_farm";
    case Workload::kServerFarm:
      return "server_farm";
    case Workload::kCluster16:
      return "cluster16";
  }
  return "?";
}

std::optional<Workload> ParseWorkload(std::string_view name) {
  for (Workload w : {Workload::kWebFarm, Workload::kServerFarm, Workload::kCluster16}) {
    if (name == WorkloadName(w)) {
      return w;
    }
  }
  return std::nullopt;
}

// Long enough that the open-loop farms serve over a million requests, leaving
// more than 1000 samples beyond the p99.9 latency.
Duration DefaultHorizon(Workload w) {
  switch (w) {
    case Workload::kWebFarm:
      return Duration::Seconds(100);
    case Workload::kServerFarm:
      return Duration::Seconds(10);
    case Workload::kCluster16:
      return Duration::Seconds(30);
  }
  return Duration::Seconds(1);
}

int64_t StreamCapFor(double requests_per_sec, Duration horizon) {
  const double mean = requests_per_sec * horizon.ToSeconds();
  return static_cast<int64_t>(std::ceil(mean + 10.0 * std::sqrt(mean) + 1000.0));
}

void CheckStreamCoverage(const std::vector<RequestRecord>& records, const ArrivalConfig& config,
                         Duration horizon) {
  const auto offered = static_cast<int64_t>(records.size());
  if (offered >= config.max_requests) {
    Fail("request stream truncated: offered " + std::to_string(offered) +
         " reached ArrivalConfig::max_requests");
  }
  const double mean_gap_s = 1.0 / config.requests_per_sec;
  const double last_s = records.empty() ? 0.0 : records.back().arrival.ToSeconds();
  const double shortfall_s = horizon.ToSeconds() - last_s;
  if (shortfall_s > kCoverageGaps * mean_gap_s) {
    Fail("request stream ends " + std::to_string(shortfall_s) + " s before the horizon (" +
         std::to_string(shortfall_s / mean_gap_s) + " mean gaps)");
  }
}

std::vector<RequestRecord> GenerateCheckedStream(const ArrivalConfig& config, Duration horizon) {
  std::vector<RequestRecord> records = realrate::GenerateRequests(config, horizon);
  CheckStreamCoverage(records, config, horizon);
  return records;
}

WebFarmParams WebFarmParamsFor(uint64_t seed, Duration horizon) {
  WebFarmParams params;
  params.num_cpus = 8;
  params.num_workers = 64;
  params.num_acceptors = 1;
  params.run_for = horizon;
  params.arrivals.kind = ArrivalConfig::Kind::kPoisson;
  params.arrivals.seed = seed;
  params.arrivals.requests_per_sec = kWebFarmLoad * realrate::WebFarmCapacityRps(params);
  params.arrivals.max_requests = StreamCapFor(params.arrivals.requests_per_sec, horizon);
  return params;
}

ServerFarmParams ServerFarmParamsFor(Duration horizon) {
  ServerFarmParams params;
  params.num_cpus = 4;
  params.num_pipelines = 1022;
  params.num_hogs = 4;
  params.producer_proportion = realrate::Proportion::Ppt(2);
  params.run_for = horizon;
  return params;
}

ClusterFarmParams Cluster16ParamsFor(uint64_t seed, Duration horizon) {
  ClusterFarmParams params;
  params.num_machines = 16;
  params.farm.num_cpus = 2;
  params.farm.num_workers = 4;
  params.farm.run_for = horizon;
  params.farm.arrivals.kind = ArrivalConfig::Kind::kPoisson;
  params.farm.arrivals.seed = seed;
  params.farm.arrivals.requests_per_sec = kClusterLoad * realrate::ClusterFarmCapacityRps(params);
  params.farm.arrivals.max_requests =
      StreamCapFor(params.farm.arrivals.requests_per_sec, horizon);
  return params;
}

// --- MachineStack ----------------------------------------------------------------------

struct MachineStack::Parts {
  std::unique_ptr<Simulator> sim;
  ThreadRegistry threads;
  QueueRegistry queues;
  std::vector<std::unique_ptr<realrate::RbsScheduler>> rbs;
  std::vector<std::unique_ptr<TimedScheduler>> timed;
  std::unique_ptr<Machine> machine;
  std::unique_ptr<FeedbackAllocator> controller;
};

MachineStack::MachineStack(const SystemConfig& config, LayerTracer* tracer) : tracer_(tracer) {
  if (tracer == nullptr) {
    system_ = std::make_unique<System>(config);
    return;
  }
  // System's constructor, with a TimedScheduler between the Machine and each core.
  parts_ = std::make_unique<Parts>();
  parts_->sim = std::make_unique<Simulator>(config.cpu, config.num_cpus);
  std::vector<realrate::Scheduler*> schedulers;
  for (int i = 0; i < config.num_cpus; ++i) {
    parts_->rbs.push_back(
        std::make_unique<realrate::RbsScheduler>(parts_->sim->cpu(static_cast<realrate::CpuId>(i))));
    parts_->timed.push_back(std::make_unique<TimedScheduler>(*parts_->rbs.back(), *tracer));
    schedulers.push_back(parts_->timed.back().get());
  }
  parts_->machine =
      std::make_unique<Machine>(*parts_->sim, std::move(schedulers), parts_->threads);
  parts_->controller =
      std::make_unique<FeedbackAllocator>(*parts_->machine, *parts_->rbs[0], parts_->queues);
  for (size_t i = 1; i < parts_->rbs.size(); ++i) {
    parts_->controller->WireScheduler(*parts_->rbs[i]);
  }
}

MachineStack::~MachineStack() = default;

Simulator& MachineStack::sim() { return system_ ? system_->sim() : *parts_->sim; }
ThreadRegistry& MachineStack::threads() { return system_ ? system_->threads() : parts_->threads; }
QueueRegistry& MachineStack::queues() { return system_ ? system_->queues() : parts_->queues; }
Machine& MachineStack::machine() { return system_ ? system_->machine() : *parts_->machine; }
FeedbackAllocator& MachineStack::controller() {
  return system_ ? system_->controller() : *parts_->controller;
}

BoundedBuffer* MachineStack::CreateQueue(std::string name, int64_t capacity_bytes) {
  if (system_) {
    return system_->CreateQueue(std::move(name), capacity_bytes);
  }
  BoundedBuffer* q = parts_->queues.CreateQueue(std::move(name), capacity_bytes);
  parts_->machine->Attach(q);
  return q;
}

SimThread* MachineStack::Spawn(std::string name, std::unique_ptr<realrate::WorkModel> work) {
  if (system_) {
    return system_->Spawn(std::move(name), std::move(work));
  }
  SimThread* t = parts_->threads.Create(std::move(name), std::move(work));
  parts_->machine->Attach(t);
  return t;
}

void MachineStack::Start() {
  if (system_) {
    system_->Start();
    return;
  }
  parts_->machine->Start();
  ScheduleController();
}

// FeedbackAllocator::Start's periodic event, with RunOnce timed. It is scheduled at
// the same point and re-arms the same way, so event ids, and with them the order
// of simultaneous events, match the untraced stack's.
void MachineStack::ScheduleController() {
  FeedbackAllocator& controller = *parts_->controller;
  parts_->sim->ScheduleAfter(controller.config().interval, [this, &controller] {
    tracer_->Enter(Layer::kCoreRunOnce);
    controller.RunOnce(parts_->sim->Now());
    tracer_->Exit(Layer::kCoreRunOnce);
    ScheduleController();
  });
}

// --- Rigs and checks ---------------------------------------------------------------------

std::unique_ptr<Rig> BuildRig(Workload w, uint64_t seed, Duration horizon, LayerTracer* tracer,
                              SetupTimes* times) {
  switch (w) {
    case Workload::kWebFarm:
      return std::make_unique<WebFarmRig>(seed, horizon, tracer, times);
    case Workload::kServerFarm:
      return std::make_unique<ServerFarmRig>(horizon, tracer, times);
    case Workload::kCluster16:
      if (tracer != nullptr) {
        Fail("cluster16 has no traced stack: realrate::Cluster builds its nodes itself");
      }
      return std::make_unique<Cluster16Rig>(seed, horizon, times);
  }
  Fail("unknown workload");
}

void CheckOutcome(Workload w, const Outcome& o) {
  const std::string name = WorkloadName(w);
  if (w == Workload::kServerFarm) {
    if (o.consumed_bytes <= 0) {
      Fail(name + ": consumers consumed no bytes");
    }
    if (o.producers_admitted != o.producers) {
      Fail(name + ": admitted " + std::to_string(o.producers_admitted) + " of " +
           std::to_string(o.producers) + " producers");
    }
    if (o.reservation_periods <= 0) {
      Fail(name + ": no producer reservation periods");
    }
  } else {
    if (o.served <= 0) {
      Fail(name + ": served nothing");
    }
    if (o.served + o.listen_drops + o.dispatch_drops > o.injected) {
      Fail(name + ": served + drops exceeds injected");
    }
    if (o.injected > o.offered) {
      Fail(name + ": injected exceeds offered");
    }
  }
  if (!(o.user_frac > 0.0 && o.user_frac <= 1.0)) {
    Fail(name + ": user fraction outside (0, 1]");
  }
}

}  // namespace perfbench
