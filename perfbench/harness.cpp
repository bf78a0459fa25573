// The repository benchmark's harness: runs one workload through the
// simphony library (core::Engine, as simphony_cli uses it) or the
// simphonyd daemon, checks every result document against the committed
// reference digests, and prints the metrics.
//
//   perfbench_harness --workload simulate_vgg8|sweep_bnb|serve_mix
//       --seed N --seconds S --trace 0|1
//       --digests perfbench/reference_digests.json
//       --daemon PATH/example_simphonyd [--work-dir .bench_build]
//       [--commit ID] [--record-digests FILE]
//
// perfbench/run.py builds this and calls it; perfbench/README.md lists
// the workloads and metrics.  The untraced pass (--trace 0) measures the
// end-to-end metrics.  The traced pass (--trace 1) replays each
// operation with spans (perfbench/trace.h) around the calls into every
// layer's public functions and reports per-layer self times.  The last
// stdout line is the JSON result.
#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "arch/hierarchy.h"
#include "arch/link_budget.h"
#include "core/dse.h"
#include "core/engine.h"
#include "core/fingerprint.h"
#include "core/mapper.h"
#include "core/metrics.h"
#include "core/server.h"
#include "core/simulator.h"
#include "dataflow/dataflow.h"
#include "devlib/library.h"
#include "devlib/power_model.h"
#include "energy/energy_model.h"
#include "memory/hierarchy.h"
#include "memory/traffic.h"
#include "trace.h"
#include "util/binio.h"
#include "util/hash.h"
#include "util/json.h"
#include "util/socket.h"
#include "util/thread_pool.h"
#include "workload/gemm.h"
#include "workload/model.h"
#include "workload/onn_convert.h"

extern char** environ;

namespace perfbench {
namespace {

using namespace simphony;
using util::Json;

// ------------------------------------------------------------ build guard

#if defined(__OPTIMIZE__)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif

// ------------------------------------------------------------- workloads

// Warm explores run after each cold explore in sweep_bnb.
constexpr int kWarmRepeats = 4;
// setup_s is the median of this many full set-ups.
constexpr int kSetupRepeats = 5;
// tail_ms is the highest percentile that keeps about ten samples beyond
// it in a 30 s run: p99 over ~10^4 served requests, p75 over the few
// dozen simulates or explores of the one-shot workloads.
constexpr double kServeTail = 0.99;
constexpr double kOneShotTail = 0.75;
// Closed-loop client connections of serve_mix.
constexpr int kServeClients = 3;
// serve_mix's bounded waits: a reply, and the daemon's exit after shutdown.
constexpr int kReplyTimeoutS = 60;
constexpr int kDaemonExitTimeoutS = 10;

constexpr const char* kVgg8Simulate =
    R"({"models": [{"spec": "vgg8"}], "arch": ["scatter", "mzi"],
        "mapping": "greedy", "objective": "edp"})";

std::string sweep_request_text(int threads) {
  return R"({"models": [{"spec": "vgg8"}], "arch": ["scatter", "mzi"],
             "mapping": "bnb", "objective": "edp", "num_threads": )" +
         std::to_string(threads) +
         R"(, "sweep": {"size": [8, 16, 32], "cores": [1, 2],
                        "tiles": [2, 4]}})";
}

/// One request kind of the serve_mix draw.
struct ServeKind {
  const char* name;  // digest key suffix
  const char* op;    // "simulate" | "explore"
  int percent;       // share of the draw
  const char* request;
};

const ServeKind kServeKinds[] = {
    {"gemm_greedy", "simulate", 50,
     R"({"models": [{"spec": "gemm:256x256x256"}], "arch": ["scatter", "mzi"],
         "mapping": "greedy", "num_threads": 1})"},
    {"resnet20_bnb", "simulate", 20,
     R"({"models": [{"spec": "resnet20"}], "arch": ["scatter", "mzi"],
         "mapping": "bnb", "num_threads": 1})"},
    {"mlp_explore", "explore", 15,
     R"({"models": [{"spec": "mlp"}], "arch": ["lt", "mzi"],
         "mapping": "greedy", "num_threads": 1,
         "sweep": {"tiles": [1, 2], "wavelengths": [2, 4], "cores": [1, 2]}})"},
    {"mlp_rules", "simulate", 15,
     R"({"models": [{"spec": "mlp"}], "arch": ["tempo"], "num_threads": 1})"},
};
constexpr size_t kServeKindCount = std::size(kServeKinds);
// The kind that never consults the cost cache (cold_p50_ms of serve_mix).
constexpr size_t kRulesKind = 3;

/// The seeded request draw: the daemon only ever sees these requests.
std::vector<uint8_t> draw_serve_sequence(uint64_t seed, size_t count) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> percent(0, 99);
  std::vector<uint8_t> kinds(count);
  for (uint8_t& kind : kinds) {
    int p = percent(rng);
    size_t k = 0;
    while (p >= kServeKinds[k].percent) p -= kServeKinds[k++].percent;
    kind = static_cast<uint8_t>(k);
  }
  return kinds;
}

/// The NDJSON request lines of each kind, rendered once: only the id
/// changes from one request to the next.
class ServeLines {
 public:
  ServeLines() {
    for (size_t kind = 0; kind < kServeKindCount; ++kind) {
      Json envelope;
      envelope["op"] = kServeKinds[kind].op;
      envelope["request"] = Json::parse(kServeKinds[kind].request);
      // Compact, keys sorted: {"op":...,"request":{...}}
      tails_[kind] = "," + envelope.dump(-1).substr(1);
    }
  }
  [[nodiscard]] std::string line(size_t kind, uint64_t id) const {
    return "{\"id\":" + std::to_string(id) + tails_[kind];
  }

 private:
  std::string tails_[kServeKindCount];
};

// ------------------------------------------------------------ statistics

/// Linear-interpolation quantile (numpy's default); q in [0, 1].
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

double seconds_since(int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// Peak resident set (VmHWM) of a live process, in MB.
double peak_rss_mb(pid_t pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  throw std::runtime_error("no VmHWM for pid " + std::to_string(pid));
}

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  int cpus = static_cast<int>(std::thread::hardware_concurrency());
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    cpus = std::min(cpus, CPU_COUNT(&set));
  }
  return std::max(cpus, 1);
}

// ---------------------------------------------------- reference digests

/// Digest of a result document: FNV-1a 64 over its dump(2) rendering
/// (what `simphony_cli --json` prints), without the per-request
/// "cost_cache" counters — they attribute work, they are not results,
/// and they differ between a warm and a cold engine.
std::string result_digest(const Json& document) {
  Json stripped{Json::Object{}};
  for (const auto& [key, value] : document.as_object()) {
    if (key != "cost_cache") stripped[key] = value;
  }
  const std::string text = stripped.dump(2);
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(
                    util::fnv1a_bytes(text.data(), text.size())));
  return hex;
}

/// The committed digests (or, in record mode, the ones being recorded).
class Digests {
 public:
  Digests(const std::string& path, bool recording)
      : path_(path), recording_(recording) {
    std::ifstream in(path);
    if (!in) {
      if (recording) return;
      throw std::runtime_error("cannot read reference digests " + path);
    }
    std::stringstream text;
    text << in.rdbuf();
    const Json parsed = Json::parse(text.str());
    for (const auto& [key, value] : parsed.as_object()) {
      digests_[key] = value.as_string();
    }
  }

  /// True when `document` matches the digest named `key`.  Thread-safe.
  bool check(const std::string& key, const Json& document) {
    const std::string digest = result_digest(document);
    std::lock_guard<std::mutex> lock(mutex_);
    if (recording_) {
      const auto [it, inserted] = digests_.emplace(key, digest);
      return inserted || it->second == digest;  // must be reproducible
    }
    const auto it = digests_.find(key);
    return it != digests_.end() && it->second == digest;
  }

  void save() const {
    Json out{Json::Object{}};
    for (const auto& [key, value] : digests_) out[key] = value;
    std::ofstream(path_) << out.dump(2) << "\n";
  }

 private:
  std::string path_;
  bool recording_;
  std::mutex mutex_;
  std::map<std::string, std::string> digests_;
};

// --------------------------------------------------------------- results

struct Metric {
  double value = 0.0;
  std::string unit;
  size_t samples = 0;
};

struct Outcome {
  std::map<std::string, Metric> metrics;  // the JSON result's metrics
  std::vector<std::string> report;        // human-readable lines
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void fail(const std::string& why) {
    ++failed;
    if (report.size() < 64) report.push_back("FAILED: " + why);
  }
};

std::string format_metric(const std::string& name, double value,
                          const std::string& unit, size_t samples) {
  char line[256];
  std::snprintf(line, sizeof(line), "%-34s %14.6g %-9s n=%zu", name.c_str(),
                value, unit.c_str(), samples);
  return line;
}

// ---------------------------------------------------- shared operations

/// What one Engine call did, for the traced pass.
struct CallStats {
  core::CostMatrixCache::Stats cache;
  util::ThreadPool::BulkStats pool;
  int64_t call_ns = 0;
};

util::ThreadPool::BulkStats pool_delta(const util::ThreadPool::BulkStats& a,
                                       const util::ThreadPool::BulkStats& b) {
  return {b.dispatches - a.dispatches, b.tasks - a.tasks, b.chunks - a.chunks,
          b.steals - a.steals, b.items - a.items};
}

/// The JSON-in, rendered-JSON-out edges of every Engine operation.
template <typename Request>
Request parse_request(const std::string& text) {
  Json json;
  {
    Span span("util.json.parse");
    json = Json::parse(text);
  }
  Span span("core.engine.request_parse");
  return Request::from_json(json);
}

/// Keeps results the harness computes but does not inspect observable,
/// so no timed call is optimized away.
std::atomic<double> g_sink{0.0};

template <typename Response>
Json render(const Response& response) {
  Span span("core.engine.render");
  Json document = response.to_json();
  Span dump("util.json.dump");
  g_sink.store(static_cast<double>(document.dump(2).size()),
               std::memory_order_relaxed);
  return document;
}

/// The Engine the CLI builds: synchronous evaluation, no admission pool.
core::Engine::Options cli_engine_options() {
  core::Engine::Options options;
  options.num_threads = 1;
  return options;
}

/// One `simphony_cli --json` simulate: the CLI's own request resolution,
/// a fresh Engine, the evaluation, and the rendered document.
Json simulate_like_cli(const std::string& request_text, CallStats* stats) {
  const auto request = parse_request<core::SimulateRequest>(request_text);
  {
    Span span("core.engine.resolve_models");
    (void)core::resolve_models(request);
  }
  (void)core::make_mapper(request);
  core::Engine engine(cli_engine_options());
  const auto pool_before = util::ThreadPool::global_bulk_stats();
  core::SimulateResponse response;
  {
    Span span("core.engine.call");
    response = engine.simulate(request);
    stats->call_ns = span.close();
  }
  stats->pool = pool_delta(pool_before, util::ThreadPool::global_bulk_stats());
  stats->cache = engine.cache_stats();  // fresh engine: the whole delta
  return render(response);
}

/// One explore on `engine` (cold when the engine is fresh).
Json explore_on(core::Engine& engine, const std::string& request_text,
                CallStats* stats) {
  const auto request = parse_request<core::ExploreRequest>(request_text);
  const auto cache_before = engine.cache_stats();
  const auto pool_before = util::ThreadPool::global_bulk_stats();
  core::ExploreResponse response;
  {
    Span span("core.engine.call");
    response = engine.explore(request);
    stats->call_ns = span.close();
  }
  stats->pool = pool_delta(pool_before, util::ThreadPool::global_bulk_stats());
  const auto cache_after = engine.cache_stats();
  stats->cache = {cache_after.hits - cache_before.hits,
                  cache_after.misses - cache_before.misses};
  return render(response);
}

// --------------------------------------------------- traced-pass replay

/// Replay-side caches, kept in the same cold/warm state as the engine
/// whose operation is being replayed.
struct ReplayCaches {
  core::CostMatrixCache stages;  // Simulator::build_cost_matrix replays
  core::CostMatrixCache dse;     // core::explore replays
};

struct ReplayCounts {
  double mapper_calls = 0;
  double weight_values = 0;
  int64_t lean_ns = 0;  // the stages one lean evaluation needs
};

/// The per-(sub-arch, GEMM) analysis chain Simulator::simulate_one runs,
/// one public call per span, plus the device-library weight-power scan
/// that compute_energy performs inside.
int64_t replay_pair(const arch::SubArchitecture& subarch,
                    const workload::GemmWorkload& gemm,
                    const memory::MemoryHierarchy& memory,
                    ReplayCounts& counts) {
  const int64_t start = now_ns();
  dataflow::DataflowResult mapped;
  {
    Span span("dataflow.map");
    try {
      mapped = dataflow::map_gemm(subarch, gemm, memory.glb.bandwidth_GBps);
    } catch (const std::invalid_argument&) {
      return now_ns() - start;  // an infeasible pair, as in the simulator
    }
  }
  arch::LinkBudgetReport link;
  {
    Span span("arch.link_budget");
    link = arch::analyze_link_budget(subarch, gemm.input_bits);
  }
  memory::TrafficResult traffic;
  {
    Span span("memory.traffic");
    traffic = memory::analyze_traffic(subarch, gemm, mapped, memory);
  }
  {
    Span span("energy.compute");
    const energy::EnergyBreakdown energy = energy::compute_energy(
        subarch, gemm, mapped, link, &traffic, energy::EnergyOptions{});
    g_sink.store(energy.total_pJ(), std::memory_order_relaxed);
  }
  if (gemm.weights != nullptr && gemm.weights->numel() > 0) {
    Span span("devlib.weight_power");
    for (const arch::MaterializedInstance& group : subarch.groups()) {
      if (group.count == 0 || group.spec->role != arch::Role::kWeightCell ||
          group.spec->device == "pcm_cell") {
        continue;
      }
      const devlib::DeviceParams& device =
          subarch.library().get(group.spec->device);
      const double p_pi = device.prop_or("p_pi_mW", device.static_power_mW);
      const auto model = devlib::make_phase_shifter_power(
          p_pi, devlib::PowerFidelity::kTabulated);
      g_sink.store(model->mean_power_mW(
                       std::span<const float>(gemm.weights->data())),
                   std::memory_order_relaxed);
      counts.weight_values += static_cast<double>(gemm.weights->numel());
    }
  }
  return now_ns() - start;
}

/// Replays one evaluation of `base` at each of `points` through the
/// layers' public functions: workload build, quantize, extract and
/// fingerprint once; then per point the architecture, the memory sizing,
/// and either the cost matrix plus the mapping search (costed mappings)
/// or the rule-routed per-GEMM chain.  Pairs the cost matrix misses are
/// replayed pair by pair as well.  An explore additionally runs
/// core::explore itself and the Pareto marking.
void replay_evaluation(const core::SimulateRequest& base,
                       const core::ExploreRequest* explore, bool resolve,
                       ReplayCaches& caches, const devlib::DeviceLibrary& lib,
                       ReplayCounts& counts) {
  if (resolve) {
    Span span("core.engine.resolve_models");
    (void)core::resolve_models(base);
  }
  // Workload side (core::resolve_models, one call per stage).
  workload::Model model;
  std::vector<workload::GemmWorkload> gemms;
  {
    Span span("workload.build");
    model = workload::model_from_spec(base.models.at(0).spec);
    for (auto& layer : model.layers) {
      layer.input_bits = base.params.input_bits;
      layer.weight_bits = base.params.weight_bits;
      layer.output_bits = base.params.output_bits;
    }
    counts.lean_ns += span.close();
  }
  {
    Span span("workload.quantize");
    (void)workload::convert_model_in_place(model);
    counts.lean_ns += span.close();
  }
  {
    Span span("workload.extract");
    gemms = workload::extract_gemms(model);
    counts.lean_ns += span.close();
  }
  {
    // Not counted as lean: the public build_cost_matrix overload below
    // hashes the weights again itself.
    Span span("core.fingerprint");
    for (const workload::GemmWorkload& gemm : gemms) {
      g_sink.store(static_cast<double>(core::gemm_fingerprint(gemm)),
                   std::memory_order_relaxed);
    }
  }

  const std::unique_ptr<core::Mapper> mapper = core::make_mapper(base);
  const bool costed = mapper != nullptr && mapper->needs_costs();
  const std::vector<arch::ArchParams> points =
      explore != nullptr ? core::resolve_points(*explore)
                         : std::vector<arch::ArchParams>{base.params};
  for (const arch::ArchParams& params : points) {
    std::unique_ptr<core::Simulator> simulator;
    {
      Span span("arch.build");
      const std::vector<arch::PtcTemplate> templates =
          core::resolve_templates(base);
      arch::Architecture system(core::arch_label(base));
      for (const arch::PtcTemplate& ptc : templates) {
        system.add_subarch(arch::SubArchitecture(ptc, params, lib));
      }
      core::SimulationOptions options;
      options.cost_cache = costed ? &caches.stages : nullptr;
      simulator =
          std::make_unique<core::Simulator>(std::move(system), options);
      counts.lean_ns += span.close();
    }
    const arch::Architecture& system = simulator->architecture();
    std::vector<const arch::SubArchitecture*> subarchs;
    for (size_t s = 0; s < system.subarch_count(); ++s) {
      subarchs.push_back(&system.subarch(s));
    }
    memory::MemoryHierarchy memory;
    {
      Span span("memory.size");
      memory = memory::build_memory_hierarchy(subarchs, gemms);
      counts.lean_ns += span.close();
    }
    if (costed) {
      const auto before = caches.stages.stats();
      std::optional<core::CostMatrix> costs;
      {
        Span span("core.cost_matrix");
        costs.emplace(simulator->build_cost_matrix(gemms));
        counts.lean_ns += span.close();
      }
      if (caches.stages.stats().misses != before.misses) {
        for (const workload::GemmWorkload& gemm : gemms) {
          for (const arch::SubArchitecture* subarch : subarchs) {
            (void)replay_pair(*subarch, gemm, memory, counts);
          }
        }
      }
      Span span("core.mapper.map");
      const core::Mapping mapping =
          mapper->map(core::MappingProblem{&gemms, &*costs, subarchs.size()});
      g_sink.store(mapping.predicted_cost, std::memory_order_relaxed);
      counts.mapper_calls += 1;
      counts.lean_ns += span.close();
    } else {
      // Rules routing: the simulator runs the chain on sub-arch 0 only,
      // so these pairs are the lean evaluation itself.
      const core::RuleMapper rules((core::MappingConfig(0)));
      {
        Span span("core.mapper.map");
        const core::Mapping mapping =
            rules.map(core::MappingProblem{&gemms, nullptr, subarchs.size()});
        g_sink.store(static_cast<double>(mapping.assignment.size()),
                     std::memory_order_relaxed);
        counts.mapper_calls += 1;
        counts.lean_ns += span.close();
      }
      for (const workload::GemmWorkload& gemm : gemms) {
        counts.lean_ns += replay_pair(*subarchs.front(), gemm, memory, counts);
      }
    }
  }

  if (explore != nullptr) {
    const core::ObjectiveSpec objective =
        core::ObjectiveSpec::parse(base.objective);
    core::DseOptions options;
    options.num_threads = base.num_threads;
    options.cache = explore->dse_cache;
    options.objective = objective;
    options.mapper = mapper.get();
    if (costed) options.cost_cache = &caches.dse;
    core::DseSpace space = explore->space;
    space.base = base.params;
    core::DseResult result;
    {
      Span span("core.dse.explore");
      result = core::explore(core::resolve_templates(base), lib, model, space,
                             options);
    }
    Span span("core.dse.pareto");
    core::mark_pareto_frontier(result.points);
  }
}

/// Accumulates the traced pass's counters across operations.
struct TraceCounters {
  std::mutex mutex;
  std::map<std::string, double> sums;
  double cold_hits = 0, cold_lookups = 0, warm_hits = 0, warm_lookups = 0;
  int64_t unattributed_ns = 0;

  void add_call(const CallStats& call, const ReplayCounts& replay,
                bool cold) {
    std::lock_guard<std::mutex> lock(mutex);
    const double hits = static_cast<double>(call.cache.hits);
    const double lookups = hits + static_cast<double>(call.cache.misses);
    sums["core.cost_cache.hits"] += hits;
    sums["core.cost_cache.misses"] += static_cast<double>(call.cache.misses);
    (cold ? cold_hits : warm_hits) += hits;
    (cold ? cold_lookups : warm_lookups) += lookups;
    sums["util.thread_pool.dispatches"] +=
        static_cast<double>(call.pool.dispatches);
    sums["util.thread_pool.tasks"] += static_cast<double>(call.pool.tasks);
    sums["util.thread_pool.steals"] += static_cast<double>(call.pool.steals);
    sums["core.mapper.calls"] += replay.mapper_calls;
    sums["devlib.weight_values"] += replay.weight_values;
    unattributed_ns += call.call_ns - replay.lean_ns;
  }
};

// ------------------------------------------------------- per-layer report

/// The per-layer metrics, in BENCHMARK.json order.  Span-timed metrics
/// are self times summed per operation; "root" ones are means per call.
struct LayerMetric {
  const char* name;
  const char* unit;
  const char* span;  // nullptr: a counter
  double scale;      // ns -> unit
  bool root = false;
};

const LayerMetric kLayerMetrics[] = {
    {"workload.build_ms", "ms", "workload.build", 1e-6},
    {"workload.quantize_ms", "ms", "workload.quantize", 1e-6},
    {"workload.extract_ms", "ms", "workload.extract", 1e-6},
    {"arch.build_ms", "ms", "arch.build", 1e-6},
    {"arch.link_budget_ms", "ms", "arch.link_budget", 1e-6},
    {"memory.size_ms", "ms", "memory.size", 1e-6},
    {"memory.traffic_ms", "ms", "memory.traffic", 1e-6},
    {"dataflow.map_ms", "ms", "dataflow.map", 1e-6},
    {"energy.compute_ms", "ms", "energy.compute", 1e-6},
    {"devlib.weight_power_ms", "ms", "devlib.weight_power", 1e-6},
    {"devlib.weight_values", "count", nullptr, 1},
    {"core.fingerprint_ms", "ms", "core.fingerprint", 1e-6},
    {"core.cost_matrix_ms", "ms", "core.cost_matrix", 1e-6},
    {"core.cost_cache.hits", "count", nullptr, 1},
    {"core.cost_cache.misses", "count", nullptr, 1},
    {"core.cost_cache.hit_ratio", "ratio", nullptr, 1},
    {"core.cost_cache.cold_hit_ratio", "ratio", nullptr, 1},
    {"core.cost_cache.warm_hit_ratio", "ratio", nullptr, 1},
    {"core.mapper.map_us", "us", "core.mapper.map", 1e-3},
    {"core.mapper.calls", "count", nullptr, 1},
    {"core.dse.explore_ms", "ms", "core.dse.explore", 1e-6},
    {"core.dse.pareto_us", "us", "core.dse.pareto", 1e-3},
    {"core.engine.resolve_models_ms", "ms", "core.engine.resolve_models",
     1e-6},
    {"core.engine.call_ms", "ms", "core.engine.call", 1e-6},
    {"core.engine.unattributed_ms", "ms", nullptr, 1e-6},
    {"core.engine.request_parse_us", "us", "core.engine.request_parse", 1e-3},
    {"core.engine.render_us", "us", "core.engine.render", 1e-3},
    {"core.engine.submit_wait_ms", "ms", "core.engine.submit_wait", 1e-6},
    {"core.engine.coalesced", "count", nullptr, 1},
    {"core.engine.rejected", "count", nullptr, 1},
    {"core.engine.coalesce_ratio", "ratio", nullptr, 1},
    {"core.server.handle_us", "us", "core.server.handle", 1e-3, true},
    {"core.server.ping_us", "us", "core.server.ping", 1e-3, true},
    {"util.thread_pool.dispatches", "count", nullptr, 1},
    {"util.thread_pool.tasks", "count", nullptr, 1},
    {"util.thread_pool.steals", "count", nullptr, 1},
    {"util.json.parse_us", "us", "util.json.parse", 1e-3},
    {"util.json.dump_us", "us", "util.json.dump", 1e-3},
    {"trace.coverage", "ratio", nullptr, 1},
};

/// Turns the recorded spans and counters into the per-layer metrics and
/// writes the trace file (Chrome trace-event JSON).
void finish_trace(const Tracer& tracer, TraceCounters& counters,
                  const std::map<std::string, double>& extra,
                  const std::string& trace_path, Outcome& out) {
  const std::vector<SpanRecord> spans = tracer.spans();
  const TraceSummary summary = summarize(spans);
  const double ops = std::max<double>(1.0, static_cast<double>(summary.ops));

  std::map<std::string, double> values = extra;
  for (const auto& [name, sum] : counters.sums) values[name] = sum / ops;
  values["core.cost_cache.hit_ratio"] =
      (counters.cold_lookups + counters.warm_lookups) > 0
          ? (counters.cold_hits + counters.warm_hits) /
                (counters.cold_lookups + counters.warm_lookups)
          : 0.0;
  values["core.cost_cache.cold_hit_ratio"] =
      counters.cold_lookups > 0 ? counters.cold_hits / counters.cold_lookups
                                : 0.0;
  values["core.cost_cache.warm_hit_ratio"] =
      counters.warm_lookups > 0 ? counters.warm_hits / counters.warm_lookups
                                : 0.0;
  values["core.engine.unattributed_ms"] =
      static_cast<double>(counters.unattributed_ns) / ops;
  values["trace.coverage"] =
      summary.op_ns > 0 ? 1.0 - summary.op_self_ns / summary.op_ns : 0.0;

  for (const LayerMetric& m : kLayerMetrics) {
    double value = 0.0;
    if (m.span == nullptr) {
      const auto it = values.find(m.name);
      if (it != values.end()) value = it->second * m.scale;
    } else if (m.root) {
      const auto it = summary.root_ns.find(m.span);
      if (it != summary.root_ns.end()) {
        value = it->second.first / static_cast<double>(it->second.second) *
                m.scale;
      }
    } else {
      const auto it = summary.self_ns.find(m.span);
      if (it != summary.self_ns.end()) value = it->second / ops * m.scale;
      // render_us covers to_json plus the dump nested inside it.
      if (std::string(m.span) == "core.engine.render") {
        const auto dump = summary.self_ns.find("util.json.dump");
        if (dump != summary.self_ns.end()) value += dump->second / ops * m.scale;
      }
    }
    out.metrics[m.name] = Metric{value, m.unit, summary.ops};
  }

  // The stages with the largest self time: over every span, and over
  // the layer stages alone (the Engine calls are opaque to the replay).
  for (const bool layers_only : {false, true}) {
    std::string top;
    double top_ns = -1.0;
    for (const auto& [name, ns] : summary.self_ns) {
      if (layers_only && (name == "core.engine.call" ||
                          name == "core.engine.submit_wait")) {
        continue;
      }
      if (ns > top_ns) {
        top = name;
        top_ns = ns;
      }
    }
    char line[256];
    std::snprintf(line, sizeof(line),
                  "largest self time%s: %s (%.3f ms/op, %.1f%% of traced "
                  "time)",
                  layers_only ? " among layer stages" : "", top.c_str(),
                  top_ns / ops * 1e-6,
                  summary.op_ns > 0 ? 100.0 * top_ns / summary.op_ns : 0.0);
    out.report.push_back(line);
  }
  out.report.push_back(std::to_string(summary.ops) + " traced operations, " +
                       std::to_string(spans.size()) + " spans");

  Json events{Json::Array{}};
  for (const SpanRecord& s : spans) {
    Json event;
    event["name"] = s.name;
    event["ph"] = "X";
    event["ts"] = static_cast<double>(s.start_ns) * 1e-3;
    event["dur"] = static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
    event["pid"] = 1;
    event["tid"] = static_cast<double>(s.thread);
    Json args;
    args["id"] = static_cast<double>(s.id);
    args["parent"] = static_cast<double>(s.parent);
    args["request"] = static_cast<double>(s.request);
    event["args"] = std::move(args);
    events.push_back(std::move(event));
  }
  Json trace;
  trace["traceEvents"] = std::move(events);
  std::ofstream(trace_path) << trace.dump(-1) << "\n";
  out.report.push_back("trace written to " + trace_path);
}

// --------------------------------------------------------- simulate_vgg8

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string digests = "perfbench/reference_digests.json";
  std::string record_digests;
  std::string daemon;
  std::string work_dir = ".bench_build";
  std::string commit = "unknown";
};

Outcome run_simulate_vgg8(const Options& opt, Digests& digests) {
  Outcome out;
  // Set-up: read the request, build a fresh Engine, and check one
  // result against the committed digest — what stands between starting
  // the benchmark and its first timed simulate.
  std::vector<double> setup_s;
  for (int k = 0; k < kSetupRepeats; ++k) {
    const int64_t start = now_ns();
    CallStats stats;
    const Json document = simulate_like_cli(kVgg8Simulate, &stats);
    ++out.attempted;
    if (!digests.check("simulate_vgg8", document)) {
      out.fail("simulate_vgg8 set-up result differs from its digest");
    }
    setup_s.push_back(seconds_since(start));
  }

  std::vector<double> latency_ms;
  Tracer tracer;
  TraceCounters counters;
  const devlib::DeviceLibrary lib = devlib::DeviceLibrary::standard();
  const auto request =
      core::SimulateRequest::from_json(Json::parse(kVgg8Simulate));
  if (opt.trace) g_tracer = &tracer;
  const int64_t start = now_ns();
  const int64_t deadline = start + static_cast<int64_t>(opt.seconds * 1e9);
  do {
    ++out.attempted;
    try {
      Operation op(out.attempted);
      CallStats stats;
      const int64_t t0 = now_ns();
      const Json document = simulate_like_cli(kVgg8Simulate, &stats);
      latency_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
      if (!digests.check("simulate_vgg8", document)) {
        out.fail("simulate_vgg8 result differs from its digest");
      }
      if (opt.trace) {
        ReplayCaches caches;  // a fresh engine: cold replay
        ReplayCounts replay;
        replay_evaluation(request, nullptr, /*resolve=*/false, caches, lib,
                          replay);
        counters.add_call(stats, replay, /*cold=*/true);
      }
    } catch (const std::exception& error) {
      out.fail(std::string("simulate_vgg8: ") + error.what());
    }
  } while (now_ns() < deadline);
  const double elapsed = seconds_since(start);
  g_tracer = nullptr;

  if (opt.trace) {
    finish_trace(tracer, counters, {},
                 opt.work_dir + "/trace-simulate_vgg8.json", out);
    return out;
  }
  const size_t n = latency_ms.size();
  out.metrics["setup_s"] = {median(setup_s), "s", setup_s.size()};
  out.metrics["latency_p50_ms"] = {median(latency_ms), "ms", n};
  out.metrics["tail_ms"] = {quantile(latency_ms, kOneShotTail), "ms", n};
  out.metrics["cold_p50_ms"] = {median(latency_ms), "ms", n};
  out.metrics["throughput_per_s"] = {static_cast<double>(n) / elapsed, "1/s",
                                     n};
  out.metrics["peak_rss_mb"] = {peak_rss_mb(getpid()), "MB", 1};
  out.report.push_back(format_metric("simulate_ms", median(latency_ms), "ms",
                                     n));
  return out;
}

// ------------------------------------------------------------- sweep_bnb

Outcome run_sweep_bnb(const Options& opt, Digests& digests) {
  Outcome out;
  const int threads = std::min(4, online_cpus());
  const std::string request_text = sweep_request_text(threads);
  const auto request =
      core::ExploreRequest::from_json(Json::parse(request_text));
  const size_t points = core::resolve_points(request).size();

  // Set-up: a fresh Engine and one cold explore checked against the
  // committed digest.
  std::vector<double> setup_s;
  for (int k = 0; k < kSetupRepeats; ++k) {
    const int64_t start = now_ns();
    core::Engine engine(cli_engine_options());
    CallStats stats;
    ++out.attempted;
    if (!digests.check("sweep_bnb", explore_on(engine, request_text,
                                               &stats))) {
      out.fail("sweep_bnb set-up result differs from its digest");
    }
    setup_s.push_back(seconds_since(start));
  }

  std::vector<double> cold_ms;
  std::vector<double> warm_ms;
  Tracer tracer;
  TraceCounters counters;
  const devlib::DeviceLibrary lib = devlib::DeviceLibrary::standard();
  if (opt.trace) g_tracer = &tracer;
  const int64_t start = now_ns();
  const int64_t deadline = start + static_cast<int64_t>(opt.seconds * 1e9);
  do {
    // One cold explore on a fresh Engine (cost-cache writes), then warm
    // repeats of the same request on it (cost-cache reads).
    std::unique_ptr<core::Engine> engine;
    ReplayCaches caches;
    for (int i = 0; i <= kWarmRepeats; ++i) {
      const bool cold = i == 0;
      ++out.attempted;
      try {
        Operation op(out.attempted);
        CallStats stats;
        const int64_t t0 = now_ns();
        if (cold) engine = std::make_unique<core::Engine>(cli_engine_options());
        const Json document = explore_on(*engine, request_text, &stats);
        (cold ? cold_ms : warm_ms)
            .push_back(static_cast<double>(now_ns() - t0) * 1e-6);
        if (!digests.check("sweep_bnb", document)) {
          out.fail("sweep_bnb result differs from its digest");
        }
        if (opt.trace) {
          ReplayCounts replay;
          replay_evaluation(request.base, &request, /*resolve=*/true, caches,
                            lib, replay);
          counters.add_call(stats, replay, cold);
        }
      } catch (const std::exception& error) {
        out.fail(std::string("sweep_bnb: ") + error.what());
        break;
      }
    }
  } while (now_ns() < deadline);
  const double elapsed = seconds_since(start);
  g_tracer = nullptr;

  if (opt.trace) {
    finish_trace(tracer, counters, {}, opt.work_dir + "/trace-sweep_bnb.json",
                 out);
    return out;
  }
  const double explores = static_cast<double>(cold_ms.size() + warm_ms.size());
  const double p = static_cast<double>(points);
  out.metrics["setup_s"] = {median(setup_s), "s", setup_s.size()};
  out.metrics["latency_p50_ms"] = {median(warm_ms), "ms", warm_ms.size()};
  out.metrics["tail_ms"] = {quantile(warm_ms, kOneShotTail), "ms", warm_ms.size()};
  out.metrics["cold_p50_ms"] = {median(cold_ms), "ms", cold_ms.size()};
  out.metrics["throughput_per_s"] = {p * explores / elapsed, "1/s",
                                     static_cast<size_t>(explores)};
  out.metrics["peak_rss_mb"] = {peak_rss_mb(getpid()), "MB", 1};
  out.report.push_back(format_metric("sweep_cold_points_per_s",
                                     p / (median(cold_ms) * 1e-3), "points/s",
                                     cold_ms.size()));
  out.report.push_back(format_metric("sweep_warm_points_per_s",
                                     p / (median(warm_ms) * 1e-3), "points/s",
                                     warm_ms.size()));
  out.report.push_back("explore threads: " + std::to_string(threads) +
                       ", points per explore: " + std::to_string(points));
  return out;
}

// ------------------------------------------------------------- serve_mix

/// One NDJSON connection with a bounded wait for each reply.
class Client {
 public:
  explicit Client(const util::SocketAddress& address)
      : socket_(util::Socket::connect(address)), channel_(socket_, socket_) {
    timeval timeout{kReplyTimeoutS, 0};
    setsockopt(socket_.fd(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
               sizeof(timeout));
  }
  Client(const Client&) = delete;  // channel_ points at socket_
  Client& operator=(const Client&) = delete;

  /// Sends one line and returns the reply line (no request asks for
  /// progress events); throws on a transport error, a timeout, or end
  /// of stream.
  std::string round_trip(const std::string& line) {
    channel_.write_line(line);
    std::string reply;
    if (!channel_.read_line(&reply)) {
      throw std::runtime_error("connection closed before the reply");
    }
    return reply;
  }

 private:
  util::Socket socket_;
  util::LineChannel channel_;
};

bool status_ok(const std::string& reply) {
  return Json::parse(reply).at("status").as_string() == "ok";
}

/// Checks replies against the digests.  The server renders compact JSON
/// with sorted keys, so an ok reply ends with its "result" object and
/// the status; a reply whose result bytes equal the last verified reply
/// of its kind is verified without parsing it again.  One per client
/// thread.
class ReplyChecker {
 public:
  explicit ReplyChecker(Digests& digests) : digests_(&digests) {}

  /// "" when the reply is ok and its result matches the digest, else
  /// what is wrong with it.
  std::string check(const std::string& reply, size_t kind) {
    static const std::string kKey = "\"result\":";
    static const std::string kEnd = ",\"status\":\"ok\"}";
    const size_t at = reply.find(kKey);
    if (at != std::string::npos && reply.size() >= at + kKey.size() + kEnd.size() &&
        reply.compare(reply.size() - kEnd.size(), kEnd.size(), kEnd) == 0) {
      const size_t begin = at + kKey.size();
      const std::string_view result(reply.data() + begin,
                                    reply.size() - kEnd.size() - begin);
      if (result == verified_[kind]) return "";
      if (digests_->check(std::string("serve_mix.") + kServeKinds[kind].name,
                          Json::parse(std::string(result)))) {
        verified_[kind] = result;
        return "";
      }
      return std::string(kServeKinds[kind].name) +
             ": result differs from its digest";
    }
    const Json parsed = Json::parse(reply);
    return std::string(kServeKinds[kind].name) + ": status " +
           parsed.at("status").as_string() +
           (parsed.contains("error") ? " (" + parsed.at("error").as_string() + ")"
                                     : "");
  }

 private:
  Digests* digests_;
  std::string verified_[kServeKindCount];
};

/// A simphonyd child process, stopped by a shutdown op with a bounded
/// wait, and killed if it does not exit in time.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::string& listen,
         const std::string& log_path) {
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO,
                                     log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
    const std::string threads = std::to_string(kServeClients);
    std::vector<std::string> args = {binary,    "--listen", listen,
                                     "--threads", threads,  "--poll",
                                     "50"};
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      throw std::runtime_error("cannot start " + binary + ": " +
                               std::strerror(rc));
    }
  }
  ~Daemon() {
    if (pid_ > 0) kill_and_reap();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] pid_t pid() const { return pid_; }

  /// Polls until the daemon answers a ping.
  void wait_ready(const util::SocketAddress& address) {
    const int64_t deadline = now_ns() + 30'000'000'000LL;
    while (true) {
      try {
        Client probe(address);
        if (status_ok(probe.round_trip(R"({"op":"ping"})"))) return;
      } catch (const std::exception&) {
        // not listening yet
      }
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("simphonyd exited during start-up");
      }
      if (now_ns() > deadline) {
        throw std::runtime_error("simphonyd did not start listening");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  /// Sends the shutdown op (every client connection must already be
  /// closed) and waits a bounded time for the exit.  Returns "" on a
  /// clean exit, else what went wrong — the daemon is then killed.
  std::string stop(const util::SocketAddress& address) {
    std::string problem;
    try {
      Client control(address);
      if (!status_ok(control.round_trip(R"({"op":"shutdown"})"))) {
        problem = "shutdown op refused";
      }
    } catch (const std::exception& error) {
      problem = std::string("shutdown op failed: ") + error.what();
    }
    const int64_t deadline =
        now_ns() + kDaemonExitTimeoutS * 1'000'000'000LL;
    while (now_ns() < deadline) {
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        if (problem.empty() && !(WIFEXITED(status) && WEXITSTATUS(status) == 0)) {
          problem = "simphonyd exited abnormally";
        }
        return problem;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    kill_and_reap();
    return "simphonyd still running 10 s after shutdown; killed";
  }

 private:
  void kill_and_reap() {
    ::kill(pid_, SIGKILL);
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
  }

  pid_t pid_ = -1;
};

Outcome run_serve_mix(const Options& opt, Digests& digests) {
  Outcome out;
  const ServeLines lines;
  const std::string listen =
      "unix:" + opt.work_dir + "/serve-" + std::to_string(getpid()) + ".sock";
  const util::SocketAddress address = util::SocketAddress::parse(listen);
  const std::string log_path = opt.work_dir + "/simphonyd.log";
  const std::vector<uint8_t> sequence = draw_serve_sequence(opt.seed, 1 << 20);

  // Set-up: start the daemon, wait for it to listen, and warm its cost
  // cache with one request of every kind, each checked against its
  // digest.  Repeated; all but the last daemon are stopped again.
  std::vector<double> setup_s;
  std::unique_ptr<Daemon> daemon;
  for (int k = 0; k < kSetupRepeats; ++k) {
    if (daemon != nullptr) {
      ++out.attempted;
      const std::string problem = daemon->stop(address);
      if (!problem.empty()) out.fail(problem);
      daemon.reset();
    }
    const int64_t start = now_ns();
    daemon = std::make_unique<Daemon>(opt.daemon, listen, log_path);
    daemon->wait_ready(address);
    Client client(address);
    ReplyChecker checker(digests);
    for (size_t kind = 0; kind < kServeKindCount; ++kind) {
      ++out.attempted;
      try {
        const std::string problem =
            checker.check(client.round_trip(lines.line(kind, kind)), kind);
        if (!problem.empty()) out.fail(problem);
      } catch (const std::exception& error) {
        out.fail(std::string("warm-up: ") + error.what());
      }
    }
    setup_s.push_back(seconds_since(start));
  }

  // Timed phase: closed-loop clients, each sending its next request
  // only after the previous reply arrived.
  struct Sample {
    double ms;
    uint8_t kind;
  };
  std::vector<std::vector<Sample>> samples(kServeClients);
  std::vector<uint64_t> failures(kServeClients, 0);
  std::vector<std::string> problems(kServeClients);
  std::atomic<size_t> next{0};
  const int64_t start = now_ns();
  const int64_t deadline = start + static_cast<int64_t>(opt.seconds * 1e9);
  std::vector<std::thread> clients;
  for (int c = 0; c < kServeClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        Client client(address);
        ReplyChecker checker(digests);
        while (now_ns() < deadline) {
          const size_t n = next.fetch_add(1);
          const size_t kind = sequence[n % sequence.size()];
          const std::string line = lines.line(kind, n);
          const int64_t t0 = now_ns();
          const std::string reply = client.round_trip(line);
          const double ms = static_cast<double>(now_ns() - t0) * 1e-6;
          const std::string problem = checker.check(reply, kind);
          if (problem.empty()) {
            samples[c].push_back({ms, static_cast<uint8_t>(kind)});
          } else {
            ++failures[c];
            problems[c] = problem;
          }
        }
      } catch (const std::exception& error) {
        // A transport error or a reply timeout ends this client.
        ++failures[c];
        problems[c] = std::string("client: ") + error.what();
      }
      // The connection is closed here, before the shutdown op below.
    });
  }
  for (std::thread& client : clients) client.join();
  const double elapsed = seconds_since(start);

  std::vector<double> all_ms;
  std::vector<double> rules_ms;
  for (int c = 0; c < kServeClients; ++c) {
    for (const Sample& s : samples[c]) {
      all_ms.push_back(s.ms);
      if (s.kind == kRulesKind) rules_ms.push_back(s.ms);
    }
    out.attempted += samples[c].size() + failures[c];
    for (uint64_t f = 0; f < failures[c]; ++f) out.fail(problems[c]);
  }
  const double rss = peak_rss_mb(daemon->pid());
  ++out.attempted;
  const std::string problem = daemon->stop(address);
  if (!problem.empty()) out.fail(problem);
  daemon.reset();

  const size_t n = all_ms.size();
  out.metrics["setup_s"] = {median(setup_s), "s", setup_s.size()};
  out.metrics["latency_p50_ms"] = {median(all_ms), "ms", n};
  out.metrics["tail_ms"] = {quantile(all_ms, kServeTail), "ms", n};
  out.metrics["cold_p50_ms"] = {median(rules_ms), "ms", rules_ms.size()};
  out.metrics["throughput_per_s"] = {static_cast<double>(n) / elapsed, "1/s",
                                     n};
  out.metrics["peak_rss_mb"] = {rss, "MB", 1};
  out.report.push_back(format_metric("serve_p50_ms", median(all_ms), "ms", n));
  out.report.push_back(
      format_metric("serve_p99_ms", quantile(all_ms, kServeTail), "ms", n));
  out.report.push_back(format_metric("serve_rps", static_cast<double>(n) /
                                                      elapsed, "req/s", n));
  return out;
}

/// The traced serve_mix pass: an in-process Engine behind a Server on a
/// Unix socket.  Three threads replay the seeded draw through the
/// Engine's admission queue (submit, wait, render) with the layer
/// replay; then single calls probe the protocol core over memory
/// streams and a ping round trip over the socket.
Outcome run_serve_mix_traced(const Options& opt, Digests& digests) {
  Outcome out;
  const ServeLines lines;
  const std::vector<uint8_t> sequence = draw_serve_sequence(opt.seed, 1 << 20);
  const devlib::DeviceLibrary lib = devlib::DeviceLibrary::standard();
  const std::string listen =
      "unix:" + opt.work_dir + "/trace-" + std::to_string(getpid()) + ".sock";

  core::Engine::Options engine_options;
  engine_options.num_threads = kServeClients;
  core::Engine engine(engine_options);
  core::Server server(engine, util::SocketAddress::parse(listen));
  // Stops and joins the accept loop on every way out of this function.
  struct Serving {
    core::Server& server;
    std::thread thread;
    ~Serving() {
      server.request_stop();
      thread.join();
    }
  } serving{server, std::thread([&server] {
              try {
                server.serve();
              } catch (const std::exception& error) {
                std::cerr << "perfbench: server: " << error.what() << "\n";
              }
            })};

  struct KindRequests {
    core::SimulateRequest base;
    std::optional<core::ExploreRequest> explore;
  };
  std::vector<KindRequests> kinds;
  ReplayCaches caches;
  for (size_t kind = 0; kind < kServeKindCount; ++kind) {
    const Json request = Json::parse(kServeKinds[kind].request);
    KindRequests k;
    if (std::string(kServeKinds[kind].op) == "explore") {
      k.explore = core::ExploreRequest::from_json(request);
      k.base = k.explore->base;
    } else {
      k.base = core::SimulateRequest::from_json(request);
    }
    // Warm the engine's cache and the replay caches (untraced).
    ReplayCounts ignored;
    replay_evaluation(k.base, k.explore ? &*k.explore : nullptr, true, caches,
                      lib, ignored);
    const Json document = k.explore ? engine.explore(*k.explore).to_json()
                                    : engine.simulate(k.base).to_json();
    ++out.attempted;
    if (!digests.check(std::string("serve_mix.") + kServeKinds[kind].name,
                       document)) {
      out.fail(std::string(kServeKinds[kind].name) +
               ": warm-up result differs from its digest");
    }
    kinds.push_back(std::move(k));
  }

  Tracer tracer;
  TraceCounters counters;
  g_tracer = &tracer;
  const core::Engine::Counters before = engine.counters();
  std::atomic<size_t> next{0};
  std::atomic<uint64_t> attempted{0};
  std::mutex failures_mutex;
  const int64_t deadline =
      now_ns() + static_cast<int64_t>(opt.seconds * 1e9);
  std::vector<std::thread> threads;
  for (int c = 0; c < kServeClients; ++c) {
    threads.emplace_back([&, c] {
      set_trace_thread(static_cast<uint64_t>(c) + 1);
      while (now_ns() < deadline) {
        const size_t n = next.fetch_add(1);
        const size_t kind = sequence[n % sequence.size()];
        const KindRequests& k = kinds[kind];
        const std::string line = lines.line(kind, n);
        attempted.fetch_add(1);
        try {
          Operation op(n + 1);
          Json envelope;
          {
            Span span("util.json.parse");
            envelope = Json::parse(line);
          }
          core::Engine::Admission admission;
          {
            Span wait("core.engine.submit_wait");
            if (k.explore) {
              const core::ExploreRequest request = [&] {
                Span span("core.engine.request_parse");
                return core::ExploreRequest::from_json(envelope.at("request"));
              }();
              admission = engine.submit(request);
            } else {
              const core::SimulateRequest request = [&] {
                Span span("core.engine.request_parse");
                return core::SimulateRequest::from_json(envelope.at("request"));
              }();
              admission = engine.submit(request);
            }
            if (!admission.accepted) throw std::runtime_error("busy");
            admission.outcome.wait();
          }
          const core::Engine::Outcome& outcome = admission.outcome.get();
          if (!outcome.ok) throw std::runtime_error(outcome.error);
          {
            Span span("core.engine.render");
            Json response;
            response["status"] = "ok";
            response["id"] = envelope.at("id");
            response["result"] = outcome.document;
            Span dump("util.json.dump");
            (void)response.dump(-1);
          }
          if (!digests.check(std::string("serve_mix.") + kServeKinds[kind].name,
                             outcome.document)) {
            throw std::runtime_error(std::string(kServeKinds[kind].name) +
                                     ": result differs from its digest");
          }
          // The same request through the synchronous path, timed as the
          // Engine call, then the layer replay at the warm cache state.
          CallStats stats;
          stats.cache = outcome.cache;
          const auto pool_before = util::ThreadPool::global_bulk_stats();
          {
            Span span("core.engine.call");
            if (k.explore) {
              (void)engine.explore(*k.explore);
            } else {
              (void)engine.simulate(k.base);
            }
            stats.call_ns = span.close();
          }
          stats.pool =
              pool_delta(pool_before, util::ThreadPool::global_bulk_stats());
          ReplayCounts replay;
          replay_evaluation(k.base, k.explore ? &*k.explore : nullptr, true,
                            caches, lib, replay);
          counters.add_call(stats, replay, /*cold=*/false);
        } catch (const std::exception& error) {
          std::lock_guard<std::mutex> lock(failures_mutex);
          out.fail(error.what());
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  out.attempted += attempted.load();
  const core::Engine::Counters after = engine.counters();

  // Probes: the protocol core over memory streams, and a ping over the
  // socket (transport plus protocol, no work).
  for (int repeat = 0; repeat < 3; ++repeat) {
    for (size_t kind = 0; kind < kServeKindCount; ++kind) {
      util::MemoryInputStream in(lines.line(kind, kind) + "\n");
      std::string written;
      util::MemoryOutputStream output(written);
      Span span("core.server.handle");
      (void)server.handle_connection(in, output);
    }
  }
  {
    Client client(util::SocketAddress::parse(listen));
    for (int i = 0; i < 200; ++i) {
      Span span("core.server.ping");
      (void)client.round_trip(R"({"op":"ping"})");
    }
  }
  g_tracer = nullptr;

  const double accepted = static_cast<double>(after.accepted - before.accepted);
  const double coalesced =
      static_cast<double>(after.coalesced - before.coalesced);
  std::map<std::string, double> extra;
  extra["core.engine.coalesced"] = coalesced;
  extra["core.engine.rejected"] =
      static_cast<double>(after.rejected - before.rejected);
  extra["core.engine.coalesce_ratio"] =
      accepted + coalesced > 0 ? coalesced / (accepted + coalesced) : 0.0;
  finish_trace(tracer, counters, extra, opt.work_dir + "/trace-serve_mix.json",
               out);
  return out;
}

// ------------------------------------------------------------------ main

std::string json_escape(const std::string& text) {
  return Json(text).dump(-1);
}

int run(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") opt.workload = value;
    else if (flag == "--seed") opt.seed = std::stoull(value);
    else if (flag == "--seconds") opt.seconds = std::stod(value);
    else if (flag == "--trace") opt.trace = value == "1";
    else if (flag == "--digests") opt.digests = value;
    else if (flag == "--record-digests") opt.record_digests = value;
    else if (flag == "--daemon") opt.daemon = value;
    else if (flag == "--work-dir") opt.work_dir = value;
    else if (flag == "--commit") opt.commit = value;
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (!kOptimized || kSanitized) {
    std::cerr << "perfbench: refusing to time a build that is not optimized "
                 "or that uses sanitizers\n";
    return 3;
  }
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (build_type != "Release" && build_type != "RelWithDebInfo") {
    std::cerr << "perfbench: refusing build type '" << build_type
              << "' (need Release or RelWithDebInfo)\n";
    return 3;
  }
  if (!(opt.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");

  const bool recording = !opt.record_digests.empty();
  Digests digests(recording ? opt.record_digests : opt.digests, recording);

  std::cout << "stamp {\"workload\": " << json_escape(opt.workload)
            << ", \"seed\": " << opt.seed << ", \"trace\": " << opt.trace
            << ", \"nproc\": " << online_cpus()
            << ", \"compiler\": " << json_escape(__VERSION__)
            << ", \"build_type\": " << json_escape(build_type)
            << ", \"commit\": " << json_escape(opt.commit) << "}\n";

  Outcome out;
  if (opt.workload == "simulate_vgg8") {
    out = run_simulate_vgg8(opt, digests);
  } else if (opt.workload == "sweep_bnb") {
    out = run_sweep_bnb(opt, digests);
  } else if (opt.workload == "serve_mix") {
    if (opt.daemon.empty()) throw std::invalid_argument("serve_mix needs --daemon");
    out = opt.trace ? run_serve_mix_traced(opt, digests)
                    : run_serve_mix(opt, digests);
  } else {
    throw std::invalid_argument("unknown workload '" + opt.workload + "'");
  }
  if (recording) digests.save();

  out.report.push_back(format_metric(
      "fail_ratio",
      static_cast<double>(out.failed) /
          static_cast<double>(std::max<uint64_t>(out.attempted, 1)),
      "ratio", out.attempted));
  for (const auto& [name, metric] : out.metrics) {
    std::cout << format_metric(name, metric.value, metric.unit,
                               metric.samples)
              << "\n";
  }
  for (const std::string& line : out.report) std::cout << line << "\n";

  Json metrics{Json::Object{}};
  for (const auto& [name, metric] : out.metrics) {
    Json m;
    m["value"] = metric.value;
    m["unit"] = metric.unit;
    metrics[name] = std::move(m);
  }
  Json result;
  result["correct"] = out.failed == 0;
  result["attempted"] = static_cast<double>(out.attempted);
  result["failed"] = static_cast<double>(out.failed);
  result["metrics"] = std::move(metrics);
  std::cout << result.dump(-1) << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 2;
  }
}
