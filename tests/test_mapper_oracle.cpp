// Oracle / property test layer for the mapping search subsystem
// (core/mapper.h): randomized, seeded, deterministic checks that the
// scalable strategies (branch-and-bound, beam, greedy) agree with the
// ExhaustiveMapper oracle exactly where theory says they must, and that
// the cross-point cost-matrix cache never changes a result.
//
// Most rounds run on synthetic cost matrices (direct LayerReport
// construction, no simulation) so hundreds of random workloads are
// cheap; a smaller set of end-to-end rounds goes through the Simulator
// on real templates.
#include "core/mapper.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "arch/prebuilt.h"
#include "core/dse.h"
#include "core/engine.h"
#include "core/simulator.h"
#include "devlib/power_model.h"
#include "energy/energy_model.h"
#include "util/json.h"
#include "util/rng.h"
#include "workload/onn_convert.h"

namespace simphony::core {
namespace {

devlib::DeviceLibrary g_lib = devlib::DeviceLibrary::standard();

constexpr MappingObjective kAllObjectives[] = {MappingObjective::kLatency,
                                               MappingObjective::kEnergy,
                                               MappingObjective::kEdp};

/// A synthetic mapping problem: a cost matrix with directly constructed
/// per-pair reports plus the dummy GEMM list error paths need.
struct SyntheticProblem {
  std::vector<workload::GemmWorkload> gemms;
  CostMatrix costs{0, 0};

  [[nodiscard]] MappingProblem problem() const {
    return MappingProblem{&gemms, &costs, costs.num_subarchs()};
  }
};

CostMatrix::Entry feasible_entry(double energy_pJ, double latency_ns) {
  CostMatrix::Entry entry;
  entry.feasible = true;
  entry.report.dataflow.runtime_ns = latency_ns;
  entry.report.energy.add("MAC", energy_pJ);
  return entry;
}

CostMatrix::Entry infeasible_entry(const std::string& why) {
  CostMatrix::Entry entry;
  entry.error = why;
  return entry;
}

/// Random (n x S) matrix.  `tie_heavy` draws costs from a tiny integer
/// set so equal scores (the tie-break path) occur constantly;
/// `p_infeasible` knocks out random pairs while keeping every layer
/// runnable somewhere.
SyntheticProblem random_problem(util::Rng& rng, size_t n, size_t S,
                                double p_infeasible, bool tie_heavy) {
  SyntheticProblem sp;
  sp.costs = CostMatrix(n, S);
  sp.gemms.resize(n);
  for (size_t g = 0; g < n; ++g) {
    sp.gemms[g].name = "g" + std::to_string(g);
    const size_t guaranteed =
        static_cast<size_t>(rng.uniform_int(0, static_cast<int64_t>(S) - 1));
    for (size_t s = 0; s < S; ++s) {
      if (s != guaranteed && rng.coin(p_infeasible)) {
        sp.costs.set(g, s, infeasible_entry("synthetic: pair (" +
                                            std::to_string(g) + ", " +
                                            std::to_string(s) + ")"));
        continue;
      }
      const double energy = tie_heavy
                                ? static_cast<double>(rng.uniform_int(1, 3))
                                : rng.uniform(1.0, 100.0);
      const double latency = tie_heavy
                                 ? static_cast<double>(rng.uniform_int(1, 3))
                                 : rng.uniform(1.0, 100.0);
      sp.costs.set(g, s, feasible_entry(energy, latency));
    }
  }
  return sp;
}

void expect_same_mapping(const Mapping& got, const Mapping& oracle,
                         const std::string& context) {
  EXPECT_EQ(got.assignment, oracle.assignment) << context;
  EXPECT_EQ(got.predicted_cost, oracle.predicted_cost) << context;
  EXPECT_EQ(got.predicted_energy_pJ, oracle.predicted_energy_pJ) << context;
  EXPECT_EQ(got.predicted_latency_ns, oracle.predicted_latency_ns)
      << context;
}

// ------------------------------------------------- branch-and-bound oracle

// The headline property: BranchBoundMapper equals the exhaustive oracle
// bit for bit — assignment, tie-break, and floating-point totals — on
// every objective, across 100 random workloads (half of them tie-heavy,
// half with infeasible pairs).
TEST(MapperOracle, BranchBoundMatchesExhaustiveOnRandomProblems) {
  util::Rng rng(2027);
  for (int round = 0; round < 100; ++round) {
    const size_t n = static_cast<size_t>(rng.uniform_int(1, 6));
    const size_t S = static_cast<size_t>(rng.uniform_int(1, 4));
    const double p_infeasible = round % 2 == 0 ? 0.0 : 0.3;
    const bool tie_heavy = round % 4 < 2;
    const SyntheticProblem sp =
        random_problem(rng, n, S, p_infeasible, tie_heavy);
    const MappingProblem problem = sp.problem();

    for (MappingObjective objective : kAllObjectives) {
      const Mapping oracle = ExhaustiveMapper(objective).map(problem);
      const Mapping bnb = BranchBoundMapper(objective).map(problem);
      expect_same_mapping(bnb, oracle,
                          "round=" + std::to_string(round) + " n=" +
                              std::to_string(n) + " S=" + std::to_string(S) +
                              " objective=" + to_string(objective));
    }
  }
}

TEST(MapperOracle, BranchBoundParallelBitIdenticalToSerialAndExhaustive) {
  util::Rng rng(31);
  for (int round = 0; round < 3; ++round) {
    const SyntheticProblem sp = random_problem(rng, 12, 3, 0.2,
                                               /*tie_heavy=*/round == 2);
    const MappingProblem problem = sp.problem();
    for (MappingObjective objective : kAllObjectives) {
      const Mapping oracle = ExhaustiveMapper(objective).map(problem);
      for (int threads : {1, 2, 4, 8, 0}) {
        const Mapping bnb =
            BranchBoundMapper(objective, threads).map(problem);
        expect_same_mapping(bnb, oracle,
                            "threads=" + std::to_string(threads) +
                                " objective=" + to_string(objective));
      }
    }
  }
}

// The bound has to do real work: on a problem with a clearly dominant
// sub-arch per layer, the DFS must expand a vanishing fraction of the S^n
// tree (the greedy incumbent plus exact additive bounds prune the rest).
TEST(MapperOracle, BranchBoundPrunesMostOfTheTree) {
  util::Rng rng(5);
  const size_t n = 12;
  const size_t S = 3;
  SyntheticProblem sp = random_problem(rng, n, S, 0.0, /*tie_heavy=*/false);
  for (size_t g = 0; g < n; ++g) {
    sp.costs.set(g, 0, feasible_entry(1.0, 1.0));  // dominant everywhere
  }
  const MappingProblem problem = sp.problem();

  BranchBoundMapper::Stats stats;
  const Mapping bnb = BranchBoundMapper(MappingObjective::kLatency)
                          .map_counted(problem, &stats);
  EXPECT_EQ(bnb.assignment, std::vector<size_t>(n, 0));
  EXPECT_GT(stats.visited, 0u);
  EXPECT_EQ(stats.total_assignments, std::pow(3.0, 12.0));
  // The whole tree has (S^(n+1) - 1) / (S - 1) ~ 800k nodes; the search
  // must touch a tiny fraction of it.
  EXPECT_LT(static_cast<double>(stats.visited),
            stats.total_assignments / 100.0);
}

TEST(MapperOracle, BranchBoundEmptyProblemMatchesExhaustive) {
  SyntheticProblem sp;
  sp.costs = CostMatrix(0, 2);
  const MappingProblem problem = sp.problem();
  for (MappingObjective objective : kAllObjectives) {
    expect_same_mapping(BranchBoundMapper(objective).map(problem),
                        ExhaustiveMapper(objective).map(problem), "empty");
  }
}

// ---------------------------------------------- greedy / beam properties

// Greedy's per-layer argmin is globally optimal for the additive
// objectives, including the tie-break: lowest-index per layer equals the
// lexicographically smallest optimum the oracle returns.
TEST(MapperOracle, GreedyOptimalForAdditiveObjectivesOnRandomProblems) {
  util::Rng rng(404);
  for (int round = 0; round < 100; ++round) {
    const size_t n = static_cast<size_t>(rng.uniform_int(1, 6));
    const size_t S = static_cast<size_t>(rng.uniform_int(1, 4));
    const SyntheticProblem sp =
        random_problem(rng, n, S, round % 2 == 0 ? 0.0 : 0.3,
                       /*tie_heavy=*/round % 4 < 2);
    const MappingProblem problem = sp.problem();
    for (MappingObjective objective :
         {MappingObjective::kLatency, MappingObjective::kEnergy}) {
      expect_same_mapping(GreedyMapper(objective).map(problem),
                          ExhaustiveMapper(objective).map(problem),
                          "round=" + std::to_string(round));
    }
  }
}

// Beam with width >= S^(n-1) never prunes, so it must equal the oracle on
// every objective — the PR 2 guarantee, now property-tested at scale.
TEST(MapperOracle, WideBeamMatchesExhaustiveOnRandomProblems) {
  util::Rng rng(777);
  for (int round = 0; round < 60; ++round) {
    const size_t n = static_cast<size_t>(rng.uniform_int(1, 5));
    const size_t S = static_cast<size_t>(rng.uniform_int(1, 3));
    const SyntheticProblem sp =
        random_problem(rng, n, S, round % 2 == 0 ? 0.0 : 0.3,
                       /*tie_heavy=*/round % 4 < 2);
    const MappingProblem problem = sp.problem();
    size_t width = 1;
    for (size_t i = 1; i < n; ++i) width *= S;
    for (MappingObjective objective : kAllObjectives) {
      expect_same_mapping(BeamMapper(width, objective).map(problem),
                          ExhaustiveMapper(objective).map(problem),
                          "round=" + std::to_string(round));
    }
  }
}

// ------------------------------------------------- diagnostics aggregation

// When several layers are unmappable, the thrown message must carry every
// stuck layer with its per-sub-arch diagnostics — not just the first one.
TEST(MapperOracle, UnmappableAggregatesEveryStuckLayer) {
  SyntheticProblem sp;
  sp.costs = CostMatrix(3, 2);
  sp.gemms.resize(3);
  for (size_t g = 0; g < 3; ++g) {
    sp.gemms[g].name = "layer" + std::to_string(g);
  }
  sp.costs.set(0, 0, infeasible_entry("reason-0-0"));
  sp.costs.set(0, 1, infeasible_entry("reason-0-1"));
  sp.costs.set(1, 0, feasible_entry(1.0, 1.0));
  sp.costs.set(1, 1, feasible_entry(2.0, 2.0));
  sp.costs.set(2, 0, infeasible_entry("reason-2-0"));
  sp.costs.set(2, 1, infeasible_entry("reason-2-1"));
  const MappingProblem problem = sp.problem();

  const GreedyMapper greedy;
  const BeamMapper beam(4);
  const BranchBoundMapper bnb;
  const ExhaustiveMapper exhaustive;
  for (const Mapper* mapper :
       {static_cast<const Mapper*>(&greedy),
        static_cast<const Mapper*>(&beam),
        static_cast<const Mapper*>(&bnb),
        static_cast<const Mapper*>(&exhaustive)}) {
    try {
      (void)mapper->map(problem);
      FAIL() << mapper->name() << " accepted an unmappable problem";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      for (const char* expected :
           {"no sub-architecture can run GEMM 'layer0' (layer 0)",
            "no sub-architecture can run GEMM 'layer2' (layer 2)",
            "reason-0-0", "reason-0-1", "reason-2-0", "reason-2-1"}) {
        EXPECT_NE(what.find(expected), std::string::npos)
            << mapper->name() << ": missing '" << expected << "' in\n"
            << what;
      }
      EXPECT_EQ(what.find("layer1"), std::string::npos) << mapper->name();
    }
  }
}

// --------------------------------------------------- end-to-end (Simulator)

arch::Architecture three_way_system() {
  arch::ArchParams params;
  arch::Architecture system("three-way");
  system.add_subarch(
      arch::SubArchitecture(arch::tempo_template(), params, g_lib));
  system.add_subarch(
      arch::SubArchitecture(arch::scatter_template(), params, g_lib));
  system.add_subarch(
      arch::SubArchitecture(arch::clements_mzi_template(), params, g_lib));
  return system;
}

workload::Model random_model(util::Rng& rng, size_t num_layers) {
  workload::Model model;
  model.name = "random";
  for (size_t i = 0; i < num_layers; ++i) {
    const int in = 8 << rng.uniform_int(0, 3);
    const int out = 8 << rng.uniform_int(0, 3);
    if (rng.uniform_int(0, 3) == 0) {
      model.layers.push_back(workload::make_matmul(
          "mm" + std::to_string(i), workload::LayerType::kMatMulQK, in, 16,
          out, 2));
    } else {
      util::Rng wrng(7 + i);
      model.layers.push_back(
          workload::make_linear("fc" + std::to_string(i), in, out, wrng));
    }
  }
  return model;
}

// Real simulated cost matrices (infeasible dynamic-on-mesh pairs
// included): branch-and-bound through the Simulator equals the oracle,
// and the assembled report matches its own prediction exactly.
TEST(MapperOracle, BranchBoundMatchesExhaustiveOnSimulatedModels) {
  const Simulator sim(three_way_system());
  util::Rng rng(91);
  for (int round = 0; round < 4; ++round) {
    workload::Model model =
        random_model(rng, static_cast<size_t>(rng.uniform_int(1, 5)));
    workload::convert_model_in_place(model);
    for (MappingObjective objective : kAllObjectives) {
      Mapping bnb_mapping;
      const ModelReport bnb_report = sim.simulate_model(
          model, BranchBoundMapper(objective), &bnb_mapping);
      Mapping oracle_mapping;
      (void)sim.simulate_model(model, ExhaustiveMapper(objective),
                               &oracle_mapping);
      expect_same_mapping(bnb_mapping, oracle_mapping,
                          "round=" + std::to_string(round));
      EXPECT_EQ(bnb_report.total_runtime_ns,
                bnb_mapping.predicted_latency_ns);
      // The report is assembled from the same matrix entries the search
      // scored; re-accumulating the per-layer energies in layer order
      // (the mapper's own summation order — ModelReport's category-wise
      // total is a different order and may differ by ULPs) must
      // reproduce the prediction exactly.
      double energy = 0.0;
      for (const auto& layer : bnb_report.layers) {
        energy += layer.energy_pJ();
      }
      EXPECT_EQ(energy, bnb_mapping.predicted_energy_pJ);
    }
  }
}

// ------------------------------------------------- cost-matrix cache oracle

void expect_bit_identical(const DseResult& a, const DseResult& b,
                          const std::string& context) {
  ASSERT_EQ(a.points.size(), b.points.size()) << context;
  for (size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].index, b.points[i].index) << context << " i=" << i;
    EXPECT_EQ(a.points[i].params, b.points[i].params) << context;
    EXPECT_EQ(a.points[i].energy_pJ, b.points[i].energy_pJ)
        << context << " i=" << i;
    EXPECT_EQ(a.points[i].latency_ns, b.points[i].latency_ns)
        << context << " i=" << i;
    EXPECT_EQ(a.points[i].area_mm2, b.points[i].area_mm2)
        << context << " i=" << i;
    EXPECT_EQ(a.points[i].power_W, b.points[i].power_W)
        << context << " i=" << i;
    EXPECT_EQ(a.points[i].tops, b.points[i].tops) << context << " i=" << i;
    EXPECT_EQ(a.points[i].pareto, b.points[i].pareto)
        << context << " i=" << i;
  }
  // Belt and braces: the serialized documents must agree byte for byte.
  EXPECT_EQ(to_json(a).dump(), to_json(b).dump()) << context;
}

// The cache acceptance property: explore() with a cost cache — cold or
// pre-warmed — returns results bit-identical to the uncached run, for
// every sampler and thread count, and the warm run actually hits.
TEST(MapperOracle, CachedExploreBitIdenticalForEverySamplerAndThreadCount) {
  const std::vector<arch::PtcTemplate> templates = {
      arch::scatter_template(), arch::clements_mzi_template()};
  const workload::Model model = workload::mlp_mnist();
  DseSpace space;
  space.tiles = {1, 2};
  space.wavelengths = {1, 2};

  const GreedyMapper greedy(MappingObjective::kEdp);
  const RandomSampler random_sampler(5, 3);
  const LatinHypercubeSampler lhs_sampler(5, 3);
  const std::vector<std::pair<const DseSampler*, std::string>> samplers = {
      {nullptr, "grid"},
      {&random_sampler, "random"},
      {&lhs_sampler, "lhs"}};

  for (const auto& [sampler, sampler_name] : samplers) {
    DseOptions base;
    base.mapper = &greedy;
    base.sampler = sampler;
    base.num_threads = 1;
    const DseResult uncached =
        explore(templates, g_lib, model, space, base);

    for (int threads : {1, 2, 0}) {
      CostMatrixCache cache;
      DseOptions cached_options = base;
      cached_options.num_threads = threads;
      cached_options.cost_cache = &cache;
      const std::string context =
          sampler_name + " threads=" + std::to_string(threads);

      const DseResult cold =
          explore(templates, g_lib, model, space, cached_options);
      expect_bit_identical(cold, uncached, context + " (cold)");
      EXPECT_GT(cache.stats().misses, 0u) << context;

      const DseResult warm =
          explore(templates, g_lib, model, space, cached_options);
      expect_bit_identical(warm, uncached, context + " (warm)");
      EXPECT_GT(cache.stats().hits, 0u) << context;
    }
  }
}

// A cache hit rewrites the entry's identity fields: two identically
// shaped layers share one cached simulation yet keep their own names and
// per-layer report slots.
TEST(MapperOracle, CacheHitsKeepPerLayerIdentity) {
  arch::ArchParams params;
  arch::Architecture system("lt-only");
  system.add_subarch(arch::SubArchitecture(
      arch::lightening_transformer_template(), params, g_lib));

  CostMatrixCache cache;
  SimulationOptions options;
  options.cost_cache = &cache;
  const Simulator sim(std::move(system), options);

  workload::Model model;
  model.name = "twins";
  model.layers.push_back(workload::make_matmul(
      "attn_a", workload::LayerType::kMatMulQK, 32, 16, 32, 2));
  model.layers.push_back(workload::make_matmul(
      "attn_b", workload::LayerType::kMatMulQK, 32, 16, 32, 2));

  const ModelReport report =
      sim.simulate_model(model, GreedyMapper(MappingObjective::kEdp));
  ASSERT_EQ(report.layers.size(), 2u);
  EXPECT_EQ(report.layers[0].layer_name, "attn_a");
  EXPECT_EQ(report.layers[1].layer_name, "attn_b");
  EXPECT_EQ(report.layers[0].runtime_ns(), report.layers[1].runtime_ns());
  EXPECT_EQ(report.layers[0].energy_pJ(), report.layers[1].energy_pJ());
  // The identical twin simulated once, fetched once.
  EXPECT_GT(cache.stats().hits, 0u);

  // A second Simulator over the same architecture shares the entries.
  arch::Architecture system2("lt-only");
  system2.add_subarch(arch::SubArchitecture(
      arch::lightening_transformer_template(), params, g_lib));
  const Simulator sim2(std::move(system2), options);
  const CostMatrixCache::Stats before = cache.stats();
  const ModelReport report2 =
      sim2.simulate_model(model, GreedyMapper(MappingObjective::kEdp));
  EXPECT_EQ(report2.total_runtime_ns, report.total_runtime_ns);
  EXPECT_EQ(report2.total_energy.total_pJ(),
            report.total_energy.total_pJ());
  EXPECT_GT(cache.stats().hits, before.hits);
}

// Infeasible pairs are never memoized: their diagnostics embed the
// layer's own name, so a cached copy would make the aggregated
// unmappable error cite the donor layer.  Two identically shaped
// unmappable layers must each be rejected with their *own* name, and
// the message must match the uncached run exactly.
TEST(MapperOracle, CacheNeverChangesInfeasibilityDiagnostics) {
  workload::Model model;
  model.name = "twins-unmappable";
  model.layers.push_back(workload::make_matmul(
      "attn_a", workload::LayerType::kMatMulQK, 32, 16, 32, 2));
  model.layers.push_back(workload::make_matmul(
      "attn_b", workload::LayerType::kMatMulQK, 32, 16, 32, 2));

  auto mesh_only = [] {
    arch::ArchParams params;
    arch::Architecture system("mesh-only");
    system.add_subarch(arch::SubArchitecture(arch::clements_mzi_template(),
                                             params, g_lib));
    return system;
  };

  auto thrown_message = [&](const Simulator& sim) {
    try {
      (void)sim.simulate_model(model, GreedyMapper());
      return std::string();
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
  };

  const std::string uncached = thrown_message(Simulator(mesh_only()));
  CostMatrixCache cache;
  SimulationOptions options;
  options.cost_cache = &cache;
  const std::string cached = thrown_message(
      Simulator(mesh_only(), options));

  ASSERT_FALSE(uncached.empty());
  EXPECT_EQ(cached, uncached);
  EXPECT_NE(cached.find("'attn_a' (layer 0)"), std::string::npos) << cached;
  EXPECT_NE(cached.find("'attn_b' (layer 1)"), std::string::npos) << cached;
  EXPECT_EQ(cache.size(), 0u);  // nothing feasible, nothing stored
}

// Sanity on the counters themselves: every probe is either a hit or a
// miss, clear() resets, and hit_rate() is hits / probes.
TEST(MapperOracle, CacheStatsAreConsistent) {
  CostMatrixCache cache;
  EXPECT_EQ(cache.stats().hit_rate(), 0.0);

  const CostMatrixCache::Key key{1, 2};
  EXPECT_EQ(cache.find(key), nullptr);
  (void)cache.insert(key, feasible_entry(1.0, 2.0));
  const auto entry = cache.find(key);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->report.runtime_ns(), 2.0);

  // First writer wins: a second insert under the same key is a no-op.
  (void)cache.insert(key, feasible_entry(9.0, 9.0));
  EXPECT_EQ(cache.find(key)->report.runtime_ns(), 2.0);
  EXPECT_EQ(cache.size(), 1u);

  const CostMatrixCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 2.0 / 3.0);

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
}

/// An explore document without its per-request "cost_cache" counters.
std::string explore_document(const ExploreResponse& response) {
  util::Json document = response.to_json();
  util::Json stripped{util::Json::Object{}};
  for (const auto& [key, value] : document.as_object()) {
    if (key != "cost_cache") stripped[key] = value;
  }
  return stripped.dump(2);
}

// The weight-power memo beside the cost cache: a cold sweep scans each
// GEMM's weights once for the one phase-shifter curve SCATTER and the
// Clements mesh share, and the memo never changes a result.
TEST(MapperOracle, WeightPowerMemoHoldsOneEntryPerGemmAndChangesNothing) {
  const ExploreRequest request = ExploreRequest::from_json(util::Json::parse(
      R"({"models": [{"spec": "vgg8"}], "arch": ["scatter", "mzi"],
          "mapping": "bnb", "objective": "edp", "num_threads": 2,
          "sweep": {"size": [8, 16, 32], "cores": [1, 2],
                    "tiles": [2, 4]}})"));
  ExploreRequest uncached_request = request;
  uncached_request.base.cost_cache = false;

  Engine engine;
  const ExploreResponse cold = engine.explore(request);
  ASSERT_EQ(cold.result.points.size(), 12u);
  EXPECT_GT(cold.cache.misses, 0u);

  const WorkloadSet workloads = resolve_models(request.base).workloads;
  const WorkloadSet::Entry& entry = workloads.at(0);
  std::vector<uint64_t> keys;
  for (size_t g = 0; g < entry.gemms.size(); ++g) {
    if (entry.gemms[g].weights != nullptr) {
      keys.push_back(entry.gemm_fingerprints[g]);
    }
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  ASSERT_FALSE(keys.empty());
  EXPECT_EQ(engine.cost_cache().weight_power().size(), keys.size());

  // A warm repeat is all cost-cache hits and leaves the memo alone.
  const ExploreResponse warm = engine.explore(request);
  EXPECT_EQ(warm.cache.misses, 0u);
  EXPECT_EQ(engine.cost_cache().weight_power().size(), keys.size());

  Engine uncached_engine;
  const ExploreResponse uncached = uncached_engine.explore(uncached_request);
  EXPECT_FALSE(uncached.cache_attached);
  EXPECT_EQ(uncached_engine.cost_cache().weight_power().size(), 0u);
  EXPECT_EQ(explore_document(cold), explore_document(uncached));
  EXPECT_EQ(explore_document(warm), explore_document(uncached));

  engine.cost_cache().clear();
  EXPECT_EQ(engine.cost_cache().weight_power().size(), 0u);
  EXPECT_EQ(engine.cost_cache().size(), 0u);
}

// The memo returns the scan's own value for every key, even when many
// threads ask for the same key at once, and clear() empties it.
TEST(MapperOracle, WeightPowerMemoIsExactUnderConcurrentFirstUse) {
  util::Rng rng(11);
  const workload::Tensor weights =
      workload::quantize(workload::Tensor::uniform({64, 64}, rng), 8);
  const std::span<const float> values(weights.data());
  const double p_pi = 20.0;
  const auto curve =
      devlib::make_phase_shifter_power(p_pi, devlib::PowerFidelity::kTabulated);
  const double expected = curve->mean_power_mW(values);

  energy::WeightPowerMemo memo;
  std::vector<double> seen(8, 0.0);
  {
    std::vector<std::thread> threads;
    for (size_t t = 0; t < seen.size(); ++t) {
      threads.emplace_back([&, t] {
        seen[t] = memo.mean_power_mW(42, p_pi,
                                     devlib::PowerFidelity::kTabulated, values);
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  for (double value : seen) EXPECT_EQ(value, expected);
  EXPECT_EQ(memo.size(), 1u);

  // Another fidelity or curve is another key.
  (void)memo.mean_power_mW(42, p_pi, devlib::PowerFidelity::kAnalytical,
                           values);
  (void)memo.mean_power_mW(42, 2 * p_pi, devlib::PowerFidelity::kTabulated,
                           values);
  EXPECT_EQ(memo.size(), 3u);
  memo.clear();
  EXPECT_EQ(memo.size(), 0u);
}

}  // namespace
}  // namespace simphony::core
