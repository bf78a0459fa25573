// Batched multi-model simulation (core/workload_set.h, simulate_batch,
// the WorkloadSet explore overloads): the acceptance property is that a
// batched run of K models is bit-identical to K independent
// simulate_model calls for every mapper, objective, and thread count —
// shared CostMatrixCache included — while amortizing the architecture
// across the batch.  Also the CLI error paths (malformed flags must exit
// 1 with a diagnostic; guarded on SIMPHONY_CLI_PATH, which CMake defines
// when the example binary is built).
#include "core/workload_set.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#ifdef SIMPHONY_CLI_PATH
#include <sys/wait.h>
#endif

#include "arch/prebuilt.h"
#include "core/dse.h"
#include "core/simulator.h"
#include "workload/onn_convert.h"

namespace simphony::core {
namespace {

devlib::DeviceLibrary g_lib = devlib::DeviceLibrary::standard();

arch::Architecture scatter_mzi_system() {
  arch::ArchParams params;
  params.wavelengths = 1;
  arch::Architecture system("hetero");
  system.add_subarch(
      arch::SubArchitecture(arch::scatter_template(), params, g_lib));
  system.add_subarch(
      arch::SubArchitecture(arch::clements_mzi_template(), params, g_lib));
  return system;
}

workload::Model converted(workload::Model model) {
  workload::convert_model_in_place(model);
  return model;
}

/// Three small distinct models; weights exercise kWeighted.
WorkloadSet small_batch() {
  WorkloadSet set;
  set.add(converted(workload::mlp_mnist()), "", 2.0);
  set.add(converted(workload::single_gemm_model(64, 32, 64)), "gemm-a", 1.0);
  set.add(converted(workload::single_gemm_model(96, 48, 32)), "gemm-b", 0.5);
  return set;
}

void expect_reports_identical(const ModelReport& a, const ModelReport& b) {
  EXPECT_EQ(a.model_name, b.model_name);
  EXPECT_EQ(a.total_runtime_ns, b.total_runtime_ns);
  EXPECT_EQ(a.total_energy.total_pJ(), b.total_energy.total_pJ());
  EXPECT_EQ(a.total_area_mm2(), b.total_area_mm2());
  ASSERT_EQ(a.layers.size(), b.layers.size());
  for (size_t l = 0; l < a.layers.size(); ++l) {
    EXPECT_EQ(a.layers[l].subarch_index, b.layers[l].subarch_index);
    EXPECT_EQ(a.layers[l].runtime_ns(), b.layers[l].runtime_ns());
    EXPECT_EQ(a.layers[l].energy_pJ(), b.layers[l].energy_pJ());
  }
}

// ------------------------------------------------------------ WorkloadSet

TEST(WorkloadSet, AddExtractsGemmsOnceAndKeepsThemStable) {
  WorkloadSet set;
  const WorkloadSet::Entry& first =
      set.add(converted(workload::mlp_mnist()));
  const workload::GemmWorkload* gemm_before = first.gemms.data();
  const float weight_before = first.gemms[0].weights->data()[0];
  // Growing the set must not move earlier entries: their GemmWorkloads
  // point into the stored models.
  for (int i = 0; i < 16; ++i) {
    set.add(converted(workload::single_gemm_model(8 + i, 8, 8)),
            "g" + std::to_string(i));
  }
  EXPECT_EQ(set.at(0).gemms.data(), gemm_before);
  EXPECT_EQ(set.at(0).gemms[0].weights->data()[0], weight_before);
  EXPECT_EQ(set.size(), 17u);
  EXPECT_EQ(set.total_gemms(), 3u + 16u);
}

TEST(WorkloadSet, RejectsDuplicateNamesAndBadWeights) {
  WorkloadSet set;
  set.add(converted(workload::mlp_mnist()), "m");
  EXPECT_THROW(set.add(converted(workload::mlp_mnist()), "m"),
               std::invalid_argument);
  EXPECT_THROW(set.add(converted(workload::mlp_mnist()), "w0", 0.0),
               std::invalid_argument);
  EXPECT_THROW(set.add(converted(workload::mlp_mnist()), "wneg", -1.0),
               std::invalid_argument);
  EXPECT_THROW(set.add(converted(workload::mlp_mnist()), "wnan",
                       std::nan("")),
               std::invalid_argument);
  EXPECT_THROW((void)set.at(1), std::out_of_range);
}

TEST(WorkloadSet, ParsesJsonDocument) {
  const util::Json doc = util::Json::parse(
      R"({"models": [{"spec": "mlp", "name": "tiny", "weight": 2.5},
                     {"spec": "gemm:64x32x64"}]})");
  const WorkloadSet set = workload_set_from_json(doc);
  ASSERT_EQ(set.size(), 2u);
  EXPECT_EQ(set.at(0).name, "tiny");
  EXPECT_EQ(set.at(0).weight, 2.5);
  EXPECT_EQ(set.at(1).name, "GEMM(64x32)x(32x64)");
  EXPECT_EQ(set.at(1).weight, 1.0);
  // A bare array works too.
  EXPECT_EQ(workload_set_from_json(
                util::Json::parse(R"([{"spec": "mlp"}])"))
                .size(),
            1u);
}

TEST(WorkloadSet, JsonErrorPaths) {
  EXPECT_THROW((void)workload_set_from_json(util::Json::parse("{}")),
               std::invalid_argument);
  EXPECT_THROW((void)workload_set_from_json(util::Json::parse(
                   R"({"models": []})")),
               std::invalid_argument);
  EXPECT_THROW((void)workload_set_from_json(util::Json::parse(
                   R"({"models": [{"name": "missing-spec"}]})")),
               std::invalid_argument);
  EXPECT_THROW((void)workload_set_from_json(util::Json::parse(
                   R"({"models": [{"spec": "no-such-model"}]})")),
               std::invalid_argument);
  EXPECT_THROW((void)workload_set_from_json(util::Json::parse(
                   R"({"models": [{"spec": "mlp", "weight": -2}]})")),
               std::invalid_argument);
  // Trailing junk in a gemm spec is rejected, not truncated.
  EXPECT_THROW((void)workload::model_from_spec("gemm:64x32x64x9"),
               std::invalid_argument);
}

// ------------------------------------------------------------ aggregates

TEST(BatchAggregate, ParseAndFold) {
  EXPECT_EQ(parse_aggregate("sum"), BatchAggregate::kSum);
  EXPECT_EQ(parse_aggregate("max"), BatchAggregate::kMax);
  EXPECT_EQ(parse_aggregate("weighted"), BatchAggregate::kWeighted);
  EXPECT_FALSE(parse_aggregate("mean").has_value());

  const std::vector<double> values{3.0, 1.0, 2.0};
  const std::vector<double> weights{2.0, 1.0, 0.5};
  EXPECT_EQ(aggregate_values(BatchAggregate::kSum, values, weights), 6.0);
  EXPECT_EQ(aggregate_values(BatchAggregate::kMax, values, weights), 3.0);
  EXPECT_EQ(aggregate_values(BatchAggregate::kWeighted, values, weights),
            8.0);
  EXPECT_EQ(aggregate_values(BatchAggregate::kSum, {}, {}), 0.0);
  EXPECT_THROW(
      (void)aggregate_values(BatchAggregate::kWeighted, values, {1.0}),
      std::invalid_argument);
}

// --------------------------------------------------------- simulate_batch

TEST(SimulateBatch, BitIdenticalToIndependentRunsForEveryMapperObjectiveThreadCount) {
  const WorkloadSet set = small_batch();

  std::vector<std::unique_ptr<Mapper>> mappers;
  mappers.push_back(std::make_unique<RuleMapper>(MappingConfig(0)));
  for (const MappingObjective objective :
       {MappingObjective::kLatency, MappingObjective::kEnergy,
        MappingObjective::kEdp}) {
    mappers.push_back(std::make_unique<GreedyMapper>(objective));
    mappers.push_back(std::make_unique<BeamMapper>(4, objective));
    mappers.push_back(std::make_unique<BranchBoundMapper>(objective));
  }

  for (const auto& mapper : mappers) {
    // Independent baseline: a fresh Simulator per model, like today's
    // one-model-per-run flow.
    std::vector<ModelReport> independent;
    std::vector<Mapping> independent_mappings;
    for (size_t i = 0; i < set.size(); ++i) {
      const Simulator solo(scatter_mzi_system());
      Mapping chosen;
      ModelReport report =
          solo.simulate_model(set.at(i).model, *mapper, &chosen);
      report.model_name = set.at(i).name;  // batch labels rows by entry name
      independent.push_back(std::move(report));
      independent_mappings.push_back(std::move(chosen));
    }

    for (const int threads : {0, 1, 2, 4}) {
      const Simulator sim(scatter_mzi_system());
      BatchOptions options;
      options.num_threads = threads;
      const BatchReport batch = sim.simulate_batch(set, *mapper, options);
      ASSERT_EQ(batch.models.size(), set.size());
      for (size_t i = 0; i < set.size(); ++i) {
        SCOPED_TRACE(mapper->name() + " threads=" +
                     std::to_string(threads) + " model=" + set.at(i).name);
        expect_reports_identical(batch.models[i].report, independent[i]);
        EXPECT_EQ(batch.models[i].mapping.assignment,
                  independent_mappings[i].assignment);
        EXPECT_EQ(batch.models[i].mapping.predicted_cost,
                  independent_mappings[i].predicted_cost);
      }
    }
  }
}

TEST(SimulateBatch, SharedCostCacheIsBitIdenticalAndHitsAcrossModels) {
  // Two entries holding the SAME model (same seed, same weights): the
  // batch-wide cache must serve the second model's pairs from the first.
  WorkloadSet set;
  set.add(converted(workload::mlp_mnist()), "a");
  set.add(converted(workload::mlp_mnist()), "b");

  const GreedyMapper mapper;
  const Simulator uncached(scatter_mzi_system());
  const BatchReport plain = uncached.simulate_batch(set, mapper);

  CostMatrixCache cache;
  SimulationOptions options;
  options.cost_cache = &cache;
  const Simulator cached(scatter_mzi_system(), options);
  const BatchReport with_cache = cached.simulate_batch(set, mapper);

  for (size_t i = 0; i < set.size(); ++i) {
    expect_reports_identical(with_cache.models[i].report,
                             plain.models[i].report);
  }
  // Identical layers on identical hardware share entries, so the second
  // model is served from the first model's simulations.  Run serially:
  // two models costed concurrently may both miss the same pair.
  cache.clear();
  BatchOptions serial;
  serial.num_threads = 1;
  const BatchReport serial_batch = cached.simulate_batch(set, mapper, serial);
  for (size_t i = 0; i < set.size(); ++i) {
    expect_reports_identical(serial_batch.models[i].report,
                             plain.models[i].report);
  }
  EXPECT_GT(cache.stats().hits, 0u);
}

TEST(SimulateBatch, TotalsFollowTheAggregateMode) {
  const WorkloadSet set = small_batch();
  const Simulator sim(scatter_mzi_system());
  const BatchReport batch = sim.simulate_batch(set, GreedyMapper());

  double sum_energy = 0.0;
  double max_latency = 0.0;
  double weighted_energy = 0.0;
  double max_area = 0.0;
  for (const auto& m : batch.models) {
    sum_energy += m.report.total_energy.total_pJ();
    max_latency = std::max(max_latency, m.report.total_runtime_ns);
    weighted_energy += m.weight * m.report.total_energy.total_pJ();
    max_area = std::max(max_area, m.report.total_area_mm2());
  }
  double max_power = 0.0;
  double min_tops = std::numeric_limits<double>::infinity();
  for (const auto& m : batch.models) {
    max_power = std::max(max_power, m.report.average_power_W());
    min_tops = std::min(min_tops, m.report.tops());
  }
  const BatchReport::Totals sum = batch.totals(BatchAggregate::kSum);
  const BatchReport::Totals max = batch.totals(BatchAggregate::kMax);
  const BatchReport::Totals weighted =
      batch.totals(BatchAggregate::kWeighted);
  EXPECT_EQ(sum.energy_pJ, sum_energy);
  EXPECT_EQ(max.latency_ns, max_latency);
  EXPECT_EQ(weighted.energy_pJ, weighted_energy);
  // Area is the per-model max under every mode: one chip, not K chips.
  EXPECT_EQ(sum.area_mm2, max_area);
  EXPECT_EQ(max.area_mm2, max_area);
  EXPECT_EQ(weighted.area_mm2, max_area);
  EXPECT_GT(sum.power_W, 0.0);
  EXPECT_GT(sum.tops, 0.0);
  // kMax derived figures are per-model worst cases, not ratios of
  // independently-maxed energy and latency.
  EXPECT_EQ(max.power_W, max_power);
  EXPECT_EQ(max.tops, min_tops);
}

TEST(SimulateBatch, EmptySetIsRejected) {
  const Simulator sim(scatter_mzi_system());
  EXPECT_THROW((void)sim.simulate_batch(WorkloadSet{}, GreedyMapper()),
               std::invalid_argument);
}

// --------------------------------------------------------- batched explore

TEST(BatchedExplore, PerModelMetricsMatchSingleModelExploreBitForBit) {
  DseSpace space;
  space.wavelengths = {1, 2};
  space.tiles = {1, 2};

  const WorkloadSet set = small_batch();
  const GreedyMapper mapper;
  DseOptions options;
  options.mapper = &mapper;

  const std::vector<arch::PtcTemplate> templates{arch::scatter_template(),
                                                 arch::clements_mzi_template()};
  const DseResult batched = explore(templates, g_lib, set, space, options);

  for (size_t i = 0; i < set.size(); ++i) {
    const DseResult solo =
        explore(templates, g_lib, set.at(i).model, space, options);
    ASSERT_EQ(batched.points.size(), solo.points.size());
    for (size_t p = 0; p < solo.points.size(); ++p) {
      SCOPED_TRACE("model=" + set.at(i).name + " point=" +
                   std::to_string(p));
      ASSERT_EQ(batched.points[p].per_model.size(), set.size());
      const DseModelMetrics& m = batched.points[p].per_model[i];
      EXPECT_EQ(m.model, set.at(i).name);
      EXPECT_EQ(m.energy_pJ, solo.points[p].energy_pJ);
      EXPECT_EQ(m.latency_ns, solo.points[p].latency_ns);
      EXPECT_EQ(m.area_mm2, solo.points[p].area_mm2);
      EXPECT_EQ(m.power_W, solo.points[p].power_W);
      EXPECT_EQ(m.tops, solo.points[p].tops);
    }
  }
}

TEST(BatchedExplore, AggregateMetricsFoldPerModelRows) {
  DseSpace space;
  space.wavelengths = {1, 2};
  const WorkloadSet set = small_batch();

  for (const BatchAggregate aggregate :
       {BatchAggregate::kSum, BatchAggregate::kMax,
        BatchAggregate::kWeighted}) {
    DseOptions options;
    options.aggregate = aggregate;
    const DseResult result =
        explore(arch::tempo_template(), g_lib, set, space, options);
    for (const DsePoint& point : result.points) {
      std::vector<double> energies;
      std::vector<double> latencies;
      std::vector<double> weights;
      double max_area = 0.0;
      for (const DseModelMetrics& m : point.per_model) {
        energies.push_back(m.energy_pJ);
        latencies.push_back(m.latency_ns);
        weights.push_back(m.weight);
        max_area = std::max(max_area, m.area_mm2);
      }
      EXPECT_EQ(point.energy_pJ,
                aggregate_values(aggregate, energies, weights));
      EXPECT_EQ(point.latency_ns,
                aggregate_values(aggregate, latencies, weights));
      EXPECT_EQ(point.area_mm2, max_area);
    }
  }
}

TEST(BatchedExplore, ParallelIsBitIdenticalToSerialIncludingPerModelRows) {
  DseSpace space;
  space.wavelengths = {1, 2, 3};
  const WorkloadSet set = small_batch();
  DseOptions serial;
  serial.num_threads = 1;
  const DseResult base =
      explore(arch::tempo_template(), g_lib, set, space, serial);
  for (const int threads : {0, 4}) {
    DseOptions options;
    options.num_threads = threads;
    const DseResult result =
        explore(arch::tempo_template(), g_lib, set, space, options);
    ASSERT_EQ(result.points.size(), base.points.size());
    for (size_t p = 0; p < base.points.size(); ++p) {
      EXPECT_EQ(result.points[p].energy_pJ, base.points[p].energy_pJ);
      EXPECT_EQ(result.points[p].latency_ns, base.points[p].latency_ns);
      ASSERT_EQ(result.points[p].per_model.size(),
                base.points[p].per_model.size());
      for (size_t i = 0; i < base.points[p].per_model.size(); ++i) {
        EXPECT_EQ(result.points[p].per_model[i].energy_pJ,
                  base.points[p].per_model[i].energy_pJ);
        EXPECT_EQ(result.points[p].per_model[i].latency_ns,
                  base.points[p].per_model[i].latency_ns);
      }
    }
  }
}

TEST(BatchedExplore, PerModelRowsSurviveJsonRoundTrip) {
  DseSpace space;
  space.wavelengths = {1, 2};
  const WorkloadSet set = small_batch();
  DseOptions options;
  options.aggregate = BatchAggregate::kWeighted;
  const DseResult result =
      explore(arch::tempo_template(), g_lib, set, space, options);

  const util::Json doc = to_json(result);
  const DseResult parsed = dse_result_from_json(doc);
  ASSERT_EQ(parsed.points.size(), result.points.size());
  for (size_t p = 0; p < result.points.size(); ++p) {
    ASSERT_EQ(parsed.points[p].per_model.size(),
              result.points[p].per_model.size());
    for (size_t i = 0; i < result.points[p].per_model.size(); ++i) {
      const DseModelMetrics& a = result.points[p].per_model[i];
      const DseModelMetrics& b = parsed.points[p].per_model[i];
      EXPECT_EQ(a.model, b.model);
      EXPECT_EQ(a.weight, b.weight);
      EXPECT_EQ(a.energy_pJ, b.energy_pJ);
      EXPECT_EQ(a.latency_ns, b.latency_ns);
      EXPECT_EQ(a.area_mm2, b.area_mm2);
      EXPECT_EQ(a.power_W, b.power_W);
      EXPECT_EQ(a.tops, b.tops);
    }
  }
  // A single-model point keeps the pre-batch document shape: no "models".
  EXPECT_FALSE(to_json(DsePoint{}).contains("models"));
}

TEST(BatchedExplore, EmptySetIsRejected) {
  DseSpace space;
  space.wavelengths = {1};
  EXPECT_THROW((void)explore(arch::tempo_template(), g_lib, WorkloadSet{},
                             space, DseOptions{}),
               std::invalid_argument);
}

// ------------------------------------------------------- CLI error paths
//
// SIMPHONY_CLI_PATH is defined by CMake when the example binary is built
// alongside the tests; each case runs the real binary and asserts on the
// exit code and the diagnostic.
#ifdef SIMPHONY_CLI_PATH

struct CliResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr
};

CliResult run_cli(const std::string& args) {
  const std::string command =
      std::string(SIMPHONY_CLI_PATH) + " " + args + " 2>&1";
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) throw std::runtime_error("popen failed");
  CliResult result;
  char buffer[4096];
  size_t n = 0;
  while ((n = fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    result.output.append(buffer, n);
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

TEST(CliErrors, MalformedShardExitsWithDiagnostic) {
  const CliResult no_slash =
      run_cli("--model mlp --sweep wavelengths=1,2 --shard 2");
  EXPECT_EQ(no_slash.exit_code, 1);
  EXPECT_NE(no_slash.output.find("--shard expects I/N"), std::string::npos)
      << no_slash.output;

  const CliResult out_of_range =
      run_cli("--model mlp --sweep wavelengths=1,2 --shard 2/2");
  EXPECT_EQ(out_of_range.exit_code, 1);
  EXPECT_NE(out_of_range.output.find("out of range"), std::string::npos)
      << out_of_range.output;
}

TEST(CliErrors, SamplesZeroExitsWithDiagnostic) {
  const CliResult result = run_cli(
      "--model mlp --sweep wavelengths=1,2 --sample random --samples 0");
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("--samples expects a positive integer"),
            std::string::npos)
      << result.output;
}

TEST(CliErrors, UnknownMappingExitsWithDiagnostic) {
  const CliResult result = run_cli("--model mlp --mapping quantum");
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("--mapping expects rules|greedy|beam|bnb"),
            std::string::npos)
      << result.output;
}

TEST(CliErrors, ClockRejectsJunkNanInfAndNonPositive) {
  for (const std::string bad : {"2.5GHz", "nan", "inf", "-inf", "0", "-1",
                                ""}) {
    const CliResult result = run_cli("--clock '" + bad + "'");
    EXPECT_EQ(result.exit_code, 1) << bad;
    EXPECT_NE(
        result.output.find("--clock expects a positive finite number"),
        std::string::npos)
        << bad << ": " << result.output;
  }
}

TEST(CliErrors, AggregateOutsideBatchAndBadAggregateRejected) {
  const CliResult single = run_cli("--model mlp --aggregate max");
  EXPECT_EQ(single.exit_code, 1);
  EXPECT_NE(single.output.find("--aggregate only applies"),
            std::string::npos)
      << single.output;

  const CliResult bad =
      run_cli("--model mlp --model vgg8 --aggregate mean");
  EXPECT_EQ(bad.exit_code, 1);
  EXPECT_NE(bad.output.find("--aggregate expects sum|max|weighted"),
            std::string::npos)
      << bad.output;
}

TEST(CliBatch, TwoModelBatchRunsAndReportsTotals) {
  const CliResult result = run_cli(
      "--model mlp --model gemm:64x32x64 --mapping greedy --json");
  ASSERT_EQ(result.exit_code, 0) << result.output;
  const util::Json root = util::Json::parse(result.output);
  ASSERT_TRUE(root.contains("models"));
  EXPECT_EQ(root.at("models").as_array().size(), 2u);
  EXPECT_TRUE(root.contains("totals"));
  EXPECT_EQ(root.at("aggregate").as_string(), "sum");
}

TEST(CliBatch, RepeatedModelSpecsGetUniqueNames) {
  const CliResult result =
      run_cli("--model mlp --model mlp --json");
  ASSERT_EQ(result.exit_code, 0) << result.output;
  const util::Json root = util::Json::parse(result.output);
  const util::Json::Array& models = root.at("models").as_array();
  ASSERT_EQ(models.size(), 2u);
  EXPECT_NE(models[0].at("model").as_string(),
            models[1].at("model").as_string());
}

#endif  // SIMPHONY_CLI_PATH

}  // namespace
}  // namespace simphony::core
