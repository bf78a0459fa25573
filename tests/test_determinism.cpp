// The repo-wide determinism oracle: both parallel hot paths — the DSE
// engine's point loop and simulate_batch's per-model loop — must produce
// BIT-identical results (==, not near) for every thread count, because
// each writes results to index-addressed slots and never lets scheduling
// order reach an accumulation.  These tests re-run the same exploration /
// batch across thread counts {1, 2, 4, 8} against the serial run and
// compare every figure exactly.  A failure here means a
// scheduling change leaked into result order (e.g. a reduction folded in
// completion order) — fix the code, never loosen the comparison.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "arch/prebuilt.h"
#include "core/dse.h"
#include "core/mapper.h"
#include "core/simulator.h"
#include "core/workload_set.h"
#include "workload/onn_convert.h"

namespace simphony::core {
namespace {

constexpr int kThreadCounts[] = {1, 2, 4, 8};

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

WorkloadSet small_batch() {
  WorkloadSet set;
  set.add(converted(workload::mlp_mnist()), "", 2.0);
  set.add(converted(workload::single_gemm_model(64, 32, 64)), "gemm-a", 1.0);
  set.add(converted(workload::single_gemm_model(96, 48, 32)), "gemm-b", 0.5);
  return set;
}

/// Every mapping strategy the engine ships, each objective included.
std::vector<std::unique_ptr<Mapper>> all_mappers() {
  std::vector<std::unique_ptr<Mapper>> mappers;
  mappers.push_back(std::make_unique<RuleMapper>(MappingConfig(0)));
  for (const ObjectiveSpec& objective :
       {ObjectiveSpec::parse("latency"), ObjectiveSpec::parse("energy"),
        ObjectiveSpec::parse("edp")}) {
    mappers.push_back(std::make_unique<GreedyMapper>(objective));
    mappers.push_back(std::make_unique<BeamMapper>(4, objective));
    mappers.push_back(std::make_unique<BranchBoundMapper>(objective));
  }
  return mappers;
}

void expect_points_identical(const DsePoint& a, const DsePoint& b) {
  EXPECT_EQ(a.index, b.index);
  EXPECT_EQ(a.energy_pJ, b.energy_pJ);
  EXPECT_EQ(a.latency_ns, b.latency_ns);
  EXPECT_EQ(a.area_mm2, b.area_mm2);
  EXPECT_EQ(a.power_W, b.power_W);
  EXPECT_EQ(a.tops, b.tops);
  EXPECT_EQ(a.pareto, b.pareto);
  ASSERT_EQ(a.per_model.size(), b.per_model.size());
  for (size_t i = 0; i < a.per_model.size(); ++i) {
    EXPECT_EQ(a.per_model[i].model, b.per_model[i].model);
    EXPECT_EQ(a.per_model[i].energy_pJ, b.per_model[i].energy_pJ);
    EXPECT_EQ(a.per_model[i].latency_ns, b.per_model[i].latency_ns);
    EXPECT_EQ(a.per_model[i].area_mm2, b.per_model[i].area_mm2);
    EXPECT_EQ(a.per_model[i].power_W, b.per_model[i].power_W);
    EXPECT_EQ(a.per_model[i].tops, b.per_model[i].tops);
  }
}

void expect_results_identical(const DseResult& a, const DseResult& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (size_t p = 0; p < a.points.size(); ++p) {
    SCOPED_TRACE("point " + std::to_string(p));
    expect_points_identical(a.points[p], b.points[p]);
  }
}

TEST(Determinism, ExploreAcrossThreadCountsForEveryMapper) {
  DseSpace space;
  space.wavelengths = {1, 2};
  space.tiles = {1, 2};
  const std::vector<arch::PtcTemplate> templates{
      arch::scatter_template(), arch::clements_mzi_template()};
  const workload::Model model = converted(workload::mlp_mnist());

  // One cache across every run: bit-identity must hold through cache hits
  // too (first-writer-wins over bit-identical entries).
  CostMatrixCache cache;
  for (const auto& mapper : all_mappers()) {
    DseOptions serial;
    serial.num_threads = 1;
    serial.mapper = mapper.get();
    serial.cost_cache = &cache;
    const DseResult base = explore(templates, g_lib, model, space, serial);
    ASSERT_EQ(base.points.size(), 4u);

    for (const int threads : kThreadCounts) {
      SCOPED_TRACE(mapper->name() + " threads=" + std::to_string(threads));
      DseOptions options = serial;
      options.num_threads = threads;
      expect_results_identical(
          explore(templates, g_lib, model, space, options), base);
    }
  }
}

TEST(Determinism, BatchedExploreAcrossThreadCounts) {
  DseSpace space;
  space.wavelengths = {1, 2};
  const WorkloadSet set = small_batch();
  const BeamMapper mapper(4, ObjectiveSpec::parse("edp"));

  CostMatrixCache cache;
  DseOptions serial;
  serial.num_threads = 1;
  serial.mapper = &mapper;
  serial.cost_cache = &cache;
  const DseResult base = explore({arch::scatter_template()}, g_lib, set, space,
                                 serial);
  for (const int threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    DseOptions options = serial;
    options.num_threads = threads;
    expect_results_identical(
        explore({arch::scatter_template()}, g_lib, set, space, options), base);
  }
}

TEST(Determinism, BatchAcrossThreadCounts) {
  const WorkloadSet set = small_batch();
  const BeamMapper mapper(4, ObjectiveSpec::parse("edp"));

  CostMatrixCache cache;
  SimulationOptions sim_options;
  sim_options.cost_cache = &cache;

  const Simulator serial_sim(scatter_mzi_system(), sim_options);
  BatchOptions serial;
  serial.num_threads = 1;
  const BatchReport base = serial_sim.simulate_batch(set, mapper, serial);

  for (const int threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const Simulator sim(scatter_mzi_system(), sim_options);
    BatchOptions options;
    options.num_threads = threads;
    const BatchReport batch = sim.simulate_batch(set, mapper, options);
    ASSERT_EQ(batch.models.size(), base.models.size());
    for (size_t i = 0; i < base.models.size(); ++i) {
      EXPECT_EQ(batch.models[i].name, base.models[i].name);
      EXPECT_EQ(batch.models[i].mapping.assignment,
                base.models[i].mapping.assignment);
      EXPECT_EQ(batch.models[i].report.total_runtime_ns,
                base.models[i].report.total_runtime_ns);
      EXPECT_EQ(batch.models[i].report.total_energy.total_pJ(),
                base.models[i].report.total_energy.total_pJ());
      EXPECT_EQ(batch.models[i].report.total_area_mm2(),
                base.models[i].report.total_area_mm2());
    }
  }
}

}  // namespace
}  // namespace simphony::core
