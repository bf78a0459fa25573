// Example: automated design-space exploration (the paper's stated future
// extension, §IV-B4) — sweep TeMPO's architecture parameters on a VGG-8
// workload with the parallel DSE engine (core/dse.h) and report the Pareto
// frontier of (energy, latency, area).
#include <chrono>
#include <iostream>
#include <string>

#include "arch/prebuilt.h"
#include "core/dse.h"
#include "util/table.h"
#include "workload/onn_convert.h"

int main(int argc, char** argv) {
  using namespace simphony;

  devlib::DeviceLibrary lib = devlib::DeviceLibrary::standard();
  workload::Model model = workload::vgg8_cifar10();
  workload::convert_model_in_place(model);

  core::DseSpace space;
  space.tiles = {1, 2, 4};
  space.cores_per_tile = {1, 2};
  space.core_sizes = {4, 8};
  space.wavelengths = {2, 4, 8};

  core::DseOptions options;  // num_threads = 0: one worker per hw thread
  if (argc > 1) {
    const std::string arg = argv[1];
    size_t parsed = 0;
    int threads = 0;
    try {
      threads = std::stoi(arg, &parsed);
    } catch (const std::exception&) {
      parsed = 0;
    }
    if (arg.empty() || parsed != arg.size() || threads < 0) {
      std::cerr << "usage: example_design_space_exploration [num_threads]\n"
                   "  num_threads >= 0; 0 (default) = all hardware threads\n";
      return 1;
    }
    options.num_threads = threads;
  }

  const auto t0 = std::chrono::steady_clock::now();
  const core::DseResult result =
      core::explore({arch::tempo_template()}, lib, model, space, options);
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();

  std::cout << "=== TeMPO design-space exploration on VGG-8(CIFAR10) ===\n";
  util::Table table({"R", "C", "HxW", "L", "energy (uJ)", "latency (us)",
                     "area (mm^2)", "Pareto"});
  for (const auto& pt : result.points) {
    const arch::ArchParams& p = pt.params;
    table.add_row({std::to_string(p.tiles), std::to_string(p.cores_per_tile),
                   std::to_string(p.core_height) + "x" +
                       std::to_string(p.core_width),
                   std::to_string(p.wavelengths),
                   util::Table::fmt(pt.energy_pJ * 1e-6, 1),
                   util::Table::fmt(pt.latency_ns * 1e-3, 1),
                   util::Table::fmt(pt.area_mm2, 3), pt.pareto ? "*" : ""});
  }
  std::cout << table.render();
  std::cout << "* = Pareto-optimal in (energy, latency, area)\n";

  const core::DsePoint& best = result.best_edap();
  std::cout << result.points.size() << " points, "
            << result.frontier().size() << " on the frontier; best EDAP at R="
            << best.params.tiles << " C=" << best.params.cores_per_tile
            << " " << best.params.core_height << "x"
            << best.params.core_width << " L=" << best.params.wavelengths
            << "\n";
  std::cout << "explored on "
            << (options.num_threads == 0 ? "all hardware threads"
                                         : std::to_string(
                                               options.num_threads) +
                                               " thread(s)")
            << " in " << util::Table::fmt(ms, 1) << " ms\n";
  return 0;
}
