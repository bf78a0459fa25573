// Reproduces paper Fig. 9: design-space sweeps on the TeMPO architecture
// with the (280x28)x(28x280) GEMM.
//   (a) energy vs. number of wavelengths (1..7): components that do not
//       scale with wavelengths shrink with the cycle count; the MZM energy
//       stays ~constant because the MZM count scales with #wavelengths.
//   (b) energy vs. input/weight/output bitwidth (2..8): a clear upward
//       trend (DAC ~linear, ADC ~2^b, laser ~2^b_in).
// A third section crosses both axes at once through the parallel DSE
// engine (core/dse.h) and reports the Pareto frontier plus wall-clock.
#include <chrono>
#include <cstdio>
#include <iostream>

#include "arch/prebuilt.h"
#include "core/dse.h"
#include "core/simulator.h"
#include "util/table.h"
#include "workload/onn_convert.h"

namespace {

using namespace simphony;

core::ModelReport run(const arch::ArchParams& params, int in_bits,
                      int w_bits, int out_bits) {
  devlib::DeviceLibrary lib = devlib::DeviceLibrary::standard();
  arch::Architecture system("tempo");
  system.add_subarch(
      arch::SubArchitecture(arch::tempo_template(), params, lib));
  core::Simulator sim(std::move(system));
  workload::Model model = workload::single_gemm_model(280, 28, 280);
  for (auto& layer : model.layers) {
    layer.input_bits = in_bits;
    layer.weight_bits = w_bits;
    layer.output_bits = out_bits;
  }
  workload::convert_model_in_place(model);
  return sim.simulate_model(model, core::MappingConfig(0));
}

const char* kCategories[] = {"Laser", "PS",  "PD",  "MZM", "ADC",
                             "DAC",   "TIA", "Integrator", "DM"};

void print_sweep_row(util::Table& table, const std::string& label,
                     const core::ModelReport& report) {
  std::vector<std::string> row{label};
  for (const char* cat : kCategories) {
    row.push_back(util::Table::fmt(report.total_energy.get(cat) * 1e-6, 3));
  }
  row.push_back(util::Table::fmt(report.total_energy.total_pJ() * 1e-6, 3));
  table.add_row(row);
}

}  // namespace

int main() {
  std::cout << "=== Fig. 9(a): energy (uJ) vs #wavelengths, TeMPO, "
               "(280x28)x(28x280) GEMM ===\n";
  util::Table sweep_l({"#wavelengths", "Laser", "PS", "PD", "MZM", "ADC",
                       "DAC", "TIA", "Integrator", "DM", "TOTAL"});
  arch::ArchParams params;  // R=2, C=2, H=W=4, 5 GHz
  for (int wavelengths = 1; wavelengths <= 7; ++wavelengths) {
    params.wavelengths = wavelengths;
    print_sweep_row(sweep_l, std::to_string(wavelengths),
                    run(params, 4, 4, 8));
  }
  std::cout << sweep_l.render();
  std::cout << "expected shape: total decreases with wavelengths; MZM "
               "column ~constant (count scales with #wavelengths)\n\n";

  std::cout << "=== Fig. 9(b): energy (uJ) vs input/weight/output bitwidth "
               "===\n";
  util::Table sweep_b({"bits", "Laser", "PS", "PD", "MZM", "ADC", "DAC",
                       "TIA", "Integrator", "DM", "TOTAL"});
  params.wavelengths = 4;
  for (int bits = 2; bits <= 8; ++bits) {
    print_sweep_row(sweep_b, std::to_string(bits),
                    run(params, bits, bits, bits));
  }
  std::cout << sweep_b.render();
  std::cout << "expected shape: monotonically increasing total energy with "
               "bitwidth\n\n";

  std::cout << "=== wavelengths x input/weight bits x output bits "
               "cross-sweep via the parallel DSE engine ===\n";
  workload::Model model = workload::single_gemm_model(280, 28, 280);
  workload::convert_model_in_place(model);
  core::DseSpace space;
  space.base = params;
  for (int wavelengths = 1; wavelengths <= 7; ++wavelengths) {
    space.wavelengths.push_back(wavelengths);
  }
  for (int bits = 2; bits <= 8; ++bits) {
    space.input_bits.push_back(bits);
    space.output_bits.push_back(bits);  // the (b) diagonal lives in the grid
  }

  core::DseOptions options;  // num_threads = 0: one worker per hw thread
  const auto t0 = std::chrono::steady_clock::now();
  const core::DseResult result = core::explore(
      {arch::tempo_template()}, devlib::DeviceLibrary::standard(), model,
      space, options);
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  const core::DsePoint& best = result.best_edap();
  std::cout << result.points.size() << " points explored in "
            << util::Table::fmt(ms, 1) << " ms, "
            << result.frontier().size()
            << " Pareto-optimal; best EDAP at L=" << best.params.wavelengths
            << " bits=" << best.params.input_bits << "\n";
  return 0;
}
