#include "core/dse.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <set>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "core/fingerprint.h"
#include "core/strategy.h"
#include "util/binio.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/gemm.h"

namespace simphony::core {

size_t ArchParamsHash::operator()(const arch::ArchParams& p) const {
  size_t seed = 0;
  util::hash_combine_value(seed, p.tiles);
  util::hash_combine_value(seed, p.cores_per_tile);
  util::hash_combine_value(seed, p.core_height);
  util::hash_combine_value(seed, p.core_width);
  util::hash_combine_value(seed, p.wavelengths);
  util::hash_combine_value(seed, p.clock_GHz);
  util::hash_combine_value(seed, p.input_bits);
  util::hash_combine_value(seed, p.weight_bits);
  util::hash_combine_value(seed, p.output_bits);
  return seed;
}

namespace {

std::vector<int> axis_or(const std::vector<int>& axis, int fallback) {
  return axis.empty() ? std::vector<int>{fallback} : axis;
}

void require_positive(const std::vector<int>& axis, const char* name) {
  for (int v : axis) {
    if (v <= 0) {
      throw std::invalid_argument(std::string(name) +
                                  " values must be positive");
    }
  }
}

/// The candidate values of the seven axes in canonical order, with the
/// "keep base" sentinel semantics shared by grid enumeration and the
/// samplers.  0 marks "axis not swept" (rejected above as a user value)
/// for the size/width/bits axes: the base core_height/core_width pair is
/// kept as-is so a non-square base architecture survives other sweeps,
/// and per-layer operand/output bits stay with the workload.
struct ResolvedAxes {
  std::vector<int> tiles;
  std::vector<int> cores;
  std::vector<int> sizes;
  std::vector<int> widths;
  std::vector<int> wavelengths;
  std::vector<int> in_bits;
  std::vector<int> out_bits;
};

ResolvedAxes resolve_axes(const DseSpace& space) {
  require_positive(space.core_sizes, "core_sizes");
  require_positive(space.core_widths, "core_widths");
  require_positive(space.input_bits, "input_bits");
  require_positive(space.output_bits, "output_bits");
  return ResolvedAxes{axis_or(space.tiles, space.base.tiles),
                      axis_or(space.cores_per_tile, space.base.cores_per_tile),
                      axis_or(space.core_sizes, 0),
                      axis_or(space.core_widths, 0),
                      axis_or(space.wavelengths, space.base.wavelengths),
                      axis_or(space.input_bits, 0),
                      axis_or(space.output_bits, 0)};
}

arch::ArchParams make_point(const DseSpace& space, int tiles, int cores,
                            int hw, int width, int lambda, int bits,
                            int out_bits) {
  arch::ArchParams p = space.base;
  p.tiles = tiles;
  p.cores_per_tile = cores;
  if (hw > 0) {
    p.core_height = hw;
    p.core_width = hw;
  }
  if (width > 0) p.core_width = width;  // decoupled W wins over H = W
  p.wavelengths = lambda;
  if (bits > 0) {
    p.input_bits = bits;
    p.weight_bits = bits;
  }  // unswept: keep base input/weight bits, which may differ
  if (out_bits > 0) p.output_bits = out_bits;
  return p;
}

/// Materializes one design point's architecture (one sub-architecture per
/// template, all at `params`) and wraps it in a Simulator sharing the
/// cross-point cost cache.  This construction is the per-point cost the
/// batched overloads amortize across models.
Simulator make_point_simulator(
    const std::vector<std::shared_ptr<const arch::PtcTemplate>>&
        ptc_templates,
    const devlib::DeviceLibrary& lib, const arch::ArchParams& params,
    CostMatrixCache* cost_cache) {
  std::string arch_name = "dse-" + ptc_templates.front()->name;
  for (size_t t = 1; t < ptc_templates.size(); ++t) {
    arch_name += "+" + ptc_templates[t]->name;
  }
  arch::Architecture system(std::move(arch_name));
  for (const auto& ptc_template : ptc_templates) {
    system.add_subarch(arch::SubArchitecture(ptc_template, params, lib));
  }
  SimulationOptions sim_options;
  sim_options.cost_cache = cost_cache;
  return Simulator(std::move(system), sim_options);
}

/// Runs one model's GEMMs on a point's Simulator, applying the swept bit
/// axes (only an explicitly swept axis overrides the per-layer operand
/// resolutions the model carries).  Totals-only: the DSE objective needs
/// just the aggregate figures, so the per-layer reports are never
/// materialized (simulate_gemms_totals accumulates straight off the cost
/// matrix, bit-identically to the full-report path).  `base_gemm_keys`
/// (optional) are precomputed fingerprints of `base_gemms`; they are only
/// consulted when no bit axis rewrites the GEMMs.
ModelTotals simulate_point_model(
    const Simulator& sim, const std::vector<workload::GemmWorkload>& base_gemms,
    const arch::ArchParams& params, bool override_input_bits,
    bool override_output_bits, const Mapper* mapper,
    const uint64_t* base_gemm_keys) {
  const RuleMapper subarch0{MappingConfig(0)};  // the pre-mapper behavior
  const Mapper& chosen_mapper =
      mapper != nullptr ? *mapper : static_cast<const Mapper&>(subarch0);

  if (!override_input_bits && !override_output_bits) {
    return sim.simulate_gemms_totals(base_gemms, chosen_mapper, nullptr,
                                     base_gemm_keys);
  }
  std::vector<workload::GemmWorkload> gemms = base_gemms;
  for (auto& gemm : gemms) {
    if (override_input_bits) {
      gemm.input_bits = params.input_bits;
      gemm.weight_bits = params.weight_bits;
    }
    if (override_output_bits) gemm.output_bits = params.output_bits;
  }
  // The rewrite changes the GEMMs' fingerprints: recompute, never reuse.
  return sim.simulate_gemms_totals(gemms, chosen_mapper, nullptr, nullptr);
}

/// One model of a sweep's workload as the per-point evaluator sees it: a
/// view of GEMMs extracted once per explore() call (or at
/// WorkloadSet::add), whose weight tensors still point into the model.
struct ModelGemms {
  std::string_view name;
  double weight = 1.0;
  const std::vector<workload::GemmWorkload>* gemms = nullptr;
  /// gemm_fingerprint of each GEMM, or nullptr to fingerprint on demand.
  const uint64_t* fingerprints = nullptr;
};

/// Costs one parameter point.  All heavyweight inputs (templates, library,
/// extracted GEMMs) are shared immutably across concurrent callers; the
/// architecture is materialized ONCE per point and every model runs on it
/// (per-model memory sizing and mapping search, exactly the
/// simulate_point_model flow).  A single model's point is that model's
/// own totals.  With more models the point's objective metrics are the
/// aggregate fold over them (area is the per-model max: one chip must fit
/// every model's memory sizing) and the per-model rows ride along.
DsePoint evaluate_point(
    const std::vector<std::shared_ptr<const arch::PtcTemplate>>&
        ptc_templates,
    const devlib::DeviceLibrary& lib, const std::vector<ModelGemms>& models,
    const arch::ArchParams& params, bool override_input_bits,
    bool override_output_bits, const Mapper* mapper,
    CostMatrixCache* cost_cache, BatchAggregate aggregate, bool want_p99) {
  const Simulator sim =
      make_point_simulator(ptc_templates, lib, params, cost_cache);

  std::vector<BatchModelSlice> slices;
  slices.reserve(models.size());
  for (const ModelGemms& model : models) {
    const ModelTotals totals =
        simulate_point_model(sim, *model.gemms, params, override_input_bits,
                             override_output_bits, mapper, model.fingerprints);
    BatchModelSlice slice;
    slice.energy_pJ = totals.energy_pJ();
    slice.latency_ns = totals.runtime_ns;
    slice.area_mm2 = totals.total_area_mm2();
    slice.macs = totals.macs;
    slice.weight = model.weight;
    slice.power_W = totals.average_power_W();
    slice.tops = totals.tops();
    slices.push_back(slice);
  }

  DsePoint point;
  point.params = params;
  if (slices.size() == 1) {
    point.energy_pJ = slices[0].energy_pJ;
    point.latency_ns = slices[0].latency_ns;
    point.area_mm2 = slices[0].area_mm2;
    point.power_W = slices[0].power_W;
    point.tops = slices[0].tops;
  } else {
    point.per_model.reserve(slices.size());
    for (size_t i = 0; i < slices.size(); ++i) {
      DseModelMetrics metrics;
      metrics.model = std::string(models[i].name);
      metrics.weight = slices[i].weight;
      metrics.energy_pJ = slices[i].energy_pJ;
      metrics.latency_ns = slices[i].latency_ns;
      metrics.area_mm2 = slices[i].area_mm2;
      metrics.power_W = slices[i].power_W;
      metrics.tops = slices[i].tops;
      point.per_model.push_back(std::move(metrics));
    }
    const BatchFold fold = fold_batch(aggregate, slices);
    point.energy_pJ = fold.energy_pJ;
    point.latency_ns = fold.latency_ns;
    point.area_mm2 = fold.area_mm2;
    point.power_W = fold.power_W;
    point.tops = fold.tops;
  }
  if (want_p99) {
    // Tail latency of the workload as an arrival mix: each model is a job
    // class whose service time is its end-to-end latency and whose arrival
    // share is its weight (M/G/1 approximation, see core/metrics.h).  A
    // single model's share is w/w = 1: the single-stream formula.
    std::vector<double> latencies;
    std::vector<double> weights;
    latencies.reserve(slices.size());
    weights.reserve(slices.size());
    for (const BatchModelSlice& slice : slices) {
      latencies.push_back(slice.latency_ns);
      weights.push_back(slice.weight);
    }
    point.p99_latency_ns = p99_latency_ns(latencies, weights);
  }
  return point;
}

}  // namespace

std::vector<arch::ArchParams> DseSpace::enumerate() const {
  const ResolvedAxes axes = resolve_axes(*this);
  std::vector<arch::ArchParams> grid;
  for (int tiles : axes.tiles) {
    for (int cores : axes.cores) {
      for (int hw : axes.sizes) {
        for (int width : axes.widths) {
          for (int lambda : axes.wavelengths) {
            for (int bits : axes.in_bits) {
              for (int out_bits : axes.out_bits) {
                grid.push_back(make_point(*this, tiles, cores, hw, width,
                                          lambda, bits, out_bits));
              }
            }
          }
        }
      }
    }
  }
  return grid;
}

size_t DseSpace::size() const {
  const ResolvedAxes axes = resolve_axes(*this);
  size_t total = 1;
  for (size_t axis : {axes.tiles.size(), axes.cores.size(),
                      axes.sizes.size(), axes.widths.size(),
                      axes.wavelengths.size(), axes.in_bits.size(),
                      axes.out_bits.size()}) {
    // The whole point of size() is gauging spaces too big to
    // materialize; a silently wrapped product would report them tiny.
    if (__builtin_mul_overflow(total, axis, &total)) {
      throw std::overflow_error("DseSpace::size() overflows size_t");
    }
  }
  return total;
}

std::vector<arch::ArchParams> GridSampler::sample(
    const DseSpace& space) const {
  return space.enumerate();
}

std::vector<arch::ArchParams> RandomSampler::sample(
    const DseSpace& space) const {
  const ResolvedAxes axes = resolve_axes(space);
  util::Rng rng(seed_);
  auto pick = [&rng](const std::vector<int>& axis) {
    return axis[static_cast<size_t>(
        rng.uniform_int(0, static_cast<int64_t>(axis.size()) - 1))];
  };
  auto draw = [&] {
    // Sequential named draws: one rng call per axis in canonical order,
    // so the stream (and thus the sample list) is stable for a seed.
    const int tiles = pick(axes.tiles);
    const int cores = pick(axes.cores);
    const int hw = pick(axes.sizes);
    const int width = pick(axes.widths);
    const int lambda = pick(axes.wavelengths);
    const int bits = pick(axes.in_bits);
    const int out_bits = pick(axes.out_bits);
    return make_point(space, tiles, cores, hw, width, lambda, bits, out_bits);
  };
  // Redraw on duplicate so `--samples N` means N *distinct* design points
  // whenever the space affords them (the eval cache silently collapsed
  // repeats before).  The retry budget is bounded: on spaces with fewer
  // than N reachable points the sampler falls back to keeping duplicates
  // rather than looping forever, and says so once on stderr.  Redraws
  // consume the rng stream deterministically, so a fixed seed still
  // reproduces the exact sample list.
  constexpr int kMaxRedraws = 64;
  std::unordered_set<arch::ArchParams, ArchParamsHash> seen;
  seen.reserve(samples_);
  std::vector<arch::ArchParams> points;
  points.reserve(samples_);
  size_t duplicates = 0;
  for (size_t i = 0; i < samples_; ++i) {
    arch::ArchParams point = draw();
    for (int retry = 0; retry < kMaxRedraws && seen.count(point) != 0;
         ++retry) {
      point = draw();
    }
    if (!seen.insert(point).second) ++duplicates;
    points.push_back(std::move(point));
  }
  if (duplicates > 0) {
    std::fprintf(stderr,
                 "warning: random sampler kept %zu duplicate point(s) after "
                 "%d redraws each; the space offers fewer than %zu "
                 "easy-to-reach distinct points\n",
                 duplicates, kMaxRedraws, samples_);
  }
  return points;
}

std::vector<arch::ArchParams> LatinHypercubeSampler::sample(
    const DseSpace& space) const {
  const ResolvedAxes axes = resolve_axes(space);
  util::Rng rng(seed_);
  const size_t n = samples_;
  // One stratified-then-permuted column per axis: sample j lands in
  // stratum j of [0, 1), maps to a value index, and a seeded Fisher-Yates
  // shuffle decorrelates the axes.  Marginal coverage of every axis is
  // near-uniform even when n is far below the grid size.
  auto column = [&rng, n](const std::vector<int>& axis) {
    std::vector<int> values(n);
    const double k = static_cast<double>(axis.size());
    for (size_t j = 0; j < n; ++j) {
      const double pos =
          (static_cast<double>(j) + rng.uniform(0.0, 1.0)) /
          static_cast<double>(n);
      const size_t idx = std::min(axis.size() - 1,
                                  static_cast<size_t>(pos * k));
      values[j] = axis[idx];
    }
    for (size_t j = n; j > 1; --j) {  // hand-rolled: std::shuffle's
      const size_t other = static_cast<size_t>(  // draws are unspecified
          rng.uniform_int(0, static_cast<int64_t>(j) - 1));
      std::swap(values[j - 1], values[other]);
    }
    return values;
  };
  const std::vector<int> tiles = column(axes.tiles);
  const std::vector<int> cores = column(axes.cores);
  const std::vector<int> sizes = column(axes.sizes);
  const std::vector<int> widths = column(axes.widths);
  const std::vector<int> wavelengths = column(axes.wavelengths);
  const std::vector<int> in_bits = column(axes.in_bits);
  const std::vector<int> out_bits = column(axes.out_bits);

  std::vector<arch::ArchParams> points;
  points.reserve(n);
  for (size_t j = 0; j < n; ++j) {
    points.push_back(make_point(space, tiles[j], cores[j], sizes[j],
                                widths[j], wavelengths[j], in_bits[j],
                                out_bits[j]));
  }
  return points;
}

std::vector<DsePoint> DseResult::frontier() const {
  std::vector<DsePoint> out;
  for (const auto& p : points) {
    if (p.pareto) out.push_back(p);
  }
  return out;
}

const DsePoint& DseResult::best_edap() const {
  if (points.empty()) throw std::runtime_error("empty DSE result");
  const DsePoint* best = &points.front();
  for (const auto& p : points) {
    if (p.edap() < best->edap()) best = &p;
  }
  return *best;
}

double DsePoint::metric(Metric m) const {
  switch (m) {
    case Metric::kEnergy:
      return energy_pJ;
    case Metric::kLatency:
      return latency_ns;
    case Metric::kArea:
      return area_mm2;
    case Metric::kPower:
      return power_W;
    case Metric::kEdp:
      return energy_pJ * latency_ns;
    case Metric::kEdap:
      return edap();
    case Metric::kP99Latency:
      return p99_latency_ns;
  }
  return std::numeric_limits<double>::quiet_NaN();
}

MetricVector DsePoint::metrics() const {
  MetricVector v =
      MetricVector::of(energy_pJ, latency_ns, area_mm2, power_W);
  v.set(Metric::kP99Latency, p99_latency_ns);
  return v;
}

void mark_pareto_frontier(std::vector<DsePoint>& points,
                          const std::vector<Metric>& axes) {
  if (axes.empty()) {
    throw std::invalid_argument("mark_pareto_frontier: empty axis list");
  }
  const size_t k = axes.size();
  // Points with a non-finite value on any axis are never on the frontier
  // and do not enter the sort below: NaN (e.g. parsed back from a shard
  // file's null) breaks the comparator's strict weak ordering (undefined
  // behavior in std::sort), and inf must get the same verdict as NaN
  // because serialization collapses both to null — otherwise a merged
  // shard file could disagree with the unsharded in-memory run.
  std::vector<size_t> ids;     // point index of each finite candidate
  std::vector<double> values;  // candidate-major axis tuples, k per row
  ids.reserve(points.size());
  values.reserve(points.size() * k);
  for (size_t i = 0; i < points.size(); ++i) {
    DsePoint& p = points[i];
    p.pareto = false;
    bool finite = true;
    for (Metric axis : axes) {
      const double v = p.metric(axis);
      finite = finite && std::isfinite(v);
      values.push_back(v);
    }
    if (finite) {
      ids.push_back(i);
    } else {
      values.resize(values.size() - k);
    }
  }
  const auto tuple = [&](size_t c) { return values.data() + c * k; };

  // Every dominator of a point is lexicographically smaller, so it sorts
  // earlier; dominance is transitive, so a point is on the frontier iff
  // no already-kept point dominates it.  The sort keys carry the first
  // axis inline and read the others only to break ties on it.
  std::vector<std::pair<double, size_t>> order;
  order.reserve(ids.size());
  for (size_t c = 0; c < ids.size(); ++c) order.emplace_back(*tuple(c), c);
  std::sort(order.begin(), order.end(), [&](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first < b.first;
    return std::lexicographical_compare(tuple(a.second) + 1,
                                        tuple(a.second) + k,
                                        tuple(b.second) + 1,
                                        tuple(b.second) + k);
  });
  // A kept q sorts before p, so q[0] <= p[0] holds already, and q
  // dominates a distinct p iff q <= p on the remaining (tail) axes: the
  // kept set stores and compares only those.  With exactly two tail axes
  // (the default triple) it is a staircase: strictly increasing first
  // tail value mapped to strictly decreasing second, so the entry with the
  // largest key <= t[0] holds the least second value over every kept
  // tuple with key <= t[0] — O(log f) per query for a frontier of f,
  // which matters because real trade-off surfaces put most points on it.
  // Any other axis count scans the kept tuples: O(f) per query.
  const size_t tail = k - 1;
  const bool staircase_index = tail == 2;
  std::map<double, double> staircase;
  std::vector<double> kept;  // tail axes of each kept tuple, in order
  size_t kept_count = 0;
  const auto dominated = [&](const double* t) {
    if (staircase_index) {
      const auto above = staircase.upper_bound(t[0]);
      return above != staircase.begin() && std::prev(above)->second <= t[1];
    }
    for (size_t j = 0; j < kept_count; ++j) {
      const double* q = kept.data() + j * tail;
      if (std::equal(t, t + tail, q,
                     [](double tv, double qv) { return qv <= tv; })) {
        return true;
      }
    }
    return false;
  };
  const auto keep = [&](const double* t) {
    if (staircase_index) {
      // Entries the new tuple covers (both values >=) answer no later
      // query it does not; dropping them keeps the staircase monotone.
      auto at = staircase.lower_bound(t[0]);
      while (at != staircase.end() && at->second >= t[1]) {
        at = staircase.erase(at);
      }
      staircase.emplace(t[0], t[1]);
      return;
    }
    kept.insert(kept.end(), t, t + tail);
    ++kept_count;
  };

  // Identical tuples sort adjacent, never dominate each other, and share
  // one verdict.
  const double* previous = nullptr;
  bool previous_kept = false;
  for (const auto& key : order) {
    const size_t c = key.second;
    const double* p = tuple(c);
    bool on_frontier = previous_kept;
    if (previous == nullptr || !std::equal(p, p + k, previous)) {
      on_frontier = !dominated(p + 1);
      if (on_frontier) keep(p + 1);
    }
    points[ids[c]].pareto = on_frontier;
    previous = p;
    previous_kept = on_frontier;
  }
}

DseResult merge(std::vector<DseResult> shards,
                const std::vector<Metric>& axes) {
  DseResult merged;
  size_t total = 0;
  for (const auto& shard : shards) total += shard.points.size();
  merged.points.reserve(total);
  for (auto& shard : shards) {
    for (auto& point : shard.points) {
      merged.points.push_back(std::move(point));
    }
  }
  std::stable_sort(
      merged.points.begin(), merged.points.end(),
      [](const DsePoint& a, const DsePoint& b) { return a.index < b.index; });
  for (size_t i = 1; i < merged.points.size(); ++i) {
    if (merged.points[i - 1].index == merged.points[i].index) {
      throw std::invalid_argument(
          "merge: duplicate canonical point index " +
          std::to_string(merged.points[i].index) + " (overlapping shards?)");
    }
  }
  mark_pareto_frontier(merged.points, axes);
  return merged;
}

namespace {

const util::Json& require_field(const util::Json& j, const std::string& key) {
  if (!j.is_object() || !j.contains(key)) {
    throw std::invalid_argument("DSE point JSON missing field '" + key +
                                "'");
  }
  return j.at(key);
}

/// Metric field: the writer emits null for non-finite values, so null
/// parses back as NaN.
double metric_from(const util::Json& j, const std::string& key) {
  const util::Json& v = require_field(j, key);
  if (v.is_null()) return std::numeric_limits<double>::quiet_NaN();
  return v.as_number();
}

int int_from(const util::Json& j, const std::string& key) {
  const double d = require_field(j, key).as_number();
  if (d != std::floor(d) || d < std::numeric_limits<int>::min() ||
      d > std::numeric_limits<int>::max()) {
    throw std::invalid_argument("DSE point JSON field '" + key +
                                "' is not an integer");
  }
  return static_cast<int>(d);
}

}  // namespace

util::Json to_json(const DsePoint& point) {
  util::Json j;
  j["index"] = point.index;
  j["tiles"] = point.params.tiles;
  j["cores_per_tile"] = point.params.cores_per_tile;
  j["core_height"] = point.params.core_height;
  j["core_width"] = point.params.core_width;
  j["wavelengths"] = point.params.wavelengths;
  j["clock_GHz"] = point.params.clock_GHz;
  j["input_bits"] = point.params.input_bits;
  j["weight_bits"] = point.params.weight_bits;
  j["output_bits"] = point.params.output_bits;
  j["energy_pJ"] = point.energy_pJ;
  j["latency_ns"] = point.latency_ns;
  j["area_mm2"] = point.area_mm2;
  j["power_W"] = point.power_W;
  j["tops"] = point.tops;
  // Tail latency rides along only when the sweep's objective asked for it
  // (the evaluator leaves it NaN otherwise), so every legacy document is
  // byte-identical.
  if (std::isfinite(point.p99_latency_ns)) {
    j["p99_latency_ns"] = point.p99_latency_ns;
  }
  j["pareto"] = point.pareto;
  // Strategy provenance: only points a multi-rung strategy produced carry
  // a rung, so one-shot documents stay byte-identical to older files.
  if (point.rung >= 0) j["rung"] = point.rung;
  // Batched points carry their per-model rows; single-model points omit
  // the field entirely, keeping pre-batch documents byte-identical.
  if (!point.per_model.empty()) {
    util::Json models{util::Json::Array{}};
    for (const DseModelMetrics& m : point.per_model) {
      util::Json mj;
      mj["model"] = m.model;
      mj["weight"] = m.weight;
      mj["energy_pJ"] = m.energy_pJ;
      mj["latency_ns"] = m.latency_ns;
      mj["area_mm2"] = m.area_mm2;
      mj["power_W"] = m.power_W;
      mj["tops"] = m.tops;
      models.push_back(std::move(mj));
    }
    j["models"] = std::move(models);
  }
  return j;
}

DsePoint dse_point_from_json(const util::Json& j) {
  DsePoint point;
  if (j.contains("index")) {
    const double index = j.at("index").as_number();
    if (index < 0.0 || index != std::floor(index) || index >= 0x1p53) {
      throw std::invalid_argument(
          "DSE point JSON field 'index' is not a non-negative integer");
    }
    point.index = static_cast<size_t>(index);
  }
  point.params.tiles = int_from(j, "tiles");
  point.params.cores_per_tile = int_from(j, "cores_per_tile");
  point.params.core_height = int_from(j, "core_height");
  point.params.core_width = int_from(j, "core_width");
  point.params.wavelengths = int_from(j, "wavelengths");
  // Pre-sharding files never recorded the clock; keep the ArchParams
  // default so they stay loadable (like the missing-"index" fallback).
  if (j.contains("clock_GHz")) {
    point.params.clock_GHz = j.at("clock_GHz").as_number();
  }
  point.params.input_bits = int_from(j, "input_bits");
  point.params.weight_bits = int_from(j, "weight_bits");
  point.params.output_bits = int_from(j, "output_bits");
  point.energy_pJ = metric_from(j, "energy_pJ");
  point.latency_ns = metric_from(j, "latency_ns");
  point.area_mm2 = metric_from(j, "area_mm2");
  point.power_W = metric_from(j, "power_W");
  point.tops = metric_from(j, "tops");
  if (j.contains("p99_latency_ns")) {
    const util::Json& v = j.at("p99_latency_ns");
    point.p99_latency_ns =
        v.is_null() ? std::numeric_limits<double>::quiet_NaN()
                    : v.as_number();
  }
  point.pareto = j.contains("pareto") && j.at("pareto").as_bool();
  if (j.contains("rung")) point.rung = int_from(j, "rung");
  if (j.contains("models")) {
    const util::Json::Array& models = j.at("models").as_array();
    point.per_model.reserve(models.size());
    for (const util::Json& mj : models) {
      DseModelMetrics m;
      m.model = require_field(mj, "model").as_string();
      m.weight = require_field(mj, "weight").as_number();
      m.energy_pJ = metric_from(mj, "energy_pJ");
      m.latency_ns = metric_from(mj, "latency_ns");
      m.area_mm2 = metric_from(mj, "area_mm2");
      m.power_W = metric_from(mj, "power_W");
      m.tops = metric_from(mj, "tops");
      point.per_model.push_back(std::move(m));
    }
  }
  return point;
}

// ------------------------------------------------------------ ExploreHeader

void add_header_fields(util::Json& root, const ExploreHeader& header) {
  root["arch"] = header.arch;
  root["model"] = header.model;
  root["sampler"] = header.sampler;
  if (header.report_distinct) root["distinct"] = header.distinct;
  if (!header.aggregate.empty()) root["aggregate"] = header.aggregate;
  if (!header.objective.empty()) root["objective"] = header.objective;
  if (!header.strategy.empty()) {
    util::Json strategy;
    strategy["name"] = header.strategy;
    if (header.eta > 0) strategy["eta"] = header.eta;
    if (header.rungs > 0) strategy["rungs"] = header.rungs;
    if (header.refine_rounds > 0) {
      strategy["refine_rounds"] = header.refine_rounds;
    }
    root["strategy"] = std::move(strategy);
  }
  if (header.shard.count > 1) {
    util::Json shard;
    shard["index"] = header.shard.index;
    shard["count"] = header.shard.count;
    root["shard"] = std::move(shard);
  }
  root["total_points"] = header.total_points;
}

ExploreHeader explore_header_from_json(const util::Json& root) {
  ExploreHeader header;
  const auto read_string = [](const util::Json& j, const char* key,
                              std::string* out) {
    if (j.contains(key)) *out = j.at(key).as_string();
  };
  const auto read_int = [](const util::Json& j, const char* key, int* out) {
    if (j.contains(key)) *out = static_cast<int>(j.at(key).as_number());
  };
  read_string(root, "arch", &header.arch);
  read_string(root, "model", &header.model);
  read_string(root, "sampler", &header.sampler);
  read_string(root, "aggregate", &header.aggregate);
  read_string(root, "objective", &header.objective);
  if (root.contains("distinct")) {
    header.distinct = static_cast<size_t>(root.at("distinct").as_number());
    header.report_distinct = true;
  }
  if (root.contains("strategy")) {
    const util::Json& strategy = root.at("strategy");
    header.strategy = strategy.at("name").as_string();
    read_int(strategy, "eta", &header.eta);
    read_int(strategy, "rungs", &header.rungs);
    read_int(strategy, "refine_rounds", &header.refine_rounds);
  }
  if (root.contains("shard")) {
    read_int(root.at("shard"), "index", &header.shard.index);
    read_int(root.at("shard"), "count", &header.shard.count);
  }
  if (root.contains("total_points")) {
    header.total_points =
        static_cast<size_t>(root.at("total_points").as_number());
  }
  return header;
}

std::string header_mismatch(const ExploreHeader& a, const ExploreHeader& b) {
  // Compare the rendered fields, so every field the documents carry is
  // named (with its knobs, e.g. a strategy's eta and rungs) — and the
  // shard, which add_header_fields omits when unsharded.
  util::Json fields[2];
  for (int side = 0; side < 2; ++side) {
    const ExploreHeader& header = side == 0 ? a : b;
    add_header_fields(fields[side], header);
    fields[side]["shard"] = std::to_string(header.shard.index) + "/" +
                            std::to_string(header.shard.count);
  }
  std::set<std::string> keys;
  for (const util::Json& side : fields) {
    for (const auto& [key, value] : side.as_object()) keys.insert(key);
  }
  std::string out;
  for (const std::string& key : keys) {
    const auto text = [&key](const util::Json& side) {
      return side.contains(key) ? side.at(key).dump(-1) : "(none)";
    };
    if (text(fields[0]) == text(fields[1])) continue;
    if (!out.empty()) out += ", ";
    out += key + " " + text(fields[0]) + " vs " + text(fields[1]);
  }
  return out;
}

// ---------------------------------------------------------- DseShardWriter

namespace {

/// Closes the "points" array and the document.
constexpr char kFooter[] = "\n]\n}\n";

/// Back-compat sink over a caller-owned std::ostream (stringstreams in
/// tests, pre-durability file streams).  commit() rewrites the document
/// in place: same length, points reordered.
class OstreamSink final : public ShardSink {
 public:
  explicit OstreamSink(std::ostream& out)
      : out_(&out), start_(static_cast<uint64_t>(out.tellp())) {}
  void write(const std::string& text) override { *out_ << text; }
  uint64_t tell() override {
    return static_cast<uint64_t>(out_->tellp());
  }
  void seek(uint64_t pos) override {
    out_->seekp(static_cast<std::ostream::pos_type>(pos));
  }
  void flush() override { out_->flush(); }
  void commit(const std::string& document) override {
    seek(start_);
    write(document);
    flush();
  }

 private:
  std::ostream* out_;
  uint64_t start_;
};

/// Durable file sink: the streamed bytes land in `path + ".tmp"`; every
/// flush() is an fflush + fsync (the in-progress file survives a hard
/// kill up to the last completed point); commit() writes the finished
/// document to a temp file of its own and renames that onto `path`, so
/// the final document appears atomically.  Mirrors
/// util::AtomicFileOutputStream's open/rename plumbing with plain stdio
/// here because the shard writer needs seek support, which the
/// append-only binio stream deliberately does not offer.
class AtomicFileSink final : public ShardSink {
 public:
  explicit AtomicFileSink(std::string path)
      : path_(std::move(path)), temp_path_(path_ + ".tmp") {
    open_temp();
  }

  ~AtomicFileSink() override {
    // Uncommitted: keep the temp file — it is the --resume artifact.
    if (file_ != nullptr) std::fclose(file_);
  }

  void write(const std::string& text) override {
    require_open("write");
    if (std::fwrite(text.data(), 1, text.size(), file_) != text.size()) {
      throw util::IoError("write failed on '" + temp_path_ + "' at byte " +
                          std::to_string(tell_raw()) + ": " +
                          std::strerror(errno));
    }
  }

  uint64_t tell() override {
    require_open("tell");
    return tell_raw();
  }

  void seek(uint64_t pos) override {
    require_open("seek");
    if (std::fseek(file_, static_cast<long>(pos), SEEK_SET) != 0) {
      throw util::IoError("seek failed on '" + temp_path_ + "' to byte " +
                          std::to_string(pos) + ": " + std::strerror(errno));
    }
  }

  void flush() override {
    require_open("flush");
    if (std::fflush(file_) != 0) {
      throw util::IoError("flush failed on '" + temp_path_ +
                          "': " + std::strerror(errno));
    }
#ifndef _WIN32
    if (::fsync(fileno(file_)) != 0) {
      throw util::IoError("fsync failed on '" + temp_path_ +
                          "': " + std::strerror(errno));
    }
#endif
  }

  void commit(const std::string& document) override {
    require_open("commit");
    flush();
    close_temp();
    // The streamed .tmp stays intact — and resumable — until the
    // finished document is durable under its own name and renamed onto
    // `path`: a kill at any instant leaves one or the other.
    const std::string streamed_path =
        std::exchange(temp_path_, path_ + ".sorted.tmp");
    open_temp();
    write(document);
    flush();
    close_temp();
    if (std::rename(temp_path_.c_str(), path_.c_str()) != 0) {
      throw util::IoError("rename '" + temp_path_ + "' -> '" + path_ +
                          "' failed: " + std::strerror(errno));
    }
    std::remove(streamed_path.c_str());
  }

 private:
  void open_temp() {
    file_ = std::fopen(temp_path_.c_str(), "wb");
    if (file_ == nullptr) {
      throw util::IoError("cannot open '" + temp_path_ +
                          "' for writing: " + std::strerror(errno));
    }
  }

  void close_temp() {
    if (std::fclose(std::exchange(file_, nullptr)) != 0) {
      throw util::IoError("close failed on '" + temp_path_ +
                          "': " + std::strerror(errno));
    }
  }

  uint64_t tell_raw() {
    const long pos = std::ftell(file_);
    if (pos < 0) {
      throw util::IoError("tell failed on '" + temp_path_ +
                          "': " + std::strerror(errno));
    }
    return static_cast<uint64_t>(pos);
  }

  void require_open(const char* op) {
    if (file_ == nullptr) {
      throw util::IoError(std::string(op) + " on '" + path_ +
                          "' after commit");
    }
  }

  std::string path_;
  std::string temp_path_;
  std::FILE* file_ = nullptr;
};

}  // namespace

DseShardWriter::DseShardWriter(std::unique_ptr<ShardSink> sink,
                               ExploreHeader header)
    : sink_(std::move(sink)) {
  // One field per line in a fixed key order (the committed shard goldens
  // pin it), omitting optional fields exactly like add_header_fields().
  const auto quoted = [](const std::string& text) {
    return util::Json(text).dump(-1);
  };
  std::string text = "{\n\"arch\": " + quoted(header.arch);
  text += ",\n\"model\": " + quoted(header.model);
  text += ",\n\"sampler\": " + quoted(header.sampler);
  if (header.report_distinct) {
    text += ",\n\"distinct\": " + std::to_string(header.distinct);
  }
  if (!header.aggregate.empty()) {
    text += ",\n\"aggregate\": " + quoted(header.aggregate);
  }
  if (!header.objective.empty()) {
    text += ",\n\"objective\": " + quoted(header.objective);
  }
  if (!header.strategy.empty()) {
    text += ",\n\"strategy\": {\"name\": " + quoted(header.strategy);
    if (header.eta > 0) text += ", \"eta\": " + std::to_string(header.eta);
    if (header.rungs > 0) {
      text += ", \"rungs\": " + std::to_string(header.rungs);
    }
    if (header.refine_rounds > 0) {
      text += ", \"refine_rounds\": " + std::to_string(header.refine_rounds);
    }
    text += "}";
  }
  text += ",\n\"shard\": {\"count\": " + std::to_string(header.shard.count) +
          ", \"index\": " + std::to_string(header.shard.index) + "}";
  text += ",\n\"total_points\": " + std::to_string(header.total_points);
  text += ",\n\"points\": [";
  sink_->write(text);
  header_ = std::move(text);
  // Terminate the document immediately: a sweep killed while its first
  // (possibly expensive) point is still simulating must already leave a
  // parseable zero-point shard on disk.
  const uint64_t header_end = sink_->tell();
  sink_->write(kFooter);
  sink_->flush();
  sink_->seek(header_end);
}

DseShardWriter::DseShardWriter(std::ostream& out, ExploreHeader header)
    : DseShardWriter(std::make_unique<OstreamSink>(out), std::move(header)) {}

DseShardWriter::DseShardWriter(const std::string& path, ExploreHeader header)
    : DseShardWriter(std::make_unique<AtomicFileSink>(path),
                     std::move(header)) {}

void DseShardWriter::add_point(const DsePoint& point) {
  if (finished_) {
    throw std::logic_error("DseShardWriter: add_point after finish");
  }
  std::string line = to_json(point).dump(-1);
  sink_->write((points_.empty() ? "\n" : ",\n") + line);
  points_.emplace_back(point.index, std::move(line));
  // Re-terminate the document, flush it, then seek the put pointer back
  // over the footer: the bytes on disk always form a complete document,
  // and the next point simply overwrites the footer.
  const uint64_t point_end = sink_->tell();
  sink_->write(kFooter);
  sink_->flush();
  sink_->seek(point_end);
}

void DseShardWriter::finish() {
  if (finished_) return;
  finished_ = true;
  // The stream holds the points in completion order; the committed
  // document lists them by canonical index, so it is the same for any
  // thread count.
  std::stable_sort(
      points_.begin(), points_.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  std::string document = header_;
  for (size_t i = 0; i < points_.size(); ++i) {
    document += (i == 0 ? "\n" : ",\n") + points_[i].second;
  }
  document += kFooter;
  sink_->commit(document);
}

DseShardWriter::~DseShardWriter() {
  try {
    finish();
  } catch (...) {
    // Destructors must not throw; an uncommitted file sink keeps its
    // temp file on disk as the recovery artifact.
  }
}

// --------------------------------------------------------- shard recovery

namespace {

[[noreturn]] void recovery_fail(const std::string& origin,
                                const std::string& what) {
  throw std::invalid_argument(
      (origin.empty() ? std::string() : origin + ": ") + what);
}

}  // namespace

ShardRecovery recover_shard_text(const std::string& text,
                                 const std::string& origin) {
  ShardRecovery recovery;

  // Fast path: an untorn document (every between-points kill state the
  // writer can leave behind, and every finished file) parses whole.
  try {
    const util::Json root = util::Json::parse(text);
    recovery.header = explore_header_from_json(root);
    recovery.result = dse_result_from_json(root);
    recovery.complete = true;
    return recovery;
  } catch (const std::invalid_argument&) {
    // Torn inside a write: fall through to line-based salvage.
  }

  // The writer emits "points": [ then one point per line, so the header
  // is everything before the marker and each body line is one point.
  static const std::string kMarker = "\"points\": [";
  const size_t marker = text.find(kMarker);
  if (marker == std::string::npos) {
    recovery_fail(origin,
                  "shard document unrecoverable: torn before the "
                  "\"points\" array (no metadata salvageable)");
  }
  const size_t body_start = marker + kMarker.size();
  try {
    const util::Json header =
        util::Json::parse(text.substr(0, body_start) + "]}");
    recovery.header = explore_header_from_json(header);
  } catch (const std::invalid_argument& error) {
    recovery_fail(origin, std::string("shard header unrecoverable: ") +
                              error.what());
  }

  // Greedy per-line point parse; the first torn line ends the salvage.
  size_t cursor = body_start;
  size_t valid_end = body_start;
  while (cursor < text.size()) {
    size_t line_end = text.find('\n', cursor);
    if (line_end == std::string::npos) line_end = text.size();
    std::string line = text.substr(cursor, line_end - cursor);
    if (!line.empty() && line.back() == ',') line.pop_back();
    if (!line.empty() && line != "]" && line != "}") {
      try {
        recovery.result.points.push_back(
            dse_point_from_json(util::Json::parse(line)));
        valid_end = line_end;
      } catch (const std::invalid_argument&) {
        break;  // torn (or foreign) line: keep the prefix before it
      }
    }
    cursor = line_end + 1;
  }
  recovery.truncated_at = valid_end;
  recovery.message =
      (origin.empty() ? std::string("shard document") : origin) +
      " torn at byte " + std::to_string(valid_end) + "; recovered " +
      std::to_string(recovery.result.points.size()) + " point(s)";
  return recovery;
}

util::Json to_json(const DseResult& result) {
  util::Json points{util::Json::Array{}};
  for (const auto& point : result.points) points.push_back(to_json(point));
  util::Json j;
  j["points"] = std::move(points);
  return j;
}

DseResult dse_result_from_json(const util::Json& j) {
  const util::Json::Array& array =
      j.is_array() ? j.as_array() : require_field(j, "points").as_array();
  DseResult result;
  result.points.reserve(array.size());
  for (size_t i = 0; i < array.size(); ++i) {
    DsePoint point = dse_point_from_json(array[i]);
    // Pre-sharding files carry no index: the array position is canonical.
    if (!array[i].contains("index")) point.index = i;
    result.points.push_back(std::move(point));
  }
  return result;
}

namespace {

using Evaluator =
    std::function<DsePoint(const arch::ArchParams&, FidelityLevel)>;

/// The engine loop: hands the strategy this shard's slice of the
/// canonical point list, then alternates next_batch() / consume() —
/// deduplicating identical (params, fidelity) evaluations across batches,
/// evaluating fresh candidates on the pool — until the strategy is done,
/// and restores canonical index order over finish().
DseResult run_strategy_engine(
    const std::vector<arch::ArchParams>& all_points,
    const DseOptions& options, ExploreStrategy& strategy,
    const Evaluator& evaluate) {
  ExploreStrategy::Context context;
  context.total_points = all_points.size();
  context.skip_indices = options.skip_indices;
  context.slice.reserve(
      all_points.size() / static_cast<size_t>(options.shard.count) + 1);
  size_t skipped = 0;
  // This process's slice: canonical indices congruent to the shard index
  // modulo the shard count (round-robin, so shards stay load-balanced
  // even when cost grows along the grid).
  for (size_t g = static_cast<size_t>(options.shard.index);
       g < all_points.size(); g += static_cast<size_t>(options.shard.count)) {
    // Skipped (resumed) indices stay in the slice — a strategy may need
    // them for rank consistency — but count as completed up front, and
    // the strategy never re-proposes them at full fidelity.
    if (options.skip_indices != nullptr &&
        options.skip_indices->count(g) != 0) {
      ++skipped;
    }
    context.slice.push_back(ExploreStrategy::Candidate{
        g, all_points[g], FidelityLevel::kFull});
  }
  strategy.begin(std::move(context));

  // One callback per completed evaluation, serialized so `completed` is
  // strictly increasing.  The denominator is the evaluations scheduled so
  // far (a strategy's total work is not known up front), and only
  // full-fidelity completions carry their point: low-fidelity probes are
  // engine-internal and never part of the result.
  std::mutex progress_mutex;
  size_t completed = skipped;
  size_t scheduled = skipped;
  auto report_progress = [&](const DsePoint& point, FidelityLevel fidelity) {
    if (!options.on_progress) return;
    std::lock_guard<std::mutex> lock(progress_mutex);
    ++completed;
    options.on_progress(Progress{
        completed, scheduled,
        fidelity == FidelityLevel::kFull ? &point : nullptr});
  };

  // Cross-batch memo: one evaluation per distinct (params, fidelity),
  // so e.g. halving's full-fidelity rung reuses nothing from its
  // low-fidelity rungs but repeated parameter points cost once.
  struct FidelityParamsKey {
    arch::ArchParams params;
    FidelityLevel fidelity;
    bool operator==(const FidelityParamsKey& other) const {
      return fidelity == other.fidelity && params == other.params;
    }
  };
  struct FidelityParamsKeyHash {
    size_t operator()(const FidelityParamsKey& key) const {
      size_t seed = ArchParamsHash{}(key.params);
      util::hash_combine_value(seed, static_cast<int>(key.fidelity));
      return seed;
    }
  };
  std::unordered_map<FidelityParamsKey, size_t, FidelityParamsKeyHash> memo;
  std::vector<DsePoint> store;

  while (true) {
    const std::vector<ExploreStrategy::Candidate> batch =
        strategy.next_batch();
    if (batch.empty()) break;

    std::vector<size_t> slot_of(batch.size());
    std::vector<size_t> fresh_slot;       // store slots to fill this batch
    std::vector<size_t> fresh_candidate;  // batch positions owning them
    for (size_t b = 0; b < batch.size(); ++b) {
      if (options.cache) {
        const auto [it, inserted] = memo.try_emplace(
            FidelityParamsKey{batch[b].params, batch[b].fidelity},
            store.size());
        slot_of[b] = it->second;
        if (!inserted) continue;  // memo hit: reported at assembly below
      } else {
        slot_of[b] = store.size();
      }
      fresh_slot.push_back(store.size());
      fresh_candidate.push_back(b);
      store.emplace_back();
    }
    {
      std::lock_guard<std::mutex> lock(progress_mutex);
      scheduled += batch.size();
    }

    // Fresh candidates run on one chunked parallel_for (the caller
    // participates) writing indexed slots, so a point's result is
    // bit-identical on any thread.  One failed point — or a throwing
    // progress observer — stops new chunks being claimed, and the lowest
    // failing point's exception reaches the caller.
    util::parallel_for(
        fresh_candidate.size(), options.num_threads, [&](size_t u) {
          const ExploreStrategy::Candidate& c = batch[fresh_candidate[u]];
          DsePoint& out = store[fresh_slot[u]];
          out = evaluate(c.params, c.fidelity);
          out.index = c.index;
          out.rung = c.rung;
          report_progress(out, c.fidelity);
        });

    std::vector<DsePoint> results;
    results.reserve(batch.size());
    size_t next_fresh = 0;
    for (size_t b = 0; b < batch.size(); ++b) {
      results.push_back(store[slot_of[b]]);
      results.back().index = batch[b].index;
      results.back().rung = batch[b].rung;
      if (next_fresh < fresh_candidate.size() &&
          fresh_candidate[next_fresh] == b) {
        ++next_fresh;  // evaluated (and reported) on a worker above
      } else {
        report_progress(results.back(), batch[b].fidelity);
      }
    }
    strategy.consume(results, fresh_candidate.size());
  }

  DseResult result;
  result.points = strategy.finish();
  std::stable_sort(
      result.points.begin(), result.points.end(),
      [](const DsePoint& a, const DsePoint& b) { return a.index < b.index; });
  mark_pareto_frontier(result.points, pareto_axes(options.objective));
  return result;
}

/// The exploration engine behind both explore() overloads: canonical
/// point list, shard validation, then the strategy loop above —
/// DseOptions::strategy, or a OneShotStrategy that evaluates the whole
/// slice in one batch.  `evaluate` costs one parameter point at a
/// requested fidelity (it must be thread-safe; the engine shares it
/// across workers).
DseResult run_engine(const DseSpace& space, const DseOptions& options,
                     const Evaluator& evaluate) {
  if (options.shard.count < 1 || options.shard.index < 0 ||
      options.shard.index >= options.shard.count) {
    throw std::invalid_argument(
        "invalid DSE shard " + std::to_string(options.shard.index) + "/" +
        std::to_string(options.shard.count) +
        " (need count >= 1 and 0 <= index < count)");
  }
  const std::vector<arch::ArchParams> all_points =
      options.sampler != nullptr ? options.sampler->sample(space)
                                 : space.enumerate();
  OneShotStrategy one_shot;
  return run_strategy_engine(
      all_points, options,
      options.strategy != nullptr ? *options.strategy : one_shot, evaluate);
}

std::vector<std::shared_ptr<const arch::PtcTemplate>> share_templates(
    const std::vector<arch::PtcTemplate>& ptc_templates) {
  if (ptc_templates.empty()) {
    throw std::invalid_argument("explore needs at least one PTC template");
  }
  std::vector<std::shared_ptr<const arch::PtcTemplate>> shared_templates;
  shared_templates.reserve(ptc_templates.size());
  for (const auto& ptc_template : ptc_templates) {
    shared_templates.push_back(
        std::make_shared<const arch::PtcTemplate>(ptc_template));
  }
  return shared_templates;
}

/// Runs the engine with the per-point evaluator over `models`.
DseResult explore_models(
    const std::vector<arch::PtcTemplate>& ptc_templates,
    const devlib::DeviceLibrary& lib, const std::vector<ModelGemms>& models,
    const DseSpace& space, const DseOptions& options) {
  // Hoisted per-point invariants: shared templates, GEMMs extracted once.
  const std::vector<std::shared_ptr<const arch::PtcTemplate>>
      shared_templates = share_templates(ptc_templates);
  if (models.empty()) {
    throw std::invalid_argument("explore needs a non-empty WorkloadSet");
  }
  const bool override_input_bits = !space.input_bits.empty();
  const bool override_output_bits = !space.output_bits.empty();
  const bool want_p99 = options.objective.references(Metric::kP99Latency);
  return run_engine(
      space, options,
      [&](const arch::ArchParams& params, FidelityLevel fidelity) {
        // kLow substitutes the cheap mapper; with none configured the
        // full mapper runs (correct, just saves nothing).
        const Mapper* mapper =
            fidelity == FidelityLevel::kLow &&
                    options.low_fidelity_mapper != nullptr
                ? options.low_fidelity_mapper
                : options.mapper;
        return evaluate_point(shared_templates, lib, models, params,
                              override_input_bits, override_output_bits,
                              mapper, options.cost_cache, options.aggregate,
                              want_p99);
      });
}

}  // namespace

DseResult explore(const std::vector<arch::PtcTemplate>& ptc_templates,
                  const devlib::DeviceLibrary& lib,
                  const workload::Model& model, const DseSpace& space,
                  const DseOptions& options) {
  const std::vector<workload::GemmWorkload> gemms =
      workload::extract_gemms(model);
  // With no swept bit axis every point costs the identical GEMMs, so the
  // cost-cache fingerprints (which content-hash the weight tensors) are
  // computed once for the whole sweep instead of per point.
  std::vector<uint64_t> keys;
  if (options.cost_cache != nullptr && space.input_bits.empty() &&
      space.output_bits.empty()) {
    keys.reserve(gemms.size());
    for (const auto& gemm : gemms) keys.push_back(gemm_fingerprint(gemm));
  }
  return explore_models(
      ptc_templates, lib,
      {ModelGemms{model.name, 1.0, &gemms,
                  keys.empty() ? nullptr : keys.data()}},
      space, options);
}

DseResult explore(const std::vector<arch::PtcTemplate>& ptc_templates,
                  const devlib::DeviceLibrary& lib,
                  const WorkloadSet& workloads, const DseSpace& space,
                  const DseOptions& options) {
  std::vector<ModelGemms> models;
  models.reserve(workloads.size());
  for (size_t i = 0; i < workloads.size(); ++i) {
    const WorkloadSet::Entry& entry = workloads.at(i);
    models.push_back(ModelGemms{entry.name, entry.weight, &entry.gemms,
                                entry.gemm_fingerprints.data()});
  }
  return explore_models(ptc_templates, lib, models, space, options);
}

}  // namespace simphony::core
