// Cost-driven layer-to-sub-architecture mapping search (paper §III-C1,
// §IV-B4 heterogeneous computing).
//
// The paper's headline heterogeneous results come from running each layer
// on the sub-architecture that suits it.  This subsystem turns the fixed
// first-match rule list of MappingConfig into a searched decision: a
// Mapper consumes a MappingProblem (the extracted GEMMs plus a simulated
// per-(GEMM, sub-arch) CostMatrix) and produces a Mapping — one sub-arch
// index per GEMM plus the predicted totals of that assignment.
//
// Strategies:
//   * RuleMapper       — wraps a MappingConfig; exactly today's fixed
//                        routing (no costs consulted).
//   * GreedyMapper     — per-layer argmin of the per-layer objective.
//                        Globally optimal for additive objectives
//                        (latency, energy); a heuristic for EDP.
//   * BeamMapper       — width-k beam over the layer order, tracking
//                        prefix (energy, latency) sums.  Equivalent to
//                        exhaustive search whenever k >= S^(n-1) for S
//                        sub-arches and n GEMMs; parallelized on
//                        util::ThreadPool with results bit-identical for
//                        any thread count.
//   * BranchBoundMapper — depth-first assignment search with admissible
//                        lower bounds and a greedy incumbent.  Exact (equal
//                        to ExhaustiveMapper bit for bit on every
//                        objective) while pruning most of the S^n tree.
//   * ExhaustiveMapper — full S^n enumeration; the oracle the beam and
//                        branch-and-bound are tested against (small
//                        problems only).
//
// CostMatrixCache memoizes per-(sub-arch, GEMM) LayerReports across cost
// matrices, so DSE points sharing a sub-arch parameterization — or
// repeated searches over the same architecture — never re-simulate a pair.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/mapping.h"
#include "core/metrics.h"
#include "core/report.h"
#include "energy/energy_model.h"
#include "util/binio.h"
#include "workload/gemm.h"

namespace simphony::core {

// MappingObjective, parse_objective, and objective_value moved to
// core/metrics.h (the unified metric layer).  Every search strategy below
// now scores through an ObjectiveSpec; the legacy MappingObjective
// constructors remain and build the canned specs, which score through the
// original objective_value() switch bit for bit.

/// Simulated cost of every (GEMM, sub-arch) pair, built once per mapping
/// search so strategies never re-simulate a pair.  Entries keep the full
/// LayerReport: after the search the Simulator assembles the ModelReport
/// from the matrix instead of simulating the chosen pairs again.
///
/// Storage is structure-of-arrays: the search inner loops (Greedy's
/// per-layer argmin, Beam's candidate expansion, branch-and-bound's DFS)
/// read only (feasible, energy, latency) per pair, so those live in
/// contiguous parallel arrays — energy_row()/latency_row()/feasible_row()
/// hand a strategy one cache-dense row per layer.  The full Entry (with
/// its LayerReport and infeasibility diagnostic) sits behind a shared_ptr
/// per pair, reachable through the at() view; cache hits alias the
/// CostMatrixCache's own entry instead of deep-copying it, which is why
/// a cached entry's report keeps the *donor's* identity fields — the
/// Simulator rewrites layer/sub-arch identity at report-assembly time.
class CostMatrix {
 public:
  struct Entry {
    /// False when the sub-arch cannot run the GEMM at all (e.g. a
    /// dynamic tensor product on a weight-stationary mesh).
    bool feasible = false;
    std::string error;   // the simulator's diagnostic when infeasible
    LayerReport report;  // valid only when feasible
  };

  CostMatrix(size_t num_gemms, size_t num_subarchs);

  [[nodiscard]] size_t num_gemms() const { return num_gemms_; }
  [[nodiscard]] size_t num_subarchs() const { return num_subarchs_; }

  /// Full-entry view of one pair (an unset pair reads as a default —
  /// infeasible — Entry).  Identity fields of a cache-hit entry are the
  /// donor's; see the class comment.
  [[nodiscard]] const Entry& at(size_t gemm, size_t subarch) const;

  /// Stores a locally produced entry.
  void set(size_t gemm, size_t subarch, Entry entry);

  /// Stores a shared entry (a CostMatrixCache hit) without copying it.
  void set(size_t gemm, size_t subarch, std::shared_ptr<const Entry> entry);

  /// Per-layer objective value of one pair; +infinity when infeasible.
  [[nodiscard]] double cost(size_t gemm, size_t subarch,
                            MappingObjective objective) const;

  /// Sub-arch indices able to run a GEMM, ascending.
  [[nodiscard]] std::vector<size_t> feasible_subarchs(size_t gemm) const;

  /// SoA rows of one GEMM, indexed by sub-arch (num_subarchs() wide).
  /// Energy/latency hold +infinity for infeasible pairs.
  [[nodiscard]] const std::uint8_t* feasible_row(size_t gemm) const {
    return feasible_.data() + gemm * num_subarchs_;
  }
  [[nodiscard]] const double* energy_row(size_t gemm) const {
    return energy_pJ_.data() + gemm * num_subarchs_;
  }
  [[nodiscard]] const double* latency_row(size_t gemm) const {
    return latency_ns_.data() + gemm * num_subarchs_;
  }

 private:
  void set_soa(size_t index, const Entry& entry);

  size_t num_gemms_;
  size_t num_subarchs_;
  // Row-major [gemm * num_subarchs_ + subarch] throughout.
  std::vector<std::shared_ptr<const Entry>> entries_;
  std::vector<std::uint8_t> feasible_;
  std::vector<double> energy_pJ_;
  std::vector<double> latency_ns_;
};

/// Cross-point memoization of per-(sub-arch, GEMM) cost-matrix entries.
///
/// A key is a canonical fingerprint pair: one hash over everything the
/// per-pair simulation reads on the hardware side (PTC template structure,
/// materialized groups, ArchParams, device library identity, energy
/// options, and the shared memory hierarchy) and one over the workload
/// side (GEMM shape, batch, bit widths, dynamic/sparsity flags, and the
/// weight tensor's *content* — the energy model is data-aware).  Layer
/// name and sub-arch index are deliberately excluded: identical layers on
/// identical hardware share one entry, and the Simulator rewrites the
/// identity fields on every hit.  Only feasible entries are stored:
/// infeasibility diagnostics embed the layer's own name, which the
/// canonical key cannot distinguish (and rejecting an infeasible pair is
/// cheap to redo).
///
/// Thread-safe: find/insert take an internal mutex, so one cache can be
/// shared by every worker of a DSE sweep (DseOptions::cost_cache) and
/// across explore() calls.  Insertion is first-writer-wins; since a given
/// key is always produced by the same instruction sequence, every writer
/// carries a bit-identical entry and cached results equal uncached ones
/// exactly.  Keys are compared by their two 64-bit fingerprints only; a
/// false hit needs a simultaneous collision of both, which is negligible
/// at any realistic sweep size.
///
/// Beside the entries sits the weight-power memo (weight_power()): the
/// per-(GEMM, device curve) data-aware weight-cell power that every cost
/// miss of that GEMM needs, so a cold sweep scans each weight tensor once
/// per curve rather than once per (point, sub-arch).  Only misses consult
/// it; it is not persisted, and clear() empties it.
class CostMatrixCache {
 public:
  struct Key {
    uint64_t subarch = 0;  // hardware-side fingerprint
    uint64_t gemm = 0;     // workload-side fingerprint
    [[nodiscard]] bool operator==(const Key&) const = default;
  };

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    /// hits / (hits + misses); 0 when nothing was looked up.
    [[nodiscard]] double hit_rate() const {
      const uint64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) /
                                    static_cast<double>(total);
    }
  };

  /// File-format identity of the persistent store (docs/persistence.md):
  /// magic "SPCC" read little-endian, format version bumped on any
  /// incompatible layout change.
  static constexpr uint32_t kFileMagic = 0x43435053u;  // "SPCC"
  static constexpr uint32_t kFileVersion = 1;

  /// What load() recovered — and what it had to give up.  Loading never
  /// throws on damaged input: corrupt records are skipped, a truncated
  /// tail keeps the valid prefix, and a wrong magic/version starts cold;
  /// `message` carries the human-readable warning for each degradation.
  struct LoadReport {
    size_t loaded = 0;    // entries inserted into the cache
    size_t skipped = 0;   // records dropped (CRC mismatch / undecodable)
    bool found = false;   // a file existed and was opened
    bool version_mismatch = false;  // wrong magic or version: started cold
    bool truncated = false;         // stream ended inside a record
    std::string message;            // empty when the load was clean

    [[nodiscard]] bool clean() const {
      return skipped == 0 && !version_mismatch && !truncated;
    }
  };

  /// Serializes every entry to `out` in the versioned, CRC-framed binary
  /// format.  Deterministic: entries are written sorted by key, so
  /// save -> load -> save reproduces the file byte for byte.
  void save_to(util::OutputStream& out) const;

  /// Atomic save: writes `path + ".tmp"`, fsyncs, renames onto `path`.
  /// Throws util::IoError on I/O failure (never leaves a torn `path`).
  void save(const std::string& path) const;

  /// Merges entries from `in` (first writer wins against existing
  /// entries; hit/miss counters untouched).  See LoadReport for the
  /// degradation contract.
  LoadReport load_from(util::InputStream& in);

  /// load_from() over a file; a missing file is a cold start
  /// (found == false), not an error.
  LoadReport load(const std::string& path);

  /// Cached entry for `key`, or nullptr (counted as hit/miss).
  [[nodiscard]] std::shared_ptr<const CostMatrix::Entry> find(
      const Key& key) const;

  /// Stores `entry` under `key` (first writer wins) and returns the
  /// stored entry.
  std::shared_ptr<const CostMatrix::Entry> insert(const Key& key,
                                                  CostMatrix::Entry entry);

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] size_t size() const;
  /// Drops entries and the weight-power memo, and resets the counters.
  void clear();

  /// The weight-power memo the cost-miss path passes to the energy model
  /// (see the class comment).  Thread-safe on its own.
  [[nodiscard]] energy::WeightPowerMemo& weight_power() {
    return weight_power_;
  }

 private:
  struct KeyHash {
    size_t operator()(const Key& key) const {
      return static_cast<size_t>(key.subarch ^
                                 (key.gemm * 0x9e3779b97f4a7c15ULL));
    }
  };

  mutable std::mutex mutex_;
  std::unordered_map<Key, std::shared_ptr<const CostMatrix::Entry>, KeyHash>
      entries_;
  mutable Stats stats_;
  energy::WeightPowerMemo weight_power_;
};

/// Everything a Mapper sees.  `costs` is null iff the strategy declared
/// needs_costs() == false (the Simulator skips building the matrix then);
/// `subarch_count` is the valid assignment range — it duplicates
/// costs->num_subarchs() when a matrix is present, but is the only
/// architecture information a costless strategy gets.
struct MappingProblem {
  const std::vector<workload::GemmWorkload>* gemms = nullptr;
  const CostMatrix* costs = nullptr;
  size_t subarch_count = 0;
};

/// A chosen assignment plus its predicted totals.  Predictions come from
/// the cost matrix; a costless strategy (RuleMapper) leaves them at 0.
struct Mapping {
  std::vector<size_t> assignment;  // one sub-arch index per GEMM
  double predicted_energy_pJ = 0.0;
  double predicted_latency_ns = 0.0;
  /// objective_value() of the predicted totals (0 for costless strategies).
  double predicted_cost = 0.0;
};

/// Strategy interface.  map() must be const and thread-safe: the DSE
/// engine shares one Mapper across concurrent design-point evaluations.
class Mapper {
 public:
  virtual ~Mapper() = default;

  /// Strategy name for reports and tables ("rules", "greedy", ...).
  [[nodiscard]] virtual std::string name() const = 0;

  /// Whether map() consults MappingProblem::costs; the Simulator only
  /// builds the cost matrix when it will be used.
  [[nodiscard]] virtual bool needs_costs() const { return true; }

  /// Pre-flight check against a concrete architecture (e.g. rule targets
  /// in range).  Non-empty problems abort the simulation with a clear
  /// error before anything is costed.
  [[nodiscard]] virtual std::vector<std::string> validate(
      const arch::Architecture& architecture) const;

  [[nodiscard]] virtual Mapping map(const MappingProblem& problem) const = 0;
};

/// Fixed first-match rule routing — today's MappingConfig behavior,
/// bit-identical to the legacy simulate_model(model, config) path.
class RuleMapper final : public Mapper {
 public:
  explicit RuleMapper(MappingConfig config);

  [[nodiscard]] std::string name() const override { return "rules"; }
  [[nodiscard]] bool needs_costs() const override { return false; }
  [[nodiscard]] std::vector<std::string> validate(
      const arch::Architecture& architecture) const override;
  [[nodiscard]] Mapping map(const MappingProblem& problem) const override;

  [[nodiscard]] const MappingConfig& config() const { return config_; }

 private:
  MappingConfig config_;
};

/// Per-layer argmin of the per-layer objective.  Optimal for additive
/// objectives (latency, energy: the model total is the sum of per-layer
/// terms); for EDP — (sum E) * (sum L), non-additive — it is a fast
/// heuristic that BeamMapper can beat.  Ties go to the lowest sub-arch
/// index.
class GreedyMapper final : public Mapper {
 public:
  explicit GreedyMapper(
      MappingObjective objective = MappingObjective::kEdp);
  /// General-spec search; throws std::invalid_argument unless
  /// objective.mapper_compatible().
  explicit GreedyMapper(ObjectiveSpec objective);

  [[nodiscard]] std::string name() const override { return "greedy"; }
  [[nodiscard]] const ObjectiveSpec& objective() const { return objective_; }
  [[nodiscard]] Mapping map(const MappingProblem& problem) const override;

 private:
  ObjectiveSpec objective_;
};

/// Width-k beam search over the layer order.  Each beam state is an
/// assignment prefix with its (energy, latency) sums; states are scored by
/// objective_value() of the prefix and pruned to the best k with a
/// deterministic tie-break (score, then lexicographic assignment).
///
/// Exhaustive-equivalence guarantee: with S sub-arches and n GEMMs the
/// number of distinct prefixes after layer i is S^i, so any width
/// k >= S^(n-1) never prunes and the result equals full enumeration.
///
/// Candidate expansion is parallelized on util::ThreadPool with indexed
/// writes followed by a total-order sort, so the chosen mapping is
/// bit-identical for any num_threads (0 = one worker per hardware thread,
/// 1 = serial; serial is the default so nesting inside DSE workers does
/// not oversubscribe).
class BeamMapper final : public Mapper {
 public:
  explicit BeamMapper(size_t width = 8,
                      MappingObjective objective = MappingObjective::kEdp,
                      int num_threads = 1);
  /// General-spec search; throws std::invalid_argument unless
  /// objective.mapper_compatible().
  BeamMapper(size_t width, ObjectiveSpec objective, int num_threads = 1);

  [[nodiscard]] std::string name() const override { return "beam"; }
  [[nodiscard]] size_t width() const { return width_; }
  [[nodiscard]] const ObjectiveSpec& objective() const { return objective_; }
  [[nodiscard]] Mapping map(const MappingProblem& problem) const override;

 private:
  size_t width_;
  ObjectiveSpec objective_;
  int num_threads_;
};

/// Exact depth-first branch-and-bound over the layer order.
///
/// The search walks assignment prefixes in lexicographic order, tracking
/// prefix (energy, latency) sums, and prunes a subtree when an admissible
/// lower bound on any completion exceeds the incumbent:
///   * latency / energy (additive): prefix sum + the suffix sum of each
///     remaining layer's feasible minimum — exact, so with the greedy
///     incumbent (optimal for additive objectives) only tie subtrees
///     survive;
///   * EDP: (E_prefix + sum min E) * (L_prefix + sum min L) — the
///     component-wise-minima bound.  EDP is monotone in both totals and
///     every completion satisfies both component inequalities, so the
///     bound never exceeds a reachable score (admissible).
/// Pruning is strict (bound > incumbent only, with the bound deflated by
/// an ulp-scale margin so floating-point reassociation in the suffix
/// sums can never make it inadmissible) and the incumbent is replaced on
/// (score, lexicographic assignment), so the result equals
/// ExhaustiveMapper bit for bit on every objective — including the
/// lexicographically-smallest-optimum tie-break and the exact
/// floating-point summation order — without the S^n enumeration limit.
///
/// The incumbent is seeded from GreedyMapper's assignment before the
/// search starts.  With num_threads != 1 the tree is split into the
/// lex-ordered feasible prefixes of a small fixed depth, subtrees are
/// searched on a util::ThreadPool against a shared atomic bound, and the
/// per-subtree winners are reduced in prefix order — the chosen mapping is
/// bit-identical for any thread count (0 = one worker per hardware
/// thread; the default 1 stays serial so nesting inside DSE workers does
/// not oversubscribe).
class BranchBoundMapper final : public Mapper {
 public:
  /// Search effort counters (map_counted): subtree roots the DFS expanded
  /// vs. pruned against the bound, plus the full S^n leaf count for scale.
  struct Stats {
    uint64_t visited = 0;
    uint64_t pruned = 0;
    double total_assignments = 0.0;
  };

  explicit BranchBoundMapper(
      MappingObjective objective = MappingObjective::kEdp,
      int num_threads = 1);
  /// General-spec search; throws std::invalid_argument unless
  /// objective.mapper_compatible().  Bounds stay admissible because every
  /// mapper-compatible metric is monotone nondecreasing in the prefix
  /// (energy, latency) totals — see ObjectiveSpec::mapper_compatible.
  explicit BranchBoundMapper(ObjectiveSpec objective, int num_threads = 1);

  [[nodiscard]] std::string name() const override { return "bnb"; }
  [[nodiscard]] const ObjectiveSpec& objective() const { return objective_; }
  [[nodiscard]] Mapping map(const MappingProblem& problem) const override;

  /// map() variant that also reports how much of the tree was explored.
  [[nodiscard]] Mapping map_counted(const MappingProblem& problem,
                                    Stats* stats) const;

 private:
  ObjectiveSpec objective_;
  int num_threads_;
};

/// Full S^n enumeration — exact but exponential; the oracle used to test
/// BeamMapper's equivalence guarantee.  Refuses problems with more than
/// ~2^20 candidate assignments.
class ExhaustiveMapper final : public Mapper {
 public:
  explicit ExhaustiveMapper(
      MappingObjective objective = MappingObjective::kEdp);
  /// General-spec search; throws std::invalid_argument unless
  /// objective.mapper_compatible().
  explicit ExhaustiveMapper(ObjectiveSpec objective);

  [[nodiscard]] std::string name() const override { return "exhaustive"; }
  [[nodiscard]] Mapping map(const MappingProblem& problem) const override;

 private:
  ObjectiveSpec objective_;
};

}  // namespace simphony::core
