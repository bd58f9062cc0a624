// Bounded untestability analysis — the completeness the paper's Section-5
// remark points out its generator lacks ("it is not able to prove that a
// fault is undetectable").
//
// A fault of the scan circuit is classified by an exhaustive PODEM search on
// the (SI, T) model: frame-0 state fully assignable (any state is reachable
// through the chain), `window` functional frames, observation at any PO or
// in the final latched state (which a scan-out makes visible). With an
// unbounded backtrack budget the search is exhaustive over the input/state
// space, so:
//
//  * window = 1 failure  => the fault is UNTESTABLE BY ANY conventional
//    single-vector scan test (combinationally redundant under full scan,
//    modulo the optimistic X-propagation of the MUX model);
//  * window = k failure  => no (SI, T) test with |T| <= k exists.
//
// Faults that exhaust the backtrack cap before the space is exhausted are
// reported as Aborted, never as Redundant.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "atpg/verdict.hpp"
#include "fault/fault_list.hpp"
#include "scan/scan_insertion.hpp"
#include "util/cancel.hpp"

namespace uniscan {

enum class FaultClass : std::uint8_t {
  Testable,   // a test exists (found by the exhaustive search)
  Redundant,  // proved: no (SI, T) test with |T| <= window exists
  Aborted,    // backtrack cap hit before the space was exhausted
};

struct RedundancyOptions {
  std::size_t window = 1;       // |T| bound of the proof
  int max_backtracks = 200000;  // proof budget per fault
  /// Cooperative deadline (DESIGN.md §5f). When it fires, the fault whose
  /// search was interrupted and every fault not yet examined are classified
  /// Aborted — never Redundant, since their spaces were not exhausted.
  CancelToken cancel;

  // SAT second chance (DESIGN.md §5l). SecondChance hands every Aborted
  // fault to the SAT engine at the same window: an UNSAT upgrades it to
  // Redundant, a model that replays through the fault simulator upgrades it
  // to Testable. CrossCheck additionally re-proves every PODEM Redundant
  // claim and counts disagreements. Off keeps the report bit-identical to
  // the PODEM-only classification.
  SatMode sat_mode = SatMode::Off;
  std::int64_t sat_max_conflicts = 20000;  // per-fault solver budget
};

struct RedundancyReport {
  std::vector<FaultClass> classes;  // one per fault
  std::size_t testable = 0;
  std::size_t redundant = 0;
  std::size_t aborted = 0;
  /// What the SAT second-chance pass contributed (all zero when
  /// `RedundancyOptions::sat_mode == SatMode::Off`). The counters above
  /// reflect the FINAL classes, after any SAT upgrades.
  SatSummary sat;
  /// PODEM Redundant claims re-proved by the SAT engine (CrossCheck only);
  /// a claim the solver refutes counts in `sat.mismatches`.
  std::uint64_t cross_checks = 0;
};

/// Classify every fault in `faults` (usually the subset a generator left
/// undetected). `sc` must have its chains inserted already.
RedundancyReport classify_faults(const ScanCircuit& sc, std::span<const Fault> faults,
                                 const RedundancyOptions& options = {});

}  // namespace uniscan
