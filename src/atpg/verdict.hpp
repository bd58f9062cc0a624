// The SAT second-chance verdict taxonomy shared by the generators, the
// redundancy identifier, and the table binaries (DESIGN.md §5l).
//
// Every per-fault outcome is one of three verdicts:
//
//  * Detected          — a test exists and was REPLAYED through the fault
//                        simulator (never trusted from a solver model alone),
//  * Redundant(proved) — an UNSAT result of the full miter up to the
//                        unrolled depth; for stuck-at faults at window 1
//                        this is conventional-scan untestability,
//  * Aborted           — budgets or cancellation cut the search short; an
//                        aborted search never claims Redundant (PR 4).
#pragma once

#include <cstdint>
#include <string_view>

namespace uniscan {

enum class SatMode : std::uint8_t {
  Off,           // no SAT calls anywhere: PODEM only, no redundancy proofs
  SecondChance,  // retry PODEM-undecided faults with the SAT engine
  CrossCheck,    // classify_faults only: SecondChance plus re-proving its
                 // own PODEM Redundant claims (see atpg/redundancy.hpp)
};

constexpr std::string_view sat_mode_name(SatMode m) noexcept {
  switch (m) {
    case SatMode::Off: return "off";
    case SatMode::SecondChance: return "second-chance";
    case SatMode::CrossCheck: return "cross-check";
  }
  return "off";
}

/// What the SAT phase contributed, reported on the ATPG / redundancy results
/// and in the bench-JSON `sat` block.
struct SatSummary {
  std::uint64_t attempts = 0;         // faults handed to the engine
  std::uint64_t detected = 0;         // SAT models that replayed to a detection
  std::uint64_t proved_redundant = 0; // UNSAT certificates up to the depth
  std::uint64_t aborted = 0;          // engine budget/cancel exhausted
  std::uint64_t mismatches = 0;       // oracle disagreements (model failed to
                                      // replay, or PODEM-Redundant proved SAT)
  bool any() const noexcept { return attempts != 0; }

  /// Accumulate another summary (suite totals in the table binaries).
  void add(const SatSummary& o) noexcept {
    attempts += o.attempts;
    detected += o.detected;
    proved_redundant += o.proved_redundant;
    aborted += o.aborted;
    mismatches += o.mismatches;
  }
};

}  // namespace uniscan
