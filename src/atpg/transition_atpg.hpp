// Unified test generation for TRANSITION faults (at-speed extension).
//
// The unified view is a natural fit for at-speed testing: every pair of
// consecutive vectors in the sequence is a launch/capture pair applied at
// speed — including scan-shift cycles, so transitions can be launched by the
// last shift of a (limited) scan operation exactly as the enhanced-scan and
// LOS/LOC schemes do, without any special-casing. The driver mirrors the
// Section-2 stuck-at generator: random bootstrap, per-fault PODEM on the
// time-frame window with the transition launch condition, scan-load
// justification, the latch-and-flush fallback and the SAT second chance.
#pragma once

#include <cstdint>
#include <vector>

#include "atpg/seq_atpg.hpp"
#include "fault/transition_fault.hpp"
#include "scan/scan_insertion.hpp"
#include "sim/fault_sim.hpp"
#include "sim/sequence.hpp"

namespace uniscan {

struct TransitionAtpgResult {
  TestSequence sequence;
  std::size_t num_faults = 0;
  std::size_t detected = 0;
  std::size_t detected_by_scan_knowledge = 0;
  /// Undetected faults whose miter the SAT second chance proved UNSAT up to
  /// its unrolled depth (sat_frames + 1 launch frame, X launch history) — a
  /// depth-bounded claim for transition faults, see sat/sat_engine.hpp.
  std::size_t proved_redundant = 0;
  /// True when AtpgOptions::cancel fired: the sequence is the verified
  /// best-so-far prefix and the faults not reached remain undetected.
  bool timed_out = false;
  std::vector<DetectionRecord> detection;
  AtpgStats stats;
  /// Gate-word evaluations spent on fault simulation (session + final
  /// verification) — the bench binaries' work metric.
  std::uint64_t gate_evals = 0;
  /// What the SAT second-chance phase contributed (all zero when
  /// `AtpgOptions::sat_mode == SatMode::Off`).
  SatSummary sat;

  double fault_coverage() const {
    return num_faults == 0
               ? 0.0
               : 100.0 * static_cast<double>(detected) / static_cast<double>(num_faults);
  }
};

/// Options are shared with the stuck-at generator (AtpgOptions); the window
/// schedule applies unchanged, with every window extended by one frame for
/// the launch cycle.
TransitionAtpgResult generate_transition_tests(const ScanCircuit& sc,
                                               const std::vector<TransitionFault>& faults,
                                               const AtpgOptions& options = {});
TransitionAtpgResult generate_transition_tests(const ScanCircuit& sc,
                                               const AtpgOptions& options = {});

}  // namespace uniscan
