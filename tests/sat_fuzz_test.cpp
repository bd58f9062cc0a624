// Seeded fuzz cross-check of the SAT engine against PODEM (DESIGN.md §5l):
// random synthetic scan circuits, sampled collapsed faults, and for each
// fault both engines search the same depth-1 (SI, T) space — their verdicts
// must agree whenever neither aborted, and every SAT test must replay to a
// real detection.
//
// Reproducibility follows the fuzz_property_test contract: every random
// choice derives from the gtest parameter seed and nothing else, and each
// case opens with a SCOPED_TRACE carrying the seed and derived spec so a
// failure logs its exact replay recipe.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/uniscan.hpp"
#include "sat/sat_engine.hpp"

namespace uniscan {
namespace {

std::string fuzz_repro(std::uint64_t seed, const SynthSpec& spec) {
  return "fuzz seed=" + std::to_string(seed) + " circuit=" + spec.name +
         " (pi=" + std::to_string(spec.num_inputs) + " ff=" + std::to_string(spec.num_dffs) +
         " gates=" + std::to_string(spec.num_gates) +
         "); deterministic in the seed — rerun with --gtest_filter='*Seeds/*/" +
         std::to_string(seed - 1) + "' to replay exactly";
}

// The same file builds twice: the default (tier1) matrix in uniscan_tests,
// and a wider seed matrix in uniscan_slow_tests (-DUNISCAN_SLOW_FUZZ,
// ctest label `slow`).
#ifdef UNISCAN_SLOW_FUZZ
constexpr std::uint64_t kVerdictSeedEnd = 41;
#else
constexpr std::uint64_t kVerdictSeedEnd = 9;
#endif

SynthSpec fuzz_spec(std::uint64_t seed) {
  Rng rng(seed * 7919 + 13);
  SynthSpec spec;
  spec.name = "fuzz" + std::to_string(seed);
  spec.num_inputs = 2 + rng.next_below(6);
  spec.num_dffs = 2 + rng.next_below(8);
  spec.num_gates = 20 + rng.next_below(60);
  spec.seed = seed;
  return spec;
}

class FuzzSatVerdict : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSatVerdict, AgreesWithPodemOnRandomCircuits) {
  const SynthSpec spec = fuzz_spec(GetParam() + 300);
  SCOPED_TRACE(fuzz_repro(GetParam(), spec));
  const Netlist c = generate_synthetic(spec);
  const ScanCircuit sc = insert_scan(c);
  const CompiledNetlist compiled(sc.netlist);
  const FaultList fl = FaultList::collapsed(sc.netlist);
  ASSERT_GT(fl.size(), 0u);
  const sat::SatEngine engine(compiled);

  constexpr int kBacktracks = 5000;
  const std::size_t stride = std::max<std::size_t>(1, fl.size() / 24);
  for (std::size_t fi = 0; fi < fl.size(); fi += stride) {
    const Fault& fault = fl[fi];
    SCOPED_TRACE("fault " + fault_to_string(sc.netlist, fault) + " depth 1");

    FrameModel proof(compiled, fault, 1);
    proof.set_state_assignable(true);
    const PodemResult pr = run_podem(proof, PodemGoal::ScanObserve, {kBacktracks, {}});
    const bool podem_exhausted = !pr.success && !pr.aborted && pr.backtracks <= kBacktracks;

    sat::SatEngineOptions sopt;
    sopt.frames = 1;
    sopt.state_assignable = true;
    const sat::SatResult sr = engine.prove(fault, sopt);
    if (sr.verdict == sat::SatVerdict::Aborted) continue;  // no claim (PR 4)

    if (pr.success) {
      ASSERT_EQ(sr.verdict, sat::SatVerdict::Testable)
          << "PODEM found a test the SAT miter calls unsatisfiable";
    } else if (podem_exhausted) {
      ASSERT_EQ(sr.verdict, sat::SatVerdict::RedundantProved)
          << "PODEM exhausted the space but SAT reports a test";
    }

    if (sr.verdict == sat::SatVerdict::Testable) {
      // Independent replay of the decoded artifacts.
      FrameModel replay(compiled, fault, sr.frames_used);
      replay.set_state_assignable(true);
      for (std::size_t d = 0; d < sr.scan_in.size(); ++d)
        replay.assign_state(d, sr.scan_in[d]);
      for (std::size_t t = 0; t < sr.subsequence.length(); ++t)
        for (std::size_t pi = 0; pi < sr.subsequence.num_inputs(); ++pi)
          replay.assign(t, pi, sr.subsequence.at(t, pi));
      replay.simulate();
      ASSERT_TRUE(replay.po_detection_frame().has_value() ||
                  replay.first_latched_effect().has_value())
          << "SAT test does not replay to a detection";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSatVerdict,
                         ::testing::Range<std::uint64_t>(1, kVerdictSeedEnd));

class FuzzSatTransition : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSatTransition, TransitionClaimsReplayAndStaySound) {
  // Transition faults: a Testable verdict must replay under the launch
  // history the engine reports, and a RedundantProved verdict must survive a
  // PODEM search attempt at the same depth (the SAT claim quantifies the
  // history, so no PODEM test at X history may exist either — X-history
  // detections survive every refinement by Kleene monotonicity).
  const SynthSpec spec = fuzz_spec(GetParam() + 700);
  SCOPED_TRACE(fuzz_repro(GetParam(), spec));
  const Netlist c = generate_synthetic(spec);
  const ScanCircuit sc = insert_scan(c);
  const CompiledNetlist compiled(sc.netlist);
  const auto tfaults = enumerate_transition_faults(sc.netlist);
  ASSERT_FALSE(tfaults.empty());
  const sat::SatEngine engine(compiled);

  const std::size_t stride = std::max<std::size_t>(1, tfaults.size() / 12);
  for (std::size_t fi = 0; fi < tfaults.size(); fi += stride) {
    SCOPED_TRACE("tfault " + transition_fault_to_string(sc.netlist, tfaults[fi]) + " depth 2");
    sat::SatEngineOptions sopt;
    sopt.frames = 2;  // launch + capture
    sopt.state_assignable = true;
    sopt.tf_prev_assignable = true;
    const sat::SatResult sr = engine.prove(tfaults[fi], sopt);
    if (sr.verdict == sat::SatVerdict::Aborted) continue;

    if (sr.verdict == sat::SatVerdict::Testable) {
      FrameModel replay(compiled, tfaults[fi], sr.frames_used);
      replay.set_state_assignable(true);
      replay.set_initial_prev_driven(sr.launch_prev);
      for (std::size_t d = 0; d < sr.scan_in.size(); ++d)
        replay.assign_state(d, sr.scan_in[d]);
      for (std::size_t t = 0; t < sr.subsequence.length(); ++t)
        for (std::size_t pi = 0; pi < sr.subsequence.num_inputs(); ++pi)
          replay.assign(t, pi, sr.subsequence.at(t, pi));
      replay.simulate();
      ASSERT_TRUE(replay.po_detection_frame().has_value() ||
                  replay.first_latched_effect().has_value())
          << "SAT transition test does not replay under its own launch history";
    } else {  // RedundantProved with a quantified history
      FrameModel model(compiled, tfaults[fi], 2);
      model.set_state_assignable(true);
      const PodemResult pr = run_podem(model, PodemGoal::ScanObserve, {2000, {}});
      ASSERT_FALSE(pr.success)
          << "PODEM found a transition test for a SAT-proved-redundant fault";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSatTransition,
                         ::testing::Range<std::uint64_t>(1, kVerdictSeedEnd));

}  // namespace
}  // namespace uniscan
