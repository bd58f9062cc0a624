// Differential oracle for the SAT engine (DESIGN.md §5l) over the fast
// corpus tier: PODEM and the CNF miter search the SAME space (fully
// specified (SI, T) tests of at most `frames` vectors, ScanObserve
// observation), so wherever both complete they must agree —
//
//   * PODEM finds a test        -> SAT must report Testable
//   * PODEM exhausts the space  -> SAT must report RedundantProved
//   * SAT reports Testable      -> the decoded (SI, T) artifacts must
//                                  replay to a real detection in an
//                                  independently constructed FrameModel
//
// Aborts on either side make no claim (PR 4) and skip the comparison.
// Failures name the circuit, the fault, and the unrolled depth.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>

#include "atpg/frame_model.hpp"
#include "atpg/podem.hpp"
#include "corpus/corpus.hpp"
#include "fault/fault.hpp"
#include "fault/fault_list.hpp"
#include "sat/sat_engine.hpp"
#include "scan/scan_insertion.hpp"
#include "sim/compiled_netlist.hpp"
#include "workloads/suite.hpp"

namespace uniscan {
namespace {

constexpr std::size_t kDepth = 1;           // unrolled frames for both engines
constexpr int kPodemBacktracks = 5000;      // generous: most faults resolve
constexpr std::size_t kMaxFaultsPerCircuit = 40;

/// Replay a SAT Testable verdict from its decoded artifacts alone — scan-in
/// state plus PI vectors — through a freshly built FrameModel, trusting
/// nothing the engine computed beyond those artifacts.
void expect_replay_detects(const CompiledNetlist& compiled, const Fault& fault,
                           const sat::SatResult& sr) {
  ASSERT_GE(sr.frames_used, 1u);
  ASSERT_LE(sr.frames_used, kDepth);
  FrameModel replay(compiled, fault, sr.frames_used);
  replay.set_state_assignable(true);
  for (std::size_t d = 0; d < sr.scan_in.size(); ++d) replay.assign_state(d, sr.scan_in[d]);
  ASSERT_EQ(sr.subsequence.length(), sr.frames_used);
  for (std::size_t t = 0; t < sr.subsequence.length(); ++t)
    for (std::size_t pi = 0; pi < sr.subsequence.num_inputs(); ++pi)
      replay.assign(t, pi, sr.subsequence.at(t, pi));
  replay.simulate();
  if (sr.observed_at_po) {
    ASSERT_TRUE(replay.po_detection_frame().has_value())
        << "SAT claimed a PO observation the replay does not show";
    EXPECT_LT(*replay.po_detection_frame(), sr.frames_used);
  } else {
    ASSERT_TRUE(sr.latched_dff.has_value());
    ASSERT_TRUE(replay.first_latched_effect().has_value())
        << "SAT claimed a latched observation the replay does not show";
  }
}

TEST(SatDifferential, FastCorpusAgreesWithPodem) {
  const auto suite = CorpusRegistry::global().suite_entries(CorpusTier::Fast);
  ASSERT_FALSE(suite.empty()) << "fast corpus tier is empty";

  std::size_t compared = 0, sat_aborted = 0, podem_open = 0;
  for (const SuiteEntry& entry : suite) {
    SCOPED_TRACE("circuit " + entry.name);
    const Netlist c = load_circuit(entry);
    const ScanCircuit sc = insert_scan(c);
    const CompiledNetlist compiled(sc.netlist);
    const FaultList fl = FaultList::collapsed(sc.netlist);
    const sat::SatEngine engine(compiled);

    const std::size_t stride = std::max<std::size_t>(1, fl.size() / kMaxFaultsPerCircuit);
    for (std::size_t fi = 0; fi < fl.size(); fi += stride) {
      const Fault& fault = fl[fi];
      SCOPED_TRACE("fault " + fault_to_string(sc.netlist, fault) + " depth " +
                   std::to_string(kDepth));

      FrameModel proof(compiled, fault, kDepth);
      proof.set_state_assignable(true);
      const PodemResult pr = run_podem(proof, PodemGoal::ScanObserve, {kPodemBacktracks, {}});
      const bool podem_exhausted =
          !pr.success && !pr.aborted && pr.backtracks <= kPodemBacktracks;

      sat::SatEngineOptions sopt;
      sopt.frames = kDepth;
      sopt.state_assignable = true;
      const sat::SatResult sr = engine.prove(fault, sopt);

      if (sr.verdict == sat::SatVerdict::Aborted) {
        ++sat_aborted;  // no claim either way (PR 4)
        continue;
      }
      if (sr.verdict == sat::SatVerdict::Testable) {
        EXPECT_FALSE(podem_exhausted)
            << "SAT found a test for a fault PODEM proved redundant";
        expect_replay_detects(compiled, fault, sr);
      } else {  // RedundantProved
        EXPECT_FALSE(pr.success) << "SAT proved UNSAT-at-depth a fault PODEM detects";
      }
      if (pr.success || podem_exhausted)
        ++compared;
      else
        ++podem_open;  // PODEM budget ran out: SAT's complete answer stands alone
    }
  }
  // The suite must actually exercise the oracle: a corpus where PODEM never
  // completes (or the sampler skips everything) would pass vacuously.
  EXPECT_GT(compared, 0u);
  RecordProperty("compared", static_cast<int>(compared));
  RecordProperty("sat_aborted", static_cast<int>(sat_aborted));
  RecordProperty("podem_open", static_cast<int>(podem_open));
}

TEST(SatDifferential, DeeperWindowNeverLosesTests) {
  // Monotonicity of the depth-bounded claim: anything Testable at depth 1
  // stays Testable at depth 2 (the encoder adds frames, never constraints
  // that could exclude a shorter test).
  const auto suite = CorpusRegistry::global().suite_entries(CorpusTier::Fast);
  ASSERT_FALSE(suite.empty());
  const SuiteEntry& entry = suite.front();
  SCOPED_TRACE("circuit " + entry.name);
  const ScanCircuit sc = insert_scan(load_circuit(entry));
  const CompiledNetlist compiled(sc.netlist);
  const FaultList fl = FaultList::collapsed(sc.netlist);
  const sat::SatEngine engine(compiled);

  const std::size_t stride = std::max<std::size_t>(1, fl.size() / 10);
  for (std::size_t fi = 0; fi < fl.size(); fi += stride) {
    SCOPED_TRACE("fault " + fault_to_string(sc.netlist, fl[fi]));
    sat::SatEngineOptions one, two;
    one.frames = 1;
    two.frames = 2;
    const sat::SatResult r1 = engine.prove(fl[fi], one);
    if (r1.verdict != sat::SatVerdict::Testable) continue;
    const sat::SatResult r2 = engine.prove(fl[fi], two);
    EXPECT_EQ(r2.verdict, sat::SatVerdict::Testable)
        << "depth-1 test vanished at depth 2";
  }
}

}  // namespace
}  // namespace uniscan
