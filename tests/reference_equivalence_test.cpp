// The fault-simulation kernel checked against the serial single-fault
// reference (reference_sim.hpp) on suite circuits, one test instance per
// circuit: stuck-at and transition detections and latch records for scan
// stimuli with long shift runs, with and without X primary inputs, the
// reference's good machine against SequentialSimulator, and session
// machine-pair states after two chunks. Small hand-built circuits pin the
// reference itself to hand-derived values.
#include <gtest/gtest.h>

#include "core/uniscan.hpp"
#include "netlist/builder.hpp"
#include "reference_sim.hpp"
#include "sim/fault_sim_session.hpp"
#include "util/rng.hpp"
#include "workloads/suite.hpp"

namespace uniscan {
namespace {

/// `len` random frames; each input is X with probability `x_rate`.
TestSequence random_sequence(std::size_t width, std::size_t len, std::uint64_t seed,
                             double x_rate = 0.0) {
  Rng rng(seed);
  TestSequence seq(width);
  for (std::size_t t = 0; t < len; ++t) {
    std::vector<V3> vec(width);
    for (auto& v : vec) {
      if (x_rate > 0.0 && rng.next_double() < x_rate) v = V3::X;
      else v = rng.next_bool() ? V3::One : V3::Zero;
    }
    seq.append(std::move(vec));
  }
  return seq;
}

/// Random vectors on C_scan with scan_sel held high for 14 of every 20
/// frames, so the chains shift long runs between functional captures;
/// every other input is X with probability `x_rate`.
TestSequence scan_shift_sequence(const ScanCircuit& sc, std::size_t len, std::uint64_t seed,
                                 double x_rate = 0.0) {
  TestSequence seq = random_sequence(sc.netlist.num_inputs(), len, seed, x_rate);
  for (std::size_t t = 0; t < len; ++t)
    seq.set(t, sc.scan_sel_index(), t % 20 < 14 ? V3::One : V3::Zero);
  return seq;
}

::testing::AssertionResult matches(const ReferenceRun& ref, const DetectionRecord& got,
                                   const LatchRecord& latch) {
  if (got.detected != ref.detection.detected || got.time != ref.detection.time)
    return ::testing::AssertionFailure()
           << "detected=" << got.detected << "@" << got.time << ", reference "
           << ref.detection.detected << "@" << ref.detection.time;
  if (latch.latched != ref.latch.latched || latch.ff_index != ref.latch.ff_index ||
      latch.time != ref.latch.time)
    return ::testing::AssertionFailure()
           << "latch=" << latch.latched << " ff" << latch.ff_index << "@" << latch.time
           << ", reference " << ref.latch.latched << " ff" << ref.latch.ff_index << "@"
           << ref.latch.time;
  return ::testing::AssertionSuccess();
}

void expect_stuck_at_matches(const Netlist& nl, const TestSequence& seq) {
  // Uncollapsed: every branch fault keeps its own per-pin injection.
  const FaultList fl = FaultList::uncollapsed(nl);
  FaultSimulator sim(nl);
  std::vector<LatchRecord> latch;
  const auto got = sim.run(seq, fl.faults(), &latch);
  ASSERT_EQ(got.size(), fl.size());
  std::size_t detected = 0;
  for (std::size_t i = 0; i < fl.size(); ++i) {
    ASSERT_TRUE(matches(reference_stuck_at(nl, fl[i], seq), got[i], latch[i]))
        << "fault " << i << ": " << fault_to_string(nl, fl[i]);
    detected += got[i].detected;
  }
  EXPECT_GT(detected, 0u) << "stimulus detects nothing; the comparison is vacuous";
}

void expect_transition_matches(const Netlist& nl, const TestSequence& seq) {
  const std::vector<TransitionFault> faults = enumerate_transition_faults(nl);
  TransitionFaultSimulator sim(nl);
  std::vector<LatchRecord> latch;
  const auto got = sim.run(seq, faults, &latch);
  ASSERT_EQ(got.size(), faults.size());
  std::size_t detected = 0;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    ASSERT_TRUE(matches(reference_transition(nl, faults[i], seq), got[i], latch[i]))
        << "transition fault " << i;
    detected += got[i].detected;
  }
  EXPECT_GT(detected, 0u) << "stimulus detects nothing; the comparison is vacuous";
}

class KernelMatchesReference : public ::testing::TestWithParam<const char*> {
 protected:
  Netlist circuit() const { return load_circuit(*find_suite_entry(GetParam())); }
};

TEST_P(KernelMatchesReference, StuckAtScanShiftSequences) {
  const ScanCircuit sc = insert_scan(circuit());
  expect_stuck_at_matches(sc.netlist, scan_shift_sequence(sc, 80, 12));
}

TEST_P(KernelMatchesReference, TransitionScanShiftSequences) {
  const ScanCircuit sc = insert_scan(circuit());
  expect_transition_matches(sc.netlist, scan_shift_sequence(sc, 80, 13));
}

TEST_P(KernelMatchesReference, StuckAtWithXInputs) {
  const ScanCircuit sc = insert_scan(circuit());
  expect_stuck_at_matches(sc.netlist, scan_shift_sequence(sc, 60, 7, 0.3));
}

TEST_P(KernelMatchesReference, TransitionWithXInputs) {
  const ScanCircuit sc = insert_scan(circuit());
  expect_transition_matches(sc.netlist, scan_shift_sequence(sc, 60, 8, 0.3));
}

/// The reference's good machine is SequentialSimulator's: the state
/// entering every frame, and the output values — a stuck-at-v fault on an
/// output stem is detected exactly at the first frame whose good value on
/// that output is the known opposite of v.
TEST_P(KernelMatchesReference, GoodMachineMatchesSequentialSimulator) {
  const Netlist nl = circuit();
  const TestSequence seq = random_sequence(nl.num_inputs(), 40, 42, 0.1);
  const SequentialSimulator gsim(nl);
  const SimTrace trace = gsim.simulate(seq, gsim.initial_state());
  ASSERT_EQ(trace.state.size(), seq.length() + 1);
  ASSERT_GT(nl.num_outputs(), 0u);

  for (std::size_t len = 1; len <= seq.length(); ++len) {
    TestSequence prefix = seq;
    prefix.truncate(len);
    const ReferenceRun r = reference_stuck_at(nl, Fault{nl.outputs()[0], kStemPin, false}, prefix);
    ASSERT_EQ(r.good, trace.state[len]) << "state after frame " << len - 1;
  }

  for (std::size_t o = 0; o < nl.num_outputs(); ++o) {
    for (const bool stuck_one : {false, true}) {
      const V3 opposite = stuck_one ? V3::Zero : V3::One;
      std::size_t first = 0;
      while (first < seq.length() && trace.po[first][o] != opposite) ++first;
      const ReferenceRun r =
          reference_stuck_at(nl, Fault{nl.outputs()[o], kStemPin, stuck_one}, seq);
      ASSERT_EQ(r.detection.detected, first < seq.length()) << "output " << o;
      if (r.detection.detected) ASSERT_EQ(r.detection.time, first) << "output " << o;
    }
  }
}

/// Sessions advanced by two chunks agree with the reference over the
/// concatenation: detection times for every fault, and for undetected
/// faults the machine pair (plus, for transition faults, the launch value).
TEST_P(KernelMatchesReference, SessionPairStatesAfterTwoChunks) {
  const ScanCircuit sc = insert_scan(circuit());
  const Netlist& nl = sc.netlist;
  const TestSequence chunk1 = scan_shift_sequence(sc, 20, 41);
  const TestSequence chunk2 = scan_shift_sequence(sc, 20, 42);
  TestSequence whole = chunk1;
  whole.append_sequence(chunk2);
  State good, faulty;

  const FaultList fl = FaultList::uncollapsed(nl);
  FaultSimSession ses(nl, fl.faults());
  ses.advance(chunk1);
  ses.advance(chunk2);
  for (std::size_t i = 0; i < fl.size(); ++i) {
    const ReferenceRun r = reference_stuck_at(nl, fl[i], whole);
    ASSERT_EQ(ses.is_detected(i), r.detection.detected) << "fault " << i;
    if (r.detection.detected) {
      ASSERT_EQ(ses.detections()[i].time, r.detection.time) << "fault " << i;
      continue;
    }
    ses.pair_state(i, good, faulty);
    ASSERT_EQ(good, r.good) << "fault " << i;
    ASSERT_EQ(faulty, r.faulty) << "fault " << i;
  }

  const std::vector<TransitionFault> tfaults = enumerate_transition_faults(nl);
  TransitionSimSession tses(nl, tfaults);
  tses.advance(chunk1);
  tses.advance(chunk2);
  V3 prev = V3::X;
  for (std::size_t i = 0; i < tfaults.size(); ++i) {
    const ReferenceRun r = reference_transition(nl, tfaults[i], whole);
    ASSERT_EQ(tses.is_detected(i), r.detection.detected) << "transition fault " << i;
    if (r.detection.detected) {
      ASSERT_EQ(tses.detections()[i].time, r.detection.time) << "transition fault " << i;
      continue;
    }
    tses.pair_state(i, good, faulty, prev);
    ASSERT_EQ(good, r.good) << "transition fault " << i;
    ASSERT_EQ(faulty, r.faulty) << "transition fault " << i;
    ASSERT_EQ(prev, r.prev_driven) << "transition fault " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Suite, KernelMatchesReference,
                         ::testing::Values("s27", "b01", "b02", "b06", "s208", "s298", "s386",
                                           "b09"));

/// a, b -> AND -> PO, and a -> DFF -> PO: one gate, one flip-flop.
Netlist and_with_delay() {
  NetlistBuilder b("and_with_delay");
  const GateId a = b.input("a");
  const GateId in_b = b.input("b");
  b.output(b.and_("y", {a, in_b}));
  b.output(b.dff("q", a));
  return b.build();
}

TestSequence frames(std::initializer_list<std::vector<V3>> vecs) {
  TestSequence seq(vecs.begin()->size());
  for (const auto& v : vecs) seq.append(v);
  return seq;
}

constexpr V3 O = V3::Zero, I = V3::One, X = V3::X;

TEST(ReferenceSim, StuckAtDetectedAtFirstKnownOpposingOutput) {
  const Netlist nl = and_with_delay();
  const GateId y = nl.outputs()[0];
  // y stuck-at-0: invisible while y = 0 or X, detected when a = b = 1.
  const TestSequence seq = frames({{O, I}, {X, I}, {I, I}, {I, I}});
  const ReferenceRun r = reference_stuck_at(nl, Fault{y, kStemPin, false}, seq);
  EXPECT_TRUE(r.detection.detected);
  EXPECT_EQ(r.detection.time, 2u);
  EXPECT_FALSE(r.latch.latched);
}

TEST(ReferenceSim, BranchFaultActsOnItsPinOnly) {
  const Netlist nl = and_with_delay();
  const GateId q = nl.dffs()[0];
  // a's branch into the DFF stuck-at-0: the AND output is untouched, the
  // flip-flop latches 0 instead of 1 in frame 0 and shows it in frame 1.
  const TestSequence seq = frames({{I, I}, {O, O}});
  const ReferenceRun r = reference_stuck_at(nl, Fault{q, 0, false}, seq);
  EXPECT_TRUE(r.latch.latched);
  EXPECT_EQ(r.latch.ff_index, 0u);
  EXPECT_EQ(r.latch.time, 0u);
  EXPECT_TRUE(r.detection.detected);
  EXPECT_EQ(r.detection.time, 1u);
  EXPECT_EQ(r.good, State{O});
  EXPECT_EQ(r.faulty, State{O});
}

TEST(ReferenceSim, TransitionFaultNeedsALaunchFrame) {
  const Netlist nl = and_with_delay();
  const GateId y = nl.outputs()[0];
  const TransitionFault str{y, kStemPin, true};
  // Held at 1 from power-up the line's previous value is X, never 0: the
  // slow-to-rise fault shows X then 1, and is never detected.
  EXPECT_FALSE(reference_transition(nl, str, frames({{I, I}, {I, I}})).detection.detected);
  // A 0 -> 1 launch delays the rise by one frame: detected at the launch.
  const ReferenceRun r = reference_transition(nl, str, frames({{O, I}, {I, I}, {I, I}}));
  EXPECT_TRUE(r.detection.detected);
  EXPECT_EQ(r.detection.time, 1u);
  EXPECT_EQ(r.prev_driven, I);
  // The slow-to-fall twin is detected by the opposite edge only.
  const TransitionFault stf{y, kStemPin, false};
  EXPECT_FALSE(reference_transition(nl, stf, frames({{O, I}, {I, I}})).detection.detected);
  const ReferenceRun f = reference_transition(nl, stf, frames({{I, I}, {O, I}}));
  EXPECT_TRUE(f.detection.detected);
  EXPECT_EQ(f.detection.time, 1u);
}

}  // namespace
}  // namespace uniscan
