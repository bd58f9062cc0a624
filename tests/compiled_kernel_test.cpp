// CompiledNetlist kernel tests: CSR/structural invariants of the compiled
// form, and the cone-pruned fault-simulation kernel checked fault by fault
// against the serial single-fault reference (reference_sim.hpp) at several
// thread counts — on the embedded s27 scan circuit and on fuzzed synthetic
// netlists, over fault lists that include branch faults (forced per-pin
// injection chains) and from the all-X power-up state.
#include "sim/compiled_netlist.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/uniscan.hpp"
#include "fault/fault_list.hpp"
#include "reference_sim.hpp"
#include "sim/fault_sim.hpp"
#include "sim/fault_sim_session.hpp"
#include "sim/sequential_sim.hpp"
#include "sim/transition_sim.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace uniscan {
namespace {

/// Restores the thread count on scope exit so tests sharing the binary
/// don't leak settings into each other.
struct ThreadsGuard {
  ~ThreadsGuard() { ThreadPool::set_global_threads(1); }
};

Netlist fuzz_netlist(std::uint64_t seed) {
  Rng rng(seed * 7919 + 13);
  SynthSpec spec;
  spec.name = "kernelfuzz" + std::to_string(seed);
  spec.num_inputs = 2 + rng.next_below(6);
  spec.num_dffs = 2 + rng.next_below(8);
  spec.num_gates = 20 + rng.next_below(60);
  spec.seed = seed;
  return generate_synthetic(spec);
}

TestSequence random_sequence(const Netlist& nl, std::size_t len, std::uint64_t seed) {
  TestSequence seq(nl.num_inputs());
  Rng rng(seed);
  for (std::size_t t = 0; t < len; ++t) seq.append_x();
  seq.random_fill(rng);
  return seq;
}

void check_structure(const Netlist& nl) {
  const CompiledNetlist cnl(nl);
  ASSERT_EQ(cnl.num_gates(), nl.num_gates());

  // Fanin CSR mirrors the netlist; fanout CSR is its exact transpose, with
  // every row sorted by reader id (the counting sort guarantees it).
  std::multiset<std::pair<GateId, GateId>> want_edges, got_edges;
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    ASSERT_EQ(cnl.type(g), nl.gate(g).type);
    const auto fan = cnl.fanins(g);
    ASSERT_EQ(fan.size(), nl.gate(g).fanins.size());
    for (std::size_t p = 0; p < fan.size(); ++p) {
      ASSERT_EQ(fan[p], nl.gate(g).fanins[p]);
      want_edges.emplace(fan[p], g);
    }
    const auto fo = cnl.fanouts(g);
    ASSERT_TRUE(std::is_sorted(fo.begin(), fo.end()));
    for (const GateId r : fo) got_edges.emplace(g, r);
  }
  ASSERT_EQ(got_edges, want_edges);

  // Evaluation order: a permutation of the combinational core in
  // non-decreasing level order, covered exactly by homogeneous type runs.
  std::vector<GateId> sorted_eval = cnl.eval_order();
  std::vector<GateId> sorted_topo = nl.topo_order();
  std::sort(sorted_eval.begin(), sorted_eval.end());
  std::sort(sorted_topo.begin(), sorted_topo.end());
  ASSERT_EQ(sorted_eval, sorted_topo);

  const auto& order = cnl.eval_order();
  for (std::size_t i = 1; i < order.size(); ++i)
    ASSERT_LE(cnl.level(order[i - 1]), cnl.level(order[i]));

  std::uint32_t covered = 0;
  for (const TypeRun& r : cnl.runs()) {
    ASSERT_EQ(r.begin, covered);
    ASSERT_LT(r.begin, r.end);
    for (std::uint32_t i = r.begin; i < r.end; ++i) {
      ASSERT_EQ(cnl.type(order[i]), r.type);
      ASSERT_EQ(cnl.level(order[i]), r.level);
    }
    covered = r.end;
  }
  ASSERT_EQ(covered, order.size());

  // Level buckets agree with per-gate levels.
  for (std::size_t l = 0; l < cnl.num_levels(); ++l)
    for (std::uint32_t i = cnl.level_begin(l); i < cnl.level_begin(l + 1); ++i)
      ASSERT_EQ(cnl.level(order[i]), l);
}

TEST(CompiledNetlist, StructureMatchesNetlistS27Scan) {
  check_structure(insert_scan(make_s27()).netlist);
}

TEST(CompiledNetlist, StructureMatchesNetlistFuzz) {
  for (std::uint64_t seed = 1; seed < 6; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    check_structure(fuzz_netlist(seed));
  }
}

TEST(CompiledNetlist, RequiresFinalizedNetlist) {
  Netlist nl;
  (void)nl.add_input("a");
  ASSERT_THROW(CompiledNetlist{nl}, std::invalid_argument);
}

TEST(CompiledNetlist, FullEvalMatchesPerGateReference) {
  for (std::uint64_t seed = 1; seed < 6; ++seed) {
    const Netlist nl = fuzz_netlist(seed);
    const CompiledNetlist cnl(nl);
    Rng rng(seed + 77);
    // Random three-valued boundary values (X included) for a few frames.
    for (int rep = 0; rep < 8; ++rep) {
      std::vector<V3> kernel(nl.num_gates(), V3::X), ref(nl.num_gates(), V3::X);
      const auto rand_v3 = [&]() {
        const auto r = rng.next_below(3);
        return r == 0 ? V3::Zero : (r == 1 ? V3::One : V3::X);
      };
      for (const GateId pi : nl.inputs()) kernel[pi] = ref[pi] = rand_v3();
      for (const GateId ff : nl.dffs()) kernel[ff] = ref[ff] = rand_v3();

      cnl.eval_full_v3(kernel.data());
      V3 buf[64];
      for (const GateId g : nl.topo_order()) {
        const Gate& gate = nl.gate(g);
        for (std::size_t p = 0; p < gate.fanins.size(); ++p) buf[p] = ref[gate.fanins[p]];
        ref[g] = eval_gate_v3(gate.type, buf, gate.fanins.size());
      }
      ASSERT_EQ(kernel, ref) << "seed=" << seed << " rep=" << rep;
    }
  }
}

/// Kernel detection and latch records equal the reference's.
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

Netlist kernel_circuit(std::uint64_t seed) {
  return seed == 0 ? insert_scan(make_s27()).netlist : fuzz_netlist(seed);
}

class KernelEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KernelEquivalence, StuckAtEnginesBitIdentical) {
  ThreadsGuard guard;
  const std::uint64_t seed = GetParam();
  const Netlist nl = kernel_circuit(seed);
  // Uncollapsed list: keeps every branch fault so the per-pin forced
  // injection chains are exercised, several faults per gate included.
  const FaultList fl = FaultList::uncollapsed(nl);
  const TestSequence seq = random_sequence(nl, 40, seed * 31 + 7);
  std::vector<ReferenceRun> ref;
  for (const Fault& f : fl.faults()) ref.push_back(reference_stuck_at(nl, f, seq));

  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool::set_global_threads(threads);
    FaultSimulator sim(nl);
    std::vector<LatchRecord> latch;
    const auto got = sim.run(seq, fl.faults(), &latch);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < got.size(); ++i)
      ASSERT_TRUE(matches(ref[i], got[i], latch[i])) << "fault " << i;
  }
}

TEST_P(KernelEquivalence, TransitionEnginesBitIdentical) {
  ThreadsGuard guard;
  const std::uint64_t seed = GetParam();
  const Netlist nl = kernel_circuit(seed);
  const std::vector<TransitionFault> faults = enumerate_transition_faults(nl);
  const TestSequence seq = random_sequence(nl, 40, seed * 37 + 3);
  std::vector<ReferenceRun> ref;
  for (const TransitionFault& f : faults) ref.push_back(reference_transition(nl, f, seq));

  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool::set_global_threads(threads);
    TransitionFaultSimulator sim(nl);
    std::vector<LatchRecord> latch;
    const auto got = sim.run(seq, faults, &latch);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < got.size(); ++i)
      ASSERT_TRUE(matches(ref[i], got[i], latch[i])) << "fault " << i;
  }
}

/// Sessions after two chunks: detections (absolute times) for every fault,
/// and for undetected faults the machine-pair state — including DFFs a
/// pruned batch never samples, which pair_state reconstructs from the good
/// machine — plus, in the transition model, the launch history.
TEST_P(KernelEquivalence, SessionStatesBitIdentical) {
  ThreadsGuard guard;
  const std::uint64_t seed = GetParam();
  const Netlist nl = kernel_circuit(seed);
  const FaultList fl = FaultList::uncollapsed(nl);
  const std::vector<TransitionFault> tfaults = enumerate_transition_faults(nl);
  const TestSequence chunk1 = random_sequence(nl, 12, seed * 41 + 1);
  const TestSequence chunk2 = random_sequence(nl, 12, seed * 41 + 2);
  TestSequence whole = chunk1;
  whole.append_sequence(chunk2);
  std::vector<ReferenceRun> ref, tref;
  for (const Fault& f : fl.faults()) ref.push_back(reference_stuck_at(nl, f, whole));
  for (const TransitionFault& f : tfaults) tref.push_back(reference_transition(nl, f, whole));

  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool::set_global_threads(threads);
    State good, faulty;
    V3 prev = V3::X;

    FaultSimSession ses(nl, fl.faults());
    ses.advance(chunk1);
    ses.advance(chunk2);
    for (std::size_t i = 0; i < fl.size(); ++i) {
      const ReferenceRun& r = ref[i];
      ASSERT_EQ(ses.is_detected(i), r.detection.detected) << "fault " << i;
      if (r.detection.detected) {
        ASSERT_EQ(ses.detections()[i].time, r.detection.time) << "fault " << i;
        continue;
      }
      ses.pair_state(i, good, faulty);
      ASSERT_EQ(good, r.good) << "fault " << i;
      ASSERT_EQ(faulty, r.faulty) << "fault " << i;
    }

    TransitionSimSession tses(nl, tfaults);
    tses.advance(chunk1);
    tses.advance(chunk2);
    for (std::size_t i = 0; i < tfaults.size(); ++i) {
      const ReferenceRun& r = tref[i];
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
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelEquivalence, ::testing::Range<std::uint64_t>(0, 5));

/// From the all-X power-up state with all-X inputs nothing is detectable or
/// latched — exercises optimistic-X propagation through the type runs.
TEST(KernelEquivalence, AllXSequenceDetectsNothing) {
  const Netlist nl = insert_scan(make_s27()).netlist;
  const FaultList fl = FaultList::uncollapsed(nl);
  TestSequence seq(nl.num_inputs());
  for (int t = 0; t < 10; ++t) seq.append_x();

  FaultSimulator sim(nl);
  std::vector<LatchRecord> latch;
  const auto got = sim.run(seq, fl.faults(), &latch);
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_FALSE(got[i].detected) << "fault " << i;
    ASSERT_FALSE(latch[i].latched) << "fault " << i;
    ASSERT_TRUE(matches(reference_stuck_at(nl, fl[i], seq), got[i], latch[i])) << "fault " << i;
  }
}

/// Pruned batch programs must cover exactly the gates a batch can disturb
/// plus their support, and the good-machine (empty) batch must never prune.
TEST(CompiledNetlist, BuildProgramConeInvariants) {
  const Netlist nl = fuzz_netlist(3);
  const CompiledNetlist cnl(nl);

  // Empty site list: pruning is disabled even when requested.
  const BatchProgram good = cnl.build_program({}, {}, true);
  ASSERT_FALSE(good.pruned);
  ASSERT_EQ(good.eval.size(), cnl.eval_order().size());
  ASSERT_EQ(good.samp_dff.size(), nl.num_dffs());
  ASSERT_EQ(good.obs_po.size(), nl.num_outputs());

  // Single-site program: every evaluated gate's fanins are evaluated,
  // loaded, or sampled — no gate reads a stale value.
  const GateId site = nl.topo_order().front();
  const BatchProgram p = cnl.build_program(std::span<const GateId>(&site, 1), {}, true);
  ASSERT_TRUE(p.pruned);
  std::vector<std::uint8_t> have(nl.num_gates(), 0);
  for (const GateId pi : nl.inputs()) have[pi] = 1;
  for (const std::uint32_t j : p.samp_dff) have[nl.dffs()[j]] = 1;
  for (const GateId g : p.eval) have[g] = 1;
  for (const GateId g : p.eval)
    for (const GateId f : cnl.fanins(g)) ASSERT_TRUE(have[f]) << "gate " << g << " reads " << f;
  for (const std::uint32_t j : p.samp_dff)
    if (cnl.dff_d()[j] != kNoGate)
      ASSERT_TRUE(have[cnl.dff_d()[j]]) << "dff " << j;
  // Observable sets are subsets of the full ones.
  ASSERT_LE(p.obs_po.size(), nl.num_outputs());
  ASSERT_LE(p.latch_dff.size(), p.samp_dff.size());
}

}  // namespace
}  // namespace uniscan
