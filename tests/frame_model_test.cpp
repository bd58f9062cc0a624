#include "atpg/frame_model.hpp"

#include <gtest/gtest.h>

#include <string>
#include <variant>

#include "fault/fault_list.hpp"
#include "scan/scan_insertion.hpp"
#include "util/rng.hpp"
#include "workloads/circuits.hpp"
#include "workloads/suite.hpp"

namespace uniscan {
namespace {

TEST(DCalc, PairConstantsAndPredicates) {
  EXPECT_TRUE(is_d_or_dbar(V5::d()));
  EXPECT_TRUE(is_d_or_dbar(V5::dbar()));
  EXPECT_FALSE(is_d_or_dbar(V5::one()));
  EXPECT_FALSE(is_d_or_dbar(V5{V3::One, V3::X}));
  EXPECT_TRUE(is_fully_known(V5::d()));
  EXPECT_FALSE(is_fully_known(V5::x()));
  EXPECT_EQ(v5_to_char(V5::d()), 'D');
  EXPECT_EQ(v5_to_char(V5::dbar()), 'B');
}

TEST(DCalc, GateEvaluationPropagatesD) {
  // AND(D, 1) = D; AND(D, 0) = 0; AND(D, D') = 0.
  {
    const V5 in[] = {V5::d(), V5::one()};
    EXPECT_EQ(eval_gate_v5(GateType::And, in, 2), V5::d());
  }
  {
    const V5 in[] = {V5::d(), V5::zero()};
    EXPECT_EQ(eval_gate_v5(GateType::And, in, 2), V5::zero());
  }
  {
    const V5 in[] = {V5::d(), V5::dbar()};
    EXPECT_EQ(eval_gate_v5(GateType::And, in, 2), V5::zero());
  }
  {
    const V5 in[] = {V5::d()};
    EXPECT_EQ(eval_gate_v5(GateType::Not, in, 1), V5::dbar());
  }
  {
    const V5 in[] = {V5::d(), V5::d()};
    EXPECT_EQ(eval_gate_v5(GateType::Xor, in, 2), V5::zero());
  }
}

TEST(FrameModel, StemFaultForcedEveryFrame) {
  const Netlist nl = make_s27();
  const auto g8 = nl.find("G8");
  ASSERT_TRUE(g8);
  FrameModel model(nl, Fault{*g8, kStemPin, true}, 3);
  model.simulate();
  for (std::size_t f = 0; f < 3; ++f) EXPECT_EQ(model.value(f, *g8).faulty, V3::One);
}

TEST(FrameModel, ActivationCreatesD) {
  const Netlist nl = make_s27();
  // G14 = NOT(G0); fault G14 s-a-0 is activated by G0 = 0.
  const auto g14 = nl.find("G14");
  const auto g0_pi = nl.find("G0");
  ASSERT_TRUE(g14 && g0_pi);
  FrameModel model(nl, Fault{*g14, kStemPin, false}, 1);
  // PI index of G0.
  std::size_t pi_index = 0;
  for (std::size_t i = 0; i < nl.num_inputs(); ++i)
    if (nl.inputs()[i] == *g0_pi) pi_index = i;
  model.assign(0, pi_index, V3::Zero);
  model.simulate();
  EXPECT_EQ(model.value(0, *g14), V5::d());
  EXPECT_TRUE(model.any_effect());
}

TEST(FrameModel, InitialStateCarriesIntoFrameZero) {
  const Netlist nl = make_s27();
  FrameModel model(nl, Fault{0, kStemPin, false}, 2);
  State good(3, V3::One), faulty(3, V3::One);
  faulty[1] = V3::Zero;  // pre-latched fault effect at FF 1
  model.set_initial_state(good, faulty);
  model.simulate();
  EXPECT_EQ(model.value(0, nl.dffs()[1]), V5::d());
}

TEST(FrameModel, StateAssignableReplacesFixedState) {
  const Netlist nl = make_s27();
  FrameModel model(nl, Fault{0, kStemPin, false}, 1);
  model.set_state_assignable(true);
  model.assign_state(0, V3::One);
  model.simulate();
  EXPECT_EQ(model.value(0, nl.dffs()[0]).good, V3::One);
  EXPECT_EQ(model.value(0, nl.dffs()[1]).good, V3::X);  // unassigned
}

TEST(FrameModel, PinnedInputsSurviveClear) {
  const Netlist nl = make_s27();
  FrameModel model(nl, Fault{0, kStemPin, false}, 3);
  model.pin_input(2, V3::One);
  model.clear_assignments();
  for (std::size_t f = 0; f < 3; ++f) EXPECT_EQ(model.assignment(f, 2), V3::One);
}

TEST(FrameModel, ExtractSequenceKeepsAssignments) {
  const Netlist nl = make_s27();
  FrameModel model(nl, Fault{0, kStemPin, false}, 4);
  model.assign(1, 0, V3::One);
  model.assign(2, 3, V3::Zero);
  const TestSequence seq = model.extract_sequence(3);
  ASSERT_EQ(seq.length(), 3u);
  EXPECT_EQ(seq.at(1, 0), V3::One);
  EXPECT_EQ(seq.at(2, 3), V3::Zero);
  EXPECT_EQ(seq.at(0, 0), V3::X);
}

TEST(FrameModel, CostsFavourPrimaryInputsOverState) {
  const Netlist nl = make_s27();
  FrameModel model(nl, Fault{0, kStemPin, false}, 1);
  // PI cost is 1; DFF output cost carries the per-frame penalty.
  for (GateId pi : nl.inputs()) {
    EXPECT_EQ(model.cost0(pi), 1u);
    EXPECT_EQ(model.cost1(pi), 1u);
  }
  for (GateId ff : nl.dffs()) {
    EXPECT_GT(model.cost0(ff), 1u);
    EXPECT_GT(model.cost1(ff), 1u);
  }
}

TEST(FrameModel, LatchedEffectReported) {
  // Scan circuit: fault effect reaching a chain cell must show up in
  // first_latched_effect when inputs activate it.
  const ScanCircuit sc = insert_scan(make_s27());
  const Netlist& nl = sc.netlist;
  // Fault on the D-path of the first chain cell: mux output s-a-1 while the
  // functional D is 0. Find the mux feeding cell 0.
  const GateId mux = nl.gate(sc.chain().cells[0]).fanins[0];
  ASSERT_EQ(nl.gate(mux).type, GateType::Mux2);
  FrameModel model(nl, Fault{mux, kStemPin, true}, 2);
  State known(nl.num_dffs(), V3::Zero);
  model.set_initial_state(known, known);
  // scan_sel = 0 keeps functional mode; G0=1,G1=0,G2=0,G3=0 gives G10=...
  for (std::size_t i = 0; i < nl.num_inputs(); ++i) model.assign(0, i, V3::Zero);
  model.simulate();
  if (!model.first_latched_effect().has_value()) {
    // The all-zero vector may not activate; try G0 = 1.
    model.assign(0, 0, V3::One);
    model.simulate();
  }
  ASSERT_TRUE(model.first_latched_effect().has_value());
  EXPECT_EQ(model.first_latched_effect()->frame, 0u);
  EXPECT_EQ(model.first_latched_effect()->dff_index, 0u);
}

// ---------------------------------------------------------------------------
// FrameModelIncremental: simulate() re-evaluates only the fanout cones of
// what changed since the previous call. After every call the model must
// agree exactly with a freshly built model (whose first simulate() evaluates
// every frame) given the same configuration and assignments: every value,
// the D-frontier in order, and the detection and any-effect results.

using AnyFault = std::variant<Fault, TransitionFault>;

struct FaultCase {
  std::string label;
  AnyFault fault;
};

/// Fault sites covering every forcing path of the model on a scan circuit.
std::vector<FaultCase> fault_cases(const Netlist& nl, bool transition) {
  const auto& topo = nl.topo_order();
  const GateId comb = topo[topo.size() / 2];
  GateId multi = comb;  // a combinational gate with two or more fanins
  for (std::size_t i = topo.size(); i-- > 0;)
    if (nl.gate(topo[i]).fanins.size() >= 2) multi = topo[i];
  // A branch read straight off a primary input: a decision there gives the
  // forced pin a fault effect its driver does not carry.
  GateId pi_reader = multi;
  std::int16_t pi_pin = 0;
  for (std::size_t i = topo.size(); i-- > 0;) {
    const auto& fi = nl.gate(topo[i]).fanins;
    for (std::size_t p = 0; p < fi.size() && fi.size() >= 2; ++p)
      if (nl.gate(fi[p]).type == GateType::Input) {
        pi_reader = topo[i];
        pi_pin = static_cast<std::int16_t>(p);
      }
  }
  const GateId pi = nl.inputs()[0];
  const GateId ff = nl.dffs()[0];
  const GateId last_ff = nl.dffs().back();
  if (transition)
    return {{"str-comb-stem", TransitionFault{comb, kStemPin, true}},
            {"stf-comb-stem", TransitionFault{comb, kStemPin, false}},
            {"str-branch", TransitionFault{multi, 1, true}},
            {"stf-branch", TransitionFault{multi, 0, false}},
            {"str-pi-branch", TransitionFault{pi_reader, pi_pin, true}},
            {"stf-pi-branch", TransitionFault{pi_reader, pi_pin, false}},
            {"str-pi-stem", TransitionFault{pi, kStemPin, true}},
            {"stf-dff-stem", TransitionFault{ff, kStemPin, false}},
            {"str-dff-d-pin", TransitionFault{last_ff, 0, true}}};
  return {{"sa0-pi-stem", Fault{pi, kStemPin, false}},
          {"sa1-dff-stem", Fault{ff, kStemPin, true}},
          {"sa1-comb-stem", Fault{comb, kStemPin, true}},
          {"sa0-branch", Fault{multi, 1, false}},
          {"sa0-pi-branch", Fault{pi_reader, pi_pin, false}},
          {"sa1-pi-branch", Fault{pi_reader, pi_pin, true}},
          {"sa1-dff-d-pin", Fault{last_ff, 0, true}}};
}

FrameModel make_model(const CompiledNetlist& cnl, const AnyFault& f, std::size_t frames) {
  return std::visit([&](const auto& fault) { return FrameModel(cnl, fault, frames); }, f);
}

/// Everything a model's configuration holds besides its assignments.
struct ModelSetup {
  bool state_assignable = false;
  std::optional<std::size_t> pinned;  // PI held at 0 in every frame
  State good, faulty;
  V3 prev_driven = V3::X;
};

void configure(FrameModel& m, const ModelSetup& s) {
  m.set_state_assignable(s.state_assignable);
  if (s.pinned) m.pin_input(*s.pinned, V3::Zero);
  m.set_initial_state(s.good, s.faulty);
  m.set_initial_prev_driven(s.prev_driven);
}

V3 random_v3(Rng& rng) { return static_cast<V3>(rng.next_below(3)); }

/// A random machine pair state; some cells carry a fault effect.
void random_state(Rng& rng, ModelSetup& s, std::size_t ndff) {
  s.good.assign(ndff, V3::X);
  s.faulty.assign(ndff, V3::X);
  for (std::size_t j = 0; j < ndff; ++j) {
    s.good[j] = random_v3(rng);
    s.faulty[j] = rng.next_below(5) == 0 ? random_v3(rng) : s.good[j];
  }
}

struct Tally {
  std::size_t frontier_steps = 0, effect_steps = 0, detect_steps = 0;
  // Frontier entries at a branch fault's gate whose effect sits only on the
  // forced pin (no fanin net carries one).
  std::size_t forced_pin_frontier = 0;
};

/// The D-frontier, detection and any-effect results by their definitions,
/// from a model's values: the whole-netlist scan of every frame that the
/// model's sparse bookkeeping must reproduce.
struct Derived {
  std::vector<std::pair<std::size_t, GateId>> frontier;
  std::optional<std::size_t> po;
  std::optional<std::pair<std::size_t, std::size_t>> latch;  // (frame, dff index)
  bool any_effect = false;
};

Derived derive(const FrameModel& m) {
  const Netlist& nl = m.netlist();
  Derived d;
  bool comb_effect = false;
  for (std::size_t f = 0; f < m.num_frames(); ++f) {
    for (GateId g : nl.topo_order()) {
      const V5 v = m.value(f, g);
      comb_effect |= is_d_or_dbar(v);
      if (is_fully_known(v)) continue;
      for (std::size_t p = 0; p < nl.gate(g).fanins.size(); ++p) {
        if (is_d_or_dbar(m.pin_value(f, g, p))) {
          d.frontier.emplace_back(f, g);
          break;
        }
      }
    }
    for (GateId po : nl.outputs())
      if (!d.po && is_d_or_dbar(m.value(f, po))) d.po = f;
    // Next state = the D pin's value, with D-pin branch forcing; among equal
    // frames the deepest DFF wins.
    for (std::size_t j = nl.num_dffs(); j-- > 0 && !d.latch;)
      if (is_d_or_dbar(m.pin_value(f, nl.dffs()[j], 0))) d.latch = {{f, j}};
  }
  d.any_effect = comb_effect || !d.frontier.empty() || d.po || d.latch;
  return d;
}

void expect_results(const FrameModel& m, const Derived& want, const std::string& where) {
  ASSERT_EQ(m.d_frontier(), want.frontier) << where;
  ASSERT_EQ(m.po_detection_frame(), want.po) << where;
  const auto latch = m.first_latched_effect();
  ASSERT_EQ(latch.has_value(), want.latch.has_value()) << where;
  if (latch) {
    ASSERT_EQ(latch->frame, want.latch->first) << where;
    ASSERT_EQ(latch->dff_index, want.latch->second) << where;
  }
  ASSERT_EQ(m.any_effect(), want.any_effect) << where;
}

/// `got` (event-driven) against `fresh` (every frame evaluated): identical
/// values, and both models' results equal to their definitions.
void expect_same(const FrameModel& got, const FrameModel& fresh, const std::string& where,
                 Tally& tally) {
  const std::size_t ng = got.netlist().num_gates();
  for (std::size_t f = 0; f < got.num_frames(); ++f)
    for (GateId g = 0; g < ng; ++g)
      ASSERT_TRUE(got.value(f, g) == fresh.value(f, g))
          << where << ": frame " << f << " gate " << got.netlist().gate(g).name << " got "
          << v5_to_char(got.value(f, g)) << " want " << v5_to_char(fresh.value(f, g));
  const Derived want = derive(fresh);
  expect_results(fresh, want, where + " (fresh model)");
  expect_results(got, want, where);
  tally.frontier_steps += !want.frontier.empty();
  tally.effect_steps += want.any_effect;
  tally.detect_steps += want.po || want.latch;
  for (const auto& [f, g] : want.frontier) {
    if (g != got.fault().gate) continue;
    bool driver_effect = false;
    for (GateId in : got.netlist().gate(g).fanins) driver_effect |= is_d_or_dbar(got.value(f, in));
    tally.forced_pin_frontier += !driver_effect;
  }
}

/// Drive one model through a PODEM-like random walk of assignments,
/// checking it against a fresh model after every simulate().
void run_walk(const CompiledNetlist& cnl, const FaultCase& fc, ModelSetup setup,
              std::uint64_t seed, Tally& tally) {
  constexpr std::size_t kFrames = 4;
  constexpr int kSteps = 120;
  const Netlist& nl = cnl.netlist();
  const std::size_t npi = nl.num_inputs(), ndff = nl.num_dffs();
  Rng rng(seed);
  FrameModel m = make_model(cnl, fc.fault, kFrames);
  configure(m, setup);

  struct Var {
    std::size_t frame, index;  // index >= npi: scan-in cell index - npi
  };
  std::vector<Var> stack;
  const auto value_of = [&](const Var& v) {
    return v.index >= npi ? m.state_assignment(v.index - npi) : m.assignment(v.frame, v.index);
  };
  const auto set = [&](const Var& v, V3 x) {
    if (v.index >= npi)
      m.assign_state(v.index - npi, x);
    else
      m.assign(v.frame, v.index, x);
  };
  const auto decide = [&]() {
    for (int tries = 0; tries < 8; ++tries) {
      Var v{rng.next_below(kFrames), rng.next_below(npi)};
      if (setup.state_assignable && rng.next_below(4) == 0) v = {0, npi + rng.next_below(ndff)};
      if (v.index < npi && setup.pinned && v.index == *setup.pinned) continue;
      if (value_of(v) != V3::X) continue;
      set(v, rng.next_bool() ? V3::One : V3::Zero);
      stack.push_back(v);
      return;
    }
  };

  for (int step = 0; step < kSteps; ++step) {
    const std::uint64_t op = rng.next_below(20);
    if (op < 10 || stack.empty()) {
      decide();
    } else if (op < 14) {  // backtrack: unassign a run, flip the new top
      for (std::size_t k = rng.next_below(4); k > 0 && stack.size() > 1; --k) {
        set(stack.back(), V3::X);
        stack.pop_back();
      }
      set(stack.back(), v3_not(value_of(stack.back())));
    } else if (op < 16) {  // a run of unassigns alone
      for (std::size_t k = 1 + rng.next_below(3); k > 0 && !stack.empty(); --k) {
        set(stack.back(), V3::X);
        stack.pop_back();
      }
    } else if (op < 18) {  // several decisions before one simulate()
      for (std::size_t k = 2 + rng.next_below(4); k > 0; --k) decide();
    } else if (op == 18) {  // new fixed state mid-walk (a reset)
      random_state(rng, setup, ndff);
      m.set_initial_state(setup.good, setup.faulty);
    } else {  // new launch history mid-walk (a reset)
      setup.prev_driven = random_v3(rng);
      m.set_initial_prev_driven(setup.prev_driven);
    }
    m.simulate();

    FrameModel fresh = make_model(cnl, fc.fault, kFrames);
    configure(fresh, setup);
    for (std::size_t f = 0; f < kFrames; ++f)
      for (std::size_t i = 0; i < npi; ++i) fresh.assign(f, i, m.assignment(f, i));
    for (std::size_t j = 0; j < ndff; ++j) fresh.assign_state(j, m.state_assignment(j));
    fresh.simulate();
    expect_same(m, fresh,
                fc.label + (setup.state_assignable ? " (assignable)" : " (fixed)") + " step " +
                    std::to_string(step),
                tally);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

class FrameModelIncremental : public ::testing::TestWithParam<const char*> {
 protected:
  void run(bool transition) {
    const ScanCircuit sc = insert_scan(load_circuit(*find_suite_entry(GetParam())));
    const CompiledNetlist cnl(sc.netlist);
    const std::size_t ndff = sc.netlist.num_dffs();
    Tally tally;
    std::uint64_t seed = 1;
    for (const FaultCase& fc : fault_cases(sc.netlist, transition)) {
      // A fixed present state carrying effects, as when extending a sequence.
      Rng rng(seed);
      ModelSetup fixed;
      random_state(rng, fixed, ndff);
      fixed.prev_driven = random_v3(rng);
      run_walk(cnl, fc, fixed, seed++, tally);
      if (HasFatalFailure()) return;
      // An assignable scan-in state with scan_sel pinned, as in the baseline
      // generators.
      ModelSetup assignable;
      assignable.state_assignable = true;
      assignable.pinned = sc.scan_sel_index();
      assignable.good.assign(ndff, V3::X);
      assignable.faulty.assign(ndff, V3::X);
      run_walk(cnl, fc, assignable, seed++, tally);
      if (HasFatalFailure()) return;
    }
    // The walks must reach the interesting states, not just agree on X.
    EXPECT_GT(tally.frontier_steps, 0u);
    EXPECT_GT(tally.effect_steps, 0u);
    EXPECT_GT(tally.detect_steps, 0u);
    EXPECT_GT(tally.forced_pin_frontier, 0u);
  }
};

TEST_P(FrameModelIncremental, StuckAtMatchesFreshModel) { run(false); }
TEST_P(FrameModelIncremental, TransitionMatchesFreshModel) { run(true); }

INSTANTIATE_TEST_SUITE_P(Suite, FrameModelIncremental,
                         ::testing::Values("s27", "b01", "b02", "s208", "s298"));

}  // namespace
}  // namespace uniscan
