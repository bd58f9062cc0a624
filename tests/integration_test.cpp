// Cross-cutting integration tests that exercise several subsystems at once.
#include <gtest/gtest.h>

#include "core/uniscan.hpp"

namespace uniscan {
namespace {

TEST(Integration, WideGateRejectedAtFinalize) {
  Netlist nl("wide");
  std::vector<GateId> ins;
  for (int i = 0; i < 65; ++i) ins.push_back(nl.add_input("i" + std::to_string(i)));
  nl.add_output(nl.add_gate(GateType::And, "g", std::move(ins)));
  EXPECT_THROW(nl.finalize(), std::runtime_error);
}

TEST(Integration, TesterProgramExpectationsMatchSimulation) {
  const ScanCircuit sc = insert_scan(make_s27());
  const FaultList fl = FaultList::collapsed(sc.netlist);
  const AtpgResult atpg = generate_tests(sc, fl, {});
  TestSequence seq = atpg.sequence;
  seq.truncate(12);
  const std::string program = format_tester_program(sc, seq);

  // Re-derive the expected outputs and check each data line.
  const SequentialSimulator sim(sc.netlist);
  const SimTrace trace = sim.simulate(seq, sim.initial_state());
  std::istringstream is(program);
  std::string line;
  std::size_t t = 0;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto bar = line.rfind('|');
    ASSERT_NE(bar, std::string::npos);
    std::string expected;
    for (char c : line.substr(bar + 1))
      if (c != ' ') expected.push_back(c);
    std::string actual;
    for (V3 v : trace.po[t]) actual.push_back(to_char(v));
    EXPECT_EQ(expected, actual) << "cycle " << t;
    ++t;
  }
  EXPECT_EQ(t, seq.length());
}

TEST(Integration, InsertScanBenchRoundTripStaysFunctional) {
  // insert-scan -> .bench text -> parse -> the scan circuit still loads a
  // state through its chain (the muxes survived serialization).
  const ScanCircuit sc = insert_scan(make_s27());
  const Netlist reparsed = read_bench_string(write_bench_string(sc.netlist), "s27_scan_rt");
  EXPECT_EQ(reparsed.num_inputs(), sc.netlist.num_inputs());
  EXPECT_EQ(reparsed.num_dffs(), sc.netlist.num_dffs());

  const SequentialSimulator sim(reparsed);
  // Shift 1,0,1 through the reparsed chain (same column positions as sc).
  State s(reparsed.num_dffs(), V3::X);
  const V3 pattern[3] = {V3::One, V3::Zero, V3::One};
  for (int k = 0; k < 3; ++k) {
    std::vector<V3> pi(reparsed.num_inputs(), V3::Zero);
    pi[sc.scan_sel_index()] = V3::One;
    pi[sc.chain().scan_inp_index] = pattern[2 - k];
    s = sim.step(s, pi).next_state;
  }
  EXPECT_EQ(s, (State{V3::One, V3::Zero, V3::One}));
}

TEST(Integration, RepeatFillReducesInputTransitions) {
  const ScanCircuit sc = insert_scan(load_circuit(*find_suite_entry("b01")));
  const FaultList fl = FaultList::collapsed(sc.netlist);
  const BaselineResult base = generate_baseline_tests(sc, fl, {});

  TranslationOptions rnd, rep;
  rnd.fill = XFillPolicy::RandomFill;
  rep.fill = XFillPolicy::RepeatFill;
  const auto m_rnd = compute_metrics(sc, translate_test_set(sc, base.test_set, rnd));
  const auto m_rep = compute_metrics(sc, translate_test_set(sc, base.test_set, rep));
  EXPECT_LT(m_rep.input_transitions, m_rnd.input_transitions);
  EXPECT_EQ(m_rep.length, m_rnd.length);
}

TEST(Integration, SequenceFileSurvivesWholeFlow) {
  // generate -> write -> read -> compact -> write -> read -> faultsim.
  const ScanCircuit sc = insert_scan(make_s27());
  const FaultList fl = FaultList::collapsed(sc.netlist);
  const AtpgResult atpg = generate_tests(sc, fl, {});

  const TestSequence loaded = read_sequence_string(write_sequence_string(atpg.sequence));
  ASSERT_EQ(loaded, atpg.sequence);

  const CompactionResult omit = omission_compact(sc.netlist, loaded, fl.faults());
  const TestSequence reloaded = read_sequence_string(write_sequence_string(omit.sequence));
  FaultSimulator sim(sc.netlist);
  EXPECT_EQ(sim.detected_indices(reloaded, fl.faults()).size(),
            sim.detected_indices(omit.sequence, fl.faults()).size());
}

}  // namespace
}  // namespace uniscan
