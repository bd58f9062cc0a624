// Advanced analyses beyond the paper's core flow:
//   * redundancy identification — proving which undetected faults have NO
//     conventional scan test at all (the completeness the paper notes its
//     generator lacks),
//   * tester-program export — the per-cycle stimulus/expected-response
//     artifact a test engineer would consume.
//
// Build & run:  ./build/examples/advanced_analysis
#include <iostream>

#include "core/uniscan.hpp"

int main() {
  using namespace uniscan;

  const Netlist c = load_circuit(*find_suite_entry("b01"));
  const ScanCircuit sc = insert_scan(c);
  const FaultList faults = FaultList::collapsed(sc.netlist);

  // --- single-detect generation + redundancy triage ------------------------
  const AtpgResult atpg = generate_tests(sc, faults, {});
  std::cout << "coverage: " << format_pct(atpg.fault_coverage()) << "% (" << atpg.detected
            << "/" << atpg.num_faults << ")\n";
  std::cout << "proved untestable during generation: " << atpg.proved_redundant << "\n";

  // Classify everything the generator left behind.
  std::vector<Fault> leftovers;
  for (std::size_t i = 0; i < faults.size(); ++i)
    if (!atpg.detection[i].detected) leftovers.push_back(faults[i]);
  const RedundancyReport triage = classify_faults(sc, leftovers);
  std::cout << "of " << leftovers.size() << " undetected faults: " << triage.redundant
            << " provably untestable, " << triage.testable << " testable-but-missed, "
            << triage.aborted << " undecided\n";
  const double efficiency =
      100.0 * static_cast<double>(atpg.detected) /
      static_cast<double>(faults.size() - triage.redundant);
  std::cout << "fault efficiency over the testable universe: " << format_pct(efficiency)
            << "%\n\n";

  // --- tester program -------------------------------------------------------
  const CompactionResult rest = restoration_compact(sc.netlist, atpg.sequence, faults.faults());
  const CompactionResult omit = omission_compact(sc.netlist, rest.sequence, faults.faults());
  const std::string program = format_tester_program(sc, omit.sequence);
  std::cout << "tester program (first lines):\n";
  std::size_t shown = 0, pos = 0;
  while (shown < 12 && pos < program.size()) {
    const std::size_t nl = program.find('\n', pos);
    std::cout << program.substr(pos, nl - pos + 1);
    pos = nl + 1;
    ++shown;
  }
  std::cout << "... (" << omit.sequence.length() << " cycles total)\n";
  return 0;
}
