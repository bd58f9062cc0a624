// Regenerates the paper's Table 4: the s27_scan sequence of Table 1 after
// static compaction for non-scan circuits — vector restoration [23] followed
// by vector omission [22]. The compacted sequence rearranges complete scan
// operations into limited ones.
//
// By default only s27 runs (with its full Table-4 sequence printout). With
// --full the restoration+omission pipeline additionally covers the fast
// suite's s2xx-s5xx circuits, producing one restoration_<name> and one
// omission_<name> JSON entry per circuit (BENCH_compaction.json).
#include "bench_common.hpp"

#include <iostream>

using namespace uniscan;

namespace {

struct CircuitRows {
  std::string name;
  std::size_t generated, restored, omitted;
  std::size_t detected, total_faults;
  bool timed_out = false;
};

CircuitRows run_circuit(const SuiteEntry& entry, const bench::Args& args,
                        const PipelineConfig& cfg, bench::BenchJson& json,
                        std::string* s27_table) {
  const ScanCircuit sc = run_stage(entry.name, "scan", [&] {
    return insert_scan(run_stage(entry.name, "load",
                                 [&] { return load_circuit(entry, args.bench_dir); }));
  });
  const FaultList fl =
      run_stage(entry.name, "faults", [&] { return FaultList::collapsed(sc.netlist); });

  CancelToken cancel = cfg.cancel;
  if (cfg.per_circuit_budget_secs > 0)
    cancel = cancel.child(Deadline::after(cfg.per_circuit_budget_secs));

  AtpgOptions opt = cfg.atpg;
  opt.cancel = cancel;
  const AtpgResult gen = run_stage(entry.name, "atpg", [&] { return generate_tests(sc, fl, opt); });

  RestorationOptions rest_opt = cfg.restoration;
  rest_opt.cancel = cancel;
  std::vector<obs::StageStat> rest_stages;
  const CompactionResult rest = bench::timed_stage(rest_stages, entry.name, "restoration", [&] {
    return restoration_compact(sc.netlist, gen.sequence, fl.faults(), rest_opt);
  });
  json.add("restoration_" + entry.name, rest_stages.back().wall_ms, rest.gate_evals,
           gen.sequence.length(), rest.sequence.length(), rest.timed_out, &rest_stages);

  OmissionOptions om_opt = cfg.omission;
  om_opt.cancel = cancel;
  std::vector<obs::StageStat> omit_stages;
  const CompactionResult omit = bench::timed_stage(omit_stages, entry.name, "omission", [&] {
    return omission_compact(sc.netlist, rest.sequence, fl.faults(), om_opt);
  });
  json.add("omission_" + entry.name, omit_stages.back().wall_ms, omit.gate_evals,
           rest.sequence.length(), omit.sequence.length(), omit.timed_out, &omit_stages);

  if (s27_table) {
    *s27_table = "=== Table 4: compacted test sequence for s27_scan ===\n\n" +
                 format_sequence_table(sc, omit.sequence) + "\n";
  }

  FaultSimulator sim(sc.netlist);
  return CircuitRows{entry.name, gen.sequence.length(), rest.sequence.length(),
                     omit.sequence.length(),
                     sim.detected_indices(omit.sequence, fl.faults()).size(), fl.size(),
                     gen.timed_out || rest.timed_out || omit.timed_out};
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::parse_args(argc, argv);

  // Default: the paper's s27 row. --full: the fast-suite circuits (the
  // larger paper circuits make compaction runs impractically long here);
  // --circuit/--circuits/--corpus select like the other table binaries.
  std::vector<SuiteEntry> suite;
  if (args.circuits.empty() && args.circuit.empty() && args.corpus.empty()) {
    suite = args.full ? fast_suite() : std::vector<SuiteEntry>{*find_suite_entry("s27")};
  } else {
    suite = bench::select_suite(args);
  }

  bench::BenchJson json;
  const PipelineConfig cfg = anchor_suite_budget(bench::make_config(args));
  std::vector<TaskFailure> failures;
  std::string s27_table;
  // Rows stream: each circuit's summary line prints the moment its
  // (serial) compaction flow finishes; the s27 sequence printout follows
  // the summary so the streamed table is never interrupted.
  StreamTable summary(std::cout,
                      {"circuit", "generated", "restored", "omitted", "detected", "status"});
  for (const SuiteEntry& entry : suite) {
    CircuitRows r;
    try {
      r = run_circuit(entry, args, cfg, json, entry.name == "s27" ? &s27_table : nullptr);
    } catch (...) {
      if (cfg.fail_fast) throw;
      failures.push_back(current_task_failure(entry.name));
      summary.add_row({entry.name, "-", "-", "-", "-", bench::row_status(failures.back())});
      json.add_failure(failures.back());
      continue;
    }
    summary.add_row({r.name, std::to_string(r.generated), std::to_string(r.restored),
                     std::to_string(r.omitted),
                     std::to_string(r.detected) + "/" + std::to_string(r.total_faults),
                     bench::row_status(r.timed_out)});
  }
  if (!s27_table.empty()) std::cout << "\n" << s27_table;

  json.write(args.json, args.threads);
  if (!failures.empty()) {
    bench::print_failures(failures);
    return bench::kExitHadFailures;
  }
  return 0;
}
