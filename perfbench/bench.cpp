// uniscan end-to-end benchmark: the measuring program.
//
// Runs one workload (generate | unified, see README.md) over the
// hash-pinned corpus fast tier through the library's public entry points and
// writes the raw measurements as one JSON object to --out. run.py turns that
// record into the benchmark's metrics; this program only measures and checks.
//
//   uniscan_perfbench --workload NAME --seed N --seconds S --corpus DIR
//                     --out FILE [--trace-file FILE]
//
// Order of work: set-up (repeated kSetupReps times, the last copy is kept);
// the timed region, passes over all circuits repeated while another pass fits
// in S seconds (at least one); the correctness gate on the first pass; with
// --trace-file, one more pass under obs::Tracer. Exit code 0 when every check
// passed, 1 when a check failed, 2 on bad arguments or set-up errors.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "atpg/seq_atpg.hpp"
#include "baseline/scan_testset_gen.hpp"
#include "compact/omission.hpp"
#include "compact/restoration.hpp"
#include "corpus/corpus.hpp"
#include "fault/fault_list.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "scan/scan_insertion.hpp"
#include "sim/fault_sim.hpp"
#include "util/sha256.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace uniscan;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- workloads ------------------------------------------------------------

struct Workload {
  const char* name;
  // Besides generate_tests: restoration, omission and the complete-scan
  // baseline (the paper's Table-6 flow).
  bool full_flow;
  std::size_t threads;
  // Fast-tier circuits left out, only to bound the run length: their
  // omission alone would take most of a pass.
  std::vector<std::string> skip;
};

const Workload kWorkloads[] = {
    {"generate", false, 1, {}},
    {"unified", true, 2, {"u004", "u005"}},
};

constexpr int kSetupReps = 21;

// ---- set-up ----------------------------------------------------------------

struct Prepared {
  std::string name;
  ScanCircuit sc;
  FaultList faults;
};

struct SetupTimes {
  double load_s = 0;      // manifest read, pin verification, .bench parse
  double scan_s = 0;      // insert_scan
  double collapse_s = 0;  // FaultList::collapsed
  double compile_s = 0;   // Netlist::compiled_shared warm-up
  double total_s = 0;
};

std::vector<Prepared> set_up(const std::string& corpus_dir, const Workload& w, SetupTimes& t) {
  const Clock::time_point start = Clock::now();
  Clock::time_point t0 = start;
  const CorpusRegistry registry(corpus_dir);
  std::vector<CorpusEntry> entries;
  for (const CorpusEntry& e : registry.tier(CorpusTier::Fast))
    if (std::find(w.skip.begin(), w.skip.end(), e.name) == w.skip.end()) entries.push_back(e);
  if (entries.empty()) throw std::runtime_error("no fast-tier circuits under " + corpus_dir);
  t.load_s += seconds_since(t0);

  std::vector<Prepared> out;
  out.reserve(entries.size());  // no reallocation: the warmed compile points at its netlist
  for (const CorpusEntry& e : entries) {
    t0 = Clock::now();
    const Netlist nl = registry.load(e, /*verify=*/true);
    t.load_s += seconds_since(t0);

    t0 = Clock::now();
    ScanCircuit sc = insert_scan(nl);
    t.scan_s += seconds_since(t0);

    t0 = Clock::now();
    FaultList faults = FaultList::collapsed(sc.netlist);
    t.collapse_s += seconds_since(t0);

    out.push_back(Prepared{e.name, std::move(sc), std::move(faults)});
    t0 = Clock::now();
    out.back().sc.netlist.compiled_shared();
    t.compile_s += seconds_since(t0);
  }
  t.total_s = seconds_since(start);
  return out;
}

// ---- one pass --------------------------------------------------------------

struct CircuitRun {
  double task_s = 0, atpg_s = 0, restoration_s = 0, omission_s = 0, baseline_s = 0;
  std::string error;  // what the flow threw; empty when it completed
  AtpgResult atpg;
  CompactionResult restoration, omission;
  BaselineResult baseline;
};

/// Time one public call from outside, under a benchmark trace span (inert
/// unless the tracer is running).
template <typename Fn>
auto timed_call(const char* span_name, const std::string& circuit, double& seconds, Fn&& fn) {
  const obs::TraceSpan span(span_name, circuit);
  const Clock::time_point t0 = Clock::now();
  auto result = fn();
  seconds = seconds_since(t0);
  return result;
}

CircuitRun run_circuit(const Workload& w, const Prepared& p, std::uint64_t seed) {
  const obs::TraceSpan task_span("bench.circuit", p.name);
  const Clock::time_point t0 = Clock::now();
  CircuitRun r;
  AtpgOptions atpg_opt;
  atpg_opt.seed = seed;
  atpg_opt.sat_mode = SatMode::SecondChance;
  r.atpg = timed_call("bench.atpg", p.name, r.atpg_s,
                      [&] { return generate_tests(p.sc, p.faults, atpg_opt); });
  if (w.full_flow) {
    r.restoration = timed_call("bench.restoration", p.name, r.restoration_s, [&] {
      return restoration_compact(p.sc.netlist, r.atpg.sequence, p.faults.faults());
    });
    r.omission = timed_call("bench.omission", p.name, r.omission_s, [&] {
      return omission_compact(p.sc.netlist, r.restoration.sequence, p.faults.faults());
    });
    // The comparison column, last. Seed offset as in the table binaries:
    // --seed 1 runs the library defaults.
    BaselineOptions base_opt;
    base_opt.seed = seed + 10;
    r.baseline = timed_call("bench.baseline", p.name, r.baseline_s,
                            [&] { return generate_baseline_tests(p.sc, p.faults, base_opt); });
  }
  r.task_s = seconds_since(t0);
  return r;
}

const TestSequence& final_sequence(const Workload& w, const CircuitRun& r) {
  return w.full_flow ? r.omission.sequence : r.atpg.sequence;
}

struct Pass {
  double wall_s = 0;
  obs::CounterArray counters{};
  std::string sha256;  // over every circuit's final sequence, in pass order
  std::vector<CircuitRun> runs;
};

/// One pass: every circuit under `seed`, fanned out over the global pool.
/// `order` lists circuits with the most faults first: the pool hands out
/// tasks in index order, so long flows start early and the pass ends on
/// short ones.
Pass run_pass(const Workload& w, const std::vector<const Prepared*>& order, std::uint64_t seed) {
  Pass pass;
  pass.runs.resize(order.size());
  const obs::CounterArray before = obs::totals();
  const Clock::time_point t0 = Clock::now();
  ThreadPool::global().parallel_for(order.size(), [&](std::size_t i, std::size_t) {
    try {
      pass.runs[i] = run_circuit(w, *order[i], seed);
    } catch (const std::exception& e) {
      pass.runs[i].error = e.what();
    }
  });
  pass.wall_s = seconds_since(t0);
  // Sum counters report this pass's delta; a max counter reports the process
  // peak, which a repeated pass reaches again.
  const obs::CounterArray after = obs::totals();
  for (std::size_t c = 0; c < obs::kNumCounters; ++c)
    pass.counters[c] =
        obs::counter_is_max(static_cast<obs::Counter>(c)) ? after[c] : after[c] - before[c];

  Sha256 h;
  for (std::size_t i = 0; i < order.size(); ++i) {
    h.update(order[i]->name + "\n");
    h.update(final_sequence(w, pass.runs[i]).to_string());
    h.update("\n");
  }
  pass.sha256 = h.hex();
  return pass;
}

bool same_outputs(const Pass& a, const Pass& b) {
  return a.sha256 == b.sha256 && a.counters == b.counters;
}

// ---- correctness gate -------------------------------------------------------

struct Checked {
  std::size_t input_detected = 0;  // generated sequence, replayed
  std::size_t final_detected = 0;  // final sequence, replayed
  long long open = 0;              // neither detected nor proved redundant
  std::vector<std::string> violations;
};

std::size_t count_detected(const std::vector<DetectionRecord>& d) {
  return static_cast<std::size_t>(
      std::count_if(d.begin(), d.end(), [](const DetectionRecord& r) { return r.detected; }));
}

bool same_verdicts(const std::vector<DetectionRecord>& a, const std::vector<DetectionRecord>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].detected != b[i].detected) return false;
  return true;
}

/// Replays every sequence the flow produced from power-up with the
/// independent FaultSimulator and checks it against what the generators
/// reported, that compaction lost no detection, and that lengths shrink.
Checked check_circuit(const Workload& w, const Prepared& p, const CircuitRun& r) {
  Checked c;
  const auto fail = [&](const std::string& what) { c.violations.push_back(p.name + ": " + what); };
  if (!r.error.empty()) {
    fail("flow threw: " + r.error);
    c.open = static_cast<long long>(p.faults.size());
    return c;
  }
  const FaultSimulator sim(p.sc.netlist);
  const std::vector<Fault>& faults = p.faults.faults();

  if (r.atpg.timed_out) fail("generate_tests timed out");
  const auto generated = sim.run(r.atpg.sequence, faults);
  if (!same_verdicts(generated, r.atpg.detection) || count_detected(generated) != r.atpg.detected)
    fail("generated sequence replay disagrees with generate_tests' detections");
  c.input_detected = count_detected(generated);
  c.final_detected = c.input_detected;

  if (w.full_flow) {
    if (r.restoration.timed_out || r.omission.timed_out) fail("compaction timed out");
    const std::size_t raw = r.restoration.original_length;
    const std::size_t restored = r.restoration.sequence.length();
    const std::size_t omitted = r.omission.sequence.length();
    if (!(omitted <= restored && restored <= raw))
      fail("lengths violate omit <= restor <= raw: " + std::to_string(omitted) + ", " +
           std::to_string(restored) + ", " + std::to_string(raw));
    const auto final_det = sim.run(r.omission.sequence, faults);
    std::size_t lost = 0;
    for (std::size_t i = 0; i < faults.size(); ++i)
      if (generated[i].detected && !final_det[i].detected) ++lost;
    if (lost != 0) fail("compaction lost " + std::to_string(lost) + " detections");
    c.final_detected = count_detected(final_det);

    if (r.baseline.timed_out) fail("generate_baseline_tests timed out");
    const auto baseline = sim.run(r.baseline.translated, faults);
    if (!same_verdicts(baseline, r.baseline.detection) ||
        count_detected(baseline) != r.baseline.detected)
      fail("baseline replay disagrees with generate_baseline_tests' detections");
    if (r.baseline.application_cycles() != r.baseline.translated.length())
      fail("baseline translated length differs from its application cycles");
  }

  c.open = static_cast<long long>(faults.size()) - static_cast<long long>(c.final_detected) -
           static_cast<long long>(r.atpg.proved_redundant);
  if (c.open < 0) fail("more faults detected or proved redundant than exist");
  return c;
}

// ---- output -----------------------------------------------------------------

/// Minimal JSON emitter: keys are fixed identifiers, strings are escaped.
class JsonWriter {
 public:
  void open(const char* key = nullptr) { begin(key, '{'); }
  void close() { end('}'); }
  void open_array(const char* key) { begin(key, '['); }
  void close_array() { end(']'); }
  void num(const char* key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    raw(key, buf);
  }
  void num(const char* key, std::uint64_t v) { raw(key, std::to_string(v)); }
  void num(const char* key, long long v) { raw(key, std::to_string(v)); }
  void boolean(const char* key, bool v) { raw(key, v ? "true" : "false"); }
  void str(const char* key, std::string_view s) {
    std::string q = "\"";
    for (const char ch : s) {
      if (ch == '"' || ch == '\\') {
        q += '\\';
        q += ch;
      } else if (static_cast<unsigned char>(ch) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", ch);
        q += buf;
      } else {
        q += ch;
      }
    }
    raw(key, q + '"');
  }
  const std::string& text() const { return out_; }

 private:
  void raw(const char* key, const std::string& value) {
    sep(key);
    out_ += value;
  }
  void begin(const char* key, char bracket) {
    sep(key);
    out_ += bracket;
    first_.push_back(true);
  }
  void end(char bracket) {
    out_ += bracket;
    first_.pop_back();
  }
  // Separator before a value, plus its key inside an object.
  void sep(const char* key) {
    if (!first_.empty()) {
      if (!first_.back()) out_ += ',';
      first_.back() = false;
    }
    if (key) {
      out_ += '"';
      out_ += key;
      out_ += "\":";
    }
  }
  std::string out_;
  std::vector<bool> first_;
};

void write_counters(JsonWriter& j, const obs::CounterArray& counters) {
  j.open("counters");
  for (std::size_t c = 0; c < obs::kNumCounters; ++c)
    j.num(obs::counter_name(static_cast<obs::Counter>(c)), counters[c]);
  j.close();
}

void write_times(JsonWriter& j, const CircuitRun& r) {
  j.num("task_s", r.task_s);
  j.num("atpg_s", r.atpg_s);
  j.num("restoration_s", r.restoration_s);
  j.num("omission_s", r.omission_s);
  j.num("baseline_s", r.baseline_s);
}

void write_run(JsonWriter& j, const Workload& w, const Prepared& p, const CircuitRun& r,
               const Checked& c) {
  j.open();
  j.str("name", p.name);
  j.num("faults", std::uint64_t{p.faults.size()});
  write_times(j, r);
  j.num("input_detected", std::uint64_t{c.input_detected});
  j.num("final_detected", std::uint64_t{c.final_detected});
  j.num("final_len", std::uint64_t{final_sequence(w, r).length()});
  j.num("open", c.open);
  const AtpgResult& a = r.atpg;
  j.open("atpg");
  j.num("detected", std::uint64_t{a.detected});
  j.num("proved_redundant", std::uint64_t{a.proved_redundant});
  j.num("funct", std::uint64_t{a.detected_by_scan_knowledge});
  j.num("sequence_len", std::uint64_t{a.sequence.length()});
  j.num("podem_calls", std::uint64_t{a.stats.podem_calls});
  j.num("podem_successes", std::uint64_t{a.stats.podem_successes});
  j.num("scan_load_assisted", std::uint64_t{a.stats.scan_load_assisted});
  j.num("fallback_attempts", std::uint64_t{a.stats.fallback_attempts});
  j.num("random_chunks_accepted", std::uint64_t{a.stats.random_chunks_accepted});
  j.close();
  j.open("sat");
  j.num("attempts", a.sat.attempts);
  j.num("detected", a.sat.detected);
  j.num("proved_redundant", a.sat.proved_redundant);
  j.num("aborted", a.sat.aborted);
  j.num("mismatches", a.sat.mismatches);
  j.close();
  if (w.full_flow) {
    for (const auto& [key, cr] : {std::pair{"restoration", &r.restoration},
                                  std::pair{"omission", &r.omission}}) {
      j.open(key);
      j.num("input_len", std::uint64_t{cr->original_length});
      j.num("output_len", std::uint64_t{cr->sequence.length()});
      j.num("vectors_removed", std::uint64_t{cr->vectors_removed});
      j.close();
    }
    j.open("baseline");
    j.num("tests", std::uint64_t{r.baseline.test_set.tests.size()});
    j.num("cycles", std::uint64_t{r.baseline.application_cycles()});
    j.num("detected", std::uint64_t{r.baseline.detected});
    j.close();
  }
  j.open_array("violations");
  for (const std::string& v : c.violations) j.str(nullptr, v);
  j.close_array();
  j.close();
}

struct Args {
  std::string workload, corpus, out, trace_file;
  std::uint64_t seed = 1;
  double seconds = 0;
};

int usage(const char* msg) {
  std::fprintf(stderr, "uniscan_perfbench: %s\n", msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v, nullptr);
    else if (k == "--corpus") a.corpus = v;
    else if (k == "--out") a.out = v;
    else if (k == "--trace-file") a.trace_file = v;
    else return usage("unknown argument");
  }
  if (argc % 2 == 0) return usage("arguments come in --key value pairs");
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads)
    if (a.workload == cand.name) w = &cand;
  if (!w || a.corpus.empty() || a.out.empty() || !(a.seconds > 0))
    return usage("need --workload generate|unified, --seconds > 0, --corpus, --out");

  std::vector<SetupTimes> setups(kSetupReps);
  std::vector<Prepared> circuits;
  try {
    for (SetupTimes& t : setups) circuits = set_up(a.corpus, *w, t);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "uniscan_perfbench: set-up failed: %s\n", e.what());
    return 2;
  }
  ThreadPool::set_global_threads(w->threads);

  std::vector<const Prepared*> order;
  for (const Prepared& p : circuits) order.push_back(&p);
  std::stable_sort(order.begin(), order.end(), [](const Prepared* x, const Prepared* y) {
    return x->faults.size() > y->faults.size();
  });

  // Timed region: passes while another one still fits in the requested
  // time. Every repeat must reproduce the first pass exactly.
  std::vector<Pass> passes;
  std::vector<std::string> violations;
  const Clock::time_point timed_start = Clock::now();
  do {
    passes.push_back(run_pass(*w, order, a.seed));
    if (passes.size() > 1) {
      if (!same_outputs(passes.back(), passes[0]))
        violations.push_back("a repeated pass produced different outputs or counts");
      passes.back().runs = {};  // keep memory independent of the repeat count
    }
  } while (seconds_since(timed_start) * (passes.size() + 1) / passes.size() <= a.seconds);

  std::vector<Checked> checks;
  for (std::size_t i = 0; i < order.size(); ++i) {
    checks.push_back(check_circuit(*w, *order[i], passes[0].runs[i]));
    for (const std::string& v : checks.back().violations) violations.push_back(v);
  }

  Pass traced;
  if (!a.trace_file.empty()) {
    obs::Tracer::start(a.trace_file);
    traced = run_pass(*w, order, a.seed);
    obs::Tracer::stop_and_write();
    if (!same_outputs(traced, passes[0]))
      violations.push_back("the traced pass produced different outputs or counts");
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);

  JsonWriter j;
  j.open();
  j.str("workload", w->name);
  j.num("seed", a.seed);
  j.num("threads", std::uint64_t{w->threads});
  j.num("setup_reps", std::uint64_t{kSetupReps});
  j.num("peak_rss_kb", static_cast<std::uint64_t>(ru.ru_maxrss));
  j.str("final_sequences_sha256", passes[0].sha256);
  j.open("build");
  j.str("build_type", PERFBENCH_BUILD_TYPE);
#ifdef __AVX2__
  j.boolean("avx2", true);
#else
  j.boolean("avx2", false);
#endif
#ifdef __AVX512F__
  j.boolean("avx512", true);
#else
  j.boolean("avx512", false);
#endif
  j.close();
  j.open_array("setups");
  for (const SetupTimes& t : setups) {
    j.open();
    j.num("load_s", t.load_s);
    j.num("scan_s", t.scan_s);
    j.num("collapse_s", t.collapse_s);
    j.num("compile_s", t.compile_s);
    j.num("total_s", t.total_s);
    j.close();
  }
  j.close_array();
  j.open_array("passes");
  for (const Pass& p : passes) {
    j.open();
    j.num("wall_s", p.wall_s);
    write_counters(j, p.counters);
    j.close();
  }
  j.close_array();
  j.open_array("circuits");
  for (std::size_t i = 0; i < order.size(); ++i)
    write_run(j, *w, *order[i], passes[0].runs[i], checks[i]);
  j.close_array();
  if (!a.trace_file.empty()) {
    j.open("traced");
    j.num("wall_s", traced.wall_s);
    j.open_array("circuits");
    for (const CircuitRun& r : traced.runs) {
      j.open();
      write_times(j, r);
      j.close();
    }
    j.close_array();
    j.close();
  }
  j.open_array("violations");
  for (const std::string& v : violations) j.str(nullptr, v);
  j.close_array();
  j.close();

  std::ofstream out(a.out);
  out << j.text() << '\n';
  if (!out) return usage("cannot write --out file");
  return violations.empty() ? 0 : 1;
}
