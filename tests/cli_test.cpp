// End-to-end tests of the uniscan_cli binary (path injected by CMake).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "util/string_utils.hpp"

#ifndef UNISCAN_CLI_PATH
#define UNISCAN_CLI_PATH ""
#endif
#ifndef UNISCAN_CORPUS_TOOL_PATH
#define UNISCAN_CORPUS_TOOL_PATH ""
#endif
// Set only when the table binaries are built (UNISCAN_BUILD_BENCH).
#ifndef UNISCAN_TABLE6_PATH
#define UNISCAN_TABLE6_PATH ""
#endif

namespace {

struct RunResult {
  int exit_code;
  std::string output;  // stdout + stderr
};

// Scratch paths carry the pid: ctest -j runs each CliFlow test in its own
// process against the shared TempDir, so fixed names race across tests.
std::string scratch_path(const std::string& name) {
  return ::testing::TempDir() + "cli_" + std::to_string(::getpid()) + "_" + name;
}

/// Run `binary args` through the shell (so `args` may carry redirections
/// and `env` may hold `VAR=value` assignments) and capture its output.
RunResult run_binary(const std::string& binary, const std::string& args,
                     const std::string& env = {}) {
  const std::string out_path = scratch_path("out.txt");
  const std::string cmd = env + " " + binary + " " + args + " > " + out_path + " 2>&1";
  const int status = std::system(cmd.c_str());
  std::ifstream f(out_path);
  std::stringstream ss;
  ss << f.rdbuf();
  std::remove(out_path.c_str());
  return {WEXITSTATUS(status), ss.str()};
}

RunResult run_cli(const std::string& args) { return run_binary(UNISCAN_CLI_PATH, args); }

std::string write_demo_bench() {
  const std::string path = scratch_path("demo.bench");
  std::ofstream f(path);
  f << "INPUT(a)\nINPUT(b)\nOUTPUT(o)\n"
    << "f0 = DFF(n0)\nf1 = DFF(f0)\n"
    << "n0 = XOR(a, f1)\no = AND(b, f0)\n";
  return path;
}

class CliFlow : public ::testing::Test {
 protected:
  void SetUp() override {
    if (std::string(UNISCAN_CLI_PATH).empty()) GTEST_SKIP() << "CLI path not configured";
    bench_ = write_demo_bench();
  }
  void TearDown() override { std::remove(bench_.c_str()); }
  std::string bench_;
};

TEST_F(CliFlow, NoArgsShowsUsage) {
  const RunResult r = run_cli("");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST_F(CliFlow, Stats) {
  const RunResult r = run_cli("stats " + bench_);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("2 PIs"), std::string::npos);
  EXPECT_NE(r.output.find("collapsed faults"), std::string::npos);
}

TEST_F(CliFlow, InsertScanEmitsParsableBench) {
  const RunResult r = run_cli("insert-scan " + bench_);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("INPUT(scan_sel)"), std::string::npos);
  EXPECT_NE(r.output.find("MUX"), std::string::npos);
}

TEST_F(CliFlow, GenerateCompactFaultsimPipeline) {
  const std::string seq = ::testing::TempDir() + "cli_seq.useq";
  const std::string cseq = ::testing::TempDir() + "cli_cseq.useq";

  RunResult r = run_cli("generate " + bench_ + " -o " + seq);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("coverage"), std::string::npos);

  r = run_cli("compact " + bench_ + " " + seq + " -o " + cseq);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("omission:"), std::string::npos);

  r = run_cli("faultsim " + bench_ + " " + cseq);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("detected"), std::string::npos);

  std::remove(seq.c_str());
  std::remove(cseq.c_str());
}

TEST_F(CliFlow, BaselineAndTranslate) {
  const std::string tst = ::testing::TempDir() + "cli_tests.utst";
  RunResult r = run_cli("baseline " + bench_ + " -o " + tst);
  ASSERT_EQ(r.exit_code, 0) << r.output;

  r = run_cli("translate " + bench_ + " " + tst + " --x-fill=repeat");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("useq v1"), std::string::npos);
  std::remove(tst.c_str());
}

TEST_F(CliFlow, Classify) {
  const RunResult r = run_cli("classify " + bench_);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("testable"), std::string::npos);
}

TEST_F(CliFlow, ExportEmitsTesterProgram) {
  const std::string seq = ::testing::TempDir() + "cli_exp.useq";
  RunResult r = run_cli("generate " + bench_ + " -o " + seq);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  r = run_cli("export " + bench_ + " " + seq);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("tester program"), std::string::npos);
  EXPECT_NE(r.output.find("scan operation"), std::string::npos);
  EXPECT_NE(r.output.find("expected outputs"), std::string::npos);
  std::remove(seq.c_str());
}

TEST_F(CliFlow, MetricsCommand) {
  const std::string seq = ::testing::TempDir() + "cli_met.useq";
  RunResult r = run_cli("generate " + bench_ + " -o " + seq);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  r = run_cli("metrics " + bench_ + " " + seq);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("scan operations"), std::string::npos);
  EXPECT_NE(r.output.find("input transitions"), std::string::npos);
  std::remove(seq.c_str());
}

TEST_F(CliFlow, MultiChainFlow) {
  const RunResult r = run_cli("baseline " + bench_ + " --chains=2");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("coverage"), std::string::npos);
}

TEST_F(CliFlow, BadFileFailsCleanly) {
  const RunResult r = run_cli("stats /nonexistent/file.bench");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("error:"), std::string::npos);
}

TEST_F(CliFlow, UnknownFlagRejected) {
  const RunResult r = run_cli("stats " + bench_ + " --frobnicate");
  EXPECT_EQ(r.exit_code, 2);
}

TEST_F(CliFlow, JsonFlagEmitsStructuredError) {
  const RunResult r = run_cli("stats /nonexistent/file.bench --json");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("{\"error\":"), std::string::npos) << r.output;
  // The plain-text channel still carries the message for humans/logs.
  EXPECT_NE(r.output.find("error:"), std::string::npos) << r.output;
}

TEST_F(CliFlow, MetricsFlagEmitsSchemaAndCounterTotals) {
  const std::string seq = ::testing::TempDir() + "cli_obs.useq";
  const RunResult r = run_cli("generate " + bench_ + " --metrics -o " + seq);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("{\"schema_version\": 2, \"counters\": {"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"gate_evals\": "), std::string::npos) << r.output;
  // Generation simulates: its run must have counted SOME gate evaluations.
  EXPECT_EQ(r.output.find("\"gate_evals\": 0,"), std::string::npos) << r.output;
  std::remove(seq.c_str());
}

TEST_F(CliFlow, MetricsFlagStaysStructuredOnError) {
  const RunResult r = run_cli("stats /nonexistent/file.bench --json --metrics");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("{\"error\":"), std::string::npos) << r.output;
  // The totals line is still emitted (all-zero: nothing ran), so machine
  // consumers can parse the same shape on both paths.
  EXPECT_NE(r.output.find("{\"schema_version\": 2, \"counters\": {"), std::string::npos)
      << r.output;
}

TEST_F(CliFlow, TraceFlagWritesChromeTraceJson) {
  const std::string seq = ::testing::TempDir() + "cli_tr.useq";
  const std::string trace = ::testing::TempDir() + "cli_tr.json";
  const RunResult r =
      run_cli("generate " + bench_ + " --trace=" + trace + " -o " + seq);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  std::ifstream f(trace);
  ASSERT_TRUE(f.is_open()) << trace;
  std::stringstream ss;
  ss << f.rdbuf();
  EXPECT_NE(ss.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(ss.str().find("\"name\": \"podem\""), std::string::npos)
      << "generation should have recorded PODEM spans";
  std::remove(seq.c_str());
  std::remove(trace.c_str());
}

TEST_F(CliFlow, GenerateUnderExpiredBudgetDegradesGracefully) {
  // A zero time budget must not crash or hang: the CLI reports the verified
  // best-so-far result, flags the timeout, and still exits 0 (a timeout is a
  // degraded success, not an error).
  const RunResult r = run_cli("generate " + bench_ + " --time-budget=0.000001");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("TIMED OUT"), std::string::npos) << r.output;
}

// Exit-code taxonomy (core/exit_codes.hpp), shared with the table binaries:
// 0 success, 1 runtime error, 2 usage, 3 internal error, 4 isolated
// per-circuit failures (table binaries only). Scripts branch on WHAT went
// wrong.
TEST_F(CliFlow, ExitCodeTaxonomy) {
  EXPECT_EQ(run_cli("stats " + bench_).exit_code, 0);
  EXPECT_EQ(run_cli("stats /nonexistent.bench").exit_code, 1);
  EXPECT_EQ(run_cli("").exit_code, 2);
  EXPECT_EQ(run_cli("stats " + bench_ + " --no-such-flag").exit_code, 2);
  EXPECT_EQ(run_cli("no-such-command").exit_code, 2);
  // A malformed numeric value is a usage error too: never read as 0, never
  // ignored, never left for a later stage to trip over.
  for (const char* flag : {"--time-budget=abc", "--time-budget=-1", "--time-budget=",
                           "--chains=abc", "--chains=-2", "--seed=7x", "--seed=-3",
                           "--window=two"})
    EXPECT_EQ(run_cli("generate " + bench_ + " " + flag).exit_code, 2) << flag;
}

// The serve command, its alias and its flags are gone; --threads went with
// them (serve was the only command that applied it). Each is now as unknown
// as any other word.
TEST_F(CliFlow, ServeCommandAndItsFlagsAreUnknown) {
  EXPECT_EQ(run_cli("serve").exit_code, 2);
  EXPECT_EQ(run_cli("--serve").exit_code, 2);
  for (const char* flag : {"--threads=2", "--cache-dir=/tmp", "--cache-bytes=1024",
                           "--max-queue=4", "--retries=1", "--backoff-ms=5",
                           "--default-budget=1"})
    EXPECT_EQ(run_cli("stats " + bench_ + " " + flag).exit_code, 2) << flag;
}

TEST_F(CliFlow, CorpusToolExitCodes) {
  const std::string tool = UNISCAN_CORPUS_TOOL_PATH;
  if (tool.empty()) GTEST_SKIP() << "corpus_tool path not configured";
  const RunResult ok = run_binary(tool, "--threads=2 list fast");
  EXPECT_EQ(ok.exit_code, 0) << ok.output;
  EXPECT_NE(ok.output.find("s27"), std::string::npos) << ok.output;
  EXPECT_EQ(run_binary(tool, "").exit_code, 2);
  for (const char* flag : {"--threads=four", "--threads=-1", "--threads=", "--threads=2x"}) {
    const RunResult r = run_binary(tool, std::string(flag) + " list fast");
    EXPECT_EQ(r.exit_code, 2) << flag;
    EXPECT_NE(r.output.find("bad value"), std::string::npos) << flag << ": " << r.output;
  }
  // Unknown flags in any position (a misspelling, a removed option) and
  // surplus arguments are usage errors, not silently ignored.
  for (const char* args : {"digest s27 --theads=4", "--engine=event list fast",
                           "list fast --no-such-flag", "list fast extra junk",
                           "check-golden s27 b01"}) {
    const RunResult r = run_binary(tool, args);
    EXPECT_EQ(r.exit_code, 2) << args << ": " << r.output;
  }
}

// The table binaries share the taxonomy: 2 for a malformed numeric flag,
// 4 when the suite ran but a circuit failed in isolation (the row is
// reported on stderr and the healthy rows still print).
TEST_F(CliFlow, TableBinaryExitCodes) {
  const std::string table6 = UNISCAN_TABLE6_PATH;
  if (table6.empty()) GTEST_SKIP() << "table binaries not built";
  EXPECT_EQ(run_binary(table6, "--circuits=s27").exit_code, 0);
  for (const char* flag : {"--threads=four", "--seed=-1", "--time-budget=abc",
                           "--per-circuit-budget=", "--threads=2x", "--no-such-flag"})
    EXPECT_EQ(run_binary(table6, std::string("--circuits=s27 ") + flag).exit_code, 2) << flag;
  const RunResult r =
      run_binary(table6, "--circuits=s27,b01 --threads=2", "UNISCAN_FAULT_INJECT=b01:atpg");
  EXPECT_EQ(r.exit_code, 4) << r.output;
  EXPECT_NE(r.output.find("FAILED circuit=b01 stage=atpg"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("s27"), std::string::npos) << r.output;
}

TEST(ParseNumber, AcceptsTheFullRangeOfItsType) {
  EXPECT_EQ(uniscan::parse_number<std::uint64_t>("18446744073709551615"),
            std::optional<std::uint64_t>(18446744073709551615ULL));
  EXPECT_FALSE(uniscan::parse_number<std::uint64_t>("18446744073709551616"));
  EXPECT_EQ(uniscan::parse_number<std::uint64_t>("007"), std::optional<std::uint64_t>(7));
  EXPECT_EQ(uniscan::parse_number<double>("0"), std::optional<double>(0.0));
  EXPECT_EQ(uniscan::parse_number<double>("1e308"), std::optional<double>(1e308));
  EXPECT_EQ(uniscan::parse_number<double>("120"), std::optional<double>(120.0));
}

TEST(ParseNumber, AcceptsOnlyWholeNonNegativeNumbers) {
  EXPECT_EQ(uniscan::parse_number<std::uint64_t>("42"), std::optional<std::uint64_t>(42));
  EXPECT_EQ(uniscan::parse_number<std::uint64_t>("0"), std::optional<std::uint64_t>(0));
  EXPECT_EQ(uniscan::parse_number<double>("2.5"), std::optional<double>(2.5));
  EXPECT_EQ(uniscan::parse_number<double>(".5"), std::optional<double>(0.5));
  EXPECT_EQ(uniscan::parse_number<double>("1e-6"), std::optional<double>(1e-6));
  for (const char* bad : {"", "abc", "four", "4x", "4 ", " 4", "-1", "+1", "0x10", "1.5"})
    EXPECT_FALSE(uniscan::parse_number<std::uint64_t>(bad)) << '"' << bad << '"';
  EXPECT_FALSE(uniscan::parse_number<std::uint64_t>("99999999999999999999"));
  for (const char* bad : {"", "abc", "-1", "-0", "1s", "inf", "nan", "1e999", " 1"})
    EXPECT_FALSE(uniscan::parse_number<double>(bad)) << '"' << bad << '"';
}

}  // namespace
