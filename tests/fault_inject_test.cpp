// The UNISCAN_FAULT_INJECT spec language (util/fault_inject.hpp), checked
// at the hook itself rather than through a whole suite run: exact and
// `*`-prefix matching per field, ';'-separated spec lists, the last-colon
// stage rule, inert malformed specs, and the text of the thrown error.
#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "util/fault_inject.hpp"

namespace uniscan {
namespace {

/// True when the hook throws for (`circuit`, `stage`).
bool fires(const std::string& circuit, const std::string& stage) {
  try {
    maybe_inject_fault(circuit, stage);
  } catch (const std::runtime_error&) {
    return true;
  }
  return false;
}

class FaultInject : public ::testing::Test {
 protected:
  void set(const std::string& spec) {
    ::setenv("UNISCAN_FAULT_INJECT", spec.c_str(), /*overwrite=*/1);
  }
  void TearDown() override { ::unsetenv("UNISCAN_FAULT_INJECT"); }
};

TEST_F(FaultInject, UnsetOrEmptyIsInert) {
  ::unsetenv("UNISCAN_FAULT_INJECT");
  EXPECT_FALSE(fires("b01", "atpg"));
  set("");
  EXPECT_FALSE(fires("b01", "atpg"));
  EXPECT_FALSE(fires("", ""));
}

TEST_F(FaultInject, ExactSpecFiresOnlyForItsCircuitAndStage) {
  set("b01:atpg");
  EXPECT_TRUE(fires("b01", "atpg"));
  EXPECT_FALSE(fires("b01", "faults"));
  EXPECT_FALSE(fires("b02", "atpg"));
  // Exact means exact: no implicit prefix or suffix match.
  EXPECT_FALSE(fires("b010", "atpg"));
  EXPECT_FALSE(fires("b0", "atpg"));
  EXPECT_FALSE(fires("b01", "atpg_sat"));
}

TEST_F(FaultInject, TrailingStarMatchesCircuitByPrefix) {
  set("b0*:scan");
  EXPECT_TRUE(fires("b01", "scan"));
  EXPECT_TRUE(fires("b09", "scan"));
  EXPECT_TRUE(fires("b0", "scan"));
  EXPECT_FALSE(fires("s27", "scan"));
  EXPECT_FALSE(fires("b01", "atpg"));
}

TEST_F(FaultInject, TrailingStarMatchesStageByPrefix) {
  set("s27:re*");
  EXPECT_TRUE(fires("s27", "restoration"));
  EXPECT_FALSE(fires("s27", "omission"));
  EXPECT_FALSE(fires("b01", "restoration"));
}

TEST_F(FaultInject, StarAloneMatchesEverything) {
  set("*:*");
  EXPECT_TRUE(fires("s27", "load"));
  EXPECT_TRUE(fires("b02", "omission"));
  EXPECT_TRUE(fires("", ""));
}

TEST_F(FaultInject, SemicolonSeparatedSpecsAreEachLive) {
  set("b01:atpg;s27:omission;b02:*");
  EXPECT_TRUE(fires("b01", "atpg"));
  EXPECT_TRUE(fires("s27", "omission"));
  EXPECT_TRUE(fires("b02", "load"));
  EXPECT_FALSE(fires("b01", "omission"));
  EXPECT_FALSE(fires("s27", "atpg"));
}

TEST_F(FaultInject, StageIsTheFieldAfterTheLastColon) {
  // Circuit names may contain colons; only the last one splits.
  set("lib:cell:faults");
  EXPECT_TRUE(fires("lib:cell", "faults"));
  EXPECT_FALSE(fires("lib", "cell:faults"));
  // So a trailing ":N" is a stage field, not a count.
  set("b01:atpg:2");
  EXPECT_FALSE(fires("b01", "atpg"));
  EXPECT_TRUE(fires("b01:atpg", "2"));
}

TEST_F(FaultInject, MalformedSpecsAreInert) {
  for (const char* spec : {"b01", "atpg", ";;", "b01atpg", ";b01;"}) {
    SCOPED_TRACE(spec);
    set(spec);
    EXPECT_FALSE(fires("b01", "atpg"));
  }
  // A malformed spec does not disable its well-formed neighbours.
  set("garbage;b01:atpg");
  EXPECT_TRUE(fires("b01", "atpg"));
}

TEST_F(FaultInject, ErrorNamesTheSpecStageAndCircuit) {
  set("s27:fau*;b01:atpg");
  try {
    maybe_inject_fault("s27", "faults");
    FAIL() << "expected the injected fault to throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("injected fault"), std::string::npos) << what;
    EXPECT_NE(what.find("UNISCAN_FAULT_INJECT=s27:fau*"), std::string::npos) << what;
    EXPECT_NE(what.find("stage 'faults'"), std::string::npos) << what;
    EXPECT_NE(what.find("circuit 's27'"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace uniscan
