// Failure isolation for suite runs (DESIGN.md §5f): one poisoned circuit
// becomes a structured TaskFailure in its own slot while every other
// circuit's report stays bit-identical to a clean run — at any thread count.
// Failures are injected deterministically via UNISCAN_FAULT_INJECT. The
// last cases pin the contract of the one suite runner, run_suite_tasks:
// ordered, exactly-once emission, failure capture for any thrown type,
// lowest-slot rethrow under fail_fast, and inline nested fan-out.
#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "util/thread_pool.hpp"
#include "workloads/suite.hpp"

namespace uniscan {
namespace {

/// Scoped UNISCAN_FAULT_INJECT setting; always unset on exit so one test's
/// poison cannot leak into the next.
class ScopedInjection {
 public:
  explicit ScopedInjection(const std::string& spec) {
    ::setenv("UNISCAN_FAULT_INJECT", spec.c_str(), /*overwrite=*/1);
  }
  ~ScopedInjection() { ::unsetenv("UNISCAN_FAULT_INJECT"); }
};

std::vector<SuiteEntry> mini_suite() {
  return {*find_suite_entry("s27"), *find_suite_entry("b01"), *find_suite_entry("b02")};
}

class SuiteIsolation : public ::testing::Test {
 protected:
  void TearDown() override {
    ::unsetenv("UNISCAN_FAULT_INJECT");
    ThreadPool::set_global_threads(1);
  }
};

TEST_F(SuiteIsolation, CleanRunHasNoFailures) {
  const auto rows = run_suite_generate_and_compact(mini_suite());
  ASSERT_EQ(rows.size(), 3u);
  for (const auto& row : rows) {
    EXPECT_FALSE(row.failed());
    EXPECT_GT(row.value.atpg.detected, 0u);
    EXPECT_FALSE(row.value.timed_out());
  }
}

TEST_F(SuiteIsolation, InjectedFailureIsIsolatedAndOtherRowsBitIdentical) {
  const auto suite = mini_suite();
  const auto clean = run_suite_generate_and_compact(suite);
  ASSERT_EQ(clean.size(), 3u);

  const ScopedInjection poison("b01:atpg");
  for (const std::size_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool::set_global_threads(threads);
    const auto rows = run_suite_generate_and_compact(suite);
    ASSERT_EQ(rows.size(), 3u);

    // The poisoned circuit fails with a structured, stage-tagged record.
    ASSERT_TRUE(rows[1].failed());
    EXPECT_EQ(rows[1].failure->circuit, "b01");
    EXPECT_EQ(rows[1].failure->stage, "atpg");
    EXPECT_NE(rows[1].failure->what.find("injected fault"), std::string::npos);

    // The healthy circuits are bit-identical to the clean run.
    for (const std::size_t i : {0u, 2u}) {
      ASSERT_FALSE(rows[i].failed()) << suite[i].name;
      EXPECT_EQ(rows[i].value.atpg.sequence, clean[i].value.atpg.sequence) << suite[i].name;
      EXPECT_EQ(rows[i].value.atpg.detected, clean[i].value.atpg.detected) << suite[i].name;
      EXPECT_EQ(rows[i].value.omission.sequence, clean[i].value.omission.sequence)
          << suite[i].name;
    }
  }
}

TEST_F(SuiteIsolation, WildcardStageKillsFirstStageOfTheCircuit) {
  const ScopedInjection poison("b02:*");
  const auto rows = run_suite_generate_and_compact(mini_suite());
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_FALSE(rows[0].failed());
  EXPECT_FALSE(rows[1].failed());
  ASSERT_TRUE(rows[2].failed());
  EXPECT_EQ(rows[2].failure->circuit, "b02");
  EXPECT_EQ(rows[2].failure->stage, "load");  // the flow's first stage
}

TEST_F(SuiteIsolation, FailFastPropagatesTheStageError) {
  const ScopedInjection poison("b01:faults");
  PipelineConfig cfg;
  cfg.fail_fast = true;
  try {
    run_suite_generate_and_compact(mini_suite(), cfg);
    FAIL() << "expected StageError to escape under fail_fast";
  } catch (const StageError& e) {
    EXPECT_EQ(e.stage(), "faults");
    EXPECT_NE(std::string(e.what()).find("b01"), std::string::npos);
  }
}

TEST_F(SuiteIsolation, TranslateFlowIsolatesFailuresToo) {
  const ScopedInjection poison("b01:baseline");
  const auto rows = run_suite_translate_and_compact(mini_suite());
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_FALSE(rows[0].failed());
  ASSERT_TRUE(rows[1].failed());
  EXPECT_EQ(rows[1].failure->stage, "baseline");
  EXPECT_FALSE(rows[2].failed());
  EXPECT_GT(rows[2].value.omitted.total, 0u);
}

TEST_F(SuiteIsolation, EachStageFailureIsTaggedWithThatStage) {
  // Every stage of the generate flow is a distinct injection point, and the
  // failure record names the stage that raised — never a later or earlier one.
  const std::vector<SuiteEntry> suite = {*find_suite_entry("s27"), *find_suite_entry("b01")};
  for (const char* stage :
       {"load", "scan", "faults", "atpg", "restoration", "omission", "verify", "baseline"}) {
    SCOPED_TRACE(stage);
    const ScopedInjection poison(std::string("b01:") + stage);
    const auto rows = run_suite_generate_and_compact(suite);
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_FALSE(rows[0].failed());
    ASSERT_TRUE(rows[1].failed());
    EXPECT_EQ(rows[1].failure->circuit, "b01");
    EXPECT_EQ(rows[1].failure->stage, stage);
  }
}

TEST_F(SuiteIsolation, TranslateFlowHealthyRowsBitIdenticalAcrossThreads) {
  const auto suite = mini_suite();
  const auto clean = run_suite_translate_and_compact(suite);
  ASSERT_EQ(clean.size(), 3u);

  const ScopedInjection poison("s27:translate");
  for (const std::size_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool::set_global_threads(threads);
    const auto rows = run_suite_translate_and_compact(suite);
    ASSERT_EQ(rows.size(), 3u);
    ASSERT_TRUE(rows[0].failed());
    EXPECT_EQ(rows[0].failure->stage, "translate");
    for (const std::size_t i : {1u, 2u}) {
      ASSERT_FALSE(rows[i].failed()) << suite[i].name;
      EXPECT_EQ(rows[i].value.baseline.translated, clean[i].value.baseline.translated)
          << suite[i].name;
      EXPECT_EQ(rows[i].value.omission.sequence, clean[i].value.omission.sequence)
          << suite[i].name;
    }
  }
}

TEST_F(SuiteIsolation, PerCircuitBudgetProducesTimedOutNotFailed) {
  // The per-circuit budget is anchored inside each circuit's flow; expired,
  // it degrades every row exactly as the suite budget does.
  PipelineConfig cfg;
  cfg.per_circuit_budget_secs = 1e-9;
  ThreadPool::set_global_threads(2);
  const auto rows = run_suite_generate_and_compact(mini_suite(), cfg);
  ASSERT_EQ(rows.size(), 3u);
  for (const auto& row : rows) {
    ASSERT_FALSE(row.failed());
    EXPECT_TRUE(row.value.timed_out());
    EXPECT_EQ(row.value.atpg.proved_redundant, 0u);
  }
}

TEST_F(SuiteIsolation, CancelledParentTokenProducesTimedOutNotFailed) {
  // An external cancel (a Ctrl-C handler's token) reaches every circuit
  // through the budgets derived from it, with no budget set at all.
  PipelineConfig cfg;
  cfg.cancel = CancelToken().child(Deadline::never());
  cfg.cancel.request_cancel();
  const auto rows = run_suite_translate_and_compact(mini_suite(), cfg);
  ASSERT_EQ(rows.size(), 3u);
  for (const auto& row : rows) {
    ASSERT_FALSE(row.failed());
    EXPECT_TRUE(row.value.timed_out());
  }
}

TEST_F(SuiteIsolation, SuiteBudgetAnchoredOnceProducesTimedOutNotFailed) {
  // A pre-expired suite budget must DEGRADE (timed_out rows with verified
  // partial results), never FAIL: no exceptions, no TaskFailure slots.
  PipelineConfig cfg;
  cfg.time_budget_secs = 1e-9;
  const auto rows = run_suite_generate_and_compact(mini_suite(), cfg);
  ASSERT_EQ(rows.size(), 3u);
  for (const auto& row : rows) {
    ASSERT_FALSE(row.failed());
    EXPECT_TRUE(row.value.timed_out());
    EXPECT_EQ(row.value.atpg.proved_redundant, 0u);
  }
}

// ---------------------------------------------------------------------------
// Streaming contract of run_suite_tasks: `emit` sees every slot exactly
// once, in suite order, whatever order the tasks finish in — including a
// failed slot in the middle. Under fail_fast nothing at or past the failing
// slot is emitted.

/// Eight entries, so four workers interleave and finish out of order.
std::vector<SuiteEntry> stream_suite() {
  std::vector<SuiteEntry> suite;
  for (std::size_t i = 0; i < 8; ++i) suite.push_back(*find_suite_entry(i % 2 ? "b01" : "s27"));
  return suite;
}

constexpr std::size_t kFailingSlot = 3;

/// A task whose cost shrinks with its index (later slots tend to finish
/// first) and whose middle slot throws a stage-tagged error.
std::size_t stream_task(std::size_t i) {
  volatile std::size_t spin = 0;
  for (std::size_t k = 0; k < (8 - i) * 200000; ++k) spin = spin + k;
  if (i == kFailingSlot) throw StageError("atpg", "poisoned slot");
  return i * 10;
}

TEST_F(SuiteIsolation, StreamingEmitsEverySlotOnceInSuiteOrder) {
  const auto suite = stream_suite();
  for (const std::size_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool::set_global_threads(threads);
    // No lock here: the runner serializes emit (TSan checks this test).
    std::vector<std::size_t> emitted;
    const auto rows = run_suite_tasks(
        suite, stream_task, [&](std::size_t i, const TaskOutcome<std::size_t>& o) {
          EXPECT_EQ(o.failed(), i == kFailingSlot) << "slot " << i;
          emitted.push_back(i);
        });
    ASSERT_EQ(rows.size(), suite.size());
    std::vector<std::size_t> want(suite.size());
    for (std::size_t i = 0; i < want.size(); ++i) want[i] = i;
    EXPECT_EQ(emitted, want);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (i == kFailingSlot) {
        ASSERT_TRUE(rows[i].failed());
        EXPECT_EQ(rows[i].failure->circuit, suite[i].name);
        EXPECT_EQ(rows[i].failure->stage, "atpg");
        EXPECT_EQ(rows[i].failure->what, "poisoned slot");
      } else {
        ASSERT_FALSE(rows[i].failed()) << "slot " << i;
        EXPECT_EQ(rows[i].value, i * 10);
      }
    }
  }
}

TEST_F(SuiteIsolation, StreamingFailFastEmitsNothingPastTheFailingSlot) {
  const auto suite = stream_suite();
  for (const std::size_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool::set_global_threads(threads);
    std::vector<std::size_t> emitted;
    try {
      run_suite_tasks(
          suite, stream_task,
          [&](std::size_t i, const TaskOutcome<std::size_t>&) { emitted.push_back(i); },
          /*fail_fast=*/true);
      FAIL() << "expected the failing slot's StageError to escape";
    } catch (const StageError& e) {
      EXPECT_EQ(e.stage(), "atpg");
    }
    for (const std::size_t i : emitted) EXPECT_LT(i, kFailingSlot);
    // Emission is a prefix: whatever was emitted is 0, 1, 2, ... in order.
    for (std::size_t k = 0; k < emitted.size(); ++k) EXPECT_EQ(emitted[k], k);
  }
}

TEST_F(SuiteIsolation, EmptySuiteReturnsNoSlotsAndNeverEmits) {
  std::size_t calls = 0;
  const auto rows = run_suite_tasks(
      std::vector<SuiteEntry>{},
      [&](std::size_t) {
        ++calls;
        return 1;
      },
      [&](std::size_t, const TaskOutcome<int>&) { ++calls; });
  EXPECT_TRUE(rows.empty());
  EXPECT_EQ(calls, 0u);
}

TEST_F(SuiteIsolation, NoOpEmitReturnsTheSameOutcomes) {
  // Streaming only observes the slots; it never changes what they hold.
  const auto suite = stream_suite();
  ThreadPool::set_global_threads(4);
  std::size_t emitted = 0;
  const auto streamed = run_suite_tasks(
      suite, stream_task, [&](std::size_t, const TaskOutcome<std::size_t>&) { ++emitted; });
  const auto quiet =
      run_suite_tasks(suite, stream_task, [](std::size_t, const TaskOutcome<std::size_t>&) {});
  EXPECT_EQ(emitted, suite.size());
  ASSERT_EQ(streamed.size(), quiet.size());
  for (std::size_t i = 0; i < quiet.size(); ++i) {
    EXPECT_EQ(streamed[i].failed(), quiet[i].failed()) << "slot " << i;
    EXPECT_EQ(streamed[i].value, quiet[i].value) << "slot " << i;
  }
}

TEST_F(SuiteIsolation, UntaggedExceptionsFailWithUnknownStage) {
  // Slot 1 throws a plain std::exception, slot 2 something that is not an
  // exception at all; both become failures of their own slot, stage "unknown".
  const std::vector<SuiteEntry> suite = mini_suite();
  const auto rows = run_suite_tasks(
      suite,
      [](std::size_t i) -> int {
        if (i == 1) throw std::runtime_error("plain error");
        if (i == 2) throw 42;
        return 7;
      },
      [](std::size_t, const TaskOutcome<int>&) {});
  ASSERT_EQ(rows.size(), 3u);
  ASSERT_FALSE(rows[0].failed());
  EXPECT_EQ(rows[0].value, 7);
  ASSERT_TRUE(rows[1].failed());
  EXPECT_EQ(rows[1].failure->circuit, "b01");
  EXPECT_EQ(rows[1].failure->stage, "unknown");
  EXPECT_EQ(rows[1].failure->what, "plain error");
  ASSERT_TRUE(rows[2].failed());
  EXPECT_EQ(rows[2].failure->circuit, "b02");
  EXPECT_EQ(rows[2].failure->stage, "unknown");
  EXPECT_EQ(rows[2].failure->what, "non-standard exception");
  // A failed slot's value is default-constructed, never a partial result.
  EXPECT_EQ(rows[1].value, 0);
  EXPECT_EQ(rows[2].value, 0);
}

TEST_F(SuiteIsolation, EveryFailedSlotIsStillEmittedInOrder) {
  const auto suite = stream_suite();
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool::set_global_threads(threads);
    std::vector<std::size_t> emitted;
    const auto rows = run_suite_tasks(
        suite,
        [](std::size_t i) -> int { throw StageError("scan", "slot " + std::to_string(i)); },
        [&](std::size_t i, const TaskOutcome<int>& o) {
          EXPECT_TRUE(o.failed()) << "slot " << i;
          emitted.push_back(i);
        });
    ASSERT_EQ(emitted.size(), suite.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(emitted[i], i);
      ASSERT_TRUE(rows[i].failed());
      EXPECT_EQ(rows[i].failure->what, "slot " + std::to_string(i));
    }
  }
}

TEST_F(SuiteIsolation, FailFastRethrowsTheLowestFailingSlot) {
  // Slots 2 and 5 both fail, and slot 5 is the cheaper one, so it tends to
  // throw first; the error that escapes is still slot 2's, at every width.
  const auto suite = stream_suite();
  for (const std::size_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool::set_global_threads(threads);
    try {
      run_suite_tasks(
          suite,
          [](std::size_t i) -> std::size_t {
            volatile std::size_t spin = 0;
            for (std::size_t k = 0; k < (8 - i) * 200000; ++k) spin = spin + k;
            if (i == 2 || i == 5) throw StageError("omission", "slot " + std::to_string(i));
            return i;
          },
          [](std::size_t, const TaskOutcome<std::size_t>&) {}, /*fail_fast=*/true);
      FAIL() << "expected a StageError to escape under fail_fast";
    } catch (const StageError& e) {
      EXPECT_EQ(std::string(e.what()), "slot 2");
    }
  }
}

TEST_F(SuiteIsolation, NestedFanOutRunsInlineAndStaysOrdered) {
  // A suite task that itself fans out (as a flow inside a pool task would)
  // must not deadlock; the inner run degenerates to an ordered inline loop.
  const auto suite = mini_suite();
  ThreadPool::set_global_threads(4);
  const auto rows = run_suite_tasks(
      suite,
      [&](std::size_t outer) {
        std::vector<std::size_t> inner_order;
        const auto inner = run_suite_tasks(
            suite, [&](std::size_t i) { return outer * 10 + i; },
            [&](std::size_t i, const TaskOutcome<std::size_t>&) { inner_order.push_back(i); });
        EXPECT_EQ(inner_order, (std::vector<std::size_t>{0, 1, 2}));
        std::size_t sum = 0;
        for (const auto& o : inner) sum += o.value;
        return sum;
      },
      [](std::size_t, const TaskOutcome<std::size_t>&) {});
  ASSERT_EQ(rows.size(), 3u);
  for (std::size_t outer = 0; outer < rows.size(); ++outer) {
    ASSERT_FALSE(rows[outer].failed());
    EXPECT_EQ(rows[outer].value, outer * 30 + 3);
  }
}

}  // namespace
}  // namespace uniscan
