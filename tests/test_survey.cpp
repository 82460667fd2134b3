// Tests for the crash-contained survey runner: verdict classification
// (crash / timeout / oom / validation-error / ok) of fork-isolated cells,
// retry with deterministic exponential backoff, the quarantine round-trip,
// and the post-kernel audit contract — hostile stub allocators are caught,
// healthy allocators pass audits even after a watchdog-cancelled kernel.
#include <gtest/gtest.h>

#include <signal.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/registry.h"
#include "core/stack_builder.h"
#include "core/stub_allocators.h"
#include "core/survey_runner.h"
#include "gpu/device.h"
#include "gpu/watchdog.h"

namespace gms {
namespace {

using core::CellOutcome;
using core::Registry;
using core::SurveyRunner;
using core::Verdict;
using gpu::Device;
using gpu::GpuConfig;
using gpu::ThreadCtx;

std::string temp_path(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

SurveyRunner::Options fast_opts(const std::string& quarantine_file,
                                unsigned retries = 0) {
  SurveyRunner::Options opts;
  opts.max_retries = retries;
  opts.backoff_base_ms = 1;  // keep retry sleeps negligible in tests
  opts.deadline_s = 5;
  opts.rlimit_mb = 0;  // unlimited unless a test opts in
  opts.quarantine_path = temp_path(quarantine_file);
  return opts;
}

// ---- verdict classification ------------------------------------------------

TEST(SurveyRunner, ClassifiesOk) {
  std::remove(temp_path("q_ok.json").c_str());
  SurveyRunner runner(fast_opts("q_ok.json"));
  const auto res = runner.run_cell(
      "a/ok", [] { return CellOutcome{SurveyRunner::kExitOk, "fine"}; });
  EXPECT_EQ(res.verdict, Verdict::kOk);
  EXPECT_EQ(res.attempts, 1u);
  EXPECT_FALSE(res.skipped_quarantined);
  EXPECT_EQ(res.detail, "fine");
  EXPECT_EQ(runner.quarantined_count(), 0u);
}

TEST(SurveyRunner, ClassifiesCrashWithSignal) {
  std::remove(temp_path("q_crash.json").c_str());
  SurveyRunner runner(fast_opts("q_crash.json"));
  const auto res = runner.run_cell("a/crash", []() -> CellOutcome {
    raise(SIGSEGV);
    return {};
  });
  EXPECT_EQ(res.verdict, Verdict::kCrash);
  EXPECT_EQ(res.term_signal, SIGSEGV);
  EXPECT_TRUE(runner.is_quarantined("a/crash"));
}

TEST(SurveyRunner, ClassifiesParentDeadlineTimeout) {
  std::remove(temp_path("q_timeout.json").c_str());
  auto opts = fast_opts("q_timeout.json");
  opts.deadline_s = 0.2;
  SurveyRunner runner(opts);
  const auto res = runner.run_cell("a/hang", []() -> CellOutcome {
    // Never yields, never exits: only the parent's SIGKILL ends this.
    for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
  });
  EXPECT_EQ(res.verdict, Verdict::kTimeout);
  EXPECT_TRUE(runner.is_quarantined("a/hang"));
}

TEST(SurveyRunner, ClassifiesOomFromRlimit) {
  std::remove(temp_path("q_oom.json").c_str());
  auto opts = fast_opts("q_oom.json");
  opts.rlimit_mb = 128;
  SurveyRunner runner(opts);
  const auto res = runner.run_cell("a/oom", []() -> CellOutcome {
    // Far past the child's RLIMIT_AS: operator new must throw bad_alloc,
    // which the runner maps to the oom exit code. Touch the pages so the
    // allocation cannot be elided.
    std::vector<std::unique_ptr<std::byte[]>> hoard;
    for (int i = 0; i < 64; ++i) {
      hoard.push_back(std::make_unique<std::byte[]>(64u << 20));
      hoard.back()[0] = std::byte{1};
    }
    return {SurveyRunner::kExitOk, "rlimit did not bite"};
  });
  EXPECT_EQ(res.verdict, Verdict::kOom) << res.detail;
  // OOM is legitimate survey data, never quarantined.
  EXPECT_FALSE(runner.is_quarantined("a/oom"));
}

TEST(SurveyRunner, ClassifiesValidationErrorAndException) {
  std::remove(temp_path("q_val.json").c_str());
  SurveyRunner runner(fast_opts("q_val.json"));
  const auto explicit_code = runner.run_cell("a/val", [] {
    return CellOutcome{SurveyRunner::kExitValidation, "canary dead"};
  });
  EXPECT_EQ(explicit_code.verdict, Verdict::kValidationError);
  EXPECT_EQ(explicit_code.detail, "canary dead");

  const auto thrown = runner.run_cell("a/throw", []() -> CellOutcome {
    throw std::runtime_error("heap walk diverged");
  });
  EXPECT_EQ(thrown.verdict, Verdict::kValidationError);
  EXPECT_NE(thrown.detail.find("heap walk diverged"), std::string::npos);
  EXPECT_TRUE(runner.is_quarantined("a/val"));
  EXPECT_TRUE(runner.is_quarantined("a/throw"));
}

TEST(SurveyRunner, UnknownExitCodeIsCrash) {
  std::remove(temp_path("q_unknown.json").c_str());
  SurveyRunner runner(fast_opts("q_unknown.json"));
  const auto res = runner.run_cell(
      "a/weird", [] { return CellOutcome{7, "off-protocol"}; });
  EXPECT_EQ(res.verdict, Verdict::kCrash);
  EXPECT_NE(res.detail.find("exit code 7"), std::string::npos);
}

// ---- retry + backoff --------------------------------------------------------

TEST(SurveyRunner, RetriesTransientVerdictsWithRecordedBackoff) {
  std::remove(temp_path("q_retry.json").c_str());
  SurveyRunner runner(fast_opts("q_retry.json", /*retries=*/2));
  const auto res = runner.run_cell("a/flaky", []() -> CellOutcome {
    raise(SIGSEGV);  // crashes on every attempt
    return {};
  });
  EXPECT_EQ(res.verdict, Verdict::kCrash);
  EXPECT_EQ(res.attempts, 3u);  // first try + 2 retries
  // The slept backoff is exactly the deterministic schedule, so a test (or
  // a rerun of a flaky sweep) can assert on it.
  EXPECT_DOUBLE_EQ(
      res.total_backoff_ms,
      runner.backoff_ms("a/flaky", 1) + runner.backoff_ms("a/flaky", 2));
}

TEST(SurveyRunner, DeterministicVerdictsAreNotRetried) {
  std::remove(temp_path("q_noretry.json").c_str());
  SurveyRunner runner(fast_opts("q_noretry.json", /*retries=*/3));
  const auto val = runner.run_cell("a/val", [] {
    return CellOutcome{SurveyRunner::kExitValidation, "deterministic"};
  });
  EXPECT_EQ(val.attempts, 1u);
  EXPECT_EQ(val.total_backoff_ms, 0.0);
  const auto oom = runner.run_cell("a/oom", []() -> CellOutcome {
    throw std::bad_alloc();
  });
  EXPECT_EQ(oom.verdict, Verdict::kOom);
  EXPECT_EQ(oom.attempts, 1u);
}

TEST(SurveyRunner, BackoffScheduleIsExponentialSeededAndBounded) {
  SurveyRunner::Options opts;
  opts.backoff_base_ms = 50;
  opts.backoff_factor = 2.0;
  opts.backoff_jitter = 0.25;
  opts.quarantine_path = temp_path("q_backoff_unused.json");
  SurveyRunner runner(opts);
  double prev = 0;
  for (unsigned attempt = 1; attempt <= 4; ++attempt) {
    const double expected_floor = 50.0 * (1u << (attempt - 1));
    const double ms = runner.backoff_ms("cell", attempt);
    EXPECT_GE(ms, expected_floor);
    EXPECT_LE(ms, expected_floor * 1.25);
    EXPECT_GT(ms, prev);  // strictly growing despite jitter (factor 2 > 1.25)
    EXPECT_DOUBLE_EQ(ms, runner.backoff_ms("cell", attempt));  // deterministic
    prev = ms;
  }
  // Different cells get decorrelated jitter from the same seed.
  EXPECT_NE(runner.backoff_ms("cell", 1), runner.backoff_ms("other", 1));
}

// ---- quarantine round-trip --------------------------------------------------

TEST(SurveyRunner, QuarantinePersistsSkipsAndHeals) {
  const std::string qpath = temp_path("q_roundtrip.json");
  std::remove(qpath.c_str());
  SurveyRunner::Options opts = fast_opts("q_roundtrip.json");

  {
    SurveyRunner first(opts);
    (void)first.run_cell("m/w", []() -> CellOutcome {
      raise(SIGABRT);
      return {};
    });
    EXPECT_TRUE(first.is_quarantined("m/w"));
  }

  // A fresh runner loads the persisted file and skips the cell — the body
  // must never execute (it would succeed and the test would catch that).
  {
    SurveyRunner second(opts);
    EXPECT_EQ(second.quarantined_count(), 1u);
    const auto res = second.run_cell(
        "m/w", [] { return CellOutcome{SurveyRunner::kExitOk, "ran anyway"}; });
    EXPECT_TRUE(res.skipped_quarantined);
    EXPECT_EQ(res.verdict, Verdict::kCrash);  // verdict preserved from file
    EXPECT_EQ(res.attempts, 0u);
    EXPECT_EQ(res.detail.find("ran anyway"), std::string::npos);
  }

  // --retry-quarantined runs the cell anyway; success heals the entry.
  {
    auto retry_opts = opts;
    retry_opts.retry_quarantined = true;
    SurveyRunner third(retry_opts);
    const auto res = third.run_cell(
        "m/w", [] { return CellOutcome{SurveyRunner::kExitOk, "healed"}; });
    EXPECT_FALSE(res.skipped_quarantined);
    EXPECT_EQ(res.verdict, Verdict::kOk);
    EXPECT_FALSE(third.is_quarantined("m/w"));
  }

  // The healed state was persisted: a fourth runner skips nothing.
  {
    SurveyRunner fourth(opts);
    EXPECT_EQ(fourth.quarantined_count(), 0u);
  }
}

TEST(SurveyRunner, WritesSurveyJsonWithVerdictMatrix) {
  std::remove(temp_path("q_json.json").c_str());
  SurveyRunner runner(fast_opts("q_json.json"));
  (void)runner.run_cell("alloc1/churn",
                        [] { return CellOutcome{SurveyRunner::kExitOk, ""}; });
  (void)runner.run_cell("alloc2/churn", []() -> CellOutcome {
    return {SurveyRunner::kExitValidation, "bad"};
  });
  const std::string path = temp_path("survey_test.json");
  runner.write_survey_json(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("\"bench\": \"survey\""), std::string::npos);
  EXPECT_NE(text.find("\"alloc1/churn\""), std::string::npos);
  EXPECT_NE(text.find("\"validation-error\": 1"), std::string::npos);
  EXPECT_NE(text.find("\"ok\": 1"), std::string::npos);
}

// ---- hostile stub allocators through real fork-contained cells --------------

/// Child-side churn over a registry-built manager: alloc kernel, audit,
/// free kernel, audit — the same contract bench_survey enforces.
CellOutcome churn_stub(const std::string& name) {
  core::register_all_allocators();
  core::register_stub_allocators();
  Device dev(32u << 20, GpuConfig{.num_sms = 2});
  auto mgr = core::StackBuilder(dev).build(name, 16u << 20).manager;
  std::vector<void*> ptrs(256, nullptr);
  dev.launch_n(ptrs.size(), [&](ThreadCtx& t) {
    ptrs[t.thread_rank()] = mgr->malloc(t, 64);
  });
  auto audit = mgr->audit();
  if (audit.supported && !audit.ok) {
    return {SurveyRunner::kExitValidation, audit.to_string()};
  }
  dev.launch_n(ptrs.size(), [&](ThreadCtx& t) {
    mgr->free(t, ptrs[t.thread_rank()]);
  });
  audit = mgr->audit();
  if (audit.supported && !audit.ok) {
    return {SurveyRunner::kExitValidation, audit.to_string()};
  }
  return {SurveyRunner::kExitOk, "clean"};
}

TEST(SurveyRunnerStubs, CrashStubIsContainedAsCrash) {
  std::remove(temp_path("q_stub_crash.json").c_str());
  SurveyRunner runner(fast_opts("q_stub_crash.json"));
  const auto res =
      runner.run_cell("CrashStub/churn", [] { return churn_stub("CrashStub"); });
  EXPECT_EQ(res.verdict, Verdict::kCrash);
  EXPECT_EQ(res.term_signal, SIGSEGV);
}

TEST(SurveyRunnerStubs, HangStubHitsParentDeadline) {
  std::remove(temp_path("q_stub_hang.json").c_str());
  auto opts = fast_opts("q_stub_hang.json");
  opts.deadline_s = 1.0;
  SurveyRunner runner(opts);
  const auto res =
      runner.run_cell("HangStub/churn", [] { return churn_stub("HangStub"); });
  // HangStub spins without yield points, so even an in-child watchdog could
  // not unwind it — the parent's SIGKILL is the only way out.
  EXPECT_EQ(res.verdict, Verdict::kTimeout);
}

TEST(SurveyRunnerStubs, CorruptStubIsCaughtByAudit) {
  std::remove(temp_path("q_stub_corrupt.json").c_str());
  SurveyRunner runner(fast_opts("q_stub_corrupt.json"));
  const auto res = runner.run_cell("CorruptStub/churn",
                                   [] { return churn_stub("CorruptStub"); });
  EXPECT_EQ(res.verdict, Verdict::kValidationError);
  EXPECT_NE(res.detail.find("bad header magic"), std::string::npos);
}

TEST(SurveyRunnerStubs, StubsAreExcludedFromDefaultPopulations) {
  core::register_all_allocators();
  core::register_stub_allocators();
  for (const auto& name : Registry::instance().names()) {
    EXPECT_EQ(name.find("Stub"), std::string::npos) << name;
  }
  for (const auto& name : Registry::instance().select("all")) {
    EXPECT_EQ(name.find("Stub"), std::string::npos) << name;
  }
  // ...but they are reachable by explicit name.
  EXPECT_NE(Registry::instance().find("CrashStub"), nullptr);
}

// ---- audit contract: healthy managers survive watchdog cancellation ---------

class PostCancellationAudit : public ::testing::TestWithParam<std::string> {};

TEST_P(PostCancellationAudit, HeapStaysAuditableAfterCancelledKernel) {
  core::register_all_allocators();
  Device dev(64u << 20, GpuConfig{.num_sms = 2, .watchdog_ms = 150});
  auto mgr = core::StackBuilder(dev).build(GetParam(), 32u << 20).manager;

  // Churn forever; the watchdog cancels the launch mid-malloc/free. Lanes
  // unwind at their next yield point, abandoning whatever pages/blocks they
  // held — loss the audit must tolerate, corruption it must not find.
  bool cancelled = false;
  try {
    dev.launch_n(512, [&](ThreadCtx& t) {
      for (;;) {
        void* p = mgr->malloc(t, 64 + (t.thread_rank() % 8) * 16);
        if (p != nullptr) mgr->free(t, p);
        t.backoff();
      }
    });
  } catch (const gpu::LaunchTimeout&) {
    cancelled = true;
  }
  ASSERT_TRUE(cancelled) << "watchdog did not fire";
  EXPECT_TRUE(dev.last_launch_cancelled());

  const auto audit = mgr->audit();
  EXPECT_TRUE(audit.supported) << GetParam();
  EXPECT_TRUE(audit.ok) << GetParam() << ": " << audit.detail;
  EXPECT_GT(audit.structures_walked, 0u);

  // The device must stay usable for the next (uncancelled) launch, and the
  // heap auditable again after it.
  dev.launch_n(64, [&](ThreadCtx& t) {
    void* p = mgr->malloc(t, 32);
    if (p != nullptr) mgr->free(t, p);
  });
  EXPECT_FALSE(dev.last_launch_cancelled());
  EXPECT_TRUE(mgr->audit().ok);
}

INSTANTIATE_TEST_SUITE_P(Allocators, PostCancellationAudit,
                         ::testing::Values("XMalloc", "ScatterAlloc",
                                           "Ouro-P-S", "Ouro-C-S",
                                           "ScatterAlloc+V", "HostExtent",
                                           "HostBuddy", "StreamPool"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (auto& c : n) {
                             if (c == '-' || c == '+') c = '_';
                           }
                           return n;
                         });

}  // namespace
}  // namespace gms
