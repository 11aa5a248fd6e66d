// Tests for the parallel sweep runner: submission-order emission at any job
// count, byte-identical --stats_json output, and per-point failure isolation.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/sweep_runner.h"
#include "src/common/check.h"

namespace pmemsim_bench {
namespace {

// Builds Flags from a convenient literal list (Flags wants argc/argv).
Flags MakeFlags(std::vector<std::string> args) {
  static std::vector<std::string> storage;
  storage = std::move(args);
  static std::vector<char*> argv;
  argv.clear();
  argv.push_back(const_cast<char*>("test"));
  for (std::string& a : storage) {
    argv.push_back(a.data());
  }
  return Flags(static_cast<int>(argv.size()), argv.data());
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Runs a 12-point sweep whose points busy-work different amounts (so that
// with several workers the completion order differs from submission order)
// and returns {captured stdout, stats_json contents, exit code}.
struct SweepResult {
  std::string out;
  std::string stats;
  int rc;
};

// "p<i>", built by appending: gcc 12 at -O3 reports a false -Wrestrict
// overlap for `"p" + std::to_string(i)`.
std::string PointLabel(int i) {
  std::string label = "p";
  label += std::to_string(i);
  return label;
}

SweepResult RunStaggeredSweep(uint32_t jobs, const std::string& stats_path) {
  const Flags flags =
      MakeFlags({"--jobs=" + std::to_string(jobs), "--stats_json=" + stats_path});
  BenchReport report(flags, "sweep_runner_test");
  SweepRunner runner(flags);
  for (int i = 0; i < 12; ++i) {
    runner.Add(PointLabel(i), [i](SweepPoint& point) {
      // Later points finish first: descending busy-work per index.
      volatile uint64_t sink = 0;
      for (uint64_t k = 0; k < (12u - static_cast<uint64_t>(i)) * 20000u; ++k) {
        sink = sink + k;
      }
      point.Printf("point,%d,%llu\n", i, static_cast<unsigned long long>(sink % 7));
      point.AddRow().Set("index", i).Set("label", PointLabel(i));
    });
  }
  testing::internal::CaptureStdout();
  const int rc = runner.Finish(report);
  SweepResult r;
  r.out = testing::internal::GetCapturedStdout();
  r.stats = ReadFile(stats_path);
  r.rc = rc;
  return r;
}

TEST(SweepRunnerTest, ParallelOutputMatchesSerialByteForByte) {
  const std::string dir = testing::TempDir();
  const SweepResult serial = RunStaggeredSweep(1, dir + "/sweep_j1.json");
  const SweepResult sharded = RunStaggeredSweep(4, dir + "/sweep_j4.json");
  EXPECT_EQ(serial.rc, 0);
  EXPECT_EQ(sharded.rc, 0);
  EXPECT_FALSE(serial.out.empty());
  EXPECT_EQ(serial.out, sharded.out);
  EXPECT_FALSE(serial.stats.empty());
  EXPECT_EQ(serial.stats, sharded.stats);
  // Submission order, not completion order: p0 (slowest) still prints first.
  EXPECT_EQ(serial.out.rfind("point,0,", 0), 0u);
}

TEST(SweepRunnerTest, ThrowingPointIsIsolated) {
  const Flags flags = MakeFlags({"--jobs=4"});
  BenchReport report(flags, "sweep_runner_test");
  SweepRunner runner(flags);
  int survivors = 0;
  runner.Add("ok_before", [&](SweepPoint& point) {
    point.Printf("ok_before\n");
    ++survivors;
  });
  runner.Add("boom", [](SweepPoint&) { throw std::runtime_error("deliberate"); });
  runner.Add("ok_after", [&](SweepPoint& point) {
    point.Printf("ok_after\n");
    ++survivors;
  });
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  const int rc = runner.Finish(report);
  const std::string out = testing::internal::GetCapturedStdout();
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(rc, 0);
  EXPECT_EQ(survivors, 2);  // the failure did not stop the sweep
  EXPECT_NE(out.find("ok_before\n"), std::string::npos);
  EXPECT_NE(out.find("error,boom\n"), std::string::npos);
  EXPECT_NE(out.find("ok_after\n"), std::string::npos);
  EXPECT_NE(err.find("deliberate"), std::string::npos);
}

TEST(SweepRunnerTest, CheckFailureBecomesErrorRowNotAbort) {
  const Flags flags = MakeFlags({"--jobs=2"});
  BenchReport report(flags, "sweep_runner_test");
  SweepRunner runner(flags);
  runner.Add("check_fails", [](SweepPoint&) { PMEMSIM_CHECK_MSG(false, "tripped"); });
  runner.Add("fine", [](SweepPoint& point) { point.Printf("fine\n"); });
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  const int rc = runner.Finish(report);
  const std::string out = testing::internal::GetCapturedStdout();
  testing::internal::GetCapturedStderr();
  EXPECT_NE(rc, 0);
  EXPECT_NE(out.find("error,check_fails\n"), std::string::npos);
  EXPECT_NE(out.find("fine\n"), std::string::npos);
}

TEST(SweepRunnerTest, JobsZeroClampsToOne) {
  const Flags flags = MakeFlags({"--jobs=0"});
  SweepRunner runner(flags);
  EXPECT_EQ(runner.jobs(), 1u);
}

TEST(SweepRunnerTest, UnqueriedEngineThreadsFlagExitsTwo) {
  // --engine_threads parallelizes WITHIN one sweep point and only the
  // partitioned serving engine implements it. Benches that never query the
  // flag (every fig*/ablation_* sweep) must reject it loudly at exit 2 via
  // RejectUnknown, not silently run single-domain and report wrong context.
  const Flags flags = MakeFlags({"--jobs=2", "--engine_threads=4"});
  SweepRunner runner(flags);  // queries --jobs; --engine_threads stays unknown
  EXPECT_EXIT(flags.RejectUnknown(), testing::ExitedWithCode(2),
              "unrecognized flag '--engine_threads'");
}

}  // namespace
}  // namespace pmemsim_bench
