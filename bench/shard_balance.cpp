//===- shard_balance.cpp - Load balance of the parallel Forbid synthesis ------==//
///
/// Measures how the work-stealing prefix pool of `synthesizeForbid` deals
/// the §4.2 search space to worker threads. For a sweep of `--jobs`
/// values it reports:
///
///   * wall-clock synthesis seconds and wall speedup vs one job;
///   * per-worker busy seconds, and the *schedule speedup*
///     total-busy / max-busy — the parallel speedup the schedule admits
///     on >= jobs cores, a load-balance metric independent of how many
///     cores this box happens to have (the pool splits fat subtrees and
///     steals, so no worker is stuck with the fattest one);
///   * task/split/steal counts for the pool.
///
/// Everything lands in `BENCH_shard_balance.json` so the schedule
/// speedup is tracked per commit.
///
/// Knobs: `--jobs N` extends the sweep up to N (default 8); `--smoke`
/// shrinks the event bound for CI; `TMW_BENCH_MAX_EVENTS`,
/// `TMW_BENCH_BUDGET_SECONDS` as everywhere.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "models/ModelRegistry.h"
#include "synth/Conformance.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

using namespace tmw;

namespace {

struct RunStats {
  unsigned Jobs;
  double WallSeconds;
  double ScheduleSpeedup;
  double BusyMax, BusyTotal;
  uint64_t Tasks, Splits, Steals;
  size_t Tests;
};

RunStats measure(const MemoryModel &Tm, const MemoryModel &Baseline,
                 const Vocabulary &V, unsigned N, double Budget,
                 unsigned Jobs) {
  ForbidSuite S = synthesizeForbid(Tm, Baseline, V, N, Budget, Jobs);
  RunStats R{Jobs, S.SynthesisSeconds, 1.0, 0, 0, 0, 0, 0, S.Tests.size()};
  for (const WorkerLoad &L : S.Workers) {
    R.BusyMax = std::max(R.BusyMax, L.BusySeconds);
    R.BusyTotal += L.BusySeconds;
    R.Tasks += L.Tasks;
    R.Splits += L.Splits;
    R.Steals += L.Steals;
  }
  if (R.BusyMax > 0)
    R.ScheduleSpeedup = R.BusyTotal / R.BusyMax;
  return R;
}

} // namespace

int main(int argc, char **argv) {
  bench::header("Shard balance: the work-stealing prefix pool",
                "§4.2 synthesis scaling; ROADMAP work-stealing layer");
  bool Smoke = false;
  for (int I = 1; I < argc; ++I)
    if (std::strcmp(argv[I], "--smoke") == 0)
      Smoke = true;
  unsigned N = bench::maxEvents(Smoke ? 4 : 5);
  double Budget = bench::budgetSeconds(Smoke ? 60.0 : 600.0);
  unsigned MaxJobs = std::max(8u, bench::jobs(argc, argv, 8));

  std::unique_ptr<MemoryModel> Tm = ModelRegistry::parse("x86");
  std::unique_ptr<MemoryModel> Baseline =
      ModelRegistry::parse("x86/+baseline");
  Vocabulary V = Vocabulary::forArch(Arch::X86);

  std::printf("\nx86 Forbid synthesis, |E| = %u (sweep to %u jobs)\n\n", N,
              MaxJobs);
  std::printf("%5s %9s %9s %9s %7s %7s %7s %6s\n", "jobs", "wall-s",
              "wall-spd", "sched-spd", "tasks", "splits", "steals", "tests");

  std::string Json;
  double RefWall = 0, SpeedupAt8 = 0;
  for (unsigned Jobs = 1; Jobs <= MaxJobs; Jobs *= 2) {
    RunStats R = measure(*Tm, *Baseline, V, N, Budget, Jobs);
    if (Jobs == 1)
      RefWall = R.WallSeconds;
    double WallSpd = R.WallSeconds > 0 ? RefWall / R.WallSeconds : 0;
    if (Jobs == 8)
      SpeedupAt8 = R.ScheduleSpeedup;
    std::printf("%5u %9.3f %9.2f %9.2f %7llu %7llu %7llu %6zu\n", Jobs,
                R.WallSeconds, WallSpd, R.ScheduleSpeedup,
                static_cast<unsigned long long>(R.Tasks),
                static_cast<unsigned long long>(R.Splits),
                static_cast<unsigned long long>(R.Steals), R.Tests);

    char Entry[320];
    std::snprintf(
        Entry, sizeof(Entry),
        "%s{\"jobs\": %u, \"wall_seconds\": %.4f, "
        "\"wall_speedup\": %.3f, \"schedule_speedup\": %.3f, "
        "\"busy_max\": %.4f, \"busy_total\": %.4f, \"tasks\": %llu, "
        "\"splits\": %llu, \"steals\": %llu, \"tests\": %zu}",
        Json.empty() ? "" : ", ", Jobs, R.WallSeconds, WallSpd,
        R.ScheduleSpeedup, R.BusyMax, R.BusyTotal,
        static_cast<unsigned long long>(R.Tasks),
        static_cast<unsigned long long>(R.Splits),
        static_cast<unsigned long long>(R.Steals), R.Tests);
    Json += Entry;
  }

  std::printf("\nAt 8 jobs the work-stealing schedule admits %.2fx "
              "parallelism.\n",
              SpeedupAt8);

  char Head[192];
  std::snprintf(Head, sizeof(Head),
                "{\"bench\": \"shard_balance\", \"num_events\": %u, "
                "\"smoke\": %s, \"ws_schedule_speedup_at_8\": %.3f, "
                "\"runs\": [",
                N, Smoke ? "true" : "false", SpeedupAt8);
  bench::writeBenchJson("shard_balance", std::string(Head) + Json + "]}");
  return 0;
}
