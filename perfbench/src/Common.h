//===- Common.h - Shared helpers of the benchmark ---------------*- C++ -*-==//
///
/// \file
/// Seeded randomness, clocks, the host-speed sampler, order
/// statistics, digests, and the answer tally every workload feeds.
/// Everything here is deterministic except the clocks, the sampler, and
/// the resident-set reading.
///
//===----------------------------------------------------------------------===//

#ifndef TMWBENCH_COMMON_H
#define TMWBENCH_COMMON_H

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace tmwbench {

/// splitmix64: a portable generator, so one seed gives the same stream
/// under every standard library (std::uniform_int_distribution does not).
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, N).
  unsigned below(unsigned N) { return static_cast<unsigned>(next() % N); }
  /// True with probability Percent / 100.
  bool chance(unsigned Percent) { return below(100) < Percent; }

private:
  uint64_t State;
};

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// Median of \p V (0 for an empty sample).
inline double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// CPU time of this process, all threads. Linux leaves out time a thread
/// waits: for a lock, for I/O, for a core, or stolen by the hypervisor.
double processCpuSeconds();

/// CPU time of the calling thread.
double threadCpuSeconds();

/// The host-speed sampler. While a pass runs, one thread per CPU the
/// process may use, pinned to that CPU, runs a short burst of a fixed
/// kernel every kSampleEveryMs and records the CPU time each burst took.
/// The kernel is the benchmark's own code, so a change to the library
/// cannot move it, while a CPU slowed by its neighbours on the host (a
/// busy sibling hyperthread, shared caches, frequency) slows it much as
/// it slows the workload running beside it. On a shared host the speed
/// differs from CPU to CPU and drifts within seconds, hence one sampler
/// per CPU, running during the pass rather than between passes. The
/// kernel churns malloc/free and hashes bytes: of the kernels tried, its
/// time tracked the workloads' best (an L2-resident pointer chase and a
/// random walk over 8 MiB tracked worse). The threads live as long as the
/// process, so their malloc arenas are made once and the workload's
/// memory use does not depend on how many passes ran.
class HostSampler {
public:
  /// The process's sampler; its threads start on first use.
  static HostSampler &get();

  /// Where a pass began: the process CPU time and, per CPU, the bursts
  /// recorded, the sampler thread's CPU time, and the busy clock ticks.
  struct Mark {
    double ProcessCpu = 0;
    std::vector<size_t> Bursts;
    std::vector<double> SamplerCpu;
    std::vector<uint64_t> Busy;
  };
  /// Start a pass.
  Mark begin();
  struct PassSample {
    /// Process CPU time since begin(), less the samplers'.
    double Cpu = 0;
    /// Reference-host seconds per CPU second: each CPU's
    /// kBurstRefSeconds over its median burst since begin(), weighted by
    /// the busy clock ticks Linux counted on that CPU, less its sampler's
    /// (equal weights when the pass was too short to register a tick).
    double HostFactor = 0;
  };
  /// End the pass begun at \p M. Waits, if need be, until every CPU has
  /// finished one burst of this pass and no burst is running.
  PassSample end(const Mark &M);

  ~HostSampler();
  HostSampler(const HostSampler &) = delete;
  HostSampler &operator=(const HostSampler &) = delete;

private:
  HostSampler();
  struct PerCpu {
    int Cpu = 0;
    std::vector<double> Bursts;
    std::thread Thread;
  };
  void loop(PerCpu &C);
  double samplerCpu(PerCpu &C);
  std::mutex Mu;
  std::condition_variable Cv;
  unsigned Active = 0;    ///< passes running
  unsigned Bursting = 0;  ///< samplers in a burst
  uint64_t Passes = 0;    ///< passes begun
  bool Stopping = false;
  std::vector<PerCpu> Cpus;
};

/// Pause between one CPU's bursts: with ~5 ms bursts, the samplers take
/// about 5% of every CPU.
inline constexpr unsigned kSampleEveryMs = 100;

/// A burst's CPU time on the reference host (a 4-vCPU 2.0 GHz Xeon VM),
/// about 5 ms. Reference-host seconds are CPU seconds here times the
/// pass's host factor.
inline constexpr double kBurstRefSeconds = 0.005;

/// Measures passes in reference-host CPU seconds: the process CPU time of
/// each pass (less the samplers'), times the pass's host factor. CPU time
/// leaves out waiting and steal; the host factor leaves out the host's
/// speed.
class PassMeter {
public:
  /// Run \p Body as one measured pass.
  template <class F> void pass(F &&Body) {
    HostSampler &S = HostSampler::get();
    HostSampler::Mark M = S.begin();
    Body();
    HostSampler::PassSample P = S.end(M);
    Cpu.push_back(P.Cpu);
    Factor.push_back(P.HostFactor);
  }
  size_t passes() const { return Cpu.size(); }
  /// Median pass, in reference-host CPU seconds.
  double medianRefSeconds() const;
  /// Median host factor: reference-host seconds per CPU second here.
  double medianHostFactor() const { return median(Factor); }

private:
  std::vector<double> Cpu, Factor;
};

/// The \p Q-th percentile (nearest rank) of \p V, lowered so that at
/// least 10 samples lie beyond it when the sample is too small for \p Q
/// to be resolved (fewer than 10 / (1 - Q/100) samples).
double tailPercentile(std::vector<double> V, double Q);

/// FNV-1a 64 over \p Bytes, continuing from \p H.
inline uint64_t fnv1a(std::string_view Bytes,
                      uint64_t H = 0xcbf29ce484222325ull) {
  for (unsigned char C : Bytes) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  return H;
}

std::string hex64(uint64_t V);

/// Read the whole file at \p Path into \p Out; false if it cannot be read.
bool readFile(const std::string &Path, std::string &Out);

/// Peak resident set size of this process, in MiB.
double peakRssMb();

/// Answers checked and answers found wrong, errored, refused, or lost.
/// Thread-safe; `failed_frac` is `failed / attempted`.
struct Tally {
  std::atomic<uint64_t> Attempted{0}, Failed{0};
  void record(bool Ok) {
    Attempted.fetch_add(1, std::memory_order_relaxed);
    if (!Ok)
      Failed.fetch_add(1, std::memory_order_relaxed);
  }
  double failedFrac() const {
    uint64_t A = Attempted.load();
    return A ? double(Failed.load()) / double(A) : 0;
  }
};

} // namespace tmwbench

#endif // TMWBENCH_COMMON_H
