//===- Common.cpp - Shared helpers of the benchmark -----------------------===//

#include "Common.h"

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <pthread.h>
#include <sched.h>
#include <sstream>
#include <sys/resource.h>
#include <unistd.h>

namespace tmwbench {

double processCpuSeconds() {
  timespec T;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &T);
  return double(T.tv_sec) + double(T.tv_nsec) * 1e-9;
}

double threadCpuSeconds() {
  timespec T;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &T);
  return double(T.tv_sec) + double(T.tv_nsec) * 1e-9;
}

namespace {

/// The sampler's kernel: small blocks of 30-93 bytes allocated, filled,
/// hashed, and kept in a ring of 512 live blocks that is freed every 512
/// rounds. It uses malloc/free directly, so no replacement of operator
/// new can change it.
uint64_t burstKernel(uint64_t Seed) {
  constexpr unsigned kRounds = 20480, kLive = 512;
  char *Ring[kLive] = {};
  uint64_t H = Seed * 0x9e3779b97f4a7c15ull + 1;
  for (unsigned R = 0; R < kRounds; ++R) {
    size_t N = 30 + (H >> 58);
    char *P = static_cast<char *>(std::malloc(N));
    for (size_t I = 0; I < N; ++I)
      P[I] = static_cast<char>(H >> (I % 8 * 8));
    H = fnv1a(std::string_view(P, N), H) + R;
    Ring[R % kLive] = P;
    if (R % kLive == kLive - 1)
      for (char *&B : Ring) {
        H += static_cast<unsigned char>(B[H % 30]);
        std::free(B);
        B = nullptr;
      }
  }
  for (char *B : Ring)
    std::free(B);
  return H;
}

/// CPUs sampled at most: the workloads use at most 4 threads at once.
constexpr size_t kMaxSampledCpus = 16;

/// Keeps the kernel's results live.
std::atomic<uint64_t> BurstSink{0};

/// Busy clock ticks (user, nice, system, irq, softirq) of each CPU, from
/// /proc/stat; empty if it cannot be read.
std::vector<uint64_t> busyTicks() {
  std::vector<uint64_t> Out;
  std::ifstream In("/proc/stat");
  for (std::string Line; std::getline(In, Line);) {
    if (Line.compare(0, 3, "cpu") || Line.size() < 4 || Line[3] == ' ')
      continue;
    std::istringstream L(Line.substr(3));
    unsigned Cpu;
    uint64_t User = 0, Nice = 0, System = 0, Idle = 0, IoWait = 0, Irq = 0,
             SoftIrq = 0;
    L >> Cpu >> User >> Nice >> System >> Idle >> IoWait >> Irq >> SoftIrq;
    if (Cpu >= Out.size())
      Out.resize(Cpu + 1);
    Out[Cpu] = User + Nice + System + Irq + SoftIrq;
  }
  return Out;
}

} // namespace

HostSampler &HostSampler::get() {
  static HostSampler Sampler;
  return Sampler;
}

HostSampler::HostSampler() {
  cpu_set_t Allowed;
  CPU_ZERO(&Allowed);
  if (sched_getaffinity(0, sizeof Allowed, &Allowed) != 0)
    CPU_SET(0, &Allowed);
  // Every PerCpu is in place before any thread starts: no reallocation.
  for (int Cpu = 0; Cpu < CPU_SETSIZE && Cpus.size() < kMaxSampledCpus; ++Cpu)
    if (CPU_ISSET(Cpu, &Allowed)) {
      Cpus.emplace_back();
      Cpus.back().Cpu = Cpu;
    }
  for (PerCpu &C : Cpus)
    C.Thread = std::thread([this, &C] { loop(C); });
}

HostSampler::~HostSampler() {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Stopping = true;
  }
  Cv.notify_all();
  for (PerCpu &C : Cpus)
    C.Thread.join();
}

void HostSampler::loop(PerCpu &C) {
  cpu_set_t One;
  CPU_ZERO(&One);
  CPU_SET(C.Cpu, &One);
  pthread_setaffinity_np(pthread_self(), sizeof One, &One);
  std::unique_lock<std::mutex> Lock(Mu);
  for (uint64_t N = 0;; ++N) {
    Cv.wait(Lock, [this] { return Stopping || Active > 0; });
    if (Stopping)
      return;
    ++Bursting;
    Lock.unlock();
    double T0 = threadCpuSeconds();
    BurstSink.fetch_xor(burstKernel(N), std::memory_order_relaxed);
    double T1 = threadCpuSeconds();
    Lock.lock();
    --Bursting;
    C.Bursts.push_back(T1 - T0);
    Cv.notify_all(); // end() may wait for this burst
    // Pause, but burst at once when a new pass begins.
    uint64_t Seen = Passes;
    Cv.wait_for(Lock, std::chrono::milliseconds(kSampleEveryMs),
                [&] { return Stopping || Passes != Seen; });
  }
}

double HostSampler::samplerCpu(PerCpu &C) {
  clockid_t Clock;
  timespec T;
  if (pthread_getcpuclockid(C.Thread.native_handle(), &Clock) != 0 ||
      clock_gettime(Clock, &T) != 0)
    return 0;
  return double(T.tv_sec) + double(T.tv_nsec) * 1e-9;
}

// Both ends of a pass read the clocks while every sampler is idle: the
// process clock lags a running thread's own clock by up to a scheduler
// tick, so a sampler caught mid-burst would be subtracted in full but
// counted only in part.

HostSampler::Mark HostSampler::begin() {
  Mark M;
  std::vector<uint64_t> Busy = busyTicks();
  {
    std::lock_guard<std::mutex> Lock(Mu);
    for (PerCpu &C : Cpus) {
      M.Bursts.push_back(C.Bursts.size());
      M.SamplerCpu.push_back(samplerCpu(C));
      M.Busy.push_back(size_t(C.Cpu) < Busy.size() ? Busy[C.Cpu] : 0);
    }
    M.ProcessCpu = processCpuSeconds();
    ++Active;
    ++Passes;
  }
  Cv.notify_all(); // burst now, at the start of the pass
  return M;
}

HostSampler::PassSample HostSampler::end(const Mark &M) {
  std::unique_lock<std::mutex> Lock(Mu);
  Cv.wait(Lock, [&] {
    for (size_t I = 0; I < Cpus.size(); ++I)
      if (Cpus[I].Bursts.size() <= M.Bursts[I])
        return false;
    return true;
  });
  --Active;
  Cv.wait(Lock, [this] { return Bursting == 0; });
  PassSample P;
  P.Cpu = processCpuSeconds() - M.ProcessCpu;
  std::vector<double> Used;
  for (size_t I = 0; I < Cpus.size(); ++I) {
    Used.push_back(samplerCpu(Cpus[I]) - M.SamplerCpu[I]);
    P.Cpu -= Used.back();
  }
  std::vector<uint64_t> Busy = busyTicks();
  double Weighted = 0, Weights = 0, Plain = 0;
  for (size_t I = 0; I < Cpus.size(); ++I) {
    const std::vector<double> &B = Cpus[I].Bursts;
    double F = kBurstRefSeconds /
               median(std::vector<double>(B.begin() + M.Bursts[I], B.end()));
    uint64_t Ticks = size_t(Cpus[I].Cpu) < Busy.size() ? Busy[Cpus[I].Cpu] : 0;
    // The CPU's busy ticks less its sampler's own.
    double W = std::max(0.0, double(Ticks - M.Busy[I]) -
                                 Used[I] * double(sysconf(_SC_CLK_TCK)));
    Weighted += W * F;
    Weights += W;
    Plain += F;
  }
  P.HostFactor = Weights > 0 ? Weighted / Weights : Plain / double(Cpus.size());
  return P;
}

double PassMeter::medianRefSeconds() const {
  std::vector<double> V;
  for (size_t I = 0; I < Cpu.size(); ++I)
    V.push_back(Cpu[I] * Factor[I]);
  return median(V);
}

double tailPercentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  // Nearest rank, but keep at least 10 samples above the reported one.
  size_t Rank = static_cast<size_t>(Q / 100.0 * double(N));
  if (Rank >= N)
    Rank = N - 1;
  if (N > 10 && Rank > N - 11)
    Rank = N - 11;
  else if (N <= 10)
    Rank = 0;
  return V[Rank];
}

std::string hex64(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof Buf, "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream S;
  S << In.rdbuf();
  Out = S.str();
  return true;
}

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

} // namespace tmwbench
