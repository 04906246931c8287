//===- ServeChurn.cpp - A resident server under closed-loop churn ---------===//
///
/// One `QueryServer` (with a `VerdictStore` on a fresh file) serves a
/// `ConnectionMultiplexer` on a Unix socket. Each of min(nproc, 4) client
/// threads owns one connection and keeps exactly one batch of 4 requests
/// × 2 specs in flight. 63 of every 64 batches come from a hot set of
/// 256 batches (program-cache and store reads); every 64th batch is four
/// never-seen programs (cold evaluations plus durable store appends), so
/// the cold share is constant for the whole run. Load runs in rounds of
/// 1000 batches, each measured as a pass: process CPU time (server,
/// multiplexer, and clients) times the host factor. Hot
/// answers must equal the one-shot engine's bytes computed up front;
/// cold answers are checked against the one-shot engine after the run.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "query/QueryEngine.h"
#include "query/QueryIO.h"
#include "server/Multiplexer.h"
#include "server/QueryServer.h"
#include "store/VerdictStore.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>

using namespace tmw;

namespace tmwbench {
namespace {

constexpr size_t kHotPrograms = 1024, kColdBases = 512;
constexpr size_t kHotBatches = 256, kBatchSize = 4;
/// One batch in kColdEvery is cold. Each cold batch appends (and fsyncs)
/// four records under the store's lock, which hot lookups share. At this
/// share the lock stays far from saturation, and p99 falls inside the
/// body of the cold batches' latency rather than in the fsync tail, so it
/// measures appends, not a queue behind them.
constexpr unsigned kColdEvery = 64;
/// Batches per round of load; `cpu_s` is the median round.
constexpr size_t kServeWindow = 1000;
/// `peak_rss_mb` is read when this many batches have completed, so it
/// measures memory at a fixed amount of work: the store's index grows
/// with every append, and a faster server must not read as a fatter one.
constexpr uint64_t kRssAtBatches = 16000;
/// A response not complete after this long is lost.
constexpr int kReadTimeoutMs = 60000;

/// The end of every verdicts document (normal and error form).
const std::string kDocEnd = "\n ]}\n";

std::pair<std::string, std::string> specPair(size_t I) {
  const std::vector<std::string> &P = specPool();
  size_t K = I % (P.size() / 2);
  return {P[2 * K], P[2 * K + 1]};
}

CheckRequest makeRequest(std::string Source, size_t PairIndex) {
  CheckRequest R;
  R.Source = std::move(Source);
  auto [A, B] = specPair(PairIndex);
  R.ModelSpecs = {A, B};
  return R;
}

/// The g-th cold batch: four renamed copies of admitted programs.
std::vector<CheckRequest> coldBatch(uint64_t Seed, uint64_t G,
                                    const std::vector<GenProgram> &Bases) {
  std::vector<CheckRequest> Out;
  for (size_t J = 0; J < kBatchSize; ++J) {
    uint64_t K = G * kBatchSize + J;
    const GenProgram &B = Bases[K % Bases.size()];
    std::string Name = "c";
    Name += std::to_string(Seed);
    Name += '-';
    Name += std::to_string(K);
    Out.push_back(
        makeRequest(renameSource(B.Source, Name), static_cast<size_t>(K)));
  }
  return Out;
}

int connectUnix(const std::string &Path) {
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof Addr) != 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

bool sendAll(int Fd, const std::string &Bytes) {
  size_t Off = 0;
  while (Off < Bytes.size()) {
    ssize_t N = ::write(Fd, Bytes.data() + Off, Bytes.size() - Off);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Off += static_cast<size_t>(N);
  }
  return true;
}

/// Read one verdicts document. False on EOF, error, or timeout.
bool readDocument(int Fd, std::string &Doc) {
  Doc.clear();
  char Buf[1 << 16];
  for (;;) {
    if (Doc.size() >= kDocEnd.size() &&
        Doc.compare(Doc.size() - kDocEnd.size(), kDocEnd.size(), kDocEnd) ==
            0)
      return true;
    pollfd P{Fd, POLLIN, 0};
    int Ready = ::poll(&P, 1, kReadTimeoutMs);
    if (Ready < 0 && errno == EINTR)
      continue;
    if (Ready <= 0)
      return false;
    ssize_t N = ::read(Fd, Buf, sizeof Buf);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Doc.append(Buf, static_cast<size_t>(N));
  }
}

/// One resident server session: store, server, multiplexer, clients.
struct Session {
  std::string SockPath, StorePath;
  std::unique_ptr<VerdictStore> Store;
  std::unique_ptr<QueryServer> Server;
  std::unique_ptr<server::ConnectionMultiplexer> Mux;
  std::thread Loop;
  int LoopRc = 0;
  std::vector<int> Clients;

  int start(const RunArgs &A, unsigned Rep) {
    ::mkdir(A.RunDir.c_str(), 0755);
    std::string Stem = A.RunDir + "/serve-" + std::to_string(::getpid()) +
                       "-" + std::to_string(Rep);
    SockPath = Stem + ".sock";
    StorePath = Stem + ".store";
    ::unlink(StorePath.c_str());
    std::string Error;
    Store = VerdictStore::open(StorePath, &Error);
    if (!Store) {
      // Refuse to serve without the store rather than measure a
      // different system.
      std::fprintf(stderr, "error: cannot open verdict store: %s\n",
                   Error.c_str());
      return 2;
    }
    Server = std::make_unique<QueryServer>(
        ServerOptions{.Jobs = A.Jobs, .Store = Store.get()});
    Mux = std::make_unique<server::ConnectionMultiplexer>(*Server);
    Loop = std::thread([this] { LoopRc = Mux->serve(SockPath); });
    Clock::time_point T0 = Clock::now();
    while (Clients.size() < A.Jobs) {
      int Fd = connectUnix(SockPath);
      if (Fd >= 0) {
        Clients.push_back(Fd);
        continue;
      }
      if (secondsSince(T0) > 10) {
        std::fprintf(stderr, "error: cannot connect to '%s'\n",
                     SockPath.c_str());
        return 2;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return 0;
  }

  /// Close every connection, stop the loop, drop the server and store,
  /// and remove the socket and the store file.
  void stop(server::MuxStats *Stats = nullptr, uint64_t *LogBytes = nullptr) {
    for (int Fd : Clients) {
      ::shutdown(Fd, SHUT_WR);
      char C;
      while (::read(Fd, &C, 1) > 0) {
      }
      ::close(Fd);
    }
    Clients.clear();
    if (Mux) {
      Mux->requestStop();
      if (Loop.joinable())
        Loop.join();
      if (Stats)
        *Stats = Mux->stats();
    }
    Mux.reset();
    Server.reset();
    Store.reset();
    struct stat St;
    if (LogBytes && ::stat(StorePath.c_str(), &St) == 0)
      *LogBytes = static_cast<uint64_t>(St.st_size);
    ::unlink(StorePath.c_str());
    ::unlink(SockPath.c_str());
  }

  Session() = default;
  Session(const Session &) = delete;
  Session &operator=(const Session &) = delete;
  ~Session() { stop(); }
};

} // namespace

int serveSession(const RunArgs &A, double Seconds, Tally &T,
                 ServeResult &Out) {
  // Set-up (timed, repeated): generate and admit the programs, build the
  // hot batches, open a fresh store, start the server and multiplexer,
  // and connect every client.
  PassMeter Setup;
  std::vector<GenProgram> Hot, ColdBases;
  std::vector<std::vector<CheckRequest>> HotBatches;
  std::unique_ptr<Session> S;
  for (unsigned Rep = 0; Rep < kSetupReps; ++Rep) {
    if (S)
      S->stop();
    S = std::make_unique<Session>();
    int Rc = 0;
    Setup.pass([&] {
      std::vector<GenProgram> Pool =
          generatePool(A.Seed, kHotPrograms + kColdBases);
      Hot.assign(Pool.begin(), Pool.begin() + kHotPrograms);
      ColdBases.assign(Pool.begin() + kHotPrograms, Pool.end());
      Rng R(A.Seed ^ 0x5e7fe);
      HotBatches.assign(kHotBatches, {});
      for (std::vector<CheckRequest> &B : HotBatches)
        for (size_t J = 0; J < kBatchSize; ++J)
          B.push_back(makeRequest(Hot[R.below(kHotPrograms)].Source,
                                  R.below(static_cast<unsigned>(
                                      specPool().size() / 2))));
      Rc = S->start(A, Rep);
    });
    if (Rc)
      return Rc;
  }
  Out.SetupS = Setup.medianRefSeconds();

  // Expected bytes of the hot batches: the one-shot engine.
  std::vector<std::string> HotLines, HotExpected;
  for (const std::vector<CheckRequest> &B : HotBatches) {
    HotLines.push_back(requestsToJsonLine(B));
    HotExpected.push_back(responsesToJson(QueryEngine().runAll(B)));
  }
  if (!HotLines.empty() && HotLines[0].back() != '\n')
    for (std::string &L : HotLines)
      L += '\n';

  // Warm-up (unmeasured): every hot batch once, so hot batches are reads.
  for (size_t B = 0; B < HotBatches.size(); ++B) {
    std::string Doc;
    bool Ok = sendAll(S->Clients[0], HotLines[B]) &&
              readDocument(S->Clients[0], Doc) && Doc == HotExpected[B];
    T.record(Ok);
  }

  struct ColdAnswer {
    uint64_t G;
    uint64_t DocHash; ///< FNV-1a of the received document
  };
  std::mutex Mu;
  std::vector<ColdAnswer> ColdAnswers;
  std::atomic<uint64_t> NextCold{0}, Completed{0};
  std::atomic<double> RssMb{0};
  std::atomic<bool> Lost{false};
  // Load runs in rounds, so that `cpu_s` is a median over many: in each,
  // every client sends its share of kServeWindow batches.
  const size_t PerClient = kServeWindow / A.Jobs;
  std::vector<uint64_t> Sent(A.Jobs, 0);
  std::vector<Rng> Rngs;
  for (unsigned C = 0; C < A.Jobs; ++C)
    Rngs.emplace_back(A.Seed * 31 + C);
  std::vector<std::vector<double>> Rtts(A.Jobs);
  auto Client = [&](unsigned C) {
    int Fd = S->Clients[C];
    std::string Doc;
    for (size_t I = 0; I < PerClient; ++I) {
      // Clients take their cold turns at staggered phases.
      uint64_t K = Sent[C]++;
      bool Cold =
          (K + C * kColdEvery / A.Jobs) % kColdEvery == kColdEvery - 1;
      uint64_t G = 0;
      size_t B = 0;
      std::string ColdLine;
      if (Cold) {
        G = NextCold.fetch_add(1);
        ColdLine = requestsToJsonLine(coldBatch(A.Seed, G, ColdBases));
        if (ColdLine.back() != '\n')
          ColdLine += '\n';
      } else {
        B = Rngs[C].below(kHotBatches);
      }
      Clock::time_point T0 = Clock::now();
      bool Ok = sendAll(Fd, Cold ? ColdLine : HotLines[B]) &&
                readDocument(Fd, Doc);
      Rtts[C].push_back(secondsSince(T0) * 1e3);
      if (Completed.fetch_add(1) + 1 == kRssAtBatches)
        RssMb = peakRssMb();
      if (!Ok) {
        T.record(false); // lost: the connection is unusable now
        Lost = true;
        return;
      }
      if (Cold) {
        std::lock_guard<std::mutex> L(Mu);
        ColdAnswers.push_back({G, fnv1a(Doc)});
      } else {
        T.record(Doc == HotExpected[B]);
      }
    }
  };
  PassMeter Rounds;
  std::vector<double> RoundWalls;
  Clock::time_point Start = Clock::now();
  do {
    Rounds.pass([&] {
      Clock::time_point T0 = Clock::now();
      std::vector<std::thread> Threads;
      for (unsigned C = 0; C < A.Jobs; ++C)
        Threads.emplace_back(Client, C);
      for (std::thread &Th : Threads)
        Th.join();
      RoundWalls.push_back(secondsSince(T0));
    });
  } while (!Lost && secondsSince(Start) < Seconds);
  for (double W : RoundWalls)
    Out.SessionSeconds += W;
  // Per kServeWindow batches, whatever the rounding of PerClient.
  double PerWindow = double(kServeWindow) / double(PerClient * A.Jobs);
  Out.CpuS = Rounds.medianRefSeconds() * PerWindow;
  Out.WallS = median(RoundWalls) * PerWindow;
  Out.HostFactor = Rounds.medianHostFactor();
  Out.PeakRssMb = RssMb > 0 ? RssMb.load() : peakRssMb();

  ServerStats SS = S->Server->stats();
  server::MuxStats MS;
  S->stop(&MS, &Out.LogBytes);
  Out.ServerBatches = SS.Batches;
  Out.BadBatches = SS.BadBatches;
  Out.ProgramHits = SS.Cache.ProgramHits;
  Out.ProgramMisses = SS.Cache.ProgramMisses;
  Out.PlanHits = SS.Cache.PlanHits;
  Out.PlanMisses = SS.Cache.PlanMisses;
  Out.StoreHits = SS.Store.Hits;
  Out.StoreMisses = SS.Store.Misses;
  Out.StoreAppends = SS.Store.Appends;
  for (const server::MuxConnStats &C : MS.Connections)
    Out.BackpressurePauses += C.BackpressurePauses;

  std::vector<double> RttMs;
  for (unsigned C = 0; C < A.Jobs; ++C)
    for (double Ms : Rtts[C]) {
      RttMs.push_back(Ms);
      Out.SpanSeconds += Ms / 1e3;
    }
  Out.Batches = RttMs.size();
  Out.P50Ms = tailPercentile(RttMs, 50);
  Out.P99Ms = tailPercentile(RttMs, 99);

  // Cold answers against the one-shot engine, in one batch.
  std::vector<CheckRequest> ColdRequests;
  for (const ColdAnswer &CA : ColdAnswers)
    for (CheckRequest &Req : coldBatch(A.Seed, CA.G, ColdBases))
      ColdRequests.push_back(std::move(Req));
  std::vector<CheckResponse> Ref =
      QueryEngine({.Jobs = A.Jobs}).runAll(ColdRequests);
  for (size_t I = 0; I < ColdAnswers.size(); ++I) {
    std::span<const CheckResponse> Batch(Ref.data() + I * kBatchSize,
                                         kBatchSize);
    T.record(ColdAnswers[I].DocHash == fnv1a(responsesToJson(Batch)));
  }
  return S->LoopRc;
}

int runServeChurn(const RunArgs &A, Report &R) {
  ServeResult S;
  if (int Rc = serveSession(A, A.Seconds, R.T, S))
    return Rc;
  std::printf("serve-churn: %llu batches (round-trip samples) on %u "
              "closed-loop connections in %.2f s of load, %llu store "
              "appends\n",
              static_cast<unsigned long long>(S.Batches), A.Jobs,
              S.SessionSeconds,
              static_cast<unsigned long long>(S.StoreAppends));
  std::printf("serve-churn: on this host, median wall %.4f s per %zu "
              "batches, round trip p50 %.4f ms, p99 %.4f ms (%llu "
              "samples); host factor %.3f\n",
              S.WallS, kServeWindow, S.P50Ms, S.P99Ms,
              static_cast<unsigned long long>(S.Batches), S.HostFactor);
  R.add("setup_s", S.SetupS, "s");
  R.add("cpu_s", S.CpuS, "s");
  R.add("peak_rss_mb", S.PeakRssMb, "MB");
  return 0;
}

} // namespace tmwbench
