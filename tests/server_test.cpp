//===- server_test.cpp - The long-lived query server -----------------------------==//
///
/// Drives the resident server (server/QueryServer.h) in-process across
/// multi-batch sessions: cache hits on repeated sources and spec
/// re-resolutions, malformed batches answered without process death,
/// byte-determinism of served documents against one-shot engine runs
/// (across jobs counts and across batches on one session), pool reuse
/// over many batches, and the Unix-socket multiplexer.
///
//===----------------------------------------------------------------------===//

#include "litmus/Library.h"
#include "query/QueryEngine.h"
#include "query/QueryIO.h"
#include "query/SessionCache.h"
#include "server/Multiplexer.h"
#include "server/QueryServer.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <sstream>
#include <thread>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace tmw;

namespace {

const char *SbSource = R"(name SB-inline
thread 0
  store x 1
  load y
thread 1
  store y 1
  load x
post reg 0 r1 0
post reg 1 r1 0
)";

std::vector<CheckRequest> sampleBatch() {
  std::vector<CheckRequest> Requests;
  CheckRequest A;
  A.Source = SbSource;
  A.ModelSpecs = {"x86", "power/-TxnOrder", "power8"};
  A.Explain = true;
  A.WantOutcomes = true;
  Requests.push_back(A);
  CheckRequest B;
  B.Corpus = "MP";
  B.WantOutcomes = true;
  Requests.push_back(B);
  return Requests;
}

/// The reference bytes: what a one-shot engine run (litmus_tool --json's
/// path) prints for the same requests.
std::string oneShot(const std::vector<CheckRequest> &Requests,
                    unsigned Jobs = 1) {
  return responsesToJson(QueryEngine({Jobs}).runAll(Requests));
}

TEST(QueryServer, MatchesOneShotBytesAcrossJobsAndBatches) {
  std::vector<CheckRequest> Requests = sampleBatch();
  std::string Line = requestsToJsonLine(Requests);
  std::string Reference = oneShot(Requests);
  ASSERT_EQ(Reference, oneShot(Requests, 4)); // engine side is jobs-stable

  for (unsigned Jobs : {1u, 2u, 7u}) {
    QueryServer S({Jobs});
    // Repeated batches on one resident session: identical bytes every
    // time — first batch (cold caches) included.
    for (int Batch = 0; Batch < 3; ++Batch)
      EXPECT_EQ(S.serveLine(Line), Reference)
          << "jobs " << Jobs << " batch " << Batch;
  }
}

TEST(QueryServer, SessionCacheHitsOnRepeatedWork) {
  QueryServer S({2});
  std::string Line = requestsToJsonLine(sampleBatch());

  S.serveLine(Line);
  ServerStats After1 = S.stats();
  // First batch: the inline source parses once (miss), specs resolve
  // once each (misses), nothing can hit yet.
  EXPECT_EQ(After1.Cache.ProgramMisses, 1u);
  EXPECT_EQ(After1.Cache.ProgramHits, 0u);
  EXPECT_EQ(After1.Cache.ProgramsCached, 1u);
  EXPECT_GE(After1.Cache.ModelMisses, 3u); // x86, power/-TxnOrder, power8 (+ defaults for MP)
  uint64_t Misses1 = After1.Cache.ModelMisses;

  S.serveLine(Line);
  ServerStats After2 = S.stats();
  // Second batch: same source → program cache hit, no new parse; same
  // specs → interned models, no new resolution.
  EXPECT_EQ(After2.Cache.ProgramMisses, 1u);
  EXPECT_EQ(After2.Cache.ProgramHits, 1u);
  EXPECT_EQ(After2.Cache.ModelMisses, Misses1);
  EXPECT_GT(After2.Cache.ModelHits, After1.Cache.ModelHits);
  EXPECT_EQ(After2.Batches, 2u);
  EXPECT_EQ(After2.Requests, 4u);
}

TEST(QueryServer, MalformedBatchAnswersWithoutDying) {
  QueryServer S({2});
  std::string Good = requestsToJsonLine(sampleBatch());
  std::string Reference = oneShot(sampleBatch());

  // A broken line answers with a schema'd error document...
  std::string ErrDoc = S.serveLine("{\"schema\": \"tmw-query-batch-v1\", ");
  EXPECT_NE(ErrDoc.find("\"schema\": \"tmw-query-verdicts-v1\""),
            std::string::npos);
  EXPECT_NE(ErrDoc.find("\"error\": \"batch parse error: "),
            std::string::npos);
  EXPECT_NE(ErrDoc.find("\"responses\": [\n ]"), std::string::npos);
  // ... and the session keeps serving correct bytes afterwards.
  EXPECT_EQ(S.serveLine(Good), Reference);
  EXPECT_EQ(S.stats().BadBatches, 1u);

  // Same through the stream loop: good, bad, blank, good — the bad
  // line's document carries exactly the parser's diagnostic.
  std::vector<CheckRequest> Sink;
  std::string ParseError;
  ASSERT_FALSE(requestsFromJson("not json", Sink, &ParseError));
  std::istringstream In(Good + "\nnot json\n   \n" + Good + "\n");
  std::ostringstream Out;
  S.serveStream(In, Out);
  std::string Expect = Reference +
                       batchErrorToJson("batch parse error: " + ParseError) +
                       Reference;
  EXPECT_EQ(Out.str(), Expect);
}

TEST(QueryServer, RequestErrorsAreResponsesNotDeath) {
  // Errors *inside* a well-formed batch surface per response, exactly as
  // the one-shot engine reports them.
  std::vector<CheckRequest> Requests;
  CheckRequest Bad;
  Bad.Name = "bad-spec";
  Bad.Corpus = "SB";
  Bad.ModelSpecs = {"not-a-model"};
  Requests.push_back(Bad);
  CheckRequest Unparsable;
  Unparsable.Name = "bad-dsl";
  Unparsable.Source = "thread 0\n  fetch x\n";
  Requests.push_back(Unparsable);
  CheckRequest Fine;
  Fine.Corpus = "SB";
  Requests.push_back(Fine);

  QueryServer S({2});
  std::string Served = S.serveLine(requestsToJsonLine(Requests));
  EXPECT_EQ(Served, oneShot(Requests));

  std::vector<CheckResponse> Back;
  std::string Error;
  ASSERT_TRUE(responsesFromJson(Served, Back, &Error)) << Error;
  ASSERT_EQ(Back.size(), 3u);
  EXPECT_FALSE(Back[0].Error.empty());
  EXPECT_FALSE(Back[1].Error.empty());
  EXPECT_GT(Back[1].ErrorLine, 0u); // DSL parse errors carry the line
  EXPECT_TRUE(Back[2].Error.empty());
}

TEST(QueryServer, PoolSurvivesManyBatches) {
  // The resident pool (threads + reused WorkQueue + arenas) must quiesce
  // and re-arm cleanly batch after batch, including empty and
  // bigger-than-pool batches.
  QueryServer S({3});
  std::string Reference = oneShot(sampleBatch());
  std::string Line = requestsToJsonLine(sampleBatch());
  for (int Batch = 0; Batch < 20; ++Batch)
    ASSERT_EQ(S.serveLine(Line), Reference) << "batch " << Batch;

  // Empty batch: a schema'd document with zero responses.
  std::vector<CheckRequest> Empty;
  std::string EmptyDoc = S.serveLine(requestsToJsonLine(Empty));
  EXPECT_EQ(EmptyDoc, responsesToJson(std::vector<CheckResponse>{}));

  // A batch wider than the pool exercises stealing across resets.
  std::vector<CheckRequest> Wide;
  for (const CorpusEntry &E : sharedCorpus()) {
    CheckRequest R;
    R.Corpus = E.Name;
    Wide.push_back(std::move(R));
  }
  EXPECT_EQ(S.serveLine(requestsToJsonLine(Wide)), oneShot(Wide, 3));
}

TEST(QueryServer, EvictionKeepsServing) {
  // A tiny program cache bound forces wholesale eviction; verdicts and
  // bytes are unaffected (content-addressed entries just re-parse).
  ServerOptions Opts;
  Opts.Jobs = 1;
  Opts.MaxCachedPrograms = 2;
  QueryServer S(Opts);
  std::vector<std::string> Lines;
  for (int V = 0; V < 4; ++V) {
    CheckRequest R;
    R.Name = "prog-" + std::to_string(V);
    R.Source = std::string("name P") + std::to_string(V) +
               "\nthread 0\n  store x " + std::to_string(V + 1) +
               "\n  load y\npost reg 0 r1 0\n";
    R.ModelSpecs = {"x86"};
    Lines.push_back(requestsToJsonLine(std::vector<CheckRequest>{R}));
  }
  std::vector<std::string> Golden;
  for (const std::string &L : Lines)
    Golden.push_back(S.serveLine(L));
  for (int Round = 0; Round < 3; ++Round)
    for (size_t I = 0; I < Lines.size(); ++I)
      ASSERT_EQ(S.serveLine(Lines[I]), Golden[I]);
  EXPECT_GT(S.stats().Cache.ProgramEvictions, 0u);
}

/// One socket session: serve \p Payload on a fresh single-connection
/// multiplexer and return every byte the server answered.
std::string socketRoundTrip(QueryServer &S, const std::string &Payload,
                            const char *Name) {
  std::string Path = testing::TempDir() + Name;
  server::MuxOptions Opts;
  Opts.AcceptLimit = 1;
  server::ConnectionMultiplexer Mux(S, Opts);
  std::thread Listener([&] { Mux.serve(Path); });
  int Fd = -1;
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  EXPECT_LT(Path.size(), sizeof(Addr.sun_path));
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  for (int Try = 0; Try < 200; ++Try) {
    Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(Fd, 0);
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) ==
        0)
      break;
    ::close(Fd);
    Fd = -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(Fd, 0) << "could not connect to " << Path;
  std::string Got;
  if (Fd >= 0) {
    EXPECT_EQ(::send(Fd, Payload.data(), Payload.size(), 0),
              static_cast<ssize_t>(Payload.size()));
    EXPECT_EQ(::shutdown(Fd, SHUT_WR), 0);
    char Buf[65536];
    for (;;) {
      ssize_t N = ::read(Fd, Buf, sizeof(Buf));
      if (N <= 0)
        break;
      Got.append(Buf, static_cast<size_t>(N));
    }
    ::close(Fd);
  } else {
    Mux.requestStop();
  }
  Listener.join();
  return Got;
}

TEST(QueryServer, UnixSocketRoundTrip) {
  // Two batches on one connection, half-close, read the concatenated
  // documents back to EOF.
  QueryServer S({2});
  std::string Line = requestsToJsonLine(sampleBatch());
  std::string Reference = oneShot(sampleBatch());
  EXPECT_EQ(socketRoundTrip(S, Line + "\n" + Line + "\n",
                            "tmw_server_test.sock"),
            Reference + Reference);
}

TEST(QueryServer, BlankLinesOnSocketAreSkipped) {
  // Empty and whitespace-only NDJSON lines on the wire — leading,
  // between batches, trailing — produce no documents at all.
  QueryServer S({2});
  std::string Line = requestsToJsonLine(sampleBatch());
  std::string Reference = oneShot(sampleBatch());
  std::string Got = socketRoundTrip(
      S, "\n  \t\r\n" + Line + "\n\n" + Line + "\n   \n",
      "tmw_blank_lines.sock");
  EXPECT_EQ(Got, Reference + Reference);
  EXPECT_EQ(S.stats().Batches, 2u);
}

TEST(QueryServer, OversizedSingleLineBatch) {
  // One batch line bigger than the transport's 64 KiB read buffer: the
  // frame spans several reads and must reassemble to the exact one-shot
  // bytes. Repeated identical requests keep the evaluation cheap (one
  // parse, then cache hits) while the *line* stays huge.
  std::vector<CheckRequest> Requests;
  for (int I = 0; I < 400; ++I) {
    CheckRequest R;
    R.Source = SbSource;
    R.ModelSpecs = {"x86"};
    Requests.push_back(R);
  }
  std::string Line = requestsToJsonLine(Requests);
  ASSERT_GT(Line.size(), 65536u) << "line must exceed one read buffer";

  QueryServer S({2});
  std::string Got = socketRoundTrip(S, Line + "\n", "tmw_oversized.sock");
  EXPECT_EQ(Got, oneShot(Requests));
  EXPECT_EQ(S.stats().Requests, 400u);
}

TEST(QueryServer, ErrorDocumentThenValidBatchesOnSameConnection) {
  // A malformed line mid-session answers with the error document and the
  // connection keeps serving correct bytes — before and after.
  QueryServer S({2});
  std::string Good = requestsToJsonLine(sampleBatch());
  std::string Reference = oneShot(sampleBatch());
  std::vector<CheckRequest> Sink;
  std::string ParseError;
  ASSERT_FALSE(requestsFromJson("{\"oops\": ", Sink, &ParseError));
  std::string Got = socketRoundTrip(
      S, Good + "\n{\"oops\": \n" + Good + "\n" + Good + "\n",
      "tmw_error_recovery.sock");
  EXPECT_EQ(Got, Reference +
                     batchErrorToJson("batch parse error: " + ParseError) +
                     Reference + Reference);
  EXPECT_EQ(S.stats().BadBatches, 1u);
  EXPECT_EQ(S.stats().Batches, 3u);
}

TEST(SessionCache, ContentAddressedAndFailureCaching) {
  SessionCache C;
  auto A = C.program("thread 0\n  load x\n");
  auto B = C.program("thread 0\n  load x\n");
  EXPECT_EQ(A.get(), B.get()); // same source → same entry
  EXPECT_TRUE(static_cast<bool>(*A));

  // Failures are cached too (a resubmitted bad program re-parses zero
  // times), and report their line.
  auto Bad1 = C.program("thread 0\n  fetch x\n");
  auto Bad2 = C.program("thread 0\n  fetch x\n");
  EXPECT_EQ(Bad1.get(), Bad2.get());
  EXPECT_FALSE(static_cast<bool>(*Bad1));
  EXPECT_EQ(Bad1->ErrorLine, 2u);

  SessionCache::Stats St = C.stats();
  EXPECT_EQ(St.ProgramHits, 2u);
  EXPECT_EQ(St.ProgramMisses, 2u);

  // Entries survive clear() while referenced (cache-safe ownership).
  C.clear();
  EXPECT_TRUE(static_cast<bool>(*A));
  EXPECT_EQ(A->Prog.Threads.size(), 1u);

  // Model interning: same spec → same instance; bad specs error cleanly.
  auto M1 = C.model("power/-TxnOrder");
  auto M2 = C.model("power/-TxnOrder");
  ASSERT_TRUE(M1);
  EXPECT_EQ(M1.get(), M2.get());
  std::string Error;
  EXPECT_EQ(C.model("warp9", &Error), nullptr);
  EXPECT_FALSE(Error.empty());
}

TEST(SessionCache, OverflowEvictsOnlyLeastRecentHalf) {
  // The bounded program map drops only its least-recently-touched half on
  // overflow (not the whole map): the hot working set survives a churn of
  // one-off sources, and the accounting says exactly what went.
  SessionCache C(/*MaxPrograms=*/8);
  auto Src = [](int V) {
    return "name P" + std::to_string(V) + "\nthread 0\n  store x " +
           std::to_string(V + 1) + "\n  load y\npost reg 0 r1 0\n";
  };
  for (int V = 0; V < 8; ++V)
    C.program(Src(V));
  // Touch the newer half so recency diverges from insertion order.
  for (int V = 4; V < 8; ++V)
    C.program(Src(V));
  SessionCache::Stats St = C.stats();
  ASSERT_EQ(St.ProgramsCached, 8u);
  ASSERT_EQ(St.ProgramEvictions, 0u);

  // The 9th insert overflows: exactly the stale half (P0..P3) goes.
  C.program(Src(8));
  St = C.stats();
  EXPECT_EQ(St.ProgramEvictions, 1u);
  EXPECT_EQ(St.ProgramsEvicted, 4u);
  EXPECT_EQ(St.ProgramsCached, 5u); // P4..P7 + P8

  // The recently-touched half still hits; the evicted half re-parses.
  uint64_t Misses = St.ProgramMisses, Hits = St.ProgramHits;
  for (int V = 4; V < 9; ++V)
    C.program(Src(V));
  St = C.stats();
  EXPECT_EQ(St.ProgramMisses, Misses);
  EXPECT_EQ(St.ProgramHits, Hits + 5);
  C.program(Src(0));
  EXPECT_EQ(C.stats().ProgramMisses, Misses + 1);
}

TEST(QueryEngine, CachedRunsMatchUncachedBytes) {
  // BatchOptions::Cache is verdict-neutral: same requests, same bytes,
  // jobs and cache state notwithstanding.
  std::vector<CheckRequest> Requests = sampleBatch();
  std::string Reference = oneShot(Requests);
  SessionCache Cache;
  for (unsigned Jobs : {1u, 4u}) {
    BatchOptions Opts;
    Opts.Jobs = Jobs;
    Opts.Cache = &Cache;
    EXPECT_EQ(responsesToJson(QueryEngine(Opts).runAll(Requests)),
              Reference)
        << "jobs " << Jobs;
  }
  EXPECT_GT(Cache.stats().ProgramHits + Cache.stats().ModelHits, 0u);
}

} // namespace
