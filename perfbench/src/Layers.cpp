//===- Layers.cpp - The traced run: per-layer metrics ---------------------===//
///
/// A separate run that attributes time to layers from outside. It has
/// three sections, run for every workload:
///
///  * query — a sample of the seed's generated batch is first run
///    untraced through `QueryEngine` at jobs 1 (work counters from its
///    `BatchTelemetry`), then replayed stage by stage in one thread:
///    `parseProgram`, `computeFacts`, `ModelRegistry::parse`,
///    `EvalPlan::compile`/`specialize`, `forEachCandidate` with an empty
///    sink, then per candidate `ExecutionAnalysis` derivation and
///    `EvalPlan::evaluate`, and `toJson`. The replayed bytes must equal
///    the independent-evaluation reference.
///  * serve — a short serve-churn session (`SessionCache::Stats`,
///    `MuxStats`, `StoreCounters`), plus `VerdictStore::append`/`lookup`/
///    `open` timed directly on a fresh file.
///  * synth — one synthesis pass (`ForbidSuite` counters) and the bare
///    base enumeration of both vocabularies.
///
/// Relation kernels are timed on relations taken from the workload's own
/// executions: generated candidates, or the synthesized tests for
/// synth-forbid.
///
//===----------------------------------------------------------------------===//

#include "Trace.h"
#include "Workloads.h"

#include "enumerate/Candidates.h"
#include "enumerate/Enumerator.h"
#include "execution/ExecutionAnalysis.h"
#include "lint/Lint.h"
#include "litmus/Parser.h"
#include "models/EvalPlan.h"
#include "models/ModelRegistry.h"
#include "query/QueryEngine.h"
#include "query/QueryIO.h"
#include "store/VerdictStore.h"

#include <cstdio>
#include <sys/stat.h>
#include <unistd.h>

using namespace tmw;

namespace tmwbench {
namespace {

/// Programs replayed stage by stage.
constexpr size_t kTracePrograms = 1000;
/// Records appended and looked up in the directly timed store.
constexpr size_t kStoreRecords = 1000;
/// Relations sampled for the kernel timings.
constexpr size_t kRelationSample = 2048;
/// Seconds of serve-churn load in the traced run.
constexpr double kServeSeconds = 3;

double selfOf(const std::map<std::string, double> &M, const char *Name) {
  auto It = M.find(Name);
  return It == M.end() ? 0 : It->second;
}

double frac(uint64_t Num, uint64_t Den) {
  return Den ? double(Num) / double(Den) : 0;
}

/// Replay one request stage by stage; returns its canonical JSON.
std::string replay(Tracer &T, uint64_t Id, const CheckRequest &Req,
                   const EvalPlan &Plan) {
  Tracer::Scope Root(T, "request", Id);
  ParseResult PR;
  {
    Tracer::Scope S(T, "litmus.parse", Id);
    PR = parseProgram(Req.Source);
  }
  if (!PR)
    return {};
  const Program &P = PR.Prog;
  ProgramFacts Facts;
  {
    Tracer::Scope S(T, "lint.facts", Id);
    Facts = computeFacts(P);
  }
  CheckResponse Resp;
  Resp.Name = P.Name;
  {
    Tracer::Scope S(T, "models.resolve", Id);
    for (const std::string &Spec : Req.ModelSpecs) {
      std::unique_ptr<MemoryModel> M = ModelRegistry::parse(Spec);
      ModelVerdict V;
      V.Spec = M ? ModelRegistry::print(*M) : std::string();
      Resp.Verdicts.push_back(std::move(V));
    }
  }
  EvalPlan::Specialization Spec;
  {
    Tracer::Scope S(T, "models.plan_compile", Id);
    Spec = Plan.specialize(Facts);
  }
  {
    Tracer::Scope S(T, "enumerate.enum", Id);
    forEachCandidate(P, [](const Candidate &) { return true; });
  }
  {
    // Evaluation enumerates again (the engine fuses the two); the
    // second enumeration is this span's self time.
    Tracer::Scope S(T, "request.check", Id);
    EvalPlan::Scratch Scratch = Plan.makeScratch();
    std::optional<ExecutionAnalysis> A;
    forEachCandidate(P, [&](const Candidate &C) {
      int64_t Index = static_cast<int64_t>(Resp.Candidates++);
      {
        Tracer::Scope D(T, "execution.derive", Id);
        if (!A)
          A.emplace(C.X);
        else
          A->reset(C.X);
        A->poLoc();
        A->fr();
        A->com();
        A->rfe();
        A->coe();
        A->fre();
        A->stxn();
      }
      {
        Tracer::Scope E(T, "models.eval", Id);
        Plan.evaluate(*A, Scratch, &Spec);
      }
      bool Satisfies = C.O.satisfies(P);
      for (size_t M = 0; M < Resp.Verdicts.size(); ++M) {
        ModelVerdict &V = Resp.Verdicts[M];
        if (Scratch.consistent(M)) {
          ++V.Consistent;
          V.Allowed |= Satisfies;
        } else if (V.FirstForbidden < 0) {
          V.FirstForbidden = Index;
        }
      }
      return true;
    });
  }
  Tracer::Scope S(T, "query.serialize", Id);
  return toJson(Resp);
}

/// Nanoseconds per call of \p Op over \p Sample, repeated until at least
/// 50 ms have passed.
template <class Fn>
double nsPerOp(const std::vector<Relation> &Sample, Fn &&Op) {
  uint64_t Calls = 0, Sink = 0;
  Clock::time_point T0 = Clock::now();
  do {
    for (size_t I = 0; I < Sample.size(); ++I)
      Sink += Op(Sample[I], Sample[(I * 7 + 3) % Sample.size()]);
    Calls += Sample.size();
  } while (secondsSince(T0) < 0.05);
  double Ns = secondsSince(T0) * 1e9 / double(Calls);
  return Sink == 0xdeadbeef ? Ns + 1e-9 : Ns; // keep Sink alive
}

/// Cost of one begin/end pair, in nanoseconds.
double spanCostNs() {
  Tracer T;
  constexpr size_t N = 200000;
  Clock::time_point T0 = Clock::now();
  for (size_t I = 0; I < N; ++I) {
    T.begin("calibrate");
    T.end();
  }
  return secondsSince(T0) * 1e9 / N;
}

} // namespace

int runTraced(const RunArgs &A, Report &R) {
  std::string Pinned;
  if (!readFile(A.PinnedDigest, Pinned)) {
    std::fprintf(stderr, "error: cannot read pinned digest '%s'\n",
                 A.PinnedDigest.c_str());
    return 2;
  }
  GenStats Stats;
  std::vector<GenProgram> Programs =
      generatePool(A.Seed, kTracePrograms, &Stats);
  std::vector<CheckRequest> Requests = poolRequests(Programs);
  Clock::time_point Epoch = Clock::now();

  //===--- query section ---------------------------------------------===//
  std::vector<std::string> Reference;
  for (const CheckResponse &Resp :
       QueryEngine({.Jobs = A.Jobs, .Strategy = EvalStrategy::Independent})
           .runAll(Requests))
    Reference.push_back(toJson(Resp));
  BatchTelemetry Tele;
  Clock::time_point U0 = Clock::now();
  QueryEngine({.Jobs = 1}).runAll(Requests, &Tele);
  double Untraced = secondsSince(U0);

  Tracer QT(Epoch, 0);
  std::vector<std::unique_ptr<MemoryModel>> Owned;
  std::vector<const MemoryModel *> Models;
  EvalPlan Plan;
  {
    // One compile per spec set, as a cache-less batch does.
    Tracer::Scope S(QT, "models.plan_compile");
    for (const std::string &Spec : specPool()) {
      Owned.push_back(ModelRegistry::parse(Spec));
      Models.push_back(Owned.back().get());
    }
    Plan = EvalPlan::compile(Models);
  }
  uint64_t JsonBytes = 0;
  for (size_t I = 0; I < Requests.size(); ++I) {
    std::string Json = replay(QT, I, Requests[I], Plan);
    JsonBytes += Json.size();
    R.T.record(Json == Reference[I]);
  }
  std::map<std::string, double> Q = selfTimes(QT.spans());
  double Stages = 0;
  for (const char *Name :
       {"litmus.parse", "lint.facts", "models.resolve", "models.plan_compile",
        "enumerate.enum", "execution.derive", "models.eval",
        "query.serialize"})
    Stages += selfOf(Q, Name);

  //===--- synth section ---------------------------------------------===//
  Tracer ST(Epoch, 1);
  SynthInputs In = synthInputs();
  SynthPass SP;
  {
    Tracer::Scope S(ST, "synth.pass");
    SP = synthPass(In, A.Jobs);
  }
  checkDigest(SP.Digest, Pinned, R.T);
  {
    Tracer::Scope S(ST, "enumerate.base_enum");
    auto Empty = [](Execution &) { return true; };
    ExecutionEnumerator(In.X86Vocab, 5).forEachBase(Empty);
    ExecutionEnumerator(In.PowerVocab, 4).forEachBase(Empty);
  }
  std::map<std::string, double> Sy = selfTimes(ST.spans());

  //===--- relation kernels on the workload's own executions -----------===//
  std::vector<Relation> Sample;
  {
    auto Take = [&](const Execution &X) {
      ExecutionAnalysis An(X);
      Sample.push_back(An.po() | An.com());
      Sample.push_back(An.rf());
      Sample.push_back(An.fr());
      Sample.push_back(An.poLoc());
      return Sample.size() < kRelationSample;
    };
    if (A.Workload == "synth-forbid") {
      while (!SP.Tests.empty() && Sample.size() < kRelationSample)
        for (const Execution &X : SP.Tests)
          if (!Take(X))
            break;
    } else {
      for (const GenProgram &G : Programs) {
        ParseResult PR = parseProgram(G.Source);
        if (!forEachCandidate(PR.Prog, [&](const Candidate &C) {
              return Take(C.X);
            }))
          break;
      }
    }
  }
  double ComposeNs = nsPerOp(Sample, [](const Relation &L, const Relation &Rr) {
    return L.compose(Rr).contains(0, 1);
  });
  double ClosureNs = nsPerOp(Sample, [](const Relation &L, const Relation &) {
    return L.transitiveClosure().contains(0, 1);
  });
  double AcyclicNs = nsPerOp(Sample, [](const Relation &L, const Relation &) {
    return L.isAcyclic();
  });

  //===--- serve section -----------------------------------------------===//
  ServeResult SR;
  if (int Rc = serveSession(A, kServeSeconds, R.T, SR))
    return Rc;
  Tracer StT(Epoch, 2);
  double StoreOpen = 0;
  uint64_t DirectLogBytes = 0;
  {
    std::string Path = A.RunDir + "/layers-" + std::to_string(::getpid()) +
                       ".store";
    ::unlink(Path.c_str());
    std::string Error;
    std::unique_ptr<VerdictStore> Store = VerdictStore::open(Path, &Error);
    if (!Store) {
      std::fprintf(stderr, "error: cannot open verdict store: %s\n",
                   Error.c_str());
      return 2;
    }
    std::vector<std::string> Keys;
    for (size_t I = 0; I < kStoreRecords && I < Programs.size(); ++I) {
      std::vector<std::string> Specs;
      for (const std::string &S : specPool())
        Specs.push_back(S);
      Keys.push_back(VerdictStore::makeKey(Programs[I].Name,
                                           Programs[I].Source, Specs, false,
                                           false, 0));
      Tracer::Scope S(StT, "store.append", I);
      R.T.record(Store->append(Keys.back(), Reference[I]));
    }
    for (size_t I = 0; I < Keys.size(); ++I) {
      std::optional<std::string> Doc;
      {
        Tracer::Scope S(StT, "store.lookup", I);
        Doc = Store->lookup(Keys[I]);
      }
      R.T.record(Doc && *Doc == Reference[I]);
    }
    Store.reset();
    Clock::time_point O0 = Clock::now();
    {
      Tracer::Scope S(StT, "store.open");
      Store = VerdictStore::open(Path, &Error);
    }
    StoreOpen = secondsSince(O0);
    R.T.record(Store && Store->counters().Records == Keys.size());
    Store.reset();
    struct stat St;
    if (::stat(Path.c_str(), &St) == 0)
      DirectLogBytes = static_cast<uint64_t>(St.st_size);
    ::unlink(Path.c_str());
  }
  std::vector<double> AppendUs, LookupUs;
  for (const Span &S : StT.spans()) {
    if (S.Name == "store.append")
      AppendUs.push_back(S.duration() * 1e6);
    else if (S.Name == "store.lookup")
      LookupUs.push_back(S.duration() * 1e6);
  }

  size_t NumSpans = QT.spans().size() + ST.spans().size() + StT.spans().size();
  double SpanNs = spanCostNs();
  std::string TracePath =
      A.RunDir + "/trace-" + A.Workload + "-" + std::to_string(A.Seed) +
      ".json";
  if (!writeChromeTrace(TracePath, {&QT, &ST, &StT}))
    std::fprintf(stderr, "warning: cannot write %s\n", TracePath.c_str());

  std::printf("traced: %zu programs replayed, %zu spans -> %s "
              "(direct store log %llu bytes)\n",
              Requests.size(), NumSpans, TracePath.c_str(),
              static_cast<unsigned long long>(DirectLogBytes));
  R.add("relation.compose_ns", ComposeNs, "ns");
  R.add("relation.closure_ns", ClosureNs, "ns");
  R.add("relation.acyclic_ns", AcyclicNs, "ns");
  R.add("execution.derive_s", selfOf(Q, "execution.derive"), "s");
  R.add("models.resolve_s", selfOf(Q, "models.resolve"), "s");
  R.add("models.plan_compile_s", selfOf(Q, "models.plan_compile"), "s");
  R.add("models.eval_s", selfOf(Q, "models.eval"), "s");
  R.add("models.term_evals", double(Tele.Plan.TermEvals), "count");
  R.add("models.hit_frac",
        frac(Tele.Plan.TermHits, Tele.Plan.TermHits + Tele.Plan.TermEvals),
        "frac");
  R.add("models.short_circuits", double(Tele.Plan.SpecShortCircuits),
        "count");
  R.add("models.discharged", double(Tele.Plan.Discharged), "count");
  R.add("enumerate.enum_s", selfOf(Q, "enumerate.enum"), "s");
  R.add("enumerate.candidates", double(Tele.Candidates), "count");
  R.add("enumerate.base_enum_s", selfOf(Sy, "enumerate.base_enum"), "s");
  R.add("enumerate.balance", SP.Balance, "frac");
  R.add("enumerate.steals", double(SP.Steals), "count");
  R.add("enumerate.splits", double(SP.Splits), "count");
  R.add("synth.x86_s", SP.X86Seconds, "s");
  R.add("synth.power_s", SP.PowerSeconds, "s");
  R.add("synth.bases", double(SP.Bases), "count");
  R.add("synth.placements", double(SP.Placements), "count");
  R.add("litmus.parse_s", selfOf(Q, "litmus.parse"), "s");
  R.add("lint.facts_s", selfOf(Q, "lint.facts"), "s");
  R.add("lint.admitted_frac", Stats.admittedFrac(), "frac");
  R.add("query.serialize_s", selfOf(Q, "query.serialize"), "s");
  R.add("query.json_bytes", double(JsonBytes), "bytes");
  R.add("query.cache.program_hit_frac",
        frac(SR.ProgramHits, SR.ProgramHits + SR.ProgramMisses), "frac");
  R.add("query.cache.plan_hit_frac",
        frac(SR.PlanHits, SR.PlanHits + SR.PlanMisses), "frac");
  R.add("server.batches", double(SR.ServerBatches), "count");
  R.add("server.bad_batches", double(SR.BadBatches), "count");
  R.add("server.backpressure_pauses", double(SR.BackpressurePauses), "count");
  R.add("server.rtt_p50_ms", SR.P50Ms, "ms");
  R.add("server.rtt_p99_ms", SR.P99Ms, "ms");
  R.add("store.lookup_us", median(LookupUs), "us");
  R.add("store.append_us", median(AppendUs), "us");
  R.add("store.appends", double(SR.StoreAppends), "count");
  R.add("store.hit_frac",
        frac(SR.StoreHits, SR.StoreHits + SR.StoreMisses), "frac");
  R.add("store.open_s", StoreOpen, "s");
  R.add("store.log_bytes", double(SR.LogBytes), "bytes");
  R.add("failed_frac", R.T.failedFrac(), "frac");
  R.add("trace.spans", double(NumSpans), "count");
  R.add("trace.span_ns", SpanNs, "ns");
  R.add("trace.overhead_frac",
        double(QT.spans().size()) * SpanNs * 1e-9 / rootTime(QT.spans()),
        "frac");
  R.add("trace.query_coverage", Stages / Untraced, "frac");
  R.add("trace.replay_ratio", rootTime(QT.spans()) / Untraced, "frac");
  R.add("trace.synth_coverage",
        (SP.X86Seconds + SP.PowerSeconds) / selfOf(Sy, "synth.pass"), "frac");
  R.add("trace.serve_coverage",
        SR.SpanSeconds / (A.Jobs * SR.SessionSeconds), "frac");
  return 0;
}

} // namespace tmwbench
