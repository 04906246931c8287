//===- QueryEngine.cpp - Evaluating batch litmus queries -----------------------==//

#include "query/QueryEngine.h"

#include "enumerate/Candidates.h"
#include "lint/Lint.h"
#include "litmus/Library.h"
#include "litmus/Parser.h"
#include "litmus/Printer.h"
#include "models/EvalPlan.h"
#include "models/ModelRegistry.h"
#include "query/Json.h"
#include "query/QueryIO.h"
#include "query/SessionCache.h"
#include "store/VerdictStore.h"

#include <algorithm>
#include <atomic>
#include <thread>

using namespace tmw;

namespace {

using TimePoint = std::chrono::steady_clock::time_point;

double secondsSince(TimePoint Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

/// Evaluate one request using \p Arena as the per-worker analysis arena
/// (created on first use, retargeted per candidate — the same arena
/// discipline as the synthesis workers). \p Cache, when set, supplies
/// interned models and cached parses; it never changes the response.
/// \p PlanCache is the cache consulted for compiled evaluation plans —
/// the session cache when one is attached, else a batch-local one (or
/// nullptr: compile per request). \p Specialize, under the Planned
/// strategy, pre-discharges footprint-disjoint obligations from the
/// program's static vocabulary (verdict-neutral; see BatchOptions).
CheckResponse evaluateRequest(const CheckRequest &R,
                              std::optional<ExecutionAnalysis> &Arena,
                              SessionCache *Cache, EvalStrategy Strategy,
                              SessionCache *PlanCache, VerdictStore *Store,
                              bool Specialize) {
  TimePoint T0 = std::chrono::steady_clock::now();
  CheckResponse Resp;
  Resp.Name = R.Name;
  auto Finish = [&]() -> CheckResponse & {
    Resp.Seconds = secondsSince(T0);
    return Resp;
  };

  // Resolve every model spec up front: a bad spec fails the request
  // before any enumeration work. Const models are shared freely across
  // threads, so cached resolutions are handed out as-is.
  std::vector<std::string> Specs = R.ModelSpecs;
  if (Specs.empty())
    for (Arch A : ModelRegistry::allArchs())
      Specs.push_back(ModelRegistry::archSpecName(A));
  std::vector<std::shared_ptr<const MemoryModel>> Models;
  Models.reserve(Specs.size());
  for (const std::string &Spec : Specs) {
    std::string Error;
    std::shared_ptr<const MemoryModel> M =
        Cache ? Cache->model(Spec, &Error)
              : std::shared_ptr<const MemoryModel>(
                    ModelRegistry::parse(Spec, &Error));
    if (!M) {
      Resp.Error = "model spec '" + Spec + "': " + Error;
      return Finish();
    }
    Models.push_back(std::move(M));
  }

  // Resolve the program: inline DSL source or a corpus entry. The cached
  // parse (and the shared corpus entry) outlive this evaluation — the
  // shared_ptr keeps an evicted entry alive while we hold it.
  ParseResult LocalParse;
  std::shared_ptr<const ParseResult> CachedParse;
  const Program *P = nullptr;
  if (!R.Source.empty() && !R.Corpus.empty()) {
    Resp.Error = "request sets both 'source' and 'corpus'";
    return Finish();
  }
  // Static program facts for plan specialization: served from the
  // session cache beside a cached parse (computed once at parse time),
  // computed inline otherwise (one O(instructions) scan — trivia next to
  // enumeration).
  ProgramFacts Facts;
  bool HaveFacts = false;
  if (!R.Source.empty()) {
    const ParseResult *PR;
    if (Cache) {
      CachedParse = Cache->program(R.Source, &Facts);
      PR = CachedParse.get();
      HaveFacts = true;
    } else {
      LocalParse = parseProgram(R.Source);
      PR = &LocalParse;
    }
    if (!*PR) {
      Resp.Error = "parse error: " + PR->Error;
      Resp.ErrorLine = PR->ErrorLine;
      return Finish();
    }
    P = &PR->Prog;
  } else if (!R.Corpus.empty()) {
    const CorpusEntry *E = findCorpusEntry(R.Corpus);
    if (!E) {
      Resp.Error = "unknown corpus entry '" + R.Corpus + "'";
      return Finish();
    }
    P = &E->Prog;
  } else {
    Resp.Error = "empty request: set 'source' or 'corpus'";
    return Finish();
  }
  if (Resp.Name.empty())
    Resp.Name = P->Name;

  Resp.Verdicts.resize(Models.size());
  for (size_t M = 0; M < Models.size(); ++M)
    Resp.Verdicts[M].Spec = ModelRegistry::print(*Models[M]);

  // Persistent tier: with a verdict store attached, an exact content
  // match (engine version, options, name, canonical specs, full program
  // source) answers from disk before any plan compile or enumeration.
  // The stored document is the canonical JSON of a previous evaluation,
  // and parse→serialise round-trips byte-exactly (query_io_test), so a
  // stored hit is byte-identical to a cold evaluation.
  std::string StoreKey;
  if (Store) {
    std::vector<std::string> Canonical(Resp.Verdicts.size());
    for (size_t M = 0; M < Resp.Verdicts.size(); ++M)
      Canonical[M] = Resp.Verdicts[M].Spec;
    // Corpus entries are keyed by their printed DSL — the same content
    // address an inline submission of the identical program would get.
    std::string CorpusSource;
    std::string_view Source = R.Source;
    if (Source.empty()) {
      CorpusSource = printDsl(*P);
      Source = CorpusSource;
    }
    StoreKey = VerdictStore::makeKey(Resp.Name, Source, Canonical, R.Explain,
                                     R.WantOutcomes, R.CandidateCap);
    ++Resp.Store.Lookups;
    if (std::optional<std::string> Doc = Store->lookup(StoreKey)) {
      CheckResponse Stored;
      if (std::optional<JsonValue> V = parseJson(*Doc, nullptr);
          V && responseFromJson(*V, Stored)) {
        Stored.Store.Lookups = 1;
        Stored.Store.Hits = 1;
        Resp = std::move(Stored);
        return Finish();
      }
      // Unparseable stored document — unreachable through the checksummed
      // append path; evaluate cold (the resident key blocks re-append).
    }
  }

  // Planned strategy: compile (or fetch) the spec set's cross-spec
  // evaluation plan. Keyed by the canonical printed specs, so any
  // spelling of the same resolved set shares one plan.
  std::shared_ptr<const EvalPlan> CachedPlan;
  EvalPlan LocalPlan;
  const EvalPlan *Plan = nullptr;
  EvalPlan::Scratch Scratch;
  std::optional<EvalPlan::Specialization> Spec;
  if (Strategy == EvalStrategy::Planned) {
    std::vector<const MemoryModel *> Raw(Models.size());
    for (size_t M = 0; M < Models.size(); ++M)
      Raw[M] = Models[M].get();
    if (PlanCache) {
      std::string Key;
      for (const ModelVerdict &V : Resp.Verdicts) {
        Key += V.Spec;
        Key += '\n';
      }
      bool Hit = false;
      CachedPlan = PlanCache->plan(Key, Raw, &Hit);
      Plan = CachedPlan.get();
      (Hit ? Resp.Plan.CacheHits : Resp.Plan.Compiles) = 1;
    } else {
      LocalPlan = EvalPlan::compile(Raw);
      Plan = &LocalPlan;
      Resp.Plan.Compiles = 1;
    }
    Scratch = Plan->makeScratch();
    if (Specialize) {
      if (!HaveFacts)
        Facts = computeFacts(*P);
      Spec = Plan->specialize(Facts);
    }
  }

  // Enumerate the candidates ONCE; fan each one out to every model over
  // one shared analysis, so derived relations (fr, com, fences, ...) are
  // computed once per candidate, not once per (candidate, model).
  std::vector<Execution> FirstForbidden(Models.size());
  forEachCandidate(*P, [&](const Candidate &C) {
    if (R.CandidateCap && Resp.Candidates >= R.CandidateCap) {
      Resp.Truncated = true;
      return false;
    }
    int64_t Index = static_cast<int64_t>(Resp.Candidates++);
    if (!Arena)
      Arena.emplace(C.X);
    else
      Arena->reset(C.X);
    bool Satisfies = C.O.satisfies(*P);
    if (Plan)
      Plan->evaluate(*Arena, Scratch, Spec ? &*Spec : nullptr);
    for (size_t M = 0; M < Models.size(); ++M) {
      ModelVerdict &V = Resp.Verdicts[M];
      bool Consistent =
          Plan ? Scratch.consistent(M) : Models[M]->consistent(*Arena);
      if (Consistent) {
        ++V.Consistent;
        V.Allowed |= Satisfies;
        if (R.WantOutcomes)
          V.AllowedOutcomes.push_back(C.O);
      } else if (V.FirstForbidden < 0) {
        V.FirstForbidden = Index;
        if (R.Explain)
          FirstForbidden[M] = C.X;
      }
    }
    return true;
  });

  if (Plan) {
    const EvalPlan::Counters &PC = Scratch.counters();
    Resp.Plan.TermEvals = PC.TermEvals;
    Resp.Plan.TermHits = PC.TermHits;
    Resp.Plan.SpecEvals = PC.SpecEvals;
    Resp.Plan.SpecShortCircuits = PC.SpecShortCircuits;
    Resp.Plan.Discharged = PC.Discharged;
  }

  if (R.Explain)
    for (size_t M = 0; M < Models.size(); ++M) {
      ModelVerdict &V = Resp.Verdicts[M];
      if (V.FirstForbidden < 0)
        continue;
      // Re-analyse the stored copy (the enumeration's candidate is gone);
      // checkAll reports every violated axiom plus its witness events.
      if (!Arena)
        Arena.emplace(FirstForbidden[M]);
      else
        Arena->reset(FirstForbidden[M]);
      CheckReport Report = Models[M]->checkAll(*Arena);
      for (const AxiomVerdict &AV : Report.Verdicts) {
        if (AV.Holds)
          continue;
        FailedAxiomInfo Info;
        Info.Axiom = std::string(AV.Ax->Name);
        for (EventId E : AV.Witness)
          Info.Witness.push_back(E);
        V.FailedAxioms.push_back(std::move(Info));
      }
    }

  if (R.WantOutcomes)
    for (ModelVerdict &V : Resp.Verdicts) {
      std::sort(V.AllowedOutcomes.begin(), V.AllowedOutcomes.end());
      V.AllowedOutcomes.erase(
          std::unique(V.AllowedOutcomes.begin(), V.AllowedOutcomes.end()),
          V.AllowedOutcomes.end());
    }

  // Persist the cold answer (append + fsync). Error responses are not
  // stored: they can depend on mutable context (the corpus set, registry
  // spellings) rather than on the keyed content alone.
  if (Store && Resp.Error.empty() &&
      Store->append(StoreKey, toJson(Resp)))
    Resp.Store.Appends = 1;
  return Finish();
}

} // namespace

BatchRun::BatchRun(std::span<const CheckRequest> Requests,
                   unsigned NumWorkers, const BatchOptions &Opts,
                   std::function<void(const CheckResponse &)> OnResult)
    : Requests(Requests), Opts(Opts), OnResult(std::move(OnResult)),
      Results(Requests.size()), Done(Requests.size(), 0),
      Loads(NumWorkers), T0(std::chrono::steady_clock::now()) {
  // Cache-less planned batches still plan each distinct spec set once.
  if (!Opts.Cache && Opts.Strategy == EvalStrategy::Planned)
    BatchPlans.emplace();
}

bool BatchRun::runOne(size_t I, unsigned Worker,
                      std::optional<ExecutionAnalysis> &Arena, bool Stolen,
                      bool Skip) {
  TimePoint S0 = std::chrono::steady_clock::now();
  ++Loads[Worker].Tasks;
  Loads[Worker].Steals += Stolen;
  if (!Skip) {
    SessionCache *PlanCache =
        Opts.Cache ? Opts.Cache : (BatchPlans ? &*BatchPlans : nullptr);
    Results[I] = evaluateRequest(Requests[I], Arena, Opts.Cache,
                                 Opts.Strategy, PlanCache, Opts.Store,
                                 Opts.Specialize);
    Loads[Worker].BasesVisited += Results[I].Candidates;
  }
  Loads[Worker].BusySeconds += secondsSince(S0);
  // Stream in request order: emit response i only after 0..i-1. Exactly
  // one call advances NextToEmit to the end — the batch-completion
  // signal for external schedulers.
  std::lock_guard<std::mutex> Lock(EmitMu);
  Done[I] = 1;
  bool WasComplete = NextToEmit == Results.size();
  while (NextToEmit < Results.size() && Done[NextToEmit]) {
    if (OnResult)
      OnResult(Results[NextToEmit]);
    ++NextToEmit;
  }
  return !WasComplete && NextToEmit == Results.size();
}

std::vector<CheckResponse> BatchRun::take(BatchTelemetry &T) {
  T.Programs = Requests.size();
  T.Candidates = T.Checks = 0;
  for (const CheckResponse &R : Results) {
    T.Candidates += R.Candidates;
    T.Checks += R.Candidates * R.Verdicts.size();
    T.Plan += R.Plan;
    T.Store += R.Store;
  }
  T.Workers = std::move(Loads);
  T.Seconds = secondsSince(T0);
  return std::move(Results);
}

CheckResponse QueryEngine::evaluate(const CheckRequest &R) const {
  std::optional<ExecutionAnalysis> Arena;
  return evaluateRequest(R, Arena, Opts.Cache, Opts.Strategy, Opts.Cache,
                         Opts.Store, Opts.Specialize);
}

BatchTelemetry QueryEngine::run(
    std::span<const CheckRequest> Requests,
    const std::function<void(const CheckResponse &)> &OnResult) const {
  BatchTelemetry T;
  runAllInto(Requests, OnResult, T);
  return T;
}

std::vector<CheckResponse>
QueryEngine::runAll(std::span<const CheckRequest> Requests,
                    BatchTelemetry *Telemetry) const {
  BatchTelemetry T;
  std::vector<CheckResponse> Out = runAllInto(Requests, nullptr, T);
  if (Telemetry)
    *Telemetry = std::move(T);
  return Out;
}

std::vector<CheckResponse> QueryEngine::runAllInto(
    std::span<const CheckRequest> Requests,
    const std::function<void(const CheckResponse &)> &OnResult,
    BatchTelemetry &T) const {
  size_t N = Requests.size();
  if (N == 0) {
    T.Programs = 0;
    return {};
  }

  // One-shot flow: transient workers drive the same BatchRun the
  // resident server schedules on its pool. Requests are never split, so
  // the workers need no pool: each claims the next index from one shared
  // counter. Idle workers beyond the request count would only contend,
  // so clamp.
  unsigned Jobs = static_cast<unsigned>(
      std::min<size_t>(std::max(1u, Opts.Jobs), N));
  BatchRun Batch(Requests, Jobs, Opts, OnResult);
  std::atomic<size_t> Next{0};
  auto Work = [&](unsigned W) {
    std::optional<ExecutionAnalysis> Arena;
    for (size_t I; (I = Next.fetch_add(1, std::memory_order_relaxed)) < N;)
      Batch.runOne(I, W, Arena);
  };

  if (Jobs == 1) {
    Work(0);
  } else {
    std::vector<std::thread> Threads;
    Threads.reserve(Jobs);
    for (unsigned W = 0; W < Jobs; ++W)
      Threads.emplace_back(Work, W);
    for (std::thread &Th : Threads)
      Th.join();
  }
  return Batch.take(T);
}
