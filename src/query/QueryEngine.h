//===- QueryEngine.h - Evaluating batch litmus queries ----------*- C++ -*-==//
///
/// \file
/// The evaluator behind the request/response API (query/Query.h). For one
/// request it runs the whole stack once: resolve every model spec through
/// the registry, parse the program (or fetch the corpus entry), then
/// enumerate the program's candidate executions **once** and fan each
/// candidate out to all requested models through one shared
/// `ExecutionAnalysis` — so six models cost one enumeration plus six
/// axiom evaluations over memoized relations, not six enumerations. This
/// is the enumerate-once/check-many discipline every frontend previously
/// hand-rolled (or failed to: the old benches re-enumerated per model).
///
/// A one-shot batch runs on `min(Jobs, N)` workers that claim request
/// indices from one shared atomic counter (requests are never split, so
/// no pool is needed), each with its own analysis arena. Results are
/// **streamed in request order**: the callback fires for response i only
/// after responses 0..i-1, whatever order the workers finished in. Verdicts are deterministic — independent of Jobs
/// and of scheduling — because each request is evaluated sequentially by
/// exactly one worker over the fixed candidate enumeration order; only
/// `Seconds` and the telemetry vary run to run.
///
//===----------------------------------------------------------------------===//

#ifndef TMW_QUERY_QUERYENGINE_H
#define TMW_QUERY_QUERYENGINE_H

#include "execution/ExecutionAnalysis.h"
#include "query/Query.h"
#include "query/SessionCache.h"

#include <chrono>
#include <functional>
#include <mutex>
#include <optional>
#include <span>

namespace tmw {

class VerdictStore;

/// How a request's models are evaluated over each candidate.
enum class EvalStrategy : uint8_t {
  /// Compile the request's spec set into one cross-spec evaluation plan
  /// (models/EvalPlan.h): shared obligations are computed once per
  /// candidate and subsumption edges short-circuit whole verdicts. The
  /// default — verdicts are identical to Independent by construction
  /// (pinned by tests/eval_plan_test.cpp and the CI corpus cmp).
  Planned,
  /// Check every model independently through `MemoryModel::consistent`,
  /// sharing only the per-candidate analysis arena — the reference path
  /// the plan is differentially tested against.
  Independent,
};

/// Batch evaluation options.
struct BatchOptions {
  /// Worker threads for `run`/`runAll` (1 = evaluate inline, no threads).
  unsigned Jobs = 1;
  /// Optional resident caches (parsed programs, interned model specs,
  /// compiled evaluation plans) consulted by every evaluation. nullptr =
  /// parse and resolve per request, as a one-shot run does. Caching never
  /// changes a verdict — a cached program/model/plan is identical to a
  /// recomputed one — so cached and uncached runs produce byte-identical
  /// response JSON.
  SessionCache *Cache = nullptr;
  /// Candidate evaluation strategy (Planned and Independent produce
  /// byte-identical canonical JSON; only the telemetry differs).
  EvalStrategy Strategy = EvalStrategy::Planned;
  /// Planned strategy only: specialize each request's plan to the
  /// program's static vocabulary facts (lint/Lint.h), pre-discharging
  /// footprint-disjoint obligations once per program instead of
  /// evaluating them per candidate. Verdict-neutral by the audited
  /// footprint contract — on and off produce byte-identical canonical
  /// JSON (pinned by tests and the CI corpus cmp); only `Discharged`
  /// telemetry differs. Default on.
  bool Specialize = true;
  /// Optional persistent verdict store (store/VerdictStore.h) — the
  /// second, cross-process caching tier below the in-memory caches: a
  /// request whose exact content key (program source, canonical specs,
  /// options, engine version) is stored skips enumeration entirely and
  /// answers from disk. Like `Cache`, verdict-neutral by contract:
  /// stored-hit, memory-hit, and cold evaluation emit byte-for-byte
  /// identical canonical JSON. nullptr = no persistence.
  VerdictStore *Store = nullptr;
};

/// One batch in flight — the seam between the engine's evaluation logic
/// and whoever owns the worker threads. `QueryEngine::run` spawns
/// transient workers per call; the resident query server
/// (server/QueryServer.h) interleaves tasks of many batches over one
/// persistent pool. Both drive the *same* `runOne`, so server responses
/// match one-shot runs byte for byte by construction.
///
/// Protocol: construct for \p NumWorkers workers, have the owner
/// schedule every request index exactly once via `runOne` (any order;
/// each thread passes its own fixed `Worker` slot < NumWorkers), then
/// collect results with `take`. Responses stream to the optional
/// callback in request order, whatever order workers finish in. Request
/// evaluation is the same code whatever the scheduler, so verdict bytes
/// cannot depend on it — or on how many rival batches share a pool.
class BatchRun {
public:
  /// Evaluation state for \p NumWorkers workers. `Opts.Jobs` is
  /// ignored: the owner decides how many threads drive `runOne`.
  BatchRun(std::span<const CheckRequest> Requests, unsigned NumWorkers,
           const BatchOptions &Opts,
           std::function<void(const CheckResponse &)> OnResult = nullptr);
  BatchRun(const BatchRun &) = delete;
  BatchRun &operator=(const BatchRun &) = delete;

  /// Evaluate request \p I (exactly once per index, any thread, any
  /// order). \p Skip marks the index done without evaluating — the
  /// cancellation path for a disconnected client's batch: bookkeeping
  /// still completes, the response stays empty and is discarded by the
  /// owner. Returns true for exactly the call that completed the batch
  /// (every response emitted in order) — after that call returns, no
  /// other `runOne` for this batch is in flight.
  bool runOne(size_t I, unsigned Worker,
              std::optional<ExecutionAnalysis> &Arena, bool Stolen = false,
              bool Skip = false);

  /// After every worker returned: the responses (request order) and the
  /// batch telemetry.
  std::vector<CheckResponse> take(BatchTelemetry &T);

  size_t size() const { return Requests.size(); }

private:
  std::span<const CheckRequest> Requests;
  BatchOptions Opts;
  std::function<void(const CheckResponse &)> OnResult;
  /// Plan cache for cache-less planned batches, so a batch still compiles
  /// each distinct spec set once (a resident `Cache` subsumes it).
  std::optional<SessionCache> BatchPlans;
  std::vector<CheckResponse> Results;
  /// Responses computed but not yet emitted in order (guarded by EmitMu).
  std::vector<char> Done;
  std::vector<WorkerLoad> Loads;
  size_t NextToEmit = 0;
  std::mutex EmitMu;
  std::chrono::steady_clock::time_point T0;
};

/// Stateless evaluator of `CheckRequest` batches; cheap to construct.
/// (For a long-lived session that keeps threads, arenas, and caches
/// resident across batches, see server/QueryServer.h.)
class QueryEngine {
public:
  explicit QueryEngine(BatchOptions Opts = {}) : Opts(Opts) {}

  /// Evaluate one request in the calling thread.
  CheckResponse evaluate(const CheckRequest &R) const;

  /// Evaluate \p Requests on `min(Opts.Jobs, N)` workers, streaming each
  /// response to \p OnResult in request order (the callback runs on
  /// whichever worker completes the front of the order — serialise any
  /// shared state yourself, or use `runAll`). Returns the batch
  /// telemetry.
  BatchTelemetry
  run(std::span<const CheckRequest> Requests,
      const std::function<void(const CheckResponse &)> &OnResult) const;

  /// `run`, materialised: all responses in request order (telemetry
  /// optionally reported through \p Telemetry).
  std::vector<CheckResponse>
  runAll(std::span<const CheckRequest> Requests,
         BatchTelemetry *Telemetry = nullptr) const;

private:
  std::vector<CheckResponse>
  runAllInto(std::span<const CheckRequest> Requests,
             const std::function<void(const CheckResponse &)> &OnResult,
             BatchTelemetry &T) const;

  BatchOptions Opts;
};

} // namespace tmw

#endif // TMW_QUERY_QUERYENGINE_H
