//===- ExecutionAnalysis.h - Memoized derived relations ---------*- C++ -*-==//
///
/// \file
/// A lazily-memoized view of the derived relations and event sets of one
/// *immutable* `Execution`. Every consistency axiom of §2.1/§3.1/§3.3 is
/// phrased over the same handful of derived relations (`fr`, `com`,
/// `stxn`, `tfence`, the fence relations, internal/external splits, ...);
/// `MemoryModel::check` used to recompute each of them from scratch on
/// every call, per model, per ablation. `ExecutionAnalysis` computes each
/// term at most once per execution — the explicit-search counterpart of
/// herd7 evaluating each `cat` definition once per candidate — so that the
/// many models and ablation configurations evaluated on one candidate
/// share all of the relational groundwork.
///
/// Contract:
///  * The analysed `Execution` must stay unmodified and alive for the
///    lifetime of the analysis (`reset()` retargets an arena-style
///    instance onto a new execution and drops all cached state).
///  * Copying an analysis *invalidates* the copy's caches: the copy
///    re-derives on demand. This keeps copies cheap and means a copy taken
///    mid-flight can never observe stale state.
///  * An `ExecutionAnalysis` is not thread-safe: memoization mutates the
///    cache under `const`. The sharded enumerator gives each shard its own
///    analysis arena instead of sharing one.
///
/// This class is the only place a derived term is defined: `Execution`
/// holds the graph (stored relations, class labellings, and the few event
/// sets and `sloc` that building and validating a graph needs), and every
/// other term of the axioms is computed here, from the graph and from
/// other memoized terms.
///
/// `AnalysisCaching::Recompute` disables memoization: every accessor
/// re-derives from scratch. It is the ground truth that memoization cannot
/// mask, used by the contract audit (src/audit/) and by the cross-check
/// and per-pair oracle tests (tests/analysis_test.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef TMW_EXECUTION_EXECUTIONANALYSIS_H
#define TMW_EXECUTION_EXECUTIONANALYSIS_H

#include "execution/Execution.h"

#include <deque>

namespace tmw {

/// Number of `FenceKind` enumerators (index bound for per-flavour caches).
inline constexpr unsigned kNumFenceKinds =
    static_cast<unsigned>(FenceKind::CppFence) + 1;

/// Memoization policy of an `ExecutionAnalysis`.
enum class AnalysisCaching : uint8_t {
  /// Compute each derived term at most once (the default).
  Memoized,
  /// Re-derive on every access: the reference the caches are checked
  /// against.
  Recompute,
};

/// Lazily computed, memoized derived relations and event sets of one
/// immutable execution.
class ExecutionAnalysis {
public:
  /// Intentionally implicit: `M.check(X)` with an `Execution` constructs a
  /// temporary analysis, giving the pre-analysis API as a thin
  /// compatibility layer (memoization then only spans that single call).
  ExecutionAnalysis(const Execution &X,
                    AnalysisCaching Mode = AnalysisCaching::Memoized)
      : X(&X), Mode(Mode) {}

  /// Copies retarget to the same execution but drop all cached state.
  ExecutionAnalysis(const ExecutionAnalysis &O) : X(O.X), Mode(O.Mode) {}
  ExecutionAnalysis &operator=(const ExecutionAnalysis &O) {
    X = O.X;
    Mode = O.Mode;
    invalidateAll();
    return *this;
  }

  /// Retarget this analysis onto \p NewX, dropping all cached state. Lets
  /// a per-shard (or per-relaxation-child) arena serve many candidates
  /// without reallocation: invalidation bumps two generation counters
  /// instead of clearing the ~25 KB cache block.
  void reset(const Execution &NewX) {
    X = &NewX;
    invalidateAll();
  }

  /// Drop only the caches that depend on the transaction labelling
  /// (`Txn` / `AtomicTxns`): stxn, tfence, the lifted isolation terms, the
  /// transactional event sets, and the transaction-dependent model terms.
  /// The enumerator's placement search mutates exactly those fields of a
  /// fixed base execution, so a shard's arena keeps `fr`/`com`/fence
  /// relations — and transaction-independent model terms like Power's ppo
  /// fixpoint — across all placements of one base and invalidates just
  /// this slice per placement.
  void invalidateTransactionalState() { ++TxnGen; }

  const Execution &execution() const { return *X; }
  unsigned size() const { return X->size(); }
  AnalysisCaching caching() const { return Mode; }
  EventSet universe() const { return X->universe(); }

  /// Number of derived-term computations performed so far (a memoized
  /// accessor hit increments this only on its first call). Used by the
  /// memoization unit tests.
  uint64_t recomputeCount() const { return Recomputes; }

  //===--------------------------------------------------------------------===
  // Stored relations (pass-through to the execution).
  //===--------------------------------------------------------------------===

  const Relation &po() const { return X->Po; }
  const Relation &rf() const { return X->Rf; }
  const Relation &co() const { return X->Co; }
  const Relation &addr() const { return X->Addr; }
  const Relation &data() const { return X->Data; }
  const Relation &ctrl() const { return X->Ctrl; }
  const Relation &rmw() const { return X->Rmw; }

  //===--------------------------------------------------------------------===
  // Memoized event sets.
  //===--------------------------------------------------------------------===

  EventSet reads() const;
  EventSet writes() const;
  EventSet fences() const;
  EventSet accesses() const;
  EventSet fences(FenceKind K) const;
  EventSet atomics() const;
  EventSet acquires() const;
  EventSet releases() const;
  EventSet seqCst() const;
  EventSet transactional() const;
  EventSet atomicTransactional() const;

  //===--------------------------------------------------------------------===
  // Memoized derived relations (§2.1, §3.1, §3.3).
  //===--------------------------------------------------------------------===

  const Relation &sloc() const;
  const Relation &sameThread() const;
  const Relation &poLoc() const;
  const Relation &poImm() const;
  const Relation &fr() const;
  const Relation &com() const;
  const Relation &ecom() const;
  const Relation &rfe() const;
  const Relation &rfi() const;
  const Relation &coe() const;
  const Relation &coi() const;
  const Relation &fre() const;
  const Relation &fri() const;
  const Relation &stxn() const;
  const Relation &stxnAtomic() const;
  const Relation &tfence() const;
  const Relation &scr() const;
  const Relation &scrt() const;

  /// po ; [F_K] ; po, cached per fence flavour.
  const Relation &fenceRel(FenceKind K) const;

  /// RC11 synchronises-with (fences and release sequences included) — the
  /// model-independent building block of the C++ model's happens-before.
  const Relation &cppSynchronisesWith() const;
  /// Transactional synchronisation (§7.2): weaklift(ecom, stxn).
  const Relation &cppTransactionalSw() const;

  /// Lifted isolation relations (§3.3): the weaklift/stronglift terms the
  /// isolation axioms are phrased over.
  const Relation &weakLiftComStxn() const;
  const Relation &strongLiftComStxn() const;
  const Relation &strongLiftComStxnAtomic() const;

  /// Inter-/intra-thread restriction of an arbitrary relation (uses the
  /// memoized sameThread).
  Relation external(const Relation &R) const { return R - sameThread(); }
  Relation internal(const Relation &R) const { return R & sameThread(); }

  //===--------------------------------------------------------------------===
  // Model-term memoization.
  //===--------------------------------------------------------------------===

  /// Memoize a *model-specific* compound relation (an architecture's
  /// happens-before, Power's ppo fixpoint, a psc instance, ...) that the
  /// fixed accessors above cannot know about. \p Tag is an address with
  /// static storage duration, unique to the term; \p Salt distinguishes
  /// configurations of the same term (typically the relevant `AxiomMask`
  /// bits). \p TxnDependent says whether the term reads the transaction
  /// labelling: transaction-dependent entries die with
  /// `invalidateTransactionalState()`, independent ones survive until
  /// `reset()`. As everywhere in this class, memoization is skipped in
  /// `Recompute` mode and the call is not thread-safe.
  template <typename Fn>
  const Relation &memoTerm(const void *Tag, uint64_t Salt,
                           bool TxnDependent, Fn &&Compute) const {
    uint64_t Gen = TxnDependent ? TxnGen : StructGen;
    if (Mode != AnalysisCaching::Recompute)
      for (TermEntry &E : Terms)
        if (E.Tag == Tag && E.Salt == Salt &&
            E.TxnDependent == TxnDependent && E.Gen == Gen)
          return E.Value;
    // Compute before touching the table: nested terms (prop over hb, say)
    // re-enter memoTerm and may grow `Terms`, so no entry pointer can be
    // held across the computation. (Returned references stay valid —
    // `Terms` is a deque, which never relocates existing entries on
    // emplace_back, and eviction only overwrites *stale* entries, which
    // no live caller can still reference: generations only advance
    // between checks.)
    Relation Value = Compute();
    ++Recomputes;
    TermEntry *Free = nullptr;
    for (TermEntry &E : Terms) {
      if (E.Tag == Tag && E.Salt == Salt &&
          E.TxnDependent == TxnDependent) {
        Free = &E; // recompute in place (stale, or Recompute mode)
        break;
      }
      if (!Free && E.Gen != (E.TxnDependent ? TxnGen : StructGen))
        Free = &E; // any stale entry may be evicted
    }
    if (!Free)
      Free = &Terms.emplace_back();
    Free->Tag = Tag;
    Free->Salt = Salt;
    Free->TxnDependent = TxnDependent;
    Free->Gen = Gen;
    Free->Value = std::move(Value);
    return Free->Value;
  }

private:
  /// A memoization slot is valid when its stamp matches the owning
  /// generation counter, so invalidation is a counter bump rather than a
  /// sweep over the cached values. Counters start at 1; default-initialised
  /// slots (stamp 0) are invalid.
  template <typename T> struct Slot {
    T Value{};
    uint64_t Gen = 0;
  };

  template <typename T, typename Fn>
  const T &memo(Slot<T> &S, uint64_t Gen, Fn &&Compute) const {
    if (S.Gen != Gen || Mode == AnalysisCaching::Recompute) {
      S.Value = Compute();
      S.Gen = Gen;
      ++Recomputes;
    }
    return S.Value;
  }

  void invalidateAll() {
    ++StructGen;
    ++TxnGen;
    Recomputes = 0;
  }

  /// All cached state. Slots stamped with `StructGen` depend only on the
  /// structural part of the execution; slots stamped with `TxnGen`
  /// additionally read the transaction labelling.
  struct Caches {
    Slot<EventSet> Reads, Writes, Fences, Accesses, Atomics, Acquires,
        Releases, SeqCst, Transactional, AtomicTransactional;
    Slot<EventSet> FencesOf[kNumFenceKinds];
    Slot<Relation> Sloc, SameThread, PoLoc, PoImm, Fr, Com, Ecom, Rfe, Rfi,
        Coe, Coi, Fre, Fri, Stxn, StxnAtomic, Tfence, Scr, Scrt;
    Slot<Relation> FenceRels[kNumFenceKinds];
    Slot<Relation> CppSw, CppTsw;
    Slot<Relation> WeakLiftComStxn, StrongLiftComStxn,
        StrongLiftComStxnAtomic;
  };

  /// One memoized model term (see `memoTerm`).
  struct TermEntry {
    const void *Tag = nullptr;
    uint64_t Salt = 0;
    uint64_t Gen = 0;
    bool TxnDependent = false;
    Relation Value;
  };

  const Execution *X;
  AnalysisCaching Mode;
  /// Bumped by reset()/assignment: invalidates every slot and term.
  mutable uint64_t StructGen = 1;
  /// Bumped additionally by invalidateTransactionalState().
  mutable uint64_t TxnGen = 1;
  mutable uint64_t Recomputes = 0;
  mutable Caches C;
  /// Deque, not vector: memoTerm hands out references into the entries,
  /// and nested memoTerm calls append — a vector's reallocation would
  /// invalidate every outstanding reference (ASan-confirmed when this was
  /// a vector).
  mutable std::deque<TermEntry> Terms;
};

} // namespace tmw

#endif // TMW_EXECUTION_EXECUTIONANALYSIS_H
