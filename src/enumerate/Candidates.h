//===- Candidates.h - Candidate executions of a program ---------*- C++ -*-==//
///
/// \file
/// Generates the candidate executions of a litmus-test program under a
/// non-deterministic memory system (§2): every load may observe any store
/// to the same location (or the initial value), coherence is any total
/// order per location, and each transaction succeeds or fails
/// non-deterministically — a failed transaction's events vanish (§3.1) and
/// its abort handler zeroes the `ok` location of the outcome.
///
/// The rf/co freedom is `forEachRfCo` (enumerate/RfCo.h) over all reads
/// and writes, so the candidate order is its order contract inside each
/// transaction success mask: rf before co, per read the initial value
/// then same-location writes in ascending id, co per location in
/// ascending location with permutations in lexicographic order.
/// `first_forbidden` in the canonical verdict JSON is an index into this
/// order.
///
/// Filtering the candidates through a `MemoryModel` yields the behaviours
/// the model allows — the herd-style simulation flow used both by the
/// model-level "run" of a test and by the axiomatic hardware substitutes.
///
//===----------------------------------------------------------------------===//

#ifndef TMW_ENUMERATE_CANDIDATES_H
#define TMW_ENUMERATE_CANDIDATES_H

#include "execution/Execution.h"
#include "litmus/Program.h"
#include "models/MemoryModel.h"

#include <functional>
#include <vector>

namespace tmw {

/// A candidate execution together with the outcome it produces.
struct Candidate {
  Execution X;
  Outcome O;
};

/// Stream every well-formed candidate execution of \p P into \p Sink, in
/// a deterministic order (transaction success masks in ascending order,
/// then the `forEachRfCo` order). The candidate is only valid for the duration of
/// the call; copy it to keep it. \p Sink returns false to stop the
/// enumeration early (e.g. a candidate cap); the function then returns
/// false too. This is the single enumeration primitive: a consumer that
/// checks one program against many models should enumerate once through
/// here and fan each candidate out to all models (see query/QueryEngine),
/// instead of re-enumerating per model.
bool forEachCandidate(const Program &P,
                      const std::function<bool(const Candidate &)> &Sink);

/// All well-formed candidate executions of \p P, materialised.
std::vector<Candidate> enumerateCandidates(const Program &P);

/// The outcomes of \p P permitted by \p M: outcomes of the consistent
/// candidates, deduplicated and sorted.
std::vector<Outcome> allowedOutcomes(const Program &P, const MemoryModel &M);

/// True when some consistent candidate satisfies the postcondition of
/// \p P — i.e. the model \p M allows the behaviour the test checks for.
bool postconditionReachable(const Program &P, const MemoryModel &M);

/// True when some outcome in \p Observed both satisfies the postcondition
/// of \p P and is not among the outcomes \p Spec allows — i.e. a machine
/// that produced \p Observed genuinely exhibited a behaviour the model
/// forbids.
///
/// This refines the raw "postcondition seen" verdict: with three or more
/// writes to one location a final-state postcondition cannot pin the full
/// coherence order (the paper's footnote 2), so a satisfying outcome may
/// have a benign explanation. Soundness violations are only claimed when
/// no consistent candidate explains the observation.
bool observedForbiddenBehaviour(const Program &P, const MemoryModel &Spec,
                                const std::vector<Outcome> &Observed);

} // namespace tmw

#endif // TMW_ENUMERATE_CANDIDATES_H
