//===- forbidden_observation_test.cpp - Footnote-2 verdict refinement ---------==//
///
/// With three or more writes to one location, a final-state postcondition
/// cannot pin the full coherence order (the paper's footnote 2), so a
/// satisfying outcome may have a benign explanation. These tests pin the
/// behaviour of `observedForbiddenBehaviour`, which only reports a
/// soundness violation when no model-consistent candidate explains the
/// observation.
///
//===----------------------------------------------------------------------===//

#include "enumerate/Candidates.h"

#include "execution/Builder.h"
#include "hw/TsoMachine.h"
#include "litmus/FromExecution.h"
#include "models/ScModel.h"
#include "models/X86Model.h"

#include <gtest/gtest.h>

using namespace tmw;

namespace {

/// The ambiguous three-write test from the conformance run: a
/// transaction writing x twice with an external write in between.
Program ambiguousTest() {
  ExecutionBuilder B;
  EventId W1 = B.write(0, 0, MemOrder::NonAtomic, 1);
  EventId W2 = B.write(0, 0, MemOrder::NonAtomic, 3);
  EventId WExt = B.write(1, 0, MemOrder::NonAtomic, 2);
  B.co(W1, WExt);
  B.co(WExt, W2);
  B.txn({W1, W2});
  return programFromExecution(B.build(), "3writes").Prog;
}

TEST(ForbiddenObservationTest, BenignExplanationSuppressesVerdict) {
  Program P = ambiguousTest();
  X86Model Tm;
  // The TSO machine satisfies the postcondition via the benign coherence
  // order (external write first), so the raw verdict is "seen"...
  TsoMachine M(P);
  EXPECT_TRUE(M.postconditionObservable());
  // ...but every satisfying outcome has a consistent explanation, so no
  // forbidden behaviour was observed.
  EXPECT_FALSE(observedForbiddenBehaviour(P, Tm, M.reachableOutcomes()));
}

TEST(ForbiddenObservationTest, UnexplainableOutcomeIsReported) {
  // SB with its weak outcome: under SC no candidate explains it, so an
  // SC-specification run that *did* observe it would be a violation.
  ExecutionBuilder B;
  B.write(0, 0, MemOrder::NonAtomic, 1);
  B.read(0, 1);
  B.write(1, 1, MemOrder::NonAtomic, 1);
  B.read(1, 0);
  Program P = programFromExecution(B.build(), "sb").Prog;

  TsoMachine M(P);
  std::vector<Outcome> Observed = M.reachableOutcomes();
  ScModel Sc;
  // The TSO machine exhibits SB; SC cannot explain it.
  EXPECT_TRUE(observedForbiddenBehaviour(P, Sc, Observed));
  // The x86 model explains everything the machine does.
  X86Model X86;
  EXPECT_FALSE(observedForbiddenBehaviour(P, X86, Observed));
}

TEST(ForbiddenObservationTest, NonSatisfyingOutcomesIgnored) {
  Program P = ambiguousTest();
  X86Model Tm;
  // An outcome that fails the postcondition is never a violation, even
  // if it has no consistent explanation.
  Outcome Bogus;
  Bogus.MemValues = {99, 0};
  EXPECT_FALSE(observedForbiddenBehaviour(P, Tm, {Bogus}));
}

} // namespace
