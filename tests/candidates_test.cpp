//===- candidates_test.cpp - Candidate-execution enumeration (§2, §3.1) -------==//

#include "TestGraphs.h"
#include "enumerate/Candidates.h"
#include "hw/ImplModel.h"
#include "litmus/FromExecution.h"
#include "litmus/Parser.h"
#include "models/ScModel.h"
#include "models/X86Model.h"

#include <gtest/gtest.h>

using namespace tmw;

namespace {

Program sbProgram() {
  ParseResult R = parseProgram(R"(name SB
thread 0
  store x 1
  load y
thread 1
  store y 1
  load x
post reg 0 r1 0
post reg 1 r1 0
)");
  EXPECT_TRUE(static_cast<bool>(R)) << R.Error;
  return R.Prog;
}

TEST(CandidatesTest, SbHasFourRfCombinations) {
  // Each load reads its location's single store or the initial value.
  std::vector<Candidate> Cs = enumerateCandidates(sbProgram());
  EXPECT_EQ(Cs.size(), 4u);
  for (const Candidate &C : Cs)
    EXPECT_EQ(C.X.checkWellFormed(), nullptr);
}

TEST(CandidatesTest, OutcomesMatchRfChoices) {
  std::vector<Outcome> Outs;
  for (const Candidate &C : enumerateCandidates(sbProgram()))
    Outs.push_back(C.O);
  std::sort(Outs.begin(), Outs.end());
  // r-values: (0,0), (0,1), (1,0), (1,1).
  EXPECT_EQ(Outs.size(), 4u);
  EXPECT_NE(Outs[0], Outs[3]);
}

TEST(CandidatesTest, ScForbidsSbPostcondition) {
  ScModel Sc;
  EXPECT_FALSE(postconditionReachable(sbProgram(), Sc));
  X86Model X86;
  EXPECT_TRUE(postconditionReachable(sbProgram(), X86));
}

TEST(CandidatesTest, Power8ShowsSbButNeverLb) {
  // LB has never been observed on Power silicon; the POWER8 substitute
  // bakes that in (§5.3) while still exhibiting store buffering.
  ParseResult Lb = parseProgram(R"(name LB
thread 0
  load x
  store y 1
thread 1
  load y
  store x 1
post reg 0 r0 1
post reg 1 r0 1
)");
  ASSERT_TRUE(static_cast<bool>(Lb)) << Lb.Error;
  ImplModel P8 = ImplModel::power8();
  EXPECT_FALSE(postconditionReachable(Lb.Prog, P8));
  EXPECT_TRUE(postconditionReachable(sbProgram(), P8));
}

TEST(CandidatesTest, CoPermutationsEnumerated) {
  ParseResult R = parseProgram(R"(name 2W
thread 0
  store x 1
thread 1
  store x 2
)");
  ASSERT_TRUE(static_cast<bool>(R)) << R.Error;
  std::vector<Candidate> Cs = enumerateCandidates(R.Prog);
  EXPECT_EQ(Cs.size(), 2u); // two coherence orders
}

TEST(CandidatesTest, TransactionsSucceedOrVanish) {
  ParseResult R = parseProgram(R"(name T
loc ok 1
thread 0
  txbegin
  store x 1
  txend
thread 1
  load x
post mem ok 1
)");
  ASSERT_TRUE(static_cast<bool>(R)) << R.Error;
  std::vector<Candidate> Cs = enumerateCandidates(R.Prog);
  // Success: load reads init or the store (2 candidates, ok=1).
  // Failure: store vanishes, load reads init (1 candidate, ok=0).
  EXPECT_EQ(Cs.size(), 3u);
  unsigned Failed = 0;
  LocId Ok = R.Prog.locByName("ok");
  for (const Candidate &C : Cs) {
    if (C.O.MemValues[Ok] == 0) {
      ++Failed;
      EXPECT_TRUE(C.X.transactional().empty());
    }
  }
  EXPECT_EQ(Failed, 1u);
}

TEST(CandidatesTest, FailedTransactionCannotSatisfyOkPostcondition) {
  ParseResult R = parseProgram(R"(name T
loc ok 1
thread 0
  txbegin
  store x 1
  txend
thread 1
  load x
post mem ok 1
post reg 1 r0 1
)");
  ASSERT_TRUE(static_cast<bool>(R)) << R.Error;
  // The post requires the transactional store to be observed AND ok=1:
  // only the successful-transaction candidate qualifies.
  unsigned Matching = 0;
  for (const Candidate &C : enumerateCandidates(R.Prog))
    Matching += C.O.satisfies(R.Prog);
  EXPECT_EQ(Matching, 1u);
}

TEST(CandidatesTest, GeneratedTestRecoversItsExecution) {
  // Convert an execution to a litmus test; among that test's candidates,
  // exactly the intended one satisfies the postcondition (§2.2).
  Execution X = shapes::messagePassing();
  ExecutionToProgram Conv = programFromExecution(X, "mp");
  unsigned Matching = 0;
  for (const Candidate &C : enumerateCandidates(Conv.Prog))
    if (C.O.satisfies(Conv.Prog))
      ++Matching;
  EXPECT_EQ(Matching, 1u);
}

TEST(CandidatesTest, DependenciesReachCandidates) {
  Execution X = shapes::loadBuffering(true);
  ExecutionToProgram Conv = programFromExecution(X, "lb+deps");
  bool SawData = false;
  for (const Candidate &C : enumerateCandidates(Conv.Prog))
    SawData |= !C.X.Data.isEmpty();
  EXPECT_TRUE(SawData);
}

TEST(CandidatesTest, AllowedOutcomesDeduplicated) {
  ScModel Sc;
  std::vector<Outcome> Outs = allowedOutcomes(sbProgram(), Sc);
  // SC allows 3 of the 4 rf combinations (both-stale is forbidden).
  EXPECT_EQ(Outs.size(), 3u);
}

} // namespace
