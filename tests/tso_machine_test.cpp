//===- tso_machine_test.cpp - Operational x86-TSO + TSX machine ---------------==//

#include "hw/TsoMachine.h"

#include "enumerate/Candidates.h"
#include "litmus/Parser.h"
#include "models/X86Model.h"

#include <gtest/gtest.h>

using namespace tmw;

namespace {

Program parse(const char *Src) {
  ParseResult R = parseProgram(Src);
  EXPECT_TRUE(static_cast<bool>(R)) << R.Error;
  return R.Prog;
}

TEST(TsoMachineTest, ObservesStoreBuffering) {
  Program P = parse(R"(name SB
thread 0
  store x 1
  load y
thread 1
  store y 1
  load x
post reg 0 r1 0
post reg 1 r1 0
)");
  TsoMachine M(P);
  EXPECT_TRUE(M.postconditionObservable());
  // Every (r1, r1) combination is reachable, the weak (0, 0) included.
  EXPECT_EQ(M.reachableOutcomes().size(), 4u);
}

TEST(TsoMachineTest, MfenceForbidsStoreBuffering) {
  Program P = parse(R"(name SB+mfences
thread 0
  store x 1
  fence mfence
  load y
thread 1
  store y 1
  fence mfence
  load x
post reg 0 r2 0
post reg 1 r2 0
)");
  TsoMachine M(P);
  EXPECT_FALSE(M.postconditionObservable());
}

TEST(TsoMachineTest, NeverViolatesCoherence) {
  Program P = parse(R"(name coRR
thread 0
  store x 1
  store x 2
thread 1
  load x
  load x
post reg 1 r0 2
post reg 1 r1 1
)");
  // Reading 2 then 1 would contradict coherence.
  TsoMachine M(P);
  EXPECT_FALSE(M.postconditionObservable());
}

TEST(TsoMachineTest, MessagePassingIsOrdered) {
  // TSO keeps W->W and R->R order: stale read after seeing the flag is
  // impossible.
  Program P = parse(R"(name MP
thread 0
  store x 1
  store y 1
thread 1
  load y
  load x
post reg 1 r0 1
post reg 1 r1 0
)");
  TsoMachine M(P);
  EXPECT_FALSE(M.postconditionObservable());
}

TEST(TsoMachineTest, BufferForwarding) {
  // A thread sees its own buffered store before it drains.
  Program P = parse(R"(name fwd
thread 0
  store x 1
  load x
thread 1
  load x
post reg 0 r1 1
)");
  TsoMachine M(P);
  EXPECT_TRUE(M.postconditionObservable());
}

TEST(TsoMachineTest, TransactionCommitsAtomically) {
  // No interleaving shows y's update without x's.
  Program P = parse(R"(name atomicity
loc ok 1
thread 0
  txbegin
  store x 1
  store y 1
  txend
thread 1
  load y
  load x
post mem ok 1
post reg 1 r0 1
post reg 1 r1 0
)");
  TsoMachine M(P);
  EXPECT_FALSE(M.postconditionObservable());
}

TEST(TsoMachineTest, TransactionalSbForbidden) {
  // The SB shape with transactional stores: the commit's
  // locked-instruction semantics (buffer drained at txend) forbids the
  // stale reads — the operational counterpart of the tfence axiom.
  Program P = parse(R"(name SB+txns
loc ok 1
thread 0
  txbegin
  store x 1
  txend
  load y
thread 1
  txbegin
  store y 1
  txend
  load x
post mem ok 1
post reg 0 r3 0
post reg 1 r3 0
)");
  TsoMachine M(P);
  EXPECT_FALSE(M.postconditionObservable());
}

TEST(TsoMachineTest, ConflictAbortsTransaction) {
  // A transaction that reads x can abort when the other thread writes x;
  // the abort path zeroes ok.
  Program P = parse(R"(name conflict
loc ok 1
thread 0
  txbegin
  load x
  load x
  txend
thread 1
  store x 1
post mem ok 0
)");
  TsoMachine M(P);
  EXPECT_TRUE(M.postconditionObservable());
}

TEST(TsoMachineTest, StrongIsolationAgainstNonTransactionalWrites) {
  // The two transactional reads of x cannot straddle the external write:
  // either both see 0, or both see 1, or the transaction aborted.
  Program P = parse(R"(name strong-isolation
loc ok 1
thread 0
  txbegin
  load x
  load x
  txend
thread 1
  store x 1
post mem ok 1
post reg 0 r1 0
post reg 0 r2 1
)");
  TsoMachine M(P);
  EXPECT_FALSE(M.postconditionObservable());
}

TEST(TsoMachineTest, LockedRmwIsAtomic) {
  // Two locked increments of x: both observing 0 is impossible.
  Program P = parse(R"(name rmw
thread 0
  load x excl rmw:1
  store x 1 excl rmw:0
thread 1
  load x excl rmw:1
  store x 1 excl rmw:0
post reg 0 r0 0
post reg 1 r0 0
)");
  TsoMachine M(P);
  EXPECT_FALSE(M.postconditionObservable());
}

TEST(TsoMachineTest, AgreesWithAxiomaticModelOnClassics) {
  // The operational machine is sound and complete for these shapes with
  // respect to the Fig. 5 axiomatic model: identical outcome sets.
  const char *Tests[] = {
      R"(name SB
thread 0
  store x 1
  load y
thread 1
  store y 1
  load x
)",
      R"(name MP
thread 0
  store x 1
  store y 1
thread 1
  load y
  load x
)",
      R"(name 2+2W
thread 0
  store x 1
  store y 2
thread 1
  store y 1
  store x 2
)",
  };
  X86Model Model;
  for (const char *Src : Tests) {
    Program P = parse(Src);
    TsoMachine M(P);
    std::vector<Outcome> Operational = M.reachableOutcomes();
    std::vector<Outcome> Axiomatic = allowedOutcomes(P, Model);
    EXPECT_EQ(Operational, Axiomatic) << P.Name;
  }
}

} // namespace
