//===- fig3_isolation.cpp - Fig. 3 ----------------------------------------------==//
///
/// Regenerates Fig. 3: the four 3-event SC executions that separate weak
/// from strong isolation, with per-model verdicts (SC, WeakIsol,
/// StrongIsol, TSC) and the litmus test of each shape.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "execution/Builder.h"
#include "litmus/FromExecution.h"
#include "litmus/Printer.h"
#include "models/ScModel.h"

using namespace tmw;

namespace {

Execution shape(int Which) {
  ExecutionBuilder B;
  switch (Which) {
  case 0: { // (a) non-interference
    EventId R1 = B.read(0, 0);
    EventId R2 = B.read(0, 0);
    EventId W = B.write(1, 0, MemOrder::NonAtomic, 1);
    B.rf(W, R2);
    B.txn({R1, R2});
    break;
  }
  case 1: { // (b) RMW-isolation-like
    EventId R = B.read(0, 0);
    EventId W1 = B.write(0, 0, MemOrder::NonAtomic, 2);
    EventId W2 = B.write(1, 0, MemOrder::NonAtomic, 1);
    B.co(W2, W1);
    B.txn({R, W1});
    break;
  }
  case 2: { // (c)
    EventId W1 = B.write(0, 0, MemOrder::NonAtomic, 1);
    EventId R = B.read(0, 0);
    EventId W2 = B.write(1, 0, MemOrder::NonAtomic, 2);
    B.co(W1, W2);
    B.rf(W2, R);
    B.txn({W1, R});
    break;
  }
  default: { // (d) containment
    EventId W1 = B.write(0, 0, MemOrder::NonAtomic, 1);
    EventId W2 = B.write(0, 0, MemOrder::NonAtomic, 2);
    EventId R = B.read(1, 0);
    B.co(W1, W2);
    B.rf(W1, R);
    B.txn({W1, W2});
    break;
  }
  }
  return B.build();
}

} // namespace

int main(int argc, char **argv) {
  bench::noArguments(argc, argv);
  bench::header("Fig. 3: weak vs strong isolation on four SC executions",
                "Fig. 3; §3.3");

  ScModel Sc;
  TscModel Tsc;
  const char *Names[] = {"(a) non-interference", "(b) rmw-isolation",
                         "(c) write observed", "(d) containment"};

  std::printf("%-22s %4s %9s %11s %5s\n", "execution", "SC", "WeakIsol",
              "StrongIsol", "TSC");
  for (int I = 0; I < 4; ++I) {
    Execution X = shape(I);
    std::printf("%-22s %4s %9s %11s %5s\n", Names[I],
                bench::yesNo(Sc.consistent(X)),
                bench::yesNo(holdsWeakIsolation(X)),
                bench::yesNo(holdsStrongIsolation(X)),
                bench::yesNo(Tsc.consistent(X)));
  }

  std::printf("\nPaper: all four are SC executions allowed by weak "
              "isolation but forbidden\nby strong isolation (and hence by "
              "TSC).\n\nLitmus test of shape (d):\n\n%s",
              printGeneric(
                  programFromExecution(shape(3), "fig3d").Prog)
                  .c_str());
  return 0;
}
