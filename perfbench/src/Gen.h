//===- Gen.h - Seeded litmus-program generator with lint admission -*- C++ -*-==//
///
/// \file
/// A diy-style generator: each program is drawn from a per-architecture
/// vocabulary template (loads, stores, the architecture's fences,
/// dependencies, RMW pairs, transaction regions) and a `post` clause over
/// its loads, then rendered as litmus DSL text. Admission parses the
/// text, rejects it on any `lintProgram` error, and rejects it when its
/// candidate count is over the bound — so no single request can become
/// the long pole of a batch. The same seed always gives byte-identical
/// sources.
///
//===----------------------------------------------------------------------===//

#ifndef TMWBENCH_GEN_H
#define TMWBENCH_GEN_H

#include <cstdint>
#include <string>
#include <vector>

namespace tmwbench {

/// Events per program (loads + stores + fences), inclusive bounds: the
/// range every corpus candidate and every synthesis test falls in.
inline constexpr unsigned kMinEvents = 5, kMaxEvents = 8;
/// Admission bound on the candidate count of one program, so no single
/// request becomes the long pole of a batch.
inline constexpr uint64_t kMaxCandidates = 160;

/// One admitted program.
struct GenProgram {
  std::string Name;
  std::string Source;
  uint64_t Candidates = 0;
  unsigned Events = 0;
};

struct GenStats {
  uint64_t Generated = 0, Admitted = 0;
  uint64_t LintRejected = 0, BoundRejected = 0;
  double admittedFrac() const {
    return Generated ? double(Admitted) / double(Generated) : 0;
  }
};

/// The DSL source of draw \p Index of stream \p Seed (not yet admitted).
std::string generateSource(uint64_t Seed, uint64_t Index);

/// The first \p Count admitted programs of stream \p Seed: each draw is
/// parsed, linted, and its candidates counted; rejections are counted in
/// \p Stats.
std::vector<GenProgram> generatePool(uint64_t Seed, size_t Count,
                                     GenStats *Stats = nullptr);

} // namespace tmwbench

#endif // TMWBENCH_GEN_H
