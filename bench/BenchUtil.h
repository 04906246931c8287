//===- BenchUtil.h - Shared helpers for the experiment harnesses -*- C++ -*-==//
///
/// \file
/// Table formatting, budget knobs and strict numeric parsers shared by the
/// bench binaries and the CLI tools. Each bench regenerates one table or
/// figure of the paper; `TMW_BENCH_BUDGET_SECONDS` and
/// `TMW_BENCH_MAX_EVENTS` scale the searches (defaults keep every binary
/// under a couple of minutes, like the paper's preliminary-results mode in
/// §5.3). In the benches with a parallel search, `--jobs N` (or
/// `TMW_BENCH_JOBS`) shards the enumeration across N threads; the others
/// take no arguments at all. Every knob is parsed strictly: a malformed
/// value or an argument a bench does not take is a one-line diagnostic and
/// exit 2, never a silent default. Performance is measured
/// by perfbench/, not here.
///
//===----------------------------------------------------------------------===//

#ifndef TMW_BENCHUTIL_H
#define TMW_BENCHUTIL_H

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace tmw::bench {

/// Strictly parse one positive count — a jobs value or an event bound
/// (digits only, positive, in-range). A malformed, zero or overflowing
/// value prints a one-line diagnostic naming \p What and exits 2,
/// matching the tools' file:line-style strict diagnostics.
inline unsigned parseJobsStrict(const char *Value, const char *What) {
  const char *End = Value + std::strlen(Value);
  unsigned Parsed = 0;
  auto [P, Ec] = std::from_chars(Value, End, Parsed);
  if (Ec != std::errc() || P != End || Parsed == 0) {
    std::fprintf(stderr, "error: %s %s: expected a positive integer\n",
                 What, Value);
    std::exit(2);
  }
  return Parsed;
}

/// Strictly parse one non-negative count value (digits only, in-range;
/// 0 is a legitimate explicit value — "unlimited" for the cap-style
/// flags). The one parser behind every tool count flag (`--cap`,
/// `--bases`, `--max-clients`, `--max-findings`, ...): a malformed or
/// out-of-range value is a one-line diagnostic naming \p What + exit 2,
/// never a silently-parsed 0.
inline uint64_t parseCountStrict(const char *Value, const char *What) {
  const char *End = Value + std::strlen(Value);
  uint64_t Parsed = 0;
  auto [P, Ec] = std::from_chars(Value, End, Parsed);
  if (Ec != std::errc() || P != End || Value == End) {
    std::fprintf(stderr, "error: %s %s: expected a non-negative integer\n",
                 What, Value);
    std::exit(2);
  }
  return Parsed;
}

/// The synthesis time budget: `TMW_BENCH_BUDGET_SECONDS` (a positive,
/// finite number of seconds), else \p Default. `abc` or `0` is a
/// diagnostic + exit 2, not a zero budget.
inline double budgetSeconds(double Default) {
  const char *S = std::getenv("TMW_BENCH_BUDGET_SECONDS");
  if (!S)
    return Default;
  const char *End = S + std::strlen(S);
  double Parsed = 0;
  auto [P, Ec] = std::from_chars(S, End, Parsed);
  if (Ec != std::errc() || P != End || !std::isfinite(Parsed) ||
      Parsed <= 0) {
    std::fprintf(stderr,
                 "error: TMW_BENCH_BUDGET_SECONDS %s: expected a positive "
                 "number of seconds\n",
                 S);
    std::exit(2);
  }
  return Parsed;
}

/// The event bound: `TMW_BENCH_MAX_EVENTS` (a positive integer), else
/// \p Default. `foo` or `0` is a diagnostic + exit 2, not an empty search.
inline unsigned maxEvents(unsigned Default) {
  if (const char *S = std::getenv("TMW_BENCH_MAX_EVENTS"))
    return parseJobsStrict(S, "TMW_BENCH_MAX_EVENTS");
  return Default;
}

/// Parse the `--jobs N` / `--jobs=N` command-line knob, falling back to
/// `TMW_BENCH_JOBS`, then to \p Default (1: deterministic single-threaded
/// runs unless parallelism is asked for). Malformed values and a missing
/// operand are a diagnostic + exit 2, never a silent default.
inline unsigned jobs(int Argc, char **Argv, unsigned Default = 1) {
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--jobs") == 0) {
      if (I + 1 == Argc) {
        std::fprintf(stderr, "error: --jobs: missing operand\n");
        std::exit(2);
      }
      return parseJobsStrict(Argv[I + 1], "--jobs");
    }
    if (std::strncmp(Argv[I], "--jobs=", 7) == 0)
      return parseJobsStrict(Argv[I] + 7, "--jobs");
  }
  if (const char *S = std::getenv("TMW_BENCH_JOBS"))
    return parseJobsStrict(S, "TMW_BENCH_JOBS");
  return Default;
}

/// For the benches that take no command-line arguments: any argument is a
/// one-line usage diagnostic and exit 2, so a flag like `--jobs 2` is never
/// silently ignored. The environment knobs still apply.
inline void noArguments(int Argc, char **Argv) {
  if (Argc > 1) {
    std::fprintf(stderr,
                 "error: unexpected argument '%s'; usage: %s "
                 "(no arguments)\n",
                 Argv[1], Argv[0]);
    std::exit(2);
  }
}

inline void header(const char *Title, const char *PaperRef) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", Title);
  std::printf("reproduces: %s\n", PaperRef);
  std::printf("================================================================\n");
}

inline const char *yesNo(bool B) { return B ? "yes" : "no"; }

} // namespace tmw::bench

#endif // TMW_BENCHUTIL_H
