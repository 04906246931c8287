//===- Trace.h - Outside-in span recording ----------------------*- C++ -*-==//
///
/// \file
/// The benchmark traces the library from outside: it calls each stage of
/// a request itself and brackets the call with a span. A span records
/// its name, start, end, parent, and request id; spans stay in memory
/// (one recorder per thread, no locks) and are written out at exit as
/// Chrome trace-event JSON. Self time — a span's duration minus its
/// children's — is what the per-layer metrics report, so nested stages
/// are never counted twice.
///
//===----------------------------------------------------------------------===//

#ifndef TMWBENCH_TRACE_H
#define TMWBENCH_TRACE_H

#include "Common.h"

#include <map>
#include <string>
#include <vector>

namespace tmwbench {

struct Span {
  std::string_view Name; ///< a string literal
  double Start = 0, End = 0; ///< seconds since the recorder's epoch
  int64_t Parent = -1;       ///< index of the enclosing span, -1 at the root
  uint64_t Request = 0;
  double duration() const { return End - Start; }
};

/// Spans of one thread. Begin/end nest strictly (a stack).
class Tracer {
public:
  explicit Tracer(Clock::time_point Epoch = Clock::now(), unsigned Lane = 0)
      : Epoch(Epoch), Lane(Lane) {}

  size_t begin(std::string_view Name, uint64_t Request = 0) {
    Span S;
    S.Name = Name;
    S.Request = Request;
    S.Parent = Open.empty() ? -1 : static_cast<int64_t>(Open.back());
    S.Start = now();
    Spans.push_back(S);
    Open.push_back(Spans.size() - 1);
    return Spans.size() - 1;
  }
  void end() {
    Spans[Open.back()].End = now();
    Open.pop_back();
  }

  /// RAII span.
  class Scope {
  public:
    Scope(Tracer &T, std::string_view Name, uint64_t Request = 0) : T(T) {
      T.begin(Name, Request);
    }
    ~Scope() { T.end(); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &T;
  };

  const std::vector<Span> &spans() const { return Spans; }
  unsigned lane() const { return Lane; }

private:
  double now() const {
    return std::chrono::duration<double>(Clock::now() - Epoch).count();
  }
  Clock::time_point Epoch;
  unsigned Lane;
  std::vector<Span> Spans;
  std::vector<size_t> Open;
};

/// Summed self time per span name. A span's self time is its duration
/// minus the durations of its direct children.
std::map<std::string, double> selfTimes(const std::vector<Span> &Spans);

/// Summed duration of the root spans (no parent).
double rootTime(const std::vector<Span> &Spans);

/// Write every recorder's spans as Chrome trace-event JSON (one lane per
/// recorder). Returns false when the file cannot be written.
bool writeChromeTrace(const std::string &Path,
                      const std::vector<const Tracer *> &Tracers);

} // namespace tmwbench

#endif // TMWBENCH_TRACE_H
