//===- Trace.cpp - Outside-in span recording -------------------------------===//

#include "Trace.h"

#include <cstdio>

namespace tmwbench {

std::map<std::string, double> selfTimes(const std::vector<Span> &Spans) {
  std::vector<double> ChildTime(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildTime[static_cast<size_t>(S.Parent)] += S.duration();
  std::map<std::string, double> Out;
  for (size_t I = 0; I < Spans.size(); ++I)
    Out[std::string(Spans[I].Name)] += Spans[I].duration() - ChildTime[I];
  return Out;
}

double rootTime(const std::vector<Span> &Spans) {
  double Sum = 0;
  for (const Span &S : Spans)
    if (S.Parent < 0)
      Sum += S.duration();
  return Sum;
}

bool writeChromeTrace(const std::string &Path,
                      const std::vector<const Tracer *> &Tracers) {
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fputs("{\"traceEvents\": [\n", F);
  bool First = true;
  for (const Tracer *T : Tracers)
    for (const Span &S : T->spans()) {
      std::fprintf(F,
                   "%s{\"name\": \"%.*s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"request\": %llu, \"parent\": %lld}}",
                   First ? "" : ",\n", static_cast<int>(S.Name.size()),
                   S.Name.data(), T->lane(), S.Start * 1e6,
                   S.duration() * 1e6,
                   static_cast<unsigned long long>(S.Request),
                   static_cast<long long>(S.Parent));
      First = false;
    }
  std::fputs("\n]}\n", F);
  return std::fclose(F) == 0;
}

} // namespace tmwbench
