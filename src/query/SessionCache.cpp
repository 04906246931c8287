//===- SessionCache.cpp - Resident parse/resolve caches ------------------------==//

#include "query/SessionCache.h"

#include "models/ModelRegistry.h"

#include <algorithm>
#include <vector>

using namespace tmw;

std::shared_ptr<const ParseResult> SessionCache::program(
    std::string_view Source, ProgramFacts *Facts) {
  std::string Key(Source);
  {
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = Programs.find(Key);
    if (It != Programs.end()) {
      ++S.ProgramHits;
      // Refresh the recency stamp: overflow evicts the least-recently-
      // touched half, so a hot working set survives an adversarial churn
      // of one-off sources.
      It->second.Gen = ++NextGen;
      if (Facts)
        *Facts = It->second.Facts;
      return It->second.Parse;
    }
    ++S.ProgramMisses;
  }
  // Parse outside the lock: batches parse distinct programs concurrently.
  // Two workers racing on the same source both parse; the results are
  // identical (parsing is deterministic), so whichever insert lands is
  // fine and the loser's copy just serves its own request. Facts ride
  // along: computed once here, handed out with every future hit.
  auto Parsed = std::make_shared<const ParseResult>(parseProgram(Source));
  ProgramFacts ParsedFacts;
  if (*Parsed)
    ParsedFacts = computeFacts(Parsed->Prog);
  if (Facts)
    *Facts = ParsedFacts;
  if (MaxPrograms == 0)
    return Parsed; // a zero bound stores nothing (see SessionCache.h)
  std::lock_guard<std::mutex> Lock(Mu);
  if (Programs.size() >= MaxPrograms) {
    // Evict only the least-recently-touched half (wholesale dropping all
    // ~MaxPrograms entries caused a thundering re-parse of the whole
    // working set on the next batch). Generations are unique, so exactly
    // `Evict` entries — the oldest — go. Verdict-neutral: in-flight
    // requests keep their shared_ptrs, dropped entries just re-parse.
    size_t Evict = Programs.size() - Programs.size() / 2;
    std::vector<uint64_t> Gens;
    Gens.reserve(Programs.size());
    for (const auto &KV : Programs)
      Gens.push_back(KV.second.Gen);
    std::nth_element(Gens.begin(), Gens.begin() + (Evict - 1), Gens.end());
    uint64_t Cut = Gens[Evict - 1];
    for (auto It = Programs.begin(); It != Programs.end();) {
      if (It->second.Gen <= Cut)
        It = Programs.erase(It);
      else
        ++It;
    }
    ++S.ProgramEvictions;
    S.ProgramsEvicted += Evict;
  }
  auto [It, Inserted] = Programs.emplace(
      std::move(Key), ProgramEntry{Parsed, ParsedFacts, ++NextGen});
  S.ProgramsCached = Programs.size();
  return Inserted ? Parsed : It->second.Parse;
}

std::shared_ptr<const MemoryModel> SessionCache::model(
    const std::string &Spec, std::string *Error) {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = Models.find(Spec);
    if (It != Models.end()) {
      ++S.ModelHits;
      return It->second;
    }
    ++S.ModelMisses;
  }
  std::shared_ptr<const MemoryModel> M = ModelRegistry::parse(Spec, Error);
  if (!M)
    return nullptr;
  std::lock_guard<std::mutex> Lock(Mu);
  auto [It, Inserted] = Models.emplace(Spec, M);
  S.ModelsCached = Models.size();
  return Inserted ? M : It->second;
}

std::shared_ptr<const EvalPlan>
SessionCache::plan(const std::string &Key,
                   std::span<const MemoryModel *const> Models, bool *Hit) {
  std::shared_ptr<PlanSlot> Slot;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    auto [It, New] = Plans.try_emplace(Key);
    if (New) {
      It->second = std::make_shared<PlanSlot>();
      ++S.PlanMisses;
      S.PlansCached = Plans.size();
    } else {
      ++S.PlanHits;
    }
    if (Hit)
      *Hit = !New;
    Slot = It->second;
  }
  // Compile outside the lock, once per key: workers racing on the same
  // cold spec set wait for the first one's compile instead of compiling
  // duplicates, so a batch compiles each distinct spec set exactly once.
  std::call_once(Slot->Once, [&] {
    Slot->Plan = std::make_shared<const EvalPlan>(EvalPlan::compile(Models));
  });
  return Slot->Plan;
}

SessionCache::Stats SessionCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return S;
}

void SessionCache::clear() {
  std::lock_guard<std::mutex> Lock(Mu);
  Programs.clear();
  Models.clear();
  Plans.clear();
  S.ProgramsCached = S.ModelsCached = S.PlansCached = 0;
}
