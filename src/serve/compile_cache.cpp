//===--- serve/compile_cache.cpp - the daemon's program registry -------------===//
//
// Part of the Diderot-C++ reproduction (PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "serve/compile_cache.h"

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "codegen/cache.h"
#include "support/strings.h"

namespace diderot::serve {

std::string defaultCacheDir() {
  if (const char *Env = std::getenv("DIDEROT_CACHE_DIR"))
    if (*Env)
      return Env;
  return (std::filesystem::temp_directory_path() / "diderot-cpp").string();
}

std::vector<CacheEntry> readCacheIndex(const std::string &Dir) {
  // One parser for both layers: the loader's reader.
  std::vector<CacheEntry> Entries;
  for (codegen::CacheIndexEntry &E : codegen::readCacheIndexEntries(Dir)) {
    CacheEntry S;
    S.Key = std::move(E.Key);
    S.Program = std::move(E.Program);
    S.UnixMs = E.UnixMs;
    S.CompilerId = std::move(E.CompilerId);
    S.SoBytes = E.SoBytes;
    S.SoHash = std::move(E.SoHash);
    S.LastUsedMs = E.LastUsedMs;
    Entries.push_back(std::move(S));
  }
  return Entries;
}

size_t ProgramRegistry::size() const {
  std::lock_guard<std::mutex> G(Mu);
  return Programs.size();
}

Result<ProgramRegistry::Lookup>
ProgramRegistry::getOrCompile(const std::string &Source,
                              const std::string &Name) {
  Lookup L;
  L.Key = codegen::programCacheKey(Source, Opts).hex();
  auto Find = [&] {
    auto It = Programs.find(L.Key);
    if (It == Programs.end())
      return false;
    Hits.fetch_add(1, std::memory_order_relaxed);
    L.Prog = It->second;
    L.Cached = true;
    return true;
  };
  std::shared_ptr<std::mutex> Build;
  {
    std::lock_guard<std::mutex> G(Mu);
    if (Find())
      return L;
    std::shared_ptr<std::mutex> &Slot = Building[L.Key];
    if (!Slot)
      Slot = std::make_shared<std::mutex>();
    Build = Slot;
  }
  // Singleflight: concurrent first lookups of one program compile it once;
  // the others wait here and then find it. Different programs compile in
  // parallel.
  std::lock_guard<std::mutex> BG(*Build);
  {
    std::lock_guard<std::mutex> G(Mu);
    if (Find())
      return L;
  }
  Misses.fetch_add(1, std::memory_order_relaxed);
  auto T0 = std::chrono::steady_clock::now();
  Result<CompiledProgram> C = compileString(Source, Opts, Name);
  if (!C.isOk()) {
    // Failures are not cached: each waiter tries, and counts, its own
    // compile. Dropping the slot keeps programs that never compile from
    // piling up build mutexes.
    std::lock_guard<std::mutex> G(Mu);
    Building.erase(L.Key);
    return Result<Lookup>::error(C.message());
  }
  L.CompileNs = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - T0)
          .count());
  auto Fresh = std::make_shared<const CompiledProgram>(C.take());
  std::lock_guard<std::mutex> G(Mu);
  auto [It, Inserted] = Programs.emplace(L.Key, std::move(Fresh));
  (void)Inserted; // a compile racing a failed one may have won; serve it
  L.Prog = It->second;
  Building.erase(L.Key);
  return L;
}

} // namespace diderot::serve
