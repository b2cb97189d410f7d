//===--- serve/compile_cache.h - the daemon's program registry ---------------===//
//
// Part of the Diderot-C++ reproduction (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "compile once" half of compile-once-serve-many. Two cache layers
/// stack under a daemon:
///
///  1. the ProgramRegistry here, keyed on the *Diderot source* (via the
///     same content hash as codegen/cache.h), holding compiled front-end
///     artifacts (CompiledProgram) as shared_ptr<const ...> so any number
///     of job workers can instantiate concurrently;
///  2. the native loader's on-disk .so cache (codegen/native_load.cpp),
///     keyed on the *generated C++*, which survives daemon restarts.
///
/// A registry miss after a restart still avoids the host compiler: the
/// front end re-runs (milliseconds) and the loader then finds the .so on
/// disk (a DiskHit in codegen::nativeCacheStats()).
///
/// Also here: helpers for the cache directory itself — the default
/// location (DIDEROT_CACHE_DIR or <temp>/diderot-cpp) and a reader for the
/// loader's append-only index.tsv inventory.
///
//===----------------------------------------------------------------------===//

#ifndef DIDEROT_SERVE_COMPILE_CACHE_H
#define DIDEROT_SERVE_COMPILE_CACHE_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "driver/driver.h"
#include "support/result.h"

namespace diderot::serve {

/// The cache directory a daemon uses when none is configured: the
/// DIDEROT_CACHE_DIR environment variable, else <system-temp>/diderot-cpp
/// (the native loader's historical scratch directory, so pre-daemon builds
/// stay warm).
std::string defaultCacheDir();

/// One line of the loader's index.tsv (see codegen/cache.h for the layout).
struct CacheEntry {
  std::string Key;        ///< 32-hex content key
  std::string Program;    ///< program name at compile time
  int64_t UnixMs = 0;     ///< when the host compile happened
  std::string CompilerId; ///< codegen::hostCompilerId() that built it
  int64_t SoBytes = -1;   ///< artifact size at install
  std::string SoHash;     ///< 32-hex fnv1a128 of the .so; empty = unknown
  int64_t LastUsedMs = 0; ///< recency the LRU eviction policy uses
};

/// Parse \p Dir's index.tsv. Missing file = empty vector (a cache with no
/// compiles yet); malformed lines are skipped — the index is an inventory,
/// the .so files are the cache.
std::vector<CacheEntry> readCacheIndex(const std::string &Dir);

/// In-process registry of compiled programs, keyed by source content.
/// Thread-safe; lookups are a mutex-guarded map probe, compiles happen
/// outside that lock under a per-key build mutex, so concurrent first
/// lookups of one program compile it once and count one miss.
class ProgramRegistry {
public:
  explicit ProgramRegistry(CompileOptions Opts) : Opts(std::move(Opts)) {}

  struct Lookup {
    std::shared_ptr<const CompiledProgram> Prog;
    std::string Key;       ///< registry key (content hash of the source)
    bool Cached = false;   ///< true = registry hit, no front-end work done
    uint64_t CompileNs = 0; ///< front-end time on a miss (0 on a hit)
  };

  /// Return the compiled form of \p Source, compiling on first sight.
  /// \p Name feeds diagnostics and the cache index.
  Result<Lookup> getOrCompile(const std::string &Source,
                              const std::string &Name);

  /// The options every registry program is compiled under.
  const CompileOptions &options() const { return Opts; }

  uint64_t hits() const { return Hits.load(std::memory_order_relaxed); }
  uint64_t misses() const { return Misses.load(std::memory_order_relaxed); }
  size_t size() const;

private:
  CompileOptions Opts;
  mutable std::mutex Mu;
  std::map<std::string, std::shared_ptr<const CompiledProgram>> Programs;
  /// One build mutex per key being compiled right now.
  std::map<std::string, std::shared_ptr<std::mutex>> Building;
  std::atomic<uint64_t> Hits{0}, Misses{0};
};

} // namespace diderot::serve

#endif // DIDEROT_SERVE_COMPILE_CACHE_H
