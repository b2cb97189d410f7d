//===--- observe/profiler.h - source-level cost profiling --------------------===//
//
// Part of the Diderot-C++ reproduction (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The collection half of the source-level profiler: a per-worker sharded
/// counter table keyed by (DSL source line, op class). The interpreter
/// increments it while evaluating MidIR (using each instruction's SourceLoc);
/// the native backend compiles counter increments into the generated C++ and
/// ships the flat counter array across the dlopen C ABI (ddr_read of
/// DDR_READ_PROF), alongside a d2x-style static source map
/// (DDR_READ_PROF_MAP) recording which lines the generated code
/// instruments.
///
/// Like recorder.h this header is deliberately STL-only and header-only:
/// generated native translation units include it through
/// runtime/native_prelude.h and must not depend on the compiler's own
/// libraries.
///
/// Threading contract: shards are dense per-worker arrays; each worker
/// increments only its own shard (no atomics needed — the scheduler barriers
/// order worker writes against the coordinator's take()).
///
//===----------------------------------------------------------------------===//

#ifndef DIDEROT_OBSERVE_PROFILER_H
#define DIDEROT_OBSERVE_PROFILER_H

#include <cstdint>
#include <vector>

namespace diderot::observe {

/// The profiled operation classes. The numeric values are part of the
/// DDR_READ_PROF / DDR_READ_PROF_MAP wire format and of
/// ir::profClassOf()'s return contract — append only.
enum class ProfClass : int {
  Probe = 0,      ///< field probes (voxel fetches of the reconstruction)
  KernelEval = 1, ///< kernel piece evaluations (KernelWeight / PolyEval)
  Inside = 2,     ///< `inside` bounds tests
  TensorOp = 3,   ///< tensor algebra (dot, norm, eigen, ...)
};
constexpr int NumProfClasses = 4;

inline const char *profClassName(ProfClass C) {
  switch (C) {
  case ProfClass::Probe:
    return "probe";
  case ProfClass::KernelEval:
    return "kernelEval";
  case ProfClass::Inside:
    return "inside";
  case ProfClass::TensorOp:
    return "tensorOp";
  }
  return "?";
}

/// Per-line profile record: dynamic execution counts plus the number of
/// static instrumentation sites the compiler attributed to the line (the
/// source-map half; 0 when unknown).
struct ProfileLine {
  int Line = 0;
  uint64_t Counts[NumProfClasses] = {};
  uint64_t Sites[NumProfClasses] = {};

  uint64_t total() const {
    uint64_t T = 0;
    for (uint64_t C : Counts)
      T += C;
    return T;
  }
};

/// Everything a profiled run reports back. Lines are sorted ascending and
/// include lines with static sites but zero dynamic counts (cold lines).
struct ProfileData {
  bool Enabled = false;
  std::vector<ProfileLine> Lines;

  ProfileLine *find(int Line) {
    for (ProfileLine &L : Lines)
      if (L.Line == Line)
        return &L;
    return nullptr;
  }
  const ProfileLine *find(int Line) const {
    return const_cast<ProfileData *>(this)->find(Line);
  }
  /// Find-or-insert keeping Lines sorted by line number.
  ProfileLine &at(int Line) {
    size_t I = 0;
    while (I < Lines.size() && Lines[I].Line < Line)
      ++I;
    if (I == Lines.size() || Lines[I].Line != Line)
      Lines.insert(Lines.begin() + static_cast<long>(I), ProfileLine{Line, {}, {}});
    return Lines[I];
  }
};

/// Collects per-worker (line, class) counters during one run. Reusable:
/// start() resets. The shard layout is dense — index = line * NumProfClasses
/// + class — so the increment compiled into hot loops is one add.
class Profiler {
public:
  /// Reset and arm for \p NumWorkers workers (>= 1) counting source lines
  /// 1..MaxLine (line 0 = "no location" is allocated but never reported).
  void start(int NumWorkers, int MaxLine) {
    MaxL = MaxLine < 0 ? 0 : MaxLine;
    Shards.assign(static_cast<size_t>(NumWorkers < 1 ? 1 : NumWorkers),
                  std::vector<uint64_t>(
                      static_cast<size_t>(MaxL + 1) * NumProfClasses, 0));
  }

  bool enabled() const { return !Shards.empty(); }
  int maxLine() const { return MaxL; }

  /// Worker \p W's dense counter array; the worker owns it exclusively.
  uint64_t *shard(int W) { return Shards[static_cast<size_t>(W)].data(); }

  static size_t index(int Line, ProfClass C) {
    return static_cast<size_t>(Line) * NumProfClasses + static_cast<int>(C);
  }

  /// Merge all shards into a sparse ProfileData and disarm.
  ProfileData take() {
    ProfileData R;
    R.Enabled = enabled();
    for (int Line = 1; Line <= MaxL; ++Line) {
      uint64_t Sum[NumProfClasses] = {};
      bool Any = false;
      for (const std::vector<uint64_t> &S : Shards)
        for (int C = 0; C < NumProfClasses; ++C) {
          Sum[C] += S[static_cast<size_t>(Line) * NumProfClasses +
                      static_cast<size_t>(C)];
          Any = Any || Sum[C] != 0;
        }
      if (!Any)
        continue;
      ProfileLine L;
      L.Line = Line;
      for (int C = 0; C < NumProfClasses; ++C)
        L.Counts[C] = Sum[C];
      R.Lines.push_back(L);
    }
    Shards.clear();
    return R;
  }

private:
  int MaxL = 0;
  std::vector<std::vector<uint64_t>> Shards;
};

//===----------------------------------------------------------------------===//
// Flat wire format
//===----------------------------------------------------------------------===//
//
// Generated shared objects expose profile counters (DDR_READ_PROF) and the
// static source map (DDR_READ_PROF_MAP) as the same flat uint64_t layout:
//   [0] number of records, then records of 3: line, class, value.
// DDR_READ_PROF values are dynamic counts; DDR_READ_PROF_MAP values are
// static instrumentation-site counts.

constexpr size_t ProfHeaderWords = 1;
constexpr size_t ProfRecordWords = 3;

inline std::vector<uint64_t> flattenProfile(const ProfileData &P, bool Sites) {
  std::vector<uint64_t> Out;
  size_t N = 0;
  Out.push_back(0);
  for (const ProfileLine &L : P.Lines)
    for (int C = 0; C < NumProfClasses; ++C) {
      uint64_t V = Sites ? L.Sites[C] : L.Counts[C];
      if (!V)
        continue;
      Out.push_back(static_cast<uint64_t>(L.Line));
      Out.push_back(static_cast<uint64_t>(C));
      Out.push_back(V);
      ++N;
    }
  Out[0] = N;
  return Out;
}

/// Merge flattened records into \p P (existing lines are updated, new ones
/// inserted sorted). Returns false if \p N is inconsistent with the header.
inline bool unflattenProfile(const uint64_t *Data, size_t N, ProfileData &P,
                             bool Sites) {
  if (N < ProfHeaderWords)
    return false;
  size_t Records = static_cast<size_t>(Data[0]);
  if (N < ProfHeaderWords + Records * ProfRecordWords)
    return false;
  P.Enabled = true;
  const uint64_t *R = Data + ProfHeaderWords;
  for (size_t I = 0; I < Records; ++I, R += ProfRecordWords) {
    int Line = static_cast<int>(R[0]);
    int Cls = static_cast<int>(R[1]);
    if (Line <= 0 || Cls < 0 || Cls >= NumProfClasses)
      return false;
    ProfileLine &L = P.at(Line);
    (Sites ? L.Sites : L.Counts)[Cls] += R[2];
  }
  return true;
}

} // namespace diderot::observe

#endif // DIDEROT_OBSERVE_PROFILER_H
