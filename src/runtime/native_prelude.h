//===--- runtime/native_prelude.h - support for generated native code -------===//
//
// Part of the Diderot-C++ reproduction (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Everything a generated Diderot translation unit needs besides the strand
/// code itself. Deliberately self-contained (STL only): the shared object a
/// program compiles into exposes a plain C ABI ("Diderot's runtime has been
/// designed to allow Diderot programs to be embedded as libraries in any
/// host language that supports calling C code" — Section 7), so it must not
/// depend on the compiler's own libraries.
///
/// Contents:
///  * ImageData<Real>: the in-memory image proxy (samples + orientation)
///  * a minimal NRRD reader (for load("file.nrrd") in generated globals)
///  * ProgramBase<Derived, Real>: CRTP base implementing strand storage,
///    input/output plumbing, and the C ABI entry points' behavior, reusing
///    the bulk-synchronous schedulers from runtime/scheduler.h
///  * through runtime/ddr_abi.h, the C ABI layout (ddr_run_args,
///    ddr_read_kind) the generated ddr_* functions and the loader share
///
//===----------------------------------------------------------------------===//

#ifndef DIDEROT_RUNTIME_NATIVE_PRELUDE_H
#define DIDEROT_RUNTIME_NATIVE_PRELUDE_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "observe/digest.h"
#include "observe/profiler.h"
#include "runtime/ddr_abi.h"
#include "runtime/scheduler.h"
#include "tensor/eigen_raw.h"

namespace diderot::ndr {

//===----------------------------------------------------------------------===//
// Images
//===----------------------------------------------------------------------===//

/// The generated code's view of an image: samples (component-fastest, x
/// next) plus the precomputed world->index and gradient transforms.
template <typename Real> struct ImageData {
  int Dim = 0;
  int64_t Sizes[3] = {1, 1, 1};
  int64_t NComp = 1;
  int64_t Stride[3] = {1, 1, 1}; ///< per-axis stride in components
  std::vector<Real> Data;
  Real W2I[9] = {};    ///< row-major dim x dim world-to-index matrix
  Real GradXf[9] = {}; ///< row-major dim x dim M^{-T}
  Real Origin[3] = {}; ///< world origin

  void computeStrides() {
    Stride[0] = NComp;
    Stride[1] = NComp * Sizes[0];
    Stride[2] = NComp * Sizes[0] * Sizes[1];
  }
};

/// Clamp an index into [0, Hi].
inline int64_t clampIndex(int64_t V, int64_t Hi) {
  return V < 0 ? 0 : (V > Hi ? Hi : V);
}

//===----------------------------------------------------------------------===//
// Minimal NRRD reading (raw/ascii, little-endian) for load("...") globals.
//===----------------------------------------------------------------------===//

namespace detail {

inline std::string trimWs(const std::string &S) {
  size_t B = S.find_first_not_of(" \t\r\n");
  size_t E = S.find_last_not_of(" \t\r\n");
  if (B == std::string::npos)
    return "";
  return S.substr(B, E - B + 1);
}

inline bool parseVec(const std::string &Tok, std::vector<double> &Out) {
  Out.clear();
  std::string S = trimWs(Tok);
  if (S == "none")
    return true;
  if (S.size() < 2 || S.front() != '(' || S.back() != ')')
    return false;
  std::istringstream In(S.substr(1, S.size() - 2));
  std::string Part;
  while (std::getline(In, Part, ','))
    Out.push_back(std::strtod(Part.c_str(), nullptr));
  return true;
}

/// Invert a small row-major matrix (d <= 3).
inline bool invertSmall(int D, const double *M, double *Inv) {
  if (D == 1) {
    if (M[0] == 0)
      return false;
    Inv[0] = 1.0 / M[0];
    return true;
  }
  if (D == 2) {
    double Det = M[0] * M[3] - M[1] * M[2];
    if (Det == 0)
      return false;
    Inv[0] = M[3] / Det;
    Inv[1] = -M[1] / Det;
    Inv[2] = -M[2] / Det;
    Inv[3] = M[0] / Det;
    return true;
  }
  double Det = M[0] * (M[4] * M[8] - M[5] * M[7]) -
               M[1] * (M[3] * M[8] - M[5] * M[6]) +
               M[2] * (M[3] * M[7] - M[4] * M[6]);
  if (Det == 0)
    return false;
  auto Cof = [&](int I, int J) {
    int I0 = (I + 1) % 3, I1 = (I + 2) % 3;
    int J0 = (J + 1) % 3, J1 = (J + 2) % 3;
    return M[I0 * 3 + J0] * M[I1 * 3 + J1] - M[I0 * 3 + J1] * M[I1 * 3 + J0];
  };
  for (int I = 0; I < 3; ++I)
    for (int J = 0; J < 3; ++J)
      Inv[I * 3 + J] = Cof(J, I) / Det;
  return true;
}

} // namespace detail

/// Load a NRRD file into \p Out, checking dimension/components against the
/// program's image type. Returns false with \p Err set on failure.
template <typename Real>
bool loadNrrdFile(const std::string &Path, int Dim, int64_t NComp,
                  ImageData<Real> &Out, std::string &Err) {
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    Err = "cannot open NRRD file '" + Path + "'";
    return false;
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();
  std::string C = Buf.str();

  size_t Pos = C.find('\n');
  if (Pos == std::string::npos || C.compare(0, 4, "NRRD") != 0) {
    Err = "not a NRRD file: " + Path;
    return false;
  }
  std::string Type = "float", Encoding = "raw";
  std::vector<int64_t> Sizes;
  std::vector<std::vector<double>> Dirs;
  std::vector<double> Origin;
  size_t DataStart = std::string::npos;
  size_t LineStart = Pos + 1;
  while (LineStart < C.size()) {
    size_t LineEnd = C.find('\n', LineStart);
    if (LineEnd == std::string::npos)
      LineEnd = C.size();
    std::string Line = C.substr(LineStart, LineEnd - LineStart);
    if (!Line.empty() && Line.back() == '\r')
      Line.pop_back();
    LineStart = LineEnd + 1;
    if (Line.empty()) {
      DataStart = LineStart;
      break;
    }
    if (Line[0] == '#')
      continue;
    size_t Colon = Line.find(": ");
    if (Colon == std::string::npos)
      continue;
    std::string Key = Line.substr(0, Colon);
    std::string Val = detail::trimWs(Line.substr(Colon + 2));
    if (Key == "type")
      Type = Val;
    else if (Key == "sizes") {
      std::istringstream VS(Val);
      int64_t S;
      while (VS >> S)
        Sizes.push_back(S);
    } else if (Key == "encoding")
      Encoding = Val;
    else if (Key == "space directions") {
      std::istringstream VS(Val);
      std::string Tok;
      while (VS >> Tok) {
        std::vector<double> D;
        if (detail::parseVec(Tok, D) && !D.empty())
          Dirs.push_back(D);
      }
    } else if (Key == "space origin")
      detail::parseVec(Val, Origin);
  }
  if (DataStart == std::string::npos || Sizes.empty()) {
    Err = "malformed NRRD header: " + Path;
    return false;
  }
  int WantAxes = Dim + (NComp > 1 ? 1 : 0);
  if (static_cast<int>(Sizes.size()) != WantAxes) {
    Err = "NRRD axis count mismatch in " + Path;
    return false;
  }
  if (NComp > 1 && Sizes[0] != NComp) {
    Err = "NRRD component count mismatch in " + Path;
    return false;
  }
  Out.Dim = Dim;
  Out.NComp = NComp;
  int Base = NComp > 1 ? 1 : 0;
  int64_t Total = 1;
  for (int A = 0; A < Dim; ++A) {
    Out.Sizes[A] = Sizes[static_cast<size_t>(A + Base)];
    Total *= Out.Sizes[A];
  }
  Total *= NComp;
  Out.Data.resize(static_cast<size_t>(Total));

  size_t ElemSize = Type == "double"                                   ? 8
                    : (Type == "float" || Type == "int" ||
                       Type == "unsigned int")                          ? 4
                    : (Type == "short" || Type == "unsigned short")     ? 2
                                                                        : 1;
  auto ReadSample = [&](size_t I) -> double {
    const char *P = C.data() + DataStart + I * ElemSize;
    if (Type == "float") {
      float V;
      std::memcpy(&V, P, 4);
      return V;
    }
    if (Type == "double") {
      double V;
      std::memcpy(&V, P, 8);
      return V;
    }
    if (Type == "short") {
      int16_t V;
      std::memcpy(&V, P, 2);
      return V;
    }
    if (Type == "unsigned short") {
      uint16_t V;
      std::memcpy(&V, P, 2);
      return V;
    }
    if (Type == "int") {
      int32_t V;
      std::memcpy(&V, P, 4);
      return V;
    }
    if (Type == "unsigned int") {
      uint32_t V;
      std::memcpy(&V, P, 4);
      return V;
    }
    return static_cast<unsigned char>(*P);
  };
  if (Encoding == "raw") {
    if (C.size() - DataStart < static_cast<size_t>(Total) * ElemSize) {
      Err = "truncated NRRD data in " + Path;
      return false;
    }
    for (int64_t I = 0; I < Total; ++I)
      Out.Data[static_cast<size_t>(I)] =
          static_cast<Real>(ReadSample(static_cast<size_t>(I)));
  } else if (Encoding == "ascii" || Encoding == "text") {
    std::istringstream DS(C.substr(DataStart));
    double V;
    for (int64_t I = 0; I < Total; ++I) {
      if (!(DS >> V)) {
        Err = "truncated NRRD ascii data in " + Path;
        return false;
      }
      Out.Data[static_cast<size_t>(I)] = static_cast<Real>(V);
    }
  } else {
    Err = "unsupported NRRD encoding '" + Encoding + "' in " + Path;
    return false;
  }
  Out.computeStrides();

  // Orientation: index -> world direction matrix, inverted.
  double DirM[9] = {1, 0, 0, 0, 1, 0, 0, 0, 1};
  double Org[3] = {0, 0, 0};
  if (static_cast<int>(Dirs.size()) == Dim) {
    for (int Col = 0; Col < Dim; ++Col)
      for (int Row = 0; Row < Dim && Row < static_cast<int>(Dirs[Col].size());
           ++Row)
        DirM[Row * Dim + Col] = Dirs[static_cast<size_t>(Col)][static_cast<size_t>(Row)];
    for (int A = 0; A < Dim && A < static_cast<int>(Origin.size()); ++A)
      Org[A] = Origin[static_cast<size_t>(A)];
  }
  double Inv[9];
  if (!detail::invertSmall(Dim, DirM, Inv)) {
    Err = "singular orientation in " + Path;
    return false;
  }
  for (int R = 0; R < Dim; ++R)
    for (int Cc = 0; Cc < Dim; ++Cc) {
      Out.W2I[R * Dim + Cc] = static_cast<Real>(Inv[R * Dim + Cc]);
      Out.GradXf[R * Dim + Cc] = static_cast<Real>(Inv[Cc * Dim + R]);
    }
  for (int A = 0; A < Dim; ++A)
    Out.Origin[A] = static_cast<Real>(Org[A]);
  return true;
}

//===----------------------------------------------------------------------===//
// Program base
//===----------------------------------------------------------------------===//

using rt::StrandStatus;

enum class ExitKind : uint8_t { Continue, Stabilize, Die };

/// Metadata about a global, generated as a static table.
struct GlobalMeta {
  const char *Name;
  int Kind;  ///< 0 real, 1 int, 2 bool, 3 string, 4 tensor, 5 image
  int Comps; ///< tensor components (1 for real)
  int Dim;   ///< image dimension
  bool IsInput;
  bool HasDefault;
  const char *TypeName;
};

/// Metadata about an output state variable.
struct OutputMeta {
  const char *Name;
  int Comps;
};

/// CRTP base (StrandT passed separately because Derived is incomplete at
/// base instantiation): Derived supplies
///   struct Globals;  struct Strand (== StrandT);
///   static const GlobalMeta *globalMeta(int &count);
///   static const OutputMeta *outputMeta(int &count);
///   static constexpr int NumIters; static constexpr bool IsGrid;
///   bool applyDefault(int gIdx);                     // false = no default
///   bool setScalars(int gIdx, const double *v, int n);
///   bool setString(int gIdx, const char *v);
///   bool setImage(int gIdx, ...);                    // fills ImageData
///   bool globalInit();                               // may set Error
///   int64_t iterLo(int k); int64_t iterHi(int k);
///   void initStrand(const int64_t *iters, Strand &s);
///   ExitKind update(Strand &s);
///   void stabilizeStrand(Strand &s);
///   ExitKind updateProf(Strand &s, uint64_t *shard); // profiled twins
///   void stabilizeStrandProf(Strand &s, uint64_t *shard);
///   static constexpr int ProfMaxLine;
///   static std::vector<uint64_t> profMap();          // DDR_READ_PROF_MAP
///   bool strandFinite(const Strand &s);              // strict-fp predicate
///   static constexpr int NumStateSlots;              // digest view
///   double strandSlotValue(const Strand &s, int slot);
///   double outputComp(const Strand &s, int out, int comp);
template <typename Derived, typename Real, typename StrandT>
class ProgramBase {
public:
  std::string Error;

  Derived &self() { return *static_cast<Derived *>(this); }

  int findGlobal(const char *Name) const {
    int N = 0;
    const GlobalMeta *G = Derived::globalMeta(N);
    for (int I = 0; I < N; ++I)
      if (std::strcmp(G[I].Name, Name) == 0)
        return I;
    return -1;
  }

  bool setInputScalars(const char *Name, const double *Vals, int N) {
    int Idx = findGlobal(Name);
    int Cnt = 0;
    const GlobalMeta *G = Derived::globalMeta(Cnt);
    if (Idx < 0 || !G[Idx].IsInput) {
      Error = std::string("no input named '") + Name + "'";
      return false;
    }
    if (!self().setScalars(Idx, Vals, N)) {
      Error = std::string("wrong arity or kind for input '") + Name + "'";
      return false;
    }
    InputSet[Idx] = true;
    return true;
  }

  bool setInputString(const char *Name, const char *V) {
    int Idx = findGlobal(Name);
    if (Idx < 0 || !self().setString(Idx, V)) {
      Error = std::string("cannot set string input '") + Name + "'";
      return false;
    }
    InputSet[Idx] = true;
    return true;
  }

  bool setInputImage(const char *Name, int Dim, const int64_t *Sizes,
                     int64_t NComp, const double *Data, const double *W2I,
                     const double *GradXf, const double *Origin) {
    int Idx = findGlobal(Name);
    if (Idx < 0 ||
        !self().setImage(Idx, Dim, Sizes, NComp, Data, W2I, GradXf, Origin)) {
      Error = std::string("cannot set image input '") + Name + "'";
      return false;
    }
    InputSet[Idx] = true;
    return true;
  }

  bool initialize() {
    if (Initialized) {
      Error = "already initialized";
      return false;
    }
    int N = 0;
    const GlobalMeta *G = Derived::globalMeta(N);
    for (int I = 0; I < N; ++I) {
      if (!G[I].IsInput || InputSet.count(I))
        continue;
      if (!self().applyDefault(I)) {
        Error = std::string("input '") + G[I].Name +
                "' has no default and was not set";
        return false;
      }
    }
    if (!self().globalInit())
      return false;
    // Grid extents and strand creation.
    int64_t Total = 1;
    GridDims.clear();
    std::vector<int64_t> Lo(Derived::NumIters), Hi(Derived::NumIters);
    for (int K = 0; K < Derived::NumIters; ++K) {
      Lo[K] = self().iterLo(K);
      Hi[K] = self().iterHi(K);
      int64_t Extent = Hi[K] >= Lo[K] ? Hi[K] - Lo[K] + 1 : 0;
      GridDims.push_back(Extent);
      Total *= Extent;
    }
    Strands.resize(static_cast<size_t>(Total));
    Status.assign(static_cast<size_t>(Total), StrandStatus::Active);
    std::vector<int64_t> It(Lo);
    for (int64_t S = 0; S < Total; ++S) {
      self().initStrand(It.data(), Strands[static_cast<size_t>(S)]);
      for (int K = Derived::NumIters; K-- > 0;) {
        if (++It[static_cast<size_t>(K)] <= Hi[static_cast<size_t>(K)])
          break;
        It[static_cast<size_t>(K)] = Lo[static_cast<size_t>(K)];
      }
    }
    Initialized = true;
    return true;
  }

  /// Append one canonical digest entry (observe/digest.h) over the current
  /// Status vector and strand states; with the state log armed, also retain
  /// the canonicalized per-strand words. Slots come from
  /// Derived::strandSlotValue — the emitter's switch over the scalarized
  /// members, params first then state vars, matching the interpreter's
  /// flattening order.
  void captureDigestEntry() {
    observe::StrandStateHasher H;
    for (size_t S = 0; S < Strands.size(); ++S) {
      uint8_t St = static_cast<uint8_t>(Status[S]);
      H.status(St);
      if (DLog.HasStates)
        DLog.Status.push_back(St);
      for (int K = 0; K < Derived::NumStateSlots; ++K) {
        double V = self().strandSlotValue(Strands[S], K);
        H.slot(V);
        if (DLog.HasStates)
          DLog.Slots.push_back(observe::canonicalBits(V));
      }
    }
    DLog.Entries.push_back(H.digest());
  }

  /// The body of ddr_run: run supersteps on \p A's workers, collectors
  /// and policy. Returns the superstep count, or -1 with Error set.
  int run(const ddr_run_args &A) {
    if (!Initialized) {
      Error = "run() before initialize()";
      return -1;
    }
    rt::RunPolicy Policy;
    Policy.DeadlineNs = A.deadline_ns;
    Policy.MaxFaults = A.max_faults;
    Policy.WatchdogSteps = A.watchdog_steps;
    Policy.StrictFp = A.strict_fp != 0;
    if (A.fault_plan_words < 0 ||
        (A.fault_plan &&
         !observe::unflattenPlan(A.fault_plan,
                                 static_cast<size_t>(A.fault_plan_words),
                                 Policy.Plan))) {
      Error = "malformed fault plan";
      return -1;
    }
    const int Workers = A.workers;
    const bool Collect = A.stats || A.lifecycle || A.metrics;
    const bool Profile = A.profile;
    if (Profile)
      Prof.start(Workers <= 0 ? 1 : Workers, Derived::ProfMaxLine);
    observe::Recorder *R = Collect ? &Rec : nullptr;
    Rec.start(Workers <= 0 ? 0 : Workers, A.lifecycle, A.metrics);
    rt::RunControl Ctl(Policy);
    rt::RunControl *CtlP = Policy.active() ? &Ctl : nullptr;
    const bool StrictFp = Policy.StrictFp;
    DLog.clear(); // stale digests must not outlive a non-digest run
    rt::StepHook Hook;
    const rt::StepHook *HookP = nullptr;
    if (A.digests || A.state_log) {
      DLog.NumStrands = static_cast<int64_t>(Strands.size());
      DLog.NumSlots = Derived::NumStateSlots;
      DLog.HasStates = A.state_log != 0;
      captureDigestEntry(); // entry 0: post-initialize state
      Hook = [this](int) { captureDigestEntry(); };
      HookP = &Hook;
    }
    // One update body, instantiated once per profiled tag: only the
    // profiled instantiation touches the Profiler, so the clean path stays
    // zero-overhead.
    auto RunWith = [&](auto Profiled) {
      auto Update = [this, CtlP, StrictFp](size_t I, int W) -> StrandStatus {
        uint64_t *P = nullptr;
        ExitKind K;
        if constexpr (decltype(Profiled)::value) {
          P = Prof.shard(W);
          K = self().updateProf(Strands[I], P);
        } else {
          K = self().update(Strands[I]);
        }
        StrandStatus Ret = StrandStatus::Dead;
        switch (K) {
        case ExitKind::Continue:
          Ret = StrandStatus::Active;
          break;
        case ExitKind::Stabilize:
          if constexpr (decltype(Profiled)::value)
            self().stabilizeStrandProf(Strands[I], P);
          else
            self().stabilizeStrand(Strands[I]);
          Ret = StrandStatus::Stable;
          break;
        case ExitKind::Die:
          Ret = StrandStatus::Dead;
          break;
        }
        if (StrictFp && Ret != StrandStatus::Dead &&
            !self().strandFinite(Strands[I])) {
          CtlP->recordFault(W, static_cast<uint64_t>(I),
                            rt::FaultKind::NonFinite,
                            "strand state is not finite");
          return StrandStatus::Faulted;
        }
        return Ret;
      };
      return rt::runParallel(Status, Update, A.max_steps, Workers,
                             A.block_size, R, CtlP, HookP);
    };
    const int Steps = Profile ? RunWith(std::true_type{})
                              : RunWith(std::false_type{});
    if (CtlP)
      Rec.countFault(static_cast<uint64_t>(Ctl.faultCount()));
    if (Collect)
      Stats = Rec.take(Steps, Workers <= 0 ? 0 : Workers);
    else
      Stats = observe::RunStats();
    ProfData = Profile ? Prof.take() : observe::ProfileData();
    bool Quiesced = true;
    for (StrandStatus S : Status)
      if (S == StrandStatus::Active) {
        Quiesced = false;
        break;
      }
    if (CtlP) {
      LastOutcome = static_cast<int>(Ctl.finish(Quiesced));
      LastFaults = Ctl.takeFaults();
    } else {
      LastOutcome = static_cast<int>(Quiesced ? rt::RunOutcome::Converged
                                              : rt::RunOutcome::StepLimit);
      LastFaults.clear();
    }
    Stats.Outcome = static_cast<rt::RunOutcome>(LastOutcome);
    return Steps;
  }

  /// The body of ddr_read: flatten the \p Kind snapshot (ddr_read_kind) and
  /// copy it into \p Out only when it fits \p Cap words. Returns the word
  /// count the snapshot needs, or -1 with Error set for an unknown kind.
  /// DDR_READ_METRICS alone is valid concurrently with run(): it reads only
  /// the merged atomics the coordinator publishes at superstep barriers,
  /// which is what makes live `GET /metrics` scrapes of a native run
  /// race-free.
  int64_t read(int Kind, uint64_t *Out, int64_t Cap) {
    switch (Kind) {
    case DDR_READ_COUNTS: {
      uint64_t Stable = 0, Dead = 0, Faulted = 0;
      for (StrandStatus S : Status) {
        Stable += S == StrandStatus::Stable;
        Dead += S == StrandStatus::Dead;
        Faulted += S == StrandStatus::Faulted;
      }
      return copyFlat({static_cast<uint64_t>(LastOutcome), Strands.size(),
                       Stable, Dead, Faulted},
                      Out, Cap);
    }
    case DDR_READ_STATS:
      return copyFlat(observe::flattenStats(Stats), Out, Cap);
    case DDR_READ_TRACE:
      return copyFlat(observe::flattenEvents(Stats), Out, Cap);
    case DDR_READ_PROF:
      return copyFlat(observe::flattenProfile(ProfData, /*Sites=*/false), Out,
                      Cap);
    case DDR_READ_PROF_MAP:
      return copyFlat(Derived::profMap(), Out, Cap);
    case DDR_READ_METRICS:
      return copyFlat(observe::flattenMetrics(Rec.metricsData()), Out, Cap);
    case DDR_READ_FAULTS:
      return copyFlat(observe::flattenFaults(LastFaults), Out, Cap);
    case DDR_READ_DIGEST:
      return copyFlat(observe::flattenDigests(DLog), Out, Cap);
    case DDR_READ_STATE:
      return DLog.HasStates ? copyFlat(observe::flattenStates(DLog), Out, Cap)
                            : 0;
    }
    Error = "unknown ddr_read kind " + std::to_string(Kind);
    return -1;
  }

  /// Message text of fault \p I of the last run, or null when out of range.
  /// The pointer stays valid until the next run.
  const char *faultMsg(int64_t I) const {
    if (I < 0 || static_cast<size_t>(I) >= LastFaults.size())
      return nullptr;
    return LastFaults[static_cast<size_t>(I)].Message.c_str();
  }

  int outputDims(int64_t *Dims, int MaxD) const {
    if (Derived::IsGrid) {
      int N = std::min<int>(MaxD, static_cast<int>(GridDims.size()));
      for (int I = 0; I < N; ++I)
        Dims[I] = GridDims[static_cast<size_t>(I)];
      return static_cast<int>(GridDims.size());
    }
    if (MaxD >= 1)
      Dims[0] = static_cast<int64_t>(
          std::count(Status.begin(), Status.end(), StrandStatus::Stable));
    return 1;
  }

  int64_t getOutput(const char *Name, double *Data, int64_t Cap) {
    int NOut = 0;
    const OutputMeta *O = Derived::outputMeta(NOut);
    int Out = -1;
    for (int I = 0; I < NOut; ++I)
      if (std::strcmp(O[I].Name, Name) == 0)
        Out = I;
    if (Out < 0) {
      Error = std::string("no output named '") + Name + "'";
      return -1;
    }
    int Comps = O[Out].Comps;
    int64_t Written = 0;
    for (size_t S = 0; S < Strands.size(); ++S) {
      bool Emit;
      bool Zero = false;
      if (Derived::IsGrid) {
        Emit = true;
        Zero = Status[S] == StrandStatus::Dead ||
               Status[S] == StrandStatus::Faulted;
      } else {
        Emit = Status[S] == StrandStatus::Stable;
      }
      if (!Emit)
        continue;
      for (int C = 0; C < Comps; ++C) {
        if (Written >= Cap)
          return Written;
        Data[Written++] =
            Zero ? 0.0 : self().outputComp(Strands[S], Out, C);
      }
    }
    return Written;
  }

protected:
  static int64_t copyFlat(const std::vector<uint64_t> &Flat, uint64_t *Out,
                          int64_t Cap) {
    const int64_t N = static_cast<int64_t>(Flat.size());
    if (Out && N <= Cap)
      std::copy(Flat.begin(), Flat.end(), Out);
    return N;
  }

  std::map<int, bool> InputSet;
  std::vector<StrandT> Strands;
  std::vector<StrandStatus> Status;
  std::vector<int64_t> GridDims;
  observe::RunStats Stats; ///< telemetry of the last collected run
  observe::Recorder Rec;   ///< member (not run-local) so readMetrics can
                           ///< scrape the registry mid-run
  observe::Profiler Prof;
  observe::ProfileData ProfData; ///< profile of the last profiled run
  std::vector<observe::StrandFault> LastFaults; ///< faults of the last run
  int LastOutcome = 0; ///< observe::RunOutcome of the last run
  observe::DigestLog DLog; ///< digest stream of the last digest-armed run
  bool Initialized = false;
};

} // namespace diderot::ndr

#endif // DIDEROT_RUNTIME_NATIVE_PRELUDE_H
