//===--- observe/fault.h - fault model and run verdicts ----------------------===//
//
// Part of the Diderot-C++ reproduction (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fault-containment vocabulary shared by both engines and both
/// schedulers: the kinds of per-strand faults the runtime traps, the
/// recorded StrandFault diagnostic, the deterministic FaultPlan injection
/// hook tests use to provoke faults at chosen (strand, superstep)
/// coordinates, and the RunOutcome verdict every run reports.
///
/// The paper's bulk-synchronous model assumes every strand update succeeds;
/// a production runtime cannot ("Compiling Diderot: From Tensor Calculus to
/// C" notes the real compiler's runtime checks for out-of-domain probes). A
/// trapped fault retires the strand into StrandStatus::Faulted instead of
/// killing the process, and the run keeps its bulk-synchronous discipline:
/// the fault is just another way for a strand to leave the work-list.
///
/// Deliberately STL-only and header-only, same constraint as recorder.h:
/// generated native translation units include it transitively through
/// runtime/scheduler.h. Faults cross the dlopen boundary through a flat
/// uint64 wire format (messages ride separately through ddr_fault_msg).
///
//===----------------------------------------------------------------------===//

#ifndef DIDEROT_OBSERVE_FAULT_H
#define DIDEROT_OBSERVE_FAULT_H

#include <cstdint>
#include <string>
#include <vector>

namespace diderot::observe {

/// Why a run ended. Converged is the paper's normal termination ("the
/// program executes until all of the strands are either stabilized or
/// dead"); the others are the fault-containment verdicts.
enum class RunOutcome : int {
  Converged = 0,  ///< every strand retired (stable, dead, or faulted)
  StepLimit = 1,  ///< MaxSupersteps elapsed with strands still active
  Deadline = 2,   ///< the wall-clock deadline expired
  Diverged = 3,   ///< watchdog: K supersteps with zero retirements
  FaultBudget = 4 ///< more strand faults than the policy tolerates
};

inline const char *runOutcomeName(RunOutcome O) {
  switch (O) {
  case RunOutcome::Converged:
    return "converged";
  case RunOutcome::StepLimit:
    return "step-limit";
  case RunOutcome::Deadline:
    return "deadline";
  case RunOutcome::Diverged:
    return "diverged";
  case RunOutcome::FaultBudget:
    return "fault-budget";
  }
  return "?";
}

/// What went wrong inside one strand update.
enum class FaultKind : int {
  Exception = 0, ///< a C++ exception (or interpreter runtime error) trapped
  NonFinite = 1, ///< strand state left non-finite (opt-in strict-fp check)
  Injected = 2   ///< provoked by a FaultPlan entry of kind Injected
};

inline const char *faultKindName(FaultKind K) {
  switch (K) {
  case FaultKind::Exception:
    return "exception";
  case FaultKind::NonFinite:
    return "non-finite";
  case FaultKind::Injected:
    return "injected";
  }
  return "?";
}

/// One trapped strand fault: which strand, where in the run, and what
/// happened. The strand itself is parked in StrandStatus::Faulted.
struct StrandFault {
  uint64_t Strand = 0; ///< strand index in the instance
  int Step = 0;        ///< superstep the fault was trapped in
  int Worker = 0;      ///< worker that executed the faulting update
  FaultKind Kind = FaultKind::Exception;
  uint64_t Ns = 0;     ///< ns since the run's policy clock started
  std::string Message; ///< diagnostic text (exception what(), etc.)
};

/// One planned injection: fault strand \p Strand at superstep \p Step with
/// kind \p Kind. Exception entries throw a real std::runtime_error through
/// the trap boundary so tests exercise the actual catch path.
struct PlannedFault {
  uint64_t Strand = 0;
  int Step = 0;
  FaultKind Kind = FaultKind::Injected;
};

/// Deterministic fault-injection schedule, consulted by the schedulers'
/// trap boundary before each update. Empty plans cost one branch per run.
struct FaultPlan {
  std::vector<PlannedFault> Faults;

  bool empty() const { return Faults.empty(); }

  /// Plan a fault for \p Strand at superstep \p Step.
  void at(uint64_t Strand, int Step, FaultKind Kind) {
    Faults.push_back({Strand, Step, Kind});
  }

  /// The planned fault for (\p Strand, \p Step), or null.
  const PlannedFault *match(uint64_t Strand, int Step) const {
    for (const PlannedFault &F : Faults)
      if (F.Strand == Strand && F.Step == Step)
        return &F;
    return nullptr;
  }
};

//===----------------------------------------------------------------------===//
// Flat wire formats (dlopen boundary)
//===----------------------------------------------------------------------===//
//
// A fault plan crosses into a generated shared object (ddr_run_args
// fault_plan) as: [0] entry count, then records of 3: strand, step, kind.
// Recorded faults cross back (DDR_READ_FAULTS) as: [0] fault count, then
// records of 5: strand, step, worker, kind, ns. Messages are strings, so
// they ride separately through ddr_fault_msg(instance, index).

constexpr size_t PlanHeaderWords = 1;
constexpr size_t PlanRecordWords = 3;
constexpr size_t FaultHeaderWords = 1;
constexpr size_t FaultRecordWords = 5;

inline std::vector<uint64_t> flattenPlan(const FaultPlan &P) {
  std::vector<uint64_t> Out;
  Out.reserve(PlanHeaderWords + P.Faults.size() * PlanRecordWords);
  Out.push_back(P.Faults.size());
  for (const PlannedFault &F : P.Faults) {
    Out.push_back(F.Strand);
    Out.push_back(static_cast<uint64_t>(F.Step));
    Out.push_back(static_cast<uint64_t>(static_cast<int>(F.Kind)));
  }
  return Out;
}

/// Inverse of flattenPlan. Returns false on a short buffer or an
/// out-of-range fault kind.
inline bool unflattenPlan(const uint64_t *Data, size_t N, FaultPlan &P) {
  P.Faults.clear();
  if (N < PlanHeaderWords)
    return false;
  size_t Count = static_cast<size_t>(Data[0]);
  if (N < PlanHeaderWords + Count * PlanRecordWords)
    return false;
  const uint64_t *Rec = Data + PlanHeaderWords;
  P.Faults.reserve(Count);
  for (size_t I = 0; I < Count; ++I, Rec += PlanRecordWords) {
    if (Rec[2] > 2)
      return false;
    P.Faults.push_back({Rec[0], static_cast<int>(Rec[1]),
                        static_cast<FaultKind>(static_cast<int>(Rec[2]))});
  }
  return true;
}

inline std::vector<uint64_t> flattenFaults(const std::vector<StrandFault> &F) {
  std::vector<uint64_t> Out;
  Out.reserve(FaultHeaderWords + F.size() * FaultRecordWords);
  Out.push_back(F.size());
  for (const StrandFault &Flt : F) {
    Out.push_back(Flt.Strand);
    Out.push_back(static_cast<uint64_t>(Flt.Step));
    Out.push_back(static_cast<uint64_t>(Flt.Worker));
    Out.push_back(static_cast<uint64_t>(static_cast<int>(Flt.Kind)));
    Out.push_back(Flt.Ns);
  }
  return Out;
}

/// Inverse of flattenFaults (messages arrive separately). Returns false on
/// a short buffer or an out-of-range fault kind.
inline bool unflattenFaults(const uint64_t *Data, size_t N,
                            std::vector<StrandFault> &F) {
  F.clear();
  if (N < FaultHeaderWords)
    return false;
  size_t Count = static_cast<size_t>(Data[0]);
  if (N < FaultHeaderWords + Count * FaultRecordWords)
    return false;
  const uint64_t *Rec = Data + FaultHeaderWords;
  F.reserve(Count);
  for (size_t I = 0; I < Count; ++I, Rec += FaultRecordWords) {
    if (Rec[3] > 2)
      return false;
    StrandFault Flt;
    Flt.Strand = Rec[0];
    Flt.Step = static_cast<int>(Rec[1]);
    Flt.Worker = static_cast<int>(Rec[2]);
    Flt.Kind = static_cast<FaultKind>(static_cast<int>(Rec[3]));
    Flt.Ns = Rec[4];
    F.push_back(std::move(Flt));
  }
  return true;
}

} // namespace diderot::observe

#endif // DIDEROT_OBSERVE_FAULT_H
