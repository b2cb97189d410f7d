//===--- ir/ir.h - structured SSA IR for the Diderot compiler --------------===//
//
// Part of the Diderot-C++ reproduction (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compiler's intermediate representation. The paper uses "a series of
/// three intermediate representations (IRs) based on Static Single
/// Assignment (SSA) form. These IRs share a common control-flow graph
/// representation, but differ in their types and operations. HighIR is
/// essentially a desugared version of the source language... MidIR supports
/// vectors, transforms between coordinate spaces, loading image data, and
/// kernel evaluations... LowIR supports basic operations on vectors,
/// scalars, and memory objects."
///
/// We implement the three levels over one instruction infrastructure,
/// distinguished by a per-op level mask that the verifier enforces. Because
/// Diderot v1 is loop-free (the bulk-synchronous superstep *is* the loop),
/// the CFG is always a tree of if/else diamonds; we therefore use
/// *structured* SSA — an `If` instruction carries two nested regions and
/// yields merged values (phi nodes become region results) — which makes the
/// paper's final "convert SSA to a block-structured AST" codegen step
/// trivial.
///
/// Early exits: `stabilize`/`die`/normal completion are Exit terminators
/// carrying the full strand state; a region ends in either Yield (fall
/// through, with values for the parent If's results) or Exit.
///
//===----------------------------------------------------------------------===//

#ifndef DIDEROT_IR_IR_H
#define DIDEROT_IR_IR_H

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "frontend/types.h"
#include "support/location.h"
#include "tensor/tensor.h"

namespace diderot::ir {

/// IR level bit mask.
enum Level : unsigned { High = 1, Mid = 2, Low = 4 };

/// All IR operations across the three levels (see opLevels() for which ops
/// are legal where).
enum class Op : uint8_t {
  // Constants and references.
  ConstBool,
  ConstInt,
  ConstReal,
  ConstString,
  ConstTensor, ///< non-scalar tensor literal (exploded before LowIR)
  GlobalGet,   ///< attr: global index

  // Arithmetic (int or real or, at High/Mid, elementwise tensor).
  Add,
  Sub,
  Mul, ///< int*int or real*real
  Div,
  Mod, ///< int
  Neg,
  Min,
  Max,
  Scale,    ///< real * tensor (High/Mid)
  DivScale, ///< tensor / real (High/Mid)
  Pow,      ///< real ^ real

  // Tensor operations (High/Mid; scalarized for Low).
  Dot,
  Cross,
  Outer,
  Norm,
  Normalize,
  Trace,
  Det,
  Inverse,
  Transpose,
  Modulate,
  Lerp,
  TensorCons,  ///< build a tensor from scalar components (row-major)
  TensorIndex, ///< attr: vector<int> constant indices (may be partial)
  Evals,       ///< symmetric eigenvalues, descending (High/Mid)
  Evecs,       ///< unit eigenvectors as rows (High/Mid)

  // Sequences.
  SeqCons,
  SeqIndex, ///< dynamic index operand

  // Scalar math.
  Sqrt,
  Sin,
  Cos,
  Tan,
  Asin,
  Acos,
  Atan,
  Atan2,
  Exp,
  Log,
  Floor,
  Ceil,
  Round,
  Trunc,
  Abs,
  Clamp,
  IntToReal,
  RealToInt, ///< truncation toward negative infinity (floor), for voxel bases

  // Comparisons and logic.
  Lt,
  Le,
  Gt,
  Ge,
  Eq,
  Ne,
  And,
  Or,
  Not,
  Select, ///< (cond, a, b) without control flow (Mid/Low only)

  // Field operations (HighIR only; normalized + lowered away).
  LoadImage,    ///< attr: string file name; global init only
  Convolve,     ///< (image) attr ConvolveAttr{kernel, deriv}: V ⊛ ∂^deriv h
  FieldAdd,     ///< f + f
  FieldSub,     ///< f - f
  FieldNeg,     ///< -f
  FieldScale,   ///< (real, field)
  FieldDivScale,///< (field, real)
  FieldDiff,    ///< ∇ / ∇⊗: appends a domain axis to the range shape
  FieldDivergence, ///< ∇• (extension, paper §8.3)
  FieldCurl,       ///< ∇× (extension, paper §8.3)
  Probe,        ///< (field, pos)
  FieldInside,  ///< (pos, field)

  // Probing machinery (MidIR).
  WorldToImage,   ///< (image, worldPos) -> tensor[d] index-space position
  ImageGradXform, ///< (image) -> tensor[d,d] = M^{-T}
  InsideTest,     ///< (image, base ints...) attr: support -> bool
  VoxelLoad,      ///< (image, base ints...) attr VoxelAttr -> real
  KernelWeight,   ///< (fracPos) attr KernelWeightAttr -> real

  // LowIR expansion.
  PolyEval,   ///< (x) attr vector<double> coefficients (Horner)
  ImgMeta,    ///< (image) attr MetaAttr -> scalar/int image metadata
  EigenVals,  ///< (n*n scalars) attr n -> n scalar results
  EigenVecs,  ///< (n*n scalars, its n EigenVals) attr n -> n*n results

  // Structured control flow.
  If, ///< (cond) regions {then, else}; results = merged yields

  // Terminators.
  Yield, ///< region falls through with values for the parent's results
  Exit,  ///< leave the function; attr ExitAttr; operands = function results
};

/// Printable op name.
const char *opName(Op O);
/// Level mask where \p O is legal.
unsigned opLevels(Op O);
/// Is \p O a region terminator?
inline bool isTerminator(Op O) { return O == Op::Yield || O == Op::Exit; }
/// Pure ops are eligible for value numbering and dead-code elimination.
/// (Everything except control flow and terminators is pure in Diderot.)
inline bool isPure(Op O) { return O != Op::If && !isTerminator(O); }

//===----------------------------------------------------------------------===//
// Attributes
//===----------------------------------------------------------------------===//

struct ConvolveAttr {
  std::string Kernel; ///< built-in kernel name
  int Deriv = 0;      ///< levels of differentiation pushed into the kernel
  bool operator==(const ConvolveAttr &) const = default;
};

struct KernelWeightAttr {
  std::string Kernel;
  int Deriv = 0; ///< which kernel derivative h^(Deriv)
  int Tap = 0;   ///< integer sample offset i in [1-s, s]
  bool operator==(const KernelWeightAttr &) const = default;
};

struct VoxelAttr {
  std::vector<int> Offsets; ///< per-axis sample offset from the base index
  int Comp = 0;             ///< component within the sample's tensor value
  bool operator==(const VoxelAttr &) const = default;
};

struct MetaAttr {
  enum Kind : uint8_t {
    W2I,    ///< world-to-index matrix entry (R, C)
    Origin, ///< world-space origin component R of the inverse map
    GradXf, ///< M^{-T} entry (R, C)
    Size,   ///< axis R size (int result)
  } K = W2I;
  int R = 0;
  int C = 0;
  bool operator==(const MetaAttr &) const = default;
};

struct ExitAttr {
  enum Kind : uint8_t {
    Continue,  ///< update completed; strand remains active
    Stabilize, ///< strand stabilizes
    Die,       ///< strand dies (no output)
  } K = Continue;
  bool operator==(const ExitAttr &) const = default;
};

using Attr =
    std::variant<std::monostate, bool, int64_t, double, std::string, Tensor,
                 std::vector<int>, std::vector<double>, ConvolveAttr,
                 KernelWeightAttr, VoxelAttr, MetaAttr, ExitAttr>;

/// Render an attribute for the printer.
std::string attrStr(const Attr &A);

//===----------------------------------------------------------------------===//
// Instructions, regions, functions
//===----------------------------------------------------------------------===//

/// SSA value id: an index into the owning Function's value-type table.
using ValueId = int32_t;
constexpr ValueId NoValue = -1;

struct Region;

struct Instr {
  Op Opcode;
  std::vector<ValueId> Operands;
  std::vector<ValueId> Results;
  Attr A;
  std::vector<Region> Regions; ///< If: {then, else}
  SourceLoc Loc;

  Instr() : Opcode(Op::Yield) {}
  explicit Instr(Op O) : Opcode(O) {}
};

struct Region {
  std::vector<Instr> Body; ///< last instruction is the terminator

  bool hasTerminator() const {
    return !Body.empty() && isTerminator(Body.back().Opcode);
  }
  const Instr &terminator() const { return Body.back(); }
};

/// One SSA function. Parameters are values 0..NumParams-1. Results are
/// carried by Exit terminators (every Exit in the function has the same
/// arity, matching ResultTypes).
struct Function {
  std::string Name;
  std::vector<Type> ValueTypes; ///< indexed by ValueId
  int NumParams = 0;
  std::vector<Type> ResultTypes;
  Region Body;

  ValueId newValue(Type T) {
    ValueTypes.push_back(std::move(T));
    return static_cast<ValueId>(ValueTypes.size() - 1);
  }
  const Type &typeOf(ValueId V) const {
    return ValueTypes[static_cast<size_t>(V)];
  }
  int numValues() const { return static_cast<int>(ValueTypes.size()); }
};

//===----------------------------------------------------------------------===//
// Module
//===----------------------------------------------------------------------===//

/// A program global.
struct GlobalVar {
  std::string Name;
  Type Ty;
  bool IsInput = false;
  /// For inputs: index of the default-value function in Module::InputDefaults
  /// (-1 = no default; host must set it).
  int DefaultFn = -1;
};

/// A strand state variable.
struct StateSlot {
  std::string Name;
  Type Ty;
  bool IsOutput = false;
};

/// A whole compiled program at some IR level.
struct Module {
  std::string Name;
  unsigned CurLevel = High;

  std::vector<GlobalVar> Globals;
  /// Default-value functions for inputs (no params; one Exit result).
  std::vector<Function> InputDefaults;
  /// Computes non-input globals. Params: one per *input* global (in global
  /// order). Results: one per *non-input* global (in global order).
  Function GlobalInit;

  std::string StrandName;
  std::vector<Type> StrandParams;
  std::vector<StateSlot> State;
  /// Params: strand creation arguments; results: the initial state vector.
  Function StrandInit;
  /// Params: state vector; results: new state vector (Exit kind gives the
  /// strand status).
  Function Update;
  /// Optional (empty Name when absent): params state, results state.
  Function Stabilize;

  bool IsGrid = true;
  /// Per-iterator bounds: functions with no params and one int result.
  std::vector<Function> IterLo, IterHi;
  /// Params: one int per iterator; results: strand creation arguments.
  Function CreateArgs;

  bool hasStabilize() const { return !Stabilize.Name.empty(); }
};

//===----------------------------------------------------------------------===//
// Utilities
//===----------------------------------------------------------------------===//

/// Pretty-print a function (for tests and -emit-ir).
std::string print(const Function &F);
/// Pretty-print a whole module.
std::string print(const Module &M);

/// Count instructions with opcode \p O in \p F (tests and ablation benches).
int countOps(const Function &F, Op O);
/// Count all instructions in \p F.
int countAllOps(const Function &F);
/// Count all instructions across every function in \p M (GlobalInit,
/// defaults, iterators, strand methods) — the pass-timing "IR size" metric.
int countModuleOps(const Module &M);

/// The profiler op-class of \p O, matching observe::ProfClass numerically:
/// 0 = field probe (VoxelLoad), 1 = kernel piece evaluation (KernelWeight /
/// PolyEval), 2 = inside test, 3 = tensor op; -1 = not profiled. Returns a
/// plain int so ir stays independent of observe.
int profClassOf(Op O);

/// Largest source line attached to any instruction in \p F (0 if none).
int maxSourceLine(const Function &F);
/// Largest source line across \p M's Update and Stabilize methods — the
/// profiler's counter-table bound.
int maxSourceLine(const Module &M);

/// Structural verifier: checks op level legality against \p Lvl, terminator
/// placement, operand/result arity, and value-id validity. Returns an error
/// description, or empty string when the function is well-formed.
std::string verify(const Function &F, unsigned Lvl);
/// Verify every function in \p M at its current level.
std::string verify(const Module &M);

} // namespace diderot::ir

#endif // DIDEROT_IR_IR_H
