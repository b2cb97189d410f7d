//===--- driver/driver.cpp -------------------------------------------------===//

#include "driver/driver.h"

#include <atomic>
#include <chrono>
#include <fstream>
#include <mutex>
#include <sstream>

#include "codegen/native.h"
#include "frontend/parser.h"
#include "frontend/typecheck.h"
#include "interp/interp.h"
#include "passes/passes.h"
#include "simple/lower.h"

namespace diderot {

struct CompiledProgram::Impl {
  ir::Module Mid;
  ir::Module Low;
  CompileOptions Opts;
  std::string Name;
  std::vector<PassTiming> Timings;
  /// Native engine: the instance descriptors, and the shared object once a
  /// load has succeeded. Lib is published with a release store after the
  /// first load under LoadMu, so a warm instantiate() is one acquire load
  /// plus ddr_create. A failed load leaves Lib null and the next call
  /// retries it.
  std::shared_ptr<const codegen::NativeDescs> Descs;
  std::mutex LoadMu;
  std::atomic<const codegen::LoadedLib *> Lib{nullptr};
};

CompiledProgram::CompiledProgram(ir::Module Mid, ir::Module Low,
                                 CompileOptions Opts,
                                 std::vector<PassTiming> Timings)
    : P(std::make_unique<Impl>()) {
  P->Mid = std::move(Mid);
  P->Low = std::move(Low);
  P->Opts = std::move(Opts);
  P->Name = P->Mid.Name;
  P->Timings = std::move(Timings);
  if (P->Opts.Eng == Engine::Native)
    P->Descs = codegen::nativeDescs(P->Low);
}

CompiledProgram::~CompiledProgram() = default;
CompiledProgram::CompiledProgram(CompiledProgram &&) noexcept = default;
CompiledProgram &CompiledProgram::operator=(CompiledProgram &&) noexcept =
    default;

const ir::Module &CompiledProgram::midModule() const { return P->Mid; }
const ir::Module &CompiledProgram::lowModule() const { return P->Low; }

const std::vector<PassTiming> &CompiledProgram::passTimings() const {
  return P->Timings;
}

std::string CompiledProgram::emitCpp() const {
  return codegen::emitCpp(P->Low, P->Opts.DoublePrecision);
}

Result<std::unique_ptr<rt::ProgramInstance>>
CompiledProgram::instantiate() const {
  if (P->Opts.Eng == Engine::Interp) {
    ir::Module Copy = P->Mid;
    return interp::makeInstance(std::move(Copy));
  }
  const codegen::LoadedLib *Lib = P->Lib.load(std::memory_order_acquire);
  if (!Lib) {
    std::lock_guard<std::mutex> G(P->LoadMu);
    Lib = P->Lib.load(std::memory_order_relaxed);
    if (!Lib) {
      Result<const codegen::LoadedLib *> L =
          codegen::loadNativeLib(P->Low, P->Opts, P->Name);
      if (!L.isOk())
        return Result<std::unique_ptr<rt::ProgramInstance>>::error(
            L.message());
      Lib = *L;
      P->Lib.store(Lib, std::memory_order_release);
    }
  }
  return codegen::makeNativeInstance(*Lib, P->Descs);
}

Result<CompiledProgram> compileString(const std::string &Source,
                                      const CompileOptions &Opts,
                                      const std::string &Name) {
  using RC = Result<CompiledProgram>;
  DiagnosticEngine Diags;
  Parser Prs(Source, Diags);
  std::unique_ptr<Program> Prog = Prs.parseProgram();
  if (Diags.hasErrors())
    return RC::error(strf(Name, ": parse errors:\n", Diags.str()));
  if (!typeCheck(*Prog, Diags))
    return RC::error(strf(Name, ": type errors:\n", Diags.str()));

  Result<ir::Module> High = lowerToHighIR(*Prog, Diags);
  if (!High.isOk())
    return RC::error(strf(Name, ": ", High.message()));
  ir::Module M = High.take();
  M.Name = Name;

  std::vector<PassTiming> Timings;
  // Run one pass under the clock, recording wall time and the module
  // instruction-count delta (`--time-passes` in diderotc).
  auto timed = [&](const char *PassName, auto &&Fn) {
    PassTiming T;
    T.Pass = PassName;
    T.OpsBefore = ir::countModuleOps(M);
    auto T0 = std::chrono::steady_clock::now();
    Status S = Fn();
    T.Ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - T0)
            .count());
    T.OpsAfter = ir::countModuleOps(M);
    Timings.push_back(std::move(T));
    return S;
  };

  Status S = timed("normalize", [&] { return passes::normalizeFields(M); });
  if (!S.isOk())
    return RC::error(strf(Name, ": ", S.message()));
  if (Opts.EnableContract)
    timed("contract(high)", [&] { passes::contract(M); return Status::ok(); });
  S = timed("mid_lower", [&] { return passes::lowerToMid(M); });
  if (!S.isOk())
    return RC::error(strf(Name, ": ", S.message()));
  if (Opts.EnableValueNumbering)
    timed("value_number(mid)",
          [&] { passes::valueNumber(M); return Status::ok(); });
  if (Opts.EnableContract)
    timed("contract(mid)", [&] { passes::contract(M); return Status::ok(); });

  ir::Module Mid = M; // snapshot for the interpreter engine
  S = timed("scalarize", [&] { return passes::lowerToLow(M); });
  if (!S.isOk())
    return RC::error(strf(Name, ": ", S.message()));
  if (Opts.EnableValueNumbering)
    timed("value_number(low)",
          [&] { passes::valueNumber(M); return Status::ok(); });
  if (Opts.EnableContract)
    timed("contract(low)", [&] { passes::contract(M); return Status::ok(); });

  return CompiledProgram(std::move(Mid), std::move(M), Opts,
                         std::move(Timings));
}

Result<CompiledProgram> compileFile(const std::string &Path,
                                    const CompileOptions &Opts) {
  std::ifstream In(Path);
  if (!In)
    return Result<CompiledProgram>::error(
        strf("cannot open '", Path, "'"));
  std::ostringstream SS;
  SS << In.rdbuf();
  // Derive a program name from the file name.
  std::string Name = Path;
  size_t Slash = Name.find_last_of('/');
  if (Slash != std::string::npos)
    Name = Name.substr(Slash + 1);
  size_t Dot = Name.find_last_of('.');
  if (Dot != std::string::npos)
    Name = Name.substr(0, Dot);
  return compileString(SS.str(), Opts, Name);
}

} // namespace diderot
