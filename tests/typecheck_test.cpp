//===--- tests/typecheck_test.cpp ------------------------------------------===//

#include <gtest/gtest.h>

#include "frontend/parser.h"
#include "frontend/typecheck.h"
#include "testprograms.h"

namespace diderot {
namespace {

/// Parse + check; returns the program when everything succeeded.
std::unique_ptr<Program> checkOk(const std::string &Src) {
  DiagnosticEngine D;
  Parser P(Src, D);
  auto Prog = P.parseProgram();
  EXPECT_FALSE(D.hasErrors()) << D.str();
  bool Ok = typeCheck(*Prog, D);
  EXPECT_TRUE(Ok) << D.str();
  return Prog;
}

/// Parse + check expecting a type error whose message contains \p Needle.
void checkFails(const std::string &Src, const std::string &Needle) {
  DiagnosticEngine D;
  Parser P(Src, D);
  auto Prog = P.parseProgram();
  ASSERT_FALSE(D.hasErrors()) << "parse failed, not a type test:\n" << D.str();
  bool Ok = typeCheck(*Prog, D);
  EXPECT_FALSE(Ok) << "expected a type error mentioning '" << Needle << "'";
  EXPECT_NE(D.str().find(Needle), std::string::npos)
      << "diagnostics were:\n"
      << D.str();
}

/// A minimal valid program with a hole for global declarations and update
/// statements.
std::string wrap(const std::string &Globals, const std::string &Update) {
  return strf(Globals, R"(
strand S (int i) {
  output real out = 0.0;
  update { )",
              Update, R"( stabilize; }
}
initially [ S(i) | i in 0 .. 3 ];
)");
}

TEST(TypeCheck, PaperProgramsCheck) {
  checkOk(testprog::VrLite);
  checkOk(testprog::Lic2d);
  checkOk(testprog::Isocontour);
  checkOk(testprog::Curvature);
}

TEST(TypeCheck, ConvolutionTyping) {
  // Figure 2 rule: image(d)[s] ⊛ kernel#k : field#k(d)[s].
  auto P = checkOk(wrap(R"(
image(3)[] img = load("x.nrrd");
field#2(3)[] F = img ⊛ bspln3;
)",
                        ""));
  EXPECT_EQ(P->Globals[1].Init->Ty, Type::field(2, 3, Shape{}));
}

TEST(TypeCheck, ConvolutionKernelFirst) {
  checkOk(wrap("field#1(2)[] f = ctmr ⊛ load(\"d.nrrd\");\n", ""));
}

TEST(TypeCheck, ConvolutionContinuityMismatch) {
  checkFails(wrap(R"(
image(3)[] img = load("x.nrrd");
field#2(3)[] F = img ⊛ tent;
)",
                  ""),
             "field#0(3)[]");
}

TEST(TypeCheck, GradientTyping) {
  // ∇ : field#k(d)[] -> field#(k-1)(d)[d], k > 0.
  checkOk(wrap(R"(
field#2(3)[] F = load("x.nrrd") ⊛ bspln3;
field#1(3)[3] G = ∇F;
)",
               ""));
}

TEST(TypeCheck, GradientNeedsDifferentiability) {
  checkFails(wrap(R"(
field#0(2)[] R = load("r.nrrd") ⊛ tent;
field#0(2)[2] G = ∇R;
)",
                  ""),
             "differentiable");
}

TEST(TypeCheck, GradientOfVectorFieldNeedsOtimes) {
  checkFails(wrap(R"(
field#1(2)[2] V = load("v.nrrd") ⊛ ctmr;
field#0(2)[2,2] J = ∇V;
)",
                  ""),
             "∇⊗");
}

TEST(TypeCheck, HessianTyping) {
  // ∇⊗ appends the domain dimension to the range shape.
  checkOk(wrap(R"(
field#2(3)[] F = load("x.nrrd") ⊛ bspln3;
field#0(3)[3,3] H = ∇⊗∇F;
)",
               ""));
}

TEST(TypeCheck, OneDimensionalJacobianKeepsRangeShape) {
  // As for ∇ in 1-D, ∇⊗ appends no axis: there is no extent-1 tensor axis.
  checkOk(wrap(R"(
field#1(1)[2] V = load("v.nrrd") ⊛ ctmr;
field#0(1)[2] J = ∇⊗V;
)",
               "vec2 j = J(0.25);"));
}

TEST(TypeCheck, ProbeTyping) {
  checkOk(wrap("field#2(3)[] F = load(\"x.nrrd\") ⊛ bspln3;\n",
               "real v = F([0.0, 0.0, 0.0]);"));
  checkOk(wrap("field#1(2)[2] V = load(\"v.nrrd\") ⊛ ctmr;\n",
               "vec2 v = V([0.0, 0.0]);"));
}

TEST(TypeCheck, ProbePositionDimensionMismatch) {
  checkFails(wrap("field#2(3)[] F = load(\"x.nrrd\") ⊛ bspln3;\n",
                  "real v = F([0.0, 0.0]);"),
             "probe position");
}

TEST(TypeCheck, InsideTyping) {
  checkOk(wrap("field#2(3)[] F = load(\"x.nrrd\") ⊛ bspln3;\n",
               "bool b = inside([0.0,0.0,0.0], F);"));
  checkFails(wrap("field#2(3)[] F = load(\"x.nrrd\") ⊛ bspln3;\n",
                  "bool b = inside([0.0,0.0], F);"),
             "inside position");
}

TEST(TypeCheck, FieldArithmetic) {
  checkOk(wrap(R"(
field#2(3)[] F = load("x.nrrd") ⊛ bspln3;
field#1(3)[] G = load("y.nrrd") ⊛ ctmr;
field#1(3)[] S = F + G;
field#2(3)[] T = 2.0 * F;
field#2(3)[] U = F / 3.0;
field#2(3)[] N = -F;
)",
               ""));
}

TEST(TypeCheck, FieldAddTakesMinContinuity) {
  // field#2 + field#1 is field#1, not field#2.
  checkFails(wrap(R"(
field#2(3)[] F = load("x.nrrd") ⊛ bspln3;
field#1(3)[] G = load("y.nrrd") ⊛ ctmr;
field#2(3)[] S = F + G;
)",
                  ""),
             "field#1(3)[]");
}

TEST(TypeCheck, TensorOperators) {
  checkOk(wrap("", R"(
vec3 u = [1.0, 2.0, 3.0];
vec3 v = [4.0, 5.0, 6.0];
real d = u • v;
vec3 c = u × v;
tensor[3,3] o = u ⊗ v;
real n = |u|;
tensor[3,3] m = identity[3];
vec3 mv = m • u;
real tr = trace(m);
)"));
}

TEST(TypeCheck, DotContractionShapes) {
  // matrix • matrix -> matrix; matrix • vector -> vector.
  checkOk(wrap("", R"(
tensor[3,3] a = identity[3];
tensor[3,3] b = a • a;
vec3 v = a • [1.0, 0.0, 0.0];
)"));
  checkFails(wrap("", "real x = [1.0,2.0] • [1.0,2.0,3.0];"), "no instance");
}

TEST(TypeCheck, StrictIntRealSeparation) {
  checkFails(wrap("", "real x = 1 + 2.0;"), "no instance");
  checkOk(wrap("", "real x = real(1) + 2.0;"));
}

TEST(TypeCheck, PowAllowsIntExponent) {
  checkOk(wrap("", "real x = 2.0; real y = x^2;"));
}

TEST(TypeCheck, ImmutableGlobals) {
  checkFails(wrap("input real g = 1.0;\n", "g = 2.0;"), "immutable");
}

TEST(TypeCheck, ParamsImmutable) {
  checkFails(R"(
strand S (int i) {
  output real out = 0.0;
  update { i = 3; stabilize; }
}
initially [ S(i) | i in 0 .. 3 ];
)",
             "immutable");
}

TEST(TypeCheck, UndefinedVariable) {
  checkFails(wrap("", "real x = nothere;"), "undefined variable");
}

TEST(TypeCheck, AssignTypeMismatch) {
  checkFails(wrap("", "real x = 1.0; x = true;"), "cannot assign");
}

TEST(TypeCheck, ConditionMustBeBool) {
  checkFails(wrap("", "if (1) { out = 1.0; }"), "must be bool");
}

TEST(TypeCheck, CondExprBranchMismatch) {
  checkFails(wrap("", "real x = 1.0 if true else 2;"), "different types");
}

TEST(TypeCheck, LoadOnlyAtGlobalScope) {
  checkFails(wrap("", "image(2)[] i = load(\"x.nrrd\");"),
             "global scope");
}

TEST(TypeCheck, FieldsCannotBeInputs) {
  checkFails(wrap("input field#2(3)[] F;\n", ""), "cannot be input");
}

TEST(TypeCheck, OutputRequired) {
  checkFails(R"(
strand S (int i) {
  real x = 0.0;
  update { x = 1.0; stabilize; }
}
initially [ S(i) | i in 0 .. 3 ];
)",
             "no output variables");
}

TEST(TypeCheck, StateInitsSeeParams) {
  checkOk(R"(
strand S (vec2 p) {
  vec2 q = 2.0 * p;
  output real out = |q|;
  update { stabilize; }
}
initially [ S([0.1*real(i), 0.0]) | i in 0 .. 3 ];
)");
}

TEST(TypeCheck, InitArgCountMismatch) {
  checkFails(R"(
strand S (int i, int j) {
  output real out = 0.0;
  update { stabilize; }
}
initially [ S(i) | i in 0 .. 3 ];
)",
             "takes 2 arguments");
}

TEST(TypeCheck, IteratorBoundsMustBeInt) {
  checkFails(R"(
strand S (int i) {
  output real out = 0.0;
  update { stabilize; }
}
initially [ S(i) | i in 0 .. 3.5 ];
)",
             "must be int");
}

TEST(TypeCheck, EigenBuiltins) {
  checkOk(wrap("", R"(
tensor[3,3] h = identity[3];
vec3 ev = evals(h);
tensor[3,3] evs = evecs(h);
tensor[2,2] h2 = identity[2];
vec2 ev2 = evals(h2);
)"));
}

TEST(TypeCheck, SequenceTypesAndIndexing) {
  checkOk(wrap("", R"(
real{3} s = {1.0, 2.0, 3.0};
real x = s[1];
int k = 2;
real y = s[k];
)"));
  checkFails(wrap("", "real{2} s = {1.0, true};"), "same type");
}

TEST(TypeCheck, TensorIndexing) {
  checkOk(wrap("", R"(
tensor[3,3] m = identity[3];
real x = m[0,1];
vec3 row = m[2];
)"));
  checkFails(wrap("", "tensor[3,3] m = identity[3]; real x = m[0,1,2];"),
             "cannot be indexed");
}

TEST(TypeCheck, NablaOnNonField) {
  checkFails(wrap("", "vec3 v = [1.0,2.0,3.0]; real q = |∇v|;"),
             "requires a scalar field");
}

TEST(TypeCheck, ShadowingInNestedBlockAllowed) {
  checkOk(wrap("", R"(
real x = 1.0;
if (true) { real y = 2.0; out = x + y; }
)"));
}

TEST(TypeCheck, RedefinitionInSameScopeRejected) {
  checkFails(wrap("", "real x = 1.0; real x = 2.0;"), "redefinition");
}

TEST(TypeCheck, StabilizeOutsideUpdateRejected) {
  checkFails(R"(
strand S (int i) {
  output real out = 0.0;
  update { stabilize; }
  stabilize { die; }
}
initially [ S(i) | i in 0 .. 3 ];
)",
             "only allowed in the update method");
}

TEST(TypeCheck, MinMaxOverloads) {
  checkOk(wrap("", R"(
real a = max(1.0, 2.0);
int b = max(1, 2);
real c = min(a, 3.0);
)"));
}

TEST(TypeCheck, AsciiOperatorAliases) {
  // dot/cross/outer/convolve are function spellings of the Unicode ops.
  checkOk(wrap("field#1(2)[] f = convolve(load(\"d.nrrd\"), ctmr);\n", R"(
vec3 u = [1.0, 2.0, 3.0];
vec3 v = [4.0, 5.0, 6.0];
real d = dot(u, v);
vec3 c = cross(u, v);
tensor[3,3] o = outer(u, v);
)"));
  checkFails(wrap("", "real x = dot(1.0, 2.0);"), "no instance");
  checkFails(wrap("", "real x = dot(1.0);"), "two arguments");
}

TEST(TypeCheck, AsciiAliasShadowedByVariable) {
  // A probe of a field named `dot` must win over the builtin alias.
  checkOk(wrap("field#1(2)[] dot = ctmr ⊛ load(\"d.nrrd\");\n",
               "real x = dot([0.1, 0.2]);"));
}

TEST(TypeCheck, NormalizedCurvatureExpression) {
  // The heart of Figure 3, as one expression chain.
  checkOk(wrap(R"(
field#2(3)[] F = load("x.nrrd") ⊛ bspln3;
)",
               R"(
vec3 grad = -∇F([0.5,0.5,0.5]);
vec3 norm = normalize(grad);
tensor[3,3] H = ∇⊗∇F([0.5,0.5,0.5]);
tensor[3,3] P = identity[3] - norm⊗norm;
tensor[3,3] G = -(P•H•P)/|grad|;
real disc = sqrt(2.0*|G|^2 - trace(G)^2);
)"));
}

} // namespace
} // namespace diderot
