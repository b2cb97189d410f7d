//===--- observe/replay.cpp - replay bundle format and divergence diagnosis --===//
//
// Part of the Diderot-C++ reproduction (PLDI 2012).
//
// Format layer of the flight recorder (see replay.h for the bundle layout).
// The JSON here is deliberately a tiny dialect — objects, arrays, strings,
// numbers, booleans — written and read by this file only; replays never
// feed it foreign documents, but the parser still rejects malformed input
// cleanly because bundles cross machines and HTTP.
//
//===----------------------------------------------------------------------===//

#include "observe/replay.h"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "support/atomic_file.h"
#include "support/strings.h"

namespace diderot::observe {

namespace fs = std::filesystem;

namespace {

//===----------------------------------------------------------------------===//
// JSON writing
//===----------------------------------------------------------------------===//

std::string jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size() + 2);
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20)
        Out += strf("\\u00", "0123456789abcdef"[(C >> 4) & 0xF],
                    "0123456789abcdef"[C & 0xF]);
      else
        Out += C;
    }
  }
  return Out;
}

std::string jstr(const std::string &S) { return strf('"', jsonEscape(S), '"'); }

//===----------------------------------------------------------------------===//
// JSON parsing (objects, arrays, strings, integers, booleans)
//===----------------------------------------------------------------------===//

struct Json {
  enum Kind { Null, Bool, Num, Str, Arr, Obj } K = Null;
  bool B = false;
  double N = 0;
  std::string S;
  std::vector<Json> A;
  std::map<std::string, Json> O;

  const Json *get(const std::string &Key) const {
    auto It = O.find(Key);
    return It == O.end() ? nullptr : &It->second;
  }
  std::string str(const std::string &Key, std::string Def = "") const {
    const Json *V = get(Key);
    return V && V->K == Str ? V->S : Def;
  }
  int64_t num(const std::string &Key, int64_t Def = 0) const {
    const Json *V = get(Key);
    return V && V->K == Num ? static_cast<int64_t>(V->N) : Def;
  }
  bool flag(const std::string &Key, bool Def = false) const {
    const Json *V = get(Key);
    return V && V->K == Bool ? V->B : Def;
  }
};

class JsonParser {
public:
  JsonParser(const std::string &Text) : T(Text) {}

  bool parse(Json &Out) { return value(Out) && (ws(), Pos == T.size()); }

private:
  void ws() {
    while (Pos < T.size() && (T[Pos] == ' ' || T[Pos] == '\t' ||
                              T[Pos] == '\n' || T[Pos] == '\r'))
      ++Pos;
  }
  bool lit(const char *S, Json &Out, Json::Kind K, bool B) {
    size_t N = std::strlen(S);
    if (T.compare(Pos, N, S) != 0)
      return false;
    Pos += N;
    Out.K = K;
    Out.B = B;
    return true;
  }
  bool string(std::string &Out) {
    if (Pos >= T.size() || T[Pos] != '"')
      return false;
    ++Pos;
    Out.clear();
    while (Pos < T.size() && T[Pos] != '"') {
      char C = T[Pos++];
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (Pos >= T.size())
        return false;
      char E = T[Pos++];
      switch (E) {
      case 'n':
        Out += '\n';
        break;
      case 'r':
        Out += '\r';
        break;
      case 't':
        Out += '\t';
        break;
      case 'u': {
        if (Pos + 4 > T.size())
          return false;
        unsigned V = 0;
        for (int I = 0; I < 4; ++I) {
          char H = T[Pos++];
          V <<= 4;
          if (H >= '0' && H <= '9')
            V |= static_cast<unsigned>(H - '0');
          else if (H >= 'a' && H <= 'f')
            V |= static_cast<unsigned>(H - 'a' + 10);
          else if (H >= 'A' && H <= 'F')
            V |= static_cast<unsigned>(H - 'A' + 10);
          else
            return false;
        }
        // Bundle manifests only escape control bytes; anything else would
        // have been written raw UTF-8.
        Out += static_cast<char>(V & 0xFF);
        break;
      }
      default:
        Out += E; // \" \\ \/ and the rest map to themselves
      }
    }
    if (Pos >= T.size())
      return false;
    ++Pos; // closing quote
    return true;
  }
  bool value(Json &Out) {
    ws();
    if (Pos >= T.size())
      return false;
    char C = T[Pos];
    if (C == '{') {
      ++Pos;
      Out.K = Json::Obj;
      ws();
      if (Pos < T.size() && T[Pos] == '}') {
        ++Pos;
        return true;
      }
      while (true) {
        ws();
        std::string Key;
        if (!string(Key))
          return false;
        ws();
        if (Pos >= T.size() || T[Pos] != ':')
          return false;
        ++Pos;
        Json V;
        if (!value(V))
          return false;
        Out.O.emplace(std::move(Key), std::move(V));
        ws();
        if (Pos < T.size() && T[Pos] == ',') {
          ++Pos;
          continue;
        }
        break;
      }
      ws();
      if (Pos >= T.size() || T[Pos] != '}')
        return false;
      ++Pos;
      return true;
    }
    if (C == '[') {
      ++Pos;
      Out.K = Json::Arr;
      ws();
      if (Pos < T.size() && T[Pos] == ']') {
        ++Pos;
        return true;
      }
      while (true) {
        Json V;
        if (!value(V))
          return false;
        Out.A.push_back(std::move(V));
        ws();
        if (Pos < T.size() && T[Pos] == ',') {
          ++Pos;
          continue;
        }
        break;
      }
      ws();
      if (Pos >= T.size() || T[Pos] != ']')
        return false;
      ++Pos;
      return true;
    }
    if (C == '"') {
      Out.K = Json::Str;
      return string(Out.S);
    }
    if (C == 't')
      return lit("true", Out, Json::Bool, true);
    if (C == 'f')
      return lit("false", Out, Json::Bool, false);
    if (C == 'n')
      return lit("null", Out, Json::Null, false);
    // Number.
    size_t End = Pos;
    while (End < T.size() &&
           (std::isdigit(static_cast<unsigned char>(T[End])) || T[End] == '-' ||
            T[End] == '+' || T[End] == '.' || T[End] == 'e' || T[End] == 'E'))
      ++End;
    if (End == Pos)
      return false;
    Out.K = Json::Num;
    Out.N = std::strtod(T.c_str() + Pos, nullptr);
    Pos = End;
    return true;
  }

  const std::string &T;
  size_t Pos = 0;
};

//===----------------------------------------------------------------------===//
// Hex helpers
//===----------------------------------------------------------------------===//

std::string hex64(uint64_t V) {
  std::string S(16, '0');
  for (int I = 15; I >= 0; --I, V >>= 4)
    S[static_cast<size_t>(I)] = "0123456789abcdef"[V & 0xF];
  return S;
}

bool parseHex64(const std::string &S, size_t At, uint64_t &Out) {
  Out = 0;
  for (size_t I = 0; I < 16; ++I) {
    if (At + I >= S.size())
      return false;
    char C = S[At + I];
    Out <<= 4;
    if (C >= '0' && C <= '9')
      Out |= static_cast<uint64_t>(C - '0');
    else if (C >= 'a' && C <= 'f')
      Out |= static_cast<uint64_t>(C - 'a' + 10);
    else
      return false;
  }
  return true;
}

bool parseHash128(const std::string &Hex, support::Hash128 &Out) {
  return Hex.size() == 32 && parseHex64(Hex, 0, Out.Hi) &&
         parseHex64(Hex, 16, Out.Lo);
}

const char *statusName(uint8_t S) {
  switch (S) {
  case 0:
    return "active";
  case 1:
    return "stable";
  case 2:
    return "dead";
  case 3:
    return "faulted";
  }
  return "?";
}

Result<std::string> readFileBytes(const fs::path &P) {
  std::ifstream In(P, std::ios::binary);
  if (!In)
    return Result<std::string>::error(strf("cannot read ", P.string()));
  return std::string((std::istreambuf_iterator<char>(In)),
                     std::istreambuf_iterator<char>());
}

} // namespace

//===----------------------------------------------------------------------===//
// Manifest
//===----------------------------------------------------------------------===//

std::string manifestToJson(const ReplayBundle &B) {
  std::string J;
  J += "{\n";
  J += strf("  \"schema\": ", B.Schema, ",\n");
  J += strf("  \"program\": ", jstr(B.Program), ",\n");
  J += strf("  \"abi_version\": ", B.AbiVersion, ",\n");
  J += strf("  \"compiler_id\": ", jstr(B.CompilerId), ",\n");
  J += strf("  \"git_sha\": ", jstr(B.GitSha), ",\n");
  J += "  \"compile\": {";
  J += strf("\"engine\": ", jstr(B.EngineNative ? "native" : "interp"), ", ");
  J += strf("\"double_precision\": ", B.DoublePrecision ? "true" : "false",
            ", ");
  J += strf("\"contract\": ", B.EnableContract ? "true" : "false", ", ");
  J += strf("\"value_numbering\": ",
            B.EnableValueNumbering ? "true" : "false", ", ");
  J += strf("\"extra_cxx_flags\": ", jstr(B.ExtraCxxFlags), "},\n");
  J += "  \"run\": {";
  J += strf("\"max_supersteps\": ", B.MaxSupersteps, ", ");
  J += strf("\"workers\": ", B.NumWorkers, ", ");
  J += strf("\"block_size\": ", B.BlockSize, "},\n");
  J += "  \"policy\": {";
  J += strf("\"deadline_ns\": ", B.DeadlineNs, ", ");
  J += strf("\"max_faults\": ", B.MaxFaults, ", ");
  J += strf("\"watchdog_steps\": ", B.WatchdogSteps, ", ");
  J += strf("\"strict_fp\": ", B.StrictFp ? "true" : "false", ", ");
  J += "\"plan\": [";
  for (size_t I = 0; I < B.Plan.size(); ++I)
    J += strf(I ? ", " : "", "{\"strand\": ", B.Plan[I].Strand,
              ", \"step\": ", B.Plan[I].Step, ", \"kind\": ", B.Plan[I].Kind,
              "}");
  J += "]},\n";
  J += "  \"inputs\": [";
  for (size_t I = 0; I < B.Inputs.size(); ++I) {
    const RecordedInput &In = B.Inputs[I];
    J += strf(I ? ", " : "", "{\"name\": ", jstr(In.Name),
              ", \"text\": ", jstr(In.Text),
              ", \"file\": ", In.IsFile ? "true" : "false", "}");
  }
  J += "],\n";
  J += "  \"slots\": [";
  for (size_t I = 0; I < B.SlotNames.size(); ++I)
    J += strf(I ? ", " : "", jstr(B.SlotNames[I]));
  J += "],\n";
  J += strf("  \"outcome\": ", jstr(B.Outcome), ",\n");
  J += strf("  \"steps\": ", B.Steps, ",\n");
  J += strf("  \"num_strands\": ", B.NumStrands, ",\n");
  J += strf("  \"output_digest\": ", jstr(B.OutputDigest), ",\n");
  J += strf("  \"digest_entries\": ", B.Digests.Entries.size(), "\n");
  J += "}\n";
  return J;
}

Status manifestFromJson(const std::string &Text, ReplayBundle &B) {
  Json Root;
  if (!JsonParser(Text).parse(Root) || Root.K != Json::Obj)
    return Status::error("malformed bundle manifest");
  B.Schema = static_cast<int>(Root.num("schema", 0));
  if (B.Schema != ReplaySchemaVersion)
    return Status::error(strf("unsupported bundle schema ", B.Schema,
                              " (this build reads schema ",
                              ReplaySchemaVersion, ")"));
  B.Program = Root.str("program", "program");
  B.AbiVersion = static_cast<int>(Root.num("abi_version", 0));
  B.CompilerId = Root.str("compiler_id");
  B.GitSha = Root.str("git_sha");
  if (const Json *C = Root.get("compile")) {
    B.EngineNative = C->str("engine", "native") == "native";
    B.DoublePrecision = C->flag("double_precision");
    B.EnableContract = C->flag("contract", true);
    B.EnableValueNumbering = C->flag("value_numbering", true);
    B.ExtraCxxFlags = C->str("extra_cxx_flags");
  }
  if (const Json *R = Root.get("run")) {
    B.MaxSupersteps = static_cast<int>(R->num("max_supersteps", 1));
    B.NumWorkers = static_cast<int>(R->num("workers", 0));
    B.BlockSize = static_cast<int>(R->num("block_size", 0));
  }
  if (const Json *P = Root.get("policy")) {
    B.DeadlineNs = P->num("deadline_ns", 0);
    B.MaxFaults = P->num("max_faults", -1);
    B.WatchdogSteps = static_cast<int>(P->num("watchdog_steps", 0));
    B.StrictFp = P->flag("strict_fp");
    B.Plan.clear();
    if (const Json *Pl = P->get("plan"); Pl && Pl->K == Json::Arr)
      for (const Json &E : Pl->A) {
        ReplayBundle::PlannedFaultRec F;
        F.Strand = static_cast<uint64_t>(E.num("strand", 0));
        F.Step = static_cast<int>(E.num("step", 0));
        F.Kind = static_cast<int>(E.num("kind", 0));
        B.Plan.push_back(F);
      }
  }
  B.Inputs.clear();
  if (const Json *In = Root.get("inputs"); In && In->K == Json::Arr)
    for (const Json &E : In->A) {
      RecordedInput RI;
      RI.Name = E.str("name");
      RI.Text = E.str("text");
      RI.IsFile = E.flag("file");
      B.Inputs.push_back(std::move(RI));
    }
  B.SlotNames.clear();
  if (const Json *Sl = Root.get("slots"); Sl && Sl->K == Json::Arr)
    for (const Json &E : Sl->A)
      B.SlotNames.push_back(E.S);
  B.Outcome = Root.str("outcome");
  B.Steps = static_cast<int>(Root.num("steps", 0));
  B.NumStrands = Root.num("num_strands", 0);
  B.OutputDigest = Root.str("output_digest");
  return Status::ok();
}

//===----------------------------------------------------------------------===//
// Digest and state streams
//===----------------------------------------------------------------------===//

std::string digestsToTsv(const DigestLog &L) {
  std::string Out;
  for (size_t I = 0; I < L.Entries.size(); ++I)
    Out += strf(I, '\t', L.Entries[I].hex(), '\n');
  return Out;
}

Status digestsFromTsv(const std::string &Text, DigestLog &L) {
  L.Entries.clear();
  for (const std::string &Line : splitString(Text, '\n')) {
    if (Line.empty())
      continue;
    std::vector<std::string> Cols = splitString(Line, '\t');
    support::Hash128 H;
    if (Cols.size() != 2 || !parseHash128(Cols[1], H))
      return Status::error(strf("malformed digest line: '", Line, "'"));
    L.Entries.push_back(H);
  }
  return Status::ok();
}

std::string statesToTsv(const DigestLog &L) {
  std::string Out;
  if (!L.HasStates)
    return Out;
  size_t Strands = static_cast<size_t>(L.NumStrands);
  size_t Slots = static_cast<size_t>(L.NumSlots);
  Out += strf("# ", L.Entries.size(), ' ', Strands, ' ', Slots, '\n');
  for (size_t E = 0; E < L.Entries.size(); ++E)
    for (size_t S = 0; S < Strands; ++S) {
      Out += strf(E, '\t', S, '\t',
                  static_cast<int>(L.Status[E * Strands + S]));
      for (size_t K = 0; K < Slots; ++K)
        Out += strf('\t', hex64(L.Slots[(E * Strands + S) * Slots + K]));
      Out += '\n';
    }
  return Out;
}

Status statesFromTsv(const std::string &Text, DigestLog &L) {
  std::vector<std::string> Lines = splitString(Text, '\n');
  size_t At = 0;
  while (At < Lines.size() && Lines[At].empty())
    ++At;
  if (At >= Lines.size() || Lines[At].empty() || Lines[At][0] != '#')
    return Status::error("state log missing '# entries strands slots' header");
  std::vector<std::string> Hdr = splitString(Lines[At].substr(1), ' ');
  std::vector<int64_t> Dims;
  for (const std::string &H : Hdr)
    if (!H.empty())
      Dims.push_back(std::atoll(H.c_str()));
  if (Dims.size() != 3 || Dims[0] < 0 || Dims[1] < 0 || Dims[2] < 0)
    return Status::error("malformed state log header");
  size_t Entries = static_cast<size_t>(Dims[0]);
  size_t Strands = static_cast<size_t>(Dims[1]);
  size_t Slots = static_cast<size_t>(Dims[2]);
  if (!L.Entries.empty() && L.Entries.size() != Entries)
    return Status::error("state log entry count disagrees with digests");
  L.NumStrands = Dims[1];
  L.NumSlots = Dims[2];
  L.Status.assign(Entries * Strands, 0);
  L.Slots.assign(Entries * Strands * Slots, 0);
  for (++At; At < Lines.size(); ++At) {
    const std::string &Line = Lines[At];
    if (Line.empty())
      continue;
    std::vector<std::string> Cols = splitString(Line, '\t');
    if (Cols.size() != 3 + Slots)
      return Status::error(strf("malformed state line: '", Line, "'"));
    size_t E = static_cast<size_t>(std::atoll(Cols[0].c_str()));
    size_t S = static_cast<size_t>(std::atoll(Cols[1].c_str()));
    if (E >= Entries || S >= Strands)
      return Status::error(strf("state line out of range: '", Line, "'"));
    L.Status[E * Strands + S] =
        static_cast<uint8_t>(std::atoi(Cols[2].c_str()));
    for (size_t K = 0; K < Slots; ++K)
      if (!parseHex64(Cols[3 + K], 0, L.Slots[(E * Strands + S) * Slots + K]))
        return Status::error(strf("malformed slot bits: '", Line, "'"));
  }
  L.HasStates = true;
  return Status::ok();
}

//===----------------------------------------------------------------------===//
// Bundle I/O
//===----------------------------------------------------------------------===//

Status writeBundle(const std::string &Dir, const ReplayBundle &B,
                   const std::map<std::string, std::string> &InputFiles) {
  std::error_code EC;
  fs::create_directories(Dir, EC);
  if (EC)
    return Status::error(strf("cannot create bundle directory ", Dir));
  // Inputs and streams first, manifest last: a reader that sees a manifest
  // sees a complete bundle (each file itself is published atomically).
  for (const auto &[Name, Bytes] : InputFiles) {
    Status S = support::writeFileAtomic((fs::path(Dir) / Name).string(), Bytes);
    if (!S.isOk())
      return S;
  }
  Status S = support::writeFileAtomic(
      (fs::path(Dir) / bundleSourceFile()).string(), B.Source);
  if (!S.isOk())
    return S;
  S = support::writeFileAtomic((fs::path(Dir) / bundleDigestsFile()).string(),
                               digestsToTsv(B.Digests));
  if (!S.isOk())
    return S;
  if (B.Digests.HasStates) {
    S = support::writeFileAtomic((fs::path(Dir) / bundleStatesFile()).string(),
                                 statesToTsv(B.Digests));
    if (!S.isOk())
      return S;
  }
  return support::writeFileAtomic(
      (fs::path(Dir) / bundleManifestFile()).string(), manifestToJson(B));
}

Result<ReplayBundle> readBundle(const std::string &Dir) {
  using RB = Result<ReplayBundle>;
  Result<std::string> Manifest = readFileBytes(fs::path(Dir) / bundleManifestFile());
  if (!Manifest.isOk())
    return RB::error(Manifest.message());
  ReplayBundle B;
  Status S = manifestFromJson(*Manifest, B);
  if (!S.isOk())
    return RB::error(S.message());
  Result<std::string> Src = readFileBytes(fs::path(Dir) / bundleSourceFile());
  if (!Src.isOk())
    return RB::error(Src.message());
  B.Source = *Src;
  Result<std::string> Dig = readFileBytes(fs::path(Dir) / bundleDigestsFile());
  if (!Dig.isOk())
    return RB::error(Dig.message());
  S = digestsFromTsv(*Dig, B.Digests);
  if (!S.isOk())
    return RB::error(S.message());
  B.Digests.NumStrands = B.NumStrands;
  B.Digests.NumSlots = static_cast<int64_t>(B.SlotNames.size());
  if (fs::exists(fs::path(Dir) / bundleStatesFile())) {
    Result<std::string> St = readFileBytes(fs::path(Dir) / bundleStatesFile());
    if (!St.isOk())
      return RB::error(St.message());
    S = statesFromTsv(*St, B.Digests);
    if (!S.isOk())
      return RB::error(S.message());
  }
  return B;
}

//===----------------------------------------------------------------------===//
// Divergence diagnosis
//===----------------------------------------------------------------------===//

Divergence diagnoseDivergence(const ReplayBundle &B,
                              const DigestLog &Replayed) {
  const DigestLog &Rec = B.Digests;
  Divergence D;
  size_t Common = std::min(Rec.Entries.size(), Replayed.Entries.size());
  size_t FirstBad = Common;
  for (size_t I = 0; I < Common; ++I)
    if (Rec.Entries[I] != Replayed.Entries[I]) {
      FirstBad = I;
      break;
    }
  if (FirstBad == Common) {
    if (Rec.Entries.size() == Replayed.Entries.size()) {
      D.Summary = strf("replay matches: all ", Rec.Entries.size(),
                       " digest entries identical");
      return D;
    }
    D.Diverged = true;
    D.Summary = strf("digest streams agree for ", Common,
                     " entries but lengths differ (recorded ",
                     Rec.Entries.size(), ", replayed ",
                     Replayed.Entries.size(),
                     "): superstep counts diverged");
    return D;
  }
  D.Diverged = true;
  D.Superstep = static_cast<int>(FirstBad);
  std::string Where =
      FirstBad == 0
          ? std::string("the post-initialize state (entry 0): inputs or "
                        "strand creation differ")
          : strf("superstep ", FirstBad);
  D.Summary = strf("first divergence at ", Where, "; recorded digest ",
                   Rec.Entries[FirstBad].hex(), ", replayed ",
                   Replayed.Entries[FirstBad].hex());

  // With state logs on both sides, pinpoint the strand and slot.
  if (!Rec.HasStates || !Replayed.HasStates ||
      Rec.NumStrands != Replayed.NumStrands ||
      Rec.NumSlots != Replayed.NumSlots)
    return D;
  size_t Strands = static_cast<size_t>(Rec.NumStrands);
  size_t Slots = static_cast<size_t>(Rec.NumSlots);
  size_t E = FirstBad;
  if ((E + 1) * Strands > Rec.Status.size() ||
      (E + 1) * Strands > Replayed.Status.size())
    return D;
  for (size_t S = 0; S < Strands; ++S) {
    uint8_t WantSt = Rec.Status[E * Strands + S];
    uint8_t GotSt = Replayed.Status[E * Strands + S];
    if (WantSt != GotSt) {
      D.Strand = static_cast<int64_t>(S);
      D.StatusDiffers = true;
      D.WantStatus = WantSt;
      D.GotStatus = GotSt;
      D.Summary += strf("; first divergent strand ", S, ": status ",
                        statusName(WantSt), " recorded vs ",
                        statusName(GotSt), " replayed");
      return D;
    }
    for (size_t K = 0; K < Slots; ++K) {
      uint64_t Want = Rec.Slots[(E * Strands + S) * Slots + K];
      uint64_t Got = Replayed.Slots[(E * Strands + S) * Slots + K];
      if (Want == Got)
        continue;
      D.Strand = static_cast<int64_t>(S);
      D.Slot = static_cast<int>(K);
      D.SlotName =
          K < B.SlotNames.size() ? B.SlotNames[K] : strf("slot", K);
      D.WantBits = Want;
      D.GotBits = Got;
      D.Summary += strf("; first divergent strand ", S, ", field '",
                        D.SlotName, "': recorded ",
                        std::bit_cast<double>(Want), " (bits ", hex64(Want),
                        "), replayed ", std::bit_cast<double>(Got),
                        " (bits ", hex64(Got), ")");
      return D;
    }
  }
  D.Summary += "; per-strand states are equal — digests differ only in "
               "stream length or a hashing mismatch";
  return D;
}

Result<std::string> dumpStrand(const ReplayBundle &B, int64_t Strand,
                               int Entry) {
  using RS = Result<std::string>;
  const DigestLog &L = B.Digests;
  if (!L.HasStates)
    return RS::error("bundle has no state log (recorded without "
                     "per-strand states)");
  size_t Strands = static_cast<size_t>(L.NumStrands);
  size_t Slots = static_cast<size_t>(L.NumSlots);
  if (Strand < 0 || static_cast<size_t>(Strand) >= Strands)
    return RS::error(strf("strand ", Strand, " out of range (", Strands,
                          " strands)"));
  if (Entry < 0 || static_cast<size_t>(Entry) >= L.Entries.size())
    return RS::error(strf("superstep entry ", Entry, " out of range (",
                          L.Entries.size(), " entries; 0 = post-initialize)"));
  size_t Base =
      (static_cast<size_t>(Entry) * Strands + static_cast<size_t>(Strand));
  std::string Out = strf(
      "strand ", Strand, " at ",
      Entry == 0 ? std::string("entry 0 (post-initialize)")
                 : strf("superstep ", Entry),
      ":\n  status = ", statusName(L.Status[Base]), "\n");
  for (size_t K = 0; K < Slots; ++K) {
    uint64_t Bits = L.Slots[Base * Slots + K];
    std::string Name =
        K < B.SlotNames.size() ? B.SlotNames[K] : strf("slot", K);
    Out += strf("  ", Name, " = ", std::bit_cast<double>(Bits), " (bits ",
                hex64(Bits), ")\n");
  }
  return Out;
}

} // namespace diderot::observe
