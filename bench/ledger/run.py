#!/usr/bin/env python3
"""Build and run the layer ledger (bench/ledger/README.md).

  run.py --workload W --seed N [--seconds S] [--trace 0|1]
      Build the ledger if needed, run workload W once and print its metric
      lines; the last line is the result object.
  run.py --seed N [--seconds S]
      Every workload, untraced then traced, each in its own process. Prints
      every metric line and writes BENCH_ledger.json and LEDGER_trace.*.json.
  run.py --smoke [--ledger BIN]
      Tiny sizes: every metric named in BENCHMARK.json must be emitted with a
      finite value and every output check must pass (ctest ledger_smoke).
  run.py --compare BASE.json... --new NEW.json...
      Noise-aware comparison of BENCH_ledger.json runs made in alternating
      pairs (base, new, base, new, ...).

Run from the repository root. The build goes to $CARGO_TARGET_DIR/ledger
(default .bench_build/ledger); compile caches and temporary files stay under
the same directory.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKLOADS = ["illust-vr", "ridge3d", "lic2d", "serve-warm"]
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"ledger: {msg}", file=sys.stderr)
    sys.exit(2)


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build_dir():
    return os.path.join(target_dir(), "ledger")


def build():
    """Configure and build the ledger target; return the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no diderot-cpp sources under {ROOT}")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"] + gen,
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", "ledger", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, "ledger")


def child_env():
    """Temporary files of the host compiler and of the ledger stay in the
    build directory."""
    tmp = os.path.join(build_dir(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def run_ledger(ledger, args, echo=True):
    """Run the ledger once; return (exit code, result object or None,
    standard output lines)."""
    work = os.path.join(target_dir(), "ledger-work")
    proc = subprocess.run([ledger] + args + ["--work-dir", work], cwd=ROOT,
                          env=child_env(),
                          stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if echo:
        print("\n".join(lines[:-1]), flush=True)
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return proc.returncode, result, lines


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def git_sha():
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def compiler_id():
    cxx = os.environ.get("CXX", "c++")
    try:
        out = subprocess.run([cxx, "--version"], capture_output=True, text=True)
        return out.stdout.splitlines()[0]
    except (OSError, IndexError):
        return "unknown"


def all_workloads(ledger, seed, seconds):
    record = {"bench": "ledger",
              "meta": {"hostname": platform.node(), "nproc": os.cpu_count(),
                       "compiler": compiler_id(), "git_sha": git_sha(),
                       "seed": seed, "seconds": seconds, "sizes": {}},
              "workloads": {}}
    ok = True
    for w in WORKLOADS:
        entry = {"metrics": {}, "attempted": 0, "failed": 0}
        for trace in ("0", "1"):
            rc, result, lines = run_ledger(ledger, ["--workload", w, "--seed",
                                                    str(seed), "--seconds",
                                                    str(seconds), "--trace",
                                                    trace])
            for line in lines:
                if line.startswith(f"{w} sizes "):
                    record["meta"]["sizes"][w] = line[len(w) + 7:]
            if rc != 0 or result is None:
                ok = False
                print(f"ledger: {w} --trace {trace} exited {rc}", file=sys.stderr)
                continue
            entry["metrics"].update(result["metrics"])
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            if trace == "1":
                os.replace(os.path.join(ROOT, "LEDGER_trace.json"),
                           os.path.join(ROOT, f"LEDGER_trace.{w}.json"))
        record["workloads"][w] = entry
    with open(os.path.join(ROOT, "BENCH_ledger.json"), "w") as f:
        json.dump(record, f, indent=1)
    print("wrote BENCH_ledger.json", file=sys.stderr)
    return 0 if ok else 1


def smoke(ledger):
    spec = benchmark_spec()
    wanted = {"0": [m["name"] for m in spec["end_to_end"]],
              "1": [m["name"] for m in spec["per_layer"]]}
    bad = []
    for w in WORKLOADS:
        for trace, names in wanted.items():
            rc, result, lines = run_ledger(ledger, ["--workload", w, "--seed", "1",
                                                    "--seconds", "1", "--trace",
                                                    trace, "--smoke"], echo=False)
            if rc != 0 or result is None:
                bad.append(f"{w} --trace {trace}: exit {rc}: "
                           + (lines[-1] if lines else "no output"))
                continue
            if not result["correct"] or result["failed"]:
                bad.append(f"{w} --trace {trace}: {result['failed']} checks failed")
            got = result["metrics"]
            for n in names:
                v = got.get(n, {}).get("value")
                if not isinstance(v, (int, float)) or not math.isfinite(v):
                    bad.append(f"{w} --trace {trace}: metric {n} missing or "
                               "not finite")
            extra = set(got) - set(names)
            if extra:
                bad.append(f"{w} --trace {trace}: unlisted metrics "
                           f"{sorted(extra)}")
    for b in bad:
        print("ledger smoke: " + b, file=sys.stderr)
    print(f"ledger smoke: {'FAIL' if bad else 'ok'}")
    return 1 if bad else 0


def compare(base_files, new_files):
    """At least ten alternating pairs. A gain needs a win in at least nine
    pairs of ten and a median difference beyond the base's own quartile
    spread; otherwise a metric whose base spread exceeds its bound is
    unresolved, and one whose median is worse by more than its bound is a
    regression."""
    if len(base_files) != len(new_files) or len(base_files) < 10:
        fail("--compare needs at least 10 BASE and as many NEW files")
    spec = benchmark_spec()
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    def load(path):
        with open(path) as f:
            return json.load(f)["workloads"]

    base = [load(p) for p in base_files]
    new = [load(p) for p in new_files]
    regressed = False
    print(f"{'workload':<11} {'metric':<32} {'base p50 [q1,q3]':>30} "
          f"{'new p50 [q1,q3]':>30} {'wins':>6}  verdict")
    for w in WORKLOADS:
        for name, m in metrics.items():
            pairs = [(b[w]["metrics"][name]["value"], n[w]["metrics"][name]["value"])
                     for b, n in zip(base, new)
                     if name in b.get(w, {}).get("metrics", {})
                     and name in n.get(w, {}).get("metrics", {})]
            if len(pairs) < 10:
                continue
            bv = [p[0] for p in pairs]
            nv = [p[1] for p in pairs]
            bq = statistics.quantiles(bv, n=4)
            nq = statistics.quantiles(nv, n=4)
            bmed, nmed = statistics.median(bv), statistics.median(nv)
            sign = 1 if m["better"] == "higher" else -1
            wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
            spread = (bq[2] - bq[0]) / abs(bmed) if bmed else 0.0
            worse = sign * (bmed - nmed) / abs(bmed) if bmed else 0.0
            bound = m.get("bound")
            if wins >= 0.9 * len(pairs) and abs(nmed - bmed) > bq[2] - bq[0]:
                verdict = "gain"
            elif bound is not None and spread > bound:
                verdict = "unresolved"
            elif bound is not None and worse > bound:
                verdict = "REGRESSION"
                regressed = True
            else:
                verdict = "same"
            b_txt = f"{bmed:.5g} [{bq[0]:.4g}, {bq[2]:.4g}]"
            n_txt = f"{nmed:.5g} [{nq[0]:.4g}, {nq[2]:.4g}]"
            print(f"{w:<11} {name:<32} {b_txt:>30} {n_txt:>30} "
                  f"{wins:>3}/{len(pairs):<3} {verdict}")
    return 1 if regressed else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--ledger", help="a built ledger binary (skips the build)")
    p.add_argument("--compare", nargs="+", metavar="BASE")
    p.add_argument("--new", nargs="+", metavar="NEW")
    a = p.parse_args()

    if a.compare:
        return compare(a.compare, a.new or [])
    ledger = a.ledger or build()
    if a.smoke:
        return smoke(ledger)
    if a.seed is None:
        fail("--seed is required")
    if a.workload is None:
        return all_workloads(ledger, a.seed, a.seconds)
    rc, _, lines = run_ledger(ledger, ["--workload", a.workload, "--seed",
                                       str(a.seed), "--seconds", str(a.seconds),
                                       "--trace", a.trace], echo=False)
    print("\n".join(lines), flush=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())
