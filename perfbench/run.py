"""Run one moefix benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload {train,correct,eval} --seed N --seconds S --trace {0,1}

Run it from a checkout of the repository: it imports moefix from ``src/`` next
to this directory and exits with code 2 when that is missing. ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones. The exit code
is 1 when an output check fails. A full report (run context, checks, aliases,
self times) goes to ``perfbench/out/``; spans of a traced run go there too.
"""
import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
# numpy reads the cap when it loads, so it is set before anything imports numpy.
# One thread: on a shared 2-core host, in interleaved runs of train, two BLAS
# threads were about 15% faster but spread almost three times as much from run
# to run (quartile spread over seeds 0.078 against 0.028).
BLAS_THREAD_CAP = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _show(label: str, value, unit: str) -> None:
    print(f"  {label:<44} {value:>14.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=("train", "correct", "eval"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "moefix", "__init__.py")):
        print(f"error: moefix sources not found under {SRC}", file=sys.stderr)
        return 2

    threads = str(min(BLAS_THREAD_CAP, len(os.sched_getaffinity(0))))
    for var in BLAS_ENV:
        os.environ[var] = threads
    sys.path.insert(0, SRC)
    import bench

    result, report = bench.run(args.workload, args.seed, args.seconds, bool(args.trace),
                               out_dir=OUT, started=STARTED)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    ctx = report["context"]
    print(f"moefix benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"  context: git {ctx['git_sha']}, numpy {ctx['numpy']}, {ctx['blas']}, "
          f"blas threads {ctx['blas_threads']} (nproc {ctx['nproc']}), python {ctx['python']}")
    print(f"  ops: attempted {result['attempted']}, "
          f"succeeded {result['attempted'] - result['failed']}, failed {result['failed']}")
    for label, (value, unit) in report.get("aliases", {}).items():
        _show(label, value, unit)
    for name, m in result["metrics"].items():
        _show(name, m["value"], m["unit"])
    if args.trace:
        print("  self time by span (workload ops):")
        top = sorted(report["self_times"].items(), key=lambda kv: -kv[1]["self_ms"])
        for name, st in top:
            print(f"    {name:<34} {st['calls']:>8} calls {st['self_ms']:>12.1f} ms")
    for problem in report["problems"]:
        print(f"  CHECK FAILED: {problem}")
    for error in report["errors"]:
        print(error, file=sys.stderr)
    print(f"  report: {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
