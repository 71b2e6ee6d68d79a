"""The benchmark command: one workload, one JSON result line.

    python3 benchmarks/e2e/run.py --workload churn --seed 1 --seconds 12 --trace 0

Prints progress lines, then — last — one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end set, or the
per-layer set with ``--trace 1``).  ``--detail PATH`` also writes the
full result: operation tallies, audit, exact counts, span table and
the bounded raw-span sample.
"""

from __future__ import annotations

import argparse
import ctypes
import faulthandler
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))

#: A healthy run ends in well under a minute.  One that has not ended
#: by now is hung inside the program (it has happened: README, "Known
#: defects"); dump every thread's stack and exit non-zero, without a
#: result line, rather than outlive the caller's limit.
WATCHDOG_S = 170


#: ``personality(2)`` flag: no address-space layout randomisation.
ADDR_NO_RANDOMIZE = 0x0040000


def _fix_address_space() -> None:
    """Ask the kernel for the same memory layout on every exec.  Where
    that is not possible the run goes ahead with a random one."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        persona = libc.personality(0xFFFFFFFF)
        if persona != -1:
            libc.personality(persona | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def _bootstrap() -> None:
    """Same process state on every run: one CPU, a fixed hash seed (set
    and dict iteration order inside the program must repeat), a fixed
    memory layout, and the checkout's ``src`` and root on the import
    path.

    One CPU, because under the interpreter lock the program cannot use
    a second one, and on a small guest waking a thread on the other
    vCPU was the largest source of tail noise (README, "Process
    state"); a fixed layout, because cache and TLB aliasing moved the
    microsecond-scale latencies of ``commuter`` from run to run."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        _fix_address_space()
        os.execv(sys.executable, [sys.executable, *sys.argv])
    for path in (os.path.join(REPO_ROOT, "src"), REPO_ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--detail", default=None, help="write the full result here")
    args = parser.parse_args(argv)

    _bootstrap()
    faulthandler.dump_traceback_later(WATCHDOG_S, exit=True)
    from benchmarks.e2e import harness
    from benchmarks.e2e.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    detail = harness.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    if args.detail:
        harness.write_detail(detail, args.detail)
    for line in detail["violations"]:
        print(f"VIOLATION: {line}", file=sys.stderr)
    faulthandler.cancel_dump_traceback_later()
    print(harness.contract_line(detail))
    return 0


if __name__ == "__main__":
    sys.exit(main())
