"""Starts the benchmarked commands on behalf of run.py and reports their
wall time, their time in reference seconds, exit code and peak resident set.

Peak RSS: on Linux a child's ru_maxrss also counts the memory of the
process that forked it, up to the child's exec. run.py holds the generated
vectors, so it hands every command to this small process instead (no
numpy here), which keeps the reported peak that of the program alone.

Reference seconds: the CPU speed of the VM this benchmark was built on
drifts by up to 2x within a second and by 20-40% between minutes, whatever
the benchmark does (README.md). So every PERIOD_S the command is stopped
(SIGSTOP), a fixed probe is timed on the same CPU, and the command is
continued (SIGCONT). The probe parses PROBE_LINES JSON lines of 768 floats,
the kind of work that dominates the program. Each stretch of the command's
run between two probes counts as its wall x (REFERENCE_PROBE_S / the mean
of the two probe times) ** SENSITIVITY. The program slows less than the
probe when the machine slows: over ten seeds of each workload, JSON-bound
commands (setup, augment) followed the probe with a power near 1 and
numpy-bound ones (large-store predict and ablate) near 0.6; SENSITIVITY
is the power that gave the smallest largest spread over all end-to-end
metrics (README.md). The stopped intervals are in neither the wall nor the
reference time.

Protocol: one JSON request per stdin line,
{"argv", "cwd", "env", "stderr", "timeout"}, answered by one JSON line
{"wall", "ref_wall", "code", "maxrss_kb"}. The process ends when
stdin closes.
"""

import json
import os
import random
import select
import signal
import subprocess
import sys
import time

PERIOD_S = 0.2
PROBE_LINES = 10
REFERENCE_PROBE_S = 0.0025  # the probe on a fast CPU of the VM of README.md
SENSITIVITY = 0.8


class Probe:
    def __init__(self):
        rng = random.Random(0)
        self.lines = [json.dumps([rng.gauss(0.0, 1.0) for _ in range(768)]) for _ in range(400)]
        self.pos = 0

    def sample(self) -> float:
        start = time.perf_counter()
        for line in self.lines[self.pos:self.pos + PROBE_LINES]:
            json.loads(line)
        self.pos = (self.pos + PROBE_LINES) % len(self.lines)
        return time.perf_counter() - start


def run(request: dict, probe: Probe) -> dict:
    wall = ref_wall = 0.0
    with open(request["stderr"], "wb") as err:
        last_probe = probe.sample()
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], cwd=request["cwd"], env=request["env"],
                                stdout=subprocess.DEVNULL, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        try:
            while True:
                ended = select.select([pidfd], [], [], PERIOD_S)[0]
                if not ended:
                    os.kill(proc.pid, signal.SIGSTOP)
                _, status, usage = os.wait4(proc.pid, 0 if ended else os.WUNTRACED)
                stretch = time.perf_counter() - start
                stopped = os.WIFSTOPPED(status)
                if stopped and wall + stretch > request["timeout"]:
                    os.kill(proc.pid, signal.SIGKILL)
                    os.kill(proc.pid, signal.SIGCONT)
                    _, status, usage = os.wait4(proc.pid, 0)
                    stopped = False
                now_probe = probe.sample()
                wall += stretch
                ref_wall += stretch * (2 * REFERENCE_PROBE_S / (last_probe + now_probe)) ** SENSITIVITY
                last_probe = now_probe
                if not stopped:
                    break
                start = time.perf_counter()
                os.kill(proc.pid, signal.SIGCONT)
        finally:
            os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "ref_wall": ref_wall, "code": proc.returncode,
            "maxrss_kb": usage.ru_maxrss}


def main() -> None:
    probe = Probe()
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line), probe)), flush=True)


if __name__ == "__main__":
    main()
