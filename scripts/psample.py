#!/usr/bin/env python3
"""psample: a stdlib-only sampling profiler for the simulator's binaries.

Spawns the command given after `--` and stops it about HZ (1000) times a
second with ptrace (PTRACE_SEIZE, then PTRACE_INTERRUPT / PTRACE_GETREGS /
PTRACE_CONT per sample), walks its stack through the frame-pointer chain read
from /proc/<pid>/mem, and resolves every address once at the end with
`addr2line -a -i -f -C`, inlined frames included. A sample stopped in a
shared library (glibc keeps no frame pointers) is charged to its caller: the
first of the SCAN (64) stack words above RSP that points into the
executable's code is taken as the library call's return address, and the
frame-pointer walk resumes at the first frame record above it; the header
counts these samples. It prints five tables:

* self       -- samples by the innermost frame of the sampled instruction;
* self in crates/ -- samples charged to the innermost frame whose file path
  contains FOCUS (`crates/`), walking out through inlined frames and then
  callers, so a sample in an inlined `core::ptr::read` counts against the
  simulator line that called it (with no such frame, to the innermost frame
  that has a source line);
* lines      -- the same charge by `file:line`;
* hot instructions -- sampled instruction addresses, with their location
  (and the instruction itself under `--disasm`, via objdump);
* inclusive in crates/ -- samples in which a function of a FOCUS file
  appears anywhere on the stack.

x86_64 Linux only. The target needs frame pointers and line tables, built in
a target directory of its own so the normal build is untouched:

    RUSTFLAGS="-C force-frame-pointers=yes" \\
    CARGO_PROFILE_RELEASE_DEBUG=line-tables-only \\
        cargo build --release -p aeolus-bench --target-dir target/psample
    python3 scripts/psample.py --seconds 1 -- \\
        target/psample/release/aeolus-bench --engine-only

The repo benchmark builds the same way with `--manifest-path
benchmark/Cargo.toml` (and `AEOLUS_BENCHMARK_DIR=benchmark` when run); note
that building it rewrites `benchmark/Cargo.lock`.

The command's stdout is sent to this script's stderr, so the report alone is
on stdout. With `--seconds` the command is killed when the time is up. Exit
status: 0, or 1 when `--require` finds no sample in a matching file, or 3
when ptrace or a needed binutils tool is unavailable here (the message says
why).
"""

import argparse
import collections
import ctypes
import os
import platform
import shutil
import signal
import struct
import subprocess
import sys
import time

HZ = 1000.0
DEPTH = 128
SCAN = 64
# A frame record lies at most this far above the return address found by
# the scan.
SPAN = 1 << 20
FOCUS = "crates/"

PTRACE_CONT = 7
PTRACE_GETREGS = 12
PTRACE_SEIZE = 0x4206
PTRACE_INTERRUPT = 0x4207
PTRACE_EVENT_STOP = 128
WALL = 0x40000000

# Offsets into x86_64 `struct user_regs_struct` (27 unsigned longs).
REG_RBP, REG_RIP, REG_RSP, NREGS = 4, 16, 19, 27

SKIP = 3


class Ptrace:
    def __init__(self):
        libc = ctypes.CDLL(None, use_errno=True)
        self.fn = libc.ptrace
        self.fn.argtypes = [ctypes.c_long, ctypes.c_int, ctypes.c_void_p, ctypes.c_void_p]
        self.fn.restype = ctypes.c_long

    def __call__(self, req, pid, addr=0, data=0):
        if self.fn(req, pid, ctypes.c_void_p(addr), ctypes.c_void_p(data)) == -1:
            err = ctypes.get_errno()
            raise OSError(err, os.strerror(err))

    def regs(self, pid):
        buf = (ctypes.c_ulonglong * NREGS)()
        if self.fn(PTRACE_GETREGS, pid, None, ctypes.cast(buf, ctypes.c_void_p)) == -1:
            err = ctypes.get_errno()
            raise OSError(err, os.strerror(err))
        return buf[REG_RIP], buf[REG_RBP], buf[REG_RSP]


def walk(mem, rip, rbp):
    """The sampled instruction, then each return address minus one (so it
    resolves to the call instruction), following saved frame pointers."""
    frames = [rip]
    fp = rbp
    while len(frames) < DEPTH and fp and fp % 8 == 0:
        try:
            data = os.pread(mem, 16, fp)
        except OSError:
            break
        if len(data) < 16:
            break
        next_fp, ret = struct.unpack("<QQ", data)
        if ret == 0:
            break
        frames.append(ret - 1)
        if next_fp <= fp:
            break
        fp = next_fp
    return tuple(frames)


def inside(addr, ranges):
    return any(lo <= addr < hi for lo, hi in ranges)


def scan(mem, rsp, rbp, code):
    """For a sample stopped outside the executable: the return address of
    the library call -- the first of the SCAN words from RSP up that points
    into `code` (the executable's text) -- and the caller's frame record to
    resume the walk from. The caller's RBP is still in the register or was
    saved on the stack by whichever frame reused RBP, so the record is the
    first of RBP and the scanned words that lies above the return address
    and holds another return address into `code` (0 when none does). None
    when no scanned word points into `code`."""
    try:
        data = os.pread(mem, 8 * SCAN, rsp)
    except OSError:
        return None
    words = struct.unpack(f"<{len(data) // 8}Q", data[: len(data) // 8 * 8])
    at = next((i for i, w in enumerate(words) if inside(w, code)), None)
    if at is None:
        return None
    slot = rsp + 8 * at
    for fp in (w for w in (rbp,) + words if slot < w <= slot + SPAN and w % 8 == 0):
        try:
            ret = struct.unpack("<Q", os.pread(mem, 8, fp + 8))[0]
        except (OSError, struct.error):
            continue
        if inside(ret, code):
            return words[at], fp
    return words[at], 0


def wait_stop(pt, pid):
    """Block until `pid` is in a ptrace event stop; None once it has exited.
    Signals meant for the tracee are delivered on the way."""
    while True:
        _, status = os.waitpid(pid, WALL)
        if os.WIFEXITED(status) or os.WIFSIGNALED(status):
            return None
        if not os.WIFSTOPPED(status):
            continue
        if status >> 16 == PTRACE_EVENT_STOP:
            return status
        pt(PTRACE_CONT, pid, 0, os.WSTOPSIG(status))
        pt(PTRACE_INTERRUPT, pid)


def sample(child, seconds):
    pid = child.pid
    pt = Ptrace()
    try:
        pt(PTRACE_SEIZE, pid)
    except OSError as e:
        child.kill()
        child.wait()
        print(f"psample: skipped: ptrace(PTRACE_SEIZE) denied here: {e}", file=sys.stderr)
        sys.exit(SKIP)
    mem = os.open(f"/proc/{pid}/mem", os.O_RDONLY)
    stacks = collections.Counter()
    layout = None
    scanned = 0
    period = 1.0 / HZ
    start = time.monotonic()
    alive = True
    while alive:
        time.sleep(period)
        try:
            pt(PTRACE_INTERRUPT, pid)
        except OSError:
            pass  # exited since the last sample: waitpid reports it
        if wait_stop(pt, pid) is None:
            alive = False
            break
        try:
            rip, rbp, rsp = pt.regs(pid)
            # Read once the loader has mapped the shared libraries.
            layout = layout or exe_layout(pid)
            code = layout[3]
            found = None if inside(rip, code) else scan(mem, rsp, rbp, code)
            if found:
                ret, fp = found
                stacks[(rip,) + walk(mem, ret - 1, fp)] += 1
                scanned += 1
            else:
                stacks[walk(mem, rip, rbp)] += 1
        except OSError:
            pass
        if seconds is not None and time.monotonic() - start >= seconds:
            break
        pt(PTRACE_CONT, pid)
    elapsed = time.monotonic() - start
    os.close(mem)
    if alive:
        # Stopped by the clock, with the tracee in an event stop.
        child.kill()
        child.wait()
    return stacks, elapsed, layout, scanned


def exe_layout(pid):
    """(path of the executable, its load base, the other mappings, the
    address ranges of its code)."""
    exe = os.readlink(f"/proc/{pid}/exe")
    with open(exe, "rb") as f:
        e_type = struct.unpack("<H", f.read(18)[16:18])[0]
    base, others, code = None, [], []
    with open(f"/proc/{pid}/maps") as f:
        for line in f:
            parts = line.split()
            lo, hi = (int(x, 16) for x in parts[0].split("-"))
            path = parts[5] if len(parts) > 5 else ""
            if path == exe:
                if int(parts[2], 16) == 0 and (base is None or lo < base):
                    base = lo
                if "x" in parts[1]:
                    code.append((lo, hi))
            elif path:
                others.append((lo, hi, os.path.basename(path)))
    # ET_EXEC is linked at its final address; ET_DYN (PIE) is relocated.
    return exe, (base or 0) if e_type == 3 else 0, others, code


def symbolize(exe, offsets):
    """offset -> [(function, file, line)], innermost inlined frame first."""
    offsets = sorted(offsets)
    out = subprocess.run(
        ["addr2line", "-e", exe, "-a", "-i", "-f", "-C"],
        input="".join(f"{o:#x}\n" for o in offsets),
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    table, cur, i = {}, None, 0
    while i < len(out):
        line = out[i]
        if line.startswith("0x") and all(c in "0123456789abcdef" for c in line[2:]):
            cur = int(line, 16)
            table[cur] = []
            i += 1
            continue
        func = line
        loc = out[i + 1] if i + 1 < len(out) else "??:0"
        path, _, num = loc.rpartition(":")
        num = num.split()[0] if num else "0"
        table[cur].append((func, path, int(num) if num.isdigit() else 0))
        i += 2
    return table


def short(path):
    for mark in ("/crates/", "/library/", "/src/"):
        at = path.find(mark)
        if at >= 0:
            return path[at + 1:]
    return path


def disassemble(exe, off):
    out = subprocess.run(
        ["objdump", "-d", "--no-show-raw-insn", "-M", "intel",
         f"--start-address={off:#x}", f"--stop-address={off + 16:#x}", exe],
        capture_output=True, text=True,
    ).stdout
    for line in out.splitlines():
        head, _, rest = line.partition(":")
        if head.strip() == f"{off:x}":
            return " ".join(rest.split())
    return ""


def report(stacks, elapsed, pid_layout, scanned, args):
    exe, base, others, _ = pid_layout
    total = sum(stacks.values())

    def lib_of(addr):
        for lo, hi, name in others:
            if lo <= addr < hi:
                return f"[{name}]"
        return "[unknown]"

    offsets = {a - base for st in stacks for a in st}
    table = symbolize(exe, offsets)

    def chain(addr):
        frames = table.get(addr - base)
        if not frames or frames[0][0] == "??":
            return [(lib_of(addr), "", 0)]
        return frames

    self_fn, self_focus, lines, insns, incl = (collections.Counter() for _ in range(5))
    required = 0
    for st, n in stacks.items():
        chains = [chain(a) for a in st]
        inner = chains[0][0]
        self_fn[inner[0]] += n
        # Else the innermost frame with a source line: a library sample's
        # caller in the executable.
        resolved = next((ch[0] for ch in chains if ch[0][1]), inner)
        charged = next((fr for ch in chains for fr in ch if FOCUS in fr[1]), resolved)
        self_focus[charged[0]] += n
        lines[f"{short(charged[1])}:{charged[2]}" if charged[1] else charged[0]] += n
        insns[st[0]] += n
        incl.update({fr[0]: n for ch in chains for fr in ch if FOCUS in fr[1]})
        if args.require and any(args.require in fr[1] for ch in chains for fr in ch):
            required += n

    def table_out(title, counter, label=lambda k: k):
        print(f"\n## {title}\n")
        print(f"{'samples':>8} {'share':>7}  what")
        for key, n in counter.most_common(args.top):
            print(f"{n:8d} {100.0 * n / total:6.2f}%  {label(key)}")

    print(f"# psample: {total} samples in {elapsed:.2f} s "
          f"({total / max(elapsed, 1e-9):.0f} Hz), {len(stacks)} distinct stacks, {exe}; "
          f"{scanned} in shared libraries charged to their caller by stack scan")
    table_out("self (innermost frame)", self_fn)
    table_out(f"self in {FOCUS}", self_focus)
    table_out(f"lines in {FOCUS}", lines)

    def insn_label(addr):
        fr = chain(addr)[0]
        if not fr[1]:
            return f"{addr:#x}  {fr[0]}"
        text = disassemble(exe, addr - base) if args.disasm else ""
        return f"{addr - base:#x}  {fr[0]}  {short(fr[1])}:{fr[2]}" + (f"  | {text}" if text else "")

    table_out("hot instructions", insns, insn_label)
    table_out(f"inclusive in {FOCUS}", incl)
    if args.require:
        print(f"\n{required} of {total} samples have a frame in a file matching '{args.require}'")
        return required > 0
    return True


def main():
    ap = argparse.ArgumentParser(
        description="ptrace sampling profiler (see the module docstring for the build it needs)")
    ap.add_argument("--seconds", type=float, help="stop (and kill the command) after this long")
    ap.add_argument("--top", type=int, default=25, help="rows per table (default 25)")
    ap.add_argument("--require", help="exit 1 unless some sample has a frame in a matching file")
    ap.add_argument("--disasm", action="store_true", help="show each hot instruction (objdump)")
    ap.add_argument("command", nargs=argparse.REMAINDER, help="-- COMMAND [ARGS...]")
    args = ap.parse_args()
    cmd = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not cmd:
        ap.error("give the command to profile after --")
    if platform.system() != "Linux" or platform.machine() != "x86_64":
        print(f"psample: skipped: needs x86_64 Linux, not {platform.system()} "
              f"{platform.machine()}", file=sys.stderr)
        sys.exit(SKIP)
    for tool in ["addr2line"] + (["objdump"] if args.disasm else []):
        if shutil.which(tool) is None:
            print(f"psample: skipped: `{tool}` (binutils) is not on PATH", file=sys.stderr)
            sys.exit(SKIP)
    child = subprocess.Popen(cmd, stdout=sys.stderr)
    old = signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        stacks, elapsed, layout, scanned = sample(child, args.seconds)
    finally:
        signal.signal(signal.SIGINT, old)
    if not stacks:
        print("psample: no samples taken", file=sys.stderr)
        sys.exit(1)
    sys.exit(0 if report(stacks, elapsed, layout, scanned, args) else 1)


if __name__ == "__main__":
    main()
