#!/usr/bin/env python3
"""Flat instruction-pointer sampler for a box with no perf and no gdb.

usage: ipsample.py <interval_ms> <max_samples> -- <command...>

Starts <command>, PTRACE_SEIZEs it and, every <interval_ms>, does
PTRACE_INTERRUPT + waitpid + PTRACE_GETREGS + PTRACE_CONT. Each sampled rip
is resolved through /proc/<pid>/maps and the mapped file's program headers
against `nm -n` (`nm -D` for shared libraries), and the flat histogram is
printed: where the process *is*, not who called it. DESIGN.md section 7.1
has a worked example.

Environment:
  IPSAMPLE_SKIP_S=<s>  sleep before attaching (skip set-up and warm-up)
  IPSAMPLE_CHILD=1     sample the command's first child process instead
                       (the full benchmark suite runs each workload in one)
  IPSAMPLE_FOCUS=<substring>[,...]
                       per-instruction mode: for every symbol whose name
                       contains one of the substrings, also print the sample
                       count per file vaddr, to read beside
                       `objdump -d --start-address=<first> --stop-address=<last>`
                       (a sampled rip is the instruction that was waiting, so
                       a hot load shows up on the first user of its result)
  IPSAMPLE_GROUP=crate also sum the samples by layer: by crate, and by
                       crate::module for the two crates whose modules are
                       layers of their own (oasis_cxl::{cache,pool,host,..},
                       oasis_core::{pod,engine_net,engine_req,..}); shared
                       libraries by file (libc), the Rust runtime as `std`.
                       A trait method counts for the implementing type's
                       module. This is the per-layer map of where the wall
                       time goes (ROADMAP item 1).
"""
import bisect
import collections
import ctypes
import os
import subprocess
import sys
import time

PTRACE_CONT, PTRACE_GETREGS, PTRACE_SEIZE, PTRACE_INTERRUPT = 7, 12, 0x4206, 0x4207
libc = ctypes.CDLL(None, use_errno=True)
libc.ptrace.restype = ctypes.c_long
libc.ptrace.argtypes = [ctypes.c_long, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p]


class Regs(ctypes.Structure):
    """x86-64 `struct user_regs_struct`."""

    _fields_ = [(n, ctypes.c_ulonglong) for n in (
        "r15 r14 r13 r12 rbp rbx r11 r10 r9 r8 rax rcx rdx rsi rdi orig_rax "
        "rip cs eflags rsp ss fs_base gs_base ds es fs gs").split()]


def ptrace(req, pid, addr=None, data=None):
    if libc.ptrace(req, pid, addr, data) < 0:
        raise OSError(ctypes.get_errno(), f"ptrace request {req}")


def first_child(parent):
    path = f"/proc/{parent.pid}/task/{parent.pid}/children"
    while parent.poll() is None:
        kids = open(path).read().split()
        if kids:
            return int(kids[0])
        time.sleep(0.01)
    sys.exit("the command exited without starting a child")


def executable_maps(pid):
    """(start, end, file offset, path) of the executable mappings."""
    out = []
    for line in open(f"/proc/{pid}/maps"):
        f = line.split()
        if len(f) >= 6 and "x" in f[1]:
            lo, hi = (int(x, 16) for x in f[0].split("-"))
            out.append((lo, hi, int(f[2], 16), f[5]))
    return out


def run(*args):
    return subprocess.run(args, capture_output=True, text=True).stdout.splitlines()


_load_bias = {}


def load_bias(path, start, offset):
    """Runtime address minus file vaddr for the mapping at file `offset`
    (a PIE's text segment is not mapped at vaddr == offset)."""
    if (path, offset) not in _load_bias:
        vaddr = offset
        for line in run("readelf", "-lW", path):
            f = line.split()
            if f and f[0] == "LOAD" and int(f[1], 16) & ~0xfff == offset:
                vaddr = int(f[2], 16) & ~0xfff
        _load_bias[(path, offset)] = vaddr
    return start - _load_bias[(path, offset)]


def own_base(path):
    for line in open("/proc/self/maps"):
        f = line.split()
        if len(f) >= 6 and f[5] == path and int(f[2], 16) == 0:
            return int(f[0].split("-")[0], 16)
    return None


_symbols = {}


def symbols(path, is_exe):
    """Sorted (file vaddrs, names) of the text symbols of `path`."""
    if path not in _symbols:
        syms = []
        for line in run("nm", "-n", "--defined-only", *([] if is_exe else ["-D"]), path):
            f = line.split(None, 2)
            if len(f) == 3 and f[1] in "tTwWi":
                syms.append((int(f[0], 16), f[2].split("@")[0]))
        # A stripped libc exports memmove & co. only as IFUNC resolvers; the
        # code that runs is an unexported variant. This process has the same
        # libc on the same CPU, so its resolved addresses name the variants.
        base = None if is_exe else own_base(path)
        if base is not None:
            for name in ("memmove", "memcpy", "memset", "memcmp"):
                addr = ctypes.cast(getattr(libc, name), ctypes.c_void_p).value
                syms.append((addr - base, name + " (ifunc target)"))
        syms.sort()
        _symbols[path] = ([a for a, _ in syms], [n for _, n in syms])
    return _symbols[path]


def demangle(name):
    """Legacy Rust mangling: keep the path, drop the hash."""
    if not name.startswith("_ZN"):
        return name
    i, parts = 3, []
    while i < len(name) and name[i].isdigit():
        j = i
        while name[j].isdigit():
            j += 1
        n = int(name[i:j])
        parts.append(name[j:j + n])
        i = j + n
    if parts and len(parts[-1]) == 17 and parts[-1].startswith("h"):
        parts.pop()
    s = "::".join(parts)
    for a, b in (("$LT$", "<"), ("$GT$", ">"), ("$u20$", " "), ("$C$", ","),
                 ("$RF$", "&"), ("$u7b$", "{"), ("$u7d$", "}"), ("..", "::")):
        s = s.replace(a, b)
    return s


# Crates whose modules are reported separately: they hold several layers.
SPLIT_BY_MODULE = ("oasis_cxl", "oasis_core")


def layer(name):
    """The layer a resolved symbol name belongs to (IPSAMPLE_GROUP=crate)."""
    if name.endswith("]"):  # "memmove (ifunc target) [libc.so.6]"
        return name[name.rindex("[") + 1:-1].split(".so")[0].split("-")[0]
    # "_<oasis_core::engine_net::backend::BackendDriver as ..>::poll": the
    # implementing type; "<&T as ..>" and "<[T] ..>" keep T.
    path = name.lstrip("_<&[").split(" as ")[0].split("<")[0]
    parts = path.split("::")
    if parts[0] in ("core", "alloc", "std", "hashbrown") or not parts[0]:
        return "std"
    if parts[0] in SPLIT_BY_MODULE and len(parts) > 2:
        return "::".join(parts[:2])
    return parts[0] if len(parts) > 1 else "other"


def resolve(rip, maps, exe):
    """(symbol name, file vaddr of `rip`, path of the mapped file)."""
    for lo, hi, offset, path in maps:
        if lo <= rip < hi:
            if not path.startswith("/"):
                return path, rip - lo, path  # [vdso] and friends
            is_exe = os.path.realpath(path) == exe
            addrs, names = symbols(path, is_exe)
            vaddr = rip - load_bias(path, lo, offset)
            i = bisect.bisect_right(addrs, vaddr) - 1
            name = demangle(names[i]) if i >= 0 else "?"
            return name if is_exe else f"{name} [{os.path.basename(path)}]", vaddr, path
    return "?", rip, "?"


def sample(cmd, interval, limit, child=False, skip_s=0.0, stdout=subprocess.DEVNULL):
    """Run `cmd`, sample its (or its first child's) rip every `interval` s
    until `limit` samples or its exit, and resolve each one: a list of
    (symbol name, file vaddr, mapped file path), plus the sampled pid."""
    exe = os.path.realpath(cmd[0])
    parent = subprocess.Popen(cmd, stdout=stdout, stderr=subprocess.DEVNULL)
    pid = first_child(parent) if child else parent.pid
    time.sleep(skip_s)
    ptrace(PTRACE_SEIZE, pid)
    maps = executable_maps(pid)
    regs, rips = Regs(), []
    try:
        while len(rips) < limit:
            ptrace(PTRACE_INTERRUPT, pid)
            _, status = os.waitpid(pid, 0)
            if os.WIFEXITED(status) or os.WIFSIGNALED(status):
                break
            ptrace(PTRACE_GETREGS, pid, None, ctypes.byref(regs))
            rips.append(regs.rip)
            ptrace(PTRACE_CONT, pid, None, None)
            time.sleep(interval)
    except OSError:
        pass  # the process went away between two requests
    for p in {pid, parent.pid}:
        try:
            os.kill(p, 9)
        except ProcessLookupError:
            pass
    parent.wait()
    return [resolve(rip, maps, exe) for rip in rips], pid


def main():
    if len(sys.argv) < 5 or sys.argv[3] != "--":
        sys.exit(__doc__)
    interval = float(sys.argv[1]) / 1000
    limit = int(sys.argv[2])
    where, pid = sample(sys.argv[4:], interval, limit,
                        child=bool(os.environ.get("IPSAMPLE_CHILD")),
                        skip_s=float(os.environ.get("IPSAMPLE_SKIP_S", "0")))
    hist = collections.Counter(name for name, _, _ in where)
    print(f"{len(where)} samples, {interval * 1000:g} ms apart, pid {pid}")
    for name, n in hist.most_common(40):
        print(f"{100 * n / len(where):6.2f}%  {n:5d}  {name}")
    if os.environ.get("IPSAMPLE_GROUP") == "crate":
        layers = collections.Counter()
        for name, n in hist.items():
            layers[layer(name)] += n
        print("\nby layer:")
        for name, n in layers.most_common():
            print(f"{100 * n / len(where):6.2f}%  {n:5d}  {name}")
    focus = [f for f in os.environ.get("IPSAMPLE_FOCUS", "").split(",") if f]
    for name, n in hist.most_common():
        if any(f in name for f in focus):
            at = collections.Counter((path, vaddr) for nm, vaddr, path in where if nm == name)
            print(f"\n{name}: {n} samples in {os.path.basename(min(at)[0])}, "
                  f"vaddr {min(at)[1]:#x}..{max(at)[1]:#x}")
            for (_, vaddr), k in sorted(at.items()):
                print(f"  {vaddr:#10x}  {k:5d}  {'#' * (60 * k // max(at.values()))}")


if __name__ == "__main__":
    main()
