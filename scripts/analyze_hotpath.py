#!/usr/bin/env python3
"""Hot-path purity analyzer: a binary-level proof that nothing reachable from
the trial hot path allocates, reads clocks or the environment, formats
through iostream/locale, or throws — on every code path, before anything
runs.

The bench ratchet (scripts/bench_baseline.sh --ratchet) enforces the
allocation budget *dynamically*: it catches a regression only after the
benchmark executes, and only on the paths the benchmark happens to exercise.
This analyzer closes the gap statically. It reads the compiled object files
(built with `-ffunction-sections -fstack-usage`, which the top-level
CMakeLists enables for GCC/Clang), reconstructs the whole-program call graph
from relocation records — no fragile C++ parsing; symbols are demangled with
c++filt only for reporting and rule matching — and walks reachability from
the declared hot-path roots:

    qperc::core::TrialContext::run            (the per-trial entry point)
    qperc::sim::Simulator::run / run_until    (the event loop)
    (anonymous namespace)::simulate_one<DropVotes>  (population-study inner loop)
    qperc::runner::(anonymous namespace)::run_cell  (fairness-grid inner loop)

Call-graph construction (see ARCHITECTURE.md "Static analysis"):
  * direct edges: every relocation out of a `.text.*` section, attributed to
    the containing function by symbol-table offset ranges; the disassembly
    stream classifies each site as a call (call/jmp mnemonics) or an
    address-taken reference,
  * virtual calls: constructing an object plants a relocation to the class
    vtable (`_ZTV*`); the analyzer expands that data reference to edges into
    every function the vtable slots reference,
  * function pointers / SmallFunction: storing a callable captures its invoke
    thunk either as a direct code address or through a static ops table
    (`SmallFunction::kInlineOps<F>`); both surface as relocations and expand
    the same way (data references close transitively over data symbols).
  Known blind spots, by design: callables constructed *outside* the hot
  region but invoked inside it (e.g. trace sinks attached by the CLI), and
  anything behind a shared-library boundary other than the recognized sink
  entry points.

Rules enforced on every reachable function:
  alloc        operator new/delete, malloc/realloc/free family, and the
               out-of-line libstdc++ std::string allocation entry points
  wall-clock   clock_gettime/gettimeofday/time and std::chrono::*_clock::now
  getenv       getenv/secure_getenv/std::getenv and setenv/putenv
  locale       std::locale/use_facet/num_put/... and setlocale family
  iostream     std::basic_ostream & friends, stringstreams, printf/stdio,
               and raw read/write/open/close
  throw        __cxa_throw/__cxa_allocate_exception and std::__throw_*

Suppression, in two deliberately different shapes:
  * QPERC_COLD_PATH (src/util/check.hpp) marks a function as off the hot
    path; it compiles to `cold,noinline`, which places the function in a
    `.text.unlikely.*` section — the binary-level marker this analyzer treats
    as a traversal barrier. Annotate genuinely-cold setup/validation/
    reporting functions at the source.
  * scripts/hotpath_allowlist.txt carries reviewed site-level exemptions for
    the budgeted allocations (per-origin sessions, warm-capacity container
    growth, result copy-out). Every entry names the rule, a demangled-symbol
    regex for the site function, and a mandatory reason. An entry's site is
    the named function together with the libstdc++ (std::, __gnu_cxx::)
    functions and weak template or header-inline definitions that it calls,
    followed transitively through such helpers only: exactly what the named
    body holds when those helpers are inlined, so the verdict does not depend
    on the optimization level and the scan holds in every Rel* build. The
    walk visits (function, inherited entries) states, so the excuse is
    carried per call path: a helper reached from a caller that no entry
    names is still a finding, and its chain is that unexcused path. Strong
    and local project functions and address-taken references inherit
    nothing and must be named themselves. Traversal continues past an
    allowlisted site; only the site's banned references are excused.

The worst-case hot-path stack budget is summed from the compiler's `.su`
stack-usage records over the hot call graph: the deepest synchronous call
chain from a root, plus the deepest chain of any indirectly-invoked callback
(one level of indirection; nested indirection is bounded by the same callback
term and noted as a blind spot). The result is ratcheted in BENCH_micro.json
(schema v5, `analyzer.hot_path_stack_bytes`) by ci_gate's analyze stage.

Usage:
    scripts/analyze_hotpath.py --build-dir build             # full-tree scan
    scripts/analyze_hotpath.py --build-dir build --ratchet   # + stack ratchet
    scripts/analyze_hotpath.py --build-dir build --write-baseline
    scripts/analyze_hotpath.py --self-test                   # fixture proofs
    scripts/analyze_hotpath.py --list-rules

Exit status: 0 clean, 1 findings or ratchet regression, 2 usage/self-test/
infrastructure failure (missing objects, unmatched root pattern, malformed
allowlist).
"""

import argparse
import collections
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir))

# ---------------------------------------------------------------------------
# Rule tables. C-level sinks match raw symbol names exactly; C++ sinks match
# the demangled name. A symbol matching any rule is a "banned sink": reaching
# it from a hot function is a finding unless the referencing site is
# allowlisted or the walk was already cut by a QPERC_COLD_PATH barrier.

C_SINKS = {
    "alloc": {
        "malloc", "calloc", "realloc", "reallocarray", "free", "cfree",
        "aligned_alloc", "posix_memalign", "memalign", "valloc", "pvalloc",
        "strdup", "strndup", "asprintf", "vasprintf",
    },
    "wall-clock": {
        "clock_gettime", "gettimeofday", "time", "clock", "times",
        "timespec_get", "ftime", "nanosleep", "usleep", "sleep",
    },
    "getenv": {"getenv", "secure_getenv", "__secure_getenv", "setenv", "unsetenv", "putenv"},
    "locale": {"setlocale", "uselocale", "newlocale", "duplocale", "freelocale",
               "localeconv", "nl_langinfo"},
    "iostream": {
        "printf", "fprintf", "vfprintf", "dprintf", "sprintf", "vsprintf",
        "snprintf", "vsnprintf", "puts", "fputs", "fputc", "putc", "putchar",
        "fwrite", "fread", "fflush", "fopen", "fclose", "fgets", "fscanf",
        "perror", "write", "read", "open", "close", "lseek",
    },
    # Exception ORIGINATION only: __cxa_rethrow (and _Unwind_Resume) merely
    # propagate an exception that is already in flight — they appear in the
    # cleanup paths of perfectly pure template machinery and would make the
    # rule fire on code that never throws first.
    "throw": {"__cxa_throw", "__cxa_allocate_exception",
              "__cxa_bad_cast", "__cxa_bad_typeid"},
}

CXX_SINKS = [
    ("alloc", r"^operator new"),
    ("alloc", r"^operator delete"),
    # Out-of-line libstdc++ string entry points: the operator new they call
    # lives inside libstdc++.so and is invisible to relocation scanning, so
    # the entry points themselves are the sinks. _M_dispose (the free side)
    # counts too: a hot path touching it owned an allocation moments before.
    ("alloc", r"^std::__cxx11::basic_string<.*>::(?:_M_create|_M_construct|_M_mutate"
              r"|_M_replace|_M_append|_M_assign|_M_dispose|append|assign|insert"
              r"|push_back|reserve|resize|operator\+?=)"),
    ("alloc", r"^std::__cxx11::to_string"),
    ("wall-clock", r"^std::chrono::_V2::(?:system|steady)_clock::now"),
    ("getenv", r"^std::getenv"),
    ("locale", r"^std::(?:locale|use_facet|has_facet|__try_use_facet|ctype"
               r"|num_put|num_get|numpunct|moneypunct|money_put|money_get)"),
    ("iostream", r"^std::basic_[io]stream|^std::basic_ios<|^std::ios_base"
                 r"|^std::basic_(?:string|file|stream)buf|^std::basic_[io]?f?stream"
                 r"|^std::basic_[io]?stringstream|^std::__ostream_insert"
                 r"|^std::endl|^std::flush|^std::operator<<|^std::operator>>"
                 r"|^std::cout$|^std::cerr$|^std::clog$|^std::cin$"),
    ("throw", r"^std::__throw_"),
]
CXX_SINKS = [(rule, re.compile(pattern)) for rule, pattern in CXX_SINKS]

ALL_RULES = ("alloc", "wall-clock", "getenv", "locale", "iostream", "throw")

RULE_HELP = {
    "alloc": "operator new/delete, malloc family, libstdc++ string growth",
    "wall-clock": "clock_gettime/gettimeofday/time, std::chrono::*_clock::now",
    "getenv": "getenv/secure_getenv/std::getenv, setenv/putenv",
    "locale": "std::locale/facets, setlocale family",
    "iostream": "ostream/stringstream formatting, printf/stdio, raw read/write",
    "throw": "__cxa_throw/__cxa_allocate_exception, std::__throw_*",
}

DEFAULT_ROOTS = [
    ("trial-context", r"^qperc::core::TrialContext::run\("),
    ("simulator-run", r"^qperc::sim::Simulator::(?:run|run_until)\("),
    # The streaming instantiation only: simulate_one<KeepVotes> serves
    # paper-size cohorts that keep every vote, and is not a hot root.
    ("study-participant", r"\(anonymous namespace\)::simulate_one<[^>]*DropVotes>\("),
    ("fairness-cell", r"^qperc::runner::\(anonymous namespace\)::run_cell\("),
]

# Sections whose symbols are traversal barriers: GCC places
# __attribute__((cold)) functions (QPERC_COLD_PATH) and its own
# expect-guided out-of-line failure paths in .text.unlikely; .text.startup /
# .text.exit hold static (de)initializers, which never run inside a trial.
COLD_SECTION_PREFIXES = (".text.unlikely", ".text.startup", ".text.exit")

# Data sections worth expanding into function edges (vtables, ops tables,
# jump tables). EH/debug metadata reference code too but only describe it.
DATA_SECTION_PREFIXES = (".data", ".rodata", ".bss")

RELOC_TARGET_RE = re.compile(r"^(?P<sym>[^+\-]+)(?:(?P<sign>[+\-])0x(?P<add>[0-9a-f]+))?$")
PC_RELATIVE_TYPES = ("PC32", "PLT32", "GOTPCREL", "GOTPCRELX", "REX_GOTPCRELX", "PC64")


def run_cmd(args):
    proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} failed: {proc.stderr.strip()}")
    return proc.stdout


class Analysis:
    """Parsed object facts plus the derived call graph for one set of .o files."""

    def __init__(self):
        # uid -> dict(section=..., size=..., obj=..., local=bool, weak=bool,
        #             func=bool, value=int)
        self.symbols = {}
        # (obj_idx, section) -> sorted [(value, size, uid)] of defined symbols
        self.section_syms = {}
        # uid -> set of (target_uid_or_name, kind); kind in {"call", "ref"}
        self.edges = {}
        # data uid -> set of raw (target, addend, pc_relative, obj_idx) tuples
        self.data_relocs = {}
        self.objects = []
        self.su_bytes = {}        # su_key -> max bytes
        self.su_dynamic = set()   # su_key with unbounded-dynamic qualifier
        # (obj_idx, clone kind, parameter count, bytes, dynamic) of .su
        # records named after a clone kind, pending resolve_su_clones
        self.su_clones = []
        self.demangled = {}       # raw symbol -> demangled
        self.aliases = {}         # alias uid -> canonical same-address uid

    def resolve(self, uid):
        """Canonicalizes same-address symbol aliases (C1/C2 constructors)."""
        return self.aliases.get(uid, uid)

    # -- symbol identity ----------------------------------------------------

    def uid(self, sym, obj_idx, local):
        # Local (anonymous-namespace / static) symbols share mangled names
        # across TUs but are distinct functions; namespace them per object.
        return f"{sym}@{obj_idx}" if local else sym

    def raw_name(self, uid):
        return uid.rsplit("@", 1)[0] if "@" in uid else uid

    def dname(self, uid):
        raw = self.raw_name(uid)
        return self.demangled.get(raw, raw)


def parse_symbol_table(analysis, obj_idx, path):
    """objdump -t: defined symbols with section, value, size."""
    out = run_cmd(["objdump", "-t", path])
    sym_re = re.compile(r"^([0-9a-f]+)\s+(.{7})\s+(\S+)\t([0-9a-f]+)\s+(?:\.hidden\s+)?(\S+)$")
    for line in out.splitlines():
        m = sym_re.match(line)
        if not m:
            continue
        value, flags, section, size, name = m.groups()
        if section in ("*UND*", "*ABS*", "*COM*"):
            continue
        is_func = "F" in flags
        is_obj = "O" in flags
        if not is_func and not is_obj:
            # Section symbols and debug labels carry no identity we need.
            continue
        local = flags.startswith("l")
        uid = analysis.uid(name, obj_idx, local)
        entry = {
            "section": section,
            "value": int(value, 16),
            "size": int(size, 16),
            "obj": obj_idx,
            "local": local,
            "weak": flags[1] == "w",
            "func": is_func,
        }
        # Comdat/weak symbols recur across objects with identical bodies;
        # first definition wins and edge sets merge below.
        if uid not in analysis.symbols:
            analysis.symbols[uid] = entry
        analysis.section_syms.setdefault((obj_idx, section), []).append(
            (entry["value"], entry["size"], uid))
    for key in analysis.section_syms:
        analysis.section_syms[key].sort()


def symbol_at(analysis, obj_idx, section, offset):
    """Resolves (section, offset) to the defined symbol covering offset."""
    entries = analysis.section_syms.get((obj_idx, section))
    if not entries:
        return None
    best = None
    for value, size, uid in entries:
        if value <= offset and (offset < value + size or size == 0):
            best = uid
        elif value > offset:
            break
    return best


def parse_reloc_target(analysis, obj_idx, value, rtype):
    """Returns (uid-or-raw-symbol, None) or (None, None) for ignorable targets."""
    m = RELOC_TARGET_RE.match(value)
    if not m:
        return None
    sym = m.group("sym")
    addend = int(m.group("add") or "0", 16)
    if m.group("sign") == "-":
        addend = -addend
    if any(rtype.endswith(t) for t in PC_RELATIVE_TYPES):
        addend += 4  # call/lea displacement targets (sym + addend + 4)
    if sym.startswith(".L"):
        return None  # local literal/jump-table label without symbol identity
    if sym.startswith("."):
        # Section-relative target: resolve to the covering defined symbol.
        resolved = symbol_at(analysis, obj_idx, sym, addend)
        if resolved is not None:
            return resolved
        # A data section with no covering symbol: treat the section itself as
        # a data node so its relocations still expand (jump tables).
        if sym.startswith(DATA_SECTION_PREFIXES):
            return f"{sym}@sect@{obj_idx}"
        return None
    # Direct symbol target: prefer this object's local definition, else the
    # global name (defined elsewhere or extern).
    local_uid = f"{sym}@{obj_idx}"
    if local_uid in analysis.symbols:
        return local_uid
    return sym


def parse_text_edges(analysis, obj_idx, path):
    """objdump -dr --no-show-raw-insn: call/ref edges out of text sections."""
    out = run_cmd(["objdump", "-dr", "--no-show-raw-insn", path])
    section = None
    last_mnemonic = ""
    last_offset = 0
    insn_re = re.compile(r"^\s+([0-9a-f]+):\t\s*(\S+)")
    reloc_re = re.compile(r"^\s+([0-9a-f]+):\s+(R_\S+)\t(.+)$")
    for line in out.splitlines():
        if line.startswith("Disassembly of section "):
            section = line[len("Disassembly of section "):].rstrip(":")
            continue
        if section is None or not section.startswith(".text"):
            continue
        rm = reloc_re.match(line)
        if rm:
            _, rtype, value = rm.groups()
            src = symbol_at(analysis, obj_idx, section, last_offset)
            if src is None:
                continue
            target = parse_reloc_target(analysis, obj_idx, value.strip(), rtype)
            if target is None or target == src:
                continue
            kind = "call" if last_mnemonic.startswith(("call", "jmp")) else "ref"
            analysis.edges.setdefault(src, set()).add((target, kind))
            continue
        im = insn_re.match(line)
        if im and not line.rstrip().endswith(">:"):
            last_offset = int(im.group(1), 16)
            last_mnemonic = im.group(2)


def parse_data_relocs(analysis, obj_idx, path):
    """objdump -r: relocation records of data sections (vtables, ops tables)."""
    out = run_cmd(["objdump", "-r", path])
    section = None
    header_re = re.compile(r"^RELOCATION RECORDS FOR \[(.+)\]:$")
    reloc_re = re.compile(r"^([0-9a-f]+)\s+(\S+)\s+(.+)$")
    for line in out.splitlines():
        hm = header_re.match(line)
        if hm:
            name = hm.group(1)
            section = name if name.startswith(DATA_SECTION_PREFIXES) else None
            continue
        if section is None:
            continue
        rm = reloc_re.match(line)
        if not rm:
            continue
        offset, rtype, value = rm.groups()
        offset = int(offset, 16)
        target = parse_reloc_target(analysis, obj_idx, value.strip(), rtype)
        if target is None:
            continue
        holder = symbol_at(analysis, obj_idx, section, offset)
        if holder is None:
            holder = f"{section}@sect@{obj_idx}"
        analysis.data_relocs.setdefault(holder, set()).add(target)


SU_LINE_RE = re.compile(r"^(?P<loc>[^\t]*:\d+:\d+:)(?P<sig>[^\t]+)\t(?P<bytes>\d+)\t(?P<qual>.+)$")


def su_key(signature):
    """Normalizes a function signature to `Qualified::name` (no return type,
    no parameters) so GCC's .su spellings and c++filt's agree. Overloads
    collapse to one key; the max stack among them is used (conservative)."""
    # GCC spells anonymous namespaces `{anonymous}` in .su records; c++filt
    # says `(anonymous namespace)`. Canonicalize before matching.
    sig = signature.strip().replace("{anonymous}", "(anonymous namespace)")
    end = sig.rfind(")")
    if end != -1:
        # Find the matching '(' of the final parameter list.
        depth = 0
        open_idx = -1
        for i in range(end, -1, -1):
            c = sig[i]
            if c == ")":
                depth += 1
            elif c == "(":
                depth -= 1
                if depth == 0:
                    open_idx = i
                    break
        if open_idx > 0:
            prefix = sig[:open_idx].rstrip()
            # `operator()` keeps its own parens: strip one more group.
            if prefix.endswith("operator"):
                prefix = sig[:open_idx].rstrip()
            sig = prefix
    # Last whitespace-separated token, where whitespace inside <>/() nesting
    # does not split (template args, lambda signatures).
    depth = 0
    start = 0
    for i in range(len(sig) - 1, -1, -1):
        c = sig[i]
        if c in ">)":
            depth += 1
        elif c in "<(":
            depth -= 1
        elif c == " " and depth <= 0:
            start = i + 1
            break
    return sig[start:].lstrip("*&")


# GCC names an IPA clone's .su record after the clone kind alone:
# `fairness.cpp:250:14:constprop(const qperc::runner::FairnessTask&, ...)`
# for the symbol `qperc::runner::(anonymous namespace)::run_cell(...)
# [clone .constprop.0]`.
SU_CLONE_RE = re.compile(r"^(?P<kind>constprop|isra|part|cold|lto_priv|specialized)\(")
CLONE_SUFFIX_RE = re.compile(r"(?: \[clone \.[\w.]+\])+$")


def param_count(signature):
    """Top-level parameters of a signature's final parameter list (clone
    suffixes ignored); None when it has no parameter list."""
    sig = CLONE_SUFFIX_RE.sub("", signature.strip())
    end = sig.rfind(")")
    if end == -1:
        return None
    depth = 0
    commas = 0
    for i in range(end, -1, -1):
        c = sig[i]
        if c in ")>":
            depth += 1
        elif c in "(<":
            depth -= 1
            if depth == 0:
                inner = sig[i + 1:end].strip()
                return 0 if inner in ("", "void") else commas + 1
        elif c == "," and depth == 1:
            commas += 1
    return None


def record_su(analysis, key, size, dynamic):
    analysis.su_bytes[key] = max(analysis.su_bytes.get(key, 0), size)
    if dynamic:
        analysis.su_dynamic.add(key)


def parse_su_file(analysis, obj_idx, su_path):
    try:
        with open(su_path, "r", encoding="utf-8", errors="replace") as fh:
            text = fh.read()
    except OSError:
        return
    for line in text.splitlines():
        m = SU_LINE_RE.match(line)
        if not m:
            continue
        size = int(m.group("bytes"))
        dynamic = "dynamic" in m.group("qual") and "bounded" not in m.group("qual")
        clone = SU_CLONE_RE.match(m.group("sig"))
        if clone:
            # The function's name is known only once the object's symbols
            # are demangled; resolve_su_clones matches it then.
            analysis.su_clones.append((obj_idx, clone.group("kind"),
                                       param_count(m.group("sig")), size, dynamic))
        else:
            record_su(analysis, su_key(m.group("sig")), size, dynamic)


def resolve_su_clones(analysis):
    """Charges each clone-named .su record to the clone symbols of its kind
    in the same object: those with the record's parameter count, or every one
    of them when none has it. A record that fits several functions charges
    each of them, so the budget errs high, never low."""
    for obj_idx, kind, params, size, dynamic in analysis.su_clones:
        clones = {analysis.dname(uid) for uid, entry in analysis.symbols.items()
                  if entry["obj"] == obj_idx and entry["func"]
                  and f"[clone .{kind}" in analysis.dname(uid)}
        fitting = {sig for sig in clones if param_count(sig) == params} or clones
        for sig in sorted(fitting):
            record_su(analysis, su_key(sig), size, dynamic)


def demangle_all(analysis):
    names = sorted({analysis.raw_name(uid) for uid in analysis.symbols} |
                   {analysis.raw_name(t) for targets in analysis.edges.values()
                    for t, _ in targets if "@sect@" not in t} |
                   {analysis.raw_name(t) for targets in analysis.data_relocs.values()
                    for t in targets if "@sect@" not in t})
    if not names:
        return
    cxxfilt = shutil.which("c++filt")
    if cxxfilt is None:
        analysis.demangled = {n: n for n in names}
        return
    proc = subprocess.run([cxxfilt], input="\n".join(names) + "\n",
                          stdout=subprocess.PIPE, text=True, check=True)
    demangled = proc.stdout.splitlines()
    analysis.demangled = dict(zip(names, demangled))


def unify_aliases(analysis):
    """Maps same-address function symbols onto one canonical node.

    GCC emits complete- and base-object constructors (C1/C2 — likewise D1/D2
    destructors) as two global symbols at the same address in the same
    section. objdump attributes the section's instructions, and therefore
    every outgoing edge we parse, to only one of them, while callers
    elsewhere in the tree may relocate against the other. Without
    unification the walk reaches the edgeless alias and silently dead-ends —
    everything a constructor registers (callback tables, timers) would
    escape analysis. Canonical is whatever symbol_at() picks, i.e. the same
    symbol edge attribution used."""
    for (obj_idx, section), entries in analysis.section_syms.items():
        funcs_by_value = {}
        for value, _size, uid in entries:
            entry = analysis.symbols.get(uid)
            if entry is None or not entry["func"] or entry["obj"] != obj_idx:
                continue
            funcs_by_value.setdefault(value, []).append(uid)
        for value, uids in funcs_by_value.items():
            if len(uids) < 2:
                continue
            canonical = symbol_at(analysis, obj_idx, section, value)
            for uid in uids:
                if canonical is not None and uid != canonical:
                    analysis.aliases[uid] = canonical


def prune_atexit_destructor_refs(analysis):
    """Drops destructor *ref* edges out of functions that call __cxa_atexit.

    The guard-init path of a function-local static takes the address of the
    object's destructor purely to register it for process exit; that
    destructor never runs on the hot path. GCC schedules the address load
    tens of instructions away from the __cxa_atexit call, so this keys on
    the pair (function calls atexit, function refs a destructor) rather
    than instruction adjacency. Genuine destruction is a call edge — or an
    inlined body — and is untouched; a destructor stored into a live
    callback table would be exotic enough to deserve the manual review this
    forgoes."""
    atexit_calls = {("__cxa_atexit", "call"), ("atexit", "call")}
    for edges in analysis.edges.values():
        if not (edges & atexit_calls):
            continue
        drop = {e for e in edges
                if e[1] == "ref" and "::~" in analysis.dname(e[0])}
        edges -= drop


def load_objects(paths):
    analysis = Analysis()
    for obj_idx, path in enumerate(sorted(paths)):
        analysis.objects.append(path)
        parse_symbol_table(analysis, obj_idx, path)
    unify_aliases(analysis)
    # Two passes: symbol ranges for every object must exist before edge
    # attribution (relocations can reference other objects' globals).
    for obj_idx, path in enumerate(analysis.objects):
        parse_text_edges(analysis, obj_idx, path)
        parse_data_relocs(analysis, obj_idx, path)
        su_path = re.sub(r"\.(?:o|obj)$", ".su", path)
        if su_path != path:
            parse_su_file(analysis, obj_idx, su_path)
    demangle_all(analysis)
    resolve_su_clones(analysis)
    prune_atexit_destructor_refs(analysis)
    return analysis


# ---------------------------------------------------------------------------
# Allowlist: reviewed site-level exemptions with mandatory reasons.

class AllowEntry:
    def __init__(self, rules, pattern, reason, line_no):
        self.rules = rules          # set of rule names, or {"*"}
        self.pattern = re.compile(pattern)
        self.pattern_text = pattern
        self.reason = reason
        self.line_no = line_no
        self.hits = 0

    def covers_rule(self, rule):
        return "*" in self.rules or rule in self.rules


def load_allowlist(path_or_lines, label="allowlist"):
    if isinstance(path_or_lines, str):
        with open(path_or_lines, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        label = path_or_lines
    else:
        lines = path_or_lines
    entries = []
    for idx, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "#" not in line:
            raise ValueError(f"{label}:{idx}: allowlist entry has no '# reason' "
                             f"(every exemption must say why): {line}")
        body, reason = line.split("#", 1)
        reason = reason.strip()
        if not reason:
            raise ValueError(f"{label}:{idx}: allowlist entry has an empty reason")
        parts = body.split(None, 1)
        if len(parts) != 2:
            raise ValueError(f"{label}:{idx}: expected '<rule(s)> <site-regex>  # reason'")
        rules = {r.strip() for r in parts[0].split(",")}
        unknown = rules - set(ALL_RULES) - {"*"}
        if unknown:
            raise ValueError(f"{label}:{idx}: unknown rule(s) {sorted(unknown)} "
                             f"(valid: {', '.join(ALL_RULES)}, or *)")
        try:
            entries.append(AllowEntry(rules, parts[1].strip(), reason, idx))
        except re.error as e:
            raise ValueError(f"{label}:{idx}: bad regex: {e}") from e
    return entries


# ---------------------------------------------------------------------------
# The walk.

class Finding:
    def __init__(self, rule, chain, sink):
        self.rule = rule
        self.chain = chain  # list of uids, root first, site last
        self.sink = sink    # raw banned symbol name

    def render(self, analysis):
        pretty = [analysis.dname(uid) for uid in self.chain]
        pretty.append(analysis.demangled.get(self.sink, self.sink))
        head = f"[{self.rule}] {pretty[-2]} reaches {pretty[-1]}"
        arrows = "\n".join(f"    {'-> ' if i else '   '}{name}"
                           for i, name in enumerate(pretty))
        return head + "\n" + arrows


def banned_rule(analysis, uid):
    raw = analysis.raw_name(uid)
    if "@sect@" in raw:
        return None
    for rule, names in C_SINKS.items():
        if raw in names:
            return rule
    demangled = analysis.demangled.get(raw, raw)
    for rule, pattern in CXX_SINKS:
        if pattern.search(demangled):
            return rule
    return None


def is_cold(analysis, uid):
    entry = analysis.symbols.get(uid)
    if entry is None:
        return False
    return entry["section"].startswith(COLD_SECTION_PREFIXES)


def expand_data_node(analysis, uid, out, seen, depth=0):
    """Transitively collects function symbols referenced by a data node
    (vtable -> methods, ops table -> invoke thunks, RTTI chains -> nothing)."""
    if uid in seen or depth > 4:
        return
    seen.add(uid)
    for target in analysis.data_relocs.get(uid, ()):
        entry = analysis.symbols.get(target)
        if entry is not None and entry["func"]:
            out.add(target)
        elif entry is not None:
            expand_data_node(analysis, target, out, seen, depth + 1)
        elif banned_rule(analysis, target):
            out.add(target)  # extern banned data (std::cout) still counts


class WalkResult:
    def __init__(self):
        self.findings = []
        self.hot = set()            # reachable, traversed functions
        self.via_ref = set()        # hot functions first reached indirectly
        self.call_edges = {}        # uid -> set(uid), hot call edges
        self.cold_barriers = set()  # cold functions that cut the walk
        self.suppressed = []        # (entry, rule, site_uid, sink)


def joins_caller_site(analysis, uid):
    """True when a callee's body counts as part of its caller's allowlist
    site: a libstdc++ function or a weak (template or header-inline)
    definition — exactly the helpers whose bodies the optimizer may or may
    not fold into the caller. Strong and local project functions keep their
    own identity and must be named in the allowlist themselves."""
    if analysis.symbols[uid]["weak"]:
        return True
    return su_key(analysis.dname(uid)).startswith(("std::", "__gnu_cxx::"))


def walk(analysis, roots, allowlist):
    """Breadth-first reachability over (function, inherited entries) states.

    A banned reference out of `src` is excused by an allowlist entry that
    names `src` itself or that `src` inherited from its caller. Only a call
    into a helper that joins the caller's site (joins_caller_site) passes
    the caller's entries on, so the excuse is independent of what was
    inlined, and is carried per call path: the same helper reached from a
    non-allowlisted caller is a separate state, and its finding's chain is
    that unexcused path."""
    result = WalkResult()
    start = [(r, frozenset()) for r in roots]
    parents = dict.fromkeys(start)
    queue = collections.deque(start)
    result.hot.update(roots)
    own_entries = {}
    out_edges = {}

    def chain_of(state):
        chain = []
        while state is not None:
            chain.append(state[0])
            state = parents[state]
        return list(reversed(chain))

    def edges_of(src):
        # Data references expand into (potential) function targets.
        expanded = set()
        for target, kind in analysis.edges.get(src, ()):
            entry = analysis.symbols.get(target)
            if (entry is not None and not entry["func"]) or (
                    entry is None and "@sect@" in target):
                fns = set()
                expand_data_node(analysis, target, fns, set())
                expanded.update((fn, "ref") for fn in fns)
            else:
                expanded.add((target, kind))
        # Same-address aliases (C1/C2 constructors): follow the node that
        # actually carries the section's edges.
        return sorted({(analysis.resolve(t), k) for t, k in expanded})

    seen_findings = set()
    seen_suppressed = set()
    while queue:
        state = queue.popleft()
        src, inherited = state
        if src not in out_edges:
            out_edges[src] = edges_of(src)
            own_entries[src] = frozenset(
                i for i, e in enumerate(allowlist) if e.pattern.search(analysis.dname(src)))
        site_entries = own_entries[src] | inherited
        for target, kind in out_edges[src]:
            if is_cold(analysis, target):
                result.cold_barriers.add(target)
                continue
            rule = banned_rule(analysis, target)
            if rule is not None:
                sink = analysis.raw_name(target)
                hit = next((allowlist[i] for i in sorted(site_entries)
                            if allowlist[i].covers_rule(rule)), None)
                if hit is not None:
                    key = (hit.line_no, rule, src, sink)
                    if key not in seen_suppressed:
                        seen_suppressed.add(key)
                        hit.hits += 1
                        result.suppressed.append((hit, rule, src, sink))
                    continue
                key = (rule, src, sink)
                if key not in seen_findings:
                    seen_findings.add(key)
                    result.findings.append(Finding(rule, chain_of(state), sink))
                continue
            entry = analysis.symbols.get(target)
            if entry is None or not entry["func"]:
                continue  # extern, non-banned: no body to analyze
            if kind == "call":
                result.call_edges.setdefault(src, set()).add(target)
            if target not in result.hot:
                result.hot.add(target)
                if kind == "ref":
                    result.via_ref.add(target)
            joins = kind == "call" and joins_caller_site(analysis, target)
            next_state = (target, site_entries if joins else frozenset())
            if next_state not in parents:
                parents[next_state] = state
                queue.append(next_state)
    return result


# ---------------------------------------------------------------------------
# Stack budget.

class StackReport:
    def __init__(self):
        self.root_depth = 0
        self.root_chain = []
        self.callback_depth = 0
        self.callback_chain = []
        self.total = 0
        self.matched = 0
        self.unmatched = 0
        self.cycles = []
        self.dynamic = []


def stack_budget(analysis, walk_result, roots):
    report = StackReport()
    frame = {}
    for uid in sorted(walk_result.hot):
        key = su_key(analysis.dname(uid))
        if key in analysis.su_bytes:
            frame[uid] = analysis.su_bytes[key]
            report.matched += 1
            if key in analysis.su_dynamic:
                report.dynamic.append(uid)
        else:
            frame[uid] = 0
            report.unmatched += 1

    memo = {}
    on_stack = set()

    def depth(uid):
        if uid in memo:
            return memo[uid]
        if uid in on_stack:
            report.cycles.append(uid)
            return (0, ())
        on_stack.add(uid)
        best = (0, ())
        for nxt in sorted(walk_result.call_edges.get(uid, ())):
            d, chain = depth(nxt)
            if d > best[0]:
                best = (d, chain)
        on_stack.discard(uid)
        memo[uid] = (frame[uid] + best[0], (uid,) + best[1])
        return memo[uid]

    for root in sorted(roots):
        d, chain = depth(root)
        if d > report.root_depth:
            report.root_depth, report.root_chain = d, list(chain)
    for uid in sorted(walk_result.via_ref):
        d, chain = depth(uid)
        if d > report.callback_depth:
            report.callback_depth, report.callback_chain = d, list(chain)
    report.total = report.root_depth + report.callback_depth
    return report


# ---------------------------------------------------------------------------
# Full-tree scan plumbing.

def find_tree_objects(build_dir):
    objects = []
    src_root = os.path.join(build_dir, "src")
    for dirpath, _dirnames, filenames in os.walk(src_root):
        if "CMakeFiles" not in dirpath:
            continue
        for name in sorted(filenames):
            if name.endswith(".o"):
                objects.append(os.path.join(dirpath, name))
    return sorted(objects)


def resolve_roots(analysis, root_patterns):
    roots = []
    problems = []
    for name, pattern in root_patterns:
        regex = re.compile(pattern)
        matched = [analysis.resolve(uid) for uid in sorted(analysis.symbols)
                   if analysis.symbols[uid]["func"] and regex.search(analysis.dname(uid))
                   and not is_cold(analysis, uid)]
        if not matched:
            problems.append(f"root pattern '{name}' ({pattern}) matched no defined function "
                            f"— was the hot-path entry point renamed?")
        roots.extend(matched)
    return sorted(set(roots)), problems


def scan_tree(args):
    build_dir = os.path.abspath(args.build_dir)
    objects = find_tree_objects(build_dir)
    if not objects:
        print(f"analyze_hotpath: no objects under {build_dir}/src — build first "
              f"(cmake --build {args.build_dir})", file=sys.stderr)
        return 2
    analysis = load_objects(objects)
    if not analysis.su_bytes:
        print("analyze_hotpath: no .su stack-usage records next to the objects — "
              "reconfigure so -fstack-usage is active (a stale build dir predating "
              "the analyzer flags must be re-created)", file=sys.stderr)
        return 2

    try:
        allowlist = load_allowlist(args.allowlist)
    except (OSError, ValueError) as e:
        print(f"analyze_hotpath: {e}", file=sys.stderr)
        return 2

    root_patterns = list(DEFAULT_ROOTS)
    for extra in args.root:
        root_patterns.append((f"cli:{extra}", extra))
    roots, problems = resolve_roots(analysis, root_patterns)
    if problems:
        for p in problems:
            print(f"analyze_hotpath: {p}", file=sys.stderr)
        return 2

    result = walk(analysis, roots, allowlist)
    stack = stack_budget(analysis, result, roots)

    print(f"analyze_hotpath: {len(objects)} objects, {len(analysis.symbols)} symbols, "
          f"{len(roots)} hot-path roots, {len(result.hot)} reachable hot functions, "
          f"{len(result.cold_barriers)} cold barriers")
    if args.verbose:
        for uid in sorted(roots, key=analysis.dname):
            print(f"  root: {analysis.dname(uid)}")
        for entry, rule, site, sink in result.suppressed:
            print(f"  allow[{rule}] {analysis.dname(site)} -> "
                  f"{analysis.demangled.get(sink, sink)} (line {entry.line_no}: {entry.reason})")

    used = {}
    for entry, _rule, _site, _sink in result.suppressed:
        used[entry.line_no] = used.get(entry.line_no, 0) + 1
    print(f"analyze_hotpath: {len(result.suppressed)} banned references excused by "
          f"{len(used)} allowlist entries")
    for entry in allowlist:
        if entry.hits == 0:
            print(f"analyze_hotpath: WARNING unused allowlist entry "
                  f"(line {entry.line_no}): {entry.pattern_text}")

    print(f"analyze_hotpath: stack: root chain {stack.root_depth} B + callback chain "
          f"{stack.callback_depth} B = {stack.total} B "
          f"({stack.matched} frames matched, {stack.unmatched} without .su records)")
    if args.verbose:
        for title, chain in (("root", stack.root_chain), ("callback", stack.callback_chain)):
            print(f"  deepest {title} chain:")
            for uid in chain:
                key = su_key(analysis.dname(uid))
                print(f"    {analysis.su_bytes.get(key, 0):6d} B  {analysis.dname(uid)}")
    for uid in stack.dynamic:
        print(f"analyze_hotpath: WARNING unbounded dynamic stack use in {analysis.dname(uid)}")
    if stack.cycles:
        uniq = sorted({analysis.dname(uid) for uid in stack.cycles})
        print(f"analyze_hotpath: WARNING {len(uniq)} recursion cycle(s) in the hot call "
              f"graph; each counted once in the budget: {', '.join(uniq[:4])}"
              + (" ..." if len(uniq) > 4 else ""))

    status = 0
    if result.findings:
        print(f"analyze_hotpath: {len(result.findings)} finding(s):")
        for finding in result.findings[:args.max_findings]:
            print(finding.render(analysis))
        if len(result.findings) > args.max_findings:
            print(f"analyze_hotpath: ... {len(result.findings) - args.max_findings} more "
                  f"(raise --max-findings)")
        status = 1

    baseline_path = os.path.join(REPO_ROOT, "BENCH_micro.json")
    if args.write_baseline:
        with open(baseline_path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        # The bench metrics own the schema version; only stamp one on a
        # freshly created file (schema v5 introduced the analyzer section).
        doc.setdefault("schema", "qperc-bench-micro-v5")
        doc.setdefault("analyzer", {})["hot_path_stack_bytes"] = stack.total
        with open(baseline_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        print(f"analyze_hotpath: wrote analyzer.hot_path_stack_bytes={stack.total} "
              f"to BENCH_micro.json")
    elif args.ratchet:
        try:
            with open(baseline_path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            budget = doc["analyzer"]["hot_path_stack_bytes"]
        except (OSError, KeyError, json.JSONDecodeError):
            print("analyze_hotpath: BENCH_micro.json has no analyzer.hot_path_stack_bytes "
                  "(schema v5) — run scripts/analyze_hotpath.py --build-dir <release-build> "
                  "--write-baseline to establish the stack budget", file=sys.stderr)
            return 2
        verdict = "ok" if stack.total <= budget else "FAIL"
        print(f"analyze_hotpath: {verdict:4s} hot_path_stack_bytes baseline={budget} "
              f"current={stack.total} (ratchet)")
        if stack.total > budget:
            print("analyze_hotpath: the worst-case hot-path stack grew; shrink the new "
                  "frames or re-bank deliberately with --write-baseline", file=sys.stderr)
            status = max(status, 1)

    print("analyze_hotpath: " + ("FAILED" if status else "OK"))
    return status


# ---------------------------------------------------------------------------
# Self-test over the checked-in fixture tree (tests/analyze). Each fixture is
# a standalone TU compiled with the same flags as the real build and pushed
# through the full pipeline; expectations are declared inline:
#
#   // analyze-root: <demangled regex>            (at least one per fixture)
#   // analyze-expect: <rule> <chain substring>
#   // analyze-expect-clean
#   // analyze-expect-cold-barrier
#   // analyze-allow: <rule> <site-regex> # <reason>
#   // analyze-expect-suppressed: <rule>
#   // analyze-expect-stack-min: <bytes>

def compile_fixture(path, tmpdir):
    compiler = shutil.which("g++") or shutil.which("c++") or shutil.which("clang++")
    if compiler is None:
        raise RuntimeError("no C++ compiler on PATH for fixture compilation")
    obj = os.path.join(tmpdir, os.path.basename(path) + ".o")
    cmd = [compiler, "-std=c++20", "-O2", "-c", "-ffunction-sections", "-fstack-usage",
           "-I", os.path.join(REPO_ROOT, "src"), "-o", obj, path]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"fixture {os.path.basename(path)} failed to compile:\n{proc.stderr}")
    return obj


def run_fixture(path, tmpdir):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    roots = re.findall(r"//\s*analyze-root:\s*(.+)$", text, re.M)
    expects = re.findall(r"//\s*analyze-expect:\s*(\S+)\s+(.+)$", text, re.M)
    expect_clean = bool(re.search(r"//\s*analyze-expect-clean", text))
    expect_barrier = bool(re.search(r"//\s*analyze-expect-cold-barrier", text))
    allows = re.findall(r"//\s*analyze-allow:\s*(.+)$", text, re.M)
    expect_suppressed = re.findall(r"//\s*analyze-expect-suppressed:\s*(\S+)", text)
    stack_min = re.search(r"//\s*analyze-expect-stack-min:\s*(\d+)", text)
    if not roots:
        return [f"{os.path.basename(path)}: fixture declares no analyze-root"]

    failures = []
    obj = compile_fixture(path, tmpdir)
    analysis = load_objects([obj])
    allowlist = load_allowlist(allows, label=os.path.basename(path))
    resolved, problems = resolve_roots(analysis, [(f"fixture:{r}", r) for r in roots])
    if problems:
        return [f"{os.path.basename(path)}: {p}" for p in problems]
    result = walk(analysis, resolved, allowlist)
    stack = stack_budget(analysis, result, resolved)

    rendered = [f.render(analysis) for f in result.findings]
    for rule, substring in expects:
        hit = any(f.rule == rule and substring in text_r
                  for f, text_r in zip(result.findings, rendered))
        if not hit:
            failures.append(f"{os.path.basename(path)}: expected a [{rule}] finding whose "
                            f"chain mentions '{substring}'; got:\n" +
                            ("\n".join(rendered) or "  (no findings)"))
    if expect_clean and result.findings:
        failures.append(f"{os.path.basename(path)}: expected a clean result; got:\n" +
                        "\n".join(rendered))
    if expect_barrier and not result.cold_barriers:
        failures.append(f"{os.path.basename(path)}: expected the walk to stop at a "
                        f"QPERC_COLD_PATH barrier, but none was hit")
    for rule in expect_suppressed:
        if not any(r == rule for _e, r, _s, _k in result.suppressed):
            failures.append(f"{os.path.basename(path)}: expected an allowlist suppression "
                            f"for rule {rule}")
    if stack_min:
        want = int(stack_min.group(1))
        if stack.total < want:
            failures.append(f"{os.path.basename(path)}: expected stack budget >= {want} B, "
                            f"computed {stack.total} B")
    return failures


def check_clone_records(fixture_dir):
    """clone_records.su holds .su records named after an IPA clone kind (the
    first is GCC 12's record for a constprop clone of fairness.cpp's
    run_cell); each must reach the frame of the clone symbol it belongs to,
    and two clones of one kind in one object must not swap frames."""
    analysis = Analysis()
    symbols = {
        "_ZN5qperc6runner12_GLOBAL__N_18run_cellERKNS0_12FairnessTaskERKNS0_12FairnessSpecERKNS_3web7WebsiteERNS_4core12TrialContextE.constprop.0":
            "qperc::runner::(anonymous namespace)::run_cell(qperc::runner::FairnessTask const&, "
            "qperc::runner::FairnessSpec const&, qperc::web::Website const&, "
            "qperc::core::TrialContext&) [clone .constprop.0]",
        "_ZN5qperc6runner12_GLOBAL__N_15mergeEm.constprop.0":
            "qperc::runner::(anonymous namespace)::merge(unsigned long) [clone .constprop.0]",
        # IPA-SRA may drop parameters, so its record need not list the
        # symbol's parameter count.
        "_ZN5qperc6runner12_GLOBAL__N_14scanEiii.isra.0":
            "qperc::runner::(anonymous namespace)::scan(int, int, int) [clone .isra.0]",
    }
    for raw, demangled in symbols.items():
        uid = analysis.uid(raw, 0, True)
        analysis.symbols[uid] = {"section": ".text." + raw, "value": 0, "size": 1, "obj": 0,
                                 "local": True, "weak": False, "func": True}
        analysis.demangled[raw] = demangled
    parse_su_file(analysis, 0, os.path.join(fixture_dir, "clone_records.su"))
    resolve_su_clones(analysis)
    want = {"qperc::runner::(anonymous namespace)::run_cell": 2096,
            "qperc::runner::(anonymous namespace)::merge": 64,
            "qperc::runner::(anonymous namespace)::scan": 48}
    got = {key: analysis.su_bytes.get(key) for key in want}
    if got != want:
        return [f"clone_records.su: expected clone frames {want}, matched {got}"]
    return []


def run_self_test(fixture_dir):
    fixtures = sorted(
        os.path.join(fixture_dir, f) for f in os.listdir(fixture_dir)
        if f.startswith("fixture_") and f.endswith(".cpp"))
    if not fixtures:
        print(f"analyze_hotpath: no fixtures under {fixture_dir}", file=sys.stderr)
        return False
    failures = []
    with tempfile.TemporaryDirectory(prefix="qperc-analyze-selftest-") as tmp:
        for path in fixtures:
            try:
                failures.extend(run_fixture(path, tmp))
            except (RuntimeError, ValueError) as e:
                failures.append(str(e))
    failures.extend(check_clone_records(fixture_dir))
    # Allowlist hygiene is part of the proof: entries without reasons must be
    # rejected, unknown rules must be rejected.
    try:
        load_allowlist(["alloc ^foo$"], label="selftest")
        failures.append("allowlist entry without a reason was accepted")
    except ValueError:
        pass
    try:
        load_allowlist(["not-a-rule ^foo$ # why"], label="selftest")
        failures.append("allowlist entry with an unknown rule was accepted")
    except ValueError:
        pass
    for line in failures:
        print(f"analyze_hotpath: self-test FAILED: {line}", file=sys.stderr)
    if not failures:
        print(f"analyze_hotpath: self-test OK ({len(fixtures)} fixtures: every rule "
              f"fires, cold-path and allowlist suppression hold)")
    return not failures


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", help="build directory whose src objects to scan")
    parser.add_argument("--allowlist",
                        default=os.path.join(REPO_ROOT, "scripts", "hotpath_allowlist.txt"),
                        help="reviewed exemption file (default scripts/hotpath_allowlist.txt)")
    parser.add_argument("--root", action="append", default=[],
                        help="additional hot-path root (demangled-name regex)")
    parser.add_argument("--ratchet", action="store_true",
                        help="compare the stack budget against BENCH_micro.json (schema v5)")
    parser.add_argument("--write-baseline", action="store_true",
                        help="bank the computed stack budget into BENCH_micro.json")
    parser.add_argument("--self-test", action="store_true",
                        help="compile the tests/analyze fixtures and prove every rule "
                             "fires and every suppression works")
    parser.add_argument("--fixture-dir", default=os.path.join(REPO_ROOT, "tests", "analyze"),
                        help="fixture directory for --self-test")
    parser.add_argument("--max-findings", type=int, default=25,
                        help="cap on printed findings (default 25)")
    parser.add_argument("--verbose", action="store_true",
                        help="print roots, suppressions, and the deepest stack chains")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule:12s} {RULE_HELP[rule]}")
        return 0

    if args.self_test:
        if not run_self_test(args.fixture_dir):
            return 2
        if args.build_dir is None:
            return 0

    if args.build_dir is None:
        parser.error("--build-dir is required unless --self-test/--list-rules")
    return scan_tree(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
