#!/usr/bin/env python3
"""List the fields of the simulator's config structs and who sets them.

For every field of the config structs named in STRUCTS (declared under
src/), print how many places outside the struct's own body set it,
split into src/, programs (bench/, examples/, perfbench/) and tests/.
A place sets a field when it:

  - assigns the field or one of its members (`cfg.crash.enabled =
    true` sets SystemConfig::crash and CrashConfig::enabled);
  - calls a mutating member on it (`plan.schedule.push_back(...)`), or
    a member function of the struct that sets it (`plan.crashAt(...)`
    sets what crashAt's body sets);
  - names it in a designated initialiser (`{.seed = 3}`).

The parse is a regex scan of C++, not a compiler: variable types come
from declarations in the same file (and, for a .cc, its .hh), and a
write through a variable of unknown type is credited to every listed
struct that has a field of that name. Treat the table as a report to
read, not as a gate.

Usage: scripts/count_options.py [--root DIR] [--unset-only]
"""

import argparse
import pathlib
import re
import sys

STRUCTS = [
    "SystemConfig", "MachineConfig", "FaultPlan", "CrashConfig",
    "SchedConfig", "ServiceConfig", "OpenLoopConfig", "ShardedKvConfig",
    "NpbConfig", "GmaConfig", "TraceConfig", "ArrivalConfig",
    "KeyDistConfig", "SnoopCosts", "TopologySpec", "PlacementHints",
]

AREAS = [("src", ["src"]), ("programs", ["bench", "examples", "perfbench"]),
         ("tests", ["tests"])]

MUTATORS = {"push_back", "emplace_back", "insert", "emplace", "assign",
            "clear", "resize", "erase", "reset", "pop_back"}

IDENT = r"[A-Za-z_]\w*"


def strip_comments(text):
    """Blank out comments and string literals, keeping line structure."""
    def blank(m):
        return re.sub(r"[^\n]", " ", m.group(0))
    # A quote after a digit is a digit separator (60'000), not a char.
    pattern = (r'//[^\n]*|/\*.*?\*/|"(?:\\.|[^"\\\n])*"|'
               r"(?<!\w)'(?:\\.|[^'\\\n])+'")
    return re.sub(pattern, blank, text, flags=re.S)


def matching(text, i, open_ch="{", close_ch="}"):
    """Index just past the bracket that closes the one at text[i]."""
    depth = 0
    for j in range(i, len(text)):
        if text[j] == open_ch:
            depth += 1
        elif text[j] == close_ch:
            depth -= 1
            if depth == 0:
                return j + 1
    return len(text)


def drop_templates(s):
    """Remove <...> template argument lists (nested)."""
    prev = None
    while prev != s:
        prev = s
        s = re.sub(r"<[^<>;{}]*>", "", s)
    return s


def parse_struct(body):
    """Fields {name: type} and methods {name: body text} of a body."""
    fields, methods = {}, {}
    i, stmt = 0, ""
    while i < len(body):
        c = body[i]
        if c == "{":
            end = matching(body, i)
            flat = drop_templates(stmt)
            if ")" in flat or re.match(r"\s*(enum|struct|class)\b", stmt):
                m = re.search(r"(" + IDENT + r")\s*\(", flat)
                if m:
                    methods[m.group(1)] = body[i:end]
                stmt = ""
                i = end
                while i < len(body) and body[i] in " \t\n;":
                    i += 1
                continue
            stmt += body[i:end]
            i = end
            continue
        if c == ";":
            add_field(stmt, fields)
            stmt = ""
        else:
            stmt += c
        i += 1
    return fields, methods


def add_field(stmt, fields):
    s = stmt.strip()
    s = re.sub(r"^(public|private|protected)\s*:", "", s).strip()
    if not s or re.match(r"(static|using|friend|typedef|enum|struct|"
                         r"class|template)\b", s):
        return
    decl = re.split(r"=|\{", s, 1)[0]
    if "(" in drop_templates(decl):
        return
    m = re.match(r"(.*?)(" + IDENT + r")\s*$", decl, re.S)
    if not m or not m.group(1).strip():
        return
    fields[m.group(2)] = " ".join(m.group(1).split())


def field_struct_type(type_text):
    """The listed struct a field's type names, if any."""
    for s in STRUCTS:
        if re.search(r"\b" + s + r"\b", type_text):
            return s
    return None


def load_structs(root):
    structs = {}
    for path in sorted((root / "src").rglob("*.hh")):
        text = strip_comments(path.read_text())
        for name in STRUCTS:
            for m in re.finditer(r"\bstruct\s+" + name + r"\s*\{", text):
                start = m.end() - 1
                end = matching(text, start)
                fields, methods = parse_struct(text[start + 1:end - 1])
                structs[name] = {"path": path, "span": (start, end),
                                 "fields": fields, "methods": methods}
    return structs


def declared_types(text, base=0):
    """{variable: [(offset, type name)]} from declarations like
    `Type &var`, so a use can take the nearest declaration above it."""
    types = {}
    decl = re.compile(r"\b(?:const\s+)?(?:std::optional<\s*)?(" + IDENT +
                      r")\s*>?\s*[&*]?\s*(" + IDENT + r")\s*(?=[;={(,)\[])")
    for m in decl.finditer(text):
        tname, var = m.group(1), m.group(2)
        if tname in ("return", "else", "new", "delete", "case", "goto",
                     "auto", "const", "struct", "class", "using"):
            continue
        types.setdefault(var, []).append((base + m.start(), tname))
    return types


def type_at(types, var, pos):
    """Type of the last declaration of @p var before @p pos."""
    best = None
    for at, tname in types.get(var, ()):
        if at <= pos:
            best = tname
    return best


def method_sets(structs):
    """{struct: {method: set of fields its body sets}}."""
    out = {}
    for sname, info in structs.items():
        out[sname] = {}
        for meth, body in info["methods"].items():
            hit = set()
            for f in info["fields"]:
                if re.search(r"(?<![\w.>])" + f + r"\s*(?:\.|->)\s*(" +
                             "|".join(MUTATORS) + r")\s*\(", body) or \
                   re.search(r"(?<![\w.>])" + f + r"\s*(?:[-+*/|&]?=)(?!=)",
                             body):
                    hit.add(f)
            out[sname][meth] = hit
        # A builder that calls another (severLinkAt -> linkBothWaysAt).
        changed = True
        while changed:
            changed = False
            for meth, body in info["methods"].items():
                for callee in re.findall(r"(?<![\w.>])(" + IDENT +
                                         r")\s*\(", body):
                    extra = out[sname].get(callee, set()) - \
                        out[sname][meth]
                    if callee != meth and extra:
                        out[sname][meth] |= extra
                        changed = True
    return out


def count(root, structs):
    by_field = {}
    for sname, info in structs.items():
        for f in info["fields"]:
            by_field.setdefault(f, []).append(sname)
    setters = method_sets(structs)
    counts = {(s, f): {a: 0 for a, _ in AREAS}
              for s, info in structs.items() for f in info["fields"]}

    chain_re = re.compile(r"(" + IDENT + r")((?:\s*(?:\.|->)\s*" + IDENT +
                          r")+)\s*(\(|(?:[-+*/|&]?=)(?!=))")
    desig_re = re.compile(r"[{,]\s*\.(" + IDENT + r")\s*=")

    for area, dirs in AREAS:
        for d in dirs:
            base = root / d
            if not base.exists():
                continue
            for path in sorted(base.rglob("*")):
                if path.suffix not in (".cc", ".hh", ".cpp", ".h"):
                    continue
                text = strip_comments(path.read_text())
                own = [info["span"] for info in structs.values()
                       if info["path"] == path]
                # Header declarations (members) count as above every use.
                types = {}
                header = path.with_suffix(".hh")
                if path.suffix == ".cc" and header.exists():
                    types = declared_types(
                        strip_comments(header.read_text()), -1 << 40)
                for var, decls in declared_types(text).items():
                    types.setdefault(var, []).extend(decls)
                for m in chain_re.finditer(text):
                    if any(a <= m.start() < b for a, b in own):
                        continue
                    names = re.findall(IDENT, m.group(2))
                    op = m.group(3)
                    if op == "(":
                        last = names.pop()
                        if not names:
                            # var.method(...): a struct builder.
                            t = type_at(types, m.group(1), m.start())
                            for s in ([t] if t in setters else []):
                                for f in setters[s].get(last, ()):
                                    counts[(s, f)][area] += 1
                            continue
                        if last not in MUTATORS:
                            continue
                    credit(type_at(types, m.group(1), m.start()), names, structs, by_field,
                           counts, area)
                for m in desig_re.finditer(text):
                    if any(a <= m.start() < b for a, b in own):
                        continue
                    for s in by_field.get(m.group(1), []):
                        counts[(s, m.group(1))][area] += 1
    return counts


def credit(root_type, names, structs, by_field, counts, area):
    """Credit every field along a write chain var.f1.f2... ."""
    if root_type is not None and root_type not in structs:
        # A typed variable of some other struct: follow only if the
        # first hop names a listed struct's field by unique type.
        candidates = []
    elif root_type in structs:
        candidates = [root_type]
    else:
        candidates = by_field.get(names[0], [])
    current = candidates
    for name in names:
        nxt = []
        for s in current:
            fields = structs[s]["fields"]
            if name in fields:
                counts[(s, name)][area] += 1
                t = field_struct_type(fields[name])
                if t:
                    nxt.append(t)
        if not nxt:
            return
        current = nxt


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--root", default=str(pathlib.Path(__file__).resolve()
                                          .parent.parent))
    ap.add_argument("--unset-only", action="store_true",
                    help="print only fields that nothing sets")
    args = ap.parse_args()
    root = pathlib.Path(args.root)
    structs = load_structs(root)
    missing = [s for s in STRUCTS if s not in structs]
    if missing:
        print("not found under src/: " + ", ".join(missing),
              file=sys.stderr)
    counts = count(root, structs)
    print("| field | src | programs | tests |")
    print("|---|---|---|---|")
    unset = 0
    for s in STRUCTS:
        if s not in structs:
            continue
        for f in structs[s]["fields"]:
            c = counts[(s, f)]
            total = sum(c.values())
            unset += total == 0
            if args.unset_only and total:
                continue
            print(f"| {s}::{f} | {c['src']} | {c['programs']} | "
                  f"{c['tests']} |")
    print(f"\n{len(counts)} fields in {len(structs)} structs; "
          f"{unset} set by nothing")


if __name__ == "__main__":
    main()
