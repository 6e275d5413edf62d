#!/usr/bin/env python3
"""Audits dfp's configuration surface: a knob exists only if something sets it.

Four kinds of findings:

  unused    Class::member  A member declared in src/**/*.h that nothing in src/, bench/,
                           examples/ or perfbench/ references outside its own declaration
                           (and, for functions, its out-of-line definition).
  uncalled  Function       A namespace-scope function declared in src/**/*.h that nothing in
                           those directories calls outside its own declarations and
                           definitions.
  unset     Struct::field  A field of a config struct (every *Config, *Options, *Thresholds,
                           *Costs and *CostModel in src/) that nothing outside tests/
                           assigns.
  unread    Class::field   A data member declared in src/**/*.h whose every use in those
                           directories is its declaration or the target of an assignment, a
                           compound assignment or an increment.

The scan is textual: comments and string literals are blanked, then names are matched as
whole words, so a member or function whose name something else shares counts as referenced;
a function counts as called at `name(`, so one only passed by pointer needs an entry. A use
of a data member counts as a write when the name is followed by `=` or a compound assignment
(`.name = x`, `p->name += x`, a designated initializer, or a local of the same name declared
with an initializer) or when an increment or decrement of it is a whole statement
(`++x.name;`, `name--;`); every other use reads it. A field counts as assigned when an access
path through it (`x.field`, `p->field`, `x.field.sub`) is the target of an assignment, or
when a positional aggregate initializer reaches it. Reading a field back from a state file
(`>>`) does not count: the file only carries what a config held. Receiver types are inferred
from declarations, so a finding is a lead to check by hand.

Exits 1 on any finding missing from ALLOWED, and on an ALLOWED entry that is no longer a
finding, so the allowlist cannot go stale. Run from anywhere:

  python3 tools/audit_surface.py [repo-root]
"""
import os
import re
import sys

# Findings that stay, each with the reason it stays.
_CALIBRATION = "the compile-cost calibration record perfbench constructs; kCompileCosts holds it"
ALLOWED = {
    "unset CompileCostModel::base_cycles": _CALIBRATION,
    "unset CompileCostModel::per_ir_instr": _CALIBRATION,
    "unset CompileCostModel::per_machine_instr": _CALIBRATION,
    "unset CompileCostModel::cache_lookup_cycles": _CALIBRATION,
    "unset CompileCostModel::baseline_base_cycles": _CALIBRATION,
    "unset CompileCostModel::baseline_per_ir_instr": _CALIBRATION,
    "unset CompileCostModel::baseline_per_machine_instr": _CALIBRATION,
    "unset CompileCostModel::patch_per_site_cycles": _CALIBRATION,
    "unset DatabaseConfig::state_bytes":
        "one arena region size, kept with the sibling sizes benches and perfbench set",
    "unset ProfilingConfig::packed_tags":
        "the only switch for multi-level tag packing (paper Section 4.2.5)",
    "unset ReoptRewriteOptions::semi_join_reduction":
        "the only switch for the semi-join reduction rewrite",
    "unset SchedFeedbackConfig::repair_pessimize":
        "fault injection: the repair-guard tests make a repair regress so it must be reverted",
    "unset ServiceConfig::state_path":
        "process wiring for restarts, set by the persistence tests; traces never capture it",
    "uncalled CrossCheckAttributionPerWorker":
        "the Section 6.3 validation split by worker, the oracle of the parallel Register "
        "Tagging property test",
    "uncalled InterpretIr":
        "the IR reference interpreter the backend and pass tests compare compiled code against",
    "uncalled RenderMachineListing":
        "the machine-instruction level of the report stack, the lowest abstraction level a "
        "profile resolves to; the window tests render it",
    "unused CodeMap::segments":
        "the plan-cache tests count code segments to prove a warm hit compiles nothing",
    "unused HashTableView::Chain": "the runtime tests walk the hash table generated code built",
    "unused HashTableView::Entries": "the runtime tests walk the hash table generated code built",
    "unused LivenessInfo::LiveIn": "the liveness result the register-allocator tests check",
    "unused LivenessInfo::LiveOut": "the liveness result the register-allocator tests check",
    "unused PlanBuilder::Project":
        "the plan-builder projection the engine and differential tests build plans with",
    "unused ProfilingSession::LoadForPostProcessing":
        "decoupled post-processing of a stored stream (paper Section 5.2), under test",
    "unused Runtime::ht_lookup_fn":
        "the lookup helper stays compiled so the runtime code layout, and with it every "
        "profile's instruction pointers, does not move; the runtime tests call it",
    "unused ShardCatalog::counts": "the partition tests compare the generated row counts",
    "unused ShardCatalog::order_rows": "the partition tests check each shard's orders split",
    "unused TableBuilder::SetDouble":
        "DOUBLE columns exist in storage; the storage and random-plan tests fill them",
    "unused VMem::regions": "the VMem and service tests enumerate the arena's regions",
    "unread ReplayRun::service_profile_text":
        "the replay differential tests compare the replay's rendered fleet profile with the "
        "recording's",
    "unread ReplayRun::tier_timeline_text":
        "the replay differential tests compare the replay's tier timeline with the recording's",
}

CODE_DIRS = ("src", "bench", "examples", "perfbench")
CONFIG_NAME = re.compile(r"(Config|Options|Thresholds|Costs|CostModel)$")
SOURCE_EXT = (".h", ".cc", ".cpp")

TYPE_HEAD = re.compile(r"\b(class|struct)\s+(\w+)\s*(?:final\s*)?(?::[^{;]*)?\{")
IDENT = re.compile(r"[A-Za-z_]\w*")
SKIP_STATEMENT = re.compile(
    r"^\s*(using|friend|typedef|static_assert|enum|class|struct|union|namespace)\b")
ACCESS = re.compile(r"^\s*(public|private|protected)\s*:")
KEYWORDS = {"const", "constexpr", "static", "inline", "explicit", "virtual", "mutable",
            "override", "final", "noexcept", "default", "delete", "operator", "return",
            "template", "typename"}


def strip_code(text):
    """Blanks comments, string and character literals, keeping offsets and newlines."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append(re.sub(r"[^\n]", " ", text[i:j]))
            i = j
        elif text.startswith('R"', i) and (i == 0 or not (text[i - 1].isalnum() or
                                                         text[i - 1] == "_")):
            m = re.match(r'R"([^(\s]*)\(', text[i:])
            end = text.find(")" + m.group(1) + '"', i) if m else -1
            j = n if end < 0 else end + len(m.group(1)) + 2
            out.append(re.sub(r"[^\n]", " ", text[i:j]))
            i = j
        elif c == "'" and 0 < i < n - 1 and text[i - 1].isalnum() and text[i + 1].isalnum():
            out.append(c)  # A digit separator, as in 1'000.
            i += 1
        elif c in "\"'":
            j = i + 1
            while j < n and text[j] != c and text[j] != "\n":
                j += 2 if text[j] == "\\" else 1
            out.append(c + " " * (min(j, n) - i - 1) + (c if j < n else ""))
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def matching_brace(text, open_at):
    depth = 0
    for i in range(open_at, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return len(text) - 1


def member_statements(body):
    """Splits a class body into its top-level member declarations (nested bodies dropped)."""
    statements, current = [], []
    depth = paren = 0
    for i, c in enumerate(body):
        if c == "{":
            depth += 1
            if depth == 1:
                current.append("{}")
            continue
        if c == "}":
            depth -= 1
            # A brace initializer is followed by `;`, `,` or `)`; anything else closed a body.
            rest = body[i + 1:].lstrip()
            if depth == 0 and paren == 0 and not rest.startswith((";", ",", ")")):
                statements.append("".join(current))
                current = []
            continue
        if depth:
            continue
        if c == "(":
            paren += 1
        elif c == ")":
            paren -= 1
        if c == ";" and paren == 0:
            statements.append("".join(current))
            current = []
        else:
            current.append(c)
    return statements


def member_name(statement, class_name):
    """Declared name of one member statement, or None for what is not a member to audit."""
    text = statement
    while True:
        m = ACCESS.match(text)
        if not m:
            break
        text = text[m.end():]
    text = re.sub(r"^\s*template\s*<[^;{]*?>\s*", "", text)
    if not text.strip() or SKIP_STATEMENT.match(text) or "operator" in text:
        return None
    head = re.split(r"(?<![=!<>])=(?!=)", text, 1)[0]
    if "(" in head:
        names = IDENT.findall(head[:head.index("(")])
        names = [n for n in names if n not in KEYWORDS]
        if not names or names[-1] in (class_name, "DFP_KNOB") or head.lstrip().startswith("~"):
            return None
        return names[-1]
    # A data member: drop a brace initializer, an array bound and a bit-field width.
    head = re.split(r"[{\[]|(?<!:):(?!:)", head, 1)[0]
    names = [n for n in IDENT.findall(head) if n not in KEYWORDS]
    return names[-1] if len(names) >= 2 else None


def namespace_statements(text):
    """Splits a file into its namespace-scope declarations: namespace bodies are entered, every
    other body (class, function, initializer) is dropped, and preprocessor lines are skipped."""
    text = re.sub(r"^[ \t]*#(?:[^\n]*\\\n)*[^\n]*", lambda m: re.sub(r"[^\n]", " ", m.group(0)),
                  text, flags=re.M)
    statements, current = [], []
    i = 0
    while i < len(text):
        c = text[i]
        if c == "{":
            if re.search(r"\bnamespace(?:\s+[\w:]+)?\s*$", "".join(current)):
                current = []
                i += 1
                continue
            current.append("{}")
            i = matching_brace(text, i) + 1
            # A function body ends its declaration; a class body or initializer is followed by
            # the rest of its statement.
            if not text[i:].lstrip().startswith((";", ",", ")")):
                statements.append("".join(current))
                current = []
            continue
        if c in ";}":
            statements.append("".join(current))
            current = []
        else:
            current.append(c)
        i += 1
    return statements


def function_name(statement):
    """Name a namespace-scope statement declares or defines a function by, or None."""
    text = statement.lstrip()
    if re.match(r"template\s*<", text):
        depth = 0
        for j, c in enumerate(text):
            depth += c == "<"
            depth -= c == ">"
            if c == ">" and depth == 0:
                text = text[j + 1:]
                break
    if SKIP_STATEMENT.match(text) or "operator" in text:
        return None
    head = re.split(r"(?<![=!<>])=(?!=)", text, 1)[0]
    if "(" not in head:
        return None
    before = head[:head.index("(")]
    if re.search(r"::\s*\w+\s*$", before):
        return None  # An out-of-line member definition.
    names = [n for n in IDENT.findall(before) if n not in KEYWORDS]
    return names[-1] if len(names) >= 2 else None


def read_sources(root):
    """Every C++ file under CODE_DIRS, comments and literals blanked, by relative path."""
    sources = {}
    for top in CODE_DIRS:
        for dirpath, _, files in os.walk(os.path.join(root, top)):
            for name in files:
                if name.endswith(SOURCE_EXT):
                    path = os.path.join(dirpath, name)
                    with open(path, encoding="utf-8") as f:
                        sources[os.path.relpath(path, root)] = strip_code(f.read())
    return sources


def declarations(sources):
    """(class, member, field type or None for functions, path, whether the declaration writes
    an initializer with `=`) per member of every class.

    Classes come from every scanned file so a receiver's type resolves even when it is a
    bench's own struct; only src/**/*.h members are audited.
    """
    found = []
    for path, text in sources.items():
        for m in TYPE_HEAD.finditer(text):
            class_name = m.group(2)
            body_open = m.end() - 1
            body = text[body_open + 1:matching_brace(text, body_open)]
            for statement in member_statements(body):
                name = member_name(statement, class_name)
                if not name:
                    continue
                head = re.split(r"(?<![=!<>])=(?!=)", statement, 1)[0]
                field_type = None
                if "(" not in head:
                    t = re.search(r"(\w+)\s*(?:<[^;]*>)?\s*[&*]?\s*\b%s\b" % name, head)
                    field_type = t.group(1) if t else ""
                initialized = bool(re.search(r"\b%s\s*=(?!=)" % name, statement))
                found.append((class_name, name, field_type, path, initialized))
    return found


def write_counts(code):
    """Per identifier: its uses in `code` that only write it (see the module docstring)."""
    counts = {}
    path = r"(?:\w+\s*(?:\.|->)\s*)*"
    write = re.compile(r"\b([A-Za-z_]\w*)\s*(?:[-+*/%|&^]|<<|>>)?=(?!=)|" +
                       r"(?:^|[;{}])\s*(?:\+\+|--)\s*" + path + r"([A-Za-z_]\w*)\s*;|" +
                       r"(?:^|[;{}])\s*" + path + r"([A-Za-z_]\w*)\s*(?:\+\+|--)\s*;",
                       re.M)
    for text in code.values():
        for m in write.finditer(text):
            name = m.group(1) or m.group(2) or m.group(3)
            counts[name] = counts.get(name, 0) + 1
    return counts


def is_config(class_name):
    return bool(CONFIG_NAME.search(class_name))


def assigned_fields(code, decls):
    """(struct, field) pairs some access path or aggregate initializer in `code` assigns.

    Each path element's owner is resolved from the receiver's declared type (a variable
    declared in the same file, else one declared with a single type anywhere) and then field
    by field. An element whose owner does not resolve counts for the non-config structs with
    a field of that name, or for every struct with one when only config structs have it.
    """
    field_owners, field_type, field_order = {}, {}, {}
    for class_name, name, ftype, *_ in decls:
        if ftype is not None:
            field_owners.setdefault(name, set()).add(class_name)
            field_type[(class_name, name)] = ftype
            field_order.setdefault(class_name, []).append(name)
    declared = re.compile(
        r"\b([A-Z]\w*)\s*(?:<[^;()]*>)?\s*(?:const\s*)?[&*]?\s*\b(\w+)\s*[;=({,)\[]")
    local_types, global_types = {}, {}
    for path, text in code.items():
        for m in declared.finditer(text):
            local_types.setdefault((path, m.group(2)), set()).add(m.group(1))
            global_types.setdefault(m.group(2), set()).add(m.group(1))
    write = re.compile(r"(\w+(?:\s*(?:\.|->)\s*\w+)+)\s*(?:[-+*/|&^]|<<|>>)?=(?!=)")
    assigned = set()
    # Positional aggregate initialization, `Type{a, b}` or `Type name{a, b}`, sets the first
    # fields in declaration order.
    aggregate = re.compile(r"(?<!struct )(?<!class )\b(%s)\s*(?:\w+\s*)?\{" %
                           "|".join(map(re.escape, field_order)))
    for text in code.values():
        for m in aggregate.finditer(text):
            inner = text[m.end():matching_brace(text, m.end() - 1)]
            depth, values = 0, 1 if inner.strip() else 0
            for c in inner:
                depth += c in "({[<"
                depth -= c in ")}]>"
                values += c == "," and depth == 0
            if not inner.lstrip().startswith("."):
                assigned.update((m.group(1), f) for f in field_order[m.group(1)][:values])
    for path, text in code.items():
        for m in write.finditer(text):
            parts = re.split(r"\s*(?:\.|->)\s*", m.group(1))
            types = local_types.get((path, parts[0])) or global_types.get(parts[0], set())
            owner = next(iter(types)) if len(types) == 1 else None
            for part in parts[1:]:
                if owner is not None and (owner, part) in field_type:
                    assigned.add((owner, part))
                    owner = field_type[(owner, part)]
                else:
                    owners = field_owners.get(part, set())
                    data = {o for o in owners if not is_config(o)}
                    assigned.update((o, part) for o in (data or owners))
                    owner = None
    return assigned


def main():
    root = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else
                           os.path.join(os.path.dirname(__file__), ".."))
    code = read_sources(root)
    decls = declarations(code)
    audited = [d for d in decls if d[3].startswith("src" + os.sep) and d[3].endswith(".h")]

    # A data member is referenced by its name; a member function by a call `name(` or a
    # pointer to member `&Class::name`, so a local or parameter sharing its name does not hide
    # an accessor nothing calls.
    word_counts, call_counts = {}, {}
    for text in code.values():
        for word in IDENT.findall(text):
            word_counts[word] = word_counts.get(word, 0) + 1
        for m in re.finditer(r"\b([A-Za-z_]\w*)\s*(?:<[\w\s:,*&]*>)?\s*\(|"
                             r"::\s*([A-Za-z_]\w*)\b(?!\s*\()", text):
            name = m.group(1) or m.group(2)
            call_counts[name] = call_counts.get(name, 0) + 1
    # Own declarations: one per declared member, plus each out-of-line `Class::name(` that
    # starts a line (a definition, not a call).
    own, own_calls = {}, {}
    for _, name, ftype, _, _ in decls:
        own[name] = own.get(name, 0) + 1
        own_calls[name] = own_calls.get(name, 0) + (ftype is None)
    classes = {class_name for class_name, *_ in decls}
    definition = re.compile(r"^\S[^\n;]*?\b(\w+)::(\w+)\s*\(", re.M)
    for text in code.values():
        for m in definition.finditer(text):
            if m.group(1) in classes and m.group(2) in own:
                own[m.group(2)] += 1
                own_calls[m.group(2)] += 1

    # Namespace-scope functions: declared in a src/ header, called outside their own
    # declarations and definitions (a member of the same name counts as its own too).
    functions, free_own = set(), {}
    for path, text in code.items():
        for statement in namespace_statements(text):
            name = function_name(statement)
            if name:
                free_own[name] = free_own.get(name, 0) + 1
                if path.startswith("src" + os.sep) and path.endswith(".h"):
                    functions.add(name)

    findings = set()
    for name in functions:
        if call_counts.get(name, 0) <= free_own[name] + own_calls.get(name, 0):
            findings.add("uncalled %s" % name)
    for class_name, name, ftype, *_ in audited:
        if (word_counts.get(name, 0) <= own[name] if ftype is not None else
                call_counts.get(name, 0) <= own_calls[name]):
            findings.add("unused %s::%s" % (class_name, name))
    # Writes outside the declarations: an initializer in a declaration is not a second use.
    writes = write_counts(code)
    for _, name, _, _, initialized in decls:
        writes[name] = writes.get(name, 0) - initialized
    for class_name, name, ftype, *_ in audited:
        if (ftype is not None and word_counts.get(name, 0) > own[name] and
                word_counts.get(name, 0) <= own[name] + writes.get(name, 0)):
            findings.add("unread %s::%s" % (class_name, name))
    assigned = assigned_fields(code, decls)
    for class_name, name, ftype, *_ in audited:
        if ftype is not None and is_config(class_name) and (class_name, name) not in assigned:
            findings.add("unset %s::%s" % (class_name, name))

    bad = sorted(f for f in findings if f not in ALLOWED)
    stale = sorted(k for k in ALLOWED if k not in findings)
    for finding in sorted(findings):
        print(("allowed  " if finding in ALLOWED else "FINDING  ") + finding)
    for entry in stale:
        print("STALE    %s (allowlisted, no longer a finding)" % entry)
    print("%d findings, %d allowed, %d new, %d stale allowlist entries" %
          (len(findings), len(findings) - len(bad), len(bad), len(stale)))
    return 1 if bad or stale else 0


if __name__ == "__main__":
    sys.exit(main())
