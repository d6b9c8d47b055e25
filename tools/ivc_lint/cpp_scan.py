"""Token-level C++ scanner for ivc_lint.

A comment/string-aware lexer plus the IVC_* exemption annotations. It is
deliberately not a C++ parser — it recovers exactly the facts the rules
need (identifier tokens with line numbers and the justified exemptions)
and nothing more; every rule (R0/R1/R2/R4) is a pattern over this token
stream.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

# Token kinds: "id", "num", "str", "char", "punct".
_ID_START = re.compile(r"[A-Za-z_]")
_ID = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUM = re.compile(r"\.?[0-9](?:[0-9a-zA-Z_.]|[eEpP][+-])*")
_RAW_STR = re.compile(r'R"([^()\\ \t\n]*)\(')

# Keywords that can follow a type or open a parenthesis but never name a
# declared variable.
CONTROL_KEYWORDS = {
    "if", "for", "while", "switch", "catch", "return", "sizeof", "alignof",
    "alignas", "decltype", "static_assert", "noexcept", "new", "delete",
    "throw", "case", "do", "else", "goto", "co_await", "co_return",
    "co_yield", "requires", "typeid", "assert",
}

MARKER_ORDER_EXEMPT = "IVC_ORDER_EXEMPT"
MARKER_LINT_ALLOW = "IVC_LINT_ALLOW"


@dataclass
class Token:
    kind: str
    value: str
    line: int


@dataclass
class Annotation:
    macro: str          # IVC_ORDER_EXEMPT or IVC_LINT_ALLOW
    rule: str | None    # the named rule for LINT_ALLOW, None for ORDER_EXEMPT
    why: str | None     # justification text, None when unparseable
    line: int


@dataclass
class FileModel:
    path: str            # path relative to the lint root, posix separators
    tokens: list[Token]
    annotations: list[Annotation]
    # Lines covered by suppressions, per rule: rule -> set of line numbers.
    suppressed: dict[str, set[int]]


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    n = len(text)
    line = 1
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        # Preprocessor directive: skip to end of (continued) line. Macro
        # *definitions* thereby vanish from the stream — annotations are
        # read at their use sites.
        if c == "#" and (not tokens or tokens[-1].line != line):
            while i < n:
                if text[i] == "\n":
                    if text[i - 1] == "\\" or (i >= 2 and text[i - 2] == "\\" and text[i - 1] == "\r"):
                        line += 1
                        i += 1
                        continue
                    break
                i += 1
            continue
        if c == "/" and i + 1 < n:
            if text[i + 1] == "/":
                j = text.find("\n", i)
                i = n if j < 0 else j
                continue
            if text[i + 1] == "*":
                j = text.find("*/", i + 2)
                end = n if j < 0 else j + 2
                line += text.count("\n", i, end)
                i = end
                continue
        if c == '"' or (c == "R" and _RAW_STR.match(text, i)):
            if c == "R":
                m = _RAW_STR.match(text, i)
                delim = ")" + m.group(1) + '"'
                j = text.find(delim, m.end())
                end = n if j < 0 else j + len(delim)
                tokens.append(Token("str", text[m.end():j if j >= 0 else n], line))
                line += text.count("\n", i, end)
                i = end
                continue
            j = i + 1
            while j < n and text[j] != '"':
                if text[j] == "\\":
                    j += 1
                j += 1
            tokens.append(Token("str", text[i + 1:j], line))
            i = j + 1
            continue
        if c == "'":
            j = i + 1
            while j < n and text[j] != "'":
                if text[j] == "\\":
                    j += 1
                j += 1
            tokens.append(Token("char", text[i + 1:j], line))
            i = j + 1
            continue
        if _ID_START.match(c):
            m = _ID.match(text, i)
            tokens.append(Token("id", m.group(0), line))
            i = m.end()
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            m = _NUM.match(text, i)
            tokens.append(Token("num", m.group(0), line))
            i = m.end()
            continue
        if c == ":" and i + 1 < n and text[i + 1] == ":":
            tokens.append(Token("punct", "::", line))
            i += 2
            continue
        if c == "-" and i + 1 < n and text[i + 1] == ">":
            tokens.append(Token("punct", "->", line))
            i += 2
            continue
        tokens.append(Token("punct", c, line))
        i += 1
    return tokens


def match_forward(tokens: list[Token], i: int, open_c: str, close_c: str) -> int:
    """Index of the token closing the group opened at tokens[i]; len() if unbalanced."""
    depth = 0
    n = len(tokens)
    while i < n:
        v = tokens[i].value
        if v == open_c:
            depth += 1
        elif v == close_c:
            depth -= 1
            if depth == 0:
                return i
        i += 1
    return n


def _collect_annotations(tokens: list[Token]) -> list[Annotation]:
    out: list[Annotation] = []
    n = len(tokens)
    for i, tok in enumerate(tokens):
        if tok.kind != "id" or tok.value not in (MARKER_ORDER_EXEMPT, MARKER_LINT_ALLOW):
            continue
        if i + 1 >= n or tokens[i + 1].value != "(":
            continue
        close = match_forward(tokens, i + 1, "(", ")")
        args = tokens[i + 2:close]
        rule = None
        why = None
        if tok.value == MARKER_LINT_ALLOW:
            if args and args[0].kind == "id":
                rule = args[0].value
            # drop `rule ,` prefix
            args = args[2:] if len(args) >= 2 and args[1].value == "," else args[1:]
        strs = [t.value for t in args if t.kind == "str"]
        if strs:
            why = "".join(strs)
        out.append(Annotation(macro=tok.value, rule=rule, why=why, line=tok.line))
    return out


def _suppressions(annotations: list[Annotation]) -> dict[str, set[int]]:
    """Marker on line L silences its rule on lines L and L+1."""
    sup: dict[str, set[int]] = {}
    for ann in annotations:
        rules = ["R2"] if ann.macro == MARKER_ORDER_EXEMPT else [ann.rule or ""]
        for rule in rules:
            sup.setdefault(rule, set()).update({ann.line, ann.line + 1})
    return sup


def scan_file(abs_path: str, rel_path: str) -> FileModel:
    with open(abs_path, "r", encoding="utf-8", errors="replace") as f:
        text = f.read()
    tokens = tokenize(text)
    annotations = _collect_annotations(tokens)
    return FileModel(
        path=rel_path.replace(os.sep, "/"),
        tokens=tokens,
        annotations=annotations,
        suppressed=_suppressions(annotations),
    )
