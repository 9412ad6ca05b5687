"""The spec text layer's former tokenizer and form renderers, kept as
references for the current ones.

``tokenize`` advanced the column by hand in every branch; its comment loop
did not, so the EOF token after a trailing comment took the column of the
``#``.  ``render_poly2`` and ``render_poly3`` were two copies of one term
loop.
"""

from orbpairs.specparse import _SYMBOLS, Diagnostic, Token


def tokenize(source):
    tokens = []
    diagnostics = []
    line, col = 1, 1
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        if ch == "-" and i + 1 < n and source[i + 1] == ">":
            tokens.append(Token("ARROW", "->", line, col))
            i += 2
            col += 2
            continue
        if ch in _SYMBOLS:
            tokens.append(Token(_SYMBOLS[ch], ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            tokens.append(Token("NUMBER", source[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(Token("IDENT", source[i:j], line, col))
            col += j - i
            i = j
            continue
        diagnostics.append(Diagnostic(line, col, f"unexpected character {ch!r}"))
        i += 1
        col += 1
    tokens.append(Token("EOF", "", line, col))
    return tokens, diagnostics


def _render_coeff(c, varpart, first):
    sign = "-" if c < 0 else ("" if first else "+")
    mag = abs(c)
    if varpart and mag == 1:
        return f"{sign}{varpart}"
    if varpart:
        return f"{sign}{mag}*{varpart}"
    return f"{sign}{mag}"


def _varpart(pairs):
    parts = []
    for name, e in pairs:
        if e == 0:
            continue
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def render_poly2(form):
    if form.is_zero:
        return "0"
    chunks = []
    first = True
    for i in range(form.degree, -1, -1):
        c = form.coeffs[i]
        if c == 0:
            continue
        varpart = _varpart((("s", i), ("u", form.degree - i)))
        chunks.append(_render_coeff(c, varpart, first))
        first = False
    return "".join(chunks)


def render_poly3(form):
    if form.is_zero:
        return "0"
    chunks = []
    first = True
    for (i, j, k), c in sorted(form.terms, key=lambda t: (-t[0][0], -t[0][1])):
        varpart = _varpart((("x0", i), ("x1", j), ("x2", k)))
        chunks.append(_render_coeff(c, varpart, first))
        first = False
    return "".join(chunks)
