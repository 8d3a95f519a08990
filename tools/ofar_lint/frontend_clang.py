"""libclang frontend: exact AST over compile_commands.json.

Optional — the container may not ship clang. `available()` gates every
use; when the Python bindings or the compilation database are missing the
CLI silently falls back to the builtin frontend (engine=auto) or errors
out (engine=clang).

The model produced is the same shape as frontend_builtin's: classes with
member/method annotations read from the expanded `[[clang::annotate]]`
attributes, function definitions with token streams, and alias tables.
"""

import os

from .lexer import collect_waivers, strip_and_tokenize
from .model import (ANNOTATE_TO_ANNOTATION, ClassInfo, FunctionDef,
                    Program, Token)

try:
    import clang.cindex as _cindex  # type: ignore
except ImportError:
    _cindex = None


def available(root=None):
    """True when libclang is importable and can locate a library."""
    if _cindex is None:
        return False
    try:
        _cindex.Index.create()
    except Exception:
        return False
    if root is not None and not os.path.exists(
            os.path.join(root, "compile_commands.json")):
        return False
    return True


def _annotation_of(cursor):
    for child in cursor.get_children():
        if child.kind == _cindex.CursorKind.ANNOTATE_ATTR:
            ann = ANNOTATE_TO_ANNOTATION.get(child.spelling)
            if ann:
                return ann
    return ""


def _tokens_of(cursor, root):
    out = []
    for tok in cursor.get_tokens():
        if tok.kind in (_cindex.TokenKind.COMMENT,):
            continue
        text = tok.spelling
        if tok.kind == _cindex.TokenKind.LITERAL and text.startswith('"'):
            text = '""'
        out.append(Token(text=text, line=tok.location.line))
    return out


def load_program(root, files):
    """Parses each TU listed in compile_commands.json that matches
    `files`, merging results into one Program."""
    if not available(root):
        raise RuntimeError("libclang frontend unavailable")
    index = _cindex.Index.create()
    db = _cindex.CompilationDatabase.fromDirectory(root)
    program = Program()
    wanted = {os.path.join(root, f) for f in files}

    for rel in files:
        path = os.path.join(root, rel)
        try:
            with open(path, encoding="utf-8", errors="replace") as fh:
                collect_waivers(fh.read(), rel, program.waivers)
        except OSError:
            continue

    seen_tu = set()
    for cmd in db.getAllCompileCommands() or []:
        src = os.path.join(cmd.directory, cmd.filename)
        src = os.path.normpath(src)
        if src in seen_tu:
            continue
        seen_tu.add(src)
        cmd_args = [a for a in cmd.arguments][1:]
        try:
            tu = index.parse(None, args=cmd_args)
        except _cindex.TranslationUnitLoadError:
            continue
        _harvest(tu.cursor, root, wanted, program)
    return program


def _harvest(cursor, root, wanted, program):
    for node in cursor.walk_preorder():
        loc = node.location
        if loc.file is None:
            continue
        path = os.path.normpath(loc.file.name)
        if path not in wanted:
            continue
        rel = os.path.relpath(path, root)
        kind = node.kind
        if kind in (_cindex.CursorKind.CLASS_DECL,
                    _cindex.CursorKind.STRUCT_DECL) and \
                node.is_definition():
            ci = program.classes.setdefault(
                node.spelling,
                ClassInfo(name=node.spelling, file=rel, line=loc.line))
            ci.annotation = ci.annotation or _annotation_of(node)
            for child in node.get_children():
                if child.kind == _cindex.CursorKind.CXX_BASE_SPECIFIER:
                    base = child.type.spelling.split("<")[0]
                    base = base.split("::")[-1]
                    if base not in ci.bases:
                        ci.bases.append(base)
                elif child.kind == _cindex.CursorKind.FIELD_DECL:
                    ci.members[child.spelling] = _annotation_of(child)
                    ci.member_types[child.spelling] = child.type.spelling
                elif child.kind == _cindex.CursorKind.CXX_METHOD:
                    ann = _annotation_of(child)
                    if ann:
                        ci.methods[child.spelling] = ann
        elif kind in (_cindex.CursorKind.CXX_METHOD,
                      _cindex.CursorKind.FUNCTION_DECL,
                      _cindex.CursorKind.CONSTRUCTOR,
                      _cindex.CursorKind.DESTRUCTOR) and \
                node.is_definition():
            cls = ""
            parent = node.semantic_parent
            if parent is not None and parent.kind in (
                    _cindex.CursorKind.CLASS_DECL,
                    _cindex.CursorKind.STRUCT_DECL):
                cls = parent.spelling
            qual = f"{cls}::{node.spelling}" if cls else node.spelling
            fn = FunctionDef(
                name=node.spelling, qualname=qual, cls=cls,
                annotation=_annotation_of(node), file=rel, line=loc.line)
            for arg in node.get_arguments():
                fn.params.append(arg.spelling)
                fn.param_types[arg.spelling] = arg.type.spelling
            fn.body = _tokens_of(node, root)
            program.functions.setdefault(qual, []).append(fn)
        elif kind in (_cindex.CursorKind.TYPEDEF_DECL,
                      _cindex.CursorKind.TYPE_ALIAS_DECL):
            program.aliases.setdefault(
                node.spelling, node.underlying_typedef_type.spelling)


# Re-exported so `python3 -c "from ofar_lint import frontend_clang"` is a
# cheap availability probe.
__all__ = ["available", "load_program", "strip_and_tokenize"]
