"""Every public name in src/xmodal has a caller outside the tests.

A public name is a top-level function or class of a module under
src/xmodal, or a method of a public class, whose name does not start with
an underscore. The callers are the modules of src/xmodal and perfbench's
non-test modules. A reference inside a name's own definition, such as a
recursive call or a class naming itself in a method, does not count.

- A function or class is referenced by an `ast.Name`, an `ast.Attribute`
  or an import alias that names it.
- A method is referenced only by an `ast.Attribute`, so a local variable
  that happens to share its name, such as `ids`, does not keep it alive.

Matching is by name alone, so a name that some unrelated attribute or
variable shares counts as used: the scan can miss a dead name, but it does
not flag one that code names. A name reached only through a string, as by
`getattr`, has no reference and must be called some other way.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "xmodal"

# Public names with no caller outside the tests yet, each with the open
# ROADMAP item that will call it. When the item lands, its entries go; a
# name whose item is dropped is deleted with its tests.
ALLOWED = {
    "evaluation.format_table": "item 5 (CLI)",
    "evaluation.reports_to_json": "item 5 (CLI)",
    "io.load_word_vectors": "item 5 (CLI)",
    "text.save_vocab": "item 5 (CLI)",
    "text.load_vocab": "item 5 (CLI)",
    "io.load_checkpoint": "item 2 (in-run checkpoints)",
    "training.save_training_checkpoint": "item 2 (in-run checkpoints)",
    "training.resume_train": "item 2 (in-run checkpoints)",
    "io.FeatureTable.ids": "item 8 (benchmark follow-ups)",
}


def _public(node) -> bool:
    return (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_"))


def public_names() -> dict[str, tuple[str, bool]]:
    """Qualified name ("module.name" or "module.Class.method") -> (bare
    name, whether it is a method), for every public name in src/xmodal."""
    names = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not _public(node):
                continue
            qual = f"{path.stem}.{node.name}"
            names[qual] = (node.name, False)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if _public(item) and not isinstance(item, ast.ClassDef):
                        names[f"{qual}.{item.name}"] = (item.name, True)
    return names


def references(path: Path, module: str) -> list[tuple[str, bool, str]]:
    """(name, whether an attribute names it, qualified name of the innermost
    definition the reference sits in, or `module`) for every reference in
    `path`. Import aliases count as names."""
    refs = []

    def visit(node, scope: str):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        if isinstance(node, ast.Name):
            refs.append((node.id, False, scope))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, True, scope))
        elif isinstance(node, ast.alias):
            refs.append((node.name, False, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), module)
    return refs


def unused_public_names() -> set[str]:
    callers = [(p, p.stem) for p in SRC.glob("*.py")]
    callers += [(p, f"perfbench.{p.stem}") for p in (ROOT / "perfbench").glob("*.py")]
    refs = [ref for path, module in callers for ref in references(path, module)]
    # a reference whose scope is qual or lies inside it is part of qual's definition
    return {qual for qual, (name, method) in public_names().items()
            if not any(ref == name and (attr or not method)
                       and not f"{scope}.".startswith(f"{qual}.")
                       for ref, attr, scope in refs)}


def test_every_public_name_has_a_caller_outside_the_tests():
    unused = unused_public_names()
    assert sorted(unused - ALLOWED.keys()) == [], \
        "no caller in src/xmodal or perfbench: call these or delete them with their tests"
    assert sorted(ALLOWED.keys() - unused) == [], \
        "allow-listed, but called or gone: drop these entries"
