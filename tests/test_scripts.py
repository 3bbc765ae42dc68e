import ast
import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qmc"
MODULES = {p.stem for p in SRC.glob("*.py")} | {"qmc"}


def test_teleportation_walkthrough_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_teleportation.py")],
        capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    assert "holds" in result.stdout


def test_readme_paths_exist():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    paths = set(re.findall(r"\b(?:scripts|docs)/[\w./-]*\w", readme))
    assert paths, "README names no scripts/ or docs/ path"
    missing = sorted(p for p in paths if not (ROOT / p).exists())
    assert missing == []


def public_names():
    """(module, class or None, name) for every public module-level
    function, class and constant in src/qmc, and every public method of a
    public class."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if node.name.startswith("_"):
                    continue
                yield path.stem, None, node.name
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if (isinstance(item, ast.FunctionDef)
                                and not item.name.startswith("_")):
                            yield path.stem, node.name, item.name
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for target in targets:
                    for n in ast.walk(target):
                        if isinstance(n, ast.Name) and n.id[0] != "_":
                            yield path.stem, None, n.id


class References(ast.NodeVisitor):
    """What a set of files reads: (module, name) pairs for qmc names, read
    as `module.name` or imported by name, and the attribute names read off
    anything else.  A name read only inside its own definition does not
    count."""

    def __init__(self):
        self.qualified, self.attrs = set(), set()

    def scan(self, text, own=None):
        self.own, self.modules, self.imported, self.inside = own, {}, {}, []
        self.visit(ast.parse(text))

    def visit_ImportFrom(self, node):
        base = (node.module or "").split(".")[-1]
        for alias in node.names:
            if alias.name in MODULES:
                self.modules[alias.asname or alias.name] = alias.name
            elif base in MODULES:
                self.imported[alias.asname or alias.name] = base

    def visit_FunctionDef(self, node):
        self.inside.append(node.name)
        self.generic_visit(node)
        self.inside.pop()

    visit_ClassDef = visit_FunctionDef

    def visit_Name(self, node):
        module = self.imported.get(node.id, self.own)
        if (module and not isinstance(node.ctx, ast.Store)
                and node.id not in self.inside):
            self.qualified.add((module, node.id))

    def visit_Attribute(self, node):
        if node.attr not in self.inside:
            base = getattr(node.value, "id", None)
            if base in self.modules:
                self.qualified.add((self.modules[base], node.attr))
            else:
                self.attrs.add(node.attr)
        self.generic_visit(node)


def test_every_public_name_is_reached():
    """Each public name in src/qmc is used by the package itself or by a
    user path: the benchmark, the scripts, the README (its Python blocks
    and its dotted code spans) or the acceptance tests."""
    refs = References()
    for path in sorted(SRC.glob("*.py")):
        refs.scan(path.read_text(encoding="utf-8"), own=path.stem)
    for path in (sorted((ROOT / "perfbench").glob("*.py"))
                 + sorted((ROOT / "scripts").glob("*.py"))
                 + [ROOT / "tests" / "test_acceptance.py"]):
        refs.scan(path.read_text(encoding="utf-8"))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert blocks, "README has no Python example"
    for block in blocks:
        refs.scan(block.replace("[...]", "[]"))
    for span in re.findall(r"`([^`\n]+)`", readme):
        for dotted in re.findall(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+", span):
            parts = dotted.split(".")
            for prev, part in zip(parts, parts[1:]):
                if prev in MODULES:
                    refs.qualified.add((prev, part))
                else:
                    refs.attrs.add(part)
    names = list(public_names())
    assert len(names) > 100
    unreached = [".".join(filter(None, name)) for name in names
                 if (name[2] not in refs.attrs if name[1]
                     else (name[0], name[2]) not in refs.qualified)]
    assert unreached == []


def test_no_unused_module_level_import():
    """Each name a module of src/qmc imports at module level is read in
    that module."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and \
                    node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{path.name}: {alias.name}" for alias in node.names
                           if (alias.asname or alias.name).split(".")[0]
                           not in read]
    assert unused == []
