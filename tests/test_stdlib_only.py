import ast
import pathlib
import sys

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "omlprob"


def test_package_imports_only_the_standard_library():
    # the package stays stdlib-only: every absolute import names a
    # standard library module or omlprob itself
    allowed = sys.stdlib_module_names | {"omlprob"}
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 8
    foreign = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            foreign += [(path.name, name) for name in names
                        if name.partition(".")[0] not in allowed]
    assert foreign == []
