import ast

import orbitforge


def test_all_matches_imports():
    """__all__ lists exactly what __init__ imports (plus __version__),
    and every listed name resolves on the package."""
    with open(orbitforge.__file__) as fh:
        tree = ast.parse(fh.read())
    imported = [alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    assert len(imported) == len(set(imported))
    assert len(orbitforge.__all__) == len(set(orbitforge.__all__))
    assert set(orbitforge.__all__) == set(imported) | {"__version__"}
    for name in orbitforge.__all__:
        assert getattr(orbitforge, name) is not None, name
