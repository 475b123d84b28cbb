"""``tools/reach.py``'s static half: its keys and its reasons.

The tracer records ``(file, co_firstlineno)`` of every code object a
product path enters, and the report joins that against an AST
inventory of ``src/repro``.  The join is only as good as the two keys
agreeing (decorated functions start at their first decorator), and the
``REASONS`` table only as honest as its entries are alive.  The driver
itself runs in CI's ``docs-check`` job, not here.
"""

import importlib
import importlib.util
import inspect
import os

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _reach():
    spec = importlib.util.spec_from_file_location(
        "reach", os.path.join(REPO_ROOT, "tools", "reach.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reach = _reach()


def _code_objects():
    """(path under src/repro, co_firstlineno) of every function and method
    a ``repro`` module defines, properties included."""
    keys = set()
    for path in sorted(reach.PACKAGE.rglob("*.py")):
        rel = path.relative_to(reach.PACKAGE)
        if rel.name == "__main__.py":  # runs the CLI on import
            continue
        name = ".".join(("repro",) + rel.with_suffix("").parts).removesuffix(".__init__")
        module = importlib.import_module(name)
        owners = [module] + [cls for _, cls in inspect.getmembers(module, inspect.isclass)
                             if cls.__module__ == name]
        for owner in owners:
            for value in vars(owner).values():
                value = getattr(value, "__func__", value)
                functions = ([value.fget, value.fset] if isinstance(value, property)
                             else [value])
                for function in functions:
                    # dataclass and namedtuple methods are generated, not in the file
                    if inspect.isfunction(function) and function.__code__.co_filename == str(path):
                        keys.add((rel.as_posix(), function.__code__.co_firstlineno))
    return keys


def test_the_inventory_keys_every_function_as_the_tracer_does():
    inventory = reach.inventory()
    missing = _code_objects() - set(inventory)
    assert not missing, sorted(missing)[:5]


def test_every_reason_names_a_function_that_exists():
    assert reach.stale_reasons(list(reach.inventory().values())) == []


def test_a_new_method_of_a_listed_class_needs_its_own_reason():
    listed = reach.Function("relational/column.py", "Column.empty", 1, 1, None)
    new = reach.Function("relational/column.py", "Column.not_yet_written", 1, 1, None)
    assert reach.reason_for(listed) is not None
    assert reach.reason_for(new) is None
