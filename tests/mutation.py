"""Mutation checks: a test's comparison must catch a plausible bug.

``mutate`` replaces one snippet in the source of a library function and
sets the result in its place for one test.  The copy is compiled in the
module that defines the function and runs on that module's own globals,
so it sees what the original sees, names patched by a test included.
"""
import __future__
import inspect
import sys
import textwrap


def mutate(monkeypatch, owner, name, snippet, replacement):
    """Set owner.name, a function or method, to a copy of it whose source
    has snippet, which must occur once, replaced."""
    original = getattr(owner, name)
    source = textwrap.dedent(inspect.getsource(original))
    assert source.count(snippet) == 1, (name, snippet)
    module = sys.modules[original.__module__]
    code = compile(source.replace(snippet, replacement), module.__file__, "exec",
                   flags=__future__.annotations.compiler_flag, dont_inherit=True)
    defined = {}
    exec(code, vars(module), defined)
    monkeypatch.setattr(owner, name, defined[name])
