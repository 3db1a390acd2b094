"""kernel-purity: compressed-domain kernels must stay in the encoded domain.

The whole value proposition of ``query/kernels.py`` (and of the paper's
compressed-domain execution) is that predicate masks, aggregates and
group keys are computed on run-lengths, FOR/delta words and dictionary
codes — *never* by decoding a column or materialising the string heap.
One stray ``column.decode()`` inside a kernel silently turns the fast
path into the slow path while every test still passes; the perf
regression only shows up in benchmarks.  This rule makes the purity
contract structural: inside the configured kernel modules, calls to the
materialisation API (``decode``, ``gather``, ``gather_with_reference``,
``materialize_columns``, heap accessors) are findings.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .framework import Finding, Project, Rule

__all__ = ["KernelPurityRule"]

#: Method calls that leave the encoded domain.  ``lookup_many`` and
#: ``all_strings`` are :class:`StringHeap`'s materialising accessors; its
#: code-space probes (``key_bytes``, ``find``, ``bisect_*``) stay allowed.
_IMPURE_ATTR_CALLS = {
    "decode",
    "decode_column",
    "gather",
    "gather_with_reference",
    "materialize",
    "to_table",
    "lookup_many",
    "all_strings",
}

#: Module-level helpers that materialise heap values.
_IMPURE_NAME_CALLS = {"materialize_columns", "resolve_block"}

#: Modules whose code must stay encoded-domain pure.
DEFAULT_KERNEL_MODULES: tuple[str, ...] = ("query/kernels.py",)


class KernelPurityRule(Rule):
    name = "kernel-purity"
    description = (
        "query/kernels.py never calls decode/gather/heap materialisation — "
        "kernels operate on runs, words and codes only"
    )

    def __init__(self, modules: tuple[str, ...] = DEFAULT_KERNEL_MODULES):
        self._modules = modules

    def check(self, project: Project) -> Iterator[Finding]:
        for suffix in self._modules:
            module = project.find(suffix)
            if module is None:
                continue
            for node in module.walk():
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                impure = None
                if isinstance(func, ast.Attribute) and func.attr in _IMPURE_ATTR_CALLS:
                    impure = func.attr
                elif isinstance(func, ast.Name) and func.id in _IMPURE_NAME_CALLS:
                    impure = func.id
                if impure is not None:
                    yield Finding(
                        rule=self.name,
                        path=module.rel,
                        line=node.lineno,
                        message=f"kernel module calls materialising API {impure!r}",
                        hint=(
                            "kernels must work on encoded values (run_values, "
                            "compare_range, code spaces); decode in scan.py's "
                            "fallback path instead"
                        ),
                    )
