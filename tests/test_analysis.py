"""Tests for ``corra check``: each rule on fixture trees, plus LockWitness.

Every rule is exercised twice — once on a minimal tree that violates its
invariant (the rule must fire, at the right path and with the right rule
name) and once on the compliant twin (the rule must stay silent).  The
fixture trees reuse the rules' *default* module configuration
(``query/scan.py``, ``query/kernels.py``, ``storage/format.py``, ...) by
building the same relative layout under ``tmp_path``, which is exactly
how the suffix-matching ``Project.find`` is meant to be used.
"""

from __future__ import annotations

import threading
from pathlib import Path

import pytest

from repro.analysis import LockWitness, all_rules, main, run_check
from repro.analysis.framework import load_project, run_rules
from repro.analysis.locks import LockDisciplineRule, LockOrderRule
from repro.analysis.metrics import MetricsCompletenessRule
from repro.analysis.purity import KernelPurityRule
from repro.analysis.roundtrip import FormatRoundtripRule

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _project(tmp_path, files):
    """Write ``files`` (rel path -> source) under ``tmp_path`` and parse."""
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return load_project([tmp_path])


def _findings(rule, project):
    return run_rules(project, [rule])


# ---------------------------------------------------------------------------
# metrics-completeness


_SCAN_METRICS_TEMPLATE = """
from dataclasses import dataclass, field


@dataclass
class ScanMetrics:
    blocks_scanned: int = 0
    rows_total: int = 0
    epoch: int = field(default=0, compare=False)

    def merge(self, other):
        self.blocks_scanned += other.blocks_scanned
        {merge_extra}

    def reset(self):
        self.blocks_scanned = 0
        self.rows_total = 0
"""

_CLI_TEMPLATE = """
def _print_metrics(metrics):
    print("blocks", metrics.blocks_scanned)
    {report_extra}
"""


class TestMetricsCompleteness:
    def test_counter_missing_from_merge_and_surface(self, tmp_path):
        project = _project(
            tmp_path,
            {
                "query/scan.py": _SCAN_METRICS_TEMPLATE.format(merge_extra="pass"),
                "cli.py": _CLI_TEMPLATE.format(report_extra="pass"),
            },
        )
        findings = _findings(MetricsCompletenessRule(), project)
        messages = [f.message for f in findings]
        assert any("merge() does not touch counter 'rows_total'" in m for m in messages)
        assert any("does not report ScanMetrics counter 'rows_total'" in m for m in messages)
        # blocks_scanned is threaded everywhere; epoch is compare=False bookkeeping.
        assert not any("blocks_scanned" in m or "epoch" in m for m in messages)
        assert all(f.rule == "metrics-completeness" for f in findings)

    def test_fully_threaded_counters_are_clean(self, tmp_path):
        project = _project(
            tmp_path,
            {
                "query/scan.py": _SCAN_METRICS_TEMPLATE.format(
                    merge_extra="self.rows_total += other.rows_total"
                ),
                "cli.py": _CLI_TEMPLATE.format(
                    report_extra='print("rows", metrics.rows_total)'
                ),
            },
        )
        assert _findings(MetricsCompletenessRule(), project) == []

    def test_missing_surface_function_is_a_finding(self, tmp_path):
        project = _project(
            tmp_path,
            {
                "query/scan.py": _SCAN_METRICS_TEMPLATE.format(merge_extra="pass"),
                "cli.py": "def other():\n    pass\n",
            },
        )
        findings = _findings(MetricsCompletenessRule(), project)
        assert any("reporting surface" in f.message for f in findings)

    def test_docstring_mention_does_not_satisfy(self, tmp_path):
        # A counter named only in merge()'s (or the reporter's) docstring
        # is documentation, not threading — the rule must still fire.
        scan = (
            "from dataclasses import dataclass\n"
            "\n\n"
            "@dataclass\n"
            "class ScanMetrics:\n"
            "    blocks_scanned: int = 0\n"
            "    rows_total: int = 0\n"
            "\n"
            "    def merge(self, other):\n"
            '        """Sums blocks_scanned and rows_total."""\n'
            "        self.blocks_scanned += other.blocks_scanned\n"
            "\n"
            "    def reset(self):\n"
            "        self.blocks_scanned = 0\n"
            "        self.rows_total = 0\n"
        )
        cli = (
            "def _print_metrics(metrics):\n"
            '    """Reports blocks_scanned and rows_total."""\n'
            '    print("blocks", metrics.blocks_scanned)\n'
        )
        project = _project(tmp_path, {"query/scan.py": scan, "cli.py": cli})
        messages = [f.message for f in _findings(MetricsCompletenessRule(), project)]
        assert any("merge() does not touch counter 'rows_total'" in m for m in messages)
        assert any("does not report ScanMetrics counter 'rows_total'" in m for m in messages)


# ---------------------------------------------------------------------------
# lock-discipline


class TestLockDiscipline:
    def test_bare_acquire_is_flagged(self, tmp_path):
        project = _project(
            tmp_path,
            {
                "cache.py": (
                    "import threading\n"
                    "class Cache:\n"
                    "    def __init__(self):\n"
                    "        self._lock = threading.Lock()\n"
                    "    def get(self):\n"
                    "        self._lock.acquire()\n"
                    "        self._lock.release()\n"
                ),
            },
        )
        findings = _findings(LockDisciplineRule(), project)
        assert any("acquire" in f.message for f in findings)
        assert all(f.rule == "lock-discipline" for f in findings)

    def test_blocking_call_under_lock_is_flagged(self, tmp_path):
        project = _project(
            tmp_path,
            {
                "cache.py": (
                    "import threading, time\n"
                    "class Cache:\n"
                    "    def __init__(self):\n"
                    "        self._lock = threading.Lock()\n"
                    "    def slow(self):\n"
                    "        with self._lock:\n"
                    "            time.sleep(0.1)\n"
                ),
            },
        )
        findings = _findings(LockDisciplineRule(), project)
        assert len(findings) == 1
        assert "sleep" in findings[0].message

    def test_clean_critical_section_passes(self, tmp_path):
        project = _project(
            tmp_path,
            {
                "cache.py": (
                    "import threading\n"
                    "class Cache:\n"
                    "    def __init__(self):\n"
                    "        self._lock = threading.Lock()\n"
                    "        self.entries = {}\n"
                    "    def get(self, key):\n"
                    "        with self._lock:\n"
                    "            return self.entries.get(key)\n"
                ),
            },
        )
        assert _findings(LockDisciplineRule(), project) == []

    def test_nested_function_bodies_are_exempt(self, tmp_path):
        # A closure submitted to a pool runs on another thread: calls inside
        # it do not execute under the enclosing critical section.
        project = _project(
            tmp_path,
            {
                "cache.py": (
                    "import threading, time\n"
                    "class Cache:\n"
                    "    def __init__(self):\n"
                    "        self._lock = threading.Lock()\n"
                    "    def schedule(self):\n"
                    "        with self._lock:\n"
                    "            def task():\n"
                    "                time.sleep(0.1)\n"
                    "            self.pending = task\n"
                ),
            },
        )
        assert _findings(LockDisciplineRule(), project) == []

    def test_inline_suppression_marker(self, tmp_path):
        project = _project(
            tmp_path,
            {
                "cache.py": (
                    "import threading, time\n"
                    "class Cache:\n"
                    "    def __init__(self):\n"
                    "        self._lock = threading.Lock()\n"
                    "    def slow(self):\n"
                    "        with self._lock:\n"
                    "            time.sleep(0.1)"
                    "  # corra: ignore[lock-discipline] -- test fixture\n"
                ),
            },
        )
        assert _findings(LockDisciplineRule(), project) == []

    def test_bare_suppression_marker_suppresses_all_rules(self, tmp_path):
        project = _project(
            tmp_path,
            {
                "cache.py": (
                    "import threading, time\n"
                    "class Cache:\n"
                    "    def __init__(self):\n"
                    "        self._lock = threading.Lock()\n"
                    "    def slow(self):\n"
                    "        with self._lock:\n"
                    "            time.sleep(0.1)  # corra: ignore\n"
                ),
            },
        )
        assert _findings(LockDisciplineRule(), project) == []


# ---------------------------------------------------------------------------
# lock-order


class TestLockOrder:
    def test_two_lock_inversion_is_a_cycle(self, tmp_path):
        project = _project(
            tmp_path,
            {
                "engine.py": (
                    "import threading\n"
                    "class Engine:\n"
                    "    def __init__(self):\n"
                    "        self._a = threading.Lock()\n"
                    "        self._b = threading.Lock()\n"
                    "    def forward(self):\n"
                    "        with self._a:\n"
                    "            with self._b:\n"
                    "                pass\n"
                    "    def backward(self):\n"
                    "        with self._b:\n"
                    "            with self._a:\n"
                    "                pass\n"
                ),
            },
        )
        findings = _findings(LockOrderRule(), project)
        assert len(findings) >= 1
        assert all(f.rule == "lock-order" for f in findings)
        assert any("cycle" in f.message or "order" in f.message for f in findings)

    def test_consistent_order_is_clean(self, tmp_path):
        project = _project(
            tmp_path,
            {
                "engine.py": (
                    "import threading\n"
                    "class Engine:\n"
                    "    def __init__(self):\n"
                    "        self._a = threading.Lock()\n"
                    "        self._b = threading.Lock()\n"
                    "    def forward(self):\n"
                    "        with self._a:\n"
                    "            with self._b:\n"
                    "                pass\n"
                    "    def also_forward(self):\n"
                    "        with self._a:\n"
                    "            with self._b:\n"
                    "                pass\n"
                ),
            },
        )
        assert _findings(LockOrderRule(), project) == []

    def test_nonreentrant_self_reacquire_via_call(self, tmp_path):
        project = _project(
            tmp_path,
            {
                "engine.py": (
                    "import threading\n"
                    "class Engine:\n"
                    "    def __init__(self):\n"
                    "        self._lock = threading.Lock()\n"
                    "    def outer(self):\n"
                    "        with self._lock:\n"
                    "            self.inner()\n"
                    "    def inner(self):\n"
                    "        with self._lock:\n"
                    "            pass\n"
                ),
            },
        )
        findings = _findings(LockOrderRule(), project)
        assert len(findings) >= 1

    def test_rlock_self_reacquire_is_legal(self, tmp_path):
        project = _project(
            tmp_path,
            {
                "engine.py": (
                    "import threading\n"
                    "class Engine:\n"
                    "    def __init__(self):\n"
                    "        self._lock = threading.RLock()\n"
                    "    def outer(self):\n"
                    "        with self._lock:\n"
                    "            self.inner()\n"
                    "    def inner(self):\n"
                    "        with self._lock:\n"
                    "            pass\n"
                ),
            },
        )
        assert _findings(LockOrderRule(), project) == []

    def test_cross_class_cycle_through_members(self, tmp_path):
        project = _project(
            tmp_path,
            {
                "engine.py": (
                    "import threading\n"
                    "class Cache:\n"
                    "    def __init__(self):\n"
                    "        self._lock = threading.Lock()\n"
                    "        self.engine = None\n"
                    "    def evict(self):\n"
                    "        with self._lock:\n"
                    "            pass\n"
                    "class Engine:\n"
                    "    def __init__(self):\n"
                    "        self._lock = threading.Lock()\n"
                    "        self.cache = Cache()\n"
                    "    def run(self):\n"
                    "        with self._lock:\n"
                    "            self.cache.evict()\n"
                ),
            },
        )
        # Engine._lock -> Cache._lock only: acyclic, clean.
        assert _findings(LockOrderRule(), project) == []


# ---------------------------------------------------------------------------
# kernel-purity


class TestKernelPurity:
    def test_decode_in_kernel_module_is_flagged(self, tmp_path):
        project = _project(
            tmp_path,
            {
                "query/kernels.py": (
                    "def rle_count(column, predicate):\n"
                    "    values = column.decode()\n"
                    "    return sum(1 for v in values if predicate(v))\n"
                ),
            },
        )
        findings = _findings(KernelPurityRule(), project)
        assert len(findings) == 1
        assert findings[0].rule == "kernel-purity"
        assert "'decode'" in findings[0].message
        assert findings[0].path.endswith("query/kernels.py")

    def test_encoded_domain_kernel_is_clean(self, tmp_path):
        project = _project(
            tmp_path,
            {
                "query/kernels.py": (
                    "def rle_count(run_values, run_lengths, predicate):\n"
                    "    return sum(\n"
                    "        length\n"
                    "        for value, length in zip(run_values, run_lengths)\n"
                    "        if predicate(value)\n"
                    "    )\n"
                ),
            },
        )
        assert _findings(KernelPurityRule(), project) == []

    def test_other_modules_may_decode(self, tmp_path):
        project = _project(
            tmp_path,
            {"query/scan.py": "def fallback(column):\n    return column.decode()\n"},
        )
        assert _findings(KernelPurityRule(), project) == []

    def test_decode_seeded_into_the_dictionary_kernel_is_flagged(self, tmp_path):
        # The dictionary path lives in query/kernels.py, so the rule covers
        # it by location: the shipped module is clean, and one decode()
        # seeded into DictionaryKernel.predicate_mask is a finding there.
        source = (SRC / "query" / "kernels.py").read_text()
        anchor = "        mask = _compare_constants(column, node, exact_ints=False)\n"
        assert source.count(anchor) == 1
        clean = _project(tmp_path / "clean", {"query/kernels.py": source})
        assert _findings(KernelPurityRule(), clean) == []
        seeded = source.replace(anchor, "        column.decode()\n" + anchor)
        findings = _findings(
            KernelPurityRule(), _project(tmp_path / "seeded", {"query/kernels.py": seeded})
        )
        assert [f.rule for f in findings] == ["kernel-purity"]
        lines = seeded.splitlines()
        kernel_start = lines.index("class DictionaryKernel(ColumnKernel):") + 1
        kernel_end = lines.index("class RleKernel(ColumnKernel):") + 1
        assert kernel_start < findings[0].line < kernel_end

    def test_heap_materialisation_is_impure_but_code_space_probes_are_not(self, tmp_path):
        project = _project(
            tmp_path,
            {
                "query/kernels.py": (
                    "def keys(heap, codes, value):\n"
                    "    heap.key_bytes(0), heap.find(value)\n"
                    "    heap.bisect_left(value), heap.bisect_right(value)\n"
                    "    return heap.lookup_many(codes), heap.all_strings()\n"
                ),
            },
        )
        findings = _findings(KernelPurityRule(), project)
        assert sorted(f.message.split("'")[1] for f in findings) == ["all_strings", "lookup_many"]


# ---------------------------------------------------------------------------
# format-roundtrip


_FORMAT_TEMPLATE = """
from dataclasses import dataclass


@dataclass(frozen=True)
class ColumnSegment:
    name: str
    offset: int
    length: int

    def to_dict(self):
        return {{"name": self.name, "offset": self.offset{serialize_extra}}}

    @classmethod
    def from_dict(cls, data):
        return cls(
            name=data["name"],
            offset=data["offset"],
            {deserialize_extra}
        )
"""


class TestFormatRoundtrip:
    def test_dropped_field_is_flagged_on_both_sides(self, tmp_path):
        project = _project(
            tmp_path,
            {
                "storage/format.py": _FORMAT_TEMPLATE.format(
                    serialize_extra="", deserialize_extra=""
                ),
            },
        )
        findings = _findings(FormatRoundtripRule(), project)
        assert len(findings) == 2  # to_dict drops it; from_dict never mentions it
        assert all("'length'" in f.message for f in findings)
        assert all(f.rule == "format-roundtrip" for f in findings)

    def test_complete_roundtrip_is_clean(self, tmp_path):
        project = _project(
            tmp_path,
            {
                "storage/format.py": _FORMAT_TEMPLATE.format(
                    serialize_extra=', "length": self.length',
                    deserialize_extra='length=data["length"],',
                ),
            },
        )
        assert _findings(FormatRoundtripRule(), project) == []

    def test_class_without_serializer_pair_is_ignored(self, tmp_path):
        project = _project(
            tmp_path,
            {
                "storage/format.py": (
                    "from dataclasses import dataclass\n"
                    "@dataclass\n"
                    "class Stats:\n"
                    "    lo: int\n"
                    "    hi: int\n"
                ),
            },
        )
        assert _findings(FormatRoundtripRule(), project) == []

    def test_docstring_mention_does_not_satisfy(self, tmp_path):
        # A field named only in the method docstring is still dropped
        # from the round trip.
        project = _project(
            tmp_path,
            {
                "storage/format.py": _FORMAT_TEMPLATE.format(
                    serialize_extra="",
                    deserialize_extra='length=data.get("size", 0),',
                ).replace(
                    "    def to_dict(self):\n",
                    "    def to_dict(self):\n"
                    '        """Serialises name, offset and length."""\n',
                ),
            },
        )
        findings = _findings(FormatRoundtripRule(), project)
        assert any("to_dict() drops field 'length'" in f.message for f in findings)


# ---------------------------------------------------------------------------
# runner API and CLI


class TestRunner:
    def test_select_and_ignore(self, tmp_path):
        files = {
            "query/kernels.py": "def k(column):\n    return column.decode()\n",
        }
        for rel, source in files.items():
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(source)
        assert run_check([tmp_path], select=["kernel-purity"])
        assert run_check([tmp_path], ignore=["kernel-purity"]) == []

    def test_unknown_rule_raises(self, tmp_path):
        with pytest.raises(ValueError, match="unknown rule"):
            run_check([tmp_path], select=["no-such-rule"])

    def test_main_exit_codes(self, tmp_path, capsys):
        dirty = tmp_path / "dirty"
        (dirty / "query").mkdir(parents=True)
        (dirty / "query" / "kernels.py").write_text(
            "def k(column):\n    return column.decode()\n"
        )
        assert main([str(dirty)]) == 1
        assert "kernel-purity" in capsys.readouterr().out

        clean = tmp_path / "clean"
        clean.mkdir()
        (clean / "mod.py").write_text("x = 1\n")
        assert main([str(clean)]) == 0
        assert "clean" in capsys.readouterr().out

        assert main([str(clean), "--select", "bogus"]) == 2
        capsys.readouterr()

        # A typo'd target is a usage error, never a vacuously clean run.
        assert main([str(tmp_path / "typo")]) == 2
        assert "no such file or directory" in capsys.readouterr().out

    def test_bad_paths_raise(self, tmp_path):
        with pytest.raises(ValueError, match="no such file or directory"):
            run_check([tmp_path / "nope"])
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(ValueError, match="no .py files under directory"):
            run_check([empty])
        not_py = tmp_path / "notes.txt"
        not_py.write_text("hello\n")
        with pytest.raises(ValueError, match="not a directory or a .py file"):
            run_check([not_py])

    def test_list_rules_names_every_rule(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for name in all_rules():
            assert name in out

    def test_real_tree_is_clean(self):
        # The repository's own source must stay free of findings; new
        # violations belong fixed (or explicitly suppressed), not shipped.
        # Anchored to the repo root so the check cannot pass vacuously
        # when pytest runs from another cwd (load_project now raises on
        # a missing path, but the anchor keeps the test runnable at all).
        repo_root = Path(__file__).resolve().parent.parent
        assert run_check([repo_root / "src" / "repro"]) == []


# ---------------------------------------------------------------------------
# LockWitness (the dynamic twin)


class TestLockWitness:
    def test_two_lock_inversion_is_detected(self):
        witness = LockWitness()
        a = witness.wrap(threading.Lock(), "A")
        b = witness.wrap(threading.Lock(), "B")

        with a:
            with b:
                pass
        # The reverse order on any later schedule is an inversion, even
        # though this single-threaded run can never deadlock.
        with b:
            with a:
                pass

        assert witness.violations
        assert "inversion" in witness.violations[0]
        assert ("A", "B") in witness.edges()
        with pytest.raises(AssertionError, match="inversion"):
            witness.assert_clean()

    def test_consistent_order_is_clean(self):
        witness = LockWitness()
        a = witness.wrap(threading.Lock(), "A")
        b = witness.wrap(threading.Lock(), "B")
        for _ in range(3):
            with a:
                with b:
                    pass
        witness.assert_clean()
        assert witness.edges() == {("A", "B")}

    def test_reentrant_acquire_records_no_edges(self):
        witness = LockWitness()
        lock = witness.wrap(threading.RLock(), "R")
        with lock:
            with lock:
                pass
        witness.assert_clean()
        assert witness.edges() == set()

    def test_failed_nonblocking_acquire_records_nothing(self):
        witness = LockWitness()
        inner = threading.Lock()
        lock = witness.wrap(inner, "L")
        other = witness.wrap(threading.Lock(), "M")
        inner.acquire()
        try:
            with other:
                assert lock.acquire(blocking=False) is False
        finally:
            inner.release()
        assert witness.edges() == set()

    def test_wrap_attr_replaces_in_place(self):
        class Holder:
            def __init__(self):
                self._lock = threading.Lock()

        witness = LockWitness()
        holder = Holder()
        wrapped = witness.wrap_attr(holder, "_lock")
        assert holder._lock is wrapped
        assert wrapped.name == "Holder._lock"
        with holder._lock:
            pass
        assert not holder._lock.locked()

    def test_cross_thread_inversion(self):
        witness = LockWitness()
        a = witness.wrap(threading.Lock(), "A")
        b = witness.wrap(threading.Lock(), "B")

        def forward():
            with a:
                with b:
                    pass

        def backward():
            with b:
                with a:
                    pass

        t1 = threading.Thread(target=forward)
        t1.start()
        t1.join()
        t2 = threading.Thread(target=backward)
        t2.start()
        t2.join()
        assert witness.violations
