"""Self-tests of the benchmark's own code: span arithmetic, wrapper
restoration, and agreement between printed metrics and BENCHMARK.json.

Run from the repository root:  python3 bench/selftest.py
"""

import json
import re
import sys
import threading
import types
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
from spans import Span, Target, Tracer, installed, self_time, self_times, total_time  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _span(sid, name, start, end, parent=None):
    return Span(sid, name, start, end, parent, "test")


class SelfTimeTest(unittest.TestCase):
    def test_hand_built_tree(self):
        # root [0, 10] with children [1, 3] and [2, 6] overlapping (two
        # threads) and [8, 9]; the [2, 6] child has a child [4, 5]
        spans = [
            _span(0, "root", 0.0, 10.0),
            _span(1, "leaf", 1.0, 3.0, 0),
            _span(2, "mid", 2.0, 6.0, 0),
            _span(3, "leaf", 4.0, 5.0, 2),
            _span(4, "leaf", 8.0, 9.0, 0),
        ]
        selfs = self_times(spans)
        self.assertEqual(selfs, {0: 10.0 - 5.0 - 1.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 1.0})
        self.assertEqual(self_time(spans, "leaf", selfs), 4.0)

    def test_child_outside_parent_is_clipped(self):
        spans = [_span(0, "root", 0.0, 2.0), _span(1, "late", 1.5, 3.0, 0)]
        self.assertEqual(self_times(spans)[0], 1.5)

    def test_total_time_counts_nested_same_name_once(self):
        spans = [
            _span(0, "poly", 0.0, 4.0),
            _span(1, "other", 1.0, 3.0, 0),
            _span(2, "poly", 1.5, 2.5, 1),
            _span(3, "poly", 5.0, 6.0),
        ]
        self.assertEqual(total_time(spans, "poly"), 5.0)

    def test_worker_thread_spans_nest_under_caller(self):
        tracer = Tracer("test")
        with tracer.span("caller") as caller:
            worker = threading.Thread(target=_enter_exit, args=(tracer, "work"))
            worker.start()
            worker.join(timeout=10)
        self.assertFalse(worker.is_alive())
        work = [s for s in tracer.spans if s.name == "work"]
        self.assertEqual([s.parent for s in work], [caller])


def _enter_exit(tracer, name):
    with tracer.span(name):
        pass


class WrapperTest(unittest.TestCase):
    def setUp(self):
        self.pkg = types.ModuleType("fakepkg")
        self.mod = types.ModuleType("fakepkg.mod")
        self.user = types.ModuleType("fakepkg.user")

        def boom(x):
            raise RuntimeError(f"boom {x}")

        class Thing:
            def value(self, k):
                return 2 * k

        self.boom, self.Thing = boom, Thing
        self.value = Thing.__dict__["value"]
        self.mod.boom = boom
        self.user.boom = boom  # as after "from .mod import boom"
        for m in (self.pkg, self.mod, self.user):
            sys.modules[m.__name__] = m

    def tearDown(self):
        for name in ("fakepkg", "fakepkg.mod", "fakepkg.user"):
            sys.modules.pop(name, None)

    def test_restored_after_wrapped_call_raises(self):
        tracer = Tracer("test")
        targets = [
            Target(self.mod, "boom", "fake.boom", counts=lambda a, r: {"calls": 1}),
            Target(self.Thing, "value", "fake.value", counts=lambda a, r: {"k": a["k"]}),
        ]
        with self.assertRaises(RuntimeError):
            with installed(tracer, targets, package="fakepkg"):
                self.assertIsNot(self.user.boom, self.boom)
                self.assertEqual(self.Thing().value(3), 6)
                self.user.boom(1)
        self.assertIs(self.mod.boom, self.boom)
        self.assertIs(self.user.boom, self.boom)
        self.assertIs(self.Thing.__dict__["value"], self.value)
        self.assertEqual([s.name for s in tracer.spans], ["fake.value", "fake.boom"])
        self.assertEqual(tracer.counts, {"fake.value.k": 3})

    def test_restored_when_installing_fails(self):
        targets = [Target(self.mod, "boom", "fake.boom"),
                   Target(self.mod, "missing", "fake.missing")]
        with self.assertRaises(AttributeError):
            with installed(Tracer("test"), targets, package="fakepkg"):
                pass
        self.assertIs(self.mod.boom, self.boom)
        self.assertIs(self.user.boom, self.boom)


class MetricNamesTest(unittest.TestCase):
    def declared(self, section):
        return {m["name"]: m["unit"] for m in BENCHMARK[section]}

    def test_per_layer_names_match(self):
        printed = layers.layer_metrics(Tracer("test"), 1.0, 1.0, 1.0)
        self.assertEqual(set(printed), set(self.declared("per_layer")))

    def test_end_to_end_names_match(self):
        class FakeRun:
            walls = [1.0, 2.0, 3.0]
            workload = types.SimpleNamespace(path_steps=10)
            median_wall = run.Run.median_wall

        saved = run.setup_seconds
        run.setup_seconds = lambda config: 0.5
        try:
            printed = run.end_to_end(FakeRun(), "acceptance")
        finally:
            run.setup_seconds = saved
        self.assertEqual(set(printed), set(self.declared("end_to_end")))

    def test_benchmark_json_shape(self):
        self.assertEqual(set(BENCHMARK), {"command", "paths", "run_seconds", "workloads",
                                          "end_to_end", "per_layer"})
        name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
        names = [w["name"] for w in BENCHMARK["workloads"]]
        names += [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        self.assertTrue(all(name.match(n) for n in names))
        for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
            self.assertRegex(m["unit"], unit)
            self.assertIn(m["better"], ("lower", "higher"))
        for m in BENCHMARK["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in BENCHMARK["end_to_end"]))
        self.assertEqual(sorted(names[:len(BENCHMARK["workloads"])]),
                         sorted(run_workloads()))


def run_workloads():
    from workloads import WORKLOADS
    return WORKLOADS


if __name__ == "__main__":
    unittest.main()
