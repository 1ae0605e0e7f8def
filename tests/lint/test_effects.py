"""Effect-signature layer: extraction, fixpoint, witnesses, pickling.

The rule-facing behaviour (RPR901–RPR907) is pinned by the fixture
corpora and acceptance tests; this file pins the *analysis* contract
those rules stand on — what the per-file extractor records, how the
SCC fixpoint folds callee effects into callers, and that everything
crossing the ``--jobs`` pool boundary pickles.
"""

import ast
import pathlib
import pickle

from repro.lint import ProjectGraph, extract_summary, layer_for_path
from repro.lint.effects.fixpoint import EffectAnalysis


def analyze(files):
    """Build an EffectAnalysis over {display_path: source} sources."""
    summaries = [
        extract_summary(
            ast.parse(source), path, layer_for_path(pathlib.Path(path))
        )
        for path, source in files.items()
    ]
    graph = ProjectGraph(summaries)
    return EffectAnalysis(graph, summaries)


def key_of(analysis, qualname):
    """The unique analysis key ending in ``::qualname``."""
    matches = [k for k in analysis.keys() if k.endswith(f"::{qualname}")]
    assert len(matches) == 1, (qualname, analysis.keys())
    return matches[0]


class TestLocalExtraction:
    def test_alias_mutation_records_param_field_and_chain(self):
        analysis = analyze(
            {
                "repro/core/m.py": (
                    "def f(task):\n"
                    "    t = task\n"
                    "    t.demand = 1\n"
                )
            }
        )
        fx = analysis.function_effects(key_of(analysis, "f"))
        (mutation,) = [m for m in fx.mutations if m.param == "task"]
        assert mutation.field == "demand"
        assert mutation.via == ("task", "t")
        assert mutation.chain() == "task -> t"

    def test_object_setattr_is_a_store_to_the_named_field(self):
        analysis = analyze(
            {
                "repro/core/m.py": (
                    "def f(snap, name):\n"
                    "    object.__setattr__(snap, 'value', 1)\n"
                    "    object.__setattr__(snap, name, 2)\n"
                )
            }
        )
        fx = analysis.function_effects(key_of(analysis, "f"))
        assert [(m.param, m.field, m.kind) for m in fx.mutations] == [
            ("snap", "value", "setattr"),
            ("snap", "", "setattr"),  # dynamic name: the object itself
        ]

    def test_rebinding_an_alias_ends_the_alias(self):
        analysis = analyze(
            {
                "repro/core/m.py": (
                    "def f(task):\n"
                    "    t = task\n"
                    "    t = object()\n"
                    "    t.demand = 1\n"
                )
            }
        )
        fx = analysis.function_effects(key_of(analysis, "f"))
        assert not [m for m in fx.mutations if m.param == "task"]

    def test_immutable_annotations_are_recorded(self):
        analysis = analyze(
            {
                "repro/core/m.py": (
                    "def f(ctx: int, name: 'str', data):\n"
                    "    return ctx\n"
                )
            }
        )
        fx = analysis.function_effects(key_of(analysis, "f"))
        assert set(fx.immutable_params) == {"ctx", "name"}

    def test_capture_into_self_is_recorded(self):
        analysis = analyze(
            {
                "repro/core/m.py": (
                    "class P:\n"
                    "    def hook(self, task):\n"
                    "        self._last = task\n"
                )
            }
        )
        fx = analysis.function_effects(key_of(analysis, "P.hook"))
        (capture,) = [c for c in fx.captures if c.param == "task"]
        assert capture.dest == "self._last"

    def test_attribute_read_is_not_a_capture(self):
        analysis = analyze(
            {
                "repro/core/m.py": (
                    "class P:\n"
                    "    def hook(self, task):\n"
                    "        self._demand = task.demand\n"
                )
            }
        )
        fx = analysis.function_effects(key_of(analysis, "P.hook"))
        assert not [c for c in fx.captures if c.param == "task"]

    def test_post_capture_mutation_is_flow_sensitive(self):
        source = (
            "class T:\n"
            "    def __init__(self, parts):\n"
            "        parts.append('early')\n"      # before capture: fine
            "        self._sig_parts = parts\n"
            "        parts.append('late')\n"       # after capture: recorded
        )
        analysis = analyze({"repro/core/m.py": source})
        fx = analysis.function_effects(key_of(analysis, "T.__init__"))
        (cm,) = fx.capture_mutations
        assert cm.attr == "_sig_parts"
        assert cm.lineno == 5

    def test_effects_pickle_for_the_pool_boundary(self):
        summary = extract_summary(
            ast.parse(
                "def f(task):\n"
                "    t = task\n"
                "    t.demand = 1\n"
                "    raise ValueError('x')\n"
            ),
            "repro/core/m.py",
            "core",
        )
        clone = pickle.loads(pickle.dumps(summary))
        assert clone.effects == summary.effects


class TestFixpoint:
    def test_uncaught_raise_escapes_caught_raise_does_not(self):
        analysis = analyze(
            {
                "repro/core/m.py": (
                    "def loud(x):\n"
                    "    raise ValueError('x')\n"
                    "def quiet(x):\n"
                    "    try:\n"
                    "        raise ValueError('x')\n"
                    "    except ValueError:\n"
                    "        return 0\n"
                )
            }
        )
        assert "ValueError" in analysis.signature(key_of(analysis, "loud")).raises
        assert not analysis.signature(key_of(analysis, "quiet")).raises

    def test_subclass_catch_uses_the_builtin_hierarchy(self):
        analysis = analyze(
            {
                "repro/core/m.py": (
                    "def f(x):\n"
                    "    try:\n"
                    "        raise FileNotFoundError(x)\n"
                    "    except OSError:\n"
                    "        return 0\n"
                )
            }
        )
        assert not analysis.signature(key_of(analysis, "f")).raises

    def test_mutation_propagates_through_argument_aliasing(self):
        analysis = analyze(
            {
                "repro/core/m.py": (
                    "def outer(task):\n"
                    "    helper(task)\n"
                    "def helper(item):\n"
                    "    item.demand = 1\n"
                )
            }
        )
        sig = analysis.signature(key_of(analysis, "outer"))
        assert ("task", "demand") in sig.mutates
        path, site_key, mutation = analysis.mutation_witness(
            key_of(analysis, "outer"), "task"
        )
        assert site_key.endswith("::helper")
        assert mutation.field == "demand"

    def test_raises_propagate_minus_what_call_sites_catch(self):
        analysis = analyze(
            {
                "repro/core/m.py": (
                    "def outer(x):\n"
                    "    try:\n"
                    "        return helper(x)\n"
                    "    except ValueError:\n"
                    "        return 0\n"
                    "def helper(x):\n"
                    "    if x < 0:\n"
                    "        raise ValueError('neg')\n"
                    "    if x > 9:\n"
                    "        raise KeyError('big')\n"
                    "    return x\n"
                )
            }
        )
        sig = analysis.signature(key_of(analysis, "outer"))
        assert "KeyError" in sig.raises
        assert "ValueError" not in sig.raises

    def test_unknown_callee_degrades_to_top_not_facts(self):
        analysis = analyze(
            {
                "repro/core/m.py": (
                    "def f(task, registry):\n"
                    "    registry['k'](task)\n"
                )
            }
        )
        sig = analysis.signature(key_of(analysis, "f"))
        assert sig.mutates_top
        assert not sig.mutates  # flags, never invented facts

    def test_recursive_cycle_reaches_a_stable_signature(self):
        analysis = analyze(
            {
                "repro/core/m.py": (
                    "def ping(x):\n"
                    "    if x > 0:\n"
                    "        return pong(x - 1)\n"
                    "    raise ValueError('done')\n"
                    "def pong(x):\n"
                    "    return ping(x)\n"
                )
            }
        )
        assert "ValueError" in analysis.signature(key_of(analysis, "ping")).raises
        assert "ValueError" in analysis.signature(key_of(analysis, "pong")).raises

    def test_unanalyzed_key_is_honest_top(self):
        analysis = analyze({"repro/core/m.py": "def f(x):\n    return x\n"})
        missing = analysis.signature("nowhere::ghost")
        assert missing.mutates_top and missing.captures_top and missing.raises_top

    def test_repro_error_taxonomy_is_recognized(self):
        assert analysis_is_repro_error("repro.errors.SimulationError")
        assert not analysis_is_repro_error("ValueError")


def analysis_is_repro_error(exc):
    analysis = analyze({"repro/core/m.py": "def f(x):\n    return x\n"})
    return analysis.is_repro_error(exc)
