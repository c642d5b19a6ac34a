"""The allocation rules (H1-H4) and their hot-path designation.

Same golden pattern as ``test_program_rules.py``: the dirty fixture pins
exact (rule, line) pairs, and its clean counterexamples — escaping
buffers, cache fills, non-constant copies, module-level sort keys,
justified pragmas, cold methods — must stay silent. The hot-set closure
and the allocation/escape analysis get direct unit coverage too.
"""

import ast
from pathlib import Path

from repro.lint import lint_file
from repro.lint.alloc import (
    COMPREHENSION,
    CONTAINER_KINDS,
    SORTED_COPY,
    analyze_function,
    sites_of_kind,
)
from repro.lint.graph import ProjectGraph
from repro.lint.hotpaths import (
    DEFAULT_CONFIG,
    compute_hot_set,
    describe_hot_set,
    parse_hot_config,
)

FIXTURES = Path(__file__).parent / "fixtures"
FIXTURE = FIXTURES / "h_alloc_hotpaths.py"


def fixture_findings():
    return lint_file(str(FIXTURE))


def located(findings):
    return sorted((finding.rule, finding.line) for finding in findings)


class TestHRulesGolden:
    def test_flags_exactly_the_dirty_lines(self):
        assert located(fixture_findings()) == [
            ("H1", 28),  # per-iteration comprehension dropped each pass
            ("H2", 32),  # list(self.domain) constant-attr copy
            ("H2", 33),  # container of constants
            ("H3", 34),  # sorted(self.peers) outside the cache fill
            ("H4", 42),  # lambda sort key in hot dispatch
        ]

    def test_clean_counterexamples_stay_silent(self):
        lines = [finding.line for finding in fixture_findings()]
        # 30: comprehension escapes via append + concatenated return;
        # 35: cache-filling assignment; 36: non-constant attribute copy;
        # 43: module-level key function; 44: justified pragma; 48: cold.
        for clean_line in (30, 35, 36, 43, 44, 48):
            assert clean_line not in lines

    def test_messages_name_function_and_state(self):
        by_rule = {}
        for finding in fixture_findings():
            by_rule.setdefault(finding.rule, finding)
        assert "'batch'" in by_rule["H1"].message
        assert "step()" in by_rule["H1"].message
        assert "'self.domain'" in by_rule["H2"].message
        assert "'self.peers'" in by_rule["H3"].message
        assert "lambda" in by_rule["H4"].message
        assert "itemgetter" in by_rule["H4"].hint


class TestHotSet:
    def graph(self):
        source = FIXTURE.read_text(encoding="utf-8")
        return ProjectGraph.build_from_sources(
            [(str(FIXTURE), source, "algorithms/fixture_h_alloc.py")]
        )

    def test_closure_reaches_helpers_but_not_cold_methods(self):
        hot = compute_hot_set(self.graph(), DEFAULT_CONFIG)
        labels = set(hot.labels.values())
        scope = "algorithms/fixture_h_alloc.py"
        assert f"{scope}::ChurningAgent.step" in labels
        assert f"{scope}::ChurningAgent._select" in labels
        assert f"{scope}::ChurningAgent.cold" not in labels

    def test_dunders_are_never_hot(self):
        hot = compute_hot_set(self.graph(), DEFAULT_CONFIG)
        assert not any("__init__" in label for label in hot.labels.values())

    def test_describe_is_deterministic(self):
        first = describe_hot_set(compute_hot_set(self.graph()))
        second = describe_hot_set(compute_hot_set(self.graph()))
        assert first == second
        assert first.splitlines()[0].endswith("root(s)")


class TestHotConfigParsing:
    def test_toml_overrides_merge_over_defaults(self):
        config = parse_hot_config(
            '[hot]\nagent_methods = ["step"]\n'
            'entries = ["algorithms/awc.py::AwcAgent._backtrack"]\n'
        )
        assert config.agent_methods == ("step",)
        assert config.entries == (
            "algorithms/awc.py::AwcAgent._backtrack",
        )
        # untouched keys keep the built-in policy
        assert config.agent_classes == DEFAULT_CONFIG.agent_classes
        assert config.store_classes == DEFAULT_CONFIG.store_classes

    def test_multiline_arrays_and_comments(self):
        config = parse_hot_config(
            "[hot]\n# profiled roots\nentries = [\n"
            '  "a.py::f",  # hottest\n  "b.py::C.m",\n]\n'
        )
        assert config.entries == ("a.py::f", "b.py::C.m")

    def test_committed_config_parses_and_adds_entries(self):
        config = parse_hot_config(
            Path("hotpaths.toml").read_text(encoding="utf-8")
        )
        assert config.store_classes == ("NogoodStore",)
        assert any("AwcAgent" in entry for entry in config.entries)

    def test_committed_hot_set_covers_the_store_scan(self):
        root = Path(__file__).resolve().parents[2]
        graph = ProjectGraph.build(
            str(path) for path in sorted((root / "src").rglob("*.py"))
        )
        config = parse_hot_config(
            (root / "hotpaths.toml").read_text(encoding="utf-8")
        )
        labels = set(compute_hot_set(graph, config).labels.values())
        for helper in ("_scan", "_sync_keys", "_key_miss"):
            assert f"core/store.py::NogoodStore.{helper}" in labels
        # Every profile-observed entry still names a live function.
        for entry in config.entries:
            assert entry in labels

    def test_committed_hot_set_covers_the_medium(self):
        # Every message of both engines goes through the medium's send and
        # pop_due; the random-latency path is reached from send.
        root = Path(__file__).resolve().parents[2]
        graph = ProjectGraph.build(
            str(path) for path in sorted((root / "src").rglob("*.py"))
        )
        config = parse_hot_config(
            (root / "hotpaths.toml").read_text(encoding="utf-8")
        )
        labels = set(compute_hot_set(graph, config).labels.values())
        for method in ("send", "pop_due", "_drawn_arrival"):
            assert f"runtime/network.py::InProcessTransport.{method}" in labels


def analyzed(source):
    tree = ast.parse(source)
    return analyze_function(tree.body[0])


class TestAllocAnalysis:
    def test_returned_buffer_escapes(self):
        analysis = analyzed(
            "def f(xs):\n    out = [x for x in xs]\n    return out\n"
        )
        (site,) = sites_of_kind(analysis, {COMPREHENSION})
        assert analysis.escapes(site)

    def test_containment_propagates_escape(self):
        analysis = analyzed(
            "def f(xs):\n    out = []\n"
            "    for x in xs:\n        row = [x]\n        out.append(row)\n"
            "    return out\n"
        )
        sites = {site.name: site for site in analysis.sites}
        # Escape (checked first by H1) silences the site even though its
        # binding pattern is per-iteration.
        assert analysis.escapes(sites["row"])

    def test_loop_local_temporary_is_iteration_local(self):
        analysis = analyzed(
            "def f(xs):\n    total = 0\n"
            "    for x in xs:\n        row = [y for y in x]\n"
            "        total += len(row)\n    return total\n"
        )
        (site,) = sites_of_kind(analysis, {COMPREHENSION})
        assert not analysis.escapes(site)
        assert analysis.iteration_local(site)

    def test_carry_over_read_is_not_iteration_local(self):
        analysis = analyzed(
            "def f(xs):\n    row = []\n"
            "    for x in xs:\n        use(row)\n"
            "        row = [y for y in x]\n    return 0\n"
        )
        (site,) = sites_of_kind(analysis, {COMPREHENSION})
        assert not analysis.iteration_local(site)

    def test_read_after_loop_is_not_iteration_local(self):
        analysis = analyzed(
            "def f(xs):\n"
            "    for x in xs:\n        row = sorted(x)\n"
            "    return len(row)\n"
        )
        (site,) = sites_of_kind(analysis, {SORTED_COPY})
        assert not analysis.iteration_local(site)

    def test_store_consultation_does_not_retain(self):
        analysis = analyzed(
            "def f(self, view, values, priority):\n"
            "    buf = [v for v in values]\n"
            "    return self.store.count_violated_higher_batch("
            "view, buf, priority)[0]\n"
        )
        (site,) = sites_of_kind(analysis, {COMPREHENSION})
        assert not analysis.escapes(site)

    def test_sorted_copy_classification(self):
        analysis = analyzed(
            "def f(self):\n    return sorted(self.items)\n"
        )
        (site,) = sites_of_kind(analysis, CONTAINER_KINDS)
        assert site.kind == SORTED_COPY
