"""Consistency between the documentation and the code.

DESIGN.md promises a bench per experiment and EXPERIMENTS.md reports them;
these tests keep those promises honest as the code evolves.
"""

import os
import re

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _read(name):
    with open(os.path.join(REPO, name)) as handle:
        return handle.read()


class TestDesignIndex:
    def test_every_indexed_bench_exists(self):
        design = _read("DESIGN.md")
        referenced = set(re.findall(r"benchmarks/(bench_[a-z0-9_]+\.py)", design))
        assert referenced, "DESIGN.md no longer references any bench"
        for bench in referenced:
            assert os.path.exists(
                os.path.join(REPO, "benchmarks", bench)
            ), f"DESIGN.md references missing {bench}"

    def test_every_bench_is_indexed(self):
        design = _read("DESIGN.md")
        on_disk = {
            name
            for name in os.listdir(os.path.join(REPO, "benchmarks"))
            if name.startswith("bench_") and name.endswith(".py")
        }
        indexed = set(re.findall(r"benchmarks/(bench_[a-z0-9_]+\.py)", design))
        undocumented = on_disk - indexed
        assert not undocumented, f"benches missing from DESIGN.md: {undocumented}"

    def test_indexed_modules_exist(self):
        design = _read("DESIGN.md")
        for module in re.findall(r"`repro/([a-z_/]+\.py)`", design):
            assert os.path.exists(
                os.path.join(REPO, "src", "repro", module)
            ), f"DESIGN.md references missing module {module}"


class TestExperimentsReport:
    def test_every_figure_covered(self):
        experiments = _read("EXPERIMENTS.md")
        for figure in ("Figure 1", "Figure 4", "Figure 10", "Figure 11",
                       "Figure 12", "Figure 13", "Section 3.6", "Section 2.6"):
            assert figure in experiments, f"{figure} missing from EXPERIMENTS.md"

    def test_benches_named_in_report_exist(self):
        experiments = _read("EXPERIMENTS.md")
        for bench in set(re.findall(r"`(bench_[a-z0-9_]+\.py)`", experiments)):
            assert os.path.exists(os.path.join(REPO, "benchmarks", bench)), bench


class TestReadme:
    def test_example_scripts_exist(self):
        readme = _read("README.md")
        for script in set(re.findall(r"`([a-z_0-9]+\.py)`", readme)):
            in_examples = os.path.exists(os.path.join(REPO, "examples", script))
            in_benchmarks = os.path.exists(
                os.path.join(REPO, "benchmarks", script)
            )
            assert in_examples or in_benchmarks, (
                f"README references missing {script}"
            )

    def test_quickstart_code_runs(self):
        """The README quickstart snippet must stay executable."""
        readme = _read("README.md")
        match = re.search(r"```python\n(.*?)```", readme, re.S)
        assert match, "no python quickstart block in README"
        code = match.group(1)
        # Shrink the workload so this stays a unit test.
        code = code.replace("n=100_000", "n=5_000")
        namespace: dict = {}
        exec(compile(code, "README-quickstart", "exec"), namespace)


class TestPaperVectorsDocumented:
    def test_design_mentions_substitutions(self):
        design = _read("DESIGN.md")
        assert "Substitutions" in design
        assert "SPEC CPU 2006" in design

    def test_citation_file_has_doi(self):
        citation = _read("CITATION.cff")
        assert "10.1145/2540708.2540733" in citation


class TestEnvironmentVariables:
    """Every ``REPRO_*`` variable the docs name is read by the code."""

    DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md",
            os.path.join(".claude", "skills", "verify", "SKILL.md"))
    CODE_DIRS = ("src", "scripts", "benchmarks")

    def _documented(self):
        docs_dir = os.path.join(REPO, "docs")
        names = list(self.DOCS) + [
            os.path.join("docs", name) for name in sorted(os.listdir(docs_dir))
            if name.endswith(".md")
        ]
        found = {}
        for name in names:
            if not os.path.exists(os.path.join(REPO, name)):
                continue
            for var in re.findall(r"\bREPRO_[A-Z_]+\b", _read(name)):
                found.setdefault(var, name)
        return found

    def _read_by_code(self):
        # A variable counts as read where it appears as a string literal.
        literal = re.compile(r"""["'](REPRO_[A-Z_]+)["']""")
        seen = set()
        for top in self.CODE_DIRS:
            for root, _dirs, files in os.walk(os.path.join(REPO, top)):
                for name in files:
                    if name.endswith(".py"):
                        with open(os.path.join(root, name)) as handle:
                            seen.update(literal.findall(handle.read()))
        return seen

    def test_documented_variables_are_read(self):
        documented = self._documented()
        assert documented, "the docs no longer name any REPRO_* variable"
        stale = {
            var: doc for var, doc in documented.items()
            if var not in self._read_by_code()
        }
        assert not stale, f"documented but read by no code: {stale}"
